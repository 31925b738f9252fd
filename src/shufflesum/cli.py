"""Command-line front end: shufflesum <command> [flags].

Commands: params (print calibration), run (single experiment),
sweep (one-axis sweep), audit (privacy audit, n <= 3161: exact for n
all-zero users against a final user of ones, so a lower bound on the
mechanism's epsilon), ingest-check (validate a dataset file).  The
flags, and the keys of a --config file, are ExperimentConfig's fields
(`_` written as `-` in a flag); axis and values are for sweep only.

Exit codes: 0 success, 1 usage error, 2 infeasible parameters,
3 I/O error, 4 audit failure.
"""

from __future__ import annotations

import argparse
import sys

from .audit import exact_audit
from .calibration import InfeasibleParametersError, compose_epsilon_prime
from .harness import (
    CHOICES,
    SETTING_TYPES,
    ExperimentConfig,
    emit_outputs,
    ingest_csv,
    resolve_point,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_AUDIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text):
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not one of 1/true/yes or 0/false/no") from None


# How a setting's text is read; str settings and the sweep's values list
# stay text (values are typed by their axis in _build_config).
_PARSE = {int: int, float: float, bool: _parse_bool}


def _read_config_file(path):
    """The file's settings, and the line each one was read from."""
    out, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            if key not in SETTING_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = _PARSE.get(SETTING_TYPES[key], str)(text)
                if key in CHOICES and value not in CHOICES[key]:
                    raise ValueError(f"{text!r} is not one of {CHOICES[key]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
            out[key], lines[key] = value, lineno
    return out, lines


def _build_config(args) -> ExperimentConfig:
    settings, lines = _read_config_file(args.config) if args.config else ({}, {})
    for key in SETTING_TYPES:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
            lines.pop(key, None)
    if args.command != "sweep":
        if "axis" in settings or "values" in settings:
            raise ValueError("axis and values apply only to the sweep subcommand")
    elif "axis" not in settings or "values" not in settings:
        raise ValueError("sweep requires --axis and --values")
    else:
        axis = settings["axis"]
        kind = SETTING_TYPES[axis]
        where = f"{args.config}:{lines['values']}: " if "values" in lines else ""

        def typed(text):
            try:
                return kind(text)
            except ValueError:
                raise ValueError(
                    f"{where}bad value for values: {text.strip()!r} is not "
                    f"a valid {kind.__name__} for axis {axis}"
                ) from None

        settings["values"] = tuple(
            typed(p) for p in settings["values"].split(",") if p.strip()
        )
    return ExperimentConfig(**settings)


def _cmd_params(config):
    params, budget, mode = resolve_point(config)
    eps_prime, delta_prime = compose_epsilon_prime(budget, params.t)
    print(f"calibration mode: {mode}")
    print(f"d={params.d} k={params.k} n={params.n} t={params.t}")
    print(f"epsilon={budget.epsilon} delta={budget.delta}")
    print(f"gamma={params.gamma!r}")
    print(f"per-coordinate epsilon'={eps_prime!r} delta'={delta_prime!r}")
    return EXIT_OK


def _cmd_run(config):
    """run and sweep: one point, or one per sweep value."""
    result = run_sweep(config)
    for s in result.summary:
        if s["status"] == "ok":
            print(
                f"{s['axis']}={s['value'] or '-'} k={s['k']} gamma={s['gamma']:.6g} "
                f"mse={s['mean_normalized_mse']:.6g} +/- {s['stderr_normalized_mse']:.3g} "
                f"(bound {s['bound_mse']:.6g})"
            )
        else:
            print(f"{s['axis']}={s['value']} skipped: {s['reason']}")
    if result.exponent is not None:
        print(f"fitted exponent: {result.exponent:.4f} (r^2 {result.r_squared:.4f})")
    if config.out_dir:
        paths = emit_outputs(result, config.out_dir)
        for name, path in sorted(paths.items()):
            print(f"wrote {name}: {path}")
    return EXIT_OK


def _cmd_audit(config):
    """Exact audit of the all-zeros dataset against a final user of ones;
    --trials and --seed are accepted and ignored, as by params."""
    params, budget, _mode = resolve_point(config)
    verdict = exact_audit(params, budget)
    print(
        f"exact epsilon {verdict.exact_epsilon:.4f} vs "
        f"target {budget.epsilon:.4f}; "
        f"delta({budget.epsilon:g}) {verdict.exact_delta:.4g} vs "
        f"target {budget.delta:g}: {'PASS' if verdict.passed else 'FAIL'}"
    )
    return EXIT_OK if verdict.passed else EXIT_AUDIT


def _cmd_ingest_check(config):
    if config.dataset is None:
        raise ValueError("ingest-check requires --dataset")
    matrix, provenance = ingest_csv(
        config.dataset, drop_label=config.drop_label, normalize=config.normalize
    )
    print(f"shape: {matrix.shape[0]} rows x {matrix.shape[1]} columns")
    print(f"range: [{matrix.min():g}, {matrix.max():g}]")
    print(f"provenance: {provenance}")
    return EXIT_OK


COMMANDS = {
    "params": _cmd_params,
    "run": _cmd_run,
    "sweep": _cmd_run,
    "audit": _cmd_audit,
    "ingest-check": _cmd_ingest_check,
}


def _build_parser():
    parser = _Parser(prog="shufflesum", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for name, kind in SETTING_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, action="store_true", default=None)
        else:
            parser.add_argument(flag, type=_PARSE.get(kind, str), choices=CHOICES.get(name))
    return parser


# Built once, at import: building it loads argparse's gettext machinery,
# which main should not pay for on every call.
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return COMMANDS[args.command](_build_config(args))
    except SystemExit as exc:
        return int(exc.code or 0)
    except InfeasibleParametersError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
