"""Command-line front end.

Subcommands: params (print calibration), run (single experiment),
sweep (one-axis sweep), audit (exact tiny-instance privacy audit),
ingest-check (validate a dataset file).

Exit codes: 0 success, 1 usage error, 2 infeasible parameters,
3 I/O error, 4 audit failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .audit import NeighborPair, exact_audit
from .calibration import PrivacyBudget, compose_epsilon_prime
from .exceptions import InfeasibleParametersError
from .harness import (
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


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--d", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset")
    p.add_argument("--drop-label", action="store_true", default=None)
    p.add_argument("--normalize", choices=("clamp", "minmax"))
    p.add_argument("--calibration", choices=("auto", "general", "t1", "manual"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--out-dir")


_CONFIG_TYPES = {
    "d": int,
    "k": int,
    "n": int,
    "t": int,
    "eps": float,
    "delta": float,
    "trials": int,
    "seed": int,
    "dataset": str,
    "drop_label": lambda s: s.lower() in ("1", "true", "yes"),
    "normalize": str,
    "calibration": str,
    "gamma": float,
    "out_dir": str,
    "axis": str,
    "values": str,
}


def _read_config_file(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _CONFIG_TYPES[key](value.strip())
    return out


def _parse_values(axis, raw):
    parts = [p for p in raw.split(",") if p.strip()]
    if axis == "eps":
        return tuple(float(p) for p in parts)
    return tuple(int(p) for p in parts)


def _build_config(args, need_axis=False) -> ExperimentConfig:
    fields = {}
    if getattr(args, "config", None):
        fields.update(_read_config_file(args.config))
    for key in _CONFIG_TYPES:
        cli = getattr(args, key, None)
        if cli is not None:
            fields[key] = cli
    axis = fields.pop("axis", None)
    raw_values = fields.pop("values", None)
    if not need_axis:
        if axis is not None or raw_values is not None:
            raise ValueError("axis and values apply only to the sweep subcommand")
        return ExperimentConfig(**fields)
    if axis is None or raw_values is None:
        raise ValueError("sweep requires --axis and --values")
    return ExperimentConfig(axis=axis, values=_parse_values(axis, raw_values), **fields)


def _cmd_params(args):
    config = _build_config(args)
    params, budget, mode = resolve_point(config)
    composed = compose_epsilon_prime(budget, params.t)
    print(f"calibration mode: {mode}")
    print(f"d={params.d} k={params.k} n={params.n} t={params.t}")
    print(f"epsilon={budget.epsilon} delta={budget.delta}")
    print(f"gamma={params.gamma!r}")
    print(f"per-coordinate epsilon'={composed.epsilon_prime!r} delta'={composed.delta_prime!r}")
    return EXIT_OK


def _run_and_emit(config):
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


def _cmd_run(args):
    return _run_and_emit(_build_config(args))


def _cmd_sweep(args):
    return _run_and_emit(_build_config(args, need_axis=True))


def _cmd_audit(args):
    """Exact audit of the all-zeros dataset against a final user of ones;
    --trials and --seed are accepted and ignored, as by params."""
    config = _build_config(args)
    params, budget, _mode = resolve_point(config)
    pair = NeighborPair(
        dataset=np.zeros((params.n, params.d)), alt_last=np.ones(params.d)
    )
    verdict = exact_audit(pair, params, budget)
    print(
        f"exact epsilon {verdict.exact_epsilon:.4f} vs "
        f"target {verdict.theoretical_epsilon:.4f}; "
        f"delta({budget.epsilon:g}) {verdict.exact_delta:.4g} vs "
        f"target {budget.delta:g}: {'PASS' if verdict.passed else 'FAIL'}"
    )
    return EXIT_OK if verdict.passed else EXIT_AUDIT


def _cmd_ingest_check(args):
    config = _build_config(args)
    if config.dataset is None:
        raise ValueError("ingest-check requires --dataset")
    ds = ingest_csv(
        config.dataset, drop_label=config.drop_label, normalize=config.normalize
    )
    print(f"shape: {ds.values.shape[0]} rows x {ds.values.shape[1]} columns")
    print(f"range: [{ds.values.min():g}, {ds.values.max():g}]")
    print(f"provenance: {ds.provenance}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(prog="shufflesum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("params", _cmd_params),
        ("run", _cmd_run),
        ("sweep", _cmd_sweep),
        ("audit", _cmd_audit),
        ("ingest-check", _cmd_ingest_check),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--axis", choices=("t", "k", "d", "n", "eps"))
            p.add_argument("--values", help="comma-separated sweep values")
        p.set_defaults(func=fn)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
