"""Experiment harness: dataset ingestion, seeded trial execution and
scoring, parameter sweeps with power-law fits, and CSV emission.

A trial is scored against the sampled-coordinate true sum: for each
coordinate l, the sum of x_i^(l) over exactly those users that sampled l
in the trial.  The normalized MSE scales the total squared error by
(d/n)^2.

A sweep varies exactly one axis (t, k, d, n or eps) while every other
parameter stays at its configured value.  Per sweep point the blanket
probability is recalibrated; for the d, n and eps axes the quantization
level is re-chosen as well (unless gamma is set), since a k tuned for
one operating point is far from optimal elsewhere and would distort the
dependency being measured.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import typing
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.random  # numpy 2 loads it lazily; every run seeds its trials with it

from .calibration import (
    InfeasibleParametersError,
    PrivacyBudget,
    ProtocolParams,
    _check_integer,
    bound_mse,
    calibrate_gamma,
    choose_k_general,
    choose_k_t1,
)
from .protocol import _simulate_round

SWEEP_AXES = ("t", "k", "d", "n", "eps")
FITTED_AXES = ("d", "n", "eps")
# The allowed values of ExperimentConfig's string settings (axis may also
# be None: no sweep).
CHOICES = {
    "axis": SWEEP_AXES,
    "normalize": ("clamp", "minmax"),
    "calibration": ("auto", "general"),
}
LONG_HEADER = (
    "axis",
    "value",
    "trial",
    "seed",
    "total_sq_err",
    "normalized_mse",
    "bound_mse",
)
SUMMARY_HEADER = (
    "axis",
    "value",
    "status",
    "k",
    "gamma",
    "trials",
    "mean_normalized_mse",
    "stderr_normalized_mse",
    "bound_mse",
    "reason",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration; defaults follow the reference operating point.

    Sweep values are stored as the axis field's type, so every point is
    an exact, valid setting of that field.  A set gamma is used as given,
    so it needs calibration "auto" (see `resolve_point`)."""

    d: int = 100
    k: int = 3
    n: int = 50000
    t: int = 1
    eps: float = 0.95
    delta: float = 0.5
    axis: str | None = None
    values: tuple = ()
    trials: int = 30
    seed: int = 0
    dataset: str | None = None
    drop_label: bool = False
    normalize: str = "clamp"
    calibration: str = "auto"
    gamma: float | None = None
    out_dir: str | None = None

    def __post_init__(self):
        for name, kind in SETTING_TYPES.items():
            if kind is int:
                _check_integer(name, getattr(self, name))
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed and not (name == "axis" and value is None):
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        if self.axis is None:
            if len(self.values):
                raise ValueError("sweep values need a sweep axis")
        elif len(self.values) == 0:
            raise ValueError("a sweep axis needs a non-empty value list")
        else:
            kind = SETTING_TYPES[self.axis]
            for value in self.values:
                if kind is int:
                    _check_integer(f"{self.axis} sweep value", value)
                elif isinstance(value, bool):
                    raise ValueError(f"{self.axis} sweep value must be a number, got {value!r}")
            object.__setattr__(self, "values", tuple(map(kind, self.values)))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.gamma is not None:
            if isinstance(self.gamma, bool) or not 0.0 <= self.gamma <= 1.0:
                raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
            if self.calibration == "general":
                raise ValueError("a set gamma is used as given, so calibration must be auto")


# Each setting's scalar type: int, float, str, bool, or tuple for values.
SETTING_TYPES = {
    name: next((a for a in typing.get_args(hint) if a is not type(None)), hint)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


@dataclass
class SweepResult:
    """`rows` holds one dict per (point, trial); `summary` one per point, its
    one record, with only what the point reached.  `exponent` and `r_squared`
    are the power-law fit of a d, n or eps sweep (None without one), whose
    ok points also hold the fitted curve's value as "fitted"."""

    rows: list = field(default_factory=list)
    summary: list = field(default_factory=list)
    exponent: float | None = None
    r_squared: float | None = None


@dataclass(frozen=True)
class TrialResult:
    """Squared-error summary of a single protocol run."""

    total_squared_error: float
    normalized_mse: float


def _read_cells(text: str, path) -> np.ndarray:
    """`ingest_csv`'s per-cell reader of path's text, already read: the only one
    that reads quoted cells, "1_0" and whitespace-only lines, and names an error's position."""
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:  # named by file line, as a quoted cell may span lines
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            parsed = []
            for j, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable cell at row {reader.line_num}, "
                        f"column {j + 1}: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite cell at row {reader.line_num}, "
                        f"column {j + 1}: {value}"
                    )
                parsed.append(value)
            rows.append(parsed)
    except csv.Error as exc:  # a cell over csv.field_size_limit(), say
        raise ValueError(f"{path}: unreadable CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty dataset")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows, dtype=float)


def _loadtxt_agrees(text: str) -> bool:
    """Whether np.loadtxt reads text as `_read_cells` does: numpy warns on an
    empty or whitespace-only text, strips \\x1c-\\x1f around a number and
    reads a cell (so a \\n-separated line) over csv.field_size_limit(), which
    float() and csv refuse."""
    if not text or text.isspace() or any(map(text.__contains__, "\x1c\x1d\x1e\x1f")):
        return False
    limit, start = csv.field_size_limit(), 0
    while len(text) - start > limit:
        end = text.rfind("\n", start, start + limit + 1)
        if end < 0:
            return False
        start = end + 1
    return True


def ingest_csv(
    path, drop_label: bool = False, normalize: str = "clamp"
) -> tuple[np.ndarray, str]:
    """Read a UTF-8 CSV of real-valued rows into a [0, 1] matrix.  Returns
    (matrix, provenance): the float64 2-D matrix and a record of the steps
    that produced it.

    drop_label removes the trailing column.  normalize="clamp" clips into
    [0, 1]; "minmax" rescales by the global min/max.  Unparseable and
    non-finite (nan, inf) cells are reported with their row/column position.
    One np.loadtxt call parses the file; one it rejects or would misread, or
    that holds a non-finite cell, is read again from the same text by `_read_cells`.
    """
    if normalize not in CHOICES["normalize"]:
        raise ValueError(f"normalize must be one of {CHOICES['normalize']}, got {normalize!r}")
    matrix = None
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
        if _loadtxt_agrees(text):
            # loadtxt reads the file a second time, through this handle: a path
            # makes numpy import gzip, and io.StringIO(text) parses slower and
            # raises peak memory
            fh.seek(0)
            with contextlib.suppress(ValueError):
                matrix = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)  # "#" is a cell
    if matrix is None or not np.isfinite(matrix).all():
        matrix = _read_cells(text, path)
    steps = [f"read {matrix.shape[0]}x{matrix.shape[1]} from {path}"]
    if drop_label:
        if matrix.shape[1] < 2:
            raise ValueError(f"{path}: cannot drop label from single-column data")
        matrix = matrix[:, :-1]
        steps.append("dropped trailing label column")
    if normalize == "minmax":
        lo, hi = matrix.min(), matrix.max()
        if hi == lo:
            raise ValueError(f"{path}: constant data, min-max normalization undefined")
        matrix = (matrix - lo) / (hi - lo)
        steps.append(f"min-max normalized from [{lo:g}, {hi:g}]")
    else:
        clipped = int(np.sum((matrix < 0) | (matrix > 1)))
        matrix = np.clip(matrix, 0.0, 1.0)
        if clipped:
            steps.append(f"clamped {clipped} entries into [0, 1]")
    return matrix, "; ".join(steps)


def fit_matrix(matrix, n: int, d: int) -> np.ndarray:
    """The first n rows (all of them if fewer) of a 2-D raw matrix, columns
    truncated or zero-padded to d: `run_trial` gives user i row i % rows
    of this table, so no (n, d) matrix is built."""
    _check_integer("n", n)
    _check_integer("d", d)
    matrix = np.asarray(matrix, dtype=float)
    rows, cols = matrix.shape  # ValueError unless 2-D
    out = np.zeros((min(rows, n), d))
    out[:, : min(cols, d)] = matrix[:n, :d]
    return out


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Deterministic 64-bit seed for one (sweep point, trial) cell."""
    _check_integer("master_seed", master_seed)
    _check_integer("point_index", point_index)
    _check_integer("trial_index", trial_index)
    ss = np.random.SeedSequence([int(master_seed), int(point_index), int(trial_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def empirical_mse(estimates, truth, params: ProtocolParams) -> TrialResult:
    """Per-coordinate squared errors of the debiased sum estimates (the
    analyzer's (d,) array) against the sampled-coordinate true sums, also
    (d,) (else ValueError), totalled and (d/n)^2-normalized."""
    estimates, truth = np.asarray(estimates, dtype=float), np.asarray(truth, dtype=float)
    if estimates.shape != (params.d,) or truth.shape != (params.d,):
        raise ValueError(
            f"estimates {estimates.shape} and truth {truth.shape} must both be (d={params.d},)"
        )
    total = float(((estimates - truth) ** 2).sum())
    return TrialResult(
        total_squared_error=total,
        normalized_mse=total * (params.d / params.n) ** 2,
    )


def run_trial(table, params: ProtocolParams, rng: np.random.Generator) -> TrialResult:
    """One full protocol round (`protocol._simulate_round`), scored against
    the sampled-coordinate true sums.  `table` is (rows, d) with
    1 <= rows <= n, and user i holds row i % rows, so an (n, d) matrix
    gives each user its own row."""
    return empirical_mse(*_simulate_round(table, params, rng), params)


def resolve_point(config: ExperimentConfig, value=None):
    """Calibrate one sweep point.  Returns (params, budget, mode), where
    mode is "manual" when gamma is set, "t1" under auto calibration at
    t = 1, and "general" otherwise."""
    pc = config
    if config.axis is not None and value is not None:
        pc = replace(config, **{config.axis: value})
    budget = PrivacyBudget(pc.eps, pc.delta)
    k, gamma = pc.k, pc.gamma
    if gamma is not None:
        mode = "manual"
        if gamma >= 1.0:  # a calibrated gamma >= 1 raises in the calibrator
            raise InfeasibleParametersError(f"gamma = {gamma:.6g} leaves no truthful signal")
    else:
        mode = "t1" if pc.calibration == "auto" and pc.t == 1 else "general"
        if config.axis in FITTED_AXES:
            if mode == "t1":
                k = choose_k_t1(budget, pc.d, pc.n)
            else:
                k = choose_k_general(budget, pc.d, pc.n, pc.t)
        gamma = calibrate_gamma(budget, pc.d, k, pc.n, pc.t, mode)
    params = ProtocolParams(d=pc.d, k=k, n=pc.n, t=pc.t, gamma=gamma)
    return params, budget, mode


def fit_power_law(xs, ys):
    """Least-squares fit of log y on log x.

    Returns (exponent, r_squared, amplitude), with y ~ amplitude x^exponent.
    Requires at least 3 strictly positive points and non-constant xs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise ValueError(f"need at least 3 points, got {xs.size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("all points must be strictly positive")
    lx, ly = np.log(xs), np.log(ys)
    if np.allclose(lx, lx[0]):
        raise ValueError("degenerate fit: xs are constant")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return float(slope), r_squared, float(np.exp(intercept))


def run_sweep(config: ExperimentConfig, matrix) -> SweepResult:
    """Execute all sweep points on `matrix`, the already-normalized raw
    matrix (rows x features, entries in [0, 1]) that `ingest_csv` returns.

    Per point only the column-fitted table of min(rows, n) rows is built
    (`fit_matrix`), and `run_trial` gives user i row i % rows, in blocks:
    memory is O(rows d) per point and O(block + rows + d) per trial."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or 0 in matrix.shape:
        raise ValueError(f"matrix must be 2-D with rows and columns, got shape {matrix.shape}")
    # 1/n is smallest at the largest n the sweep runs; an n_max <= 0 is
    # refused by resolve_point below
    n_max = max(config.values) if config.axis == "n" else config.n
    if n_max > 0 and config.delta >= 1.0 / n_max:
        warnings.warn(
            f"delta = {config.delta:g} is large relative to 1/n = {1.0 / n_max:g}",
            stacklevel=2,
        )
    points = list(config.values) if config.axis is not None else [None]
    # Calibrate every point before the first trial: an invalid value then
    # fails the sweep before any work, and an infeasible one is skipped.
    resolved = []
    for value in points:
        try:
            resolved.append(resolve_point(config, value))
        except InfeasibleParametersError as exc:
            resolved.append(exc)
    result = SweepResult()
    for pi, (value, point) in enumerate(zip(points, resolved)):
        label = {"axis": config.axis or "none", "value": "" if value is None else value}
        if isinstance(point, InfeasibleParametersError):
            result.summary.append(dict(label, status="skipped", trials=0, reason=str(point)))
            continue
        params, budget, mode = point
        # the bound of the analysis gamma came from: the tightened t = 1 one
        # only under the t1 calibration, the general one otherwise (manual too)
        bound = bound_mse(params, budget, "t1" if mode == "t1" else "general")
        table = fit_matrix(matrix, params.n, params.d)
        mses = []
        for ti in range(config.trials):
            seed = trial_seed(config.seed, pi, ti)
            tr = run_trial(table, params, np.random.default_rng(seed))
            mses.append(tr.normalized_mse)
            result.rows.append(
                {
                    **label,
                    "trial": ti,
                    "seed": seed,
                    "total_sq_err": tr.total_squared_error,
                    "normalized_mse": tr.normalized_mse,
                    "bound_mse": bound,
                }
            )
        mses = np.asarray(mses)
        mean = float(mses.mean())
        stderr = float(mses.std(ddof=1) / math.sqrt(len(mses))) if len(mses) > 1 else 0.0
        result.summary.append(
            dict(
                label, status="ok", k=params.k, gamma=params.gamma, trials=config.trials,
                mean_normalized_mse=mean, stderr_normalized_mse=stderr, bound_mse=bound,
            )
        )
    ok = [s for s in result.summary if s["status"] == "ok"]
    if not ok:
        reasons = ", ".join(
            f"{s['axis']}={s['value']} ({s['reason']})" if config.axis else s["reason"]
            for s in result.summary
        )
        raise InfeasibleParametersError(f"no feasible sweep points: {reasons}")
    if config.axis in FITTED_AXES:
        xs = [float(s["value"]) for s in ok]
        try:  # fewer than 3 points, constant xs or a zero mean MSE leave no fit
            result.exponent, result.r_squared, amplitude = fit_power_law(
                xs, [s["mean_normalized_mse"] for s in ok]
            )
        except ValueError:
            return result
        for s, x in zip(ok, xs):
            s["fitted"] = amplitude * x**result.exponent
    return result


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def emit_outputs(result: SweepResult, out_dir):
    """Write the results tables under out_dir.  Returns the file paths.

    long.csv holds one row per (point, trial) with the seed needed to
    replay it; summary.csv one row per point (skipped points included);
    plot.csv the mean/stderr and fitted power-law curve of the points that
    carry one.  Without such points, a plot.csv left by an earlier output
    is removed.
    """
    if not result.rows:
        raise ValueError("nothing to emit: empty results")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "long": os.path.join(out_dir, "long.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
    }
    _write_csv(paths["long"], LONG_HEADER, result.rows)
    _write_csv(paths["summary"], SUMMARY_HEADER, result.summary)
    plot = os.path.join(out_dir, "plot.csv")
    fitted = [s for s in result.summary if "fitted" in s]
    if fitted:
        paths["plot"] = plot
        header = ("value", "mean_normalized_mse", "stderr_normalized_mse", "fitted")
        _write_csv(plot, header, fitted)  # writes only the header's columns
    else:
        with contextlib.suppress(FileNotFoundError):
            os.remove(plot)
    return paths
