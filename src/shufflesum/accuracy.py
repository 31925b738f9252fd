"""Empirical error estimators, closed-form accuracy bound evaluators, and
log-log power-law fitting for the parameter-dependency sweeps.

The empirical target is the sampled-coordinate true sum: for each
coordinate l, the sum of x_i^(l) over exactly those users that sampled l
in the trial.  The normalized MSE scales the total squared error by
(d/n)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import EstimateVector
from .calibration import PrivacyBudget, ProtocolParams
from .exceptions import InfeasibleParametersError


@dataclass(frozen=True)
class TrialResult:
    """Squared-error summary of a single protocol run."""

    total_squared_error: float
    normalized_mse: float
    per_coordinate_errors: np.ndarray  # squared errors, length d


@dataclass(frozen=True)
class BoundReport:
    """Closed-form accuracy bound with its regime/branch tag."""

    mse_bound: float
    branch: str


def empirical_mse(
    estimates: EstimateVector, truth, params: ProtocolParams
) -> TrialResult:
    """Per-coordinate squared errors of the debiased sum estimates against
    the sampled-coordinate true sums, totalled and (d/n)^2-normalized."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != estimates.values.shape:
        raise ValueError(
            f"truth shape {truth.shape} does not match estimates {estimates.values.shape}"
        )
    sq = (estimates.values - truth) ** 2
    total = float(sq.sum())
    return TrialResult(
        total_squared_error=total,
        normalized_mse=total * (params.d / params.n) ** 2,
        per_coordinate_errors=sq,
    )


def _check_feasible(params: ProtocolParams):
    if params.gamma >= 1.0:
        raise InfeasibleParametersError("bounds undefined for gamma >= 1")


def bound_mse_general(params: ProtocolParams, budget: PrivacyBudget) -> BoundReport:
    """Normalized-MSE upper bound for the general-t mechanism.

    Low regime:  2 t d^(8/3) (14 ln(1/delta) ln(2t/delta))^(2/3)
                 / ((1-gamma)^2 n^(5/3) eps^(4/3))
    High regime: same shape with 8 t (63 ...)^(2/3).
    """
    _check_feasible(params)
    d, n, t = params.d, params.n, params.t
    eps, delta = budget.epsilon, budget.delta
    loglog = math.log(1.0 / delta) * math.log(2.0 * t / delta)
    if budget.high_regime:
        lead, inner, branch = 8.0 * t, 63.0 * loglog, "high-general"
    else:
        lead, inner, branch = 2.0 * t, 14.0 * loglog, "low-general"
    mse = (
        lead
        * d ** (8.0 / 3.0)
        * inner ** (2.0 / 3.0)
        / ((1.0 - params.gamma) ** 2 * n ** (5.0 / 3.0) * eps ** (4.0 / 3.0))
    )
    return BoundReport(mse_bound=mse, branch=branch)


def bound_mse_t1(params: ProtocolParams, budget: PrivacyBudget) -> BoundReport:
    """Tightened normalized-MSE upper bound for t = 1 (max of two branches)."""
    if params.t != 1:
        raise ValueError(f"t=1 bound requested with t={params.t}")
    _check_feasible(params)
    d, n = params.d, params.n
    eps, delta = budget.epsilon, budget.delta
    shape = d ** (8.0 / 3.0) / ((1.0 - params.gamma) ** 2 * n ** (5.0 / 3.0))
    log2d = math.log(2.0 / delta)
    if budget.high_regime:
        mse = shape * max(
            2.0 * (20.0 * log2d) ** (2.0 / 3.0) / eps ** (4.0 / 3.0),
            2.0 * 9.0 ** (2.0 / 3.0) / (11.0 * eps) ** (2.0 / 3.0),
        )
        branch = "high-t1"
    else:
        mse = shape * max(
            98.0 ** (1.0 / 3.0) * log2d ** (2.0 / 3.0) / eps ** (4.0 / 3.0),
            18.0 / (4.0 * eps) ** (2.0 / 3.0),
        )
        branch = "low-t1"
    return BoundReport(mse_bound=mse, branch=branch)


def fit_power_law(xs, ys):
    """Least-squares fit of log y on log x.

    Returns (exponent, r_squared).  Requires at least 3 strictly positive
    points and non-constant xs.
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
    return float(slope), r_squared
