"""Empirical error estimators, closed-form accuracy bound evaluators, and
log-log power-law fitting for the parameter-dependency sweeps.

The empirical target is the sampled-coordinate true sum: for each
coordinate l, the sum of x_i^(l) over exactly those users that sampled l
in the trial.  The normalized MSE scales the total squared error by
(d/n)^2.  The bounds read the calibration table: where gamma is
max c d k F / ((n-1) D), the bound is
t d^(8/3) max (c F / D)^(2/3) / (2^(1/3) (1-gamma)^2 n^(5/3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import EstimateVector
from .calibration import PrivacyBudget, ProtocolParams, _branches
from .exceptions import InfeasibleParametersError


@dataclass(frozen=True)
class TrialResult:
    """Squared-error summary of a single protocol run."""

    total_squared_error: float
    normalized_mse: float


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
    total = float(((estimates.values - truth) ** 2).sum())
    return TrialResult(
        total_squared_error=total,
        normalized_mse=total * (params.d / params.n) ** 2,
    )


def _bound(params: ProtocolParams, budget: PrivacyBudget, analysis: str) -> BoundReport:
    if params.gamma >= 1.0:
        raise InfeasibleParametersError("bounds undefined for gamma >= 1")
    d, n, t = params.d, params.n, params.t
    worst = max(math.prod(f, start=c) / den for c, f, den in _branches(budget, t, analysis))
    shape = t * d ** (8.0 / 3.0) / ((1.0 - params.gamma) ** 2 * n ** (5.0 / 3.0))
    mse = shape * worst ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)
    regime = "high" if budget.high_regime else "low"
    return BoundReport(mse_bound=mse, branch=f"{regime}-{analysis}")


def bound_mse_general(params: ProtocolParams, budget: PrivacyBudget) -> BoundReport:
    """Normalized-MSE upper bound for the general-t mechanism.

    Low regime:  2 t d^(8/3) (14 ln(1/delta) ln(2t/delta))^(2/3)
                 / ((1-gamma)^2 n^(5/3) eps^(4/3))
    High regime: same shape with 8 t (63 ...)^(2/3).
    """
    return _bound(params, budget, "general")


def bound_mse_t1(params: ProtocolParams, budget: PrivacyBudget) -> BoundReport:
    """Tightened normalized-MSE upper bound for t = 1 (max of two branches)."""
    if params.t != 1:
        raise ValueError(f"t=1 bound requested with t={params.t}")
    return _bound(params, budget, "t1")


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
