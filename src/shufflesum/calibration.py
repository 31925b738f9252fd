"""Privacy-budget handling, mechanism parameter calibration and the
closed-form accuracy bounds.

Everything here is a pure function of its arguments.  The blanket
probability gamma is the fraction of randomized-response submissions
replaced by uniform noise.  One table, `_branches`, holds the paper's
constants for the t = 1 and general-t analyses in the low (epsilon < 1)
and high (1 <= epsilon < 6) regimes; gamma, k and the accuracy bounds
all derive from it.  Where gamma is max c d k F / ((n-1) D), the
normalized-MSE bound is
t d^(8/3) max (c F / D)^(2/3) / (2^(1/3) (1-gamma)^2 n^(5/3)).
Budgets with epsilon >= 6 are rejected.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

EPSILON_MAX = 6.0


@dataclass(frozen=True)
class PrivacyBudget:
    """Target (epsilon, delta) differential privacy budget."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if isinstance(self.epsilon, bool) or not (0.0 < self.epsilon < EPSILON_MAX):
            raise ValueError(f"epsilon must be in (0, {EPSILON_MAX}), got {self.epsilon}")
        if isinstance(self.delta, bool) or not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def high_regime(self) -> bool:
        """True when 1 <= epsilon < 6 (boundary assigned to the high case)."""
        return self.epsilon >= 1.0


@dataclass(frozen=True)
class ProtocolParams:
    """Fully calibrated mechanism configuration (d, k, n, t, gamma).
    d, k, n and t must be integers (numpy integers included, bool not)."""

    d: int
    k: int
    n: int
    t: int
    gamma: float

    def __post_init__(self):
        _check_dims(self.d, self.n, self.t, self.k)
        if isinstance(self.gamma, bool) or not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def compose_epsilon_prime(budget: PrivacyBudget, r: int) -> tuple[float, float]:
    """Split a target budget into a per-fold budget for r-fold composition.

    Returns (epsilon', delta'): epsilon' = epsilon / (2 sqrt(2 r ln(1/delta)))
    in the low regime, where the high regime scales the 2 by a further
    factor of 6, and delta' = delta / r.
    """
    _check_integer("r", r)
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    log_term = math.log(1.0 / budget.delta)
    scale = 12.0 if budget.high_regime else 2.0
    denom = scale * math.sqrt(2.0 * r * log_term)
    return budget.epsilon / denom, budget.delta / r


def _check_integer(name: str, value):
    """The integer rule for d, k, n, t and r: numpy integers pass, bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_dims(d: int, n: int, t: int, k: int = 1):
    """The integer and range rules for d, k, n and t; choose_k_t1 has no k yet."""
    for name, value in (("d", d), ("k", k), ("n", n), ("t", t)):
        _check_integer(name, value)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (1 <= t <= d):
        raise ValueError(f"t must be in [1, d], got t={t}, d={d}")


class InfeasibleParametersError(ValueError):
    """A blanket probability gamma of at least 1, which would make the output
    pure noise: one that a calibrator requires or one that is set (in
    `resolve_point`, the bound evaluators or the analyzer).  Never clamped."""


def _feasible_gamma(gamma: float, context: str) -> float:
    # Never clamp: gamma = 1 would make the output pure noise.
    if gamma >= 1.0:
        raise InfeasibleParametersError(
            f"{context}: required blanket probability {gamma:.6g} is not below 1; "
            "increase n or relax the budget"
        )
    return gamma


def _branches(budget: PrivacyBudget, t: int, analysis: str):
    """The paper's constants, one (c, factors, den) per branch of the "t1" or
    "general" analysis: gamma = max c d k prod(factors) / ((n-1) den)."""
    eps, delta = budget.epsilon, budget.delta
    if analysis == "general":
        logs = (math.log(1.0 / delta), math.log(2.0 * t / delta))
        return [(2016.0 if budget.high_regime else 56.0, logs, eps**2)]
    log2d = math.log(2.0 / delta)
    if budget.high_regime:
        # The linear branch never decides a result: it would need
        # eps > (80 * 11/36) ln(2/delta) > 16.9, while eps < 6.
        return [(80.0, (log2d,), eps**2), (36.0 / 11.0, (), eps)]
    return [(14.0, (log2d,), eps**2), (27.0, (), eps)]


def _gamma(budget: PrivacyBudget, d: int, k: int, n: int, t: int, analysis: str) -> float:
    _check_dims(d, n, t, k)
    # math.prod multiplies left to right from start, so gamma rounds as c*d*k*F1*F2 does
    return max(
        math.prod(factors, start=c * d * k) / ((n - 1) * den)
        for c, factors, den in _branches(budget, t, analysis)
    )


def calibrate_gamma_general(
    budget: PrivacyBudget, d: int, k: int, n: int, t: int
) -> float:
    """Blanket probability for the general-t mechanism.

    gamma = C d k ln(1/delta) ln(2t/delta) / ((n-1) eps^2), with C = 56 in
    the low regime and C = 2016 in the high regime.  Raises
    InfeasibleParametersError when the formula is at least 1.

    In both regimes this is half the t = 1 low-regime 14-rule applied per
    coordinate, 7 (d/t) k ln(2/delta') / ((n-1) eps'^2), at the per-fold
    budget (eps', delta') that compose_epsilon_prime(budget, t) returns.
    It is not computed that way, since gamma would then move by a few ulps,
    and the frozen gamma tests assert exact equality.
    """
    return _feasible_gamma(_gamma(budget, d, k, n, t, "general"), "general-t calibration")


def calibrate_gamma_t1(budget: PrivacyBudget, d: int, k: int, n: int) -> float:
    """Tightened blanket probability for t = 1 (no composition needed).

    Low regime:  gamma = max{ 14 d k ln(2/delta) / ((n-1) eps^2),
                              27 d k / ((n-1) eps) }
    High regime: gamma = max{ 80 d k ln(2/delta) / ((n-1) eps^2),
                              36 d k / (11 (n-1) eps) }
    """
    return _feasible_gamma(_gamma(budget, d, k, n, 1, "t1"), "t=1 calibration")


def choose_k_general(budget: PrivacyBudget, d: int, n: int, t: int) -> int:
    """Quantization level minimizing 1/(4k^2) + C k over the integers,
    where C = gamma(k = 1)/2 is the general-t per-unit-k blanket cost.  The
    continuous minimizer is (1/(2C))^(1/3); the integer minimizer is one of
    its two neighbors, clamped to >= 1 (nearest-integer rounding can land on
    the wrong side of the discrete switch point, so both neighbors are compared).
    """
    cost = _gamma(budget, d, 1, n, t, "general") / 2.0
    k_star = (1.0 / (2.0 * cost)) ** (1.0 / 3.0)
    lo = max(1, math.floor(k_star))

    def objective(k):
        return 1.0 / (4.0 * k * k) + cost * k

    return lo if objective(lo) <= objective(lo + 1) else lo + 1


def choose_k_t1(budget: PrivacyBudget, d: int, n: int) -> int:
    """Quantization level for the tightened t = 1 analysis.

    Low regime:  k = round(min{ (n eps^2 / (28 d ln(2/delta)))^(1/3),
                                (n eps / (54 d))^(1/3) })
    High regime: k = round(min{ (n eps^2 / (160 d ln(2/delta)))^(1/3),
                                (11 n eps / (72 d))^(1/3) })
    """
    _check_dims(d, n, 1)
    value = min(
        (n * den / math.prod(factors, start=2.0 * c * d)) ** (1.0 / 3.0)
        for c, factors, den in _branches(budget, 1, "t1")
    )
    return max(1, int(math.floor(value + 0.5)))  # round half up, k >= 1


def _bound(params: ProtocolParams, budget: PrivacyBudget, analysis: str) -> float:
    if params.gamma >= 1.0:
        raise InfeasibleParametersError("bounds undefined for gamma >= 1")
    d, n, t = params.d, params.n, params.t
    worst = max(math.prod(f, start=c) / den for c, f, den in _branches(budget, t, analysis))
    shape = t * d ** (8.0 / 3.0) / ((1.0 - params.gamma) ** 2 * n ** (5.0 / 3.0))
    return shape * worst ** (2.0 / 3.0) / 2.0 ** (1.0 / 3.0)


def bound_mse_general(params: ProtocolParams, budget: PrivacyBudget) -> float:
    """Normalized-MSE upper bound for the general-t mechanism.

    Low regime:  2 t d^(8/3) (14 ln(1/delta) ln(2t/delta))^(2/3)
                 / ((1-gamma)^2 n^(5/3) eps^(4/3))
    High regime: same shape with 8 t (63 ...)^(2/3).
    """
    return _bound(params, budget, "general")


def bound_mse_t1(params: ProtocolParams, budget: PrivacyBudget) -> float:
    """Tightened normalized-MSE upper bound for t = 1 (max of two branches)."""
    if params.t != 1:
        raise ValueError(f"t=1 bound requested with t={params.t}")
    return _bound(params, budget, "t1")
