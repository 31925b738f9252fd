"""Executable privacy analysis.

Two routes are provided:

* exact evaluation of the blanket-count tail events that the privacy
  calibration's Chernoff step upper-bounds, plus the closed-form Chernoff
  expressions themselves.  The binomial tails are summed in pure Python
  with the pmf-ratio recurrence out from the mode, so a tail far below
  1e-16 keeps its relative accuracy without a special-function library,
  and
* an exact audit of the full t = 1 mechanism on tiny instances: the
  shuffled output is a histogram over the d (k+1) (coordinate, value)
  cells, its distribution is the convolution of the n users' categorical
  distributions, and the hockey-stick divergence
  delta(eps) = sum_o max(0, P(o) - e^eps Q(o)) of a neighbour pair is
  summed over every outcome, in both directions.  No sampling is
  involved, so the verdict is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, ProtocolParams, compose_epsilon_prime
from .exceptions import InfeasibleParametersError

# Largest dense outcome table outcome_distribution builds, in entries.
MAX_OUTCOMES = 10**7


@dataclass(frozen=True)
class TailParams:
    """Inputs to the blanket-count tail events for one audited coordinate.

    s is the number of submissions carrying the coordinate, c the expected
    blanket count per symbol (gamma s / k), eps_prime and delta the
    per-coordinate budget, t the number of coordinates sampled per user.
    """

    s: int
    c: float
    eps_prime: float
    t: int
    delta: float


@dataclass(frozen=True)
class NeighborPair:
    """Dataset plus a replacement input for the final user."""

    dataset: np.ndarray  # (n, d), entries in [0, 1]
    alt_last: np.ndarray  # (d,)


@dataclass(frozen=True)
class AuditVerdict:
    """exact_epsilon is the smallest epsilon whose hockey-stick delta meets
    the target delta; exact_delta is the delta at the target epsilon."""

    exact_epsilon: float
    exact_delta: float
    theoretical_epsilon: float
    passed: bool


def tail_params_from_protocol(
    params: ProtocolParams, budget: PrivacyBudget, s: int | None = None
) -> TailParams:
    """TailParams for the audited coordinate, defaulting s to its
    expectation (n-1) t / d; pass s explicitly (e.g. twice the expectation)
    to probe the high-occupancy case."""
    if s is None:
        s = int(round((params.n - 1) * params.t / params.d))
    composed = compose_epsilon_prime(budget, params.t)
    return TailParams(
        s=s,
        c=params.gamma * s / params.k,
        eps_prime=composed.epsilon_prime,
        t=params.t,
        delta=budget.delta,
    )


def _binomial_tail(s: int, p: float, cut: int, upper: bool) -> float:
    """Pr[X >= cut] if upper else Pr[X <= cut], for X ~ Bin(s, p), 0 < p <= 1.

    The pmf is walked outwards from the mode m = floor((s+1) p) with
    pmf(i+1) / pmf(i) = (s-i) p / ((i+1)(1-p)); each walk stops once its
    terms fall below 1e-17 of its running sum.  pmf(m) is 1 over the
    walked sum of pmf(i) / pmf(m).  A tail on the far side of m starts
    from pmf(cut), whose log is log pmf(m) plus the math.fsum of the log
    ratios from m, so a tail of 1e-100 is as accurate as one of 0.1; the
    tail that holds m is 1 minus the far tail beyond it.
    """
    if p == 1.0:
        return float(s >= cut if upper else s <= cut)
    m = min(int((s + 1) * p), s)
    if cut <= m if upper else cut >= m:
        return 1.0 - _binomial_tail(s, p, cut - 1 if upper else cut + 1, not upper)
    if not 0 <= cut <= s:
        return 0.0
    q = p / (1.0 - p)

    def ratio(i, up):  # pmf(i + 1) / pmf(i) if up else pmf(i - 1) / pmf(i)
        return (s - i) * q / (i + 1) if up else i / ((s - i + 1) * q)

    def walk(i, up):  # sum of pmf(j) / pmf(i) for j from i outwards
        end, step = (s, 1) if up else (0, -1)
        total = term = 1.0
        while i != end and term >= 1e-17 * total:
            term *= ratio(i, up)
            total += term
            i += step
        return total

    logs, rough = [], 0.0
    for i in range(m, cut, 1 if upper else -1):
        logs.append(math.log(ratio(i, upper)))
        rough += logs[-1]
        if rough < -750.0:  # exp(log pmf(cut)) is 0.0 in float64
            return 0.0
    log_norm = math.log(walk(m, True) + walk(m, False) - 1.0)
    return math.exp(math.fsum(logs) - log_norm) * walk(cut, upper)


def exact_tail_probability(tp: TailParams, gamma: float, k: int) -> float:
    """Exact union probability of the two blanket-count tail events:

        Pr[N_hi >= c e^(eps'/2)] + Pr[N_lo <= c e^(-eps'/2)]

    with N_lo ~ Bin(s, gamma/k) and N_hi = N_lo-distributed + 1, computed
    from two binomial tail sums (`_binomial_tail`: within ~1e-12 relative
    for s up to 1e6 and tails down to 1e-100).  A degenerate blanket
    (c = 0) makes the lower event certain, so the result is 1.
    """
    if tp.s < 0:
        raise ValueError(f"s must be >= 0, got {tp.s}")
    if not (0.0 <= gamma <= 1.0) or k < 1:
        raise ValueError("need gamma in [0, 1] and k >= 1")
    p = gamma / k
    if tp.c == 0.0 or p == 0.0 or tp.s == 0:
        return 1.0
    hi = tp.c * math.exp(tp.eps_prime / 2.0)
    lo = tp.c * math.exp(-tp.eps_prime / 2.0)
    # Pr[Bin + 1 >= hi] = Pr[Bin >= ceil(hi - 1)]
    upper = _binomial_tail(tp.s, p, math.ceil(hi - 1.0), upper=True)
    lower = _binomial_tail(tp.s, p, math.floor(lo), upper=False)
    return min(1.0, upper + lower)


def chernoff_upper_bound(tp: TailParams) -> float:
    """Closed-form Chernoff bound on the same union of tail events.

    For eps' < 1 the bound is exp(-(c/3)(eps'/2)^2) + exp(-(c/2)(eps'/sqrt 7)^2)
    and requires c >= 14 ln(2t/delta) / eps'^2; for 1 <= eps' < 6 the second
    term uses eps'/(2 sqrt 10) and the requirement is c >= 80 ln(2t/delta)/eps'^2.
    """
    eps = tp.eps_prime
    if eps <= 0 or eps >= 6.0:
        raise ValueError(f"eps_prime must be in (0, 6), got {eps}")
    log_term = math.log(2.0 * tp.t / tp.delta)
    threshold = (14.0 if eps < 1.0 else 80.0) * log_term / eps**2
    if tp.c < threshold * (1.0 - 1e-12):
        raise InfeasibleParametersError(
            f"Chernoff bound requires c >= {threshold:.6g}, got c = {tp.c:.6g}"
        )
    first = math.exp(-(tp.c / 3.0) * (eps / 2.0) ** 2)
    if eps < 1.0:
        second = math.exp(-(tp.c / 2.0) * (eps / math.sqrt(7.0)) ** 2)
    else:
        second = math.exp(-(tp.c / 2.0) * (eps / (2.0 * math.sqrt(10.0))) ** 2)
    return first + second


def outcome_distribution(matrix, params: ProtocolParams) -> np.ndarray:
    """Exact distribution of the shuffled t = 1 mechanism's output on
    `matrix`: the histogram of received values over the d (k+1) cells,
    cell coordinate (k+1) + value.

    The last cell holds n minus the others, so the result is a dense float
    array of shape (n+1,) * (d(k+1) - 1) indexed by the counts of the
    first d(k+1) - 1 cells (entries whose counts sum past n are 0).  It is
    built by convolving in one user at a time.  A user with input x at
    coordinate j lands in cell j (k+1) + y with probability
    ((1 - gamma) enc(y) + gamma / (k+1)) / d, where enc puts 1 - f on
    floor(x k) and f on floor(x k) + 1, f = x k - floor(x k): the law of
    `randomizer.respond` after a uniform coordinate draw.
    """
    if params.t != 1:
        raise ValueError("outcome enumeration requires t = 1")
    matrix = np.asarray(matrix, dtype=float)
    n, d, k = params.n, params.d, params.k
    if matrix.shape != (n, d):
        raise ValueError(
            f"dataset shape {matrix.shape} does not match params (n={n}, d={d})"
        )
    if not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
        raise ValueError("inputs must lie in [0, 1] (NaN is rejected)")
    free = d * (k + 1) - 1
    if (n + 1) ** free > MAX_OUTCOMES:
        raise ValueError(
            f"outcome space too large to enumerate ((n+1)^{free} entries, n={n})"
        )
    levels = np.arange(k + 1)
    scaled = matrix[:, :, None] * k
    base = np.floor(scaled)
    enc = np.where(levels == base, 1.0 - (scaled - base), 0.0)
    enc += np.where(levels == base + 1, scaled - base, 0.0)
    gamma = params.gamma
    cell_probs = ((1.0 - gamma) * enc + gamma / (k + 1)).reshape(n, -1) / d
    dist = np.zeros((n + 1,) * free)
    dist[(0,) * free] = 1.0
    # a count of n is unreachable before the last user joins, so the
    # wrap-around of each one-cell shift only moves zeros
    for probs in cell_probs:
        dist = probs[-1] * dist + sum(
            probs[cell] * np.roll(dist, 1, axis=cell) for cell in range(free)
        )
    return dist


def exact_audit(
    pair: NeighborPair, params: ProtocolParams, budget: PrivacyBudget
) -> AuditVerdict:
    """Exact hockey-stick audit of the t = 1 mechanism on a neighbour pair.

    P and Q are the outcome distributions on the dataset and on its
    neighbour (final user replaced by alt_last), and
    delta(eps) = max(sum_o max(0, P(o) - e^eps Q(o)), the same with P and
    Q swapped).  The audit passes iff delta(budget.epsilon) <= budget.delta.

    It also reports the smallest eps with delta(eps) <= budget.delta: 0
    when delta(0) already meets it; infinite when the mass one side puts
    where the other has none exceeds budget.delta, since delta(eps) never
    falls below that mass; otherwise found by bisection to within 1e-9,
    from above.
    """
    alt_last = np.asarray(pair.alt_last, dtype=float)
    if alt_last.shape != (params.d,):
        raise ValueError(f"alt_last shape {alt_last.shape} must be (d,) = ({params.d},)")
    data = np.asarray(pair.dataset, dtype=float)
    alt = np.array(data)
    alt[-1] = alt_last
    p = outcome_distribution(data, params).ravel()
    q = outcome_distribution(alt, params).ravel()

    def delta_at(eps):
        scale = math.exp(eps)
        return max(
            float(np.maximum(p - scale * q, 0.0).sum()),
            float(np.maximum(q - scale * p, 0.0).sum()),
        )

    if delta_at(0.0) <= budget.delta:
        epsilon = 0.0
    elif max(p[q == 0].sum(), q[p == 0].sum()) > budget.delta:
        epsilon = math.inf
    else:
        # at the largest |ln P/Q| on the common support, delta is only the
        # one-sided mass, which meets the target (checked above)
        both = (p > 0) & (q > 0)
        lo, hi = 0.0, float(np.abs(np.log(p[both] / q[both])).max())
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if delta_at(mid) <= budget.delta:
                hi = mid
            else:
                lo = mid
        epsilon = hi
    delta = delta_at(budget.epsilon)
    return AuditVerdict(
        exact_epsilon=epsilon,
        exact_delta=delta,
        theoretical_epsilon=budget.epsilon,
        passed=delta <= budget.delta,
    )
