"""Executable privacy analysis.

Two routes are provided:

* exact evaluation of the blanket-count tail events that the privacy
  calibration's Chernoff step upper-bounds, plus the closed-form Chernoff
  expressions themselves.  The binomial tails are summed in pure Python
  with the pmf-ratio recurrence out from the mode, so a tail far below
  1e-16 keeps its relative accuracy without a special-function library,
  and
* an exact audit of the full t = 1 mechanism on n all-zero users
  against the same users with a final user of ones.  The shuffled
  histogram's likelihood ratio depends only on the numbers A and B of
  reports of value 0 and of value k, whose law is trinomial, so the
  hockey-stick divergence delta(eps) = sum max(0, P - e^eps Q) is summed
  exactly, in both directions, over the (n+1)^2 grid of (A, B), for any
  d and k.  No sampling is involved, so the verdict is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, ProtocolParams, compose_epsilon_prime
from .exceptions import InfeasibleParametersError

# Largest (A, B) table exact_audit builds, in entries: n <= 3161.
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
class AuditVerdict:
    """exact_epsilon is the smallest epsilon whose hockey-stick delta meets
    the target delta; exact_delta is the delta at the target epsilon."""

    exact_epsilon: float
    exact_delta: float
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


def _trinomial(m: int, probs) -> np.ndarray:
    """Table of Pr[A = i, B = j] over i, j in 0..m for
    (A, B, m - A - B) ~ Trinomial(m; probs), from log-factorials; a zero
    probability raised to a zero count contributes a factor 1."""
    a, b = np.ogrid[: m + 1, : m + 1]
    c = m - a - b
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(m + 1)])
    log_pmf = log_fact[m] - log_fact[a] - log_fact[b] - log_fact[np.maximum(c, 0)]
    for count, prob in zip(np.broadcast_arrays(a, b, c), probs):
        if prob > 0.0:
            log_pmf += count * math.log(prob)
        else:
            log_pmf[count > 0] = -math.inf
    return np.where(c >= 0, np.exp(log_pmf), 0.0)


def exact_audit(params: ProtocolParams, budget: PrivacyBudget) -> AuditVerdict:
    """Exact hockey-stick audit of the t = 1 mechanism on n all-zero users
    (P) against the same users with a final user of ones (Q).

    A report of input 0 is 0 with probability a = 1 - gamma + gamma/(k+1),
    k with b = gamma/(k+1) and another value with c = gamma (k-1)/(k+1);
    input 1 swaps a and b.  The numbers A, B and C of reports of 0, of k
    and of the rest are Trinomial(n-1; a, b, c) over the first n - 1 users,
    and Q/P of the whole histogram is (A b/a + B a/b + C)/n over all n, so
    delta(eps) = max(sum max(0, P - e^eps Q), the same with P and Q
    swapped) over the grid of (A, B) equals the histogram's.  The audit
    passes iff delta(budget.epsilon) <= budget.delta.

    It also reports the smallest eps with delta(eps) <= budget.delta: 0
    when delta(0) already meets it; infinite when the mass one side puts
    where the other has none exceeds budget.delta, since delta(eps) never
    falls below that mass; otherwise found by bisection to within 1e-9,
    from above.
    """
    n, k, gamma = params.n, params.k, params.gamma
    if params.t != 1:
        raise ValueError("the exact audit requires t = 1")
    if (n + 1) ** 2 > MAX_OUTCOMES:
        raise ValueError(f"outcome space too large to enumerate ((n+1)^2 entries, n={n})")
    a, b, c = 1.0 - gamma + gamma / (k + 1), gamma / (k + 1), gamma * (k - 1) / (k + 1)
    rest = _trinomial(n - 1, (a, b, c))
    tables = []  # P and Q built alike, so at gamma = 1 (a = b) they are equal
    for zero, top in ((a, b), (b, a)):
        table = np.zeros((n + 1, n + 1))
        table[:n, :n] += c * rest
        table[1:, :n] += zero * rest
        table[:n, 1:] += top * rest
        tables.append(table.ravel())
    reach = (tables[0] > 0) | (tables[1] > 0)
    p, q = tables[0][reach], tables[1][reach]
    with np.errstate(divide="ignore"):  # log 0: one side's mass alone
        loss = np.log(p) - np.log(q)  # finite even where P / Q overflows

    def delta_at(eps):  # sum P max(0, 1 - e^(eps - loss)), and mirrored
        return 0.0 - min(  # 0.0, not -0.0, where P = Q
            float((p * np.expm1(np.minimum(eps - loss, 0.0))).sum()),
            float((q * np.expm1(np.minimum(eps + loss, 0.0))).sum()),
        )

    if delta_at(0.0) <= budget.delta:
        epsilon = 0.0
    elif max(p[q == 0].sum(), q[p == 0].sum()) > budget.delta:
        epsilon = math.inf
    else:
        # at the largest finite |loss|, delta is only the one-sided mass,
        # which meets the target (checked above)
        lo, hi = 0.0, float(np.abs(loss[np.isfinite(loss)]).max())
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
        passed=delta <= budget.delta,
    )
