"""Exact privacy audit of the full t = 1 mechanism on n all-zero users
against the same users with a final user of ones.

The shuffled histogram's likelihood ratio depends only on the numbers A
and B of reports of value 0 and of value k, whose law is trinomial, so
the hockey-stick divergence delta(eps) = sum max(0, P - e^eps Q) is
summed exactly, in both directions, over the (n+1)^2 grid of (A, B), for
any d and k.  No sampling is involved, so the verdict is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, ProtocolParams

# Largest (A, B) table exact_audit builds, in entries: n <= 3161.
MAX_OUTCOMES = 10**7


@dataclass(frozen=True)
class AuditVerdict:
    """exact_epsilon is the smallest epsilon whose hockey-stick delta meets
    the target delta; exact_delta is the delta at the target epsilon."""

    exact_epsilon: float
    exact_delta: float
    passed: bool


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
