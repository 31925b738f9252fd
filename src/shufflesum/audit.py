"""Exact privacy audit of the full t = 1 mechanism on one neighbouring
pair: n all-zero users against the same users with a final user of ones.

The counts A, B and C = n - A - B of reports of 0, of k and of the rest
are sufficient and trinomial, so the hockey-stick divergence is summed
exactly over the triangle A + B <= n, for any d and k, from one table of
log-masses and the closed-form privacy loss.  No sampling is involved,
so the verdict is deterministic.  It is exact for this pair only, so its
epsilon is a lower bound on the mechanism's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import PrivacyBudget, ProtocolParams

# exact_audit takes n with (n+1)^2 <= MAX_OUTCOMES, so n <= 3161, which
# keeps its peak memory under the 256 MiB that the tests pin.
MAX_OUTCOMES = 10**7


@dataclass(frozen=True)
class AuditVerdict:
    """exact_epsilon is the smallest epsilon whose hockey-stick delta meets
    the target delta; exact_delta is the delta at the target epsilon."""

    exact_epsilon: float
    exact_delta: float
    passed: bool


def exact_audit(params: ProtocolParams, budget: PrivacyBudget) -> AuditVerdict:
    """Exact hockey-stick audit of the t = 1 mechanism on n all-zero users
    (P) against the same users with a final user of ones (Q).  Exact for
    this pair, it gives a lower bound on the mechanism's epsilon.

    A report of input 0 is 0 with probability a = 1 - gamma + gamma/(k+1),
    k with b = gamma/(k+1) and another value with c = gamma (k-1)/(k+1);
    input 1 swaps a and b.  Under P the counts A, B and C = n - A - B of
    reports of 0, of k and of the rest are Trinomial(n; a, b, c), built
    once as log-masses over the triangle A + B <= n (at k = 1, c = 0 and
    only its n + 1 cells with C = 0 are reachable).  Q/P is
    (A b/a + B a/b + C)/n, so the privacy loss log P - log Q is
    log n - log(A b/a + B a/b + C), summed in logs (finite where a/b
    overflows), and Q = P e^-loss.  delta(eps) = max(sum max(0, P -
    e^eps Q), the same with P and Q swapped) equals the histogram's.
    Where b rounds to 0, P never reports k and Q does with probability
    a = 1: epsilon is infinite and delta 1.  The audit passes iff
    delta(budget.epsilon) <= budget.delta.

    It also reports the smallest eps with delta(eps) <= budget.delta: 0
    when delta(0) already meets it, otherwise by bisection, to 1e-9 from
    above, from the largest |loss|, where delta is 0.  Where b > 0, Q/P >
    0, so P and Q share a support and eps is finite; each direction's sum
    reads its own mass and the loss, so it stays exact where the other
    side's mass underflows.
    """
    n, k, gamma = params.n, params.k, params.gamma
    if params.t != 1:
        raise ValueError("the exact audit requires t = 1")
    if (n + 1) ** 2 > MAX_OUTCOMES:
        raise ValueError(f"outcome space too large to enumerate ((n+1)^2 entries, n={n})")
    a, b, c = 1.0 - gamma + gamma / (k + 1), gamma / (k + 1), gamma * (k - 1) / (k + 1)
    if b == 0.0:  # P never reports k; Q does with probability a = 1.0
        return AuditVerdict(math.inf, 1.0, False)
    # C holds A + B until B is split off; at k = 1 (c = 0) only C = 0 occurs
    A, C = (np.arange(n + 1), np.full(n + 1, n)) if c == 0.0 else np.triu_indices(n + 1)
    B = C - A
    C = np.subtract(n, C, out=C)
    counts = np.arange(n + 1)
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    shift = math.log(a) - math.log(b)  # log(a/b), finite where a/b is not
    log_p = np.full(A.shape, log_fact[n])
    log_sum = np.full(A.shape, -math.inf)  # log(A b/a + B a/b + C)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 and 0 log 0
        for count, prob, log_weight in ((A, a, -shift), (B, b, shift), (C, c, 0.0)):
            log_p += (np.where(counts > 0, counts * np.log(prob), 0.0) - log_fact)[count]
            np.logaddexp(log_sum, (np.log(counts) + log_weight)[count], out=log_sum)
    del A, B, C
    loss = np.subtract(math.log(n), log_sum, out=log_sum)
    p, q = np.exp(log_p), np.exp(log_p - loss)
    keep = (p > 0) | (q > 0)  # most cells' masses underflow at large n
    p, q, loss = p[keep], q[keep], loss[keep]

    def delta_at(eps):  # sum P max(0, 1 - e^(eps - loss)), and mirrored
        return 0.0 - min(  # 0.0, not -0.0, where P = Q
            float((p * np.expm1(np.minimum(eps - loss, 0.0))).sum()),
            float((q * np.expm1(np.minimum(eps + loss, 0.0))).sum()),
        )

    if delta_at(0.0) <= budget.delta:
        epsilon = 0.0
    else:
        lo, hi = 0.0, float(np.abs(loss).max())  # delta(hi) = 0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if delta_at(mid) <= budget.delta:
                hi = mid
            else:
                lo = mid
        epsilon = hi
    delta = delta_at(budget.epsilon)
    return AuditVerdict(epsilon, delta, delta <= budget.delta)
