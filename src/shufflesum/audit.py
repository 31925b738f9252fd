"""Executable privacy analysis.

Two routes are provided:

* exact evaluation of the blanket-count tail events that the privacy
  calibration's Chernoff step upper-bounds (binomial tail sums), plus the
  closed-form Chernoff expressions themselves, and
* a Monte-Carlo indistinguishability audit of the full mechanism on tiny
  instances, estimating the empirical epsilon of the hockey-stick
  inequality Pr[M(D) in E] <= e^eps Pr[M(D') in E] + delta over the
  enumerable per-coordinate histogram outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import binom

from .calibration import PrivacyBudget, ProtocolParams, compose_epsilon_prime
from .exceptions import InfeasibleParametersError, InsufficientTrialsError
from .randomizer import respond


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
    empirical_epsilon: float
    theoretical_epsilon: float
    trials: int
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


def exact_tail_probability(tp: TailParams, gamma: float, k: int) -> float:
    """Exact union probability of the two blanket-count tail events:

        Pr[N_hi >= c e^(eps'/2)] + Pr[N_lo <= c e^(-eps'/2)]

    with N_lo ~ Bin(s, gamma/k) and N_hi = N_lo-distributed + 1, computed
    from binomial tail sums (scipy evaluates these in a numerically stable
    way for s well beyond 1e4).  A degenerate blanket (c = 0) makes the
    lower event certain, so the result is 1.
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
    # Pr[Bin + 1 >= hi] = Pr[Bin >= hi - 1]; Pr[Bin >= a] = sf(ceil(a) - 1)
    upper = float(binom.sf(math.ceil(hi - 1.0) - 1, tp.s, p))
    lower = float(binom.cdf(math.floor(lo), tp.s, p))
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


def sample_count_tail(n: int, t: int, d: int) -> float:
    """Chernoff bound exp(-(n-1) t / (3d)) on the probability that a
    coordinate is sampled at least twice its expected (n-1) t / d times."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not (1 <= t <= d):
        raise ValueError(f"t must be in [1, d], got t={t}, d={d}")
    return math.exp(-(n - 1) * t / (3.0 * d))


def _wilson_interval(successes: int, trials: int, z: float = 1.96):
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z**2 / (4.0 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def simulate_outcome_counts(
    matrix, params: ProtocolParams, trials: int, rng: np.random.Generator
) -> dict:
    """Frequency table of per-coordinate histogram outcomes of the shuffled
    mechanism applied to `matrix`, over `trials` independent runs.

    Only t = 1 is supported, which keeps the outcome (the d x (k+1)
    contingency table of received values) enumerable at tiny scale.
    Outcomes are encoded as a single integer key in base n+1 over the
    d (k+1) cells.
    """
    if params.t != 1:
        raise ValueError("outcome enumeration requires t = 1")
    matrix = np.asarray(matrix, dtype=float)
    n, d = matrix.shape
    k = params.k
    ncells = d * (k + 1)
    if (n + 1) ** ncells > 2**62:
        raise ValueError(
            f"outcome space too large to encode ({ncells} cells, n={n})"
        )
    weights = (n + 1) ** np.arange(ncells, dtype=np.int64)
    counts: dict = {}
    chunk = max(1, min(trials, 4_000_000 // n))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        coords = rng.integers(0, d, size=(m, n))
        y = respond(matrix[np.arange(n)[None, :], coords], k, params.gamma, rng)
        cells = coords * (k + 1) + y
        key = np.zeros(m, dtype=np.int64)
        for cell in range(ncells):
            key += (cells == cell).sum(axis=1) * weights[cell]
        uniq, cnt = np.unique(key, return_counts=True)
        for u, c in zip(uniq.tolist(), cnt.tolist()):
            counts[u] = counts.get(u, 0) + c
        done += m
    return counts


def monte_carlo_audit(
    pair: NeighborPair,
    params: ProtocolParams,
    budget: PrivacyBudget,
    trials: int,
    rng: np.random.Generator,
) -> AuditVerdict:
    """Empirical hockey-stick audit of the full mechanism on a tiny instance.

    Simulates the mechanism on the dataset and on its neighbor (final user
    replaced by alt_last), then estimates the largest
    ln((Pr[M(D)=E] - delta) / Pr[M(D')=E]) over observed outcomes E, in
    both directions.  Outcomes whose estimate exceeds delta must be
    well-resolved (Wilson interval relative width <= 25% on both sides) or
    an InsufficientTrialsError is raised; an outcome with mass above delta
    on one side and zero observed mass on the other is a hard failure at
    any epsilon.

    Because outcomes at or below delta are skipped, a large delta leaves
    little to test.  At the CLI's tiny instance (n=10, d=1, k=1, eps 0.99,
    delta 0.9, final user 0 -> 1) only the all-zero outcome can exceed
    delta, so every gamma above about 0.017 passes with epsilon 0,
    including gamma = 0.05, a tenth of the calibrated 0.534.  That verdict
    is right: the exact hockey-stick delta(0.99) at gamma = 0.05 is 0.72,
    and on this instance the per-outcome rule and the exact set-level
    divergence agree.  A gate that tells the calibration apart needs a
    smaller delta or the exact epsilon of the calibrated gamma (ROADMAP
    item 3).
    """
    data = np.asarray(pair.dataset, dtype=float)
    alt = np.array(data)
    alt[-1] = np.asarray(pair.alt_last, dtype=float)
    counts_a = simulate_outcome_counts(data, params, trials, rng)
    counts_b = simulate_outcome_counts(alt, params, trials, rng)

    worst = 0.0
    slack = 0.0
    hard_failure = False
    for num, den in ((counts_a, counts_b), (counts_b, counts_a)):
        for key, c_num in num.items():
            p_num = c_num / trials
            if p_num <= budget.delta:
                continue
            c_den = den.get(key, 0)
            if c_den == 0:
                hard_failure = True
                worst = math.inf
                continue
            p_den = c_den / trials
            for c, p in ((c_num, p_num), (c_den, p_den)):
                lo, hi = _wilson_interval(c, trials)
                if (hi - lo) / p > 0.25:
                    raise InsufficientTrialsError(
                        f"outcome probability {p:.3g} resolved too coarsely "
                        f"at {trials} trials"
                    )
            eps_here = math.log((p_num - budget.delta) / p_den)
            # optimistic end of the interval, used as statistical slack
            lo_num, _ = _wilson_interval(c_num, trials)
            _, hi_den = _wilson_interval(c_den, trials)
            if lo_num > budget.delta:
                eps_low = math.log((lo_num - budget.delta) / hi_den)
            else:
                eps_low = 0.0
            if eps_here > worst:
                worst = eps_here
                slack = eps_here - min(eps_here, eps_low)
    empirical = max(0.0, worst)
    passed = (not hard_failure) and empirical <= budget.epsilon + slack
    return AuditVerdict(
        empirical_epsilon=empirical,
        theoretical_epsilon=budget.epsilon,
        trials=trials,
        passed=passed,
    )
