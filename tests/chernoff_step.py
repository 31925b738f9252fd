"""The paper's Chernoff step on the blanket counts, for the tests.

The calibration picks gamma so that the blanket count N ~ Bin(s, gamma/k)
of one symbol on a coordinate that s submissions carry lies, with the
user's own message (N + 1) and without it (N), within c e^(+-eps'/2) of
its mean c = gamma s / k except with probability at most delta/t.
`blanket_tail` is that probability exactly, `chernoff_upper_bound` the
paper's closed form for it, and the mpmath functions are 50-digit oracles
for `blanket_tail`.
"""

import math

import mpmath
import numpy as np

from shufflesum import InfeasibleParametersError

mpmath.mp.dps = 50


def blanket_tail(s, gamma, k, c, eps_prime):
    """Pr[N + 1 >= c e^(eps'/2)] + Pr[N <= c e^(-eps'/2)] for N ~ Bin(s, gamma/k),
    gamma/k in (0, 1): the pmf over the whole support, in float64 from
    log-factorials."""
    p = gamma / k
    j = np.arange(s + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, s + 2)), float, s + 1)
    pmf = np.exp(
        log_fact[s] - log_fact - log_fact[::-1] + j * math.log(p) + (s - j) * math.log1p(-p)
    )
    return float(
        pmf[j + 1 >= c * math.exp(eps_prime / 2)].sum()
        + pmf[j <= c * math.exp(-eps_prime / 2)].sum()
    )


def chernoff_upper_bound(c, eps_prime, t, delta):
    """The paper's closed-form Chernoff bound on `blanket_tail`.

    For eps' < 1 the bound is exp(-(c/3)(eps'/2)^2) + exp(-(c/2)(eps'/sqrt 7)^2)
    and requires c >= 14 ln(2t/delta) / eps'^2; for 1 <= eps' < 6 the second
    term uses eps'/(2 sqrt 10) and the requirement is c >= 80 ln(2t/delta)/eps'^2.
    """
    if eps_prime <= 0 or eps_prime >= 6.0:
        raise ValueError(f"eps_prime must be in (0, 6), got {eps_prime}")
    log_term = math.log(2.0 * t / delta)
    threshold = (14.0 if eps_prime < 1.0 else 80.0) * log_term / eps_prime**2
    if c < threshold * (1.0 - 1e-12):
        raise InfeasibleParametersError(
            f"Chernoff bound requires c >= {threshold:.6g}, got c = {c:.6g}"
        )
    first = math.exp(-(c / 3.0) * (eps_prime / 2.0) ** 2)
    if eps_prime < 1.0:
        second = math.exp(-(c / 2.0) * (eps_prime / math.sqrt(7.0)) ** 2)
    else:
        second = math.exp(-(c / 2.0) * (eps_prime / (2.0 * math.sqrt(10.0))) ** 2)
    return first + second


def binom_cdf(m, s, p):
    """Independent binomial CDF oracle via the regularized beta function."""
    if m < 0:
        return mpmath.mpf(0)
    if m >= s:
        return mpmath.mpf(1)
    p = mpmath.mpf(repr(p))
    return mpmath.betainc(s - m, m + 1, 0, 1 - p, regularized=True)


def oracle_tail(s, gamma, k, eps_prime, c=None):
    if c is None:
        c = gamma * s / k
    p = gamma / k
    hi = c * math.exp(eps_prime / 2)
    lo = c * math.exp(-eps_prime / 2)
    # Pr[Bin + 1 >= hi] + Pr[Bin <= lo]
    upper = 1 - binom_cdf(math.ceil(hi - 1.0) - 1, s, p)
    lower = binom_cdf(math.floor(lo), s, p)
    return float(min(mpmath.mpf(1), upper + lower))


def binom_tail_pmf_sum(s, p, cut, upper):
    """Independent oracle for Pr[X >= cut] (upper) or Pr[X <= cut], X ~
    Bin(s, p): a 50-digit sum of directly evaluated pmf terms from the cut
    outwards, until the terms past the mean fall below 1e-40 of the sum.
    Unlike binom_cdf it converges at s = 1e6 and for tails near 1e-100.
    p enters as its exact binary value, as the float code sees it."""
    if (cut > s) if upper else (cut < 0):
        return mpmath.mpf(0)
    p = mpmath.mpf(p)
    step, end = (1, s) if upper else (-1, 0)
    j = max(cut, 0) if upper else min(cut, s)
    total = mpmath.mpf(0)
    while True:
        term = mpmath.binomial(s, j) * p**j * (1 - p) ** (s - j)
        total += term
        if j == end or ((j - s * p) * step > 0 and term < total * mpmath.mpf(10) ** -40):
            return total
        j += step


def pmf_sum_tail(s, gamma, k, c, eps_prime):
    """blanket_tail's union of events, from binom_tail_pmf_sum."""
    hi = c * math.exp(eps_prime / 2)
    lo = c * math.exp(-eps_prime / 2)
    upper = binom_tail_pmf_sum(s, gamma / k, math.ceil(hi - 1.0), upper=True)
    lower = binom_tail_pmf_sum(s, gamma / k, math.floor(lo), upper=False)
    return float(min(mpmath.mpf(1), upper + lower))
