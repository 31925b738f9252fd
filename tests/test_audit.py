"""Executable privacy analysis: exact tail events, Chernoff forms, and the
exact hockey-stick audit."""

import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from shufflesum import (
    InfeasibleParametersError,
    NeighborPair,
    PrivacyBudget,
    ProtocolParams,
    TailParams,
    calibrate_gamma_general,
    chernoff_upper_bound,
    compose_epsilon_prime,
    exact_audit,
    exact_tail_probability,
    outcome_distribution,
    randomize_batch,
    tail_params_from_protocol,
)
from shufflesum.audit import _binomial_tail

mpmath.mp.dps = 50


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
    """exact_tail_probability's union of events, from binom_tail_pmf_sum."""
    hi = c * math.exp(eps_prime / 2)
    lo = c * math.exp(-eps_prime / 2)
    upper = binom_tail_pmf_sum(s, gamma / k, math.ceil(hi - 1.0), upper=True)
    lower = binom_tail_pmf_sum(s, gamma / k, math.floor(lo), upper=False)
    return float(min(mpmath.mpf(1), upper + lower))


class TestTailParamsFromProtocol:
    def test_defaults_to_expected_occupancy(self):
        params = ProtocolParams(d=100, k=3, n=50000, t=1, gamma=0.18)
        b = PrivacyBudget(0.95, 0.5)
        tp = tail_params_from_protocol(params, b)
        assert tp.s == round(49999 / 100)
        assert tp.c == pytest.approx(0.18 * tp.s / 3, rel=1e-15)
        assert tp.eps_prime == pytest.approx(
            compose_epsilon_prime(b, 1).epsilon_prime, rel=1e-15
        )
        assert tp.t == 1 and tp.delta == 0.5

    def test_explicit_s_override(self):
        params = ProtocolParams(d=2, k=1, n=101, t=2, gamma=0.4)
        tp = tail_params_from_protocol(params, PrivacyBudget(0.5, 0.1), s=200)
        assert tp.s == 200
        assert tp.c == pytest.approx(80.0)


class TestExactTailProbability:
    def test_degenerate_blanket_is_certain(self):
        tp = TailParams(s=100, c=0.0, eps_prime=0.5, t=1, delta=0.1)
        assert exact_tail_probability(tp, gamma=0.0, k=1) == 1.0

    def test_small_case_against_independent_oracle(self):
        s, gamma, k, eps_prime = 100, 0.5, 2, 0.5
        tp = TailParams(s=s, c=gamma * s / k, eps_prime=eps_prime, t=1, delta=0.1)
        got = exact_tail_probability(tp, gamma, k)
        assert got == pytest.approx(oracle_tail(s, gamma, k, eps_prime), rel=1e-10)
        # and against a brute-force pmf summation with exact integer binomials
        p_num, p_den = 1, 4  # gamma/k = 1/4
        hi_cut = math.ceil(tp.c * math.exp(eps_prime / 2) - 1.0)  # N >= this + 1... N+1>=hi
        lo_cut = math.floor(tp.c * math.exp(-eps_prime / 2))
        total = 0
        for j in range(s + 1):
            if j + 1 >= tp.c * math.exp(eps_prime / 2) or j <= lo_cut:
                total += math.comb(s, j) * p_num**j * (p_den - p_num) ** (s - j)
        brute = total / p_den**s
        assert got == pytest.approx(brute, rel=1e-10)
        assert hi_cut > lo_cut  # the two events are disjoint here

    @pytest.mark.parametrize(
        "s, gamma, k, c, eps_prime",
        [
            (200_000, 0.02, 1, 4000.0, 0.5),  # both events far out: 3.8e-49
            (200_000, 0.02, 1, 4000.0, 0.75),  # 1.3e-99
            (1_000_000, 0.02, 1, 20000.0, 0.32),  # 2.0e-104
            (1_000_000, 0.1705, 3, 0.1705 * 1_000_000 / 3, 0.12),  # 1.7e-47
            (200_000, 0.02, 1, 3900.0, 0.02),  # the upper event holds the mode
            (100, 1.0, 1, 99.0, 0.02),  # p = 1: N_lo = s, the upper event is certain
            (100, 1.0, 1, 100.0, 0.5),  # p = 1: neither event can happen
            (50, 0.5, 1, 80.0, 0.5),  # both cuts above s
        ],
    )
    def test_large_s_and_deep_tails_against_pmf_sum(self, s, gamma, k, c, eps_prime):
        tp = TailParams(s=s, c=c, eps_prime=eps_prime, t=1, delta=0.1)
        got = exact_tail_probability(tp, gamma, k)
        want = pmf_sum_tail(s, gamma, k, c, eps_prime)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("cut", [-3, 0, 1, 29, 30, 33])
    def test_tail_at_and_beyond_the_ends_of_the_support(self, cut, upper):
        got = _binomial_tail(30, 0.4, cut, upper)
        want = float(binom_tail_pmf_sum(30, 0.4, cut, upper))
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_monte_carlo_agreement(self):
        s, gamma, k, eps_prime = 100, 0.5, 2, 0.5
        tp = TailParams(s=s, c=25.0, eps_prime=eps_prime, t=1, delta=0.1)
        exact = exact_tail_probability(tp, gamma, k)
        rng = np.random.default_rng(0)
        draws = rng.binomial(s, gamma / k, size=1_000_000)
        hi = tp.c * math.exp(eps_prime / 2)
        lo = tp.c * math.exp(-eps_prime / 2)
        freq = np.mean((draws + 1 >= hi) | (draws <= lo))
        se = math.sqrt(exact * (1 - exact) / draws.size)
        assert abs(freq - exact) < 4 * se

    def test_calibrated_point_tail_below_delta_over_t(self):
        # gamma from the general calibration keeps the tail below delta/t
        b = PrivacyBudget(0.5, 0.1)
        gamma = calibrate_gamma_general(b, d=1, k=1, n=10001, t=1)
        params = ProtocolParams(d=1, k=1, n=10001, t=1, gamma=gamma)
        tp = tail_params_from_protocol(params, b)
        assert tp.s == 10000
        got = exact_tail_probability(tp, gamma, 1)
        assert got <= 0.1
        assert got == pytest.approx(
            oracle_tail(tp.s, gamma, 1, tp.eps_prime), rel=1e-9
        )

    def test_monotone_nonincreasing_in_occupancy(self):
        gamma, k, eps_prime = 0.3, 1, 0.4
        prev = 2.0
        for s in (50, 100, 200, 400, 800, 1600):
            tp = TailParams(s=s, c=gamma * s / k, eps_prime=eps_prime, t=1, delta=0.1)
            cur = exact_tail_probability(tp, gamma, k)
            assert cur <= prev + 1e-12
            prev = cur

    def test_rejects_bad_inputs(self):
        tp = TailParams(s=-1, c=1.0, eps_prime=0.5, t=1, delta=0.1)
        with pytest.raises(ValueError):
            exact_tail_probability(tp, 0.5, 1)
        tp = TailParams(s=10, c=1.0, eps_prime=0.5, t=1, delta=0.1)
        with pytest.raises(ValueError):
            exact_tail_probability(tp, 1.5, 1)


class TestChernoffUpperBound:
    def test_precondition_enforced(self):
        tp = TailParams(s=100, c=1.0, eps_prime=0.5, t=1, delta=0.1)
        with pytest.raises(InfeasibleParametersError):
            chernoff_upper_bound(tp)

    def test_threshold_value_meets_delta_over_t(self):
        for delta in (0.05, 0.1, 0.3):
            for eps_prime in (0.1, 0.5, 0.9):
                c = 14 * math.log(2 / delta) / eps_prime**2
                tp = TailParams(s=10**9, c=c, eps_prime=eps_prime, t=1, delta=delta)
                got = chernoff_upper_bound(tp)
                expected = math.exp(-(c / 3) * (eps_prime / 2) ** 2) + math.exp(
                    -(c / 2) * (eps_prime / math.sqrt(7)) ** 2
                )
                assert got == pytest.approx(expected, rel=1e-12)
                assert got <= delta

    def test_high_branch_form(self):
        eps_prime, delta = 1.5, 0.1
        c = 80 * math.log(2 / delta) / eps_prime**2 * 2
        tp = TailParams(s=10**9, c=c, eps_prime=eps_prime, t=1, delta=delta)
        expected = math.exp(-(c / 3) * (eps_prime / 2) ** 2) + math.exp(
            -(c / 2) * (eps_prime / (2 * math.sqrt(10))) ** 2
        )
        assert chernoff_upper_bound(tp) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_c_grows(self):
        vals = []
        for mult in (1, 10, 100):
            c = 14 * math.log(20) / 0.25 * mult
            tp = TailParams(s=10**9, c=c, eps_prime=0.5, t=1, delta=0.1)
            vals.append(chernoff_upper_bound(tp))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-80

    def test_dominates_exact_on_synthetic_grid(self):
        # c at or above the branch threshold, occupancy consistent with gamma/k
        for eps_prime, delta, mult in [
            (0.3, 0.1, 1.0),
            (0.3, 0.1, 2.0),
            (0.7, 0.05, 1.5),
            (0.9, 0.3, 1.0),
            (1.2, 0.1, 1.0),
        ]:
            branch = 14 if eps_prime < 1 else 80
            c = branch * math.log(2 / delta) / eps_prime**2 * mult
            gamma, k = 0.5, 1
            s = int(math.ceil(c / (gamma / k)))
            c = gamma * s / k  # re-derive so the invariant c = gamma s / k holds
            tp = TailParams(s=s, c=c, eps_prime=eps_prime, t=1, delta=delta)
            exact = exact_tail_probability(tp, gamma, k)
            assert exact <= chernoff_upper_bound(tp) + 1e-15

    def test_dominates_exact_at_double_expected_occupancy(self):
        # calibrated gamma meets the precondition exactly at s = 2 E[s]
        for eps, delta, d, n in [(0.5, 0.1, 1, 10001), (0.8, 0.05, 2, 20001)]:
            b = PrivacyBudget(eps, delta)
            gamma = calibrate_gamma_general(b, d=d, k=1, n=n, t=1)
            params = ProtocolParams(d=d, k=1, n=n, t=1, gamma=gamma)
            s2 = 2 * (n - 1) // d
            tp = tail_params_from_protocol(params, b, s=s2)
            exact = exact_tail_probability(tp, gamma, 1)
            assert exact <= chernoff_upper_bound(tp)


class TestMonteCarloAudit:
    """The cases of the sampled audit this module once had, checked with
    the exact audit that replaced it: each verdict is now deterministic."""

    def _tiny(self, gamma, n=6, d=1, k=1):
        params = ProtocolParams(d=d, k=k, n=n, t=1, gamma=gamma)
        pair = NeighborPair(dataset=np.zeros((n, d)), alt_last=np.ones(d))
        return params, pair

    def test_pure_blanket_passes(self):
        params, pair = self._tiny(gamma=1.0)
        verdict = exact_audit(pair, params, PrivacyBudget(0.5, 0.05))
        assert verdict.passed
        assert verdict.exact_epsilon == 0.0 and verdict.exact_delta == 0.0
        assert verdict.theoretical_epsilon == 0.5

    def test_identical_datasets_pass(self):
        params, _ = self._tiny(gamma=0.5)
        pair = NeighborPair(dataset=np.zeros((6, 1)), alt_last=np.zeros(1))
        verdict = exact_audit(pair, params, PrivacyBudget(0.3, 0.05))
        assert verdict.passed
        assert verdict.exact_epsilon == 0.0 and verdict.exact_delta == 0.0

    def test_no_blanket_is_a_hard_failure(self):
        # gamma=0 on distinct neighbors: disjoint outcomes witness a violation
        params, pair = self._tiny(gamma=0.0)
        verdict = exact_audit(pair, params, PrivacyBudget(0.5, 0.05))
        assert not verdict.passed
        assert verdict.exact_epsilon == math.inf
        assert verdict.exact_delta == 1.0

    def test_calibrated_tiny_instance_passes(self):
        b = PrivacyBudget(0.99, 0.9)
        gamma = calibrate_gamma_general(b, d=1, k=1, n=10, t=1)
        assert gamma < 1.0
        params = ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma)
        pair = NeighborPair(dataset=np.zeros((10, 1)), alt_last=np.ones(1))
        verdict = exact_audit(pair, params, b)
        assert verdict.passed and verdict.exact_epsilon == 0.0

    def test_requires_t_equal_one(self):
        params = ProtocolParams(d=2, k=1, n=6, t=2, gamma=0.5)
        pair = NeighborPair(dataset=np.zeros((6, 2)), alt_last=np.ones(2))
        with pytest.raises(ValueError):
            exact_audit(pair, params, PrivacyBudget(0.5, 0.05))

    def test_large_delta_gate_passes_gamma_within_budget(self):
        # At delta = 0.9 on this pair, gamma = 0.05, ten times below the
        # calibrated 0.534, rightly passes with epsilon 0: its exact
        # delta(0) is already below 0.9.  gamma = 0.01 (delta(0.99) = 0.94)
        # is a real violation and fails.
        b = PrivacyBudget(0.99, 0.9)
        pair = NeighborPair(dataset=np.zeros((10, 1)), alt_last=np.ones(1))
        verdicts = [
            exact_audit(pair, ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma), b)
            for gamma in (0.05, 0.01)
        ]
        assert verdicts[0].passed and verdicts[0].exact_epsilon == 0.0
        assert not verdicts[1].passed and verdicts[1].exact_epsilon > 2.0


def binomial_pair_delta(n, gamma, eps):
    """Hockey-stick delta(eps), both directions, of the n-user, d = k = 1
    pair (all zeros vs a final user of 1), from exact binomial pmfs: the
    count of ones is Bin(n, gamma/2) against Bin(n-1, gamma/2) plus an
    independent Ber(1 - gamma/2)."""
    h = gamma / 2

    def pmf(m, j):
        return math.comb(m, j) * h**j * (1 - h) ** (m - j) if 0 <= j <= m else 0.0

    p = [pmf(n, j) for j in range(n + 1)]
    q = [pmf(n - 1, j) * h + pmf(n - 1, j - 1) * (1 - h) for j in range(n + 1)]
    w = math.exp(eps)
    return max(
        sum(max(0.0, a - w * b) for a, b in zip(p, q)),
        sum(max(0.0, b - w * a) for a, b in zip(p, q)),
    )


class TestExactAudit:
    PAIR = NeighborPair(dataset=np.zeros((10, 1)), alt_last=np.ones(1))
    BUDGET = PrivacyBudget(0.99, 0.9)

    def _verdict(self, gamma):
        params = ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma)
        return exact_audit(self.PAIR, params, self.BUDGET)

    def test_delta_matches_binomial_oracle(self):
        calibrated = calibrate_gamma_general(self.BUDGET, d=1, k=1, n=10, t=1)
        assert calibrated == pytest.approx(0.5341, abs=1e-4)
        for gamma, expected in ((calibrated, 8.689e-4), (0.05, 0.7228), (0.01, 0.9382)):
            oracle = binomial_pair_delta(10, gamma, 0.99)
            assert oracle == pytest.approx(expected, rel=1e-3)
            assert self._verdict(gamma).exact_delta == pytest.approx(oracle, rel=1e-9)

    def test_epsilon_is_the_smallest_meeting_delta(self):
        eps = self._verdict(0.01).exact_epsilon
        assert binomial_pair_delta(10, 0.01, eps) <= 0.9
        assert binomial_pair_delta(10, 0.01, eps - 1e-6) > 0.9

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_rejects_alt_last_not_of_shape_d(self, shape):
        # a scalar or (1,) input would broadcast over all d coordinates and
        # audit a different pair
        params = ProtocolParams(d=2, k=1, n=3, t=1, gamma=0.5)
        pair = NeighborPair(dataset=np.zeros((3, 2)), alt_last=np.ones(shape))
        with pytest.raises(ValueError, match=re.escape(f"alt_last shape {shape}")):
            exact_audit(pair, params, self.BUDGET)


class TestOutcomeDistribution:
    MATRIX = np.array([[0.0, 0.5], [1.0, 0.25], [0.3, 0.9]])

    def _params(self, gamma=0.4, **over):
        return ProtocolParams(**{"d": 2, "k": 2, "n": 3, "t": 1, "gamma": gamma, **over})

    def test_matches_randomize_batch_frequencies(self):
        # m runs of the harness's mechanism, as one randomize_batch over the
        # m-fold tiled dataset: each run's histogram over the 6 cells,
        # indexed by the counts of the first 5, must land within 5 SE of the
        # exact distribution on every outcome; the distribution at
        # gamma = 0.35 must fail that check
        params, m = self._params(), 200_000
        coords, values = randomize_batch(
            np.tile(self.MATRIX, (m, 1)),
            replace(params, n=m * params.n),
            np.random.default_rng(21),
        )
        cells = (coords * (params.k + 1) + values).reshape(m, params.n)
        counts = np.stack([(cells == c).sum(axis=1) for c in range(5)])
        freq = np.bincount(
            np.ravel_multi_index(tuple(counts), (params.n + 1,) * 5),
            minlength=(params.n + 1) ** 5,
        ) / m

        def within_5_se(dist):
            p = dist.ravel()
            return bool(np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / m)))

        exact = outcome_distribution(self.MATRIX, params)
        assert exact.shape == (4,) * 5
        assert exact.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(exact) == math.comb(3 + 5, 5)
        assert within_5_se(exact)
        assert not within_5_se(outcome_distribution(self.MATRIX, self._params(0.35)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            outcome_distribution(self.MATRIX, self._params(t=2))
        with pytest.raises(ValueError):
            outcome_distribution(self.MATRIX[:2], self._params())
        for bad in (1.5, -0.25, np.nan):
            matrix = self.MATRIX.copy()
            matrix[1, 0] = bad
            with pytest.raises(ValueError):
                outcome_distribution(matrix, self._params())

    def test_outcome_space_guard(self):
        # the table has (n+1)^(d(k+1)-1) entries, at most 10^7
        params = ProtocolParams(d=1, k=4, n=9, t=1, gamma=0.5)
        assert outcome_distribution(np.zeros((9, 1)), params).size == 10**4
        for n, k in ((9, 8), (10, 7)):  # 10^8 and 1.9e7 entries
            with pytest.raises(ValueError, match="too large"):
                outcome_distribution(np.zeros((n, 1)), replace(params, n=n, k=k))
