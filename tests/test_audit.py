"""Executable privacy analysis: exact tail events, Chernoff forms, and the
Monte-Carlo indistinguishability audit."""

import math
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from shufflesum import (
    InfeasibleParametersError,
    InsufficientTrialsError,
    NeighborPair,
    PrivacyBudget,
    ProtocolParams,
    TailParams,
    calibrate_gamma_general,
    chernoff_upper_bound,
    compose_epsilon_prime,
    exact_tail_probability,
    monte_carlo_audit,
    randomize_batch,
    sample_count_tail,
    tail_params_from_protocol,
)
from shufflesum.audit import simulate_outcome_counts

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


class TestSampleCountTail:
    def test_reference_values(self):
        assert sample_count_tail(50000, 1, 100) == pytest.approx(
            math.exp(-49999 / 300), rel=1e-15
        )
        assert sample_count_tail(1000, 7, 7) == pytest.approx(
            math.exp(-999 / 3), rel=1e-15
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_count_tail(1, 1, 1)
        with pytest.raises(ValueError):
            sample_count_tail(100, 3, 2)

    def test_empirical_frequency_below_bound(self):
        n, t, d = 200, 1, 10
        bound = sample_count_tail(n, t, d)
        rng = np.random.default_rng(1)
        rounds = 100_000
        # occupancy of one fixed coordinate among the other n-1 users
        s = rng.binomial(n - 1, t / d, size=rounds)
        freq = np.mean(s >= 2 * (n - 1) * t / d)
        assert freq <= bound


class TestMonteCarloAudit:
    def _tiny(self, gamma, n=6, d=1, k=1):
        params = ProtocolParams(d=d, k=k, n=n, t=1, gamma=gamma)
        pair = NeighborPair(dataset=np.zeros((n, d)), alt_last=np.ones(d))
        return params, pair

    def test_pure_blanket_passes(self):
        params, pair = self._tiny(gamma=1.0)
        verdict = monte_carlo_audit(
            pair, params, PrivacyBudget(0.5, 0.05), 300_000, np.random.default_rng(0)
        )
        assert verdict.passed
        assert verdict.empirical_epsilon == 0.0
        assert verdict.theoretical_epsilon == 0.5
        assert verdict.trials == 300_000

    def test_identical_datasets_pass(self):
        params, _ = self._tiny(gamma=0.5)
        pair = NeighborPair(dataset=np.zeros((6, 1)), alt_last=np.zeros(1))
        verdict = monte_carlo_audit(
            pair, params, PrivacyBudget(0.3, 0.05), 300_000, np.random.default_rng(1)
        )
        assert verdict.passed
        assert verdict.empirical_epsilon <= 0.05

    def test_no_blanket_is_a_hard_failure(self):
        # gamma=0 on distinct neighbors: disjoint outcomes witness a violation
        params, pair = self._tiny(gamma=0.0)
        verdict = monte_carlo_audit(
            pair, params, PrivacyBudget(0.5, 0.05), 50_000, np.random.default_rng(2)
        )
        assert not verdict.passed
        assert verdict.empirical_epsilon == math.inf

    def test_insufficient_trials_raises(self):
        params, pair = self._tiny(gamma=0.5)
        with pytest.raises(InsufficientTrialsError):
            monte_carlo_audit(
                pair, params, PrivacyBudget(0.3, 0.05), 150, np.random.default_rng(3)
            )

    def test_calibrated_tiny_instance_passes(self):
        b = PrivacyBudget(0.99, 0.9)
        gamma = calibrate_gamma_general(b, d=1, k=1, n=10, t=1)
        assert gamma < 1.0
        params = ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma)
        pair = NeighborPair(dataset=np.zeros((10, 1)), alt_last=np.ones(1))
        verdict = monte_carlo_audit(
            pair, params, b, 300_000, np.random.default_rng(4)
        )
        assert verdict.passed

    def test_requires_t_equal_one(self):
        params = ProtocolParams(d=2, k=1, n=6, t=2, gamma=0.5)
        pair = NeighborPair(dataset=np.zeros((6, 2)), alt_last=np.ones(2))
        with pytest.raises(ValueError):
            monte_carlo_audit(
                pair, params, PrivacyBudget(0.5, 0.05), 1000, np.random.default_rng(5)
            )

    def test_large_delta_gate_passes_gamma_within_budget(self):
        # Outcomes estimated at <= delta are skipped.  At delta = 0.9 that
        # leaves only the all-zero outcome testable, so gamma = 0.05, ten
        # times below the calibrated 0.534, passes with epsilon 0 -- rightly:
        # its exact hockey-stick delta(0.99) on this pair is 0.72 <= 0.9.
        # gamma = 0.01 (exact delta(0.99) = 0.94) is caught.
        b = PrivacyBudget(0.99, 0.9)
        pair = NeighborPair(dataset=np.zeros((10, 1)), alt_last=np.ones(1))
        verdicts = [
            monte_carlo_audit(
                pair, ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma), b,
                100_000, np.random.default_rng(6),
            )
            for gamma in (0.05, 0.01)
        ]
        assert verdicts[0].passed and verdicts[0].empirical_epsilon == 0.0
        assert not verdicts[1].passed and verdicts[1].empirical_epsilon > 2.0


class TestSimulateOutcomeCounts:
    def test_same_mechanism_and_stream_as_randomize_batch(self):
        # m runs of n users equal one randomize_batch over the m-fold tiled
        # dataset: at t = 1 both draw coordinates, encoding, blanket and
        # uniform values from one stream in the same order
        matrix = np.array([[0.0, 0.5], [1.0, 0.25], [0.3, 0.9]])
        params = ProtocolParams(d=2, k=2, n=3, t=1, gamma=0.4)
        n, cells, m = 3, 6, 2000
        table = simulate_outcome_counts(matrix, params, m, np.random.default_rng(21))
        coords, values = randomize_batch(
            np.tile(matrix, (m, 1)), replace(params, n=m * n), np.random.default_rng(21)
        )
        per_run = (coords * (params.k + 1) + values).reshape(m, n)
        expected = Counter(tuple(np.bincount(r, minlength=cells)) for r in per_run)
        decoded = Counter()
        for key, count in table.items():
            digits = [(key // (n + 1) ** c) % (n + 1) for c in range(cells)]
            decoded[tuple(digits)] += count
        assert decoded == expected
        assert len(expected) > 10
