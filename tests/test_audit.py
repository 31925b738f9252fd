"""Exact privacy analysis: the blanket-count tail that the paper's
Chernoff step bounds, and the exact hockey-stick audit, checked against
the dense outcome table."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from chernoff_step import blanket_tail, chernoff_upper_bound, oracle_tail, pmf_sum_tail
from shufflesum import (
    InfeasibleParametersError,
    PrivacyBudget,
    ProtocolParams,
    calibrate_gamma_general,
    compose_epsilon_prime,
    exact_audit,
    randomize_batch,
)
from shufflesum.audit import MAX_OUTCOMES
from shufflesum.cli import main


class TestExactTailProbability:
    def test_small_case_against_independent_oracle(self):
        s, gamma, k, eps_prime = 100, 0.5, 2, 0.5
        c = gamma * s / k
        got = blanket_tail(s, gamma, k, c, eps_prime)
        assert got == pytest.approx(oracle_tail(s, gamma, k, eps_prime), rel=1e-10)
        # and against a brute-force pmf summation with exact integer binomials
        p_num, p_den = 1, 4  # gamma/k = 1/4
        hi_cut = math.ceil(c * math.exp(eps_prime / 2) - 1.0)  # N >= this + 1... N+1>=hi
        lo_cut = math.floor(c * math.exp(-eps_prime / 2))
        total = 0
        for j in range(s + 1):
            if j + 1 >= c * math.exp(eps_prime / 2) or j <= lo_cut:
                total += math.comb(s, j) * p_num**j * (p_den - p_num) ** (s - j)
        brute = total / p_den**s
        assert got == pytest.approx(brute, rel=1e-10)
        assert hi_cut > lo_cut  # the two events are disjoint here

    @pytest.mark.parametrize(
        "s, gamma, k, c, eps_prime",
        [
            (50, 0.5, 1, 80.0, 0.5),  # both cuts above s
            # criterion 9 at eps 0.4, delta 0.05, expected occupancy
            (30_000, 0.1289271110626257, 1, 0.1289271110626257 * 30_000, 0.08170779653072699),
            # criterion 9 at t = 2, eps 0.6, delta 0.3, twice the expected occupancy
            (120_000, 0.01617057671255292, 1, 0.01617057671255292 * 120_000, 0.13670453454204468),
        ],
    )
    def test_large_s_and_deep_tails_against_pmf_sum(self, s, gamma, k, c, eps_prime):
        got = blanket_tail(s, gamma, k, c, eps_prime)
        want = pmf_sum_tail(s, gamma, k, c, eps_prime)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_monte_carlo_agreement(self):
        s, gamma, k, eps_prime, c = 100, 0.5, 2, 0.5, 25.0
        exact = blanket_tail(s, gamma, k, c, eps_prime)
        rng = np.random.default_rng(0)
        draws = rng.binomial(s, gamma / k, size=1_000_000)
        hi = c * math.exp(eps_prime / 2)
        lo = c * math.exp(-eps_prime / 2)
        freq = np.mean((draws + 1 >= hi) | (draws <= lo))
        se = math.sqrt(exact * (1 - exact) / draws.size)
        assert abs(freq - exact) < 4 * se

    def test_calibrated_point_tail_below_delta_over_t(self):
        # gamma from the general calibration keeps the tail below delta/t
        b = PrivacyBudget(0.5, 0.1)
        gamma = calibrate_gamma_general(b, d=1, k=1, n=10001, t=1)
        s = 10000  # (n - 1) t / d
        eps_prime, _ = compose_epsilon_prime(b, 1)
        c = gamma * s
        got = blanket_tail(s, gamma, 1, c, eps_prime)
        assert got <= 0.1
        want = pmf_sum_tail(s, gamma, 1, c, eps_prime)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_monotone_nonincreasing_in_occupancy(self):
        gamma, k, eps_prime = 0.3, 1, 0.4
        prev = 2.0
        for s in (50, 100, 200, 400, 800, 1600):
            cur = blanket_tail(s, gamma, k, gamma * s / k, eps_prime)
            assert cur <= prev + 1e-12
            prev = cur


class TestChernoffUpperBound:
    @pytest.mark.parametrize("eps_prime", [0.0, -0.5, 6.0, 7.5])
    def test_eps_prime_outside_its_range_raises(self, eps_prime):
        with pytest.raises(ValueError, match=r"eps_prime must be in \(0, 6\)"):
            chernoff_upper_bound(1e6, eps_prime, 1, 0.1)

    def test_precondition_enforced(self):
        with pytest.raises(InfeasibleParametersError):
            chernoff_upper_bound(1.0, 0.5, 1, 0.1)

    def test_threshold_value_meets_delta_over_t(self):
        for delta in (0.05, 0.1, 0.3):
            for eps_prime in (0.1, 0.5, 0.9):
                c = 14 * math.log(2 / delta) / eps_prime**2
                got = chernoff_upper_bound(c, eps_prime, 1, delta)
                expected = math.exp(-(c / 3) * (eps_prime / 2) ** 2) + math.exp(
                    -(c / 2) * (eps_prime / math.sqrt(7)) ** 2
                )
                assert got == pytest.approx(expected, rel=1e-12)
                assert got <= delta

    def test_high_branch_form(self):
        eps_prime, delta = 1.5, 0.1
        c = 80 * math.log(2 / delta) / eps_prime**2 * 2
        expected = math.exp(-(c / 3) * (eps_prime / 2) ** 2) + math.exp(
            -(c / 2) * (eps_prime / (2 * math.sqrt(10))) ** 2
        )
        assert chernoff_upper_bound(c, eps_prime, 1, delta) == pytest.approx(expected, rel=1e-12)

    def test_vanishes_as_c_grows(self):
        vals = []
        for mult in (1, 10, 100):
            c = 14 * math.log(20) / 0.25 * mult
            vals.append(chernoff_upper_bound(c, 0.5, 1, 0.1))
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
            exact = blanket_tail(s, gamma, k, c, eps_prime)
            assert exact <= chernoff_upper_bound(c, eps_prime, 1, delta) + 1e-15

    def test_dominates_exact_at_double_expected_occupancy(self):
        # calibrated gamma meets the precondition exactly at s = 2 E[s]
        for eps, delta, d, n in [(0.5, 0.1, 1, 10001), (0.8, 0.05, 2, 20001)]:
            b = PrivacyBudget(eps, delta)
            gamma = calibrate_gamma_general(b, d=d, k=1, n=n, t=1)
            s2 = 2 * (n - 1) // d
            eps_prime, _ = compose_epsilon_prime(b, 1)
            c = gamma * s2
            exact = blanket_tail(s2, gamma, 1, c, eps_prime)
            assert exact <= chernoff_upper_bound(c, eps_prime, 1, delta)


class TestExactAuditVerdicts:
    def _tiny(self, gamma, n=6, d=1, k=1):
        return ProtocolParams(d=d, k=k, n=n, t=1, gamma=gamma)

    def test_pure_blanket_passes(self):
        verdict = exact_audit(self._tiny(gamma=1.0), PrivacyBudget(0.5, 0.05))
        assert verdict.passed
        assert verdict.exact_epsilon == 0.0 and verdict.exact_delta == 0.0

    def test_no_blanket_is_a_hard_failure(self):
        # gamma=0 on distinct neighbors: disjoint outcomes witness a violation
        verdict = exact_audit(self._tiny(gamma=0.0), PrivacyBudget(0.5, 0.05))
        assert not verdict.passed
        assert verdict.exact_epsilon == math.inf
        assert verdict.exact_delta == 1.0

    def test_calibrated_tiny_instance_passes(self):
        b = PrivacyBudget(0.99, 0.9)
        gamma = calibrate_gamma_general(b, d=1, k=1, n=10, t=1)
        assert gamma < 1.0
        params = ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma)
        verdict = exact_audit(params, b)
        assert verdict.passed and verdict.exact_epsilon == 0.0

    def test_requires_t_equal_one(self):
        params = ProtocolParams(d=2, k=1, n=6, t=2, gamma=0.5)
        with pytest.raises(ValueError):
            exact_audit(params, PrivacyBudget(0.5, 0.05))

    def test_large_delta_gate_passes_gamma_within_budget(self):
        # At delta = 0.9 on this pair, gamma = 0.05, ten times below the
        # calibrated 0.534, rightly passes with epsilon 0: its exact
        # delta(0) is already below 0.9.  gamma = 0.01 (delta(0.99) = 0.94)
        # is a real violation and fails.
        b = PrivacyBudget(0.99, 0.9)
        verdicts = [
            exact_audit(ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma), b)
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


def mpmath_pair_epsilon(n, k, gamma, budget):
    """(smallest epsilon meeting budget.delta, delta at budget.epsilon) of the
    audited pair, at 60 digits.  P is Trinomial(n; a, b, c) over the counts
    of reports of 0, of k and of the rest; Q mixes the final user's report
    (0 with probability b, k with a, the rest with c) into Trinomial(n-1).
    Epsilon is bisected to 1e-15."""
    with mpmath.workdps(60):
        g = mpmath.mpf(gamma)
        a, b, c = 1 - g + g / (k + 1), g / (k + 1), g * (k - 1) / (k + 1)

        def tri(m, i, j):
            if min(i, j, m - i - j) < 0:
                return mpmath.mpf(0)
            l = m - i - j
            return mpmath.factorial(m) / (
                mpmath.factorial(i) * mpmath.factorial(j) * mpmath.factorial(l)
            ) * a**i * b**j * c**l

        cells = [(i, j) for i in range(n + 1) for j in range(n + 1 - i)]
        p = [tri(n, i, j) for i, j in cells]
        q = [b * tri(n - 1, i - 1, j) + a * tri(n - 1, i, j - 1) + c * tri(n - 1, i, j)
             for i, j in cells]

        def delta_at(eps):
            w = mpmath.exp(eps)
            return max(
                sum(max(0, x - w * y) for x, y in zip(p, q)),
                sum(max(0, y - w * x) for x, y in zip(p, q)),
            )

        target = mpmath.mpf(budget.delta)
        lo, hi = mpmath.mpf(0), mpmath.mpf(2000)
        if delta_at(lo) <= target:
            hi = lo
        while hi - lo > mpmath.mpf("1e-15"):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if delta_at(mid) <= target else (mid, hi)
        return float(hi), float(delta_at(mpmath.mpf(budget.epsilon)))


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
    `protocol._respond` after a uniform coordinate draw.
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


def dense_pair(params):
    """The dense oracle's flattened P and Q for the audited pair: all-zero
    users against the same users with a final user of ones."""
    zeros = np.zeros((params.n, params.d))
    ones_last = zeros.copy()
    ones_last[-1] = 1.0
    return (
        outcome_distribution(zeros, params).ravel(),
        outcome_distribution(ones_last, params).ravel(),
    )


def hockey_stick(p, q, eps):
    w = math.exp(eps)
    return max(float(np.maximum(p - w * q, 0.0).sum()), float(np.maximum(q - w * p, 0.0).sum()))


class TestExactAudit:
    BUDGET = PrivacyBudget(0.99, 0.9)

    def _verdict(self, gamma):
        params = ProtocolParams(d=1, k=1, n=10, t=1, gamma=gamma)
        return exact_audit(params, self.BUDGET)

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

    @pytest.mark.parametrize("eps", [1e-12, 0.3, 0.99])  # a budget needs eps > 0
    @pytest.mark.parametrize(
        "n, d, k, gamma",
        [
            (10, 1, 1, 0.05),
            (10, 1, 1, 0.01),
            (6, 1, 2, 0.3),
            (5, 2, 2, 0.4),
            (8, 1, 3, 0.2),
            (10, 1, 1, 0.5341),  # near the calibrated gamma of criterion 10
            (10, 1, 1, 0.0),
            (10, 1, 1, 1.0),
            (9, 1, 4, 0.5),
            # subnormal gammas whose b = gamma/(k+1) rounds to 0
            (10, 1, 1, 5e-324),
            (8, 1, 3, 5e-324),
            (8, 1, 3, 1e-323),
        ],
    )
    def test_matches_the_dense_outcome_table(self, n, d, k, gamma, eps):
        # exact_epsilon, found by bisection to 1e-9, is checked against the
        # oracle's delta on either side of it
        params = ProtocolParams(d=d, k=k, n=n, t=1, gamma=gamma)
        budget = PrivacyBudget(eps, 0.1)
        p, q = dense_pair(params)
        verdict = exact_audit(params, budget)
        assert verdict.exact_delta == pytest.approx(hockey_stick(p, q, eps), rel=1e-12, abs=0.0)
        found = verdict.exact_epsilon
        if found == math.inf:
            assert max(p[q == 0].sum(), q[p == 0].sum()) > budget.delta
        else:
            assert hockey_stick(p, q, found) <= budget.delta * (1 + 1e-12)
            assert found == 0.0 or hockey_stick(p, q, found - 1e-9) > budget.delta
        if gamma / (k + 1) == 0.0:  # P never reports k, Q does
            assert found == math.inf and verdict.exact_delta == 1.0 and not verdict.passed
        if gamma == 1.0:
            assert found == 0.0 and verdict.exact_delta == 0.0

    @pytest.mark.parametrize("gamma, eps", [(0.05, 0.05), (0.2, 0.1), (0.3, 0.3)])
    def test_k1_beyond_the_dense_guard_matches_binomial_oracle(self, gamma, eps):
        # d drops out of the pair's law, so n = 500, d = 100 is the binomial pair
        params = ProtocolParams(d=100, k=1, n=500, t=1, gamma=gamma)
        got = exact_audit(params, PrivacyBudget(eps, 0.1)).exact_delta
        assert got == pytest.approx(binomial_pair_delta(500, gamma, eps), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "n, k, gamma, eps, delta",
        [
            (40, 2, 0.3, 0.5, 1e-9),  # k > 1 beyond the dense table's reach
            # p underflows on cells where q does not, yet the supports agree
            (2, 1, 1e-200, 0.5, 1e-300),
        ],
    )
    def test_matches_the_mpmath_oracle(self, n, k, gamma, eps, delta):
        budget = PrivacyBudget(eps, delta)
        verdict = exact_audit(ProtocolParams(d=1, k=k, n=n, t=1, gamma=gamma), budget)
        epsilon, delta_at_eps = mpmath_pair_epsilon(n, k, gamma, budget)
        assert verdict.exact_epsilon == pytest.approx(epsilon, rel=0.0, abs=1e-9)
        assert verdict.exact_delta == pytest.approx(delta_at_eps, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("gamma", [0.01, 0.2, 0.6])
    def test_verdict_does_not_depend_on_d(self, gamma):
        budget = PrivacyBudget(0.5, 0.05)
        one, many = (
            exact_audit(ProtocolParams(d=d, k=3, n=40, t=1, gamma=gamma), budget)
            for d in (1, 100)
        )
        assert one == many

    @pytest.mark.parametrize("gamma", [1e-310, 1e-320])
    def test_subnormal_gamma_gives_a_verdict_without_warnings(self, gamma):
        # P / Q overflows there; the audit works with log P - log Q
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = self._verdict(gamma)
        assert math.isfinite(verdict.exact_epsilon) and verdict.exact_epsilon > 700
        assert verdict.exact_delta == 1.0 and not verdict.passed

    def test_equal_tables_give_positive_zero_delta(self):
        # at gamma = 1 every report is uniform, so P = Q and delta is 0.0
        verdict = self._verdict(1.0)
        assert verdict.exact_epsilon == 0.0
        assert math.copysign(1.0, verdict.exact_delta) == 1.0 and verdict.exact_delta == 0.0

    def test_epsilon_does_not_fall_as_gamma_falls(self):
        # less blanket, more leakage, down into subnormal gammas
        found = [self._verdict(g).exact_epsilon for g in (1e-300, 1e-306, 1e-310, 1e-320)]
        assert found == sorted(found)

    def test_outcome_space_guard(self):
        # the (A, B) table has (n+1)^2 entries, at most 10^7, for any d and k
        assert (3161 + 1) ** 2 <= MAX_OUTCOMES < (3162 + 1) ** 2
        params = ProtocolParams(d=1, k=1, n=3162, t=1, gamma=0.5)
        with pytest.raises(ValueError, match=r"too large .*n=3162\)"):
            exact_audit(params, self.BUDGET)

    def test_peak_memory_at_the_largest_n(self):
        # one table over the triangle A + B <= n peaks near 235 MiB here;
        # square (n+1)^2 P and Q tables take 315 MiB
        params = ProtocolParams(d=100, k=3, n=3161, t=1, gamma=0.5)
        tracemalloc.start()
        try:
            verdict = exact_audit(params, PrivacyBudget(0.99, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed and verdict.exact_epsilon == 0.0
        assert peak < 256 * 2**20

    def test_peak_memory_at_k1_is_linear_in_n(self):
        # at k = 1 no report is "the rest", so only the n + 1 cells with
        # C = 0 are built; the whole triangle gave the same epsilon, at a
        # 229 MiB peak
        params = ProtocolParams(d=100, k=1, n=3161, t=1, gamma=0.5)
        tracemalloc.start()
        try:
            verdict = exact_audit(params, PrivacyBudget(0.5, 1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.passed and verdict.exact_epsilon == pytest.approx(0.0749670, abs=1e-6)
        assert peak < 16 * 2**20

    def test_cli_outcome_space_guard_is_one_error_line(self, capsys):
        argv = ["audit", "--n", "5000", "--d", "100", "--k", "3", "--gamma", "0.5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "n=5000" in captured.err


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
