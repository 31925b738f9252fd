"""Empirical error, closed-form bound evaluators, and power-law fitting."""

import math

import mpmath
import numpy as np
import pytest

from shufflesum import (
    InfeasibleParametersError,
    PrivacyBudget,
    ProtocolParams,
    analyze_arrays,
    bound_mse,
    calibrate_gamma,
    choose_k_general,
    empirical_mse,
    fit_power_law,
    randomize_batch,
)

mpmath.mp.dps = 50


class TestEmpiricalMse:
    def test_perfect_estimator(self):
        params = ProtocolParams(d=3, k=2, n=30, t=1, gamma=0.1)
        tr = empirical_mse(np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], params)
        assert tr.total_squared_error == 0.0
        assert tr.normalized_mse == 0.0

    def test_single_coordinate_arithmetic(self):
        # one coordinate off by 0.5 with d = n: normalization factor is 1
        params = ProtocolParams(d=2, k=1, n=2, t=1, gamma=0.0)
        tr = empirical_mse(np.array([1.5, 1.0]), [1.0, 1.0], params)
        assert tr.total_squared_error == pytest.approx(0.25)
        assert tr.normalized_mse == pytest.approx(0.25)

    def test_normalization_is_definitional(self):
        params = ProtocolParams(d=10, k=2, n=500, t=1, gamma=0.2)
        rng = np.random.default_rng(0)
        z, s = rng.random(10), rng.random(10)
        tr = empirical_mse(z, s, params)
        assert tr.normalized_mse == pytest.approx(
            tr.total_squared_error * (10 / 500) ** 2, rel=1e-15
        )
        assert tr.total_squared_error == pytest.approx(
            ((z - s) ** 2).sum(), rel=1e-15
        )

    def test_dimension_mismatch(self):
        params = ProtocolParams(d=3, k=2, n=30, t=1, gamma=0.1)
        with pytest.raises(ValueError):
            empirical_mse(np.array([1.0, 2.0, 3.0]), [1.0, 2.0], params)

    def test_accepts_list_estimates(self):
        # a list once raised AttributeError (no .shape) instead of scoring
        params = ProtocolParams(d=2, k=1, n=2, t=1, gamma=0.0)
        tr = empirical_mse([0.0, 1.0], [0.0, 0.0], params)
        assert tr.total_squared_error == 1.0

    @pytest.mark.parametrize(
        "estimates, truth",
        [([[0.0, 1.0]], [[0.0, 0.0]]), ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]), (0.0, 0.0)],
        ids=["row-matrices", "d-plus-one", "scalars"],
    )
    def test_requires_shape_d(self, estimates, truth):
        # (1, 2) arrays at d = 2 once scored as if they were (d,)
        params = ProtocolParams(d=2, k=1, n=2, t=1, gamma=0.0)
        with pytest.raises(ValueError, match=r"must both be \(d=2,\)"):
            empirical_mse(estimates, truth, params)

    def test_quantization_only_regime_capped(self):
        # gamma=0: the only error is the fixed-point step, variance <= 1/(4k^2)
        params = ProtocolParams(d=5, k=2, n=500, t=1, gamma=0.0)
        matrix = np.random.default_rng(1).random((params.n, params.d))
        cap = params.t * params.n * (1 / (4 * params.k**2)) * (params.d / params.n) ** 2
        vals = []
        for seed in range(60):
            rng = np.random.default_rng(100 + seed)
            coords, values = randomize_batch(matrix, params, rng)
            sampled = np.take_along_axis(matrix, coords, axis=1)
            truth = np.bincount(
                coords.ravel(), weights=sampled.ravel(), minlength=params.d
            )
            e = analyze_arrays(coords, values, params)
            vals.append(empirical_mse(e, truth, params).normalized_mse)
        assert np.mean(vals) <= cap


def _params(d=100, k=3, n=50000, t=1, gamma=0.2):
    return ProtocolParams(d=d, k=k, n=n, t=t, gamma=gamma)


@pytest.mark.parametrize("analysis", ["general", "t1"])
def test_bounds_reject_gamma_one(analysis):
    with pytest.raises(InfeasibleParametersError, match="bounds undefined for gamma >= 1"):
        bound_mse(_params(gamma=1.0), PrivacyBudget(0.95, 0.5), analysis)


class TestGeneralBound:
    def test_homogeneity_in_d_and_n(self):
        b = PrivacyBudget(0.95, 0.5)
        base = bound_mse(_params(), b, "general")
        assert bound_mse(_params(d=200), b, "general") == pytest.approx(
            base * 2 ** (8 / 3), rel=1e-12
        )
        assert bound_mse(_params(n=100000), b, "general") == pytest.approx(
            base * 2 ** (-5 / 3), rel=1e-12
        )

    def test_dual_transcription_low_regime(self):
        p, b = _params(), PrivacyBudget(0.95, 0.5)
        oracle = (
            2
            * mpmath.mpf(100) ** mpmath.mpf("8/3")
            * (14 * mpmath.log(2) * mpmath.log(4)) ** mpmath.mpf("2/3")
            / (
                mpmath.mpf("0.8") ** 2
                * mpmath.mpf(50000) ** mpmath.mpf("5/3")
                * mpmath.mpf("0.95") ** mpmath.mpf("4/3")
            )
        )
        got = bound_mse(p, b, "general")
        assert got == pytest.approx(float(oracle), rel=1e-10)

    def test_dual_transcription_high_regime(self):
        p, b = _params(t=2), PrivacyBudget(2.0, 0.1)
        oracle = (
            8
            * 2
            * mpmath.mpf(100) ** mpmath.mpf("8/3")
            * (63 * mpmath.log(10) * mpmath.log(40)) ** mpmath.mpf("2/3")
            / (
                mpmath.mpf("0.8") ** 2
                * mpmath.mpf(50000) ** mpmath.mpf("5/3")
                * mpmath.mpf(2) ** mpmath.mpf("4/3")
            )
        )
        got = bound_mse(p, b, "general")
        assert got == pytest.approx(float(oracle), rel=1e-10)

    def test_linear_in_t_low_regime_shape(self):
        b = PrivacyBudget(0.5, 0.1)
        one = bound_mse(_params(t=1), b, "general")
        three = bound_mse(_params(t=3), b, "general")
        ratio = 3 * (math.log(6 / 0.1) / math.log(2 / 0.1)) ** (2 / 3)
        assert three / one == pytest.approx(ratio, rel=1e-12)


class TestT1Bound:
    def test_homogeneity_in_d(self):
        b = PrivacyBudget(0.95, 0.5)
        base = bound_mse(_params(), b, "t1")
        assert bound_mse(_params(d=200), b, "t1") == pytest.approx(
            base * 2 ** (8 / 3), rel=1e-12
        )

    def test_reference_point_value(self):
        p, b = _params(gamma=0.17052972638400138), PrivacyBudget(0.95, 0.5)
        got = bound_mse(p, b, "t1")
        shape = (
            mpmath.mpf(100) ** mpmath.mpf("8/3")
            / (
                (1 - mpmath.mpf(repr(p.gamma))) ** 2
                * mpmath.mpf(50000) ** mpmath.mpf("5/3")
            )
        )
        first = (
            mpmath.mpf(98) ** mpmath.mpf("1/3")
            * mpmath.log(4) ** mpmath.mpf("2/3")
            / mpmath.mpf("0.95") ** mpmath.mpf("4/3")
        )
        second = 18 / (4 * mpmath.mpf("0.95")) ** mpmath.mpf("2/3")
        oracle = float(shape * max(first, second))
        assert got == pytest.approx(oracle, rel=1e-10)

    def test_high_regime_branch_and_value(self):
        p, b = _params(gamma=0.3), PrivacyBudget(2.0, 0.1)
        got = bound_mse(p, b, "t1")
        shape = 100 ** (8 / 3) / (0.7**2 * 50000 ** (5 / 3))
        expected = shape * max(
            2 * (20 * math.log(20)) ** (2 / 3) / 2 ** (4 / 3),
            2 * 9 ** (2 / 3) / 22 ** (2 / 3),
        )
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.3, 0.6, 0.95, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
    def test_never_above_general_bound_at_t1(self, eps, delta):
        p, b = _params(gamma=0.25), PrivacyBudget(eps, delta)
        assert bound_mse(p, b, "t1") <= bound_mse(p, b, "general") * (1 + 1e-12)


def bound_sigma(params, budget):
    """The standard-deviation bound, transcribed from the
    paper's displayed sigma formulas directly rather than derived from the
    MSE evaluators, as an independent check on their transcription."""
    d, n, t = params.d, params.n, params.t
    eps, delta = budget.epsilon, budget.delta
    denom = (1.0 - params.gamma) * n ** (5.0 / 6.0)
    d43 = d ** (4.0 / 3.0)
    if t == 1:
        log2d = math.log(2.0 / delta)
        if budget.high_regime:
            sigma = (d43 / denom) * max(
                2.0 ** 0.5 * (20.0 * log2d) ** (1.0 / 3.0) / eps ** (2.0 / 3.0),
                2.0 ** 0.5 * 9.0 ** (1.0 / 3.0) / (11.0 * eps) ** (1.0 / 3.0),
            )
            return sigma
        sigma = (d43 / denom) * max(
            98.0 ** (1.0 / 6.0) * log2d ** (1.0 / 3.0) / eps ** (2.0 / 3.0),
            18.0 ** 0.5 / (4.0 * eps) ** (1.0 / 3.0),
        )
        return sigma
    loglog = math.log(1.0 / delta) * math.log(2.0 * t / delta)
    if budget.high_regime:
        lead, inner = (8.0 * t) ** 0.5, 63.0 * loglog
    else:
        lead, inner = (2.0 * t) ** 0.5, 14.0 * loglog
    return lead * d43 * inner ** (1.0 / 3.0) / (denom * eps ** (2.0 / 3.0))


class TestBoundSigma:
    def test_sqrt_identity_on_random_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(1, 400))
            n = int(rng.integers(2, 10**6))
            t = int(rng.integers(1, min(d, 4) + 1))
            gamma = float(rng.uniform(0.0, 0.95))
            eps = float(rng.uniform(0.05, 5.9))
            delta = float(rng.uniform(0.001, 0.999))
            p = ProtocolParams(d=d, k=3, n=n, t=t, gamma=gamma)
            b = PrivacyBudget(eps, delta)
            mse = bound_mse(p, b, "t1" if t == 1 else "general")
            assert bound_sigma(p, b) == pytest.approx(math.sqrt(mse), rel=1e-12)

    def test_defaults_finite_positive(self):
        p, b = _params(gamma=0.17052972638400138), PrivacyBudget(0.95, 0.5)
        sigma = bound_sigma(p, b)
        assert 0 < sigma < math.inf
        assert sigma == pytest.approx(math.sqrt(bound_mse(p, b, "t1")), rel=1e-12)


class TestEmpiricalBelowBound:
    def test_calibrated_points_sit_below_bound(self):
        # the bound is a sup over datasets; per-dataset means must sit below
        n, d = 5000, 20
        b = PrivacyBudget(0.95, 0.5)
        gamma = calibrate_gamma(b, d, 2, n, 1, "t1")
        params = ProtocolParams(d=d, k=2, n=n, t=1, gamma=gamma)
        bound = bound_mse(params, b, "t1")
        matrix = np.random.default_rng(2).random((n, d)) * 0.3
        below = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            coords, values = randomize_batch(matrix, params, rng)
            sampled = np.take_along_axis(matrix, coords, axis=1)
            truth = np.bincount(coords.ravel(), weights=sampled.ravel(), minlength=d)
            e = analyze_arrays(coords, values, params)
            below += empirical_mse(e, truth, params).normalized_mse <= bound
        assert below / trials >= 0.95

    def test_general_mode_point(self):
        # the closed-form bound presumes the objective-minimizing k
        n, d, t = 50000, 10, 2
        b = PrivacyBudget(0.8, 0.3)
        k = choose_k_general(b, d, n, t)
        gamma = calibrate_gamma(b, d, k, n, t, "general")
        params = ProtocolParams(d=d, k=k, n=n, t=t, gamma=gamma)
        bound = bound_mse(params, b, "general")
        matrix = np.random.default_rng(3).random((n, d)) * 0.2
        for seed in range(5):
            rng = np.random.default_rng(seed)
            coords, values = randomize_batch(matrix, params, rng)
            sampled = np.take_along_axis(matrix, coords, axis=1)
            truth = np.bincount(coords.ravel(), weights=sampled.ravel(), minlength=d)
            e = analyze_arrays(coords, values, params)
            assert empirical_mse(e, truth, params).normalized_mse <= bound


class TestFitPowerLaw:
    def test_exact_square(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, r2, _ = fit_power_law(xs, 3 * xs**2)
        assert slope == pytest.approx(2.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse(self):
        xs = np.array([1.0, 3.0, 9.0])
        slope, _, _ = fit_power_law(xs, 5 / xs)
        assert slope == pytest.approx(-1.0, rel=1e-12)

    def test_noisy_eight_thirds(self):
        rng = np.random.default_rng(4)
        xs = np.geomspace(10, 1000, 12)
        ys = xs ** (8 / 3) * (1 + rng.uniform(-0.05, 0.05, 12))
        slope, r2, _ = fit_power_law(xs, ys)
        assert 2.5 <= slope <= 2.8
        assert r2 > 0.99

    def test_amplitude_is_the_fitted_prefactor(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        _, _, amplitude = fit_power_law(xs, 3 * xs**2)
        assert amplitude == pytest.approx(3.0, rel=1e-12)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
