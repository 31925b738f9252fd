"""Calibration: budget splitting, composition, blanket probability and
quantization-level selection."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import (
    ExperimentConfig,
    InfeasibleParametersError,
    PrivacyBudget,
    ProtocolParams,
    calibrate_gamma_general,
    calibrate_gamma_t1,
    choose_k_general,
    choose_k_t1,
    compose_epsilon_prime,
    resolve_point,
    respond,
)
from shufflesum.cli import main

mpmath.mp.dps = 50


def mp_eps_prime(eps, delta, r, high):
    scale = 12 if high else 2
    return eps / (scale * mpmath.sqrt(2 * r * mpmath.log(1 / mpmath.mpf(delta))))


class TestPrivacyBudget:
    def test_rejects_epsilon_out_of_range(self):
        for eps in (0.0, -1.0, 6.0, 7.5):
            with pytest.raises(ValueError):
                PrivacyBudget(eps, 0.1)

    def test_rejects_delta_out_of_range(self):
        for delta in (0.0, -0.5, 1.0, 1.5):
            with pytest.raises(ValueError):
                PrivacyBudget(0.5, delta)

    def test_regime_boundary(self):
        assert not PrivacyBudget(0.999, 0.1).high_regime
        assert PrivacyBudget(1.0, 0.1).high_regime
        assert PrivacyBudget(5.9, 0.1).high_regime


class TestProtocolParams:
    def test_valid(self):
        p = ProtocolParams(d=10, k=3, n=100, t=2, gamma=0.25)
        assert (p.d, p.k, p.n, p.t, p.gamma) == (10, 3, 100, 2, 0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, k=1, n=10, t=1, gamma=0.1),
            dict(d=5, k=0, n=10, t=1, gamma=0.1),
            dict(d=5, k=1, n=1, t=1, gamma=0.1),
            dict(d=5, k=1, n=10, t=0, gamma=0.1),
            dict(d=5, k=1, n=10, t=6, gamma=0.1),
            dict(d=5, k=1, n=10, t=1, gamma=-0.1),
            dict(d=5, k=1, n=10, t=1, gamma=1.1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    @pytest.mark.parametrize("field", ["d", "k", "n", "t"])
    @pytest.mark.parametrize("bad", [2.5, 4.0, np.float64(3.0), True])
    def test_rejects_non_integer_fields(self, field, bad):
        # k = 2.5 would draw values from {0..3} and debias by 2.5; k = True
        # would run as k = 1
        kwargs = dict(d=5, k=2, n=10, t=1, gamma=0.1)
        kwargs[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            ProtocolParams(**kwargs)

    def test_accepts_numpy_integers(self):
        p = ProtocolParams(d=np.int64(5), k=np.int32(2), n=np.int64(10), t=np.uint8(1), gamma=0.1)
        assert (p.d, p.k, p.n, p.t) == (5, 2, 10, 1)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: PrivacyBudget(True, 0.1), "epsilon"),
        (lambda: ProtocolParams(d=1, k=1, n=2, t=1, gamma=True), "gamma"),
        (lambda: respond(np.array([0.5]), 3, True, np.random.default_rng(0)), "gamma"),
        (lambda: ExperimentConfig(gamma=True), "gamma"),
        (lambda: ExperimentConfig(axis="eps", values=(True, 0.5)), "eps sweep value"),
        (lambda: resolve_point(ExperimentConfig(eps=True)), "epsilon"),
    ],
    ids=["budget-eps", "params-gamma", "respond-gamma", "config-gamma", "eps-value", "config-eps"],
)
def test_a_bool_is_no_epsilon_or_gamma(build, field):
    # True would run as 1: epsilon 1 in the high regime, or gamma 1, all blanket
    with pytest.raises(ValueError, match=f"^{field} .*True"):
        build()


class TestComposeEpsilonPrime:
    def test_low_regime_four_folds(self):
        eps_prime, delta_prime = compose_epsilon_prime(PrivacyBudget(0.8, 0.01), 4)
        assert eps_prime == pytest.approx(0.06590102289822608, rel=1e-12)
        assert delta_prime == pytest.approx(0.0025, rel=1e-12)
        oracle = mp_eps_prime(0.8, 0.01, 4, high=False)
        assert eps_prime == pytest.approx(float(oracle), rel=1e-12)

    def test_low_regime_single_fold(self):
        eps_prime, _ = compose_epsilon_prime(PrivacyBudget(0.5, 0.1), 1)
        assert eps_prime == pytest.approx(0.11650, abs=5e-6)
        assert eps_prime == pytest.approx(
            float(mp_eps_prime(0.5, 0.1, 1, high=False)), rel=1e-12
        )

    def test_high_regime_scales_denominator_by_six(self):
        eps_prime, _ = compose_epsilon_prime(PrivacyBudget(2.0, 0.1), 1)
        assert eps_prime == pytest.approx(0.07767, abs=5e-6)
        assert eps_prime == pytest.approx(
            float(mp_eps_prime(2.0, 0.1, 1, high=True)), rel=1e-12
        )
        low, _ = compose_epsilon_prime(PrivacyBudget(0.5, 0.1), 1)
        assert low / 0.5 == pytest.approx(6 * eps_prime / 2.0, rel=1e-12)

    def test_rejects_bad_r(self):
        for r in (0, 2.5, True):
            with pytest.raises(ValueError):
                compose_epsilon_prime(PrivacyBudget(0.5, 0.1), r)

    def test_delta_one_is_degenerate(self):
        # ln(1/delta) = 0 would leave no per-fold budget: delta = 1 is refused
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\), got 1.0"):
            PrivacyBudget(0.5, 1.0)

    @given(
        eps=st.floats(0.05, 5.9),
        delta=st.floats(0.001, 0.9),
        r=st.integers(1, 10_000),
    )
    def test_monotone_decreasing_in_r(self, eps, delta, r):
        b = PrivacyBudget(eps, delta)
        more, _ = compose_epsilon_prime(b, r + 1)
        fewer, _ = compose_epsilon_prime(b, r)
        assert more < fewer


def advanced_composition(epsilon_prime, r, delta):
    """Cumulative epsilon after r-fold adaptive composition of
    (epsilon', delta')-DP mechanisms, with slack delta:

        epsilon = sqrt(2 r ln(1/delta)) eps' + r eps' (e^eps' - 1)

    The round trip through compose_epsilon_prime checks its safety factor.
    """
    if epsilon_prime < 0:
        raise ValueError(f"epsilon_prime must be >= 0, got {epsilon_prime}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return math.sqrt(2.0 * r * math.log(1.0 / delta)) * epsilon_prime + r * epsilon_prime * (
        math.expm1(epsilon_prime)
    )


class TestAdvancedComposition:
    def test_frozen_example(self):
        got = advanced_composition(0.1, 10, 0.01)
        assert got == pytest.approx(1.0648761005132639, rel=1e-12)
        oracle = mpmath.sqrt(20 * mpmath.log(100)) * mpmath.mpf("0.1") + mpmath.expm1(
            mpmath.mpf("0.1")
        )
        assert got == pytest.approx(float(oracle), rel=1e-12)

    def test_zero_per_fold_budget(self):
        assert advanced_composition(0.0, 5, 0.5) == 0.0

    def test_round_trip_stays_within_half_target(self):
        # splitting with the 2x safety factor must recompose below target
        b = PrivacyBudget(0.5, 0.1)
        eps_prime, _ = compose_epsilon_prime(b, 1)
        total = advanced_composition(eps_prime, 1, b.delta)
        oracle = float(
            mpmath.sqrt(2 * mpmath.log(10)) * mpmath.mpf(eps_prime)
            + eps_prime * mpmath.expm1(mpmath.mpf(eps_prime))
        )
        assert total == pytest.approx(oracle, rel=1e-12)
        assert 0.25 <= total <= 0.5

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.7, 0.99])
    @pytest.mark.parametrize("delta", [0.001, 0.1, 0.5])
    @pytest.mark.parametrize("r", [1, 2, 10, 100, 1000])
    def test_round_trip_bracket_low_regime(self, eps, delta, r):
        eps_prime, _ = compose_epsilon_prime(PrivacyBudget(eps, delta), r)
        total = advanced_composition(eps_prime, r, delta)
        assert eps / 2 <= total <= eps

    @pytest.mark.parametrize("eps", [1.0, 2.5, 5.9])
    @pytest.mark.parametrize("r", [1, 10, 500])
    def test_round_trip_high_regime_below_target(self, eps, r):
        eps_prime, _ = compose_epsilon_prime(PrivacyBudget(eps, 0.25), r)
        assert advanced_composition(eps_prime, r, 0.25) <= eps

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            advanced_composition(-0.1, 5, 0.5)
        with pytest.raises(ValueError):
            advanced_composition(0.1, 0, 0.5)
        with pytest.raises(ValueError):
            advanced_composition(0.1, 5, 1.0)


class TestCalibrateGammaGeneral:
    def test_frozen_scalar_example(self):
        got = calibrate_gamma_general(PrivacyBudget(0.5, 0.1), d=1, k=1, n=10001, t=1)
        assert got == 0.1545135978553794
        oracle = (
            56
            * mpmath.log(10)
            * mpmath.log(20)
            / (10000 * mpmath.mpf("0.25"))
        )
        assert got == pytest.approx(float(oracle), rel=1e-12)

    def test_frozen_reference_point(self):
        got = calibrate_gamma_general(PrivacyBudget(0.95, 0.5), d=100, k=3, n=50000, t=1)
        oracle = 56 * 300 * mpmath.log(2) * mpmath.log(4) / (49999 * mpmath.mpf("0.9025"))
        assert got == pytest.approx(float(oracle), rel=1e-12)
        assert got == 0.35775167066004077

    def test_frozen_ref_t5_point(self):
        # the gamma every ref_t5 benchmark trial runs with
        got = calibrate_gamma_general(PrivacyBudget(0.95, 0.5), d=100, k=3, n=50000, t=5)
        assert got == 0.7730884982092605

    def test_small_cohort_is_infeasible(self):
        with pytest.raises(InfeasibleParametersError):
            calibrate_gamma_general(PrivacyBudget(0.5, 0.1), d=1, k=1, n=1000, t=1)
        # formula value ~ 46.4 >> 1: wide vector with a tight budget
        with pytest.raises(InfeasibleParametersError):
            calibrate_gamma_general(PrivacyBudget(0.5, 0.1), d=100, k=3, n=10001, t=1)

    def test_formula_of_exactly_one_is_infeasible(self):
        # at n = 101 this eps puts 56 ln 2 ln 4 / (100 eps^2) at 1.0 exactly;
        # the next float up gives the largest gamma below 1
        eps = 0.7335580246908798
        with pytest.raises(InfeasibleParametersError, match="probability 1 is not below 1"):
            calibrate_gamma_general(PrivacyBudget(eps, 0.5), d=1, k=1, n=101, t=1)
        above = PrivacyBudget(math.nextafter(eps, 1.0), 0.5)
        assert calibrate_gamma_general(above, d=1, k=1, n=101, t=1) == 0.9999999999999999

    def test_high_regime_constant(self):
        low = calibrate_gamma_general(PrivacyBudget(0.999, 0.1), 1, 1, 10**7, 1)
        high = calibrate_gamma_general(PrivacyBudget(1.0, 0.1), 1, 1, 10**7, 1)
        # 2016/56 = 36, minus the tiny epsilon^2 shift
        assert high / low == pytest.approx(36.0 * 0.999**2, rel=1e-9)

    def test_linear_in_d_k_t_log(self):
        b = PrivacyBudget(0.5, 0.1)
        base = calibrate_gamma_general(b, 1, 1, 10**6, 1)
        assert calibrate_gamma_general(b, 3, 1, 10**6, 1) == pytest.approx(
            3 * base, rel=1e-12
        )
        assert calibrate_gamma_general(b, 1, 4, 10**6, 1) == pytest.approx(
            4 * base, rel=1e-12
        )

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.95, 1.0, 2.0, 5.9])
    @pytest.mark.parametrize("delta", [1e-9, 1e-4, 0.1, 0.5])
    @pytest.mark.parametrize("t", [1, 2, 5, 37])
    def test_is_half_the_t1_rule_per_coordinate(self, eps, delta, t):
        # in both regimes: half the t = 1 low-regime 14-rule at the per-fold
        # budget that compose_epsilon_prime gives, with d/t coordinates per fold
        d, k, n = 37, 3, 10**15
        budget = PrivacyBudget(eps, delta)
        eps_prime, delta_prime = compose_epsilon_prime(budget, t)
        rule = 14 * (d / t) * k * math.log(2 / delta_prime) / ((n - 1) * eps_prime**2)
        assert calibrate_gamma_general(budget, d, k, n, t) == pytest.approx(rule / 2, rel=1e-12)

    @given(n=st.integers(10_001, 10**7))
    def test_monotone_decreasing_in_n(self, n):
        b = PrivacyBudget(0.5, 0.1)
        assert calibrate_gamma_general(b, 1, 1, n + 1, 1) < calibrate_gamma_general(
            b, 1, 1, n, 1
        )

    @given(
        eps=st.floats(0.05, 5.9),
        delta=st.floats(0.001, 0.999),
        d=st.integers(1, 500),
        k=st.integers(1, 10),
        n=st.integers(2, 10**8),
        t=st.integers(1, 5),
    )
    @settings(max_examples=200)
    def test_feasible_or_raises(self, eps, delta, d, k, n, t):
        if t > d:
            t = d
        try:
            gamma = calibrate_gamma_general(PrivacyBudget(eps, delta), d, k, n, t)
        except InfeasibleParametersError:
            return
        assert 0.0 < gamma < 1.0


class TestCalibrateGammaT1:
    def test_frozen_reference_point(self):
        got = calibrate_gamma_t1(PrivacyBudget(0.95, 0.5), d=100, k=3, n=50000)
        assert got == 0.17052972638400138

    def test_linear_branch_dominates_scalar(self):
        got = calibrate_gamma_t1(PrivacyBudget(0.95, 0.5), d=1, k=1, n=50000)
        assert got == pytest.approx(27 / (49999 * 0.95), rel=1e-12)
        assert got == pytest.approx(5.6843e-4, abs=1e-7)

    def test_high_regime_reference_point(self):
        got = calibrate_gamma_t1(PrivacyBudget(1.0, 0.5), d=100, k=3, n=50000)
        oracle = float(80 * 300 * mpmath.log(4) / 49999)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(0.66543, abs=5e-5)

    def test_direct_transcription_both_branches(self):
        b = PrivacyBudget(0.4, 0.2)
        for d, k, n in [(1, 1, 10**5), (7, 2, 10**6)]:
            expected = max(
                14 * d * k * math.log(2 / 0.2) / ((n - 1) * 0.4**2),
                27 * d * k / ((n - 1) * 0.4),
            )
            assert calibrate_gamma_t1(b, d, k, n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("eps", [0.1, 0.4, 0.8, 0.95, 1.0, 2.0, 5.0])
    def test_never_above_general_t1_for_moderate_delta(self, delta, eps):
        # the tightened t=1 analysis can only lower the noise requirement
        b = PrivacyBudget(eps, delta)
        d, k, n = 3, 2, 10**8
        assert calibrate_gamma_t1(b, d, k, n) <= calibrate_gamma_general(b, d, k, n, 1)

    @given(eps=st.floats(0.05, 0.999))
    def test_monotone_in_eps_within_low_regime(self, eps):
        b1 = calibrate_gamma_t1(PrivacyBudget(eps, 0.1), 1, 1, 10**7)
        b2 = calibrate_gamma_t1(PrivacyBudget(min(eps * 1.01, 0.9999), 0.1), 1, 1, 10**7)
        assert b2 <= b1

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParametersError):
            calibrate_gamma_t1(PrivacyBudget(0.1, 0.01), d=100, k=3, n=1000)

    def test_formula_of_exactly_one_is_infeasible(self, capsys):
        # 27 d k / ((n - 1) eps) = 27 / (54 * 0.5) = 1.0 exactly at n = 55
        b = PrivacyBudget(0.5, 0.9)
        with pytest.raises(InfeasibleParametersError, match="probability 1 is not below 1"):
            calibrate_gamma_t1(b, d=1, k=1, n=55)
        assert calibrate_gamma_t1(b, d=1, k=1, n=56) == 27 / (55 * 0.5)
        argv = ["params", "--n", "55", "--d", "1", "--k", "1", "--t", "1"]
        assert main([*argv, "--eps", "0.5", "--delta", "0.9"]) == 2
        assert "t=1 calibration: required blanket probability 1 is not below 1" in (
            capsys.readouterr().err
        )


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize(
    "field, call",
    [
        ("d", lambda b, v: calibrate_gamma_t1(b, v, 1, 10001)),
        ("k", lambda b, v: calibrate_gamma_general(b, 10, v, 10001, 2)),
        ("n", lambda b, v: choose_k_t1(b, 10, v)),
        ("t", lambda b, v: choose_k_general(b, 10, 10001, v)),
    ],
    ids=["calibrate_gamma_t1", "calibrate_gamma_general", "choose_k_t1", "choose_k_general"],
)
def test_calibrators_and_choosers_refuse_non_integer_dims(field, call, bad):
    # the integer rule of ProtocolParams: d = True would calibrate as d = 1,
    # and a fractional k is named, not mistaken for an infeasible budget
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        call(PrivacyBudget(0.5, 0.1), bad)


class TestChooseK:
    def test_general_matches_brute_force_scan(self):
        b = PrivacyBudget(0.95, 0.5)
        d, n, t = 100, 50000, 1

        def objective(k):
            cost = (
                28
                * d
                * math.log(1 / 0.5)
                * math.log(2 * t / 0.5)
                / ((n - 1) * 0.95**2)
            )
            return 1 / (4 * k**2) + cost * k

        brute = min(range(1, 101), key=objective)
        got = choose_k_general(b, d, n, t)
        assert got == brute == 2

    @given(
        eps=st.floats(0.05, 5.9),
        delta=st.floats(0.001, 0.9),
        d=st.integers(1, 300),
        n=st.integers(100, 10**8),
        t=st.integers(1, 4),
    )
    @settings(max_examples=200)
    def test_general_is_integer_minimizer(self, eps, delta, d, n, t):
        if t > d:
            t = d
        b = PrivacyBudget(eps, delta)
        k = choose_k_general(b, d, n, t)
        const = 1008 if b.high_regime else 28
        cost = (
            const
            * d
            * math.log(1 / delta)
            * math.log(2 * t / delta)
            / ((n - 1) * eps**2)
        )

        def objective(kk):
            return 1 / (4 * kk**2) + cost * kk

        assert k >= 1
        assert objective(k) <= objective(k + 1) + 1e-15
        if k > 1:
            assert objective(k) <= objective(k - 1) + 1e-15

    def test_general_at_delta_one_is_infeasible(self, signal_csv, capsys):
        # log(1/delta) = 0 would give gamma = 0 and a bound of 0; a d sweep
        # and a single run both refuse it as a usage error
        cfg = ExperimentConfig(t=2, delta=1.0, axis="d", values=(50,))
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            resolve_point(cfg, 50)
        argv = ["run", "--t", "2", "--delta", "1", "--n", "2000", "--d", "5", "--trials", "2"]
        with pytest.warns(UserWarning, match="large relative to 1/n"):
            assert main([*argv, "--dataset", str(signal_csv), "--drop-label"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: delta must be in (0, 1), got 1.0\n"

    def test_t1_reference_point(self):
        assert choose_k_t1(PrivacyBudget(0.95, 0.5), d=100, n=50000) == 2

    def test_t1_transcription(self):
        # delta = 0.5 takes the linear branch (54), delta = 0.01 the log branch (28)
        eps, d, n = 0.95, 100, 50000
        for delta, expected, k in [(0.5, 2.0643, 2), (0.01, 1.4489, 1)]:
            value = min(
                (n * eps**2 / (28 * d * math.log(2 / delta))) ** (1 / 3),
                (n * eps / (54 * d)) ** (1 / 3),
            )
            assert value == pytest.approx(expected, abs=1e-4)
            assert choose_k_t1(PrivacyBudget(eps, delta), d, n) == round(value) == k

    def test_t1_high_regime_transcription(self):
        eps, delta, d, n = 2.0, 0.1, 50, 10**6
        value = min(
            (n * eps**2 / (160 * d * math.log(2 / delta))) ** (1 / 3),
            (11 * n * eps / (72 * d)) ** (1 / 3),
        )
        assert choose_k_t1(PrivacyBudget(eps, delta), d, n) == max(
            1, int(math.floor(value + 0.5))
        )

    def test_k_floors_at_one_for_wide_vectors(self):
        assert choose_k_t1(PrivacyBudget(0.5, 0.1), d=10**6, n=1000) == 1
        assert choose_k_general(PrivacyBudget(0.5, 0.1), d=10**6, n=1000, t=1) == 1

    @given(n=st.integers(100, 10**8))
    def test_t1_monotone_in_n(self, n):
        b = PrivacyBudget(0.5, 0.1)
        assert choose_k_t1(b, 10, n + n) >= choose_k_t1(b, 10, n)
