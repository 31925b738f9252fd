"""Acceptance gate: end-to-end checks of the protocol's headline behavior.

Each test evaluates one criterion at its stated tolerance and emits a
single PASS/FAIL line through the terminal reporter.
"""

import math
import warnings
from pathlib import Path

import numpy as np

from chernoff_step import blanket_tail, chernoff_upper_bound
from shufflesum import (
    ExperimentConfig,
    PrivacyBudget,
    ProtocolParams,
    bound_mse_general,
    bound_mse_t1,
    calibrate_gamma_general,
    calibrate_gamma_t1,
    choose_k_general,
    choose_k_t1,
    compose_epsilon_prime,
    emit_outputs,
    empirical_mse,
    exact_audit,
    fit_matrix,
    randomize_batch,
    run_sweep,
)
from shufflesum.protocol import analyze_arrays

MASTER_SEED = 0


def check(request, num, desc, ok, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.write_line(line)
    print(line)
    assert ok, line


def quiet_sweep(config, matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_sweep(config, matrix=matrix)


def sweep_stats(result):
    """value -> (mean, stderr) for the ok points, in sweep order."""
    return {
        s["value"]: (s["mean_normalized_mse"], s["stderr_normalized_mse"])
        for s in result.summary
        if s["status"] == "ok"
    }


def test_criterion_01_t_equals_one_is_best(request, dataset):
    cfg = ExperimentConfig(axis="t", values=(1, 2, 3, 4, 5), trials=30, seed=MASTER_SEED)
    stats = sweep_stats(quiet_sweep(cfg, dataset))
    means = {t: m for t, (m, _) in stats.items()}
    m1, se1 = stats[1]
    m2, se2 = stats[2]
    gap_sigmas = (m2 - m1) / math.sqrt(se1**2 + se2**2)
    ok = min(means, key=means.get) == 1 and gap_sigmas >= 3.0
    check(
        request, 1, "mean normalized MSE minimized at t=1, t=2 gap >= 3 SE",
        ok, f"gap {gap_sigmas:.1f} SE",
    )


def test_criterion_02_best_k_near_three(request, dataset):
    cfg = ExperimentConfig(
        axis="k", values=(1, 2, 3, 4, 5, 6, 7), trials=30, seed=MASTER_SEED
    )
    means = {k: m for k, (m, _) in sweep_stats(quiet_sweep(cfg, dataset)).items()}
    best = min(means, key=means.get)
    check(
        request, 2, "k-sweep minimizer lies in {2, 3, 4}",
        best in (2, 3, 4), f"best k = {best}",
    )


def test_criterion_03_absolute_error_below_threshold(request, dataset):
    cfg = ExperimentConfig(trials=15, seed=MASTER_SEED)
    result = quiet_sweep(cfg, dataset)
    median = float(np.median([r["normalized_mse"] for r in result.rows]))
    check(
        request, 3, "median normalized MSE at reference settings < 0.3",
        median < 0.3, f"median {median:.4f}",
    )


def test_criterion_04_dimension_dependence(request, dataset):
    values = tuple(int(round(v)) for v in np.geomspace(50, 400, 6))
    cfg = ExperimentConfig(axis="d", values=values, trials=30, seed=MASTER_SEED)
    result = quiet_sweep(cfg, dataset)
    ok = result.exponent is not None and 2.0 <= result.exponent <= 3.3
    check(
        request, 4, "d-sweep power-law exponent in [2.0, 3.3]",
        ok, f"exponent {result.exponent:.3f}",
    )


def test_criterion_05_cohort_size_dependence(request, dataset):
    values = tuple(int(round(v)) for v in np.geomspace(10_000, 100_000, 6))
    cfg = ExperimentConfig(axis="n", values=values, trials=30, seed=MASTER_SEED)
    result = quiet_sweep(cfg, dataset)
    ok = result.exponent is not None and -1.9 <= result.exponent <= -0.9
    check(
        request, 5, "n-sweep power-law exponent in [-1.9, -0.9]",
        ok, f"exponent {result.exponent:.3f}",
    )


def test_criterion_06_budget_dependence(request, dataset):
    lo_values = tuple(round(float(v), 4) for v in np.geomspace(0.3, 0.95, 6))
    hi_values = tuple(round(float(v), 4) for v in np.geomspace(1.0, 5.5, 6))
    lo = quiet_sweep(
        ExperimentConfig(axis="eps", values=lo_values, trials=30, seed=MASTER_SEED),
        dataset,
    )
    hi = quiet_sweep(
        ExperimentConfig(axis="eps", values=hi_values, trials=30, seed=MASTER_SEED),
        dataset,
    )
    ok_lo = -2.0 <= lo.exponent <= -0.7
    ok_hi = -2.3 <= hi.exponent <= -0.4
    check(
        request, 6, "eps-sweep exponents in [-2.0, -0.7] and [-2.3, -0.4]",
        ok_lo and ok_hi, f"low {lo.exponent:.3f}, high {hi.exponent:.3f}",
    )


def test_criterion_07_unbiasedness(request, dataset):
    n, d, k, gamma = 200, 5, 3, 0.3
    trials = 100_000
    chunk = 2000
    base = fit_matrix(dataset, n, d)
    rng = np.random.default_rng(MASTER_SEED)
    diffs = []
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        big = ProtocolParams(d=d, k=k, n=n * m, t=1, gamma=gamma)
        tiled = np.tile(base, (m, 1))
        coords, values = randomize_batch(tiled, big, rng)
        sampled = np.take_along_axis(tiled, coords, axis=1)
        truth = sampled.reshape(m, n).sum(axis=1)
        per_trial_raw = values.reshape(m, n).sum(axis=1)
        z_tot = (per_trial_raw / k - gamma / 2 * n) / (1 - gamma)
        diffs.append(z_tot - truth)
        done += m
    diffs = np.concatenate(diffs)
    se = diffs.std(ddof=1) / math.sqrt(diffs.size)
    ok = abs(diffs.mean()) <= 3 * se
    check(
        request, 7, "sum estimator unbiased within 3 SE over 1e5 trials",
        ok, f"mean {diffs.mean():+.4f}, SE {se:.4f}",
    )


def test_criterion_08_bound_dominance(request, dataset):
    rng = np.random.default_rng(42)
    points = []
    while len(points) < 20:
        t = int(rng.integers(1, 3))
        eps = float(rng.uniform(0.35, 0.95)) if len(points) % 2 else float(
            rng.uniform(1.0, 4.0)
        )
        delta = float(rng.uniform(0.3, 0.7))
        d = int(rng.integers(20, 121))
        n = int(rng.integers(15_000, 50_001))
        b = PrivacyBudget(eps, delta)
        try:
            if t == 1:
                k = choose_k_t1(b, d, n)
                gamma = calibrate_gamma_t1(b, d, k, n)
            else:
                k = choose_k_general(b, d, n, t)
                gamma = calibrate_gamma_general(b, d, k, n, t)
        except Exception:
            continue
        if gamma >= 1.0:
            continue
        points.append((ProtocolParams(d=d, k=k, n=n, t=t, gamma=gamma), b))
    worst_ratio = 0.0
    all_below = True
    for pi, (params, b) in enumerate(points):
        bound = bound_mse_t1(params, b) if params.t == 1 else bound_mse_general(params, b)
        data = np.resize(fit_matrix(dataset, params.n, params.d), (params.n, params.d))
        mses = []
        for ti in range(5):
            trial_rng = np.random.default_rng(
                np.random.SeedSequence([MASTER_SEED, 800 + pi, ti]).generate_state(1)[0]
            )
            coords, values = randomize_batch(data, params, trial_rng)
            sampled = np.take_along_axis(data, coords, axis=1)
            truth = np.bincount(
                coords.ravel(), weights=sampled.ravel(), minlength=params.d
            )
            est = analyze_arrays(coords, values, params)
            mses.append(empirical_mse(est, truth, params).normalized_mse)
        ratio = float(np.mean(mses)) / bound
        worst_ratio = max(worst_ratio, ratio)
        all_below = all_below and ratio <= 1.0
    check(
        request, 8, "empirical mean MSE <= matching bound on 20 feasible points",
        all_below, f"worst empirical/bound ratio {worst_ratio:.3f}",
    )


def test_criterion_09_tail_endpoint(request):
    points = [
        (eps, delta, 1, 1, 30001, 1)
        for delta in (0.05, 0.1, 0.3)
        for eps in (0.4, 0.6, 0.8)
    ] + [(0.6, 0.3, 2, 1, 60001, 2), (0.8, 0.3, 2, 1, 60001, 2)]
    assert len(points) >= 10
    all_ok = True
    worst_margin = 0.0
    for eps, delta, d, k, n, t in points:
        b = PrivacyBudget(eps, delta)
        gamma = calibrate_gamma_general(b, d, k, n, t)
        eps_prime, _ = compose_epsilon_prime(b, t)
        s = (n - 1) * t // d
        tail = blanket_tail(s, gamma, k, gamma * s / k, eps_prime)
        all_ok = all_ok and tail <= delta / t
        worst_margin = max(worst_margin, tail / (delta / t))
        c2 = gamma * (2 * s) / k
        tail2 = blanket_tail(2 * s, gamma, k, c2, eps_prime)
        all_ok = all_ok and tail2 <= chernoff_upper_bound(c2, eps_prime, t, delta)
    check(
        request, 9,
        "exact tail <= delta/t at expected occupancy; exact <= Chernoff at 2x",
        all_ok, f"worst tail/(delta/t) {worst_margin:.3f} over {len(points)} points",
    )


def test_criterion_10_exact_audit(request):
    n, d, k = 10, 1, 1
    b = PrivacyBudget(0.99, 0.9)

    def audit(gamma, budget=b):
        return exact_audit(ProtocolParams(d=d, k=k, n=n, t=1, gamma=gamma), budget)

    verdict = audit(calibrate_gamma_general(b, d, k, n, 1))
    control = audit(1.0, PrivacyBudget(0.99, 0.01))
    under = audit(0.01)
    blind = audit(0.0)
    ok = (
        verdict.passed
        and verdict.exact_epsilon == 0.0
        and control.exact_epsilon == 0.0
        and not under.passed
        and not blind.passed
        and blind.exact_epsilon == math.inf
    )
    check(
        request, 10,
        "exact tiny-instance audit passes; gamma=1 control epsilon 0; "
        "gamma=0.01 and gamma=0 fail",
        ok,
        f"delta(0.99) {verdict.exact_delta:.3g} at eps {verdict.exact_epsilon:.3f}, "
        f"control eps {control.exact_epsilon:.3f}, "
        f"gamma=0.01 delta(0.99) {under.exact_delta:.3f}, "
        f"gamma=0 eps {blind.exact_epsilon}",
    )


def test_criterion_11_deterministic_replay(request, dataset, tmp_path):
    cfg = ExperimentConfig(
        axis="d", values=(50, 76, 114), trials=3, seed=MASTER_SEED
    )
    first = emit_outputs(quiet_sweep(cfg, dataset), tmp_path / "a")
    second = emit_outputs(quiet_sweep(cfg, dataset), tmp_path / "b")
    same = Path(first["long"]).read_bytes() == Path(second["long"]).read_bytes()
    check(request, 11, "re-run with the same master seed is byte-identical", same)
