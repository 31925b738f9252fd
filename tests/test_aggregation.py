"""Shuffler simulation and analyzer: aggregation, debiasing, averages."""

import itertools

import numpy as np
import pytest

from shufflesum import (
    CoordinateAggregate,
    InfeasibleParametersError,
    MalformedMessageError,
    Message,
    ProtocolParams,
    aggregate,
    aggregate_arrays,
    analyze,
    analyze_arrays,
    debias,
    estimate_average,
    messages_from_batch,
    randomize_batch,
    shuffle,
)


def msg(*pairs):
    return Message(
        coordinates=tuple(p[0] for p in pairs), values=tuple(p[1] for p in pairs)
    )


class TestShuffle:
    def test_single_message_identity(self):
        m = [msg((0, 1))]
        assert shuffle(m, np.random.default_rng(0)) == m

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            shuffle([], np.random.default_rng(0))

    def test_multiset_preserved(self):
        batch = [msg((i % 4, i % 3)) for i in range(50)]
        out = shuffle(batch, np.random.default_rng(1))
        assert sorted(out, key=repr) == sorted(batch, key=repr)

    def test_permutation_frequencies_uniform(self):
        batch = [msg((0, 0)), msg((1, 1)), msg((2, 2))]
        orders = {
            perm: 0 for perm in itertools.permutations((0, 1, 2))
        }
        rng = np.random.default_rng(2)
        draws = 100_000
        for _ in range(draws):
            out = shuffle(batch, rng)
            orders[tuple(m.coordinates[0] for m in out)] += 1
        for count in orders.values():
            assert abs(count / draws - 1 / 6) < 0.01


class TestAggregate:
    def test_two_messages_same_cell(self):
        params = ProtocolParams(d=4, k=3, n=10, t=1, gamma=0.0)
        aggs = aggregate([msg((2, 3)), msg((2, 3))], params)
        assert aggs[2] == CoordinateAggregate(coordinate=2, sum=2.0, count=2)
        # coordinates never received report (0, 0)
        for l in (0, 1, 3):
            assert aggs[l].sum == 0.0 and aggs[l].count == 0

    def test_sum_never_exceeds_count(self):
        params = ProtocolParams(d=6, k=4, n=300, t=2, gamma=0.5)
        matrix = np.random.default_rng(0).random((300, 6))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        for a in aggregate(messages_from_batch(coords, values), params):
            assert a.sum <= a.count + 1e-12

    def test_conservation(self):
        params = ProtocolParams(d=6, k=4, n=300, t=2, gamma=0.5)
        matrix = np.random.default_rng(0).random((300, 6))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        aggs = aggregate(messages_from_batch(coords, values), params)
        assert sum(a.count for a in aggs) == params.n * params.t
        sums, counts = aggregate_arrays(coords, values, params)
        assert counts.sum() == params.n * params.t

    def test_array_and_message_paths_agree(self):
        params = ProtocolParams(d=5, k=3, n=200, t=2, gamma=0.4)
        matrix = np.random.default_rng(3).random((200, 5))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(4))
        sums, counts = aggregate_arrays(coords, values, params)
        aggs = aggregate(messages_from_batch(coords, values), params)
        assert np.array_equal(counts, [a.count for a in aggs])
        assert np.array_equal(sums, [a.sum for a in aggs])

    @pytest.mark.parametrize(
        "bad",
        [
            msg((0, 5)),  # value above k
            msg((0, -1)),  # negative value
            msg((4, 0)),  # coordinate out of range
            msg((0, 0), (0, 1)),  # duplicate coordinate (also wrong t)
        ],
    )
    def test_malformed_messages_rejected(self, bad):
        params = ProtocolParams(d=4, k=4, n=10, t=1, gamma=0.0)
        with pytest.raises(MalformedMessageError):
            aggregate([bad], params)

    def test_malformed_arrays_rejected(self):
        params = ProtocolParams(d=4, k=4, n=10, t=1, gamma=0.0)
        with pytest.raises(MalformedMessageError):
            aggregate_arrays([[0]], [[5]], params)
        with pytest.raises(MalformedMessageError):
            aggregate_arrays([[4]], [[0]], params)

    @pytest.mark.parametrize(
        "coords, values",
        [
            ([[0, 1], [2, 2]], [[0, 1], [1, 1]]),  # duplicate coordinate in a row
            ([[0, 1, 2]], [[0, 1, 1]]),  # t=3 rows under t=2 params
            ([[0, 1]], [[0, 1, 1]]),  # coords and values of different shapes
            ([[0, 1]], [[2.5, 1]]),  # fractional value
            ([[0.0, 1.0]], [[1, 1]]),  # float coordinates
        ],
    )
    @pytest.mark.parametrize("fn", [aggregate_arrays, analyze_arrays])
    def test_malformed_batches_rejected(self, fn, coords, values):
        params = ProtocolParams(d=4, k=4, n=10, t=2, gamma=0.0)
        with pytest.raises(MalformedMessageError):
            fn(coords, values, params)


class TestDebias:
    def test_gamma_zero_identity(self):
        a = CoordinateAggregate(coordinate=0, sum=3.25, count=7)
        assert debias(a, 0.0, 3) == 3.25

    def test_hand_arithmetic(self):
        a = CoordinateAggregate(coordinate=0, sum=10.0, count=20)
        assert debias(a, 0.5, 3) == pytest.approx(10.0, rel=1e-15)

    def test_gamma_one_rejected(self):
        a = CoordinateAggregate(coordinate=0, sum=1.0, count=2)
        with pytest.raises(InfeasibleParametersError):
            debias(a, 1.0, 3)

    def test_monte_carlo_unbiasedness(self):
        # fixed inputs, randomness over the mechanism: E[z] = true sum
        gamma, k, n = 0.4, 3, 400
        params = ProtocolParams(d=1, k=k, n=n, t=1, gamma=gamma)
        x = np.full((n, 1), 2 / 3)  # exact grid point: encoding deterministic
        true_sum = n * 2 / 3
        trials = 4000
        rng = np.random.default_rng(8)
        outs = np.empty(trials)
        for i in range(trials):
            coords, values = randomize_batch(x, params, rng)
            outs[i] = analyze_arrays(coords, values, params).values[0]
        se = outs.std(ddof=1) / np.sqrt(trials)
        assert abs(outs.mean() - true_sum) < 3 * se


class TestAnalyze:
    def test_lossless_limit(self):
        # t=d, gamma=0, huge k: estimates reproduce column sums to n/k
        k, n, d = 10**6, 10, 3
        params = ProtocolParams(d=d, k=k, n=n, t=d, gamma=0.0)
        matrix = np.random.default_rng(0).random((n, d))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        est = analyze_arrays(coords, values, params)
        assert np.all(np.abs(est.values - matrix.sum(axis=0)) <= n / k)

    def test_all_zero_inputs_give_zero_without_blanket(self):
        params = ProtocolParams(d=4, k=3, n=50, t=1, gamma=0.0)
        coords, values = randomize_batch(np.zeros((50, 4)), params, np.random.default_rng(2))
        est = analyze_arrays(coords, values, params)
        assert np.array_equal(est.values, np.zeros(4))

    def test_message_and_array_paths_agree(self):
        params = ProtocolParams(d=5, k=3, n=100, t=2, gamma=0.3)
        matrix = np.random.default_rng(5).random((100, 5))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(6))
        via_msgs = analyze(messages_from_batch(coords, values), params)
        via_arrays = analyze_arrays(coords, values, params)
        assert np.array_equal(via_msgs.values, via_arrays.values)
        assert np.array_equal(via_msgs.counts, via_arrays.counts)

    def test_shuffle_invariance_is_exact(self):
        # the analyzer sees a multiset: any ordering gives bitwise-equal output
        params = ProtocolParams(d=7, k=3, n=500, t=2, gamma=0.6)
        matrix = np.random.default_rng(7).random((500, 7))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(8))
        base = analyze_arrays(coords, values, params)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(500)
            permuted = analyze_arrays(coords[perm], values[perm], params)
            assert np.array_equal(base.values, permuted.values)
        msgs = messages_from_batch(coords, values)
        shuffled = shuffle(msgs, np.random.default_rng(9))
        assert np.array_equal(
            analyze(msgs, params).values, analyze(shuffled, params).values
        )


class TestEstimateAverage:
    def test_unreceived_coordinates_are_nan(self):
        params = ProtocolParams(d=3, k=2, n=10, t=1, gamma=0.0)
        est = analyze([msg((0, 2)), msg((0, 2))], params)
        avg = estimate_average(est, params)
        assert avg[0] == pytest.approx(1.0)
        assert np.isnan(avg[1]) and np.isnan(avg[2])

    def test_population_mean_recovery(self):
        # large n, moderate blanket: per-coordinate mean estimates land near x
        params = ProtocolParams(d=4, k=3, n=40_000, t=1, gamma=0.2)
        levels = np.array([0.1, 0.3, 0.6, 0.9])
        matrix = np.tile(levels, (params.n, 1))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(10))
        avg = estimate_average(analyze_arrays(coords, values, params), params)
        assert np.all(np.abs(avg - levels) < 0.05)
