"""Shuffler simulation and analyzer: aggregation, debiasing, averages."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from shufflesum import (
    InfeasibleParametersError,
    MalformedMessageError,
    ProtocolParams,
    analyze_arrays,
    randomize_batch,
    shuffle,
)


def counts_of(coords, d):
    """Messages received per coordinate, from the wire arrays."""
    return np.bincount(np.asarray(coords).ravel(), minlength=d)


def aggregate_arrays(coords, values, params):
    """Per-coordinate sums of value/k, and counts: analyze_arrays at
    gamma = 0, whose debiasing computes (totals/k - 0 counts) / 1, so the
    sums are the raw aggregate bit for bit."""
    return analyze_arrays(coords, values, replace(params, gamma=0.0)), counts_of(coords, params.d)


def batch(*rows):
    """(coords, values) int arrays from rows of (coordinate, value) pairs."""
    return (
        np.array([[c for c, _ in row] for row in rows]),
        np.array([[v for _, v in row] for row in rows]),
    )


class TestShuffle:
    def test_single_message_identity(self):
        coords, values = shuffle([[0]], [[1]], np.random.default_rng(0))
        assert coords.tolist() == [[0]] and values.tolist() == [[1]]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            shuffle(np.empty((0, 1), int), np.empty((0, 1), int), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "coords, values",
        [(3, 3), ([[0], [1]], 3), (np.int64(3), np.zeros((2, 1), int))],
        ids=["both", "values", "coords"],
    )
    def test_zero_dim_batch_rejected(self, coords, values):
        # len() of a 0-d array once raised TypeError
        with pytest.raises(ValueError, match="0-d"):
            shuffle(np.array(coords), np.array(values), np.random.default_rng(0))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shuffle([[0], [1]], [[1]], np.random.default_rng(0))

    def test_multiset_preserved(self):
        coords = np.arange(50)[:, None] % 4
        values = np.arange(50)[:, None] % 3
        out_c, out_v = shuffle(coords, values, np.random.default_rng(1))
        pairs = lambda c, v: sorted(zip(c.ravel().tolist(), v.ravel().tolist()))
        assert pairs(out_c, out_v) == pairs(coords, values)
        assert not np.array_equal(out_c, coords)  # rows did move

    def test_permutation_frequencies_uniform(self):
        coords, values = batch([(0, 0)], [(1, 1)], [(2, 2)])
        orders = {perm: 0 for perm in itertools.permutations((0, 1, 2))}
        rng = np.random.default_rng(2)
        draws = 100_000
        for _ in range(draws):
            out_c, out_v = shuffle(coords, values, rng)
            assert np.array_equal(out_c, out_v)  # rows stay paired
            orders[tuple(out_c[:, 0].tolist())] += 1
        for count in orders.values():
            assert abs(count / draws - 1 / 6) < 0.01

    def test_same_draw_as_one_permutation(self):
        # the shuffler consumes exactly rng.permutation(m)
        coords = np.arange(20)[:, None]
        out_c, _ = shuffle(coords, coords, np.random.default_rng(3))
        assert np.array_equal(out_c[:, 0], np.random.default_rng(3).permutation(20))


class TestAggregate:
    def test_two_messages_same_cell(self):
        params = ProtocolParams(d=4, k=3, n=10, t=1, gamma=0.0)
        sums, counts = aggregate_arrays(*batch([(2, 3)], [(2, 3)]), params)
        assert sums[2] == 2.0 and counts[2] == 2
        # coordinates never received report (0, 0)
        for l in (0, 1, 3):
            assert sums[l] == 0.0 and counts[l] == 0

    def test_sum_never_exceeds_count(self):
        params = ProtocolParams(d=6, k=4, n=300, t=2, gamma=0.5)
        matrix = np.random.default_rng(0).random((300, 6))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        sums, counts = aggregate_arrays(coords, values, params)
        assert np.all(sums <= counts + 1e-12)

    def test_conservation(self):
        params = ProtocolParams(d=6, k=4, n=300, t=2, gamma=0.5)
        matrix = np.random.default_rng(0).random((300, 6))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        sums, counts = aggregate_arrays(coords, values, params)
        assert counts.sum() == params.n * params.t
        assert sums.sum() * params.k == values.sum()

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
            ([[0, 1]], [[5, 1]]),  # value above k
            ([[0, 1]], [[-1, 1]]),  # negative value
            ([[4, 1]], [[0, 1]]),  # coordinate out of range
            ([[0, 0]], [[0, 1]]),  # duplicate coordinate
            ([[True, False]], [[1, 1]]),  # bool coordinates
        ],
    )
    @pytest.mark.parametrize("fn", [aggregate_arrays, analyze_arrays])
    def test_malformed_batches_rejected(self, fn, coords, values):
        params = ProtocolParams(d=4, k=4, n=10, t=2, gamma=0.0)
        with pytest.raises(MalformedMessageError):
            fn(coords, values, params)

    @pytest.mark.parametrize("t", [2, 5, 11, 12, 14])
    def test_duplicates_in_any_column_pair(self, t):
        # rows are checked by comparing each column with those before it; a
        # repeat in any pair of columns is rejected
        params = ProtocolParams(d=20, k=1, n=10, t=t, gamma=0.0)
        coords = np.tile(np.arange(t), (3, 1))
        values = np.zeros_like(coords)
        assert aggregate_arrays(coords, values, params)[1].sum() == 3 * t
        for i, j in itertools.combinations(range(t), 2):
            bad = coords.copy()
            bad[1, j] = bad[1, i]
            with pytest.raises(MalformedMessageError, match="must be distinct"):
                aggregate_arrays(bad, values, params)


class TestDebias:
    """analyze_arrays removes the blanket: (sum - (gamma/2) count) / (1 - gamma)."""

    def test_gamma_zero_identity(self):
        params = ProtocolParams(d=2, k=4, n=10, t=1, gamma=0.0)
        coords, values = batch(*[[(0, v)] for v in (4, 4, 2, 1, 1, 1, 0)])
        est = analyze_arrays(coords, values, params)
        assert est[0] == 3.25 and counts_of(coords, params.d)[0] == 7

    def test_hand_arithmetic(self):
        # sum 10, count 20, gamma 1/2: (10 - 5) / (1/2) = 10
        params = ProtocolParams(d=2, k=1, n=20, t=1, gamma=0.5)
        coords, values = batch(*[[(0, i % 2)] for i in range(20)])
        est = analyze_arrays(coords, values, params)
        assert est[0] == pytest.approx(10.0, rel=1e-15)
        assert est[1] == 0.0

    def test_gamma_one_rejected(self):
        params = ProtocolParams(d=2, k=3, n=10, t=1, gamma=1.0)
        with pytest.raises(InfeasibleParametersError):
            analyze_arrays(*batch([(0, 1)], [(0, 2)]), params)

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
            outs[i] = analyze_arrays(coords, values, params)[0]
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
        assert np.all(np.abs(est - matrix.sum(axis=0)) <= n / k)

    def test_all_zero_inputs_give_zero_without_blanket(self):
        params = ProtocolParams(d=4, k=3, n=50, t=1, gamma=0.0)
        coords, values = randomize_batch(np.zeros((50, 4)), params, np.random.default_rng(2))
        est = analyze_arrays(coords, values, params)
        assert np.array_equal(est, np.zeros(4))

    def test_shuffle_invariance_is_exact(self):
        # the analyzer sees a multiset: any ordering gives bitwise-equal output
        params = ProtocolParams(d=7, k=3, n=500, t=2, gamma=0.6)
        matrix = np.random.default_rng(7).random((500, 7))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(8))
        base = analyze_arrays(coords, values, params)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(500)
            permuted = analyze_arrays(coords[perm], values[perm], params)
            assert np.array_equal(base, permuted)
        shuffled_coords, shuffled_values = shuffle(coords, values, np.random.default_rng(9))
        shuffled = analyze_arrays(shuffled_coords, shuffled_values, params)
        assert np.array_equal(base, shuffled)
        assert np.array_equal(counts_of(coords, 7), counts_of(shuffled_coords, 7))

    @pytest.mark.parametrize(
        "as_coords, as_values",
        [
            (np.asfortranarray, np.ascontiguousarray),
            (np.ascontiguousarray, np.asfortranarray),
            (np.asfortranarray, np.asfortranarray),
            (lambda a: a.astype(np.int32), np.ascontiguousarray),
            (np.ascontiguousarray, lambda a: a.astype(np.int8)),
        ],
        ids=["F-coords", "F-values", "both-F", "int32-coords", "int8-values"],
    )
    def test_memory_order_and_dtype_keep_the_result(self, as_coords, as_values):
        # the tally pairs each coordinate with its value by index, whatever
        # the memory order of either array, so the result is bitwise the
        # C-ordered int64 one
        params = ProtocolParams(d=7, k=4, n=400, t=3, gamma=0.3)
        matrix = np.random.default_rng(5).random((params.n, params.d))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(6))
        assert coords.flags.c_contiguous and values.flags.c_contiguous
        want = analyze_arrays(coords, values, params)
        coords, values = as_coords(coords), as_values(values)
        if as_coords is np.asfortranarray:
            assert not coords.flags.c_contiguous
        if as_values is np.asfortranarray:
            assert not values.flags.c_contiguous
        assert analyze_arrays(coords, values, params).tobytes() == want.tobytes()


class TestEstimateAverage:
    def test_population_mean_recovery(self):
        # large n, moderate blanket: per-coordinate mean estimates land near x
        params = ProtocolParams(d=4, k=3, n=40_000, t=1, gamma=0.2)
        levels = np.array([0.1, 0.3, 0.6, 0.9])
        matrix = np.tile(levels, (params.n, 1))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(10))
        est = analyze_arrays(coords, values, params)
        avg = est / counts_of(coords, params.d)
        assert np.all(np.abs(avg - levels) < 0.05)


ELEMENTS = {
    np.int64: st.integers(-1, 6),
    np.int32: st.integers(-1, 6),
    np.uint64: st.integers(0, 6),
    np.float64: st.floats(),
    np.bool_: st.booleans(),
}
SHAPES = st.one_of(
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    st.tuples(st.integers(0, 6), st.just(2)),  # the right width, often valid
)
ARRAYS = st.sampled_from(list(ELEMENTS)).flatmap(
    lambda dt: hnp.arrays(dt, SHAPES, elements=ELEMENTS[dt])
)


class TestValidatorFuzz:
    """The analyzer at gamma = 0 on arbitrary arrays: a
    MalformedMessageError or a consistent result, never any other
    exception."""

    @given(coords=ARRAYS, values=ARRAYS)
    @settings(max_examples=300, deadline=None)
    def test_rejects_or_returns_consistent_counts(self, coords, values):
        params = ProtocolParams(d=5, k=3, n=10, t=2, gamma=0.0)
        try:
            sums, counts = aggregate_arrays(coords, values, params)
        except MalformedMessageError:
            return
        assert counts.shape == sums.shape == (params.d,)
        assert counts.sum() == coords.shape[0] * params.t
        assert np.all(sums <= counts)
