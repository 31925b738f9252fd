"""Local randomizer: the mechanism kernel (fixed-point encoding and
randomized response), coordinate sampling, and the per-user and batch
entry points."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import ProtocolParams, randomize_batch, randomize_vector, respond


class TestEncodeFixedPoint:
    """The encoding stage of `respond`, isolated by gamma = 0."""

    def test_exact_grid_points_are_deterministic(self):
        rng = np.random.default_rng(0)
        assert respond([0.5], 2, 0.0, rng).tolist() == [1]
        assert respond([1.0], 3, 0.0, rng).tolist() == [3]
        assert respond([0.0], 7, 0.0, rng).tolist() == [0]
        assert np.all(respond(np.full(50, 0.25), 4, 0.0, rng) == 1)

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        for bad in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError):
                respond([0.5, bad], 2, 0.0, rng)

    def test_bernoulli_mean(self):
        # x=0.3, k=1: output is Ber(0.3)
        draws = 200_000
        out = respond(np.full(draws, 0.3), 1, 0.0, np.random.default_rng(7))
        se = np.sqrt(0.3 * 0.7 / draws)
        assert abs(out.mean() - 0.3) < 3 * se

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 20))
    @settings(max_examples=200)
    def test_output_in_domain_and_adjacent(self, x, k):
        (v,) = respond([x], k, 0.0, np.random.default_rng(1))
        assert 0 <= v <= k
        assert abs(v - x * k) < 1.0 or v == x * k

    def test_unbiased_and_variance_capped_on_grid(self):
        # E[encoded/k] = x and Var[encoded] = frac(xk)(1-frac(xk)) <= 1/4
        draws = 400_000
        for k in (1, 2, 3, 5):
            for x in np.linspace(0.0, 1.0, 11):
                rng = np.random.default_rng(int(1000 * x) + 17 * k)
                scaled = x * k
                frac = scaled - np.floor(scaled)
                vals = np.floor(scaled) + (rng.random(draws) < frac)
                mean = vals.mean() / k
                se = np.sqrt(max(frac * (1 - frac), 1e-12) / draws) / k
                assert abs(mean - x) <= 3 * se + 1e-12
                assert vals.var() <= 0.25 + 3e-3
        # and the kernel agrees with the closed form at one interior point
        vals = respond(np.full(50_000, 0.55), 3, 0.0, np.random.default_rng(3))
        assert vals.var() <= 1 / 4 + 5e-3  # raw-value variance cap, any k
        assert abs(vals.mean() / 3 - 0.55) < 3 * np.sqrt(0.25 / 50_000) / 3 + 1e-3


class TestRandomizedResponse:
    """The blanket stage of `respond`, on grid-point inputs whose encoding
    is deterministic (x = v / k encodes to v)."""

    def test_gamma_zero_is_identity(self):
        v = np.arange(5)
        assert np.array_equal(respond(v / 4, 4, 0.0, np.random.default_rng(0)), v)

    def test_gamma_one_is_uniform(self):
        draws = 200_000
        outs = respond(np.full(draws, 2 / 3), 3, 1.0, np.random.default_rng(11))
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((outs == sym).mean() - 0.25) < 4 * se

    def test_truth_retention_probability(self):
        # Pr[output = v] = 1 - gamma + gamma/(k+1) = 0.8 + 0.2/3
        draws = 200_000
        outs = respond(np.full(draws, 0.5), 2, 0.2, np.random.default_rng(5))
        p = 0.8 + 0.2 / 3
        se = np.sqrt(p * (1 - p) / draws)
        assert abs((outs == 1).mean() - p) < 3 * se

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            respond([1.5], 4, 0.1, rng)
        with pytest.raises(ValueError):
            respond([-0.25], 4, 0.1, rng)
        # k and gamma reach the kernel through a validated ProtocolParams
        with pytest.raises(ValueError):
            ProtocolParams(d=1, k=0, n=10, t=1, gamma=0.1)
        with pytest.raises(ValueError):
            ProtocolParams(d=1, k=4, n=10, t=1, gamma=1.5)

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 9), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_output_stays_in_domain(self, x, k, gamma):
        out = respond(np.full(50, x), k, gamma, np.random.default_rng(2))
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() <= k


class StubRng:
    """A generator whose `random` hands out chosen uniforms, so each branch
    of `respond`'s one-uniform law can be driven directly."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size=None, out=None):
        out[...] = self.u
        return out


class TestOneUniformLaw:
    """respond draws one u per entry: u < gamma gives floor(u (k+1)/gamma)
    clipped to k, otherwise floor(xk) + [u < gamma + f (1 - gamma)]."""

    @pytest.mark.parametrize("k, gamma", [(1, 0.9), (4, 0.1), (4, 0.05), (3, 0.1705)])
    def test_just_below_gamma_gives_k_through_the_clip(self, k, gamma):
        u = np.nextafter(gamma, 0.0)
        x = np.array([0.0, 0.5, 1.0])
        assert np.all(respond(x, k, gamma, StubRng(np.full(3, u))) == k)
        if (k, gamma) != (3, 0.1705):  # these reach k + 1 before the clip
            assert np.floor(u * ((k + 1) / gamma)) == k + 1

    def test_u_equal_to_gamma_takes_the_encoding_branch(self):
        k, gamma = 4, 0.3
        x = np.array([0.0, 0.25, 1.0, 0.3, 0.9])  # f = 0 on the grid, > 0 off it
        out = respond(x, k, gamma, StubRng(np.full(5, gamma)))
        # u = gamma lies below gamma + f (1 - gamma) exactly when f > 0
        assert out.tolist() == [0, 1, 4, 2, 4]

    @pytest.mark.parametrize("x, k, gamma", [(0.3, 4, 0.2), (0.55, 3, 0.1705), (0.71, 7, 0.5)])
    def test_threshold_between_the_two_encodings(self, x, k, gamma):
        scaled = x * k
        frac = scaled - np.floor(scaled)
        threshold = frac * (1.0 - gamma) + gamma
        us = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)]
        out = respond(np.full(3, x), k, gamma, StubRng(us))
        assert out.tolist() == [np.floor(scaled) + 1, np.floor(scaled), np.floor(scaled)]

    def test_gamma_zero_never_reaches_the_blanket_division(self):
        # (k + 1) / gamma would raise ZeroDivisionError at gamma = 0
        x = np.array([0.0, 0.5, 0.5, 1.0])
        out = respond(x, 2, 0.0, StubRng([0.0, 0.0, 0.999, np.nextafter(1.0, 0.0)]))
        assert out.tolist() == [0, 1, 1, 2]

    def test_gamma_one_always_takes_the_blanket_branch(self):
        k = 3
        us = np.array([0.0, 0.2, 0.26, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        for x in (0.0, 0.4, 1.0):
            out = respond(np.full(len(us), x), k, 1.0, StubRng(us))
            assert out.tolist() == [0, 0, 1, 2, 3, 3]


class TestRandomizeVector:
    def test_lossless_limit(self):
        # t=d, gamma=0, huge k: y/k reconstructs the vector to within 1/k
        k = 10**6
        params = ProtocolParams(d=3, k=k, n=10, t=3, gamma=0.0)
        x = np.array([0.123456, 0.9999, 0.5])
        coords, values = randomize_vector(x, params, np.random.default_rng(0))
        assert sorted(coords.tolist()) == [0, 1, 2]
        assert np.all(np.abs(values / k - x[coords]) <= 1 / k)

    def test_coordinate_sampling_uniform(self):
        params = ProtocolParams(d=4, k=2, n=10, t=1, gamma=0.1)
        rng = np.random.default_rng(9)
        x = np.full(4, 0.5)
        draws = 20_000
        hits = np.zeros(4)
        for _ in range(draws):
            hits[randomize_vector(x, params, rng)[0][0]] += 1
        freq = hits / draws
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_pure_blanket_value_distribution_uniform(self):
        params = ProtocolParams(d=2, k=3, n=10, t=1, gamma=1.0)
        rng = np.random.default_rng(4)
        x = np.array([0.0, 1.0])
        draws = 40_000
        vals = np.array(
            [randomize_vector(x, params, rng)[1][0] for _ in range(draws)]
        )
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((vals == sym).mean() - 0.25) < 4 * se

    def test_distinct_coordinates_and_domain(self):
        params = ProtocolParams(d=6, k=4, n=10, t=4, gamma=0.5)
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 6)
        for _ in range(200):
            coords, values = randomize_vector(x, params, rng)
            assert len(set(coords.tolist())) == params.t
            assert coords.min() >= 0 and coords.max() < params.d
            assert values.min() >= 0 and values.max() <= params.k

    def test_rejects_bad_vectors(self):
        params = ProtocolParams(d=3, k=2, n=10, t=1, gamma=0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            randomize_vector([0.1, 0.2], params, rng)
        # the whole row is checked, not only the sampled coordinate
        for bad in (1.5, -0.5, np.nan):
            for _ in range(5):
                with pytest.raises(ValueError):
                    randomize_vector([0.1, 0.2, bad], params, rng)

    def test_deterministic_given_seed(self):
        params = ProtocolParams(d=5, k=3, n=10, t=2, gamma=0.4)
        x = np.linspace(0.1, 0.9, 5)
        a = randomize_vector(x, params, np.random.default_rng(123))
        b = randomize_vector(x, params, np.random.default_rng(123))
        for arr_a, arr_b in zip(a, b):
            assert arr_a.dtype == np.int64 and arr_a.shape == (params.t,)
            assert np.array_equal(arr_a, arr_b)


class TestRandomizeBatch:
    def _params(self, n=500, d=8, k=3, t=2, gamma=0.3):
        return ProtocolParams(d=d, k=k, n=n, t=t, gamma=gamma)

    def test_shapes_and_domains(self):
        params = self._params()
        rng = np.random.default_rng(0)
        matrix = rng.random((params.n, params.d))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(1))
        assert coords.shape == values.shape == (params.n, params.t)
        assert coords.min() >= 0 and coords.max() < params.d
        assert values.min() >= 0 and values.max() <= params.k
        # distinct coordinates per row
        assert all(len(set(row)) == params.t for row in coords.tolist())

    def test_shape_mismatch_rejected(self):
        params = self._params()
        with pytest.raises(ValueError):
            randomize_batch(np.zeros((3, 8)), params, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        params = self._params()
        matrix = np.random.default_rng(0).random((params.n, params.d))
        c1, v1 = randomize_batch(matrix, params, np.random.default_rng(9))
        c2, v2 = randomize_batch(matrix, params, np.random.default_rng(9))
        assert np.array_equal(c1, c2) and np.array_equal(v1, v2)

    def test_coordinate_marginal_uniform(self):
        params = self._params(n=20_000, d=5, t=2, gamma=0.0)
        matrix = np.full((params.n, params.d), 0.5)
        coords, _ = randomize_batch(matrix, params, np.random.default_rng(3))
        freq = np.bincount(coords.ravel(), minlength=5) / coords.size
        se = np.sqrt(0.2 * 0.8 / coords.size)
        assert np.all(np.abs(freq - 0.2) < 4 * se)

    @pytest.mark.parametrize("d, t", [(5, 2), (7, 3), (6, 3), (5, 3)])
    def test_subsets_jointly_uniform(self, d, t):
        # every t-subset has probability 1/C(d, t); within-row order is
        # not exchangeable under Floyd's algorithm, so only sets are
        # compared; the last two cases have t >= d/2
        params = self._params(n=60_000, d=d, t=t, gamma=0.0)
        coords, _ = randomize_batch(
            np.full((params.n, d), 0.5), params, np.random.default_rng(12)
        )
        subsets = list(itertools.combinations(range(d), t))
        index = {s: i for i, s in enumerate(subsets)}
        hits = np.bincount(
            [index[tuple(row)] for row in np.sort(coords, axis=1).tolist()],
            minlength=len(subsets),
        )
        p = 1 / len(subsets)
        se = np.sqrt(p * (1 - p) / params.n)
        assert np.all(np.abs(hits / params.n - p) < 4 * se)

    def test_t_equals_d_gives_permutations(self):
        params = self._params(n=300, d=7, t=7)
        coords, _ = randomize_batch(
            np.full((params.n, params.d), 0.5), params, np.random.default_rng(13)
        )
        assert np.array_equal(np.sort(coords, axis=1), np.tile(np.arange(7), (300, 1)))

    def test_t1_draw_matches_plain_integers(self):
        # pins the t = 1 random stream: coordinates are rng.integers(0, d, n)
        params = self._params(n=1000, d=9, t=1)
        matrix = np.random.default_rng(0).random((params.n, params.d))
        for seed in (0, 5, 77):
            coords, _ = randomize_batch(matrix, params, np.random.default_rng(seed))
            expected = np.random.default_rng(seed).integers(0, params.d, size=params.n)
            assert coords.dtype == np.int64
            assert np.array_equal(coords[:, 0], expected)

    def test_value_mean_matches_closed_form(self):
        # E[y] = (1-gamma) x k + gamma k/2 for constant input x
        x, k, gamma = 0.7, 4, 0.25
        params = self._params(n=100_000, d=3, k=k, t=1, gamma=gamma)
        matrix = np.full((params.n, params.d), x)
        _, values = randomize_batch(matrix, params, np.random.default_rng(6))
        expected = (1 - gamma) * x * k + gamma * k / 2
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - expected) < 3 * se

    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_out_of_range_gathered_entry_rejected(self, bad):
        # before the check, x = 1.5 at k = 4 came out as the value 6 and NaN
        # as the int64 minimum; now every gathered entry must lie in [0, 1]
        params = self._params(n=50, d=1, k=4, t=1)
        matrix = np.full((params.n, 1), 0.5)
        matrix[7, 0] = bad
        with pytest.raises(ValueError):
            randomize_batch(matrix, params, np.random.default_rng(0))

    def test_only_gathered_entries_are_checked(self):
        # an out-of-range entry that no user samples is never read
        params = self._params(n=50, d=3, t=1)
        matrix = np.full((params.n, params.d), 0.5)
        coords, _ = randomize_batch(matrix, params, np.random.default_rng(0))
        unsampled = next(c for c in range(params.d) if c != coords[0, 0])
        matrix[0, unsampled] = 1.5
        again, _ = randomize_batch(matrix, params, np.random.default_rng(0))
        assert np.array_equal(coords, again)
