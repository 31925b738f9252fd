"""Local randomizer: fixed-point encoding, randomized response, coordinate
sampling, and the vectorized batch path."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import (
    Message,
    ProtocolParams,
    encode_fixed_point,
    messages_from_batch,
    randomize_batch,
    randomize_vector,
    randomized_response,
)


class TestEncodeFixedPoint:
    def test_exact_grid_points_are_deterministic(self):
        rng = np.random.default_rng(0)
        assert encode_fixed_point(0.5, 2, rng) == 1
        assert encode_fixed_point(1.0, 3, rng) == 3
        assert encode_fixed_point(0.0, 7, rng) == 0
        for _ in range(50):
            assert encode_fixed_point(0.25, 4, rng) == 1

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            encode_fixed_point(-0.1, 2, rng)
        with pytest.raises(ValueError):
            encode_fixed_point(1.1, 2, rng)
        with pytest.raises(ValueError):
            encode_fixed_point(0.5, 0, rng)

    def test_bernoulli_mean(self):
        # x=0.3, k=1: output is Ber(0.3)
        rng = np.random.default_rng(7)
        draws = 200_000
        total = sum(encode_fixed_point(0.3, 1, rng) for _ in range(draws))
        se = np.sqrt(0.3 * 0.7 / draws)
        assert abs(total / draws - 0.3) < 3 * se

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 20))
    @settings(max_examples=200)
    def test_output_in_domain_and_adjacent(self, x, k):
        rng = np.random.default_rng(1)
        v = encode_fixed_point(x, k, rng)
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
        # and the scalar op agrees with the closed form at one interior point
        rng = np.random.default_rng(3)
        vals = np.array([encode_fixed_point(0.55, 3, rng) for _ in range(50_000)])
        assert vals.var() <= 1 / 4 + 5e-3  # raw-value variance cap, any k
        assert abs(vals.mean() / 3 - 0.55) < 3 * np.sqrt(0.25 / 50_000) / 3 + 1e-3


class TestRandomizedResponse:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        for v in range(5):
            assert randomized_response(v, 5, 0.0, rng) == v

    def test_gamma_one_is_uniform(self):
        rng = np.random.default_rng(11)
        draws = 200_000
        outs = np.array([randomized_response(2, 4, 1.0, rng) for _ in range(draws)])
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((outs == sym).mean() - 0.25) < 4 * se

    def test_truth_retention_probability(self):
        # Pr[output = v] = 1 - gamma + gamma/domain = 0.8 + 0.2/3
        rng = np.random.default_rng(5)
        draws = 200_000
        outs = np.array([randomized_response(1, 3, 0.2, rng) for _ in range(draws)])
        p = 0.8 + 0.2 / 3
        se = np.sqrt(p * (1 - p) / draws)
        assert abs((outs == 1).mean() - p) < 3 * se

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            randomized_response(5, 5, 0.1, rng)
        with pytest.raises(ValueError):
            randomized_response(-1, 5, 0.1, rng)
        with pytest.raises(ValueError):
            randomized_response(0, 0, 0.1, rng)
        with pytest.raises(ValueError):
            randomized_response(0, 5, 1.5, rng)

    @given(v=st.integers(0, 9), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_output_stays_in_domain(self, v, gamma):
        rng = np.random.default_rng(2)
        assert 0 <= randomized_response(v, 10, gamma, rng) < 10


class TestRandomizeVector:
    def test_lossless_limit(self):
        # t=d, gamma=0, huge k: y/k reconstructs the vector to within 1/k
        k = 10**6
        params = ProtocolParams(d=3, k=k, n=10, t=3, gamma=0.0)
        x = np.array([0.123456, 0.9999, 0.5])
        msg = randomize_vector(x, params, np.random.default_rng(0))
        assert sorted(msg.coordinates) == [0, 1, 2]
        for c, v in zip(msg.coordinates, msg.values):
            assert abs(v / k - x[c]) <= 1 / k

    def test_coordinate_sampling_uniform(self):
        params = ProtocolParams(d=4, k=2, n=10, t=1, gamma=0.1)
        rng = np.random.default_rng(9)
        x = np.full(4, 0.5)
        draws = 20_000
        hits = np.zeros(4)
        for _ in range(draws):
            hits[randomize_vector(x, params, rng).coordinates[0]] += 1
        freq = hits / draws
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_pure_blanket_value_distribution_uniform(self):
        params = ProtocolParams(d=2, k=3, n=10, t=1, gamma=1.0)
        rng = np.random.default_rng(4)
        x = np.array([0.0, 1.0])
        draws = 40_000
        vals = np.array(
            [randomize_vector(x, params, rng).values[0] for _ in range(draws)]
        )
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((vals == sym).mean() - 0.25) < 4 * se

    def test_distinct_coordinates_and_domain(self):
        params = ProtocolParams(d=6, k=4, n=10, t=4, gamma=0.5)
        rng = np.random.default_rng(1)
        x = np.linspace(0, 1, 6)
        for _ in range(200):
            msg = randomize_vector(x, params, rng)
            assert len(set(msg.coordinates)) == params.t
            assert all(0 <= c < params.d for c in msg.coordinates)
            assert all(0 <= v <= params.k for v in msg.values)

    def test_rejects_bad_vectors(self):
        params = ProtocolParams(d=3, k=2, n=10, t=1, gamma=0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            randomize_vector([0.1, 0.2], params, rng)
        with pytest.raises(ValueError):
            randomize_vector([0.1, 0.2, 1.5], params, rng)

    def test_deterministic_given_seed(self):
        params = ProtocolParams(d=5, k=3, n=10, t=2, gamma=0.4)
        x = np.linspace(0.1, 0.9, 5)
        a = randomize_vector(x, params, np.random.default_rng(123))
        b = randomize_vector(x, params, np.random.default_rng(123))
        assert a == b == Message(coordinates=a.coordinates, values=a.values)


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

    @pytest.mark.parametrize("d, t", [(5, 2), (6, 3)])
    def test_subsets_jointly_uniform(self, d, t):
        # every t-subset has probability 1/C(d, t); within-row order is
        # not exchangeable under Floyd's algorithm, so only sets are compared
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

    def test_messages_from_batch_round_trip(self):
        params = self._params(n=20)
        matrix = np.random.default_rng(0).random((params.n, params.d))
        coords, values = randomize_batch(matrix, params, np.random.default_rng(2))
        msgs = messages_from_batch(coords, values)
        assert len(msgs) == params.n
        for i, msg in enumerate(msgs):
            assert msg.coordinates == tuple(coords[i])
            assert msg.values == tuple(values[i])
