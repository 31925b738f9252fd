"""Local randomizer: the mechanism kernel (fixed-point encoding and
randomized response), coordinate sampling, and the batch entry point."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import ProtocolParams, randomize_batch, randomizer, run_trial
from shufflesum.randomizer import _floyd_sample, _randomize_rows


def kernel(x, k, gamma, u):
    """randomizer._respond on x and uniforms u, in a work buffer of its own;
    the kernel checks nothing, so x, u, k and gamma must be valid."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    return randomizer._respond(x, k, gamma, u, np.empty((2,) + x.shape))


def draw(x, k, gamma, seed):
    """The kernel on x with fresh uniforms from the generator seeded `seed`."""
    x = np.asarray(x, dtype=float)
    return kernel(x, k, gamma, np.random.default_rng(seed).random(x.shape))


class TestEncodeFixedPoint:
    """The encoding stage of `_respond`, isolated by gamma = 0."""

    def test_exact_grid_points_are_deterministic(self):
        assert draw([0.5], 2, 0.0, 0).tolist() == [1]
        assert draw([1.0], 3, 0.0, 1).tolist() == [3]
        assert draw([0.0], 7, 0.0, 2).tolist() == [0]
        assert np.all(draw(np.full(50, 0.25), 4, 0.0, 3) == 1)

    def test_rejects_out_of_range(self):
        # the kernel checks nothing, so the encoding never sees such an x:
        # at t = d every entry is gathered, and the gather refuses it
        params = ProtocolParams(d=2, k=2, n=10, t=2, gamma=0.0)
        for bad in (-0.1, 1.1, np.nan):
            matrix = np.full((params.n, params.d), 0.5)
            matrix[3, 1] = bad
            with pytest.raises(ValueError, match=r"^inputs must lie in \[0, 1\]"):
                randomize_batch(matrix, params, np.random.default_rng(0))

    def test_bernoulli_mean(self):
        # x=0.3, k=1: output is Ber(0.3)
        draws = 200_000
        out = draw(np.full(draws, 0.3), 1, 0.0, 7)
        se = np.sqrt(0.3 * 0.7 / draws)
        assert abs(out.mean() - 0.3) < 3 * se

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 20))
    @settings(max_examples=200)
    def test_output_in_domain_and_adjacent(self, x, k):
        (v,) = draw([x], k, 0.0, 1)
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
        vals = draw(np.full(50_000, 0.55), 3, 0.0, 3)
        assert vals.var() <= 1 / 4 + 5e-3  # raw-value variance cap, any k
        assert abs(vals.mean() / 3 - 0.55) < 3 * np.sqrt(0.25 / 50_000) / 3 + 1e-3


class TestRandomizedResponse:
    """The blanket stage of `_respond`, on grid-point inputs whose encoding
    is deterministic (x = v / k encodes to v)."""

    def test_gamma_zero_is_identity(self):
        v = np.arange(5)
        assert np.array_equal(draw(v / 4, 4, 0.0, 0), v)

    def test_gamma_one_is_uniform(self):
        draws = 200_000
        outs = draw(np.full(draws, 2 / 3), 3, 1.0, 11)
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((outs == sym).mean() - 0.25) < 4 * se

    def test_truth_retention_probability(self):
        # Pr[output = v] = 1 - gamma + gamma/(k+1) = 0.8 + 0.2/3
        draws = 200_000
        outs = draw(np.full(draws, 0.5), 2, 0.2, 5)
        p = 0.8 + 0.2 / 3
        se = np.sqrt(p * (1 - p) / draws)
        assert abs((outs == 1).mean() - p) < 3 * se

    def test_rejects_bad_inputs(self):
        # the kernel checks nothing: ProtocolParams refuses the k and gamma
        # it must not see, and _randomize_rows each x it gathers
        with pytest.raises(ValueError):
            ProtocolParams(d=1, k=0, n=10, t=1, gamma=0.1)
        with pytest.raises(ValueError):
            ProtocolParams(d=1, k=4, n=10, t=1, gamma=1.5)

    @pytest.mark.parametrize(
        "field, k, gamma",
        [("k", 2.5, 0.3), ("k", True, 0.3), ("k", 0, 0.3), ("gamma", 3, -0.2),
         ("gamma", 3, 1.5), ("gamma", 3, np.nan)],
    )
    def test_rejects_bad_k_and_gamma(self, field, k, gamma):
        # the kernel takes k and gamma unchecked from ProtocolParams, so the
        # params must refuse each one; a negative gamma is no blanket, and
        # the output would have no privacy
        with pytest.raises(ValueError, match=f"^{field} must"):
            ProtocolParams(d=4, k=k, n=10, t=1, gamma=gamma)

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 9), gamma=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_output_stays_in_domain(self, x, k, gamma):
        out = draw(np.full(50, x), k, gamma, 2)
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() <= k


class UniformsRng:
    """A generator whose `random` fills its output with chosen uniforms, so
    the sampler's split of each uniform can be driven directly."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, out):
        out[...] = self.u
        return out


class CountingRng:
    """A seeded generator that counts its `random` and `integers` calls;
    any other method is missing, so a call to it fails."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {"random": 0, "integers": 0}

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return self.rng.integers(*args, **kwargs)


class TestOneUniformLaw:
    """_respond reads one u per entry: u < gamma gives floor(u (k+1)/gamma)
    clipped to k, otherwise floor(xk) + [u < gamma + f (1 - gamma)].  The
    sampler splits each of its uniforms u into that u and a coordinate."""

    @pytest.mark.parametrize("m", [3, 64, 100])
    def test_split_edges(self, m):
        # u = 0, u = j/m as rounded, and the largest u below 1, at t = 1
        # and d = m: c <= m - 1, 0 <= u' < 1, and c + u' is u m exactly
        us = np.concatenate([[0.0], np.arange(1, m) / m, [np.nextafter(1.0, 0.0)]])
        coords, uniforms = np.empty((1, m + 1), dtype=np.int64), np.empty((1, m + 1))
        _floyd_sample(UniformsRng(us[None, :]), m, coords, uniforms)
        (c,), (rest,) = coords, uniforms
        assert c.min() >= 0 and c.max() <= m - 1
        assert rest.min() >= 0.0 and rest.max() < 1.0
        assert (c[0], rest[0], c[-1]) == (0, 0.0, m - 1)
        assert np.array_equal(c + rest, us * m)
        # j/m lands on j, or just below it (on j - 1, u' near 1) if rounded down
        j = np.arange(1, m)
        assert np.all((c[1:-1] == j) | ((c[1:-1] == j - 1) & (rest[1:-1] > 0.5)))

    def test_one_random_call_per_block(self, monkeypatch):
        # one uniform per entry: each block fills its t x m uniforms with
        # one random call (the stream of t calls of m, one per column) and
        # draws nothing else; 40 users in blocks of 8 (t = 4) and 32 (t = 1)
        monkeypatch.setattr(randomizer, "BLOCK_ENTRIES", 32)
        for t, blocks in ((4, 5), (1, 2)):
            params = ProtocolParams(d=6, k=3, n=40, t=t, gamma=0.3)
            rng = CountingRng(0)
            rows = _randomize_rows(np.full((5, 6), 0.5), params, rng)
            for b, (coords, _, _) in enumerate(rows, start=1):
                assert rng.calls == {"random": b, "integers": 0}
                assert coords.size <= 32
            assert b == blocks

    @pytest.mark.parametrize("k, gamma", [(1, 0.9), (4, 0.1), (4, 0.05), (3, 0.1705)])
    def test_just_below_gamma_gives_k_through_the_clip(self, k, gamma):
        u = np.nextafter(gamma, 0.0)
        x = np.array([0.0, 0.5, 1.0])
        assert np.all(kernel(x, k, gamma, np.full(3, u)) == k)
        if (k, gamma) != (3, 0.1705):  # these reach k + 1 before the clip
            assert np.floor(u * ((k + 1) / gamma)) == k + 1

    def test_u_equal_to_gamma_takes_the_encoding_branch(self):
        k, gamma = 4, 0.3
        x = np.array([0.0, 0.25, 1.0, 0.3, 0.9])  # f = 0 on the grid, > 0 off it
        out = kernel(x, k, gamma, np.full(5, gamma))
        # u = gamma lies below gamma + f (1 - gamma) exactly when f > 0
        assert out.tolist() == [0, 1, 4, 2, 4]

    @pytest.mark.parametrize("x, k, gamma", [(0.3, 4, 0.2), (0.55, 3, 0.1705), (0.71, 7, 0.5)])
    def test_threshold_between_the_two_encodings(self, x, k, gamma):
        scaled = x * k
        frac = scaled - np.floor(scaled)
        threshold = frac * (1.0 - gamma) + gamma
        us = [np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)]
        out = kernel(np.full(3, x), k, gamma, us)
        assert out.tolist() == [np.floor(scaled) + 1, np.floor(scaled), np.floor(scaled)]

    def test_gamma_zero_never_reaches_the_blanket_division(self):
        # (k + 1) / gamma would raise ZeroDivisionError at gamma = 0
        x = np.array([0.0, 0.5, 0.5, 1.0])
        out = kernel(x, 2, 0.0, [0.0, 0.0, 0.999, np.nextafter(1.0, 0.0)])
        assert out.tolist() == [0, 1, 1, 2]

    def test_gamma_one_always_takes_the_blanket_branch(self):
        k = 3
        us = np.array([0.0, 0.2, 0.26, 0.5, 0.75, np.nextafter(1.0, 0.0)])
        for x in (0.0, 0.4, 1.0):
            out = kernel(np.full(len(us), x), k, 1.0, us)
            assert out.tolist() == [0, 0, 1, 2, 3, 3]


class TestRandomizeVector:
    """Each user's vector is randomized on its own: these per-user laws are
    checked over a batch of users holding the same vector."""

    def _batch(self, x, params, seed):
        matrix = np.tile(np.asarray(x, dtype=float), (params.n, 1))
        return randomize_batch(matrix, params, np.random.default_rng(seed))

    def test_lossless_limit(self):
        # t=d, gamma=0, huge k: y/k reconstructs the vector to within 1/k
        k = 10**6
        params = ProtocolParams(d=3, k=k, n=10, t=3, gamma=0.0)
        x = np.array([0.123456, 0.9999, 0.5])
        coords, values = self._batch(x, params, 0)
        assert np.array_equal(np.sort(coords, axis=1), np.tile([0, 1, 2], (params.n, 1)))
        assert np.all(np.abs(values / k - x[coords]) <= 1 / k)

    def test_coordinate_sampling_uniform(self):
        draws = 20_000
        coords = np.empty((1, draws), dtype=np.int64)
        _floyd_sample(np.random.default_rng(9), 4, coords, np.empty((1, draws)))
        freq = np.bincount(coords[0], minlength=4) / draws
        assert np.all(np.abs(freq - 0.25) < 0.01)

    def test_pure_blanket_value_distribution_uniform(self):
        draws = 40_000
        params = ProtocolParams(d=2, k=3, n=draws, t=1, gamma=1.0)
        _, values = self._batch([0.0, 1.0], params, 4)
        se = np.sqrt(0.25 * 0.75 / draws)
        for sym in range(4):
            assert abs((values == sym).mean() - 0.25) < 4 * se

    def test_distinct_coordinates_and_domain(self):
        params = ProtocolParams(d=6, k=4, n=200, t=4, gamma=0.5)
        coords, values = self._batch(np.linspace(0, 1, 6), params, 1)
        for row in coords.tolist():
            assert len(set(row)) == params.t
        assert coords.min() >= 0 and coords.max() < params.d
        assert values.min() >= 0 and values.max() <= params.k

    def test_rejects_bad_vectors(self):
        params = ProtocolParams(d=3, k=2, n=100, t=1, gamma=0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            randomize_batch(np.full((params.n, 2), 0.5), params, rng)
        # an out-of-range entry raises once a user samples it (all but
        # surely one of 100 users does)
        for bad in (1.5, -0.5, np.nan):
            with pytest.raises(ValueError):
                self._batch([0.1, 0.2, bad], params, 0)

    def test_deterministic_given_seed(self):
        params = ProtocolParams(d=5, k=3, n=10, t=2, gamma=0.4)
        x = np.linspace(0.1, 0.9, 5)
        a = self._batch(x, params, 123)
        b = self._batch(x, params, 123)
        for arr_a, arr_b in zip(a, b):
            assert arr_a.dtype == np.int64 and arr_a.shape == (params.n, params.t)
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

    def test_t1_draw_is_one_uniform_per_user(self):
        # pins the t = 1 random stream: one rng.random(n) call gives both
        # arrays, coordinates floor(u d) and values _respond(x, k, gamma,
        # u d - floor(u d)) at the sampled x
        params = self._params(n=1000, d=9, t=1)
        matrix = np.random.default_rng(0).random((params.n, params.d))
        for seed in (0, 5, 77):
            coords, values = randomize_batch(matrix, params, np.random.default_rng(seed))
            s = np.random.default_rng(seed).random(params.n) * params.d
            expected = np.floor(s).astype(np.int64)
            x = matrix[np.arange(params.n), expected]
            assert coords.dtype == values.dtype == np.int64
            assert np.array_equal(coords[:, 0], expected)
            assert np.array_equal(
                values[:, 0], kernel(x, params.k, params.gamma, s - expected)
            )

    def test_message_law_at_t2(self):
        # ~2e5 users at d = 3, t = 2: each message, a coordinate pair and
        # the values there, must be within 5 SE of the per-user law (a
        # uniform 2-subset, then _respond's law per entry, independently),
        # so the uniform that _respond reads is independent of Floyd's
        # replacement; the law with x reversed must fail the same check
        x, gamma = np.array([0.2, 0.5, 0.9]), 0.4
        params = self._params(n=200_000, d=3, k=1, t=2, gamma=gamma)
        coords, values = randomize_batch(
            np.tile(x, (params.n, 1)), params, np.random.default_rng(31)
        )
        order = np.argsort(coords, axis=1)
        low, high = np.take_along_axis(values, order, axis=1).T
        missing = 3 - coords.sum(axis=1)  # names the pair {0, 1, 2} - {missing}
        freq = np.bincount(4 * missing + 2 * low + high, minlength=12) / params.n

        def law(x):
            one = (1 - gamma) * x + gamma / 2  # Pr[value 1] at k = 1
            p = np.empty(12)
            for missing, (a, b) in zip((2, 1, 0), ((0, 1), (0, 2), (1, 2))):
                for va, vb in itertools.product((0, 1), repeat=2):
                    pa = one[a] if va else 1 - one[a]
                    pb = one[b] if vb else 1 - one[b]
                    p[4 * missing + 2 * va + vb] = pa * pb / 3
            return p

        def within_5_se(p):
            return bool(np.all(np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / params.n)))

        assert law(x).sum() == pytest.approx(1.0, rel=1e-12)
        assert within_5_se(law(x))
        assert not within_5_se(law(x[::-1]))

    def test_value_mean_matches_closed_form(self):
        # E[y] = (1-gamma) x k + gamma k/2 for constant input x
        x, k, gamma = 0.7, 4, 0.25
        params = self._params(n=100_000, d=3, k=k, t=1, gamma=gamma)
        matrix = np.full((params.n, params.d), x)
        _, values = randomize_batch(matrix, params, np.random.default_rng(6))
        expected = (1 - gamma) * x * k + gamma * k / 2
        se = values.std() / np.sqrt(values.size)
        assert abs(values.mean() - expected) < 3 * se

    @pytest.mark.parametrize("entry", [randomize_batch, run_trial])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan])
    def test_out_of_range_gathered_entry_rejected(self, bad, entry):
        # before the check, x = 1.5 at k = 4 came out as the value 6 and NaN
        # as the int64 minimum; now every gathered entry must lie in [0, 1],
        # through either entry point
        params = self._params(n=50, d=1, k=4, t=1)
        matrix = np.full((params.n, 1), 0.5)
        matrix[7, 0] = bad
        with pytest.raises(ValueError, match=r"^inputs must lie in \[0, 1\]"):
            entry(matrix, params, np.random.default_rng(0))

    def test_only_gathered_entries_are_checked(self):
        # an out-of-range entry that no user samples is never read
        params = self._params(n=50, d=3, t=1)
        matrix = np.full((params.n, params.d), 0.5)
        coords, _ = randomize_batch(matrix, params, np.random.default_rng(0))
        unsampled = next(c for c in range(params.d) if c != coords[0, 0])
        matrix[0, unsampled] = 1.5
        again, _ = randomize_batch(matrix, params, np.random.default_rng(0))
        assert np.array_equal(coords, again)
