"""Local randomizer: the mechanism kernel (fixed-point encoding and
randomized response), coordinate sampling, and the batch entry point."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflesum import ProtocolParams, protocol, randomize_batch, run_trial
from shufflesum.protocol import _floyd_sample, _randomize_rows
from uniform_grid import UniformsRng, cell_grid


def kernel(x, k, gamma, u):
    """protocol._respond on x and uniforms u, in a work buffer of its own;
    the kernel checks nothing, so x, u, k and gamma must be valid."""
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    return protocol._respond(x, k, gamma, u, np.empty((2,) + x.shape))


def draw(x, k, gamma, seed):
    """The kernel on x with fresh uniforms from the generator seeded `seed`."""
    x = np.asarray(x, dtype=float)
    return kernel(x, k, gamma, np.random.default_rng(seed).random(x.shape))


class TestRespondEncoding:
    """The encoding stage of `_respond`, isolated by gamma = 0."""

    def test_exact_grid_points_are_deterministic(self):
        assert draw([0.5], 2, 0.0, 0).tolist() == [1]
        assert draw([1.0], 3, 0.0, 1).tolist() == [3]
        assert draw([0.0], 7, 0.0, 2).tolist() == [0]
        assert np.all(draw(np.full(50, 0.25), 4, 0.0, 3) == 1)
        v = np.arange(5)
        assert np.array_equal(draw(v / 4, 4, 0.0, 0), v)

    @given(x=st.floats(0.0, 1.0), k=st.integers(1, 20))
    @settings(max_examples=200)
    def test_output_in_domain_and_adjacent(self, x, k):
        (v,) = draw([x], k, 0.0, 1)
        assert 0 <= v <= k
        assert abs(v - x * k) < 1.0 or v == x * k


class TestRespondBlanket:
    """The blanket stage of `_respond`: its parameters and its domain."""

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
        monkeypatch.setattr(protocol, "BLOCK_ENTRIES", 32)
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


class TestEnumeratedLaws:
    """The per-user laws, counted exactly over enumerated uniforms
    (`uniform_grid`): no seed and no sampling error, only the grid's own
    tolerance where a law's breakpoints fall inside a grid cell."""

    @pytest.mark.parametrize(
        "d, t, sub", [(5, 2, 8), (7, 3, 8), (6, 3, 8), (5, 3, 8), (6, 6, 2), (8, 1, 8)]
    )
    def test_t_subset_law(self, d, t, sub):
        # over every tuple of Floyd cells, sub sub-cells per row: each t-subset
        # occurs exactly t! sub^t times, and in each row each coordinate's u'
        # falls equally often into each sub-cell (u' is independent of it)
        grid = cell_grid(d, t, sub)
        coords, uniforms = np.empty(grid.shape, dtype=np.int64), np.empty(grid.shape)
        _floyd_sample(UniformsRng(grid), d, coords, uniforms)
        subsets = Counter(map(tuple, np.sort(coords, axis=0).T.tolist()))
        each = math.factorial(t) * sub**t
        assert subsets == dict.fromkeys(itertools.combinations(range(d), t), each)
        assert uniforms.min() >= 0.0 and uniforms.max() < 1.0
        for row, cells in zip(coords, (uniforms * sub).astype(np.int64)):
            hits = np.bincount(row * sub + cells, minlength=d * sub).reshape(d, sub)
            assert np.all(hits == hits[:, :1])

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.3, 0.9, 1.0])
    def test_value_law(self, k, gamma):
        # _respond on the G midpoints u = (i + 1/2)/G, for x on and off the
        # k-grid: Pr[v] = gamma/(k + 1), plus 1 - gamma split as 1 - f at
        # floor(xk) and f at floor(xk) + 1, so E v = (1 - gamma) xk + gamma
        # k/2 and E v^2 = (1 - gamma)((xk)^2 + f(1 - f)) + gamma k(2k + 1)/6.
        # v is a step function of u with at most k + 2 breakpoints; each
        # moves at most one midpoint, by at most k, hence the tolerances
        G = 2**16
        x = np.array([0.0, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.55, 2 / 3, 0.71, 0.9, 1.0])[:, None]
        u = np.broadcast_to((np.arange(G) + 0.5) / G, (len(x), G))
        values = kernel(np.broadcast_to(x, u.shape), k, gamma, u)
        v = np.arange(k + 1)
        scaled = x * k
        low, f = np.divmod(scaled, 1.0)
        law = gamma / (k + 1) + (1 - gamma) * ((v == low) * (1 - f) + (v == low + 1) * f)
        tol = (k + 2) / G
        assert np.all(np.abs((values[..., None] == v).mean(axis=1) - law) <= tol)
        mean = (1 - gamma) * scaled + gamma * k / 2
        assert np.all(np.abs(values.mean(axis=1, keepdims=True) - mean) <= k * tol)
        second = (1 - gamma) * (scaled**2 + f * (1 - f)) + gamma * k * (2 * k + 1) / 6
        assert np.all(np.abs((values**2).mean(axis=1, keepdims=True) - second) <= k * k * tol)

    def test_message_law(self):
        # randomize_batch at d = 3, t = 2, k = 1 over the 6 Floyd cell pairs,
        # 100 sub-cells per row: 60 000 users in four blocks, the last one
        # partial.  Each message (a coordinate pair and its values) occurs
        # exactly as often as the per-user law says (a uniform 2-subset, then
        # _respond's law per entry, independently), as every breakpoint of
        # the value law (gamma/2, gamma and gamma + x(1 - gamma)) lies on the
        # 1/100 grid; the law with x reversed lies 0.14 away
        x, gamma = np.array([0.2, 0.5, 0.9]), 0.4
        grid = cell_grid(3, 2, 100)
        params = ProtocolParams(d=3, k=1, n=grid.shape[1], t=2, gamma=gamma)
        assert params.n % (protocol.BLOCK_ENTRIES // params.t) > 0
        rng = UniformsRng(grid)
        coords, values = randomize_batch(np.tile(x, (params.n, 1)), params, rng)
        assert rng.used == params.n
        order = np.argsort(coords, axis=1)
        low, high = np.take_along_axis(values, order, axis=1).T
        missing = 3 - coords.sum(axis=1)  # names the pair {0, 1, 2} - {missing}
        freq = np.bincount(4 * missing + 2 * low + high, minlength=12) / params.n

        def law(x):  # Pr[pair, values] = Pr[v_a] Pr[v_b] / 3, indexed as freq
            one = (1 - gamma) * x + gamma / 2  # Pr[value 1] at k = 1
            pr = np.stack([1 - one, one])  # (value, coordinate)
            pairs = ((1, 2), (0, 2), (0, 1))  # by missing coordinate
            return np.concatenate([np.outer(pr[:, a], pr[:, b]).ravel() / 3 for a, b in pairs])

        assert np.abs(freq - law(x)).max() <= 1e-12
        assert np.abs(freq - law(x[::-1])).max() > 0.1


class TestRandomizeBatch:
    def _params(self, n=500, d=8, k=3, t=2, gamma=0.3):
        return ProtocolParams(d=d, k=k, n=n, t=t, gamma=gamma)

    @pytest.mark.parametrize("d, t", [(8, 2), (6, 4)])
    def test_shapes_and_domains(self, d, t):
        params = self._params(d=d, t=t)
        matrix = np.random.default_rng(0).random((params.n, params.d))
        matrix[:, [0, -1]] = 0.0, 1.0  # the ends of the range are valid entries
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
        a = randomize_batch(matrix, params, np.random.default_rng(9))
        b = randomize_batch(matrix, params, np.random.default_rng(9))
        for arr_a, arr_b in zip(a, b):
            assert arr_a.dtype == np.int64 and arr_a.shape == (params.n, params.t)
            assert np.array_equal(arr_a, arr_b)

    def test_lossless_limit(self):
        # t=d, gamma=0, huge k: y/k reconstructs the vector to within 1/k
        k = 10**6
        params = self._params(n=10, d=3, k=k, t=3, gamma=0.0)
        x = np.array([0.123456, 0.9999, 0.5])
        rng = np.random.default_rng(0)
        coords, values = randomize_batch(np.tile(x, (params.n, 1)), params, rng)
        assert np.array_equal(np.sort(coords, axis=1), np.tile([0, 1, 2], (params.n, 1)))
        assert np.all(np.abs(values / k - x[coords]) <= 1 / k)

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

    @pytest.mark.parametrize("entry", [randomize_batch, run_trial])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [1.5, -0.25, np.nan, None])
    def test_out_of_range_gathered_entry_rejected(self, bad, d, entry):
        # before the check, x = 1.5 at k = 4 came out as the value 6 and NaN
        # as the int64 minimum; now every gathered entry must lie in [0, 1],
        # through either entry point.  At t = d every entry is gathered; bad
        # = None drops a column instead, a shape mismatch
        params = self._params(n=50, d=d, k=4, t=d)
        matrix, match = np.full((params.n, d), 0.5), r"^inputs must lie in \[0, 1\]"
        if bad is None:
            matrix, match = matrix[:, 1:], "shape"
        else:
            matrix[7, -1] = bad
        with pytest.raises(ValueError, match=match):
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
