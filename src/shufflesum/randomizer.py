"""Per-user local randomizer: coordinate sampling, then one array kernel
(`_respond`) for fixed-point encoding and randomized response, reached only
through `_randomize_rows`, behind `randomize_batch` (the public entry) and
`run_trial`.

The wire format is a pair of int64 (m, t) arrays: per user, t distinct
coordinate indices and the randomized values in {0, ..., k}.  Coordinate
indices are 0-based throughout the implementation (the protocol
descriptions elsewhere use 1-based labels; only the offset differs).
"""

from __future__ import annotations

import numpy as np

from .calibration import ProtocolParams

BLOCK_ENTRIES = 2**15  # entries (users x t) per block of `_randomize_rows`


def _respond(sampled, k: int, gamma: float, u, work) -> np.ndarray:
    """The mechanism kernel: encode x in [0, 1] as floor(x k) + Ber(f),
    f = x k - floor(x k), so E = x k; with probability gamma output a
    uniform value on {0, ..., k} instead.  One uniform u in [0, 1) per
    entry, shaped as sampled (no draw here): u < gamma gives floor(u (k + 1)
    / gamma) clipped to k, else floor(x k) + [u < gamma + f (1 - gamma)];
    the blanket value is uniform up to the grid of u, as both decisions
    are: m 2^-53 for `_floyd_sample`'s, split off a draw over m values.
    Works in float64 `work` (2, *sampled.shape); returns int64, a view of
    work[0].  The caller checks the inputs: `_randomize_rows` each gathered
    x, `ProtocolParams` k and gamma; `_floyd_sample` builds u."""
    frac, out = work[0, ...], work[1, ...]
    np.floor(np.multiply(sampled, k, out=frac), out=out)
    frac -= out
    frac *= 1.0 - gamma
    frac += gamma
    out += u < frac
    if gamma > 0.0:  # out += [u < gamma] (blanket - out), faster than a masked select
        np.minimum(np.floor(np.multiply(u, (k + 1) / gamma, out=frac), out=frac), k, out=frac)
        frac -= out  # finite: the clipped value is k where u >= gamma
        frac *= u < gamma
        out += frac
    np.copyto(frac.view(np.int64), out, casting="unsafe")  # whole numbers, so exact
    return frac.view(np.int64)


def _floyd_sample(rng: np.random.Generator, d: int, coords, uniforms) -> None:
    """Fill int64 (t, m) `coords` with m uniform t-subsets of {0, ..., d-1},
    one per column, and float64 (t, m) `uniforms` with `_respond`'s uniforms.

    One rng.random call (the stream of t calls of m) fills `uniforms`; row
    i, Floyd's step i with j = d - t + i, splits each u into s = u (j + 1),
    c = floor(s) <= j and u' = s - c in [0, 1), and a column that already
    holds c takes j instead.  That step reads only c, so u' (uniform up to
    the (j + 1) 2^-53 grid) is independent of the coordinate it ends up with.
    """
    t = len(coords)
    rng.random(out=uniforms)
    uniforms *= np.arange(d - t + 1, d + 1, dtype=float)[:, None]
    np.copyto(coords, uniforms, casting="unsafe")  # floor, as s >= 0
    uniforms -= coords
    for i in range(1, t):
        c = coords[i]
        c[(coords[:i] == c).any(axis=0)] = d - t + i


def randomize_batch(matrix, params: ProtocolParams, rng: np.random.Generator):
    """Randomize a whole (n, d) dataset, one user per row.

    Returns (coords, values), both int64 (n, t): per user, a uniform
    t-subset of coordinates (in no meaningful order) and the randomized
    values there; only those entries are range-checked (`_randomize_rows`).
    These are `run_trial`'s (t, m) blocks, transposed and joined, so both
    make the same draws, one uniform per entry: at t = 1 a block of m users
    is u = rng.random(m), coordinates floor(u d) and values
    _respond(x, k, gamma, u d - floor(u d)).
    """
    if np.shape(matrix) != (params.n, params.d):
        raise ValueError(
            f"dataset shape {np.shape(matrix)} does not match params (n={params.n}, d={params.d})"
        )
    coords = np.empty((params.n, params.t), dtype=np.int64)
    values = np.empty_like(coords)
    start = 0
    for c, _, v in _randomize_rows(matrix, params, rng):  # (t, m) blocks
        m = c.shape[1]
        coords[start : start + m], values[start : start + m] = c.T, v.T
        start += m
    return coords, values


def _randomize_rows(table, params: ProtocolParams, rng: np.random.Generator):
    """Sample, gather and respond for params.n users, user i holding row
    i % rows of a (rows, d) table, 1 <= rows <= n, each gathered entry in
    [0, 1] (else ValueError; NaN too), in blocks of max(1, BLOCK_ENTRIES // t)
    users: yields (coords, sampled, values), each (t, m), one user per
    column, rows of one buffer that the next block overwrites.  As the
    largest allocation, the buffer lifts glibc's trim threshold once freed,
    so the heap keeps a trial's pages for the next one."""
    table = np.ascontiguousarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != params.d or not 0 < len(table) <= params.n:
        raise ValueError(
            f"table shape {table.shape} must be (rows, d={params.d}) "
            f"with 1 <= rows <= n={params.n}"
        )
    rows, d = table.shape
    size = min(max(1, BLOCK_ENTRIES // params.t), params.n)
    # coords, uniforms, sampled, then _respond's two; its last first holds the index
    work = np.empty((5, params.t * size))
    ring = np.resize(np.arange(0, table.size, d), rows + size)  # row offsets, cyclic
    for start in range(0, params.n, size):
        m = min(size, params.n - start)
        block = work[:, : params.t * m].reshape(5, params.t, m)
        coords, uniforms, index = block[0].view(np.int64), block[1], block[4].view(np.int64)
        _floyd_sample(rng, d, coords, uniforms)
        np.add(ring[start % rows :][:m], coords, out=index)
        # in range by construction, so "clip" lets take gather unbuffered
        sampled = np.take(table, index, out=block[2], mode="clip")
        if not (sampled.min() >= 0.0 and sampled.max() <= 1.0):
            raise ValueError("inputs must lie in [0, 1] (NaN is rejected)")
        yield coords, sampled, _respond(sampled, params.k, params.gamma, uniforms, block[3:])
