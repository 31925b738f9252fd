"""Per-user local randomizer: coordinate sampling, then one array kernel
(`respond`) for fixed-point encoding and randomized response.

The wire format is a pair of int64 (m, t) arrays: per user, t distinct
coordinate indices and the randomized values in {0, ..., k}.  Coordinate
indices are 0-based throughout the implementation (the protocol
descriptions elsewhere use 1-based labels; only the offset differs).
"""

from __future__ import annotations

import numpy as np

from .calibration import ProtocolParams, _check_integer

BLOCK_ENTRIES = 2**15  # entries (users x t) per block of `_randomize_rows`


def respond(sampled, k: int, gamma: float, rng: np.random.Generator, work=None) -> np.ndarray:
    """The mechanism kernel: encode x in [0, 1] as floor(x k) + Ber(f),
    f = x k - floor(x k), so E = x k; with probability gamma output a
    uniform value on {0, ..., k} instead.  One draw per entry, u =
    rng.random: u < gamma gives floor(u (k + 1) / gamma) clipped to k, else
    floor(x k) + [u < gamma + f (1 - gamma)]; the blanket value is uniform
    up to the 2^-53 grid of rng.random, as both decisions are.  Works in
    float64 `work` (3, *sampled.shape), new if None; returns int64, a view
    of work[1].  An input outside [0, 1] or NaN, a non-integer k, k < 1 or
    a gamma outside [0, 1] raises ValueError."""
    _check_integer("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    sampled = np.asarray(sampled, dtype=float)
    if sampled.size and not (sampled.min() >= 0.0 and sampled.max() <= 1.0):
        raise ValueError("inputs must lie in [0, 1] (NaN is rejected)")
    work = np.empty((3,) + sampled.shape) if work is None else work
    u, frac, out = work[0, ...], work[1, ...], work[2, ...]
    rng.random(out=u)
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


def _floyd_sample(rng: np.random.Generator, n: int, d: int, t: int) -> np.ndarray:
    """(n, t) int64 array whose rows are uniform t-subsets of {0, ..., d-1}.

    Floyd's algorithm, one column per step: draw c from {0, ..., j} with
    j = d - t + i; a row that already holds c takes j instead.  Built as
    (t, n) so each step compares contiguous rows, then transposed.
    """
    cols = np.empty((t, n), dtype=np.int64)
    for i in range(t):
        j = d - t + i
        c = rng.integers(0, j + 1, size=n)
        if i:
            c[(cols[:i] == c).any(axis=0)] = j
        cols[i] = c
    return cols.T


def randomize_batch(matrix, params: ProtocolParams, rng: np.random.Generator):
    """Randomize a whole (n, d) dataset, one user per row.

    Returns (coords, values), both int64 (n, t): per user, a uniform
    t-subset of coordinates (in no meaningful order) and the randomized
    values there; only those entries are range-checked.  These are
    `run_trial`'s blocks, joined, so both make the same draws; at t = 1 a
    block of m users' coordinates is exactly rng.integers(0, d, size=m).
    """
    if np.shape(matrix) != (params.n, params.d):
        raise ValueError(
            f"dataset shape {np.shape(matrix)} does not match params (n={params.n}, d={params.d})"
        )
    coords = np.empty((params.n, params.t), dtype=np.int64)
    values = np.empty_like(coords)
    start = 0
    for c, _, v in _randomize_rows(matrix, params, rng):
        coords[start : start + len(c)], values[start : start + len(c)] = c, v
        start += len(c)
    return coords, values


def _randomize_rows(table, params: ProtocolParams, rng: np.random.Generator):
    """Sample, gather and respond for params.n users, user i holding row
    i % rows of a (rows, d) table, 1 <= rows <= n (else ValueError), in
    blocks of max(1, BLOCK_ENTRIES // t) users: yields (coords, sampled,
    values), each (m, t), views into one buffer that the next block
    overwrites.  As the largest allocation, the buffer lifts glibc's trim
    threshold once freed, so the heap keeps a trial's pages for the next one."""
    table = np.ascontiguousarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != params.d or not 0 < len(table) <= params.n:
        raise ValueError(
            f"table shape {table.shape} must be (rows, d={params.d}) "
            f"with 1 <= rows <= n={params.n}"
        )
    rows, d = table.shape
    size = min(max(1, BLOCK_ENTRIES // params.t), params.n)
    # coords, sampled, then respond's three; its last first holds the index
    work = np.empty((5, size, params.t))
    ring = np.resize(np.arange(0, table.size, d), rows + size)  # row offsets, cyclic
    for start in range(0, params.n, size):
        m = min(size, params.n - start)
        coords, index = work[0, :m].view(np.int64), work[4, :m].view(np.int64)
        coords[...] = _floyd_sample(rng, m, d, params.t)
        np.add(ring[start % rows :][:m, None], coords, out=index)
        # in range by construction, so "clip" lets take gather unbuffered
        sampled = np.take(table, index, out=work[1, :m], mode="clip")
        yield coords, sampled, respond(sampled, params.k, params.gamma, rng, work[2:, :m])
