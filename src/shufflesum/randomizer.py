"""Per-user local randomizer: coordinate sampling, then one array kernel
(`respond`) for fixed-point encoding and randomized response.

The wire format is a pair of int64 (m, t) arrays: per user, t distinct
coordinate indices and the randomized values in {0, ..., k}.  Coordinate
indices are 0-based throughout the implementation (the protocol
descriptions elsewhere use 1-based labels; only the offset differs).
"""

from __future__ import annotations

import numpy as np

from .calibration import ProtocolParams


def respond(sampled, k: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """The mechanism kernel: encode each input in [0, 1] onto {0, ..., k},
    then apply randomized response with a uniform blanket.

    An input x becomes floor(x k) + Ber(x k - floor(x k)), so E = x k; with
    probability gamma that is replaced by a uniform draw from {0, ..., k},
    so Pr[output = encoded] = 1 - gamma + gamma / (k + 1).  Draws, each of
    sampled's shape: rng.random (encoding), rng.random (blanket),
    rng.integers(0, k + 1).  Returns int64 of sampled's shape; an input
    outside [0, 1] or NaN raises ValueError.
    """
    sampled = np.asarray(sampled, dtype=float)
    if sampled.size and not (sampled.min() >= 0.0 and sampled.max() <= 1.0):
        raise ValueError("inputs must lie in [0, 1] (NaN is rejected)")
    scaled = sampled * k
    base = np.floor(scaled)
    encoded = base + (rng.random(scaled.shape) < (scaled - base))
    blanket = rng.random(scaled.shape) < gamma
    uniform = rng.integers(0, k + 1, size=scaled.shape)
    return np.where(blanket, uniform, encoded).astype(np.int64)


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
    return cols.T.copy()


def randomize_vector(x, params: ProtocolParams, rng: np.random.Generator):
    """Randomize one user's vector (entries in [0, 1], all checked): sample
    t distinct coordinates, then pass them through `respond`.  Returns
    (coords, values), int64 arrays of shape (t,)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d,):
        raise ValueError(f"expected a vector of length {params.d}, got shape {x.shape}")
    if not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("vector entries must lie in [0, 1]")
    coords = _floyd_sample(rng, 1, params.d, params.t)[0]
    return coords, respond(x[coords], params.k, params.gamma, rng)


def randomize_batch(matrix, params: ProtocolParams, rng: np.random.Generator):
    """Randomize a whole (n, d) dataset, one user per row.

    Returns (coords, values), both int64 of shape (n, t): per user, t
    distinct coordinate indices and the corresponding randomized values in
    {0, ..., k}.  Only the gathered entries are range-checked (by
    `respond`), so the check costs O(n t), not O(n d).

    Each row's coordinates are a uniform t-subset of {0, ..., d-1}, drawn
    by Floyd's algorithm (Bentley & Floyd, CACM 1987) in O(n t) memory and
    O(n t^2) time.  The order within a row carries no meaning: column i
    holds d - t + i more often than any other value.  At t = 1 the draw is
    exactly rng.integers(0, d, size=n).
    """
    matrix = np.asarray(matrix, dtype=float)
    n, d = matrix.shape
    if n != params.n or d != params.d:
        raise ValueError(
            f"dataset shape {matrix.shape} does not match params (n={params.n}, d={params.d})"
        )
    coords, _, values = _randomize_rows(matrix, params, rng)
    return coords, values


def _randomize_rows(table: np.ndarray, params: ProtocolParams, rng: np.random.Generator):
    """Sample, gather and respond for params.n users, user i holding row
    i % len(table) of a float (rows, params.d) table (shape unchecked).
    Returns (coords, sampled, values), each (n, t): the Floyd sample, the
    true entries gathered at it, and `respond`'s output, drawn in order."""
    coords = _floyd_sample(rng, params.n, params.d, params.t)
    # flat offset of row i % len(table), one gather by flat index
    starts = np.resize(np.arange(0, table.size, params.d), params.n)
    sampled = np.take(table, starts[:, None] + coords)
    return coords, sampled, respond(sampled, params.k, params.gamma, rng)
