"""Per-user local randomizer: coordinate sampling, fixed-point encoding and
randomized response.

Coordinate indices are 0-based throughout the implementation (the protocol
descriptions elsewhere use 1-based labels; only the offset differs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ProtocolParams


@dataclass(frozen=True)
class Message:
    """One user's submission: t (coordinate, quantized value) pairs.

    Coordinates are distinct (sampled without replacement); values lie in
    {0, ..., k}.
    """

    coordinates: tuple
    values: tuple


def encode_fixed_point(x: float, k: int, rng: np.random.Generator) -> int:
    """Unbiased stochastic fixed-point encoding of x in [0, 1] onto {0,...,k}.

    Returns floor(x k) + Ber(x k - floor(x k)), so E[result] = x k.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"input must lie in [0, 1], got {x}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    scaled = x * k
    base = int(np.floor(scaled))
    frac = scaled - base
    return base + int(rng.random() < frac)


def randomized_response(
    v: int, domain_size: int, gamma: float, rng: np.random.Generator
) -> int:
    """Generalized randomized response over {0, ..., domain_size - 1}.

    Returns v with probability 1 - gamma, otherwise a uniform draw from the
    whole domain, so Pr[output = v] = 1 - gamma + gamma / domain_size.
    """
    if domain_size < 1:
        raise ValueError(f"domain_size must be >= 1, got {domain_size}")
    if not (0 <= v < domain_size):
        raise ValueError(f"value {v} outside domain of size {domain_size}")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if rng.random() < gamma:
        return int(rng.integers(domain_size))
    return v


def randomize_vector(
    x, params: ProtocolParams, rng: np.random.Generator
) -> Message:
    """Randomize one user's vector: sample t distinct coordinates uniformly,
    encode each to fixed point, then apply randomized response over the
    (k+1)-symbol domain {0, ..., k}."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.d,):
        raise ValueError(f"expected a vector of length {params.d}, got shape {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("vector entries must lie in [0, 1]")
    coords = rng.choice(params.d, size=params.t, replace=False)
    values = []
    for c in coords:
        encoded = encode_fixed_point(float(x[c]), params.k, rng)
        values.append(randomized_response(encoded, params.k + 1, params.gamma, rng))
    return Message(coordinates=tuple(int(c) for c in coords), values=tuple(values))


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


def randomize_batch(matrix, params: ProtocolParams, rng: np.random.Generator):
    """Vectorized randomization of a whole (n, d) dataset.

    Returns (coords, values), both int64 of shape (n, t): per user, t
    distinct coordinate indices and the corresponding randomized values in
    {0, ..., k}.  Equivalent in distribution to applying randomize_vector
    row by row, but draws the randomness in a batched order.

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
    t, k = params.t, params.k
    coords = _floyd_sample(rng, n, d, t)
    sampled = np.take_along_axis(matrix, coords, axis=1)

    scaled = sampled * k
    base = np.floor(scaled)
    encoded = base + (rng.random(scaled.shape) < (scaled - base))

    blanket = rng.random(scaled.shape) < params.gamma
    uniform = rng.integers(0, k + 1, size=scaled.shape)
    values = np.where(blanket, uniform, encoded).astype(np.int64)
    return coords, values


def messages_from_batch(coords, values):
    """Convert batched (coords, values) arrays into Message objects."""
    return [
        Message(coordinates=tuple(int(c) for c in cs), values=tuple(int(v) for v in vs))
        for cs, vs in zip(coords, values)
    ]
