"""Trusted shuffler simulation and the untrusted analyzer.

The shuffler is an in-process uniform permutation: it only unbinds users
from their submissions.  The analyzer buckets received values by
coordinate, rescales by 1/k, and removes the expected blanket
contribution (debiasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ProtocolParams
from .exceptions import InfeasibleParametersError, MalformedMessageError
from .randomizer import Message


@dataclass(frozen=True)
class CoordinateAggregate:
    """Per-coordinate tally: sum of received values / k, and how many
    submissions carried this coordinate."""

    coordinate: int
    sum: float
    count: int


@dataclass(frozen=True)
class EstimateVector:
    """Debiased per-coordinate sum estimates plus received counts."""

    values: np.ndarray
    counts: np.ndarray


def shuffle(messages, rng: np.random.Generator):
    """Uniformly random permutation of the message batch."""
    if len(messages) == 0:
        raise ValueError("cannot shuffle an empty batch")
    order = rng.permutation(len(messages))
    return [messages[i] for i in order]


def _validate_message(msg: Message, params: ProtocolParams):
    if len(msg.coordinates) != params.t or len(msg.values) != params.t:
        raise MalformedMessageError(
            f"message carries {len(msg.coordinates)} entries, expected t={params.t}"
        )
    if len(set(msg.coordinates)) != len(msg.coordinates):
        raise MalformedMessageError("message coordinates must be distinct")
    for c, v in zip(msg.coordinates, msg.values):
        if not (0 <= c < params.d):
            raise MalformedMessageError(f"coordinate {c} outside [0, {params.d - 1}]")
        if not (0 <= v <= params.k):
            raise MalformedMessageError(f"value {v} outside [0, {params.k}]")


def aggregate(messages, params: ProtocolParams):
    """Per-coordinate sums (of value/k) and counts over a shuffled batch.

    Coordinates never received report sum 0, count 0.  Raw values are
    accumulated as integers and divided by k once at the end, so the
    result is exactly invariant under any reordering of the batch.
    """
    raw = np.zeros(params.d, dtype=np.int64)
    counts = np.zeros(params.d, dtype=np.int64)
    for msg in messages:
        _validate_message(msg, params)
        for c, v in zip(msg.coordinates, msg.values):
            raw[c] += v
            counts[c] += 1
    return [
        CoordinateAggregate(coordinate=l, sum=raw[l] / params.k, count=int(counts[l]))
        for l in range(params.d)
    ]


def aggregate_arrays(coords, values, params: ProtocolParams):
    """Vectorized aggregation of batched (coords, values) arrays.

    Both must be integer arrays of shape (m, t) with distinct coordinates
    per row, or MalformedMessageError is raised.  Returns (sums, counts) as
    length-d arrays; sums are already divided by k.
    """
    coords = np.asarray(coords)
    values = np.asarray(values)
    if coords.shape != values.shape or coords.ndim != 2 or coords.shape[1] != params.t:
        raise MalformedMessageError(
            f"coords {coords.shape} and values {values.shape} must both be (m, t={params.t})"
        )
    if not (np.issubdtype(coords.dtype, np.integer) and np.issubdtype(values.dtype, np.integer)):
        raise MalformedMessageError(
            f"coords and values must be integers, got {coords.dtype} and {values.dtype}"
        )
    if np.any(values < 0) or np.any(values > params.k):
        raise MalformedMessageError(f"values outside [0, {params.k}]")
    if np.any(coords < 0) or np.any(coords >= params.d):
        raise MalformedMessageError(f"coordinates outside [0, {params.d - 1}]")
    if params.t > 1:
        ordered = np.sort(coords, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise MalformedMessageError("message coordinates must be distinct")
    flat_c = coords.ravel()
    sums = np.bincount(flat_c, weights=values.ravel(), minlength=params.d) / params.k
    counts = np.bincount(flat_c, minlength=params.d)
    return sums, counts


def debias(agg: CoordinateAggregate, gamma: float, k: int) -> float:
    """Remove the expected blanket contribution and the 1-gamma attenuation:

        (sum - (gamma/2) count) / (1 - gamma)

    The uniform blanket over {0,...,k} has mean k/2, so after the 1/k
    rescaling each blanket submission contributes exactly 1/2 in
    expectation; k cancels and is accepted only for interface symmetry.
    """
    if not (0.0 <= gamma < 1.0):
        raise InfeasibleParametersError(
            f"debias requires gamma in [0, 1), got {gamma}"
        )
    return (agg.sum - (gamma / 2.0) * agg.count) / (1.0 - gamma)


def _debias_arrays(sums, counts, gamma):
    if not (0.0 <= gamma < 1.0):
        raise InfeasibleParametersError(
            f"debias requires gamma in [0, 1), got {gamma}"
        )
    return (sums - (gamma / 2.0) * counts) / (1.0 - gamma)


def analyze(messages, params: ProtocolParams) -> EstimateVector:
    """Full analyzer: aggregate the batch and debias each coordinate."""
    aggs = aggregate(messages, params)
    sums = np.array([a.sum for a in aggs])
    counts = np.array([a.count for a in aggs], dtype=np.int64)
    return EstimateVector(
        values=_debias_arrays(sums, counts, params.gamma), counts=counts
    )


def analyze_arrays(coords, values, params: ProtocolParams) -> EstimateVector:
    """Vectorized analyzer over batched arrays."""
    sums, counts = aggregate_arrays(coords, values, params)
    return EstimateVector(
        values=_debias_arrays(sums, counts, params.gamma), counts=counts
    )


def estimate_average(est: EstimateVector, params: ProtocolParams) -> np.ndarray:
    """Per-coordinate population-mean estimates: value / count.

    Coordinates with no received submissions are flagged missing as NaN
    rather than imputed (0 would be biased).
    """
    out = np.full(params.d, np.nan)
    received = est.counts > 0
    out[received] = est.values[received] / est.counts[received]
    return out
