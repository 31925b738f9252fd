"""Trusted shuffler simulation and the untrusted analyzer.

Submissions travel as a pair of integer (m, t) arrays (coordinates and
values, one row per user).  The shuffler is an in-process uniform
permutation of the rows: it only unbinds users from their submissions.
The analyzer validates the arrays (`aggregate_arrays` is the one
validator), buckets received values by coordinate, rescales by 1/k, and
removes the expected blanket contribution (debiasing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import ProtocolParams
from .exceptions import InfeasibleParametersError, MalformedMessageError


@dataclass(frozen=True)
class EstimateVector:
    """Debiased per-coordinate sum estimates plus received counts."""

    values: np.ndarray
    counts: np.ndarray


def shuffle(coords, values, rng: np.random.Generator):
    """The trusted shuffler: one uniform permutation, rng.permutation(m),
    applied to the rows of both (m, t) arrays."""
    coords = np.asarray(coords)
    values = np.asarray(values)
    if len(coords) == 0:
        raise ValueError("cannot shuffle an empty batch")
    if len(values) != len(coords):
        raise ValueError(f"{len(coords)} coordinate rows but {len(values)} value rows")
    perm = rng.permutation(len(coords))
    return coords[perm], values[perm]


def aggregate_arrays(coords, values, params: ProtocolParams):
    """Per-coordinate sums (of value/k) and counts over a batch.

    Both arrays must be integer (not bool) of shape (m, t), with values in
    {0, ..., k} and distinct coordinates in {0, ..., d-1} per row, or
    MalformedMessageError is raised.  Returns (sums, counts) as length-d
    arrays; coordinates never received report sum 0, count 0.  Values are
    summed as integers before the one division by k, so the result is
    exactly invariant under any reordering of the rows.
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


def analyze_arrays(coords, values, params: ProtocolParams) -> EstimateVector:
    """Full analyzer: aggregate the batch, then remove the expected blanket
    contribution and the 1 - gamma attenuation per coordinate:

        (sum - (gamma/2) count) / (1 - gamma)

    The uniform blanket over {0,...,k} has mean k/2, so after the 1/k
    rescaling each blanket submission contributes exactly 1/2 in
    expectation.  gamma = 1 leaves no signal: InfeasibleParametersError.
    """
    sums, counts = aggregate_arrays(coords, values, params)
    gamma = params.gamma
    if not (0.0 <= gamma < 1.0):
        raise InfeasibleParametersError(
            f"debias requires gamma in [0, 1), got {gamma}"
        )
    return EstimateVector(
        values=(sums - (gamma / 2.0) * counts) / (1.0 - gamma), counts=counts
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
