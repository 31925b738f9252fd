"""Trusted shuffler simulation and the untrusted analyzer.

Submissions travel as a pair of integer (m, t) arrays (coordinates and
values, one row per user).  The shuffler is an in-process uniform
permutation of the rows: it only unbinds users from their submissions.
The analyzer (`analyze_arrays`) validates the arrays (it is the one
validator), buckets received values by coordinate (`_tally`), rescales by
1/k, and removes the expected blanket contribution (debiasing).
"""

from __future__ import annotations

import numpy as np

from .calibration import InfeasibleParametersError, ProtocolParams


class MalformedMessageError(ValueError):
    """A submitted message violates the protocol's wire format."""


def shuffle(coords, values, rng: np.random.Generator):
    """The trusted shuffler: one uniform permutation, rng.permutation(m),
    applied to the rows of both (m, t) arrays."""
    coords = np.asarray(coords)
    values = np.asarray(values)
    if coords.ndim == 0 or values.ndim == 0 or len(coords) == 0:
        raise ValueError("cannot shuffle a 0-d or empty batch")
    if len(values) != len(coords):
        raise ValueError(f"{len(coords)} coordinate rows but {len(values)} value rows")
    perm = rng.permutation(len(coords))
    return coords[perm], values[perm]


def _tally(coords, values, d: int):
    """Count a batch per coordinate: coords and values of one shape, in any
    layout, that `analyze_arrays` checked or the randomizer built valid.
    Returns the per-coordinate totals of the values (integers, so exactly
    invariant under any reordering of the entries) and counts; a
    coordinate never received reports 0 and 0."""
    cols = coords.ravel()
    return np.bincount(cols, weights=values.ravel(), minlength=d), np.bincount(cols, minlength=d)


def _debias(totals, counts, params: ProtocolParams) -> np.ndarray:
    """Rescale `_tally`'s totals by 1/k, then remove the expected blanket
    contribution and the 1 - gamma attenuation per coordinate:

        (sum - (gamma/2) count) / (1 - gamma)

    The uniform blanket over {0,...,k} has mean k/2, so after the 1/k
    rescaling each blanket submission contributes exactly 1/2 in
    expectation.  gamma = 1 leaves no signal: InfeasibleParametersError.
    """
    gamma = params.gamma
    if not (0.0 <= gamma < 1.0):
        raise InfeasibleParametersError(f"debias requires gamma in [0, 1), got {gamma}")
    return (totals / params.k - (gamma / 2.0) * counts) / (1.0 - gamma)


def analyze_arrays(coords, values, params: ProtocolParams) -> np.ndarray:
    """The analyzer, and the one validator of outside batches: both arrays
    must be integer (not bool) of shape (m, t), with values in {0, ..., k}
    and distinct coordinates in {0, ..., d-1} per row, or
    MalformedMessageError is raised.  Then `_tally`, then `_debias`.
    Returns the float64 (d,) per-coordinate sum estimates."""
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
    if coords.size and (values.min() < 0 or values.max() > params.k):
        raise MalformedMessageError(f"values outside [0, {params.k}]")
    if coords.size and (coords.min() < 0 or coords.max() >= params.d):
        raise MalformedMessageError(f"coordinates outside [0, {params.d - 1}]")
    cols = np.ascontiguousarray(coords.T)  # (t, m): contiguous rows to compare
    if any(np.any(cols[:i] == cols[i]) for i in range(1, params.t)):
        raise MalformedMessageError("message coordinates must be distinct")
    return _debias(*_tally(coords, values, params.d), params)
