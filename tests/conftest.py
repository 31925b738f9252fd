"""Shared fixtures: a synthetic quasi-periodic signal corpus.

The corpus mimics segmented physiological traces: each row is a decaying
rectified oscillation with per-row amplitude, decay, frequency and phase,
plus a small noise floor.  Rows are written to CSV with a trailing integer
label column so ingestion (label dropping, clamping) is exercised on the
same data the experiments use.
"""

import numpy as np
import pytest

from shufflesum import ingest_csv

SIGNAL_SEED = 20260823
SIGNAL_ROWS = 800
SIGNAL_COLS = 187


def make_signal_matrix(seed=SIGNAL_SEED, rows=SIGNAL_ROWS, cols=SIGNAL_COLS):
    """Raw (unclipped) signal matrix; a few entries exceed 1 on purpose."""
    rng = np.random.default_rng(seed)
    tgrid = np.arange(cols)
    base = []
    for _ in range(rows):
        amp = rng.uniform(0.375, 1.375)
        decay = rng.uniform(0.04, 0.12)
        freq = rng.uniform(0.15, 0.45)
        phase = rng.uniform(0, 2 * np.pi)
        sig = amp * np.exp(-decay * tgrid) * np.abs(np.sin(freq * tgrid + phase))
        sig += 0.0125 * rng.random(cols)
        base.append(sig)
    return np.asarray(base)


@pytest.fixture(scope="session")
def signal_csv(tmp_path_factory):
    """CSV of the raw corpus with a trailing label column."""
    raw = make_signal_matrix()
    labels = np.arange(raw.shape[0]) % 5
    path = tmp_path_factory.mktemp("data") / "signals.csv"
    with open(path, "w") as fh:
        for row, label in zip(raw, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
    return path


@pytest.fixture(scope="session")
def dataset(signal_csv):
    """Ingested corpus: label dropped, entries clamped into [0, 1]."""
    matrix, _ = ingest_csv(signal_csv, drop_label=True, normalize="clamp")
    return matrix
