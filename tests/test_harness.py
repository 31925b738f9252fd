"""Experiment harness and CLI: ingestion, sweeps, emission, exit codes."""

import contextlib
import csv
import importlib
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shufflesum import (
    ExperimentConfig,
    InfeasibleParametersError,
    ProtocolParams,
    analyze_arrays,
    bound_mse,
    calibrate_gamma,
    choose_k_general,
    choose_k_t1,
    empirical_mse,
    emit_outputs,
    fit_matrix,
    fit_power_law,
    ingest_csv,
    randomize_batch,
    resolve_point,
    run_sweep,
    run_trial,
    shuffle,
    trial_seed,
)
from shufflesum import cli, harness, protocol
from shufflesum.cli import main
from shufflesum.harness import LONG_HEADER


# Cells the fast parse and float() both read, and cells only one of them
# takes: quoted, "1_0", "#", empty, padded, and separators numpy strips
_NUMBER_CELLS = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.sampled_from(
    ["0.25", "1", "0", "-0", "3e2", "1e400", "nan", "inf", "-inf", "Infinity", ".5", "5."]
)
_ODD_CELLS = st.sampled_from(
    ["1_0", '"0.75"', '""', "#0.5", "", " ", " 0.5 ", "\t1", "x", "0x1", "\x1c1", "1\x1f", "\xa02"]
)


@st.composite
def _csv_texts(draw):
    """Small CSV texts: rows of a common width or ragged, blank and
    whitespace-only lines, and \\n, \\r\\n or \\r line ends."""
    width = draw(st.integers(1, 3))
    cells = st.one_of(_NUMBER_CELLS, _NUMBER_CELLS, _ODD_CELLS)
    row = st.lists(cells, min_size=width, max_size=width) | st.lists(cells, min_size=1, max_size=4)
    line = row.map(",".join) | st.sampled_from(["", "  ", "\t"])
    lines = draw(st.lists(line, max_size=5))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(a + b for a, b in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


def _ingest_outcome(path, slow=False, **kwargs):
    """ingest_csv's values (bytes and shape) and provenance, or its error;
    slow=True forces the per-cell reader by failing the numpy call."""
    fail = mock.patch.object(np, "loadtxt", side_effect=ValueError)
    with fail if slow else contextlib.nullcontext():
        try:
            matrix, provenance = ingest_csv(path, **kwargs)
        except ValueError as exc:
            return type(exc), str(exc)
    return matrix.tobytes(), matrix.shape, provenance


class TestIngestCsv:
    def test_two_by_two_verbatim(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("0.2,0.8\n1.0,0.0\n")
        matrix, provenance = ingest_csv(p)
        assert np.array_equal(matrix, [[0.2, 0.8], [1.0, 0.0]])
        assert "2x2" in provenance

    def test_minmax_normalization(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("0,100\n50,200\n")
        matrix, _ = ingest_csv(p, normalize="minmax")
        assert matrix.min() == 0.0 and matrix.max() == 1.0
        assert np.allclose(matrix, [[0, 0.5], [0.25, 1.0]])

    def test_clamp_and_label_drop_on_fixture(self, signal_csv):
        matrix, provenance = ingest_csv(signal_csv, drop_label=True, normalize="clamp")
        assert matrix.shape == (800, 187)
        assert matrix.min() >= 0.0 and matrix.max() <= 1.0
        assert "label" in provenance
        # requesting d=100 keeps the first 100 feature columns
        fitted = fit_matrix(matrix, 800, 100)
        assert np.array_equal(fitted, matrix[:, :100])

    def test_unparseable_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.1,0.2,0.3\n0.4,0.5,oops\n")
        with pytest.raises(ValueError, match="row 2, column 3"):
            ingest_csv(p)
        # an undecodable byte is named by its offset in the file
        p.write_bytes(b"0.1,0.2\n" * 5000 + b"0.3,\xff\n")
        with pytest.raises(UnicodeDecodeError, match="position 40004"):
            ingest_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_position(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"0.1,0.2,0.3\n0.4,{cell},0.6\n")
        with pytest.raises(ValueError, match="non-finite cell at row 2, column 2"):
            ingest_csv(p)

    def test_first_bad_cell_in_file_order_is_named(self, tmp_path):
        # a non-finite cell on row 1 before an unparseable one on row 3
        p = tmp_path / "order.csv"
        p.write_text("nan,0.1\n0.2,0.3\n0.4,x\n")
        want = (ValueError, f"{p}: non-finite cell at row 1, column 1: nan")
        assert _ingest_outcome(p) == _ingest_outcome(p, slow=True) == want

    def test_blank_lines_skipped_and_rows_named_by_file_line(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("0.1,0.2\n\n   \n0.3,0.4\n")
        matrix, _ = ingest_csv(p)
        assert np.array_equal(matrix, [[0.1, 0.2], [0.3, 0.4]])
        p.write_text("0.1,0.2\n\n   \n0.3,oops\n")
        with pytest.raises(ValueError, match="row 4, column 2"):
            ingest_csv(p)
        p.write_text("0.1,0.2\n \t\n\n0.3,nan\n")
        with pytest.raises(ValueError, match="non-finite cell at row 4, column 2"):
            ingest_csv(p)

    def test_rows_named_by_file_line_after_a_quoted_line_break(self, tmp_path):
        # the quoted cell spans lines 1 and 2, so the second record is line 3
        p = tmp_path / "quoted.csv"
        p.write_text('"0.1\n",0.2\n0.3,x\n', newline="")
        with pytest.raises(ValueError, match="row 3, column 2"):
            ingest_csv(p)
        p.write_text('"0.1\n",0.2\n0.3,nan\n', newline="")
        with pytest.raises(ValueError, match="non-finite cell at row 3, column 2"):
            ingest_csv(p)

    @pytest.mark.parametrize(
        "text",
        [
            "0.1,0." + "1" * 140_000 + "\n",  # one cell over csv.field_size_limit()
            "0.2\n" + ",".join(["0.5"] * 40_000) + "\n",  # a long line of short cells
            ",".join(["0.5"] * 40_000),  # the same, unterminated
        ],
        ids=["long-cell", "long-line", "long-last-line"],
    )
    def test_lines_over_the_csv_field_limit_read_the_same_by_both_paths(self, tmp_path, text):
        p = tmp_path / "long.csv"
        p.write_text(text)
        assert _ingest_outcome(p) == _ingest_outcome(p, slow=True)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(p)
        # whitespace-only too, by both paths, without np.loadtxt's "no data" warning
        for text in ("\n", "\r\n", "\r", " \t\n\n"):
            p.write_text(text, newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                outcomes = {_ingest_outcome(p), _ingest_outcome(p, slow=True)}
            assert outcomes == {(ValueError, f"{p}: empty dataset")}

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(ValueError, match="ragged"):
            ingest_csv(p)

    def test_single_column_label_drop_rejected(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("0.1\n0.2\n")
        with pytest.raises(ValueError):
            ingest_csv(p, drop_label=True)

    def test_constant_minmax_rejected(self, tmp_path):
        p = tmp_path / "const.csv"
        p.write_text("5,5\n5,5\n")
        with pytest.raises(ValueError):
            ingest_csv(p, normalize="minmax")

    def test_unknown_normalize_rejected_before_reading(self, tmp_path):
        # checked against harness.CHOICES before the file is opened
        (tmp_path / "tiny.csv").write_text("0.2,0.8\n")
        for p in (tmp_path / "tiny.csv", tmp_path / "missing.csv"):
            with pytest.raises(ValueError) as caught:
                ingest_csv(p, normalize="zscore")
            assert all(repr(c) in str(caught.value) for c in harness.CHOICES["normalize"])

    def test_per_cell_reader_parses_the_text_that_was_checked(self, tmp_path):
        # the quoted cell fails the fast parse; the file is then replaced by
        # rename, and the per-cell reader must still parse the first text
        p = tmp_path / "quoted.csv"
        p.write_text('"0.75",0.25\n')
        agrees = harness._loadtxt_agrees

        def replace_after_reading(text):
            (tmp_path / "new.csv").write_text("0.5,0.5\n")
            os.replace(tmp_path / "new.csv", p)
            return agrees(text)

        with mock.patch.object(harness, "_loadtxt_agrees", replace_after_reading):
            matrix, _ = ingest_csv(p)
        assert matrix.tolist() == [[0.75, 0.25]]

    def test_corpus_reads_the_same_by_both_paths(self, signal_csv):
        # the benchmark corpus takes the one-call parse, not the per-cell one
        with mock.patch.object(harness, "_read_cells", side_effect=AssertionError):
            fast = _ingest_outcome(signal_csv, drop_label=True, normalize="clamp")
        assert fast == _ingest_outcome(signal_csv, drop_label=True, normalize="clamp", slow=True)

    @given(
        text=_csv_texts(),
        drop_label=st.booleans(),
        normalize=st.sampled_from(harness.CHOICES["normalize"]),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],  # one file, rewritten
    )
    def test_agrees_with_the_per_cell_reader(self, tmp_path, text, drop_label, normalize):
        # the same bytes and provenance, or the same error, and no warning
        p = tmp_path / "fuzz.csv"
        p.write_text(text, newline="")
        kwargs = dict(drop_label=drop_label, normalize=normalize)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ingest_outcome(p, **kwargs) == _ingest_outcome(p, **kwargs, slow=True)


class TestFitMatrix:
    def test_rows_capped_at_n_and_column_padding(self):
        # n = 5 users of a 2-row table: run_trial cycles the rows itself,
        # as np.resize does for a dense (n, d) reference
        m = np.arange(6.0).reshape(2, 3)
        out = fit_matrix(m, 5, 5)
        assert out.shape == (2, 5) and out.flags.c_contiguous
        assert np.array_equal(out[:, :3], m)
        assert np.all(out[:, 3:] == 0.0)  # zero-padded
        assert np.array_equal(np.resize(out, (5, 5)), out[np.arange(5) % 2])

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2, 2)])
    def test_rejects_a_matrix_that_is_not_2d(self, shape):
        with pytest.raises(ValueError):
            fit_matrix(np.zeros(shape), 5, 5)

    def test_truncation(self):
        m = np.arange(12.0).reshape(3, 4)
        out = fit_matrix(m, 2, 2)
        assert np.array_equal(out, m[:2, :2])

    @pytest.mark.parametrize("bad", [2.5, True])
    @pytest.mark.parametrize("field", ["n", "d"])
    def test_rejects_non_integer_sizes(self, field, bad):
        sizes = {"n": 3, "d": 2, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fit_matrix(np.ones((3, 2)), **sizes)


class TestExperimentConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert (c.d, c.k, c.n, c.t) == (100, 3, 50000, 1)
        assert (c.eps, c.delta) == (0.95, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(axis="q", values=(1,))
        with pytest.raises(ValueError):
            ExperimentConfig(axis="k", values=())
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(normalize="zscore")
        with pytest.raises(ValueError, match="calibration must be auto"):
            ExperimentConfig(calibration="general", gamma=0.3)  # gamma is used as given
        # t, k, d and n sweep values follow ProtocolParams' integer rule
        for axis, value in (("d", 50.7), ("k", 2.9), ("t", True), ("n", "5000")):
            with pytest.raises(ValueError, match=re.escape(repr(value))):
                ExperimentConfig(axis=axis, values=(value,))
        with pytest.raises(ValueError, match="axis"):
            ExperimentConfig(values=(50,))  # values without an axis

    @pytest.mark.parametrize("mode", ["t1", "manual"])
    def test_only_auto_and_general_calibration(self, mode):
        # t and gamma already pick the t1 and manual analyses
        with pytest.raises(ValueError, match=re.escape("('auto', 'general')")):
            ExperimentConfig(calibration=mode, gamma=0.3)

    @pytest.mark.parametrize("name", ["d", "k", "n", "t", "trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_integer_settings_must_be_integers(self, name, value):
        # checked when the config is built, before any calibration or trial
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            ExperimentConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentConfig(seed=-1)

    @pytest.mark.parametrize("gamma", [1.5, -0.5, float("nan")])
    def test_gamma_outside_unit_interval_rejected(self, gamma):
        with pytest.raises(ValueError, match=re.escape(f"gamma must be in [0, 1], got {gamma}")):
            ExperimentConfig(gamma=gamma)

    def test_sweep_values_take_the_axis_type(self):
        (d,) = ExperimentConfig(axis="d", values=(np.int64(50),)).values
        (eps,) = ExperimentConfig(axis="eps", values=(np.float64(0.5),)).values
        assert (type(d), d) == (int, 50) and (type(eps), eps) == (float, 0.5)


class TestResolvePoint:
    def test_auto_mode_prefers_tightened_t1(self):
        params, budget, mode = resolve_point(ExperimentConfig())
        assert mode == "t1"
        assert params.k == 3  # no sweep axis: configured k is kept
        assert params.gamma == pytest.approx(0.17052972638400138, rel=1e-12)

    def test_auto_mode_general_for_larger_t(self):
        cfg = ExperimentConfig(t=2, d=10, k=1, n=50000, eps=0.8, delta=0.3)
        params, _, mode = resolve_point(cfg)
        assert mode == "general"
        assert params.t == 2

    def test_manual_gamma_passthrough(self):
        cfg = ExperimentConfig(gamma=0.3)
        params, _, mode = resolve_point(cfg)
        assert mode == "manual" and params.gamma == 0.3

    @pytest.mark.parametrize(
        "over, want",
        [
            ({}, "t1"),
            ({"t": 2}, "general"),
            ({"calibration": "general"}, "general"),
            ({"calibration": "general", "t": 2}, "general"),
            ({"gamma": 0.3, "t": 2}, "manual"),
        ],
    )
    def test_mode_follows_t_and_gamma(self, over, want):
        _, _, mode = resolve_point(ExperimentConfig(**over))
        assert mode == want

    def test_general_k_rechosen_on_fitted_axes(self):
        # t > 1 on a d sweep: k comes from choose_k_general (2 at d = 50,
        # where the configured k is 3 and choose_k_t1 also gives 3)
        cfg = ExperimentConfig(t=2, axis="d", values=(50, 100))
        params, budget, mode = resolve_point(cfg, 50)
        assert mode == "general"
        assert params.k == choose_k_general(budget, 50, cfg.n, 2) == 2
        assert choose_k_t1(budget, 50, cfg.n) == 3
        assert params.gamma == calibrate_gamma(budget, 50, 2, cfg.n, 2, "general")

    def test_gamma_one_is_infeasible(self):
        with pytest.raises(InfeasibleParametersError, match="no truthful signal"):
            resolve_point(ExperimentConfig(gamma=1.0))

    def test_auto_k_only_on_fitted_axes(self):
        cfg = ExperimentConfig(axis="d", values=(50, 100))
        params, _, _ = resolve_point(cfg, 100)
        assert params.k == 2  # re-chosen, not the configured 3
        cfg = ExperimentConfig(axis="k", values=(2,))
        params, _, _ = resolve_point(cfg, 2)
        assert params.k == 2
        cfg = ExperimentConfig(axis="d", values=(50, 100), gamma=0.3)
        params, _, _ = resolve_point(cfg, 100)
        assert (params.k, params.gamma) == (3, 0.3)  # a set gamma keeps k

    def test_infeasible_point_raises(self):
        cfg = ExperimentConfig(d=100, n=2000, eps=0.5, delta=0.1)
        with pytest.raises(InfeasibleParametersError):
            resolve_point(cfg)


class TestRunTrial:
    def test_reproducible_from_seed(self):
        params = ProtocolParams(d=5, k=2, n=300, t=1, gamma=0.2)
        matrix = np.random.default_rng(0).random((300, 5))
        seed = trial_seed(7, 0, 3)
        a = run_trial(matrix, params, np.random.default_rng(seed))
        b = run_trial(matrix, params, np.random.default_rng(seed))
        assert a.normalized_mse == b.normalized_mse
        assert a.total_squared_error == b.total_squared_error

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("d", [4, 9])
    @pytest.mark.parametrize("rows", [7, 1])
    def test_table_trial_matches_dense_composition(self, rows, t, d):
        # 7 raw rows (or one) recycled over n = 50 users (not a multiple of
        # 7), with columns truncated (d = 4) or zero-padded (d = 9): the
        # small table, the dense (n, d) matrix and the dense composition that
        # shuffled before analyzing all give bitwise the same result; n users
        # fit in one block, whose true sums run_trial adds in the block's
        # (t, n) order, so the reference adds them in that order too
        raw = np.random.default_rng(4).random((rows, 6))
        params = ProtocolParams(d=d, k=2, n=50, t=t, gamma=0.3)
        dense = np.resize(fit_matrix(raw, rows, d), (params.n, d))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            coords, values = randomize_batch(dense, params, rng)
            sampled = np.take_along_axis(dense, coords, axis=1)
            truth = np.bincount(coords.T.ravel(), weights=sampled.T.ravel(), minlength=d)
            est = analyze_arrays(*shuffle(coords, values, rng), params)
            want = empirical_mse(est, truth, params)
            for data in (fit_matrix(raw, rows, d), dense):
                got = run_trial(data, params, np.random.default_rng(seed))
                assert got.total_squared_error == want.total_squared_error
                assert got.normalized_mse == want.normalized_mse

    @pytest.mark.parametrize("t", [1, 3, 6])
    def test_blocks_match_the_whole_batch(self, t, monkeypatch):
        # 18 entries per block: n = 50 users in blocks of 18, 18, 14 at
        # t = 1, eight of 6 plus one of 2 at t = 3, and sixteen of 3 plus
        # one of 2 at t = d = 6, where Floyd's replacement step fires in
        # every column.  The trial counts its blocks unchecked; joined, they
        # pass the analyzer's validator.  Summed block by block, the trial's
        # estimates equal the analyzer's on the whole shuffled batch bit for
        # bit; its true sums are added in another order, so the MSE matches
        # to rounding
        monkeypatch.setattr(protocol, "BLOCK_ENTRIES", 18)
        debiased, debias = [], protocol._debias

        def spy(totals, counts, params):
            debiased.append((counts, debias(totals, counts, params)))
            return debiased[-1][1]

        monkeypatch.setattr(protocol, "_debias", spy)
        raw = np.random.default_rng(4).random((7, 6))
        params = ProtocolParams(d=6, k=2, n=50, t=t, gamma=0.3)
        dense = np.resize(raw, (params.n, params.d))
        for seed in range(3):
            rng = np.random.default_rng(seed)
            coords, values = randomize_batch(dense, params, rng)
            sampled = np.take_along_axis(dense, coords, axis=1)
            truth = np.bincount(coords.ravel(), weights=sampled.ravel(), minlength=params.d)
            est = analyze_arrays(*shuffle(coords, values, rng), params)
            got = run_trial(raw, params, np.random.default_rng(seed))
            counts, estimates = debiased[-1]
            assert np.array_equal(estimates, est)
            assert np.array_equal(counts, np.bincount(coords.ravel(), minlength=params.d))
            want = empirical_mse(est, truth, params).normalized_mse
            assert got.normalized_mse == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc", reason="the page reuse relies on glibc malloc's trimming"
    )
    def test_trials_do_not_refault_their_memory(self):
        # Each trial reuses the pages of the one before: after two warm-up
        # trials, 20 trials at n = 200 000 take at most 100 minor page
        # faults each (allocating fresh (n, t) arrays per trial took ~3.5k).
        # A fresh interpreter, so that the test process's own heap does not
        # count, without allocator settings or preloads from the environment.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from shufflesum import ProtocolParams, run_trial
            table = np.random.default_rng(0).random((800, 100))
            params = ProtocolParams(d=100, k=3, n=200_000, t=1, gamma=0.17)
            for seed in range(2):
                run_trial(table, params, np.random.default_rng(seed))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for seed in range(2, 22):
                run_trial(table, params, np.random.default_rng(seed))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("MALLOC_") and key not in ("LD_PRELOAD", "GLIBC_TUNABLES")
        }
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=120, check=True,
        )
        assert int(proc.stdout) <= 20 * 100

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (0, 5), (11, 5)])
    def test_rejects_bad_table(self, shape):
        # not 2-D, a column count other than d, no rows, more rows than n
        params = ProtocolParams(d=5, k=2, n=10, t=1, gamma=0.2)
        with pytest.raises(ValueError, match="table shape"):
            run_trial(np.zeros(shape), params, np.random.default_rng(0))

    def test_trial_seeds_are_distinct(self):
        seeds = {trial_seed(0, p, t) for p in range(10) for t in range(10)}
        assert len(seeds) == 100
        assert trial_seed(0, 1, 2) != trial_seed(1, 0, 2)

    @pytest.mark.parametrize("bad", [2.5, True])
    @pytest.mark.parametrize("field", ["master_seed", "point_index", "trial_index"])
    def test_trial_seed_rejects_non_integers(self, field, bad):
        # int() would truncate 1.7 and True to 1, so two cells would share a seed
        cell = {"master_seed": 1, "point_index": 0, "trial_index": 0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            trial_seed(**cell)


# Traced by perfbench/spans.py but no longer bound there; their per-layer
# metrics read 0 until the spans are updated.  The first three went with
# the sampled audit, which the exact audit replaced.  The harness binds
# neither randomize_batch nor analyze_arrays, since run_trial runs the whole
# round through protocol._simulate_round, which samples, counts each block
# of users and debiases the totals once; so the metrics still named
# randomizer.randomize_batch and aggregation.analyze_arrays read 0 until a
# span wraps that round.  The harness binds the one bound_mse, so the
# spans on bound_mse_t1 and bound_mse_general, accuracy.bound_mse, read 0 too.
RETIRED_BINDINGS = {
    "shufflesum.cli.monte_carlo_audit",
    "shufflesum.audit.monte_carlo_audit",
    "shufflesum.audit.simulate_outcome_counts",
    "shufflesum.harness.randomize_batch",
    "shufflesum.harness.analyze_arrays",
    "shufflesum.harness.bound_mse_t1",
    "shufflesum.harness.bound_mse_general",
}


def test_benchmark_traced_bindings_exist():
    # perfbench/spans.py wraps these module attributes to time each layer;
    # a renamed one would silently make its per-layer metric read 0.  The
    # file is loaded by path and the tracer is not installed.  Exactly the
    # retired bindings may be missing, and none of them may come back.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        f"{module}.{attr}"
        for module, attr, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    assert spans.TARGETS and missing == RETIRED_BINDINGS


def test_cli_import_loads_no_scipy_and_all_that_main_needs(tmp_path):
    # perfbench/child.py times `import shufflesum.cli` as set-up and one
    # `main` call as the run: a module first loaded inside main would move
    # set-up cost into the run's wall time.  A fresh interpreter, so that
    # what this test session has loaded does not count.
    audit_tiny = [
        "audit", "--n", "10", "--d", "1", "--k", "1", "--t", "1", "--eps", "0.99",
        "--delta", "0.9", "--calibration", "general", "--trials", "1000000", "--seed", "0",
    ]
    data = tmp_path / "tiny.csv"
    data.write_text("0.1,0.9\n0.5,0.3\n0.7,0.2\n")
    run = [
        "run", "--n", "10000", "--d", "2", "--k", "1", "--eps", "1", "--delta", "1e-5",
        "--trials", "1", "--dataset", str(data),
    ]
    ingest_check = ["ingest-check", "--dataset", str(data), "--normalize", "minmax"]
    sweep = [
        "sweep", "--n", "10000", "--d", "2", "--eps", "1", "--delta", "1e-5", "--trials", "1",
        "--dataset", str(data), "--axis", "d", "--values", "1,2,3",
        "--out-dir", str(tmp_path / "out"),
    ]
    script = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import shufflesum.cli
        loaded = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in json.loads(sys.argv[1]):
                assert shufflesum.cli.main(argv) == 0
        print(json.dumps({
            "scipy": sorted(m for m in loaded if m.split(".")[0] == "scipy"),
            "new": sorted(set(sys.modules) - loaded),
        }))
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argvs = [["params"], audit_tiny, run, ingest_check, sweep]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {"scipy": [], "new": []}


def _small_sweep_config(tmp_path=None, **over):
    base = dict(
        d=5,
        k=2,
        n=2000,
        eps=0.6,
        delta=0.5,
        axis="eps",
        values=(0.05, 0.6, 0.9),
        trials=3,
        seed=11,
    )
    base.update(over)
    return ExperimentConfig(**base)


@pytest.fixture()
def small_matrix():
    return np.random.default_rng(5).random((50, 5)) * 0.5


class TestRunSweep:
    def test_infeasible_points_skipped_with_reason(self, small_matrix):
        cfg = _small_sweep_config()
        with pytest.warns(UserWarning):  # delta >= 1/n
            result = run_sweep(cfg, matrix=small_matrix)
        statuses = {s["value"]: s["status"] for s in result.summary}
        assert statuses[0.05] == "skipped"
        assert statuses[0.6] == "ok" and statuses[0.9] == "ok"
        (skipped_row,) = [s for s in result.summary if s["status"] == "skipped"]
        assert skipped_row["value"] == 0.05 and skipped_row["reason"]

    @pytest.mark.parametrize("shape", [(3, 0), (0, 5), (5,)])
    def test_rejects_empty_or_flat_matrix(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            run_sweep(_small_sweep_config(), matrix=np.zeros(shape))

    def test_delta_warning_uses_the_largest_swept_n(self, small_matrix):
        # every point has delta >= 1/n although the configured n does not
        cfg = _small_sweep_config(
            n=100, axis="n", values=(100000, 200000, 400000), delta=1e-3, trials=1
        )
        with pytest.warns(UserWarning, match="1/n = 2.5e-06") as record:
            run_sweep(cfg, matrix=small_matrix)
        assert len(record) == 1

    def test_all_points_infeasible_raises(self, small_matrix):
        cfg = _small_sweep_config(values=(0.01, 0.02))
        with pytest.warns(UserWarning), pytest.raises(InfeasibleParametersError) as info:
            run_sweep(cfg, matrix=small_matrix)
        reason = r"t=1 calibration: required blanket probability [\d.]+ is not below 1; [^)]*"
        assert re.fullmatch(
            rf"no feasible sweep points: eps=0.01 \({reason}\), eps=0.02 \({reason}\)",
            str(info.value),
        )

    def test_single_point_run_shape(self, small_matrix):
        cfg = ExperimentConfig(d=5, k=2, n=5000, eps=0.6, delta=1e-4, trials=4, seed=0)
        result = run_sweep(cfg, matrix=small_matrix)
        assert len(result.summary) == 1
        assert len(result.rows) == 4
        assert result.exponent is None

    def test_general_calibration_at_t1_is_scored_against_general_bound(self, dataset):
        # gamma from the general calibration carries the general bound even
        # at t = 1 (the tightened t = 1 bound, 0.122 here, sits below the
        # measured MSE); a set gamma carries it too
        cfg = ExperimentConfig(t=1, calibration="general", eps=4.0, trials=20)
        with pytest.warns(UserWarning):  # delta >= 1/n
            (point,) = run_sweep(cfg, matrix=dataset).summary
        params, budget, _ = resolve_point(cfg)
        assert point["bound_mse"] == bound_mse(params, budget, "general")
        assert point["mean_normalized_mse"] <= point["bound_mse"]
        manual = replace(cfg, calibration="auto", gamma=params.gamma, trials=1)
        with pytest.warns(UserWarning):
            (point,) = run_sweep(manual, matrix=dataset).summary
        assert point["bound_mse"] == bound_mse(params, budget, "general")

    def test_sweep_isolation_and_exponent(self, small_matrix):
        cfg = _small_sweep_config(
            axis="n", values=(5000, 10000, 20000), delta=1e-4, trials=2
        )
        with pytest.warns(UserWarning):  # delta >= 1/n at n = 20000
            result = run_sweep(cfg, matrix=small_matrix)
        assert result.exponent is not None and result.r_squared is not None
        # non-axis parameters identical across points
        for s in result.summary:
            assert s["trials"] == 2
        assert {r["axis"] for r in result.rows} == {"n"}

    def test_invalid_point_fails_before_any_trial(self, small_matrix, monkeypatch):
        # t = 9 > d = 5 is invalid; the t = 1 and t = 2 points must not run
        calls = []
        real = harness.run_trial

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "run_trial", counted)
        cfg = _small_sweep_config(axis="t", values=(1, 2, 9), n=20000, eps=0.9)
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="t must be in"):
            run_sweep(cfg, matrix=small_matrix)
        assert len(calls) == 0

    def test_rows_replayable_from_stored_seed(self, small_matrix):
        cfg = _small_sweep_config(values=(0.6, 0.9), trials=2)
        with pytest.warns(UserWarning):
            result = run_sweep(cfg, matrix=small_matrix)
        for row in result.rows:
            params, _, _ = resolve_point(cfg, float(row["value"]))
            data = fit_matrix(small_matrix, params.n, params.d)
            redo = run_trial(data, params, np.random.default_rng(row["seed"]))
            assert redo.normalized_mse == row["normalized_mse"]


class TestEmitOutputs:
    def test_round_trip_and_determinism(self, small_matrix, tmp_path):
        cfg = _small_sweep_config(
            axis="n", values=(5000, 10000, 20000), delta=1e-4, trials=2
        )
        with pytest.warns(UserWarning):  # delta >= 1/n at n = 20000
            result = run_sweep(cfg, matrix=small_matrix)
        paths = emit_outputs(result, tmp_path / "out1")
        assert set(paths) == {"long", "summary", "plot"}
        with open(paths["long"], newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == LONG_HEADER
        assert len(rows) == len(result.rows)
        for got, want in zip(rows, result.rows):
            assert int(got["seed"]) == want["seed"]
            assert float(got["normalized_mse"]) == want["normalized_mse"]
        # re-running the identical config is byte-identical
        with pytest.warns(UserWarning):
            result2 = run_sweep(cfg, matrix=small_matrix)
        paths2 = emit_outputs(result2, tmp_path / "out2")
        assert Path(paths["long"]).read_bytes() == Path(paths2["long"]).read_bytes()
        assert (
            Path(paths["summary"]).read_bytes() == Path(paths2["summary"]).read_bytes()
        )

    def test_skipped_point_left_out_of_plot(self, small_matrix, tmp_path):
        cfg = _small_sweep_config(values=(0.05, 0.6, 0.75, 0.9), trials=2)
        with pytest.warns(UserWarning):  # delta >= 1/n
            result = run_sweep(cfg, matrix=small_matrix)
        assert [s["status"] for s in result.summary] == ["skipped", "ok", "ok", "ok"]
        paths = emit_outputs(result, tmp_path / "out")
        with open(paths["plot"], newline="") as fh:
            plotted = list(csv.DictReader(fh))
        assert [float(row["value"]) for row in plotted] == [0.6, 0.75, 0.9]
        # the curve is the power law fitted to the ok points' means alone
        ok = result.summary[1:]
        exponent, _, amplitude = fit_power_law(
            [s["value"] for s in ok], [s["mean_normalized_mse"] for s in ok]
        )
        assert exponent == result.exponent
        assert [float(row["fitted"]) for row in plotted] == [
            amplitude * s["value"] ** exponent for s in ok
        ]
        with open(paths["summary"], newline="") as fh:
            skipped, *reached = csv.DictReader(fh)
        assert skipped["status"] == "skipped" and skipped["reason"]
        unreached = ("k", "gamma", "mean_normalized_mse", "stderr_normalized_mse", "bound_mse")
        assert [skipped[column] for column in unreached] == [""] * len(unreached)
        assert [row["reason"] for row in reached] == ["", "", ""]

    def test_plot_file_only_for_fitted_axes(self, small_matrix, tmp_path):
        cfg = ExperimentConfig(
            d=5, k=2, n=5000, eps=0.6, delta=1e-4, axis="k", values=(1, 2), trials=2
        )
        result = run_sweep(cfg, matrix=small_matrix)
        paths = emit_outputs(result, tmp_path / "out")
        assert "plot" not in paths

    def test_output_without_a_fit_removes_a_stale_plot(self, small_matrix, tmp_path):
        # a run written where a sweep was must not leave the sweep's curve
        # beside its own summary
        sweep = _small_sweep_config(axis="n", values=(5000, 10000, 20000), delta=1e-4, trials=1)
        with pytest.warns(UserWarning):  # delta >= 1/n at n = 20000
            emit_outputs(run_sweep(sweep, matrix=small_matrix), tmp_path)
        assert (tmp_path / "plot.csv").exists()
        single = ExperimentConfig(d=5, k=2, n=5000, eps=0.6, delta=1e-4, trials=1)
        paths = emit_outputs(run_sweep(single, matrix=small_matrix), tmp_path)
        assert "plot" not in paths
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.csv", "summary.csv"]

    @pytest.mark.parametrize(
        "over", [{"eps": np.float64(0.5)}, {"gamma": np.float64(0.2)}], ids=["eps", "gamma"]
    )
    def test_numpy_float_cells_read_back_as_held(self, small_matrix, tmp_path, over):
        # a numpy eps (from np.linspace, say) makes gamma and the bound numpy
        # floats, and a set numpy gamma is used as given
        cfg = ExperimentConfig(d=5, k=2, n=50000, delta=1e-5, trials=2, **over)
        result = run_sweep(cfg, matrix=small_matrix)
        assert type(result.summary[0]["gamma"]) is np.float64
        assert type(result.summary[0]["bound_mse"]) is np.float64
        paths = emit_outputs(result, tmp_path)
        for name, held in (("long", result.rows), ("summary", result.summary)):
            with open(paths[name], newline="") as fh:
                for got, want in zip(csv.DictReader(fh), held, strict=True):
                    for column in {"gamma", "bound_mse"} & got.keys():
                        assert float(got[column]) == want[column]

    def test_empty_results_rejected(self, tmp_path):
        from shufflesum import SweepResult

        with pytest.raises(ValueError):
            emit_outputs(SweepResult(), tmp_path)


# One sample per ExperimentConfig field: its flag/config-file text and the
# value the built config must hold.
_SETTINGS = {
    "d": ("60", 60),
    "k": ("4", 4),
    "n": ("1234", 1234),
    "t": ("2", 2),
    "eps": ("0.7", 0.7),
    "delta": ("0.01", 0.01),
    "axis": ("n", "n"),
    "values": ("5000,6000", (5000, 6000)),
    "trials": ("7", 7),
    "seed": ("9", 9),
    "dataset": ("data.csv", "data.csv"),
    "drop_label": ("yes", True),
    "normalize": ("minmax", "minmax"),
    "calibration": ("general", "general"),
    "gamma": ("0.3", 0.3),
    "out_dir": ("out", "out"),
}


class _Built(Exception):
    """Carries the config that main handed to the command."""


def _built_config(monkeypatch, argv):
    def capture(config):
        raise _Built(config)

    monkeypatch.setitem(cli.COMMANDS, argv[0], capture)
    with pytest.raises(_Built) as caught:
        main(argv)
    return caught.value.args[0]


class TestCli:
    def test_params_subcommand(self, capsys):
        code = main(
            ["params", "--d", "10", "--k", "1", "--n", "10001", "--eps", "0.5", "--delta", "0.1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "t1" in out and "gamma=" in out
        # gamma comes from the t = 1 rule at the whole budget, which no fold splits
        assert "epsilon'" not in out

    def test_params_prints_the_per_coordinate_budget_of_general_mode(self, capsys):
        argv = ["params", "--t", "2", "--d", "10", "--k", "1", "--n", "1000000"]
        assert main([*argv, "--eps", "0.5", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "calibration mode: general\n" in out
        assert "per-coordinate epsilon'=0.0823762786227826 delta'=0.05\n" in out

    def test_params_with_gamma_uses_it(self, capsys):
        assert main(["params", "--gamma", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "calibration mode: manual\n" in out and "gamma=0.3\n" in out
        assert "epsilon'" not in out  # a set gamma reads no budget

    @pytest.mark.parametrize("mode", ["t1", "manual"])
    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_removed_calibration_modes_exit_1(self, tmp_path, capsys, mode, form):
        if form == "flag":
            argv = ["params", "--calibration", mode, "--gamma", "0.3"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"calibration={mode}\ngamma=0.3\n")
            argv = ["params", "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "'auto'" in err and "'general'" in err

    def test_gamma_with_general_calibration_exits_1(self, capsys):
        assert main(["params", "--calibration", "general", "--gamma", "0.3"]) == 1
        assert "calibration must be auto" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["1.5", "-0.5", "nan"])
    def test_gamma_outside_unit_interval_exits_1(self, gamma, capsys):
        assert main(["params", "--gamma", gamma]) == 1
        assert "gamma must be in [0, 1]" in capsys.readouterr().err

    def test_gamma_one_exits_2(self, capsys):
        assert main(["params", "--gamma", "1"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_infeasible_exit_code(self):
        code = main(
            ["params", "--d", "100", "--k", "3", "--n", "2000", "--eps", "0.5", "--delta", "0.1"]
        )
        assert code == 2

    def test_infeasible_run_gives_the_reason_params_gives(self, tmp_path, capsys):
        data = tmp_path / "x.csv"
        data.write_text("0.5,0.25,1\n0.75,0.5,0\n")
        flags = ["--t", "1", "--n", "100", "--d", "5", "--trials", "2"]
        assert main(["params", *flags]) == 2
        reason = capsys.readouterr().err.removeprefix("infeasible parameters: ")
        assert reason.startswith("t=1 calibration: required blanket probability 4.30622 ")
        with pytest.warns(UserWarning):  # delta >= 1/n
            assert main(["run", *flags, "--dataset", str(data), "--drop-label"]) == 2
        assert capsys.readouterr().err == (
            f"infeasible parameters: no feasible sweep points: {reason}"
        )

    def test_usage_exit_codes(self):
        assert main(["no-such-command"]) == 1
        assert main(["sweep", "--d", "5"]) == 1  # missing axis/values
        assert main(["run", "--d", "not-an-int"]) == 1

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["run", "--n", "0"], 0),
            (["sweep", "--axis", "n", "--values", "0,-5"], 0),
            (["run", "--n", "-3"], -3),
        ],
        ids=["run-n0", "sweep-n0", "run-n-3"],
    )
    def test_nonpositive_n_is_a_usage_error(self, tmp_path, capsys, argv, n):
        # no 1/n is taken before the points are checked: no ZeroDivisionError,
        # and no delta warning that quotes a negative 1/n
        data = tmp_path / "x.csv"
        data.write_text("0.5,0.25\n0.75,0.5\n")
        flags = ["--d", "2", "--k", "1", "--trials", "1", "--dataset", str(data)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *flags]) == 1
        assert capsys.readouterr().err == f"error: n must be >= 2, got {n}\n"

    def test_io_exit_code(self, tmp_path):
        code = main(
            ["run", "--dataset", str(tmp_path / "missing.csv"), "--trials", "1"]
        )
        assert code == 3

    def test_ingest_check(self, signal_csv, capsys):
        code = main(
            ["ingest-check", "--dataset", str(signal_csv), "--drop-label"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "800 rows x 187 columns" in out

    def test_ingest_check_needs_a_dataset(self, capsys):
        assert main(["ingest-check"]) == 1
        assert capsys.readouterr().err == "error: ingest-check requires --dataset\n"

    @pytest.mark.parametrize(
        "argv", [["run"], ["sweep", "--axis", "d", "--values", "50"]], ids=["run", "sweep"]
    )
    def test_run_and_sweep_need_a_dataset(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[0]} requires --dataset\n"

    def test_ingest_check_oversized_cell_is_one_error_line(self, tmp_path, capsys):
        # a cell over the csv module's field limit raises csv.Error, which is
        # no ValueError: unless re-raised as one, main prints a traceback
        p = tmp_path / "big.csv"
        p.write_text("0.1," + "1" * 140_000 + "\n")
        assert main(["ingest-check", "--dataset", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{p}: unreadable CSV at line 1: field larger than field limit" in err

    def test_sweep_writes_outputs(self, signal_csv, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        with pytest.warns(UserWarning):  # delta >= 1/n at n = 10000
            code = main(
                [
                    "sweep",
                    "--dataset", str(signal_csv),
                    "--drop-label",
                    "--d", "5", "--k", "2", "--n", "5000",
                    "--eps", "0.6", "--delta", "0.0001",
                    "--axis", "n", "--values", "5000,10000",
                    "--trials", "2", "--seed", "3",
                    "--out-dir", str(out_dir),
                ]
            )
        assert code == 0
        assert (out_dir / "long.csv").exists()
        assert (out_dir / "summary.csv").exists()
        header = (out_dir / "long.csv").read_text().splitlines()[0]
        assert header == "axis,value,trial,seed,total_sq_err,normalized_mse,bound_mse"

    def test_sweep_prints_skipped_point_and_fitted_exponent(self, tmp_path, capsys):
        data = tmp_path / "half.csv"
        data.write_text("0.5,0.25\n0.75,0.5\n")
        argv = [
            "sweep", "--dataset", str(data), "--d", "5", "--k", "2", "--n", "2000",
            "--eps", "0.6", "--axis", "eps", "--values", "0.05,0.6,0.9,1.2", "--trials", "1",
        ]
        with pytest.warns(UserWarning):  # delta >= 1/n
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert "eps=0.05 skipped: t=1 calibration: required blanket probability" in out
        assert re.search(r"^fitted exponent: -?\d+\.\d{4} \(r\^2 \d\.\d{4}\)$", out, re.M)

    @pytest.mark.parametrize(
        "flags, rows",
        [
            # constant xs: every point at the same eps
            (["--axis", "eps", "--values", "0.5,0.5,0.5", "--drop-label"], None),
            # a mean MSE of 0: all-zero users and no blanket
            (["--axis", "d", "--values", "2,3,4", "--n", "100", "--gamma", "0"], "0,0\n0,0\n"),
        ],
        ids=["constant-xs", "zero-mse"],
    )
    def test_sweep_without_a_fit_keeps_its_trials(
        self, signal_csv, tmp_path, capsys, flags, rows
    ):
        data = signal_csv
        if rows is not None:
            data = tmp_path / "zeros.csv"
            data.write_text(rows)
        out_dir = tmp_path / "out"
        argv = ["sweep", *flags, "--dataset", str(data), "--trials", "2", "--out-dir", str(out_dir)]
        with pytest.warns(UserWarning):  # delta >= 1/n
            assert main(argv) == 0
        assert "fitted exponent" not in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.iterdir()) == ["long.csv", "summary.csv"]
        assert len((out_dir / "long.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_config_line_without_equals_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("d=5\nverbose\n")
        assert main(["run", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: expected key=value, got 'verbose'" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, signal_csv, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "d=5\nk=2\nn=5000\neps=0.6\ndelta=0.0001\ntrials=2\nseed=1\n"
            f"dataset={signal_csv}\ndrop_label=true\n"
        )
        code = main(["run", "--config", str(cfg), "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mse=" in out

    @pytest.mark.parametrize(
        "command, sweep_flags",
        [
            ("run", []),
            ("params", []),
            ("run", ["--axis", "d", "--values", "50"]),
            ("params", ["--axis", "d", "--values", "50"]),
        ],
        ids=["run", "params", "run-flags", "params-flags"],
    )
    def test_config_file_sweep_keys_need_sweep(
        self, signal_csv, tmp_path, command, sweep_flags, capsys
    ):
        # without the check, run would quietly run one point and exit 0;
        # the sweep keys come from the file, or else from the flags
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "d=5\nk=2\nn=5000\neps=0.6\ndelta=0.0001\ntrials=1\n"
            f"dataset={signal_csv}\ndrop_label=true\n"
            + ("" if sweep_flags else "axis=d\nvalues=50,100,200\n")
        )
        assert main([command, "--config", str(cfg), *sweep_flags]) == 1
        assert "sweep" in capsys.readouterr().err

    def test_bad_config_file_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate=3\n")
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "line", ["drop_label=ture", "d=5.0", "eps=high", "normalize=zscore", "axis=q"]
    )
    def test_bad_config_file_value(self, tmp_path, line, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# one bad line\n{line}\n")
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and line.partition("=")[0] in err

    def test_bad_sweep_value_flag_names_values_axis_and_type(self, capsys):
        assert main(["sweep", "--axis", "d", "--values", "50,50.7"]) == 1
        err = capsys.readouterr().err
        assert "bad value for values: '50.7' is not a valid int for axis d" in err

    def test_bad_sweep_value_in_config_file_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("axis=eps\nvalues=0.5,high\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2: bad value for values: 'high' is not a valid float for axis eps" in err

    @pytest.mark.parametrize("text", ["1", "TRUE", "Yes", "0", "false", "NO"])
    def test_config_file_booleans(self, tmp_path, monkeypatch, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"drop_label={text}\n")
        config = _built_config(monkeypatch, ["run", "--config", str(cfg)])
        assert config.drop_label is (text.lower() in ("1", "true", "yes"))

    @pytest.mark.parametrize("form", ["flag", "file"])
    @pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path, monkeypatch, name, form):
        # a field without a sample here fails with KeyError: add one
        sweep = name in ("axis", "values")
        names = ("axis", "values") if sweep else (name,)
        argv = ["sweep" if sweep else "run"]
        if form == "file":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("".join(f"{n}={_SETTINGS[n][0]}\n" for n in names))
            argv += ["--config", str(cfg)]
        else:
            for n in names:
                flag = "--" + n.replace("_", "-")
                argv += [flag] if n == "drop_label" else [flag, _SETTINGS[n][0]]
        config = _built_config(monkeypatch, argv)
        want = _SETTINGS[name][1]
        assert getattr(config, name) == want
        assert type(getattr(config, name)) is type(want)

    def test_audit_pass_and_fail(self):
        passing = main(
            [
                "audit",
                "--n", "6", "--d", "1", "--k", "1", "--t", "1",
                "--eps", "0.5", "--delta", "0.05",
                "--gamma", "0.9",
                "--trials", "200000", "--seed", "0",
            ]
        )
        assert passing == 0
        failing = main(
            [
                "audit",
                "--n", "6", "--d", "1", "--k", "1", "--t", "1",
                "--eps", "0.5", "--delta", "0.05",
                "--gamma", "0.0",
                "--trials", "50000", "--seed", "0",
            ]
        )
        assert failing == 4

    def test_audit_without_trials_gives_a_verdict(self, capsys):
        # the benchmark's audit_tiny argv, without --trials
        argv = [
            "audit",
            "--n", "10", "--d", "1", "--k", "1", "--t", "1",
            "--eps", "0.99", "--delta", "0.9", "--calibration", "general",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert "PASS" in first.split()
