"""Tests of the benchmark itself: span arithmetic, output checks, and that
tracing leaves the program's random streams untouched.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def _span(name, start, end, parent=None, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "pass": 0, **extra}


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("harness.run_trial", 1.0, 4.0, parent=0),
        _span("harness.fit_matrix", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span("randomizer.randomize_batch", 1.5, 2.0, parent=1),
        _span("aggregation.analyze_arrays", 2.5, 3.5, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 3.0, 0.5, 1.0])


def test_layer_metrics_from_span_tree():
    first = {
        "wall_s": 1.0,
        "spans": [
            _span("harness.run_trial", 0.0, 0.010),
            _span("randomizer.randomize_batch", 0.001, 0.004, parent=0, peak_mb=3.0),
            _span("harness.run_trial", 0.020, 0.026),
            _span("randomizer.randomize_batch", 0.021, 0.025, parent=2, peak_mb=5.0),
            _span("audit.simulate_outcome_counts", 0.03, 0.04, len=11),
        ],
    }
    second = dict(first, wall_s=1.5)
    metrics = run.layer_metrics([first, second], [{"wall_s": 1.2}])
    assert metrics["harness.run_trial.calls"] == 2
    assert metrics["harness.run_trial.self_ms"] == pytest.approx(9.0)
    assert metrics["harness.run_trial.ms_p50"] == pytest.approx(6.0)
    assert metrics["harness.run_trial.ms_p90"] == pytest.approx(10.0)
    assert metrics["randomizer.randomize_batch.peak_mb"] == 5.0
    assert metrics["audit.outcomes"] == 11
    assert metrics["harness.fit_matrix.calls"] == 0
    assert metrics["trace.overhead_s"] == pytest.approx(0.05)


def test_tracer_records_spans_and_reports_absent_names(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.outer = lambda: module.inner() + 1
    module.inner = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    monkeypatch.setattr(
        spans,
        "TARGETS",
        (
            ("fake_layer", "outer", "fake.outer"),
            ("fake_layer", "inner", "fake.inner"),
            ("fake_layer", "gone", "fake.gone"),
        ),
    )
    tracer = spans.Tracer(pass_id=7)
    tracer.install()
    assert module.outer() == 2
    assert tracer.absent == ["fake_layer.gone"]
    assert [(s["name"], s["parent"], s["pass"]) for s in tracer.spans] == [
        ("fake.outer", None, 7),
        ("fake.inner", 0, 7),
    ]


def _write_summary(out_dir, mean, bound):
    out_dir.mkdir(parents=True)
    (out_dir / "long.csv").write_text("axis,value\nnone,\n")
    (out_dir / "summary.csv").write_text(
        "axis,value,status,k,gamma,trials,mean_normalized_mse,"
        "stderr_normalized_mse,bound_mse,reason\n"
        f"none,,ok,3,0.17,3,{mean},0.001,{bound},\n"
    )


def _record(tmp_path, name, mean, bound):
    out_dir = tmp_path / name / "out"
    _write_summary(out_dir, mean, bound)
    return {"id": name, "traced": False, "out_dir": out_dir, "exit": 0,
            "stdout": "", "stderr": "", "wall_s": 1.0}


def test_failing_check_counts_as_failed_pass(tmp_path):
    workload = {"uses_corpus": True}
    good = _record(tmp_path, "good", mean=0.01, bound=0.03)
    over = _record(tmp_path, "over", mean=0.05, bound=0.03)
    crashed = _record(tmp_path, "crashed", mean=0.01, bound=0.03)
    crashed.update(exit=1, stderr="Traceback\nValueError: boom\n")
    for record in (good, over, crashed):
        run.check_pass(workload, record)
    assert good["failures"] == []
    assert good["nmse_over_bound"] == pytest.approx(1 / 3)
    assert "mean MSE" in over["failures"][0]
    assert crashed["failures"] == ["exit code 1: ValueError: boom"]

    result = run.result_object([good, over, crashed], {"wall_s": 1.0}, run.E2E_UNITS)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


def test_replay_check_flags_differing_output(tmp_path):
    records = [{"digest": "a", "failures": []}, {"digest": "b", "failures": []}]
    run.check_replay(records)
    assert records[0]["failures"] == []
    assert records[1]["failures"] == ["output differs from the first pass at the same seed"]


def test_sweep_and_audit_checks():
    sweep = {"uses_corpus": False, "exponent_band": [2.0, 3.3]}
    audit = {"uses_corpus": False, "expect_stdout": "PASS"}
    record = {"exit": 0, "wall_s": 1.0, "out_dir": None, "stdout": "fitted exponent: 3.5000 (r^2 0.99)\n"}
    assert run.check_pass(sweep, record) == ["fitted exponent 3.5 outside [2.0, 3.3]"]
    record["stdout"] = "empirical epsilon 0.0000 vs target 0.9900 over 10 trials: FAIL\n"
    assert run.check_pass(audit, record) == ["stdout does not say PASS"]


def test_traced_pass_writes_the_same_long_csv(tmp_path):
    """The wrappers must not draw from, or reorder, any random stream."""
    workload = {"argv": ["run", "--t", "2", "--n", "20000", "--d", "20", "--trials", "3"],
                "uses_corpus": True}
    corpus = tmp_path / "signals.csv"
    run.write_corpus(run.ROOT, 5, corpus)
    plain = run.run_pass(run.ROOT, workload, 5, corpus, tmp_path / "plain", 0, False)
    traced = run.run_pass(run.ROOT, workload, 5, corpus, tmp_path / "traced", 1, True)
    for record in (plain, traced):
        assert run.check_pass(workload, record) == []
    assert traced["digest"] == plain["digest"]
    assert (plain["out_dir"] / "long.csv").read_bytes() == (traced["out_dir"] / "long.csv").read_bytes()
    names = [s["name"] for s in traced["spans"]]
    assert names.count("randomizer.randomize_batch") == 3
    assert traced["absent"] == []


def test_benchmark_json_matches_design():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
