"""End-to-end benchmark of the shufflesum CLI.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads, their argv and sizes and
the per-layer metrics are recorded in design.json next to this file.

The parent process writes the signal corpus for --seed, then runs passes,
one at a time, while another pass fits in --seconds (at least MIN_PASSES).  Each
pass is a fresh single-threaded child (child.py) that receives only the
argv and the corpus CSV, so its set-up time and peak RSS are its own.
Every pass's outputs are checked.  With --trace 0 the last line of stdout
is a JSON object with the end-to-end metrics, medians over the passes.
With --trace 1 passes alternate between untraced and traced, and the
object holds the per-layer metrics from the traced passes plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import self_times  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text())
WORKLOADS = DESIGN["workloads"]
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DESIGN["per_layer"]}
E2E_UNITS = {"wall_s": "s", "rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = 3
MIN_PASSES_TRACED = 4  # two untraced and two traced
PASS_TIMEOUT_S = 150
# Pins BLAS and OpenMP pools in each child to one thread.
SINGLE_THREAD = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


def require_source(root):
    """The program is built from the checkout's source; without it the
    benchmark has nothing to run."""
    missing = [
        p for p in ("src/shufflesum/cli.py", "tests/conftest.py") if not (root / p).is_file()
    ]
    if missing:
        raise SystemExit(f"perfbench: not a shufflesum checkout, missing {', '.join(missing)}")


def write_corpus(root, seed, path):
    """Write the quasi-periodic signal corpus for `seed` as CSV with a
    trailing label column, the way the test fixture `signal_csv` does."""
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("_corpus", root / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    raw = conftest.make_signal_matrix(seed=seed)
    with open(path, "w") as fh:
        for i, row in enumerate(raw):
            fh.write(",".join(repr(float(v)) for v in row) + f",{i % 5}\n")


def child_env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD)
    # setup_s is the import a user pays on every call after the first,
    # which reads cached bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pass_argv(workload, seed, csv_path, out_dir):
    argv = list(workload["argv"]) + ["--seed", str(seed)]
    if workload["uses_corpus"]:
        argv += ["--dataset", str(csv_path), "--drop-label", "--out-dir", str(out_dir)]
    return argv


def run_pass(root, workload, seed, csv_path, pass_dir, pass_id, traced):
    """Run one pass in a child process and return its record (without
    output checks)."""
    pass_dir.mkdir(parents=True)
    out_dir = pass_dir / "out"
    result_path = pass_dir / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(result_path),
        str(pass_id),
        "1" if traced else "0",
        *pass_argv(workload, seed, csv_path, out_dir),
    ]
    record = {"id": pass_id, "traced": traced, "out_dir": out_dir}
    try:
        proc = subprocess.run(
            cmd,
            cwd=pass_dir,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record.update(exit=None, stdout="", stderr=f"timed out after {PASS_TIMEOUT_S} s")
        return record
    record.update(exit=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
        record["exit"] = result.pop("exit")
        record.update(result)
    return record


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_pass(workload, record):
    """Check one pass's outputs.  Fills record["failures"] with the checks
    that failed, and records the determinism digest, the output size and
    the mean MSE-to-bound ratio where they exist."""
    failures = []
    if record["exit"] != 0:
        tail = record["stderr"].strip().splitlines()[-1:] or [""]
        failures.append(f"exit code {record['exit']}: {tail[0]}")
    if "wall_s" not in record:
        failures.append("no measurements from the child")
    out_dir = record["out_dir"]
    if workload["uses_corpus"]:
        try:
            with open(out_dir / "summary.csv", newline="") as fh:
                summary = list(csv.DictReader(fh))
            record["digest"] = _sha256(out_dir / "long.csv")
        except OSError as exc:
            failures.append(f"missing output: {exc}")
            summary = []
        ratios = []
        for row in summary:
            point = f"{row['axis']}={row['value'] or '-'}"
            if row["status"] != "ok":
                failures.append(f"summary point {point} has status {row['status']}")
                continue
            mean, bound = float(row["mean_normalized_mse"]), float(row["bound_mse"])
            ratios.append(mean / bound)
            if not mean <= bound:
                failures.append(f"summary point {point}: mean MSE {mean:.6g} > bound {bound:.6g}")
        if ratios:
            record["nmse_over_bound"] = statistics.fmean(ratios)
        if out_dir.is_dir():
            record["out_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
    else:
        record["digest"] = hashlib.sha256(record["stdout"].encode()).hexdigest()
    band = workload.get("exponent_band")
    if band is not None:
        exponent = _fitted_exponent(record["stdout"])
        if exponent is None or not band[0] <= exponent <= band[1]:
            failures.append(f"fitted exponent {exponent} outside [{band[0]}, {band[1]}]")
    expect = workload.get("expect_stdout")
    if expect is not None and expect not in record["stdout"].split():
        failures.append(f"stdout does not say {expect}")
    record["failures"] = failures
    return failures


def _fitted_exponent(stdout):
    for line in stdout.splitlines():
        if line.startswith("fitted exponent:"):
            return float(line.split()[2])
    return None


def check_replay(records):
    """Passes at one seed must write byte-identical long.csv (the audit's
    verdict line for the audit workload), traced or not."""
    digests = [r.get("digest") for r in records]
    reference = next((d for d in digests if d is not None), None)
    for record, digest in zip(records, digests):
        if digest is not None and digest != reference:
            record["failures"].append("output differs from the first pass at the same seed")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload, measured):
    return {
        "wall_s": _median([r["wall_s"] for r in measured]),
        "rounds_per_s": _median([workload["rounds"] / r["wall_s"] for r in measured]),
        "setup_s": _median([r["setup_s"] for r in measured]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in measured]),
    }


def span_totals(traced):
    """Per traced pass and span name: calls, total ms, self ms, peak MiB
    and summed result length; plus every call's ms by span name."""
    per_pass = []
    per_call = defaultdict(list)
    for record in traced:
        totals = defaultdict(lambda: defaultdict(float))
        for span, self_s in zip(record["spans"], self_times(record["spans"])):
            ms = (span["end"] - span["start"]) * 1e3
            total = totals[span["name"]]
            total["calls"] += 1
            total["ms"] += ms
            total["self_ms"] += self_s * 1e3
            total["peak_mb"] = max(total["peak_mb"], span.get("peak_mb", 0.0))
            total["len"] += span.get("len", 0)
            per_call[span["name"]].append(ms)
        per_pass.append(totals)
    return per_pass, per_call


def largest_self_times(traced, top=3):
    """The span names with the largest median self ms per traced pass."""
    per_pass, _ = span_totals(traced)
    names = {name for totals in per_pass for name in totals}
    medians = {
        name: _median([totals[name]["self_ms"] for totals in per_pass if name in totals])
        for name in names
    }
    return sorted(medians.items(), key=lambda item: -item[1])[:top]


def layer_metrics(traced, untraced):
    """Per-layer metrics from the traced passes: totals per pass are
    reported as the median over passes, per-call times as percentiles over
    all calls of all traced passes."""
    per_pass, per_call = span_totals(traced)

    def per_pass_median(span, stat):
        return _median([totals[span][stat] if span in totals else 0.0 for totals in per_pass])

    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            value = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in untraced])
        elif name == "accuracy.nmse_over_bound":
            value = _median([r.get("nmse_over_bound", 0.0) for r in traced])
        elif name == "harness.emit_outputs.bytes":
            value = _median([r.get("out_bytes", 0) for r in traced])
        elif name == "audit.outcomes":
            value = per_pass_median("audit.simulate_outcome_counts", "len")
        else:
            span, stat = name.rsplit(".", 1)
            if stat in ("ms_p50", "ms_p90"):
                value = percentile(per_call[span], 0.5 if stat == "ms_p50" else 0.9)
            else:
                value = per_pass_median(span, stat)
        metrics[name] = value
    return metrics


def environment_line():
    import numpy
    import scipy

    return (
        f"env: python {sys.version.split()[0]}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {len(os.sched_getaffinity(0))}"
    )


def run(name, seed, seconds, trace, root=ROOT):
    """Run one workload and return (records, metrics)."""
    workload = WORKLOADS[name]
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=work_root))
    try:
        csv_path = work / "signals.csv"
        if workload["uses_corpus"]:
            write_corpus(root, seed, csv_path)
        records = []
        min_passes = MIN_PASSES_TRACED if trace else MIN_PASSES
        durations = []
        start = time.perf_counter()
        # A pass starts only if a typical pass still fits in the window.
        while (
            len(records) < min_passes
            or time.perf_counter() - start + statistics.median(durations) <= seconds
        ):
            pass_id = len(records)
            traced = trace and pass_id % 2 == 1
            began = time.perf_counter()
            record = run_pass(root, workload, seed, csv_path, work / f"pass-{pass_id}", pass_id, traced)
            durations.append(time.perf_counter() - began)
            check_pass(workload, record)
            records.append(record)
            shutil.rmtree(record["out_dir"], ignore_errors=True)
        check_replay(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for r in records if "wall_s" in r]
    traced = [r for r in measured if r["traced"]]
    untraced = [r for r in measured if not r["traced"]]
    if not untraced or (trace and not traced):
        return records, {}
    if trace:
        return records, layer_metrics(traced, untraced)
    return records, end_to_end_metrics(workload, untraced)


def result_object(records, metrics, units):
    """The benchmark's result line: a pass that failed any check counts
    as failed, so failed / attempted is failed_frac."""
    failed = sum(1 for r in records if r["failures"])
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source(ROOT)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    records, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    result = result_object(records, metrics, units)
    traced = [r for r in records if r["traced"] and "spans" in r]
    print(environment_line())
    print(
        f"workload {args.workload}: seed {args.seed}, {result['attempted']} passes "
        f"({len(traced)} traced), {result['failed']} failed, "
        f"failed_frac {result['failed'] / result['attempted']:.4g}"
    )
    for record in records:
        for failure in record["failures"]:
            print(f"check failed: pass {record['id']}: {failure}")
    absent = sorted({a for r in records for a in r.get("absent", ())})
    if absent:
        print(f"absent from this commit, reported as 0: {', '.join(absent)}")
    if not metrics:
        return 1
    if traced:
        wall_ms = _median([r["wall_s"] for r in traced]) * 1e3
        print(
            "largest self time per traced pass: "
            + ", ".join(f"{n} {ms:.1f} ms ({ms / wall_ms:.0%})" for n, ms in largest_self_times(traced))
        )
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    if not args.trace:
        # In the result line only per layer, as accuracy.nmse_over_bound:
        # audit_tiny has no MSE.
        ratios = [r["nmse_over_bound"] for r in records if "nmse_over_bound" in r]
        print(f"nmse_over_bound {_median(ratios):.6g} ratio" if ratios else "nmse_over_bound n/a")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
