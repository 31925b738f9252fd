"""In-memory spans around the calls into shufflesum's layers.

The tracer replaces public functions as they are bound in the
`shufflesum.cli`, `shufflesum.harness` and `shufflesum.audit` namespaces
with wrappers that record one span per call: name, start, end, the span
open when it was called (its parent) and the pass id.  Nothing inside
`src/` is edited, so a call that a module makes through another binding
is not seen.  Self time is computed afterwards from the span tree.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

MIB = 1024.0 * 1024.0

# (module, attribute as bound there, span name).  The span name is the
# layer whose work the call does; resolve_point lives in harness but does
# the per-point calibration.
TARGETS = (
    ("shufflesum.cli", "main", "cli.main"),
    ("shufflesum.cli", "ingest_csv", "harness.ingest_csv"),
    ("shufflesum.cli", "resolve_point", "calibration.resolve_point"),
    ("shufflesum.cli", "run_sweep", "harness.run_sweep"),
    ("shufflesum.cli", "emit_outputs", "harness.emit_outputs"),
    ("shufflesum.cli", "monte_carlo_audit", "audit.monte_carlo_audit"),
    ("shufflesum.harness", "ingest_csv", "harness.ingest_csv"),
    ("shufflesum.harness", "resolve_point", "calibration.resolve_point"),
    ("shufflesum.harness", "fit_matrix", "harness.fit_matrix"),
    ("shufflesum.harness", "run_trial", "harness.run_trial"),
    ("shufflesum.harness", "randomize_batch", "randomizer.randomize_batch"),
    ("shufflesum.harness", "analyze_arrays", "aggregation.analyze_arrays"),
    ("shufflesum.harness", "empirical_mse", "accuracy.empirical_mse"),
    ("shufflesum.harness", "bound_mse_t1", "accuracy.bound_mse"),
    ("shufflesum.harness", "bound_mse_general", "accuracy.bound_mse"),
    ("shufflesum.harness", "fit_power_law", "accuracy.fit_power_law"),
    ("shufflesum.audit", "monte_carlo_audit", "audit.monte_carlo_audit"),
    ("shufflesum.audit", "simulate_outcome_counts", "audit.simulate_outcome_counts"),
)

# Leaf calls whose peak allocation is recorded with tracemalloc.  Tracing
# allocations only inside these calls keeps its cost out of the rest.
PEAK_SPANS = frozenset(
    {"randomizer.randomize_batch", "harness.fit_matrix", "audit.simulate_outcome_counts"}
)
# Calls whose result length is recorded (distinct outcome keys).
LEN_SPANS = frozenset({"audit.simulate_outcome_counts"})


class Tracer:
    """Wraps the TARGETS and keeps one dict per call in `spans`."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.spans = []
        self.absent = []
        self._stack = []

    def install(self):
        """Replace each target binding by a wrapper.  A binding that no
        longer exists is listed in `absent` instead of raising."""
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        peak = name in PEAK_SPANS
        length = name in LEN_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "pass": self.pass_id,
                "parent": self._stack[-1] if self._stack else None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            own_peak = peak and not tracemalloc.is_tracing()
            if own_peak:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if own_peak:
                    span["peak_mb"] = tracemalloc.get_traced_memory()[1] / MIB
                    tracemalloc.stop()
                self._stack.pop()
            if length:
                span["len"] = len(result)
            return result

        return wrapper


def self_times(spans):
    """Per span, its duration minus the part of its interval that its
    child spans cover (children may in principle overlap, so their
    intervals are merged first)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for span, intervals in zip(spans, children):
        covered, reach = 0.0, span["start"]
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out
