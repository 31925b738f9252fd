"""Mutation gauge: how many one-operator mutants of a module do its tests kill?

usage: python tools/mutate.py MODULE TEST_FILE...

MODULE names a file of src/shufflesum (say `calibration`), and each
TEST_FILE is a path, relative or absolute, to a file in this repository;
anything else is refused before the copy is made.  Each mutant
changes one node of that module's syntax tree:
- a comparison flipped: < and <=, > and >=, == and != swap;
- an arithmetic operator swapped: + and -, * and / swap;
- a numeric constant (not a bool) increased by 1.
The repository is copied once to a fresh temporary directory, which is
deleted however the run ends.  For each mutant the mutated module is written
there, in place of the original, and `pytest -x -q` runs the given test
files; a failing run kills the mutant, and so does one that takes ten
times as long as the unmutated copy (at least a minute), which must pass
first.  The script prints the kill table row and each surviving
mutant, marking those listed in EQUIVALENT.  It needs the standard library
and the test suite's own dependencies only, and changes nothing outside
its temporary directory.

A mutant is named by the function it sits in, the smallest expression that
holds it, and that expression after the change; the name survives edits
elsewhere in the module.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARE_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
BINOP_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}

# Surviving mutants that are known and accepted, as (module, function,
# before, after), each with the reason: the program behaves the same, or
# differs only at a tie or a size no test can reach.  Survivors not listed
# here are gaps in the tests.
EQUIVALENT = {
    (
        "calibration", "_check_dims",
        "d: int, n: int, t: int, k: int=1", "d: int, n: int, t: int, k: int=2",
    ): "the default is read only where no k exists yet (choose_k_t1), and any k >= 1 passes",
    (
        "calibration", "choose_k_general",
        "objective(lo) <= objective(lo + 1)", "objective(lo) < objective(lo + 1)",
    ): "differs only at an exact tie of the two neighbours, where both minimize",
    ("audit", "exact_audit", "(n + 1) ** 2 > MAX_OUTCOMES", "(n + 1) ** 2 >= MAX_OUTCOMES"):
        "10**7 is no square, so no n reaches the tie",
    ("audit", "exact_audit", "p > 0", "p > 1"):
        "drops this half of the underflow filter; moves delta in the last ulp at most",
    ("audit", "exact_audit", "q > 0", "q > 1"):
        "drops this half of the underflow filter; moves delta in the last ulp at most",
    ("audit", "exact_audit", "delta_at(0.0) <= budget.delta", "delta_at(0.0) < budget.delta"):
        "differs only where delta equals the target exactly",
    ("audit", "exact_audit", "delta_at(mid) <= budget.delta", "delta_at(mid) < budget.delta"):
        "differs only where delta equals the target exactly",
    ("audit", "exact_audit", "delta <= budget.delta", "delta < budget.delta"):
        "differs only where delta equals the target exactly",
    ("audit", "exact_audit", "hi - lo > 1e-09", "hi - lo >= 1e-09"):
        "differs only where the bracket is 1e-9 wide exactly",
    (
        "protocol", "_randomize_rows",
        "max(1, BLOCK_ENTRIES // params.t)", "max(2, BLOCK_ENTRIES // params.t)",
    ): "the floor decides only at t > BLOCK_ENTRIES / 2, far beyond any d in use",
    ("protocol", "analyze_arrays", "params.d - 1", "params.d + 1"): "error-message text",
    ("protocol", "analyze_arrays", "params.d - 1", "params.d - 2"): "error-message text",
}


def _qualname(stack):
    return ".".join(node.name for node in stack) or "<module>"


def mutants(source: str):
    """Yield (function, before, after, mutated source) for each mutant of
    source, in the order of the tree walk."""
    tree = ast.parse(source)
    sites = []

    def visit(node, stack, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = [*stack, node]
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARE_SWAPS:
                    sites.append((stack, node, ("compare", i)))
        elif isinstance(node, ast.BinOp) and type(node.op) in BINOP_SWAPS:
            sites.append((stack, node, ("binop",)))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            sites.append((stack, parent, ("constant", node)))
        for child in ast.iter_child_nodes(node):
            visit(child, stack, node)

    visit(tree, [], None)
    for stack, node, (kind, *where) in sites:
        before = ast.unparse(node)
        if kind == "compare":
            saved = node.ops[where[0]]
            node.ops[where[0]] = COMPARE_SWAPS[type(saved)]()
        elif kind == "binop":
            saved = node.op
            node.op = BINOP_SWAPS[type(saved)]()
        else:
            (constant,) = where
            saved = constant.value
            constant.value = saved + 1
        after = ast.unparse(node)
        mutated = ast.unparse(tree)
        if kind == "compare":
            node.ops[where[0]] = saved
        elif kind == "binop":
            node.op = saved
        else:
            constant.value = saved
        yield _qualname(stack), before, after, mutated


def run_tests(work: Path, tests, timeout: float) -> bool:
    """True when the test files pass in the work directory."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args(argv)
    # checked before the copy; each test file is passed as its path in the
    # copy, since an absolute path would make pytest take this checkout as
    # its rootdir and put its src, not the copy's, first on the path
    modules = sorted(path.stem for path in (ROOT / "src" / "shufflesum").glob("*.py"))
    if args.module not in modules:
        parser.error(f"unknown module {args.module!r}; one of {', '.join(modules)}")
    tests = []
    for test in args.tests:
        path = Path(test).resolve()
        if not path.is_relative_to(ROOT):
            parser.error(f"{test} lies outside the repository {ROOT}")
        if not path.is_file():
            parser.error(f"no test file {test}")
        tests.append(str(path.relative_to(ROOT)))

    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, work,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        target = work / "src" / "shufflesum" / f"{args.module}.py"
        original = target.read_text()

        start = time.perf_counter()
        if not run_tests(work, tests, timeout=3600):
            sys.exit("the unmutated module fails its tests; nothing to measure")
        timeout = max(60.0, 10 * (time.perf_counter() - start))

        killed, survivors = 0, []
        for function, before, after, mutated in mutants(original):
            target.write_text(mutated)
            if run_tests(work, tests, timeout):
                survivors.append((function, before, after))
            else:
                killed += 1

    total = killed + len(survivors)
    names = ", ".join(Path(t).stem.removeprefix("test_") for t in tests)
    print("| module | tests run | mutants | killed |")
    print("|---|---|---|---|")
    print(f"| {args.module} | {names} | {total} | {killed} |")
    for function, before, after in survivors:
        reason = EQUIVALENT.get((args.module, function, before, after))
        mark = f"equivalent: {reason}" if reason else "SURVIVED"
        print(f"- {function}: `{before}` -> `{after}` ({mark})")

if __name__ == "__main__":
    main()
