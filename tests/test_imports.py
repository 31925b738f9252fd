"""Each module of the package and of its tests uses every name it imports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "shufflesum"
# imported for an effect, not for a name (harness.py's comment gives its reason)
ALLOWED = {"__future__.annotations", "numpy.random"}
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source):
    """(line, dotted name) of each import whose bound name the module never reads."""
    tree = ast.parse(source)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a.asname or a.name.split(".")[0], a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            bound = [(a.asname or a.name, f"{module}.{a.name}") for a in node.names]
        else:
            continue
        unused += [
            (node.lineno, full) for name, full in bound if name not in used and full not in ALLOWED
        ]
    return unused


def test_finds_unused_imports():
    source = "import os\nimport numpy.linalg\nfrom .calibration import a, b as c\nb = a\n"
    assert unused_imports(source) == [(1, "os"), (2, "numpy.linalg"), (3, ".calibration.b")]
    assert unused_imports("from __future__ import annotations\nimport numpy.random\n") == []


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.name if path.parent == SRC else f"tests/{path.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
