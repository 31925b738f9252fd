"""Each module of the package and of its tests uses every name it imports,
the package imports only at module level, it opens text files with an
explicit encoding, and only the listed functions open a file or read the
dataset."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "shufflesum"
# imported for an effect, not for a name (harness.py's comment gives its reason)
ALLOWED = {"__future__.annotations", "numpy.random"}
PACKAGE = sorted(SRC.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"] + sorted(TESTS.glob("*.py"))


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


def imports_in_functions(source):
    """(line, statement) of each import made inside a function body."""
    return sorted(
        {
            (node.lineno, ast.unparse(node))
            for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_finds_imports_in_functions():
    source = (
        "import os\n"
        "def f():\n    import json\n    def g():\n        from . import calibration\n"
        "class C:\n    async def h(self):\n        import csv\n"
    )
    assert imports_in_functions(source) == [
        (3, "import json"),
        (5, "from . import calibration"),
        (8, "import csv"),
    ]
    assert imports_in_functions("import os\nif os.name:\n    import csv\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_package_imports_only_at_module_level(path):
    # perfbench/child.py times `import shufflesum.cli` as set-up and `main`
    # as the run: a module first imported inside a function would move its
    # load cost into the run's wall time
    assert imports_in_functions(path.read_text()) == []


def opens_without_encoding(source):
    """(line, call) of each open() that passes no encoding and whose mode is
    not a binary literal: without one, text is read and written in the
    locale's encoding."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if "encoding" not in keywords and not binary:
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_finds_opens_without_encoding():
    source = (
        "open(p)\n"
        'open(p, "w", newline="")\n'
        'open(p, encoding="utf-8")\n'
        'open(p, "rb")\n'
        'open(p, mode="wb")\n'
        "with open(p, mode) as fh:\n    fh.open(q)\n"
    )
    assert opens_without_encoding(source) == [
        (1, "open(p)"),
        (2, "open(p, 'w', newline='')"),
        (6, "open(p, mode)"),
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_package_opens_files_with_an_encoding(path):
    # datasets, config files and output CSVs are UTF-8 on every locale
    assert opens_without_encoding(path.read_text()) == []


# The package's functions that call open() or ingest_csv(), each with its
# reason: the dataset is opened in one place, and read for the CLI in one.
FILE_OPENERS = {
    "harness.ingest_csv": "opens the dataset once; np.loadtxt rereads it through that handle",
    "harness._write_csv": "writes one output table",
    "cli._read_config_file": "reads the --config file",
    "cli._read_dataset": "reads --dataset for run, sweep and ingest-check",
}


def file_openers(source):
    """Names of the top-level definitions ("<module>" for other statements)
    that call open() or ingest_csv()."""
    found = set()
    for stmt in ast.parse(source).body:
        calls = [node for node in ast.walk(stmt) if isinstance(node, ast.Call)]
        if any(getattr(call.func, "id", None) in ("open", "ingest_csv") for call in calls):
            found.add(getattr(stmt, "name", "<module>"))
    return sorted(found)


def test_finds_file_openers():
    source = (
        "def f(p):\n    with open(p) as fh:\n        return fh.read()\n"
        "def g(c):\n    def h():\n        return ingest_csv(c.dataset)\n    return h\n"
        "def k(fh):\n    return fh.open()\n"
        "class C:\n    def m(self):\n        open(self.p)\n"
        "open(q)\n"
    )
    assert file_openers(source) == ["<module>", "C", "f", "g"]


def test_files_are_opened_by_the_listed_functions_only():
    # run_sweep takes the matrix and reads no file; the per-cell reader
    # parses the text that ingest_csv read
    found = {f"{path.stem}.{name}" for path in PACKAGE for name in file_openers(path.read_text())}
    assert found == set(FILE_OPENERS)
