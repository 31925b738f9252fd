"""The package's public surface stays lean: every function it exports has a
caller in another module or a stated use in the README, and every private
module-level function is referenced beyond its own def."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shufflesum"
README = SRC.parents[1] / "README.md"


def _functions(sources):
    """{name: module} of each module-level function; sources maps a module
    file name to its text."""
    return {
        stmt.name: module
        for module, text in sources.items()
        for stmt in ast.parse(text).body
        if isinstance(stmt, ast.FunctionDef)
    }


def unreferenced(sources, names):
    """The functions among names that no module of sources reads, as a bare
    name or an attribute, outside their own def."""
    defined = _functions(sources)
    used = set()
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            owner = (module, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if owner != (defined.get(name), name):
                    used.add(name)
    return sorted(name for name in names if name in defined and name not in used)


def idle_exports(sources, readme):
    """The functions __init__.py exports that no other module calls and that
    no code span of readme names."""
    sources = dict(sources)
    exported = [
        alias.asname or alias.name
        for stmt in ast.parse(sources.pop("__init__.py")).body
        if isinstance(stmt, ast.ImportFrom)
        for alias in stmt.names
    ]
    return [
        name for name in unreferenced(sources, exported) if not re.search(rf"`{name}\b", readme)
    ]


def _package():
    return {path.name: path.read_text() for path in SRC.glob("*.py")}


def test_finds_idle_functions():
    sources = {
        "__init__.py": "from .a import called, documented, idle, Kind\n",
        "a.py": (
            "class Kind:\n    pass\n\n"
            "def called():\n    return called() + _helper()\n\n"
            "def documented():\n    pass\n\n"
            "def idle():\n    return idle()\n\n"
            "def _helper():\n    return b.by_attribute()\n\n"
            "def _idle():\n    return _idle()\n"
        ),
        "b.py": "from .a import called\n\ndef by_attribute():\n    pass\n\nRUN = called\n",
    }
    assert idle_exports(sources, "Use `documented()` for that.") == ["idle"]
    private = ["_helper", "_idle", "by_attribute"]
    assert unreferenced(sources, private) == ["_idle"]


def test_every_exported_function_has_a_caller_or_a_stated_use():
    assert idle_exports(_package(), README.read_text()) == []


def test_every_private_function_is_referenced():
    sources = _package()
    private = [name for name in _functions(sources) if name.startswith("_")]
    assert unreferenced(sources, private) == []
