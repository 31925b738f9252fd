"""The package's public surface stays lean: every function it exports has a
caller in another module or a stated use in the README, every private
module-level function is referenced beyond its own def, every field of a
dataclass is read somewhere, a private name crosses modules only as
listed, and the unchecked mechanism kernel has only its listed caller."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shufflesum"
README = SRC.parents[1] / "README.md"


# Each underscore name that one module of the package imports from another,
# with the reason it is shared rather than kept behind its module.
PRIVATE_IMPORTS = {
    "harness <- aggregation._tally": "run_trial counts the blocks it built, unchecked",
    "harness <- aggregation._debias": "run_trial tallies each block and debiases once",
    "harness <- randomizer._randomize_rows": "the block generator of run_trial",
    "harness <- calibration._check_integer": "the integer rule for settings",
}

# The package's functions that read the mechanism kernel `_respond`, each
# with its reason: the kernel checks nothing, so a second caller would have
# to bring the checks of the first.
KERNEL_CALLERS = {
    "randomizer._randomize_rows": "checks the table and each gathered entry, then responds",
}


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


def unread_fields(sources):
    """"Class.field" for each field of a dataclass in sources that no module
    reads as an attribute.  The check goes by name, so a field that shares
    its name with an attribute read elsewhere (say `values`) passes even if
    no one reads it."""
    fields, read = [], set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list
            ):
                fields += [
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
    return sorted(f"{owner}.{name}" for owner, name in fields if name not in read)


def private_imports(sources):
    """"importer <- module._name" for each underscore name that a module of
    sources imports from a sibling (`from .module import _name`)."""
    return sorted(
        f"{Path(importer).stem} <- {node.module}.{alias.name}"
        for importer, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    )


def referrers(source, name):
    """Names of the top-level definitions ("<module>" for other statements,
    imports included) that read name, as a bare name, an attribute or an
    imported name, outside name's own def."""
    found = set()
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", "<module>")
        if owner != name and any(
            name in (getattr(node, "id", None), getattr(node, "attr", None))
            or (isinstance(node, ast.alias) and node.name == name)
            for node in ast.walk(stmt)
        ):
            found.add(owner)
    return sorted(found)


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


def test_finds_unread_fields():
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\nclass Report:\n    value: float\n    label: str\n\n"
            "@dataclass\nclass Stored:\n    kept: int\n\n"
            "class Plain:\n    ignored: int\n\n"
            "def use(r, s):\n    s.kept = r.label\n    return r.value\n"
        ),
        "b.py": "def later(s):\n    return s.kept\n",
    }
    assert unread_fields(sources) == []
    sources["b.py"] = "def later(s):\n    s.kept = 0\n"
    assert unread_fields(sources) == ["Stored.kept"]


def test_finds_private_imports():
    sources = {
        "a.py": "from .b import _hidden, shown\nfrom numpy import _private\n",
        "b.py": "from __future__ import annotations\nfrom .a import _first as first\n",
    }
    assert private_imports(sources) == ["a <- b._hidden", "b <- a._first"]


def test_private_names_cross_modules_only_as_listed():
    assert private_imports(_package()) == sorted(PRIVATE_IMPORTS)


def test_every_dataclass_field_is_read():
    assert unread_fields(_package()) == []


def test_every_exported_function_has_a_caller_or_a_stated_use():
    assert idle_exports(_package(), README.read_text()) == []


def test_every_private_function_is_referenced():
    sources = _package()
    private = [name for name in _functions(sources) if name.startswith("_")]
    assert unreferenced(sources, private) == []


def test_finds_kernel_referrers():
    source = (
        "from .r import _respond as kernel\n"
        "def _respond(x):\n    return _respond(x)\n"
        "def rows(t):\n    yield _respond(t)\n"
        "def via(m):\n    return m._respond\n"
        "class C:\n    def m(self):\n        return _respond\n"
        "def other(respond):\n    return respond('_respond')\n"
    )
    assert referrers(source, "_respond") == ["<module>", "C", "rows", "via"]


def test_kernel_is_read_only_by_its_listed_caller():
    # _respond checks neither its inputs nor k and gamma; _randomize_rows
    # checks what it gathers, and ProtocolParams the rest
    found = {
        f"{Path(module).stem}.{name}"
        for module, text in _package().items()
        for name in referrers(text, "_respond")
    }
    assert found == set(KERNEL_CALLERS)
