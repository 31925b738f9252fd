"""The README's Python quick example and CLI examples run as written, and
it names each module that exists, and only those, in one overview bullet."""

import importlib.util
import re
import shlex
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from shufflesum.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    # a name removed from the package fails here until the README drops it
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    estimates, d = namespace["estimates"], namespace["d"]
    assert isinstance(estimates, np.ndarray) and estimates.dtype == np.float64
    assert estimates.shape == (d,)
    assert np.bincount(namespace["coords"].ravel(), minlength=d).sum() == namespace["n"]


def test_named_modules_exist():
    # a module folded into another must not keep its overview bullet
    names = re.findall(r"`shufflesum\.(\w+)`", README.read_text())
    missing = [name for name in names if importlib.util.find_spec(f"shufflesum.{name}") is None]
    assert names and missing == []


def test_each_module_is_named_once():
    # one overview bullet per module; cli has its own section
    names = re.findall(r"`shufflesum\.(\w+)`", README.read_text())
    package = Path(importlib.util.find_spec("shufflesum").origin).parent
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "cli"}
    assert {module: names.count(module) for module in modules} == dict.fromkeys(modules, 1)


def cli_examples():
    """The argv of each `shufflesum` line of the README's CLI block."""
    (block,) = [
        b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S) if "\nshufflesum " in b
    ]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("shufflesum ")]


def test_cli_examples_run(signal_csv, tmp_path, capsys):
    paths = {"data.csv": str(signal_csv), "out/": str(tmp_path / "out")}
    examples = [[paths.get(arg, arg) for arg in argv] for argv in cli_examples()]
    commands = [argv[0] for argv in examples]
    assert commands == ["params", "run", "sweep", "audit", "audit", "audit", "ingest-check"]
    outputs = []
    for argv in examples:
        # run and sweep keep the default delta 0.5, far above 1/n
        with pytest.warns(UserWarning) if argv[0] in ("run", "sweep") else nullcontext():
            assert main(argv) == 0, argv
        outputs.append(capsys.readouterr().out)
    # the reference-point audit passes at an epsilon lower bound of 0.3632;
    # --gamma 0.1 fails
    assert outputs[5].startswith("epsilon lower bound 0.3632 (exact for the audited pair) ")
    assert main([("0.1" if arg == "0.2" else arg) for arg in examples[5]]) == 4
