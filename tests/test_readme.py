"""The README's Python quick example runs as written."""

import re
from pathlib import Path

from shufflesum import EstimateVector

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs():
    # a name removed from the package fails here until the README drops it
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    estimates = namespace["estimates"]
    assert isinstance(estimates, EstimateVector)
    assert estimates.values.shape == (namespace["d"],)
    assert estimates.counts.sum() == namespace["n"]
