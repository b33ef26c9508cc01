"""The README's code stays runnable as written."""

import math
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_python(section: str) -> str:
    """The first fenced python block under the README heading ``section``."""
    text = README.read_text().split(f"## {section}\n", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_use_example_runs():
    namespace = {}
    exec(compile(fenced_python("Library use"), str(README), "exec"), namespace)
    floored, update = namespace["floored"], namespace["update"]
    assert update.shape == (floored.dim,)
    assert np.isfinite(update).all()
    assert floored.spectrum().min() >= 0.01
    assert math.isfinite(namespace["total"].total_eps)
