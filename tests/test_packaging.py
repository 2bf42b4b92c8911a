import re
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_numpy_floor_has_trapezoid():
    # np.trapezoid (weights.gaussian_weights, weights.weighted_estimand and the
    # T3-T7 oracles) exists only from NumPy 2.0.  Read with a regex: tomllib
    # needs Python 3.11 and the package supports 3.10.
    match = re.search(r'"numpy>=(\d+)(?:\.(\d+))?', PYPROJECT.read_text())
    assert match, "pyproject.toml declares no numpy floor"
    assert (int(match[1]), int(match[2] or 0)) >= (2, 0)
