"""The benchmark's tracing hooks still fit the package.

``perfbench/spans.py`` wraps the functions it names in ``TRACED`` and reads
some of their arguments by name: the ``COUNTERS`` and the per-theorem span
label of ``verify.verify_theorem``.  A renamed function or parameter breaks
the benchmark, not the package's own tests, so these tests load spans.py
(without changing it) and check both against the package.
"""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# a["panel"] in a counter, arguments(...)['theorem'] in the span label
READ_ARGUMENT = re.compile(r"""\[["'](\w+)["']\]""")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


def _traced(qualified: str):
    module, name = qualified.split(".")
    return getattr(importlib.import_module(f"causal_pvar.{module}"), name)


@pytest.mark.parametrize("qualified", [f"{module}.{name}" for module, names in SPANS.TRACED.items()
                                       for name in names])
def test_traced_name_resolves(qualified):
    assert callable(_traced(qualified))


def _argument_reads():
    """(function, argument name) for every argument spans.py reads by name."""
    reads = [(qualified, arg) for qualified, counter in SPANS.COUNTERS.items()
             for arg in READ_ARGUMENT.findall(inspect.getsource(counter))]
    reads += [("verify.verify_theorem", arg)
              for arg in READ_ARGUMENT.findall(inspect.getsource(SPANS._wrap))]
    return reads


def test_argument_reads_are_found():
    # the pattern must keep seeing what spans.py reads, or the next test checks nothing
    assert {arg for _, arg in _argument_reads()} == {"panel", "records", "n_reps", "theorem"}


@pytest.mark.parametrize("qualified, arg", _argument_reads())
def test_read_argument_is_a_parameter(qualified, arg):
    assert arg in inspect.signature(_traced(qualified)).parameters
