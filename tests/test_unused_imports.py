"""No module of the package, its tests or its scripts keeps an import, and no
module of the package a private definition, that nothing reads.

A module-level import counts as used when its bound name is read anywhere
in the module or is listed in the module's ``__all__``.  ``__init__.py``
(which exists to re-export) and ``from __future__`` imports are exempt.

A module-level private function or class (``_name``, not a dunder) counts
as used when its name is read, as a name or an attribute, in some module
of the package; an import alone does not count, as the rule above rejects
an import that nothing reads.

A module-level public function counts as used when it is read, by the same
rule, in a module of the package (its own included, as the CLI's ``cmd_*``
handlers are) or in a script, when the benchmark traces it (``TRACED`` in
``perfbench/spans.py``, read without changing it), or when it is one of
``ENTRY_POINTS``.  ``__init__.py`` re-exports every public name, so a read
there does not count: a function only the tests call is a second way to
do what the commands do.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "causal_pvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# Public functions that nothing in the package calls, kept as entry points.
ENTRY_POINTS = {
    "identify.impact_gamma": "the paper's impact coefficient, read off a factor",
    "io.read_records": "the reader of the record format write_records writes",
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each module-level import neither read nor exported."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = read | _exported(tree)
    return [f"{name} (line {line})" for name, line in _imported_names(tree).items()
            if name not in keep]


def test_the_rule_flags_an_unused_import_and_spares_used_and_exported_ones():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom math import pi, tau\n"
              "__all__ = ['tau']\nx = np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 2)", "pi (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def _reads(tree: ast.Module) -> set[str]:
    """Every name a module loads, as a name or an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_private_defs(sources: dict[str, str]) -> list[str]:
    """``module.name (line n)`` for each module-level private function or class
    of ``sources`` (module name to source) that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [f"{module}.{node.name} (line {node.lineno})"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in read]


def test_the_rule_flags_an_unread_private_def_and_spares_read_ones():
    sources = {
        "a": ("def _left_behind(x):\n    return x\n"
              "def _called():\n    pass\n"
              "class _Base:\n    pass\n"
              "def __getattr__(name):\n    pass\n"
              "def public():\n    return _called()\n"),
        "b": "from .a import _Base, _left_behind\nimport a\nclass C(_Base):\n    x = a._called\n",
    }
    assert unread_private_defs(sources) == ["a._left_behind (line 1)"]


def test_package_has_no_unread_private_def():
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_defs(sources) == []


def uncalled_public_functions(sources: dict[str, str], scripts: list[str],
                              kept: set[str]) -> list[str]:
    """``module.name (line n)`` for each module-level public function of
    ``sources`` (module name to source, ``__init__`` left out) that neither a
    module of ``sources`` nor one of ``scripts`` reads and ``kept`` does not
    name as ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()),
                       *(_reads(ast.parse(source)) for source in scripts))
    return [f"{module}.{node.name} (line {node.lineno})"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in read
            and f"{module}.{node.name}" not in kept]


def test_the_rule_flags_an_uncalled_public_function_and_spares_called_kept_ones():
    sources = {
        "a": ("def helper(x):\n    return x\n"
              "def used_here():\n    pass\n"
              "def traced():\n    pass\n"
              "def cmd_run():\n    pass\n"
              "HANDLERS = [cmd_run]\n"
              "def public():\n    return used_here()\n"),
        "b": "from .a import helper, public\nimport a\ny = a.public\n",
    }
    assert uncalled_public_functions(sources, ["from a import traced\n"], {"a.traced"}) == [
        "a.helper (line 1)"]


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{module}.{name}" for module, names in spans.TRACED.items() for name in names}


def test_every_public_function_has_a_caller():
    sources = {path.stem: path.read_text() for path in MODULES}
    scripts = [path.read_text() for path in SCRIPTS]
    assert uncalled_public_functions(sources, scripts, _traced() | set(ENTRY_POINTS)) == []
