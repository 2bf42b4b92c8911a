"""No module of the package, its tests or its scripts keeps an import, and no
module of the package a private definition, that nothing reads.

A module-level import counts as used when its bound name is read anywhere
in the module or is listed in the module's ``__all__``.  ``__init__.py``
(which exists to re-export) and ``from __future__`` imports are exempt.

A module-level private function or class (``_name``, not a dunder) counts
as used when its name is read, as a name or an attribute, in some module
of the package; an import alone does not count, as the rule above rejects
an import that nothing reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "causal_pvar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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


def unread_private_defs(sources: dict[str, str]) -> list[str]:
    """``module.name (line n)`` for each module-level private function or class
    of ``sources`` (module name to source) that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
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
