"""Every exported name resolves, in the package and in each submodule, has
one home, and every name the demos and the README import from the package
exists.

A name left in an ``__all__`` after its definition is deleted would
otherwise fail only at ``from equifdp import *``, and a deleted name that a
documented entry point imports only when someone runs it.  The package's
``__all__`` is composed of its modules' lists, so a name two modules export
would let one star import silently shadow the other.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import equifdp

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["equifdp"] + [
    f"equifdp.{info.name}" for info in pkgutil.iter_modules(equifdp.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_names_are_unique():
    assert len(set(equifdp.__all__)) == len(equifdp.__all__)


def test_each_package_name_is_in_exactly_one_module():
    lists = [getattr(importlib.import_module(name), "__all__", ()) for name in MODULES[1:]]
    homes = {name: sum(name in names for names in lists) for name in equifdp.__all__}
    del homes["__version__"]  # the one name defined outside a module's list
    assert {name: n for name, n in homes.items() if n != 1} == {}


def _documented_sources():
    """(label, source) of each demo and each python block of the README."""
    sources = [(path.name, path.read_text()) for path in sorted((ROOT / "demos").glob("*.py"))]
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources += [(f"README.md[{i}]", block) for i, block in enumerate(blocks)]
    return sources


def _package_imports(source):
    """Names of every ``from equifdp import ...`` statement in the source."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "equifdp"
        for alias in node.names
    ]


DOCUMENTED = _documented_sources()


@pytest.mark.parametrize("source", [src for _, src in DOCUMENTED], ids=[l for l, _ in DOCUMENTED])
def test_documented_imports_resolve(source):
    names = _package_imports(source)
    assert names
    assert [name for name in names if not hasattr(equifdp, name)] == []
