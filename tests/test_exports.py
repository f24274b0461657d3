"""Every exported name resolves, in the package and in each submodule.

A name left in an ``__all__`` after its definition is deleted would
otherwise fail only at ``from equifdp import *``.
"""

import importlib
import pkgutil

import pytest

import equifdp

MODULES = ["equifdp"] + [
    f"equifdp.{info.name}" for info in pkgutil.iter_modules(equifdp.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []

