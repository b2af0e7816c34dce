"""Every ``__all__`` entry of the package and its modules names a real object."""

import importlib
import pkgutil

import pytest

import anchorlap

MODULES = ["anchorlap"] + [
    f"anchorlap.{info.name}" for info in pkgutil.iter_modules(anchorlap.__path__)
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # ``import *`` raises AttributeError on an ``__all__`` name the module lacks.
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
