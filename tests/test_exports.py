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


# The modules whose ``__all__`` the package root re-exports, in order.
REEXPORTED = ["geometry", "layout", "emo", "matching", "dataset", "optimizer", "specfile", "rng"]


def test_root_all_is_the_modules_all():
    modules = [importlib.import_module(f"anchorlap.{name}") for name in REEXPORTED]
    assert anchorlap.__all__ == [n for m in modules for n in m.__all__] + ["__version__"]
    for module in modules:
        for name in module.__all__:
            assert getattr(anchorlap, name) is getattr(module, name), f"{module.__name__}.{name}"
