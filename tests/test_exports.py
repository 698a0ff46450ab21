"""Every name a module of the package exports must resolve."""

import importlib
import pkgutil

import pytest

import multipolyeig

MODULES = ["multipolyeig"] + [
    f"multipolyeig.{info.name}" for info in pkgutil.iter_modules(multipolyeig.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists unknown names {missing}"
