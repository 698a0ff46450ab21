"""Every name a module of the package exports, or README's module map
lists, must resolve."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def module_map():
    """Module -> backticked identifiers (dotted for attributes) of its row in
    README's "Module map" table, the package name left out."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`\w+`", cells[0]):
            names = re.findall(r"`([^`]+)`", cells[1])
            rows[cells[0].strip("`")] = [
                n for n in names if re.fullmatch(r"[A-Za-z_][\w.]*", n) and n != "multipolyeig"
            ]
    return rows


def _resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


MAP = module_map()
PUBLIC = [
    info.name for info in pkgutil.iter_modules(multipolyeig.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", sorted(set(MAP) | set(PUBLIC)))
def test_module_map_names_resolve(name):
    assert name in MAP, f"README's module map has no row for {name}"
    module = importlib.import_module(f"multipolyeig.{name}")
    missing = [n for n in MAP[name] if not _resolves(module, n)]
    assert not missing, f"README's module map lists {missing} under {name}"
