"""The package's public surface: every exported name resolves where it is declared."""

import ast
import importlib
from pathlib import Path

import pytest

import coorbit

MODULES = ("groups", "weights", "signals", "voice", "fields", "lattices", "frames")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"coorbit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"coorbit.{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def _package_imports():
    """``(module, name)`` for every name ``coorbit/__init__.py`` imports from a submodule."""
    tree = ast.parse(Path(coorbit.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert {module for module, _ in imports} == set(MODULES)
    stray = [f"{module}.{name}" for module, name in imports
             if name not in importlib.import_module(f"coorbit.{module}").__all__]
    assert stray == []
    assert all(hasattr(coorbit, name) for _, name in imports)
