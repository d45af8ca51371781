"""The package's public surface: every exported name resolves where it is declared."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_definitions(name):
    # every public function or class the module defines, and no other; constants may join
    module = importlib.import_module(f"coorbit.{name}")

    def definition(obj):
        return inspect.isfunction(obj) or inspect.isclass(obj)

    defined = {attr for attr, obj in vars(module).items() if not attr.startswith("_")
               and definition(obj) and obj.__module__ == module.__name__}
    exported = {attr for attr in module.__all__ if definition(getattr(module, attr))}
    assert (sorted(defined - exported), sorted(exported - defined)) == ([], [])


def test_package_exports_exactly_the_union_of_all():
    # a name in two lists would be bound by the later star import alone, silently
    exported = [attr for name in MODULES
                for attr in importlib.import_module(f"coorbit.{name}").__all__]
    assert sorted(attr for attr in set(exported) if exported.count(attr) > 1) == []
    public = {attr for attr, obj in vars(coorbit).items()
              if not attr.startswith("_") and not inspect.ismodule(obj)}
    assert (sorted(public - set(exported)), sorted(set(exported) - public)) == ([], [])


BENCH = Path(__file__).resolve().parents[1] / "bench"
# the module each bench name binds: ``import coorbit as cb``, ``from coorbit import cli``
BENCH_ALIASES = {"cb": "coorbit", **{m: f"coorbit.{m}" for m in
                                     ("cli", "fields", "groups", "voice", "frames")}}


def _resolves(dotted: str) -> bool:
    """Whether ``coorbit.a.b.c`` names a module, or an attribute reached from one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _dotted(node):
    """``"a.b.c"`` for an attribute chain rooted at a plain name, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        root = _dotted(node.value)
        return root and f"{root}.{node.attr}"
    return None


def _bench_names():
    """Every ``coorbit`` name the benchmark's workloads and tracer reach."""
    trees = {file: ast.parse((BENCH / file).read_text()) for file in ("workloads.py", "spans.py")}
    names = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("coorbit"):
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Attribute):
            root, _, rest = (_dotted(node) or "").partition(".")
            if root in BENCH_ALIASES and rest:
                names.add(f"{BENCH_ALIASES[root]}.{rest}")
    # the tracer's tables, read from its module-level assignments
    tables = {node.targets[0].id: node.value for node in trees["spans.py"].body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    names |= {f"coorbit.{ast.literal_eval(key)}" for key in tables["COUNTERS"].keys}
    names |= {"coorbit." + ".".join(t) for t in ast.literal_eval(tables["_STATIC_METHODS"])}
    return names


def test_every_name_the_benchmark_reaches_resolves():
    names = _bench_names()
    assert {"coorbit.fields.kernel_project", "coorbit.cli.main",
            "coorbit.frames.neumann_reconstruct", "coorbit.groups.GroupField.from_dict"} <= names
    assert sorted(n for n in names if not _resolves(n)) == []
