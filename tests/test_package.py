"""The package's public surface, and the names the traced bench wraps, all exist.

A deleted function that an `__all__` still lists, or that `bench/layertrace.py`
still wraps, fails here instead of in a later import or traced bench run.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import deltareg
from deltareg import reports

_PACKAGE = Path(deltareg.__file__).resolve().parent
_LAYERTRACE = _PACKAGE.parent.parent / "bench" / "layertrace.py"
_MODULES = sorted(info.name for info in pkgutil.iter_modules(deltareg.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"deltareg.{name}")
    exported = getattr(module, "__all__", ())
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def test_package_reexports_only_public_names_that_exist():
    tree = ast.parse((_PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"deltareg.{module_name}")
        assert name in module.__all__, f"{module_name}.{name}"
        assert getattr(deltareg, name) is getattr(module, name)


@pytest.mark.skipif(not _LAYERTRACE.is_file(), reason="no bench/ beside src/")
def test_every_name_the_traced_bench_wraps_is_an_attribute_of_its_owner():
    # the tracer swaps vars(owner)[attr]; a name only inherited or gone breaks it.
    # The source is run, not imported, so no bytecode is written beside it.
    layertrace = types.ModuleType("layertrace")
    exec(compile(_LAYERTRACE.read_text(), str(_LAYERTRACE), "exec"), vars(layertrace))
    targets = [(owner, attr) for _, owner, attr, _ in layertrace._targets()]
    targets.append((reports, "_map_rows"))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []
