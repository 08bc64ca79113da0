"""The package's public surface, and the names the traced bench wraps, all exist.

A deleted function that an `__all__` still lists, or that `bench/layertrace.py`
still wraps, fails here instead of in a later import or traced bench run; so does
a study that stops calling a wrapped solve once per (kernel, H), which the traced
run checks against the counts its configs imply.
"""

import ast
import importlib
import pkgutil
import types
from importlib import resources
from pathlib import Path

import pytest

import deltareg
from deltareg import elliptic, reports

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


@pytest.mark.parametrize("config, solve", [
    ("helm1d.cfg", "solve_regularized_1d"),
    ("helm2d.cfg", "solve_regularized_2d_radial"),
    ("helm2d-sobolev.cfg", "solve_regularized_2d_radial"),
])
def test_each_helmholtz_study_solves_once_per_kernel_and_width(monkeypatch, config, solve):
    # the tracer wraps the solves as module attributes, as here, and counts their calls
    text = (resources.files("deltareg") / "configs" / config).read_text()
    parsed = reports.parse_config_text(text, {"H": "2^-2..2^-3"})
    original, calls = getattr(elliptic, solve), []

    def counted(*args, **kwargs):
        calls.append(args[0].kernel.half_width)
        return original(*args, **kwargs)

    monkeypatch.setattr(elliptic, solve, counted)
    report = reports.run_study(parsed)
    assert all(row["status"] != "error" for row in report.rows)
    kernels = reports._csv_list(parsed.options["kernels"])
    assert sorted(calls) == sorted([0.25, 0.125] * len(kernels))
