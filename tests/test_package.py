"""The package's public surface, and the names the traced bench wraps, all exist.

A deleted function that an `__all__` still lists, or that `bench/layertrace.py`
still wraps, fails here instead of in a later import or traced bench run; so does
a result that drops a field the tracer reads, and a study that stops calling a
wrapped solve once per (kernel, H), which the traced run checks against the counts
its configs imply.  The module layering is checked here too.
"""

import ast
import importlib
import math
import pkgutil
import sys
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import deltareg
from deltareg import elliptic, reports, spectral
from deltareg.kernels import catalog_entries, catalog_lookup

_PACKAGE = Path(deltareg.__file__).resolve().parent
_LAYERTRACE = _PACKAGE.parent.parent / "bench" / "layertrace.py"
_WORKLOADS = _LAYERTRACE.with_name("workloads.py")
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


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports, and every name it imports from one."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is an import from deltareg
            parts = ["deltareg"] * bool(node.level) + [node.module] * bool(node.module)
            module = ".".join(parts)
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_spectral_does_not_import_kernels():
    # a run marches grid samples; the study that builds the run owns its source
    assert "deltareg.kernels.catalog_lookup" in _imported_modules(_PACKAGE / "reports.py")
    imported = _imported_modules(_PACKAGE / "spectral.py")
    assert [m for m in imported if m.split(".")[:2] == ["deltareg", "kernels"]] == []


def _layertrace() -> types.ModuleType:
    # the source is run, not imported, so no bytecode is written beside it
    layertrace = types.ModuleType("layertrace")
    exec(compile(_LAYERTRACE.read_text(), str(_LAYERTRACE), "exec"), vars(layertrace))
    return layertrace


@pytest.mark.skipif(not _LAYERTRACE.is_file(), reason="no bench/ beside src/")
def test_every_name_the_traced_bench_wraps_is_an_attribute_of_its_owner():
    # the tracer swaps vars(owner)[attr]; a name only inherited or gone breaks it
    targets = [(owner, attr) for _, owner, attr, _ in _layertrace()._targets()]
    targets.append((reports, "_map_rows"))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
               if attr not in vars(owner)]
    assert missing == []


@pytest.mark.skipif(not _LAYERTRACE.is_file(), reason="no bench/ beside src/")
def test_the_traced_bench_counts_the_steps_of_each_spectral_run():
    # the tracer reads a march's step count off its result (AdvectionResult.n_steps,
    # KdVResult.metadata["t_final"] / ["dt"]); a result that drops one fails here
    grid = spectral.PeriodicGrid1D(n=16)
    runs = {"advect_leapfrog": spectral.AdvectionRun(grid=grid, initial=np.cos(grid.nodes),
                                                     t_final=2 * math.pi),
            "kdv_solve": spectral.KdVRun(grid=grid, initial=np.zeros(grid.n), dt=1e-3,
                                         t_final=5e-3)}
    counters = {attr: counter for _, owner, attr, counter in _layertrace()._targets()
                if owner is spectral}
    steps = {attr: counter((runs[attr],), {}, getattr(spectral, attr)(runs[attr]))
             for attr, counter in counters.items()}
    assert steps == {"advect_leapfrog": 128, "kdv_solve": 5}
    # tied KdV runs march once, on the first call, yet each call returns its own
    # result and the tracer counts that run's own steps, once per call
    tied = spectral.kdv_batch(
        spectral.KdVRun(grid=grid, initial=amp * np.cos(grid.nodes), dt=1e-3, t_final=5e-3)
        for amp in (1.0, 2.0))
    for run in tied:
        result = spectral.kdv_solve(run)
        np.testing.assert_allclose(result.snapshots[0], run.initial, rtol=0, atol=1e-15)
        assert counters["kdv_solve"]((run,), {}, result) == 5


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


@pytest.fixture
def workloads(monkeypatch):
    if not _WORKLOADS.is_file():
        pytest.skip("no bench/ beside src/")
    module = types.ModuleType("workloads")
    module.__file__ = str(_WORKLOADS)
    monkeypatch.setitem(sys.modules, "workloads", module)  # its dataclasses look it up
    exec(compile(_WORKLOADS.read_text(), str(_WORKLOADS), "exec"), vars(module))
    return module


def test_the_untraced_bench_loads_every_workload_and_checks_every_catalog_solve(workloads):
    # the bench builds moment specs and checks solves through the package's own names
    # (BasisKind, BasisFamily, solve_moment_problem(spec, name=), builder_spec); a
    # change that breaks one fails here, not only in a benchmark run
    loaded = {name: workloads.load(name, 1) for name in workloads.NAMES}
    assert all(workload.configs for workload in loaded.values())
    result = workloads.run_pass(loaded["kernels"])
    assert (result.solves, result.failed, result.errors) == (16, 0, [])


def test_the_bench_builds_each_catalog_spec_as_the_catalog_does(workloads):
    # the bench keeps its own copy of the builder_spec -> MomentProblemSpec mapping
    entries = [e for e in catalog_entries() if e.builder_spec is not None]
    assert len(entries) == 16
    for entry in entries:
        assert workloads._moment_spec(entry) == catalog_lookup(entry.name).spec
