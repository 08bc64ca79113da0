"""The benchmark's four workloads and the checks that make a pass count as verified.

Each workload is a fixed set of the paper's inputs: the shipped table configs
of ``deltareg reproduce``, plus, for ``kernels``, the 16 catalog moment
problems.  The seed only permutes the order of tables and specs, so every seed
does the same work and must produce the same tables.

``deltareg`` is imported inside :func:`load`, so that timing ``load`` in a fresh
interpreter measures the set-up a user pays before the first table.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# table ids as accepted by `deltareg reproduce --table`
TABLES = {
    "helm1d": ("helm1d",),
    "helm2d": ("helm2d", "helm2d-sobolev"),
    "spectral": ("advect-dispersion", "kdv-impulse"),
    "kernels": ("weakstar-1d", "weakstar-2d"),
}
NAMES = tuple(TABLES)

# a solved catalog kernel must match its printed profile and moment rows to this
# (the worst case at the time of writing is 2.1e-13)
KERNEL_TOLERANCE = 1e-10
PROFILE_POINTS = 36


@dataclass
class Workload:
    name: str
    configs: list  # (table id, ExperimentConfig), in seed order
    specs: list  # (catalog name, MomentProblemSpec), in seed order; kernels only


@dataclass
class TableResult:
    table: str
    csv: bytes
    rows: int
    rows_failed: int

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv).hexdigest()


@dataclass
class PassResult:
    tables: list = field(default_factory=list)  # TableResult, in run order
    solves: int = 0
    solves_failed: int = 0
    max_residual: float = 0.0
    errors: list = field(default_factory=list)  # one line per failed item

    @property
    def attempted(self) -> int:
        return sum(t.rows for t in self.tables) + self.solves

    @property
    def failed(self) -> int:
        return sum(t.rows_failed for t in self.tables) + self.solves_failed


def _moment_spec(entry):
    from deltareg.moments import BasisFamily, BasisKind, MomentProblemSpec

    b = entry.builder_spec
    kind = BasisKind.COSINE if b.get("basis") == "cosine" else BasisKind.SHIFTED_LEGENDRE
    return MomentProblemSpec(
        dim=entry.dim, moments=b["m"], degree=b["p"], basis=BasisFamily(kind, b["p"]),
        boundary_smoothness=b["s"], origin_smoothness=b["origin"],
    )


def load(name: str, seed: int | None) -> Workload:
    """Import deltareg, parse the workload's shipped configs and build its specs.

    The seed permutes the tables and specs; without one they keep their order.
    """
    import importlib.resources

    from deltareg import kernels, reports

    configs_dir = importlib.resources.files("deltareg") / "configs"
    configs = [(t, reports.parse_config_text((configs_dir / f"{t}.cfg").read_text()))
               for t in TABLES[name]]
    specs = []
    if name == "kernels":
        specs = [(e.name, _moment_spec(e)) for e in kernels.catalog_entries()
                 if e.builder_spec is not None]
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(configs)
        rng.shuffle(specs)
    return Workload(name=name, configs=configs, specs=specs)


def run_pass(workload: Workload) -> PassResult:
    """One pass: every moment solve with its check, then every table to CSV."""
    import numpy as np

    from deltareg import kernels, moments, reports

    out = PassResult()
    r = np.linspace(0.0, 1.0, PROFILE_POINTS)
    for name, spec in workload.specs:
        out.solves += 1
        try:
            solved = moments.solve_moment_problem(spec, name=name)
            ref = kernels.catalog_lookup(name).profile().eval(r)
            mismatch = float(np.max(np.abs(solved.profile().eval(r) - ref)))
            mismatch /= max(1.0, float(np.max(np.abs(ref))))
            residual = float(np.max(np.abs(moments.moment_residuals(solved, spec.moments))))
        except Exception as exc:  # noqa: BLE001 - a failed solve is counted, not fatal
            out.solves_failed += 1
            out.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        out.max_residual = max(out.max_residual, residual)
        if not (mismatch <= KERNEL_TOLERANCE and residual <= KERNEL_TOLERANCE):
            out.solves_failed += 1
            out.errors.append(f"{name}: profile mismatch {mismatch:.3g}, "
                              f"moment residual {residual:.3g}")
    for table, config in workload.configs:
        report = reports.run_study(config)
        bad = [row for row in report.rows if row.get("status") in ("fail", "error")]
        out.tables.append(TableResult(table=table, csv=reports.emit(report, "csv"),
                                      rows=len(report.rows), rows_failed=len(bad)))
        out.errors.extend(f"{table}: {row}" for row in bad)
    return out


def changed_cells(table: TableResult) -> int:
    """Cells that differ from the golden CSV; a missing or extra cell counts as changed."""
    golden = (GOLDEN_DIR / f"{table.table}.csv").read_text().splitlines()
    current = table.csv.decode().splitlines()
    changed = 0
    for i in range(max(len(golden), len(current))):
        a = golden[i].split(",") if i < len(golden) else []
        b = current[i].split(",") if i < len(current) else []
        changed += sum(1 for j in range(max(len(a), len(b)))
                       if j >= len(a) or j >= len(b) or a[j] != b[j])
    return changed


def expected_counts(workload: Workload) -> dict:
    """Work counts that follow from the configs alone, for the traced run's self-check."""
    import math

    from deltareg.reports import parse_h_schedule

    def n_list(text):
        return len([t for t in text.split(",") if t.strip()])

    out = {}
    for _, config in workload.configs:
        opts = config.options
        if config.study == "advect":
            dt = 2.0 * math.pi / int(opts["N"]) / 8.0  # the advection default dt = dx / 8
            steps = round(parse_h_schedule(opts["T"])[0] / dt)
            out["spectral.advect.steps"] = (out.get("spectral.advect.steps", 0)
                                            + n_list(opts["kernels"])
                                            * len(parse_h_schedule(opts["H"])) * steps)
        elif config.study == "kdv":
            steps = round(parse_h_schedule(opts["T"])[0] / float(opts["dt"]))
            out["spectral.kdv.steps"] = len(parse_h_schedule(opts["H"])) * steps
        elif config.study in ("helmholtz2d", "helmholtz2d_sobolev"):
            out["elliptic.solve_2d.calls"] = (out.get("elliptic.solve_2d.calls", 0)
                                              + n_list(opts["kernels"])
                                              * len(parse_h_schedule(opts["H"])))
    if workload.specs:
        out["moments.solve.calls"] = len(workload.specs)
    return out
