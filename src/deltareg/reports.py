"""Experiment orchestration: validated configs, convergence tables, CSV/JSON emission."""

from __future__ import annotations

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import elliptic, spectral
from .kernels import catalog_lookup, tensor_product
from .quadrature import convergence_slope, weak_star_error

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ConvergenceReport",
    "run_study",
    "emit",
    "parse_h_schedule",
    "parse_config_text",
]


class ConfigError(ValueError):
    pass


_NUMBER_TOKENS = {"pi": math.pi}


def _parse_number(token: str) -> float:
    token = token.strip().lower()
    if token in _NUMBER_TOKENS:
        return _NUMBER_TOKENS[token]
    if "^" in token:
        base, exp = token.split("^", 1)
        return float(base) ** float(exp)
    if "/" in token:
        num, den = token.split("/", 1)
        return _parse_number(num) / _parse_number(den)
    if token.endswith("pi"):
        return float(token[:-2] or "1") * math.pi
    return float(token)


def parse_h_schedule(text: str) -> list[float]:
    """Parse '2^-2..2^-6' (dyadic, descending) or a comma list like 'pi,pi/2,0.25'."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        a, b = _parse_number(lo_s), _parse_number(hi_s)
        ka, kb = math.log2(a), math.log2(b)
        if abs(ka - round(ka)) > 1e-12 or abs(kb - round(kb)) > 1e-12:
            raise ConfigError(f"range schedule must be dyadic: {text}")
        ka, kb = int(round(ka)), int(round(kb))
        if ka < kb:
            ka, kb = kb, ka
        return [2.0**k for k in range(ka, kb - 1, -1)]
    values = [_parse_number(t) for t in text.split(",") if t.strip()]
    if not values or any(v <= 0 for v in values):
        raise ConfigError(f"bad H schedule: {text}")
    return sorted(values, reverse=True)


_COMMON_KEYS = {"study", "out", "format"}
_STUDY_KEYS = {
    "weakstar": {"kernels", "H", "slope_min", "slope_max", "parity_pairs",
                 "parity_tolerance"},
    "helmholtz1d": {"kernels", "H", "k0", "cutoff", "grid_points", "expected_R",
                    "tolerance", "rate_min", "rate_max", "expected_rate"},
    "helmholtz2d": {"kernels", "H", "k0", "cutoff", "nodes", "expected_R",
                    "tolerance", "rate_min", "rate_max", "expected_rate"},
    "helmholtz2d_sobolev": {"kernels", "H", "k0", "alpha", "nodes", "tolerance"},
    "advect": {"kernels", "H", "N", "T", "amp_tolerance", "phase_tolerance",
               "ordering"},
    "kdv": {"source", "H", "N", "T", "dt", "mass_tolerance"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    options: dict

    @property
    def out(self) -> str | None:
        return self.options.get("out")

    @property
    def format(self) -> str:
        return self.options.get("format", "csv")


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Flat key = value lines; '#' comments; unknown keys are rejected."""
    options: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        options[key] = value
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                options[key] = value
    study = options.pop("study", None)
    if study is None:
        raise ConfigError("config needs a 'study = <kind>' line")
    study = study.replace("-", "_")
    if study not in _STUDY_KEYS:
        raise ConfigError(f"unknown study '{study}'; known: {sorted(_STUDY_KEYS)}")
    allowed = _STUDY_KEYS[study] | _COMMON_KEYS
    unknown = set(options) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {study}: {sorted(unknown)}")
    return ExperimentConfig(study=study, options=options)


@dataclass
class ConvergenceReport:
    study: str
    columns: tuple
    rows: list = field(default_factory=list)
    passed: bool = True
    had_error: bool = False

    def add(self, **row) -> None:
        self.rows.append(row)
        if row.get("status") == "fail":
            self.passed = False
        if row.get("status") == "error":
            self.passed = False
            self.had_error = True

    @property
    def exit_code(self) -> int:
        if self.had_error:
            return 1
        return 0 if self.passed else 2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _quantize(value):
    # both emitters carry the same 12-significant-digit values, so a
    # json -> csv -> parse round trip is numerically exact
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def emit(report: ConvergenceReport, fmt: str = "csv") -> bytes:
    """Deterministic serialization: CSV with 12 significant digits, or JSON."""
    if fmt == "csv":
        buf = io.StringIO()
        buf.write(",".join(report.columns) + "\n")
        for row in report.rows:
            buf.write(",".join(_fmt(row.get(c)) for c in report.columns) + "\n")
        return buf.getvalue().encode()
    if fmt == "json":
        payload = {
            "study": report.study,
            "columns": list(report.columns),
            "rows": [{k: _quantize(v) for k, v in row.items()} for row in report.rows],
            "passed": report.passed,
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    raise ConfigError(f"unknown format '{fmt}'")


# ---------------------------------------------------------------------------
# kernel resolution shared by the studies
# ---------------------------------------------------------------------------

def _resolve_kernel(spec_str: str):
    """'name' for a catalog radial kernel, or 'tensor:name1d' for a 2D square product."""
    spec_str = spec_str.strip()
    if spec_str.startswith("tensor:"):
        base = spec_str.split(":", 1)[1]
        builder = catalog_lookup(base)

        def make(H: float):
            return tensor_product([(builder, H), (builder, H)], fit_in_ball=True)

        entry = builder.entry
        return make, entry, 2
    builder = catalog_lookup(spec_str)
    return (lambda H: builder(H)), builder.entry, builder.entry.dim


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _float_list(text: str) -> list[float]:
    return [_parse_number(t) for t in text.split(",") if t.strip()]


def _map_rows(fn, items, workers: int = 4):
    """Evaluate fn over items concurrently; results return in input order."""
    if len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _ratio_chain(Hs, Es):
    ratios = [None]
    for i in range(1, len(Hs)):
        if Es[i - 1] is not None and Es[i] is not None and Es[i - 1] > 0 and Es[i] > 0:
            ratios.append(math.log(Es[i - 1] / Es[i]) / math.log(Hs[i - 1] / Hs[i]))
        else:
            ratios.append(None)
    return ratios


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------

def _study_weakstar(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts.get("H", "2^-2..2^-6"))
    report = ConvergenceReport(
        study="weakstar",
        columns=("kernel", "dim", "H", "E_weak", "ratio", "slope", "slope_min",
                 "slope_max", "status", "message"),
    )
    slopes: dict[str, float] = {}
    for name in names:
        try:
            make, entry, dim = _resolve_kernel(name)
            Es = _map_rows(lambda H: weak_star_error(make(H)), Hs)
            fit = convergence_slope(Hs, Es)
            slopes[name] = fit.slope
            expected = entry.weak_order + 1
            lo = float(opts.get("slope_min", expected - 0.1)) if "slope_min" in opts else expected - 0.1
            hi = float(opts.get("slope_max", expected + 0.1)) if "slope_max" in opts else expected + 0.1
            if entry.source == "cubic_literature":
                lo, hi = 3.9, expected + 0.35
            ok = lo <= fit.slope <= hi
            ratios = _ratio_chain(Hs, Es)
            for i, H in enumerate(Hs):
                report.add(kernel=name, dim=dim, H=H, E_weak=Es[i], ratio=ratios[i],
                           slope=fit.slope, slope_min=lo, slope_max=hi,
                           status="ok" if ok else "fail", message="")
        except Exception as exc:  # noqa: BLE001 - study rows must keep going
            report.add(kernel=name, dim=None, H=None, E_weak=None, ratio=None,
                       slope=None, slope_min=None, slope_max=None,
                       status="error", message=str(exc))
    for pair in _csv_list(opts.get("parity_pairs", "")):
        a, b = pair.split(":", 1)
        tol = float(opts.get("parity_tolerance", 0.15))
        if a in slopes and b in slopes:
            gap = abs(slopes[a] - slopes[b])
            report.add(kernel=f"parity({a},{b})", dim=2, H=None, E_weak=None,
                       ratio=None, slope=gap, slope_min=0.0, slope_max=tol,
                       status="ok" if gap <= tol else "fail", message="")
    return report


def _helmholtz_error_rows(config, solve_errors, report, names, Hs):
    opts = config.options
    expected_R = _float_list(opts["expected_R"]) if "expected_R" in opts else None
    if expected_R is not None and len(expected_R) != len(names):
        raise ConfigError("expected_R must list one value per kernel")
    tol = float(opts.get("tolerance", 0.05))
    rate_min = _float_list(opts["rate_min"]) if "rate_min" in opts else None
    rate_max = _float_list(opts["rate_max"]) if "rate_max" in opts else None
    expected_rate = _float_list(opts["expected_rate"]) if "expected_rate" in opts else None
    for idx, name in enumerate(names):
        try:
            Es = solve_errors(name)
            ratios = _ratio_chain(Hs, Es)
            final = ratios[-1]
            if expected_R is not None:
                ok = final is not None and abs(final - expected_R[idx]) <= tol
                target = expected_R[idx]
            elif rate_min is not None:
                hi = rate_max[idx] if rate_max is not None else math.inf
                ok = final is not None and rate_min[idx] <= final <= hi
                target = rate_min[idx]
            else:
                ok = final is not None
                target = None
            rate = expected_rate[idx] if expected_rate is not None else None
            for i, H in enumerate(Hs):
                report.add(kernel=name, H=H, E=Es[i], R=ratios[i],
                           expected_rate=rate, target_R=target,
                           status="ok" if ok else "fail", message="")
        except Exception as exc:  # noqa: BLE001
            report.add(kernel=name, H=None, E=None, R=None, expected_rate=None,
                       target_R=None, status="error", message=str(exc))
    return report


def _study_helmholtz1d(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts.get("H", "2^-2..2^-5"))
    k0 = float(opts.get("k0", 10.0))
    cutoff = _parse_number(opts.get("cutoff", "0.25"))
    n_grid = int(opts.get("grid_points", 4001))
    nodes = np.linspace(-1.0, 1.0, n_grid)
    u_exact = elliptic.exact_profile_1d(nodes, k0)

    def solve_errors(name):
        make, entry, dim = _resolve_kernel(name)
        if dim != 1:
            raise ConfigError(f"{name} is not a 1D kernel")

        def one(H):
            problem = elliptic.Helmholtz1D(kernel=make(H), k0=k0)
            u_reg = elliptic.solve_regularized_1d(problem, nodes)
            return elliptic.pointwise_error(u_exact, u_reg, cutoff)

        return _map_rows(one, Hs)

    report = ConvergenceReport(
        study="helmholtz1d",
        columns=("kernel", "H", "E", "R", "expected_rate", "target_R", "status",
                 "message"),
    )
    return _helmholtz_error_rows(config, solve_errors, report, names, Hs)


def _study_helmholtz2d(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts.get("H", "2^-2..2^-6"))
    k0 = float(opts.get("k0", 10.0))
    cutoff = _parse_number(opts.get("cutoff", "0.25"))
    n_cells = int(opts.get("nodes", 20480))
    exact_cache: dict[int, elliptic.SolutionProfile] = {}

    def solve_errors(name):
        make, entry, dim = _resolve_kernel(name)
        if dim != 2:
            raise ConfigError(f"{name} is not a 2D kernel")

        def one(H):
            problem = elliptic.RadialHelmholtz2D(kernel=make(H), k0=k0, n_cells=n_cells)
            prof = elliptic.solve_regularized_2d_radial(problem)
            if n_cells not in exact_cache:
                exact_cache[n_cells] = elliptic.exact_profile_2d(prof.nodes[1:], k0)
            u_reg = elliptic.SolutionProfile(nodes=prof.nodes[1:],
                                             values=prof.values[1:],
                                             derivs=prof.derivs[1:],
                                             metadata=prof.metadata)
            return elliptic.pointwise_error(exact_cache[n_cells], u_reg, cutoff)

        return [one(H) for H in Hs]

    report = ConvergenceReport(
        study="helmholtz2d",
        columns=("kernel", "H", "E", "R", "expected_rate", "target_R", "status",
                 "message"),
    )
    return _helmholtz_error_rows(config, solve_errors, report, names, Hs)


def _study_sobolev(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts.get("H", "2^-2..2^-8"))
    alphas = _float_list(opts.get("alpha", "0.25,0.5,0.9"))
    k0 = float(opts.get("k0", 10.0))
    n_cells = int(opts.get("nodes", 20480))
    tol = float(opts.get("tolerance", 0.05))
    report = ConvergenceReport(
        study="helmholtz2d_sobolev",
        columns=("alpha", "kernel", "H", "E", "R", "target_R", "status", "message"),
    )
    for name in names:
        try:
            make, entry, dim = _resolve_kernel(name)
            profiles = {}
            for H in Hs:
                problem = elliptic.RadialHelmholtz2D(kernel=make(H), k0=k0,
                                                     n_cells=n_cells)
                p = elliptic.solve_regularized_2d_radial(problem)
                profiles[H] = elliptic.SolutionProfile(
                    nodes=p.nodes[1:], values=p.values[1:], derivs=p.derivs[1:],
                    metadata=p.metadata)
            u_exact = elliptic.exact_profile_2d(profiles[Hs[0]].nodes, k0)
            for alpha in alphas:
                wspec = elliptic.WeightedNormSpec(alpha=alpha)
                Es = [elliptic.weighted_sobolev_error(u_exact, profiles[H], wspec)
                      for H in Hs]
                ratios = _ratio_chain(Hs, Es)
                ok = ratios[-1] is not None and abs(ratios[-1] - alpha) <= tol
                for i, H in enumerate(Hs):
                    report.add(alpha=alpha, kernel=name, H=H, E=Es[i], R=ratios[i],
                               target_R=alpha, status="ok" if ok else "fail",
                               message="")
        except Exception as exc:  # noqa: BLE001
            report.add(alpha=None, kernel=name, H=None, E=None, R=None,
                       target_R=None, status="error", message=str(exc))
    return report


def _study_advect(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts.get("H", "0.5"))
    n = int(opts.get("N", 1024))
    t_final = _parse_number(opts.get("T", "36pi"))
    amp_tol = float(opts.get("amp_tolerance", 1e-9))
    phase_tol = float(opts.get("phase_tolerance", 1e-8))
    grid = spectral.PeriodicGrid1D(n=n)
    report = ConvergenceReport(
        study="advect",
        columns=("kernel", "H", "max_error", "amp_drift", "phase_dev", "status",
                 "message"),
    )
    maxima: dict[str, float] = {}
    for name in names:
        for H in Hs:
            try:
                make, entry, dim = _resolve_kernel(name)
                run = spectral.AdvectionRun(grid=grid, kernel=make(H),
                                            t_final=t_final)
                errs, result = spectral.pointwise_error_after_periods(run)
                amp = float(np.max(np.abs(np.abs(result.spectrum_final)
                                          - np.abs(result.spectrum_initial))))
                rho = spectral.leapfrog_phase_factors(grid, result.dt)
                dev = float(np.max(np.abs(result.spectrum_final
                                          - result.spectrum_initial
                                          * rho**result.n_steps)))
                ok = amp <= amp_tol and dev <= phase_tol
                maxima[name] = float(np.max(errs))
                report.add(kernel=name, H=H, max_error=float(np.max(errs)),
                           amp_drift=amp, phase_dev=dev,
                           status="ok" if ok else "fail", message="")
            except Exception as exc:  # noqa: BLE001
                report.add(kernel=name, H=H, max_error=None, amp_drift=None,
                           phase_dev=None, status="error", message=str(exc))
    ordering = opts.get("ordering")
    if ordering:
        hi_name, lo_name = (t.strip() for t in ordering.split(">"))
        if hi_name in maxima and lo_name in maxima:
            ok = maxima[hi_name] > maxima[lo_name]
            report.add(kernel=f"ordering({hi_name}>{lo_name})", H=None,
                       max_error=maxima[hi_name] - maxima[lo_name], amp_drift=None,
                       phase_dev=None, status="ok" if ok else "fail", message="")
    return report


def _study_kdv(config: ExperimentConfig) -> ConvergenceReport:
    opts = config.options
    source = opts.get("source", "kernel:eta_2_5_1d")
    Hs = parse_h_schedule(opts.get("H", "pi,pi/2,pi/4"))
    n = int(opts.get("N", 512))
    t_final = _parse_number(opts.get("T", "0.05"))
    dt = float(opts.get("dt", 1e-4))
    mass_tol = float(opts.get("mass_tolerance", 1e-10))
    grid = spectral.PeriodicGrid1D(n=n, length=16.0 * math.pi)
    report = ConvergenceReport(
        study="kdv",
        columns=("source", "H", "max_u", "mass_drift", "com_displacement",
                 "status", "message"),
    )
    for H in Hs:
        try:
            if source.startswith("kernel:"):
                make, entry, dim = _resolve_kernel(source.split(":", 1)[1])
                run = spectral.KdVRun(grid=grid, kernel=make(H), dt=dt,
                                      t_final=t_final)
            else:
                run = spectral.KdVRun(grid=grid, gaussian_sigma=H, dt=dt,
                                      t_final=t_final)
            result = spectral.kdv_solve(run)
            diag = spectral.transport_diagnostics(result)
            drift = abs(result.mass[-1] - result.mass[0])
            ok = drift <= mass_tol and diag["com_displacement"] > 0
            report.add(source=source, H=H,
                       max_u=float(np.max(np.abs(result.snapshots[-1]))),
                       mass_drift=drift,
                       com_displacement=diag["com_displacement"],
                       status="ok" if ok else "fail", message="")
        except Exception as exc:  # noqa: BLE001
            report.add(source=source, H=H, max_u=None, mass_drift=None,
                       com_displacement=None, status="error", message=str(exc))
    return report


_STUDIES = {
    "weakstar": _study_weakstar,
    "helmholtz1d": _study_helmholtz1d,
    "helmholtz2d": _study_helmholtz2d,
    "helmholtz2d_sobolev": _study_sobolev,
    "advect": _study_advect,
    "kdv": _study_kdv,
}


def run_study(config: ExperimentConfig) -> ConvergenceReport:
    """Dispatch a validated config to its harness; rows stay sorted and deterministic."""
    handler = _STUDIES.get(config.study)
    if handler is None:
        raise ConfigError(f"unknown study '{config.study}'")
    return handler(config)
