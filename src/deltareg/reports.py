"""Convergence studies as gated tables: configs, one study driver, CSV/JSON emission.

A study is a generator over its units of work: one kernel (weakstar,
helmholtz1d, helmholtz2d, helmholtz2d_sobolev), one (kernel, H) pair (advect)
or one H (kdv), then the gate units that compare finished ones (the weak-star
parity pairs, the advect ordering).  It yields each unit as its key columns
and a function that computes the unit's rows.  `run_study` is the driver: it
runs the units one after another in the calling thread and adds the rows each
function returns, or, when the function raises, one error
row that names the unit's key columns and the exception's type and text, so
one failed kernel never hides the others and a gate whose input failed reports
an error instead of vanishing.  A config fault (a gate naming a kernel that is
not listed or not in its 'a:b' or 'a > b' form, a per-kernel list of the wrong
length, expected_R beside a rate band, a number key outside the grammar of
`_parse_number`, a format other than csv or json) raises ConfigError before any
unit runs; a number key's error, the H schedule's included, names the key.

`STUDIES` is the one table of every study's config keys and their defaults:
`parse_config_text` rejects keys outside it and fills in the rest.  The CLI
generates each study's subcommand from it, one flag per key, and the flags are
overrides that go through `parse_config_text` too.  The spectral studies build
their runs through `advect_runs` and `kdv_runs`, which sample each run's source
on the run's grid and which the CLI's `--detail` calls as well, so a detail run
is a run of the study.  The kdv study's runs march as one batch on its first
unit (`spectral.kdv_batch`); each unit still solves, and fails, on its own run,
so the table keeps one row per H and one error row per failed run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import elliptic, spectral
from .kernels import catalog_lookup, catalog_names, tensor_product
from .quadrature import convergence_slope, weak_star_error

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ConvergenceReport",
    "STUDIES",
    "run_study",
    "emit",
    "parse_h_schedule",
    "parse_config_text",
    "advect_runs",
    "kdv_runs",
]


class ConfigError(ValueError):
    pass


def _parse_number(token: str) -> float:
    """A decimal, 'pi', '<a>pi', 'a/b' or 'a^b'; anything else is a ConfigError."""
    token = token.strip().lower()
    try:
        if "^" in token:
            base, exp = token.split("^", 1)
            return math.pow(float(base), float(exp))
        if "/" in token:
            num, den = token.split("/", 1)
            return _parse_number(num) / _parse_number(den)
        if token.endswith("pi"):
            return float(token[:-2] or "1") * math.pi
        return float(token)
    except ConfigError:
        raise
    except ArithmeticError as exc:  # overflow, division by zero
        raise ConfigError(f"cannot evaluate '{token}': {exc}") from None
    except ValueError:  # outside the grammar, or a complex power
        raise ConfigError(f"'{token}' is not a real number") from None


def _numbers(key: str, text: str) -> list[float]:
    """The comma list of numbers `text` gives for `key`; an error names the key."""
    try:
        return [_parse_number(t) for t in text.split(",") if t.strip()]
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _number(opts: dict, key: str, integral: bool = False):
    """The one number, an integer if `integral`, a config key gives; an error names the key."""
    values = _numbers(key, opts[key])
    if len(values) != 1 or integral and not values[0].is_integer():
        raise ConfigError(f"{key} takes one {'integer' if integral else 'number'}, "
                          f"not '{opts[key]}'")
    return int(values[0]) if integral else values[0]


def parse_h_schedule(text: str, key: str | None = None) -> list[float]:
    """Parse '2^-2..2^-6' (dyadic, descending) or a comma list like 'pi,pi/2,0.25';
    an error names `key`, the config key that gave the schedule, when one is given."""
    text = text.strip()
    try:
        if ".." in text:
            a, b = _positive_widths([_parse_number(t) for t in text.split("..", 1)], text)
            ka, kb = math.log2(a), math.log2(b)
            if abs(ka - round(ka)) > 1e-12 or abs(kb - round(kb)) > 1e-12:
                raise ConfigError(f"range schedule must be dyadic: {text}")
            ka, kb = int(round(ka)), int(round(kb))
            if ka < kb:
                ka, kb = kb, ka
            return [2.0**k for k in range(ka, kb - 1, -1)]
        values = [_parse_number(t) for t in text.split(",") if t.strip()]
        return sorted(_positive_widths(values, text), reverse=True)
    except ConfigError as exc:
        if key is None:
            raise
        raise ConfigError(f"{key}: {exc}") from None


def _positive_widths(values: list[float], text: str) -> list[float]:
    if not values or not all(0.0 < v < math.inf for v in values):
        raise ConfigError(f"every width must be positive and finite: {text}")
    return values


_COMMON_KEYS = {"out": None, "format": "csv"}


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    options: dict  # every key of the study's table, defaults filled in

    @property
    def out(self) -> str | None:
        return self.options["out"]

    @property
    def format(self) -> str:
        return self.options["format"]


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Flat key = value lines; '#' comments; overrides that are not None win.

    Keys outside the study's table are rejected, a required key that is missing
    is an error, and every other missing key takes its default from `STUDIES`.
    """
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
    if study not in STUDIES:
        raise ConfigError(f"unknown study '{study}'; known: {sorted(STUDIES)}")
    defaults = {**STUDIES[study].defaults, **_COMMON_KEYS}
    unknown = set(options) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys for {study}: {sorted(unknown)}")
    options = {**defaults, **options}
    # a required list that names nothing is as missing as an absent key
    missing = sorted(key for key, value in options.items()
                     if value is ... or (defaults[key] is ... and not _csv_list(value)))
    if missing:
        raise ConfigError(f"config for {study} needs {missing}")
    if options["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, not '{options['format']}'")
    return ExperimentConfig(study=study, options=options)


@dataclass
class ConvergenceReport:
    study: str
    columns: tuple
    rows: list = field(default_factory=list)
    passed: bool = True
    had_error: bool = False

    def add(self, **row) -> None:
        """Append a row; every column it does not name is None."""
        self.rows.append({**dict.fromkeys(self.columns), **row})
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
        writer = csv.writer(buf, lineterminator="\n")  # quotes only fields that need it
        writer.writerow(report.columns)
        writer.writerows([_fmt(row.get(c)) for c in report.columns] for row in report.rows)
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
# helpers shared by the studies
# ---------------------------------------------------------------------------

def _resolve_kernel(spec_str: str, dim: int | None = None):
    """'name' for a catalog radial kernel, or 'tensor:name1d' for a 2D square product;
    with `dim` given, a kernel of another dimension is a ConfigError."""
    spec_str = spec_str.strip()
    tensor = spec_str.startswith("tensor:")
    builder = catalog_lookup(spec_str.removeprefix("tensor:"))
    kernel_dim = 2 if tensor else builder.entry.dim
    if dim not in (None, kernel_dim):
        raise ConfigError(f"{spec_str} is not a {dim}D kernel")
    return (partial(tensor_product, builder) if tensor else builder), builder.entry, kernel_dim


def _csv_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _per_kernel(opts: dict, key: str, names: list[str]) -> list[float] | None:
    """A per-kernel gate list, or None when the key is unset."""
    if opts[key] is None:
        return None
    values = _numbers(key, opts[key])
    if len(values) != len(names):
        raise ConfigError(f"{key} must list one value per kernel")
    return values


def _gate_pair(key: str, spec: str, sep: str, maxsplit: int = -1) -> list[str]:
    """The two kernel names of a gate spec 'a<sep>b'; any other form is a ConfigError."""
    names = [t.strip() for t in spec.split(sep.strip(), maxsplit)]
    if len(names) != 2 or not all(names):
        raise ConfigError(f"{key} must name two kernels as 'a{sep}b', not '{spec}'")
    return names


def _require_listed(names: list[str], gate_names, key: str) -> None:
    unlisted = [name for name in gate_names if name not in names]
    if unlisted:
        raise ConfigError(f"{key} names kernels that 'kernels' does not list: {unlisted}")


def _finished(results: dict, name: str, H: float | None = None):
    """A gate's input: the result of a kernel's unit (at H), which must not have errored."""
    key = name if H is None else (name, H)
    if key not in results:
        where = "" if H is None else f" at H = {H:g}"
        raise ValueError(f"{name}{where} has no result to compare: its unit errored")
    return results[key]


def _ratios(fit) -> list:
    # one per H: None for the first, and where an error sits below the quadrature floor
    return [None] + [None if math.isnan(r) else float(r) for r in fit.ratios]


def _status(ok: bool) -> str:
    return "ok" if ok else "fail"


# a function of its own only because bench/layertrace.py wraps it to time each row
def _map_rows(fn, items):
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# studies: each yields (key columns, function returning the unit's rows)
# ---------------------------------------------------------------------------

def _weakstar(opts: dict):
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts["H"], "H")
    tol = _number(opts, "parity_tolerance")
    band = [None if opts[key] is None else _number(opts, key)
            for key in ("slope_min", "slope_max")]
    # a tensor kernel's name holds a ':' too, so a pair splits at its first
    pairs = [_gate_pair("parity_pairs", pair, ":", 1)
             for pair in _csv_list(opts["parity_pairs"] or "")]
    _require_listed(names, [name for pair in pairs for name in pair], "parity_pairs")
    slopes: dict[str, float] = {}

    def kernel_rows(name):
        make, entry, dim = _resolve_kernel(name)
        Es = _map_rows(lambda H: weak_star_error(make(H)), Hs)
        fit = convergence_slope(Hs, Es)
        slopes[name] = fit.slope
        expected = entry.weak_order + 1
        own = ((3.9, expected + 0.35) if entry.source == "cubic_literature"
               else (expected - 0.1, expected + 0.1))
        lo, hi = (o if b is None else b for o, b in zip(own, band))  # unset is the kernel's
        status = _status(lo <= fit.slope <= hi)
        return [dict(dim=dim, H=H, E_weak=E, ratio=R, slope=fit.slope, slope_min=lo,
                     slope_max=hi, status=status)
                for H, E, R in zip(Hs, Es, _ratios(fit))]

    def parity_rows(a, b):
        gap = abs(_finished(slopes, a) - _finished(slopes, b))
        return [dict(dim=2, slope=gap, slope_min=0.0, slope_max=tol, status=_status(gap <= tol))]

    for name in names:
        yield {"kernel": name}, partial(kernel_rows, name)
    for a, b in pairs:
        yield {"kernel": f"parity({a},{b})"}, partial(parity_rows, a, b)


def _helmholtz(opts: dict, dim: int):
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts["H"], "H")
    k0, cutoff, tol = (_number(opts, key) for key in ("k0", "cutoff", "tolerance"))
    expected_R, rate_min, rate_max, expected_rate = (
        _per_kernel(opts, key, names)
        for key in ("expected_R", "rate_min", "rate_max", "expected_rate"))
    if expected_R is not None and (rate_min is not None or rate_max is not None):
        raise ConfigError("expected_R and rate_min/rate_max are two gates; set one of them")
    if rate_max is not None and rate_min is None:
        raise ConfigError("rate_max needs rate_min")

    # the exact profile at the exterior's nodes, built on the first call and shared; a
    # resonant k0 or a bad cutoff fails there, as one error row per kernel
    problem, solve, exact_profile = (
        (elliptic.Helmholtz1D, elliptic.solve_regularized_1d, elliptic.exact_profile_1d)
        if dim == 1 else (elliptic.RadialHelmholtz2D, elliptic.solve_regularized_2d_radial,
                          elliptic.exact_profile_2d))
    exact = cache(lambda: exact_profile(elliptic.exterior_nodes(dim, k0, cutoff), k0))

    def kernel_rows(idx, name):
        make, entry, _ = _resolve_kernel(name, dim)
        u = exact()
        profiles = [solve(problem(kernel=make(H), k0=k0), u.nodes) for H in Hs]
        Es = [elliptic.pointwise_error(u, u_reg, cutoff) for u_reg in profiles]
        ratios = _ratios(convergence_slope(Hs, Es))
        final = ratios[-1]
        if expected_R is not None:
            target = expected_R[idx]
            ok = final is not None and abs(final - target) <= tol
        elif rate_min is not None:
            target = rate_min[idx]
            hi = rate_max[idx] if rate_max is not None else math.inf
            ok = final is not None and target <= final <= hi
        else:
            target = None
            ok = final is not None
        rate = expected_rate[idx] if expected_rate is not None else None
        return [dict(H=H, E=E, R=R, expected_rate=rate, target_R=target, status=_status(ok))
                for H, E, R in zip(Hs, Es, ratios)]

    for idx, name in enumerate(names):
        yield {"kernel": name}, partial(kernel_rows, idx, name)


def _sobolev(opts: dict):
    names = _csv_list(opts["kernels"])
    Hs = parse_h_schedule(opts["H"], "H")
    alphas = _numbers("alpha", opts["alpha"])
    k0, tol = _number(opts, "k0"), _number(opts, "tolerance")
    wspecs = [elliptic.WeightedNormSpec(alpha=alpha) for alpha in alphas]

    def kernel_rows(name):
        make = _resolve_kernel(name, 2)[0]
        per_H = [elliptic.weighted_sobolev_error(
            elliptic.RadialHelmholtz2D(kernel=make(H), k0=k0), wspecs) for H in Hs]
        rows = []
        for alpha, Es in zip(alphas, zip(*per_H)):
            ratios = _ratios(convergence_slope(Hs, Es))
            status = _status(ratios[-1] is not None and abs(ratios[-1] - alpha) <= tol)
            rows += [dict(alpha=alpha, H=H, E=E, R=R, target_R=alpha, status=status)
                     for H, E, R in zip(Hs, Es, ratios)]
        return rows

    for name in names:
        yield {"kernel": name}, partial(kernel_rows, name)


def advect_runs(opts: dict):
    """The advect study's H schedule, and run(kernel, H) -> (E(x), AdvectionResult).

    A run marches the 1D kernel at width H sampled at the grid's nodes.  All runs
    share one grid, so runs with one step count share its memoized leapfrog march.
    """
    t_final = _number(opts, "T")
    grid = spectral.PeriodicGrid1D(n=_number(opts, "N", integral=True))

    def run(name, H):
        initial = _resolve_kernel(name, 1)[0](H).eval(grid.nodes)
        return spectral.pointwise_error_after_periods(
            spectral.AdvectionRun(grid=grid, initial=initial, t_final=t_final))

    return parse_h_schedule(opts["H"], "H"), run


def _advect(opts: dict):
    names = _csv_list(opts["kernels"])
    Hs, run = advect_runs(opts)
    amp_tol, phase_tol = _number(opts, "amp_tolerance"), _number(opts, "phase_tolerance")
    if opts["ordering"]:
        hi_name, lo_name = _gate_pair("ordering", opts["ordering"], " > ")
        _require_listed(names, (hi_name, lo_name), "ordering")
    maxima: dict[tuple, float] = {}  # (kernel, H) -> max |u(x, 0) - u(x, T)|

    def run_rows(name, H):
        errs, result = run(name, H)
        amp = float(np.max(np.abs(np.abs(result.spectrum_final)
                                  - np.abs(result.spectrum_initial))))
        rho = spectral.leapfrog_phase_factors(result.grid, result.dt)
        dev = float(np.max(np.abs(result.spectrum_final
                                  - result.spectrum_initial * rho**result.n_steps)))
        maxima[name, H] = float(np.max(errs))
        return [dict(max_error=maxima[name, H], amp_drift=amp, phase_dev=dev,
                     status=_status(amp <= amp_tol and dev <= phase_tol))]

    def ordering_rows(hi_name, lo_name):
        # the order must hold at every H; the row reports the smallest gap
        gap = min(_finished(maxima, hi_name, H) - _finished(maxima, lo_name, H) for H in Hs)
        return [dict(max_error=gap, status=_status(gap > 0))]

    for name in names:
        for H in Hs:
            yield {"kernel": name, "H": H}, partial(run_rows, name, H)
    if opts["ordering"]:
        yield ({"kernel": f"ordering({hi_name}>{lo_name})"},
               partial(ordering_rows, hi_name, lo_name))


def kdv_runs(opts: dict, snapshots: tuple = ()):
    """The kdv study's H schedule, and run(H) -> KdVResult.

    The source is 'kernel:<catalog name>', a 1D kernel at width H, or 'gaussian',
    the Gaussian of `spectral.gaussian_source` with sigma = H.  A run marches the
    source sampled at the grid's nodes and records `snapshots` besides 0 and T.
    The first run samples every H and ties the runs (`spectral.kdv_batch`), so
    its `kdv_solve` marches all of them as one batch; each run(H) still makes its
    own `kdv_solve` call and gets its own result or blow-up error.
    """
    source = opts["source"]
    name = source.split(":", 1)[1] if source.startswith("kernel:") else None
    if source != "gaussian" and name not in catalog_names():
        raise ConfigError(f"kdv source must be 'gaussian' or 'kernel:<catalog name>', "
                          f"not '{source}'")
    t_final, dt = _number(opts, "T"), _number(opts, "dt")
    grid = spectral.PeriodicGrid1D(n=_number(opts, "N", integral=True), length=16.0 * math.pi)
    Hs = parse_h_schedule(opts["H"], "H")
    tied = {}  # H -> its run, once the first run has sampled them all

    def sample(H):
        return (spectral.gaussian_source(grid.nodes, H) if name is None
                else _resolve_kernel(name, 1)[0](H).eval(grid.nodes))

    def run(H):
        if not tied:
            runs = {h: spectral.KdVRun(grid=grid, initial=sample(h), dt=dt, t_final=t_final,
                                       snapshots=snapshots) for h in Hs}
            spectral.kdv_batch(runs.values())
            tied.update(runs)
        return spectral.kdv_solve(tied[H])

    return Hs, run


def _kdv(opts: dict):
    Hs, run = kdv_runs(opts)
    mass_tol = _number(opts, "mass_tolerance")

    def run_rows(H):
        result = run(H)
        com = spectral.com_displacement(result)
        drift = abs(result.mass[-1] - result.mass[0])
        return [dict(max_u=float(np.max(np.abs(result.snapshots[-1]))), mass_drift=drift,
                     com_displacement=com, status=_status(drift <= mass_tol and com > 0))]

    for H in Hs:
        yield {"source": opts["source"], "H": H}, partial(run_rows, H)


class _Study(NamedTuple):
    help: str  # one line for the study's CLI subcommand
    units: Callable  # options -> iterator of (key columns, function returning rows)
    columns: tuple  # before the status and message columns every table ends with
    defaults: dict  # config key -> default text; ... is required, None leaves a gate off


_HELMHOLTZ_COLUMNS = ("kernel", "H", "E", "R", "expected_rate", "target_R")
_HELMHOLTZ_GATES = {"expected_R": None, "tolerance": "0.05", "rate_min": None,
                    "rate_max": None, "expected_rate": None}

STUDIES = {
    "weakstar": _Study(
        "weak-star convergence rates", _weakstar,
        ("kernel", "dim", "H", "E_weak", "ratio", "slope", "slope_min", "slope_max"),
        # an unset slope band is the kernel's own: weak order + 1 +- 0.1
        {"kernels": ..., "H": "2^-2..2^-6", "slope_min": None, "slope_max": None,
         "parity_pairs": None, "parity_tolerance": "0.15"}),
    "helmholtz1d": _Study(
        "1D pointwise deleted-neighborhood rates", partial(_helmholtz, dim=1),
        _HELMHOLTZ_COLUMNS,
        {"kernels": ..., "H": "2^-2..2^-5", "k0": "10", "cutoff": "0.25", **_HELMHOLTZ_GATES}),
    "helmholtz2d": _Study(
        "2D radial pointwise rates", partial(_helmholtz, dim=2), _HELMHOLTZ_COLUMNS,
        {"kernels": ..., "H": "2^-2..2^-6", "k0": "10", "cutoff": "0.25", **_HELMHOLTZ_GATES}),
    "helmholtz2d_sobolev": _Study(
        "2D weighted-Sobolev rates", _sobolev, ("alpha", "kernel", "H", "E", "R", "target_R"),
        {"kernels": ..., "H": "2^-2..2^-8", "k0": "10", "alpha": "0.25,0.5,0.9",
         "tolerance": "0.05"}),
    "advect": _Study(
        "leapfrog dispersion study", _advect,
        ("kernel", "H", "max_error", "amp_drift", "phase_dev"),
        {"kernels": ..., "H": "0.5", "N": "1024", "T": "36pi", "amp_tolerance": "1e-9",
         "phase_tolerance": "1e-8", "ordering": None}),
    "kdv": _Study(
        "KdV impulse evolution", _kdv,
        ("source", "H", "max_u", "mass_drift", "com_displacement"),
        {"source": "kernel:eta_2_5_1d", "H": "pi,pi/2,pi/4", "N": "512", "T": "0.05",
         "dt": "1e-4", "mass_tolerance": "1e-10"}),
}


def run_study(config: ExperimentConfig) -> ConvergenceReport:
    """Run a parsed config's units in order; a unit that raises becomes one error row."""
    study = STUDIES.get(config.study)
    if study is None:
        raise ConfigError(f"unknown study '{config.study}'")
    report = ConvergenceReport(study=config.study,
                               columns=study.columns + ("status", "message"))
    for key, unit_rows in study.units(config.options):
        try:
            rows = unit_rows()
        except Exception as exc:  # noqa: BLE001 - one failed unit must not hide the others
            report.add(**key, status="error", message=f"{type(exc).__name__}: {exc}")
            continue
        for row in rows:
            report.add(**key, **row, message="")
    return report
