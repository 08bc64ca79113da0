"""Command-line interface: kernel inspection, convergence studies, table reproduction."""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys

import numpy as np

from . import elliptic, spectral
from .kernels import catalog_json, catalog_lookup, catalog_names, eval_delta
from .moments import (
    BasisFamily,
    BasisKind,
    MomentProblemSpec,
    Normalization,
    SingularSystemError,
    moment_residuals,
    solve_moment_problem,
)
from .quadrature import QuadratureError
from .reports import (
    ConfigError,
    ExperimentConfig,
    emit,
    parse_config_text,
    parse_h_schedule,
    run_study,
)

_TABLE_IDS = (
    "helm1d",
    "helm2d",
    "helm2d-sobolev",
    "weakstar-1d",
    "weakstar-2d",
    "advect-dispersion",
    "kdv-impulse",
)


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _study_options(args, extra: dict) -> dict:
    options = {k: v for k, v in extra.items() if v is not None}
    if getattr(args, "out", None):
        options["out"] = args.out
    if getattr(args, "format", None):
        options["format"] = args.format
    return options


def _run_and_emit(study: str, options: dict) -> int:
    config = ExperimentConfig(study=study, options=options)
    report = run_study(config)
    _write_output(emit(report, config.format), config.out)
    return report.exit_code


def _cmd_kernel(args) -> int:
    if args.action == "list":
        if args.format == "json":
            _write_output(catalog_json().encode() + b"\n", args.out)
        else:
            lines = ["name,dim,moments,weak_order,smoothness,support_factor,source"]
            from .kernels import catalog_entries

            for e in catalog_entries():
                lines.append(f"{e.name},{e.dim},{e.moments},{e.weak_order},"
                             f"{e.smoothness},{e.support_factor:g},{e.source}")
            _write_output(("\n".join(lines) + "\n").encode(), args.out)
        return 0
    if args.action == "eval":
        builder = catalog_lookup(args.name)
        delta = builder(args.H)
        point = [float(t) for t in args.at.split(",")]
        value = eval_delta(delta, point)
        _write_output(f"{value:.12g}\n".encode(), args.out)
        return 0
    if args.action == "moments":
        builder = catalog_lookup(args.name)
        res = moment_residuals(builder.profile(), args.upto, dim=builder.entry.dim)
        text = ",".join(f"{v:.12g}" for v in res)
        _write_output((text + "\n").encode(), args.out)
        return 0
    if args.action == "solve":
        basis_kind = BasisKind.COSINE if args.basis == "cosine" else BasisKind.SHIFTED_LEGENDRE
        norm = (Normalization.PAPER_TABLE1_2D if args.normalization == "paper_table1_2d"
                else Normalization.SURFACE_MEASURE)
        spec = MomentProblemSpec(
            dim=args.dim, moments=args.m, degree=args.p,
            basis=BasisFamily(basis_kind, args.p),
            boundary_smoothness=args.boundary_smoothness,
            origin_smoothness=args.origin_smoothness,
            normalization=norm,
        )
        kernel = solve_moment_problem(spec, name=args.name or "")
        _write_output((kernel.to_json() + "\n").encode(), args.out)
        return 0
    raise ConfigError(f"unknown kernel action {args.action}")


def _cmd_weakstar(args) -> int:
    kernels = args.kernels
    if args.dims:
        dims = {int(d) for d in args.dims.split(",")}
        names = []
        for name in kernels.split(","):
            name = name.strip()
            entry_dim = 2 if name.startswith("tensor:") else catalog_lookup(name).entry.dim
            if entry_dim in dims:
                names.append(name)
        kernels = ",".join(names)
    return _run_and_emit("weakstar", _study_options(args, {
        "kernels": kernels, "H": args.H,
    }))


def _cmd_helmholtz1d(args) -> int:
    return _run_and_emit("helmholtz1d", _study_options(args, {
        "kernels": args.kernels, "H": args.H, "k0": str(args.k0),
        "cutoff": args.cutoff, "grid_points": args.grid_points,
    }))


def _cmd_helmholtz2d(args) -> int:
    return _run_and_emit("helmholtz2d", _study_options(args, {
        "kernels": args.kernels, "H": args.H, "k0": str(args.k0),
        "cutoff": args.cutoff, "nodes": args.nodes,
    }))


def _cmd_sobolev(args) -> int:
    return _run_and_emit("helmholtz2d_sobolev", _study_options(args, {
        "kernels": args.kernels, "H": args.H, "alpha": args.alpha,
        "k0": str(args.k0), "nodes": args.nodes,
    }))


def _cmd_advect(args) -> int:
    if args.detail:
        builder = catalog_lookup(args.kernel)
        grid = spectral.PeriodicGrid1D(n=args.N)
        run = spectral.AdvectionRun(grid=grid, kernel=builder(args.H),
                                    t_final=parse_h_schedule(args.T)[0])
        errs, result = spectral.pointwise_error_after_periods(run)
        lines = ["x,E"]
        for x, e in zip(grid.nodes, errs):
            lines.append(f"{x:.12g},{e:.12g}")
        _write_output(("\n".join(lines) + "\n").encode(), args.out)
        meta = dict(result.metadata, n_steps=result.n_steps, dt=result.dt, N=args.N)
        sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")
        return 0
    return _run_and_emit("advect", _study_options(args, {
        "kernels": args.kernel, "H": args.H, "N": str(args.N), "T": args.T,
    }))


def _cmd_kdv(args) -> int:
    if args.detail:
        grid = spectral.PeriodicGrid1D(n=args.N, length=16.0 * math.pi)
        snapshots = tuple(float(t) for t in args.snapshots.split(",")) if args.snapshots else ()
        if args.source.startswith("kernel:"):
            builder = catalog_lookup(args.source.split(":", 1)[1])
            run = spectral.KdVRun(grid=grid, kernel=builder(parse_h_schedule(args.H)[0]),
                                  dt=args.dt, t_final=parse_h_schedule(args.T)[0],
                                  snapshots=snapshots)
        else:
            sigma = parse_h_schedule(args.sigma)[0]
            run = spectral.KdVRun(grid=grid, gaussian_sigma=sigma, dt=args.dt,
                                  t_final=parse_h_schedule(args.T)[0],
                                  snapshots=snapshots,
                                  gaussian_normalized=args.normalized_gaussian)
        result = spectral.kdv_solve(run)
        lines = ["x," + ",".join(f"u(t={t:g})" for t in result.times)]
        for i, x in enumerate(grid.nodes):
            lines.append(f"{x:.12g}," + ",".join(f"{u[i]:.12g}" for u in result.snapshots))
        _write_output(("\n".join(lines) + "\n").encode(), args.out)
        spec_lines = ["k," + ",".join(f"|u_hat|(t={t:g})" for t in result.times)]
        k = grid.full_wavenumbers
        for i in range(grid.n):
            spec_lines.append(f"{k[i]:.12g}," + ",".join(f"{s[i]:.12g}" for s in result.spectra))
        if args.out:
            with open(args.out + ".spectra.csv", "wb") as fh:
                fh.write(("\n".join(spec_lines) + "\n").encode())
        sys.stderr.write(json.dumps(result.metadata, sort_keys=True) + "\n")
        return 0
    return _run_and_emit("kdv", _study_options(args, {
        "source": args.source, "H": args.H, "N": str(args.N), "T": args.T,
        "dt": str(args.dt),
    }))


def _cmd_reproduce(args) -> int:
    table = args.table
    if table not in _TABLE_IDS:
        raise ConfigError(f"unknown table '{table}'; known: {', '.join(_TABLE_IDS)}")
    resource = importlib.resources.files("deltareg") / "configs" / f"{table}.cfg"
    text = resource.read_text()
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.format:
        overrides["format"] = args.format
    config = parse_config_text(text, overrides)
    report = run_study(config)
    _write_output(emit(report, config.format), config.out)
    return report.exit_code


def _cmd_study(args) -> int:
    with open(args.config) as fh:
        config = parse_config_text(fh.read(),
                                   {"out": args.out, "format": args.format})
    report = run_study(config)
    _write_output(emit(report, config.format), config.out)
    return report.exit_code


def _add_common(p) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", default=None, choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltareg",
        description="Moment-matched point-source regularizations and convergence studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pk = sub.add_parser("kernel", help="catalog inspection and moment-problem solves")
    pk.add_argument("action", choices=("list", "eval", "moments", "solve"))
    pk.add_argument("--name", default=None)
    pk.add_argument("--H", type=float, default=1.0)
    pk.add_argument("--at", default="0.0", help="evaluation point, e.g. '0.1' or '0.1,0.2'")
    pk.add_argument("--upto", type=int, default=2)
    pk.add_argument("--dim", type=int, default=1)
    pk.add_argument("--m", type=int, default=0)
    pk.add_argument("--p", type=int, default=0)
    pk.add_argument("--basis", choices=("legendre", "cosine"), default="legendre")
    pk.add_argument("--boundary-smoothness", type=int, default=0)
    pk.add_argument("--origin-smoothness", type=int, default=0)
    pk.add_argument("--normalization", choices=("surface_measure", "paper_table1_2d"),
                    default="surface_measure")
    _add_common(pk)
    pk.set_defaults(fn=_cmd_kernel)

    pw = sub.add_parser("weakstar", help="weak-star convergence rates")
    pw.add_argument("--kernels", required=True)
    pw.add_argument("--dims", default=None, help="filter kernels by dimension, e.g. 1,2")
    pw.add_argument("--H", default="2^-2..2^-6")
    _add_common(pw)
    pw.set_defaults(fn=_cmd_weakstar)

    p1 = sub.add_parser("helmholtz1d", help="1D pointwise deleted-neighborhood rates")
    p1.add_argument("--kernels", required=True)
    p1.add_argument("--H", default="2^-2..2^-5")
    p1.add_argument("--k0", type=float, default=10.0)
    p1.add_argument("--cutoff", default="0.25")
    p1.add_argument("--grid-points", dest="grid_points", default="4001")
    _add_common(p1)
    p1.set_defaults(fn=_cmd_helmholtz1d)

    p2 = sub.add_parser("helmholtz2d", help="2D radial pointwise rates")
    p2.add_argument("--kernels", required=True)
    p2.add_argument("--H", default="2^-2..2^-6")
    p2.add_argument("--k0", type=float, default=10.0)
    p2.add_argument("--cutoff", default="0.25")
    p2.add_argument("--nodes", default="20480")
    _add_common(p2)
    p2.set_defaults(fn=_cmd_helmholtz2d)

    ps = sub.add_parser("helmholtz2d-sobolev", help="2D weighted-Sobolev rates")
    ps.add_argument("--kernels", required=True)
    ps.add_argument("--H", default="2^-2..2^-8")
    ps.add_argument("--alpha", default="0.25,0.5,0.9")
    ps.add_argument("--k0", type=float, default=10.0)
    ps.add_argument("--nodes", default="20480")
    _add_common(ps)
    ps.set_defaults(fn=_cmd_sobolev)

    pa = sub.add_parser("advect", help="leapfrog dispersion study")
    pa.add_argument("--kernel", required=True)
    pa.add_argument("--H", default="0.5")
    pa.add_argument("--N", type=int, default=1024)
    pa.add_argument("--T", default="36pi")
    pa.add_argument("--detail", action="store_true", help="emit the E(x) profile CSV")
    _add_common(pa)
    pa.set_defaults(fn=_cmd_advect)

    pkdv = sub.add_parser("kdv", help="KdV impulse evolution")
    pkdv.add_argument("--source", default="kernel:eta_2_5_1d",
                      help="kernel:<name> or 'gaussian'")
    pkdv.add_argument("--H", default="pi,pi/2,pi/4")
    pkdv.add_argument("--sigma", default="pi/64")
    pkdv.add_argument("--normalized-gaussian", action="store_true")
    pkdv.add_argument("--N", type=int, default=512)
    pkdv.add_argument("--T", default="0.05")
    pkdv.add_argument("--dt", type=float, default=1e-4)
    pkdv.add_argument("--snapshots", default=None)
    pkdv.add_argument("--detail", action="store_true",
                      help="emit snapshot and spectra CSVs for a single run")
    _add_common(pkdv)
    pkdv.set_defaults(fn=_cmd_kdv)

    pr = sub.add_parser("reproduce", help="rebuild a published table from a shipped config")
    pr.add_argument("--table", required=True, help=", ".join(_TABLE_IDS))
    _add_common(pr)
    pr.set_defaults(fn=_cmd_reproduce)

    pst = sub.add_parser("study", help="run a study from a config file")
    pst.add_argument("config")
    _add_common(pst)
    pst.set_defaults(fn=_cmd_study)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, KeyError, spectral.BlowUpError, QuadratureError,
            SingularSystemError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
