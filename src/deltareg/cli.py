"""Command-line interface: kernel inspection, convergence studies, table reproduction."""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import sys

from . import spectral
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
from .reports import (STUDIES, ConfigError, _parse_number, emit, kdv_source_kernel,
                      parse_config_text, parse_h_schedule, run_study)

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


# per-study subcommand flags that steer the command rather than its study; every
# other flag is a config key of the study and reaches it through parse_config_text
_COMMAND_FLAGS = {"command", "fn", "dims", "detail", "sigma", "normalized_gaussian",
                  "snapshots"}


def _flag_config(args):
    """The subcommand's study config: its flags override the study's defaults."""
    overrides = {k: v for k, v in vars(args).items() if k not in _COMMAND_FLAGS}
    return parse_config_text(f"study = {args.command}", overrides)


def _emit_study(config) -> int:
    report = run_study(config)
    _write_output(emit(report, config.format), config.out)
    return report.exit_code


def _cmd_kernel(args) -> int:
    if args.action == "list":
        if args.format == "json":
            _write_output(catalog_json().encode() + b"\n", args.out)
        else:
            lines = ["name,dim,moments,weak_order,smoothness,support_factor,source"]
            for name in catalog_names():
                e = catalog_lookup(name).entry
                lines.append(f"{name},{e.dim},{e.moments},{e.weak_order},"
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


def _cmd_study_flags(args) -> int:
    return _emit_study(_flag_config(args))


def _cmd_weakstar(args) -> int:
    if args.dims:
        dims = {int(d) for d in args.dims.split(",")}
        names = []
        for name in args.kernels.split(","):
            name = name.strip()
            entry_dim = 2 if name.startswith("tensor:") else catalog_lookup(name).entry.dim
            if entry_dim in dims:
                names.append(name)
        args.kernels = ",".join(names)
    return _cmd_study_flags(args)


def _detail_width(command: str, what: str, text: str) -> float:
    """The one width a --detail run takes from a schedule; a longer list is an error."""
    widths = parse_h_schedule(text)
    if len(widths) > 1:
        raise ConfigError(f"{command} --detail emits the profile of one run; "
                          f"give one {what}, not {len(widths)}")
    return widths[0]


def _cmd_advect(args) -> int:
    config = _flag_config(args)
    if not args.detail:
        return _emit_study(config)
    opts = config.options
    H = _detail_width("advect", "H", opts["H"])
    builder = catalog_lookup(opts["kernels"])
    grid = spectral.PeriodicGrid1D(n=int(opts["N"]))
    run = spectral.AdvectionRun(grid=grid, kernel=builder(H),
                                t_final=_parse_number(opts["T"]))
    errs, result = spectral.pointwise_error_after_periods(run)
    lines = ["x,E"]
    for x, e in zip(grid.nodes, errs):
        lines.append(f"{x:.12g},{e:.12g}")
    _write_output(("\n".join(lines) + "\n").encode(), config.out)
    meta = dict(result.metadata, n_steps=result.n_steps, dt=result.dt, N=grid.n)
    sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")
    return 0


def _cmd_kdv(args) -> int:
    config = _flag_config(args)
    if not args.detail:
        return _emit_study(config)
    opts = config.options
    grid = spectral.PeriodicGrid1D(n=int(opts["N"]), length=16.0 * math.pi)
    snapshots = tuple(float(t) for t in args.snapshots.split(",")) if args.snapshots else ()
    builder = kdv_source_kernel(opts["source"])
    if builder is not None:
        H = _detail_width("kdv", "H", args.H) if args.H else parse_h_schedule(opts["H"])[0]
        source = dict(kernel=builder(H))
    elif args.H:
        raise ConfigError("kdv --detail --source gaussian takes its width from --sigma, "
                          "not --H")
    else:
        source = dict(gaussian_sigma=_detail_width("kdv", "sigma", args.sigma),
                      gaussian_normalized=args.normalized_gaussian)
    run = spectral.KdVRun(grid=grid, dt=float(opts["dt"]), t_final=_parse_number(opts["T"]),
                          snapshots=snapshots, **source)
    if not config.out:
        raise ConfigError("kdv --detail writes a snapshot CSV and a .spectra.csv beside it; "
                          "name the snapshot file with --out")
    result = spectral.kdv_solve(run)
    lines = ["x," + ",".join(f"u(t={t:g})" for t in result.times)]
    for i, x in enumerate(grid.nodes):
        lines.append(f"{x:.12g}," + ",".join(f"{u[i]:.12g}" for u in result.snapshots))
    _write_output(("\n".join(lines) + "\n").encode(), config.out)
    spec_lines = ["k," + ",".join(f"|u_hat|(t={t:g})" for t in result.times)]
    k = grid.full_wavenumbers
    for i in range(grid.n):
        spec_lines.append(f"{k[i]:.12g}," + ",".join(f"{s[i]:.12g}" for s in result.spectra))
    with open(config.out + ".spectra.csv", "wb") as fh:
        fh.write(("\n".join(spec_lines) + "\n").encode())
    sys.stderr.write(json.dumps(result.metadata, sort_keys=True) + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    table = args.table
    if table not in _TABLE_IDS:
        raise ConfigError(f"unknown table '{table}'; known: {', '.join(_TABLE_IDS)}")
    resource = importlib.resources.files("deltareg") / "configs" / f"{table}.cfg"
    return _emit_study(parse_config_text(resource.read_text(),
                                         {"out": args.out, "format": args.format}))


def _cmd_study(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    return _emit_study(parse_config_text(text, {"out": args.out, "format": args.format}))


def _study_keys_help(study: str) -> str:
    """The study's config keys and defaults, as `deltareg study` reads them."""
    lines = [f"study = {study}  (also: out, format)"]
    for key, default in STUDIES[study.replace("-", "_")].defaults.items():
        shown = "(required)" if default is ... else "(unset)" if default is None else default
        lines.append(f"  {key} = {shown}")
    return "\n".join(lines)


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

    # the per-study flags default to None, so the study's table supplies every default
    def study_parser(name, help):
        return sub.add_parser(name, help=help, epilog=_study_keys_help(name),
                              formatter_class=argparse.RawDescriptionHelpFormatter)

    pw = study_parser("weakstar", "weak-star convergence rates")
    pw.add_argument("--kernels", required=True)
    pw.add_argument("--dims", help="filter kernels by dimension, e.g. 1,2")
    pw.add_argument("--H")
    _add_common(pw)
    pw.set_defaults(fn=_cmd_weakstar)

    p1 = study_parser("helmholtz1d", "1D pointwise deleted-neighborhood rates")
    p1.add_argument("--kernels", required=True)
    p1.add_argument("--H")
    p1.add_argument("--k0", type=float)
    p1.add_argument("--cutoff")
    p1.add_argument("--grid-points", dest="grid_points")
    _add_common(p1)
    p1.set_defaults(fn=_cmd_study_flags)

    p2 = study_parser("helmholtz2d", "2D radial pointwise rates")
    p2.add_argument("--kernels", required=True)
    p2.add_argument("--H")
    p2.add_argument("--k0", type=float)
    p2.add_argument("--cutoff")
    p2.add_argument("--nodes")
    _add_common(p2)
    p2.set_defaults(fn=_cmd_study_flags)

    ps = study_parser("helmholtz2d-sobolev", "2D weighted-Sobolev rates")
    ps.add_argument("--kernels", required=True)
    ps.add_argument("--H")
    ps.add_argument("--alpha")
    ps.add_argument("--k0", type=float)
    _add_common(ps)
    ps.set_defaults(fn=_cmd_study_flags)

    pa = study_parser("advect", "leapfrog dispersion study")
    pa.add_argument("--kernel", dest="kernels", metavar="KERNEL", required=True)
    pa.add_argument("--H")
    pa.add_argument("--N", type=int)
    pa.add_argument("--T")
    pa.add_argument("--detail", action="store_true",
                    help="emit the E(x) profile CSV of a single run (one H)")
    _add_common(pa)
    pa.set_defaults(fn=_cmd_advect)

    pkdv = study_parser("kdv", "KdV impulse evolution")
    pkdv.add_argument("--source", help="kernel:<name> or 'gaussian'")
    pkdv.add_argument("--H")
    pkdv.add_argument("--sigma", default="pi/64", help="--detail gaussian width")
    pkdv.add_argument("--normalized-gaussian", action="store_true")
    pkdv.add_argument("--N", type=int)
    pkdv.add_argument("--T")
    pkdv.add_argument("--dt", type=float)
    pkdv.add_argument("--snapshots")
    pkdv.add_argument("--detail", action="store_true",
                      help="emit snapshot and spectra CSVs for a single run at one H "
                           "(default: the largest of the study's) and T (needs --out)")
    _add_common(pkdv)
    pkdv.set_defaults(fn=_cmd_kdv)

    pr = sub.add_parser("reproduce", help="rebuild a published table from a shipped config")
    pr.add_argument("--table", required=True, help=", ".join(_TABLE_IDS))
    _add_common(pr)
    pr.set_defaults(fn=_cmd_reproduce)

    pst = sub.add_parser("study", help="run a study from a config file",
                         epilog="\n".join(_study_keys_help(name) for name in STUDIES),
                         formatter_class=argparse.RawDescriptionHelpFormatter)
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
