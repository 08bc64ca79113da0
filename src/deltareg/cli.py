"""Command-line interface: kernel inspection, convergence studies, table reproduction."""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys

import numpy as np

from . import spectral
from .kernels import catalog_json, catalog_lookup, catalog_rows
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
from .reports import (STUDIES, ConfigError, _csv_list, _number, _numbers, advect_runs, emit,
                      kdv_runs, parse_config_text, run_study)

_CONFIGS = importlib.resources.files("deltareg") / "configs"


def _table_ids() -> list[str]:
    """The tables `reproduce` rebuilds: one per shipped config."""
    return sorted(p.name.removesuffix(".cfg") for p in _CONFIGS.iterdir()
                  if p.name.endswith(".cfg"))


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


# per-study subcommand flags that steer the command rather than its study; every
# other flag is a config key of the study and reaches it through parse_config_text
_COMMAND_FLAGS = {"command", "fn", "detail", "snapshots"}


def _flag_config(args):
    """The subcommand's study config: its flags override the study's defaults."""
    overrides = {k: v for k, v in vars(args).items() if k not in _COMMAND_FLAGS}
    return parse_config_text(f"study = {args.command}", overrides)


def _emit_study(config) -> int:
    report = run_study(config)
    _write_output(emit(report, config.format), config.out)
    return report.exit_code


def _cmd_kernel(args) -> int:
    written = {"eval": "csv", "moments": "csv", "solve": "json"}.get(args.action, args.format)
    if args.format not in (None, written):
        raise ConfigError(f"kernel {args.action} writes {written} only, not {args.format}")
    if args.action == "list":
        if args.format == "json":
            _write_output(catalog_json().encode() + b"\n", args.out)
        else:
            rows = catalog_rows()
            columns = [c for c in rows[0] if c != "closed_form"]  # its commas stay in the JSON
            lines = [",".join(columns)] + [",".join(
                f"{row[c]:g}" if isinstance(row[c], float) else str(row[c]) for c in columns)
                for row in rows]
            _write_output(("\n".join(lines) + "\n").encode(), args.out)
        return 0
    if args.action == "eval":
        delta = catalog_lookup(args.name)(_number(vars(args), "H"))
        point = _numbers("at", args.at)
        if len(point) != delta.dim:
            raise ConfigError(f"expected a point of dimension {delta.dim}, got '{args.at}'")
        value = delta.eval(point[0] if delta.dim == 1 else point)
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
        spec = MomentProblemSpec(
            dim=args.dim, moments=args.m, degree=args.p,
            basis=BasisFamily(basis_kind, args.p),
            boundary_smoothness=args.boundary_smoothness,
            origin_smoothness=args.origin_smoothness,
            normalization=Normalization(args.normalization),
        )
        kernel = solve_moment_problem(spec, name=args.name or "")
        _write_output((kernel.to_json() + "\n").encode(), args.out)
        return 0
    raise ConfigError(f"unknown kernel action {args.action}")


def _cmd_study_flags(args) -> int:
    config = _flag_config(args)
    if getattr(args, "detail", False):
        if args.format not in (None, "csv"):
            raise ConfigError(f"{args.command} --detail writes csv only, not {args.format}")
        return _DETAIL[config.study](config, args)
    return _emit_study(config)


def _one(command: str, what: str, values: list):
    """The one value a --detail run takes from a list; a longer list is an error."""
    if len(values) > 1:
        raise ConfigError(f"{command} --detail emits the profile of one run; "
                          f"give one {what}, not {len(values)}")
    return values[0]


def _advect_detail(config, args) -> int:
    opts = config.options
    Hs, run = advect_runs(opts)
    name, H = _one("advect", "kernel", _csv_list(opts["kernels"])), _one("advect", "H", Hs)
    errs, result = run(name, H)
    lines = ["x,E"]
    for x, e in zip(result.grid.nodes, errs):
        lines.append(f"{x:.12g},{e:.12g}")
    _write_output(("\n".join(lines) + "\n").encode(), config.out)
    meta = dict(kernel=catalog_lookup(name).entry.name, H=H, t_final=_number(opts, "T"),
                kmax_dt=result.kmax_dt, n_steps=result.n_steps, dt=result.dt, N=result.grid.n)
    sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")
    return 0


def _kdv_detail(config, args) -> int:
    snapshots = tuple(_numbers("snapshots", args.snapshots or ""))
    Hs, run = kdv_runs(config.options, snapshots)
    if not config.out:
        raise ConfigError("kdv --detail writes a snapshot CSV and a .spectra.csv beside it; "
                          "name the snapshot file with --out")
    H = _one("kdv", "H", Hs)
    result = run(H)
    grid = result.grid
    lines = ["x," + ",".join(f"u(t={t:g})" for t in result.times)]
    for i, x in enumerate(grid.nodes):
        lines.append(f"{x:.12g}," + ",".join(f"{u[i]:.12g}" for u in result.snapshots))
    _write_output(("\n".join(lines) + "\n").encode(), config.out)
    spec_lines = ["k," + ",".join(f"|u_hat|(t={t:g})" for t in result.times)]
    k = grid.full_wavenumbers
    spectra = np.abs(np.fft.fft(result.snapshots, axis=1))
    for i in range(grid.n):
        spec_lines.append(f"{k[i]:.12g}," + ",".join(f"{s[i]:.12g}" for s in spectra))
    with open(config.out + ".spectra.csv", "wb") as fh:
        fh.write(("\n".join(spec_lines) + "\n").encode())
    name = config.options["source"].removeprefix("kernel:")  # kdv_runs checked the source
    kernel = None if name == "gaussian" else catalog_lookup(name).entry.name
    sys.stderr.write(json.dumps(dict(result.metadata, kernel=kernel, H=H), sort_keys=True) + "\n")
    return 0


_DETAIL = {"advect": _advect_detail, "kdv": _kdv_detail}


def _cmd_reproduce(args) -> int:
    if args.table not in _table_ids():
        raise ConfigError(f"unknown table '{args.table}'; known: {', '.join(_table_ids())}")
    return _emit_study(parse_config_text((_CONFIGS / f"{args.table}.cfg").read_text(),
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
    pk.add_argument("--H", default="1.0")
    pk.add_argument("--at", default="0.0", help="evaluation point, e.g. '0.1' or '0.1,0.2'")
    pk.add_argument("--upto", type=int, default=2)
    pk.add_argument("--dim", type=int, default=1)
    pk.add_argument("--m", type=int, default=0)
    pk.add_argument("--p", type=int, default=0)
    pk.add_argument("--basis", choices=("legendre", "cosine"), default="legendre",
                    help="legendre: the polynomials of degree p, solved exactly on the "
                         "monomials; cosine: cos(k pi r) for k <= p")
    pk.add_argument("--boundary-smoothness", type=int, default=0)
    pk.add_argument("--origin-smoothness", type=int, default=0)
    pk.add_argument("--normalization", choices=[n.value for n in Normalization],
                    default=Normalization.SURFACE_MEASURE.value)
    _add_common(pk)
    pk.set_defaults(fn=_cmd_kernel)

    # one flag per config key of each study, default None, so the study's table
    # supplies every default
    studies = {}
    for study, spec in STUDIES.items():
        name = study.replace("_", "-")
        p = studies[study] = sub.add_parser(
            name, help=spec.help, epilog=_study_keys_help(name),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        for key in spec.defaults:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key)
        _add_common(p)
        p.set_defaults(fn=_cmd_study_flags)
    studies["advect"].add_argument(
        "--detail", action="store_true",
        help="emit the E(x) profile CSV of one run of the study (one kernel, one H)")
    studies["kdv"].add_argument(
        "--detail", action="store_true",
        help="emit snapshot and spectra CSVs of one run of the study (one H; needs --out)")
    studies["kdv"].add_argument("--snapshots", help="--detail snapshot times, e.g. 0.01,0.02")

    pr = sub.add_parser("reproduce", help="rebuild a published table from a shipped config")
    pr.add_argument("--table", required=True, help=", ".join(_table_ids()))
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
