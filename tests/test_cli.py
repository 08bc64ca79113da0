import csv
import functools
import importlib.resources
import json
import math
import pathlib

import numpy as np
import pytest
from scipy import optimize, special

from deltareg.cli import _COMMAND_FLAGS, build_parser, main
from deltareg.kernels import catalog_lookup
from deltareg.quadrature import gauss_legendre, integrate_panels
from deltareg.reports import STUDIES, kdv_runs, parse_config_text

from test_elliptic import sobolev_oracle

# rows each table emits; weakstar-2d adds two parity rows, helm2d-sobolev one set per alpha
GATED_TABLES = {"weakstar-1d": 50, "weakstar-2d": 22, "helm1d": 20, "helm2d": 15,
                "helm2d-sobolev": 63, "advect-dispersion": 3, "kdv-impulse": 3}


# the CSVs this package emits for the gated tables; a change that moves a cell
# updates its golden file in the same commit
GOLDEN = pathlib.Path(__file__).with_name("golden")


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """table -> (exit code, the CSV `reproduce` wrote), all tables in one process."""
    out_dir = tmp_path_factory.mktemp("tables")
    results = {}
    for table in GATED_TABLES:
        out = out_dir / f"{table}.csv"
        results[table] = (main(["reproduce", "--table", table, "--out", str(out)]), out)
    return results


@pytest.fixture(scope="module")
def tables(table_files):
    results = {}
    for table, (code, out) in table_files.items():
        with open(out, newline="") as fh:
            results[table] = (code, list(csv.DictReader(fh)))
    return results


def _csv_cells(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("table", sorted(GATED_TABLES))
def test_reproduce_table_matches_its_golden_file(table_files, table):
    # columns, keys, statuses and every printed 12-digit cell, exactly
    got, want = _csv_cells(table_files[table][1]), _csv_cells(GOLDEN / f"{table}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    changed = [(i, column, g, w) for i, (got_row, want_row) in enumerate(zip(got, want))
               for column, g, w in zip(want[0], got_row, want_row) if g != w]
    assert changed == []
    assert got == want


def test_every_shipped_config_is_a_gated_table():
    configs = importlib.resources.files("deltareg") / "configs"
    shipped = {p.name.removesuffix(".cfg") for p in configs.iterdir() if p.name.endswith(".cfg")}
    assert shipped == set(GATED_TABLES)


@pytest.mark.parametrize("table", sorted(GATED_TABLES))
def test_reproduce_table_passes(tables, table):
    code, rows = tables[table]
    assert code == 0
    assert len(rows) == GATED_TABLES[table]
    assert {row["status"] for row in rows} == {"ok"}


def test_helm2d_fourth_order_kernel_ratio(tables):
    _, rows = tables["helm2d"]
    final = [row for row in rows if row["kernel"] == "eta_2_3_2d"][-1]
    assert 3.85 <= float(final["R"]) <= 4.15


def test_helm1d_fourth_order_kernel_ratio(tables):
    _, rows = tables["helm1d"]
    final = [row for row in rows if row["kernel"] == "eta_2_3_1d"][-1]
    assert float(final["R"]) == pytest.approx(3.9961, abs=0.05)


def test_csv_rows_have_header_width_and_match_json(tmp_path):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(["reproduce", "--table", "weakstar-2d", "--out", str(csv_out)]) == 0
    assert main(["reproduce", "--table", "weakstar-2d", "--format", "json",
                 "--out", str(json_out)]) == 0
    with open(csv_out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    payload = json.loads(json_out.read_text())
    assert header == payload["columns"]
    assert len(rows) == len(payload["rows"]) == GATED_TABLES["weakstar-2d"]
    assert any(row[0].startswith("parity(") for row in rows)
    for row, expected in zip(rows, payload["rows"]):
        assert len(row) == len(header)
        for column, cell in zip(header, row):
            value = expected[column]
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == str(value)


# eta_cubic has its own default band; a configured one must still override it
@pytest.mark.parametrize("kernel", ["eta_1_1_1d", "eta_cubic"])
def test_failing_gate_exits_2(tmp_path, capsys, kernel):
    config = tmp_path / "study.cfg"
    config.write_text(f"study = weakstar\nkernels = {kernel}\nslope_min = 5\nslope_max = 6\n")
    assert main(["study", str(config)]) == 2
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert rows and {row["status"] for row in rows} == {"fail"}
    assert {float(row["slope_min"]) for row in rows} == {5.0}


def test_blow_up_is_reported_without_traceback(tmp_path, capsys):
    code = main(["kdv", "--detail", "--source", "kernel:eta_2_5_1d", "--H", "0.05",
                 "--dt", "0.01", "--T", "1", "--out", str(tmp_path / "u.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: solution blew up")
    assert "Traceback" not in err


def test_kdv_detail_without_out_is_an_error(capsys):
    # the spectra CSV is written beside --out; without it, it would be dropped silently
    assert main(["kdv", "--detail", "--N", "64", "--T", "0.001"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "--out" in err


def test_kdv_detail_writes_snapshots_and_spectra(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["kdv", "--detail", "--H", "pi", "--N", "64", "--T", "0.001",
                 "--out", str(out)]) == 0
    snapshots = out.read_text().splitlines()
    spectra = (tmp_path / "u.csv.spectra.csv").read_text().splitlines()
    assert snapshots[0].startswith("x,u(t=0)")
    assert spectra[0].startswith("k,|u_hat|(t=0)")
    assert len(snapshots) == len(spectra) == 65
    # fft layout: the Nyquist wavenumber N/2 * 2 pi / L is carried negative
    assert [float(line.split(",")[0]) for line in spectra[33:35]] == [-4.0, -3.875]
    # each column is |fft| of the run's snapshot, full layout, in the same order
    _, run = kdv_runs(parse_config_text("study = kdv\nH = pi\nN = 64\nT = 0.001").options)
    moduli = np.abs(np.fft.fft(run(math.pi).snapshots, axis=1))
    assert moduli.shape == (2, 64)
    assert [line.split(",")[1:] for line in spectra[1:]] == [
        [f"{s[i]:.12g}" for s in moduli] for i in range(64)]


# a KdV source is 'gaussian' or 'kernel:<catalog name>'; a typo must not run a Gaussian
@pytest.mark.parametrize("source", ["kernal:eta_2_5_1d", "kernel:eta_2_5_1x", "gauss"])
def test_kdv_source_typo_is_an_error(tmp_path, capsys, source):
    config = tmp_path / "study.cfg"
    config.write_text(f"study = kdv\nsource = {source}\nH = pi\nT = 0.001\n")
    assert main(["study", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"not '{source}'" in err
    assert main(["kdv", "--detail", "--source", source, "--T", "0.001"]) == 1
    assert f"not '{source}'" in capsys.readouterr().err


def test_unknown_table_is_an_error(capsys):
    assert main(["reproduce", "--table", "helm3d"]) == 1
    assert "unknown table" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["seedless = true", "normalization = paper_table1_2d"])
def test_study_rejects_removed_config_keys(tmp_path, capsys, line):
    config = tmp_path / "study.cfg"
    config.write_text(f"study = weakstar\nkernels = eta_1_1_1d\n{line}\n")
    assert main(["study", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


# the pointwise tables take their nodes from k0 and the cutoff; the grid keys are gone
@pytest.mark.parametrize("study, line", [("helmholtz1d", "grid_points = 4001"),
                                         ("helmholtz2d", "nodes = 20480")])
def test_helmholtz_studies_reject_the_removed_grid_keys(tmp_path, capsys, study, line):
    config = tmp_path / "study.cfg"
    config.write_text(f"study = {study}\nkernels = eta_0_1_{study[-2:]}\nH = 2^-2..2^-3\n"
                      f"{line}\n")
    assert main(["study", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_non_dyadic_range_schedule_is_an_error(capsys):
    assert main(["weakstar", "--kernels", "eta_1_1_1d", "--H", "2^-2..0.3"]) == 1
    assert "dyadic" in capsys.readouterr().err


# a malformed schedule names its key, as every other number key does
@pytest.mark.parametrize("argv, message", [
    (["weakstar", "--kernels", "eta_1_1_1d", "--H", "abc"], "H: 'abc' is not a real number"),
    (["weakstar", "--kernels", "eta_1_1_1d", "--H", "2^-2..x"], "H: 'x' is not a real number"),
    (["helmholtz1d", "--kernels", "eta_1_1_1d", "--H", "2^-2..0.3"],
     "H: range schedule must be dyadic: 2^-2..0.3"),
    (["advect", "--kernels", "eta_1_1_1d", "--H", "0,0.5"],
     "H: every width must be positive and finite: 0,0.5"),
])
def test_a_malformed_schedule_is_an_error_naming_its_key(capsys, argv, message):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


# every width of a schedule is checked before any is computed with
@pytest.mark.parametrize("command, schedule", [
    ("weakstar", "inf..2^-3"), ("weakstar", "nan..2^-3"), ("weakstar", "0..2^-3"),
    ("weakstar", "2^-2..inf"), ("weakstar", "inf,0.25,0.125"),
    ("helmholtz1d", "nan,0.25,0.125"),
])
def test_non_finite_or_zero_width_in_a_schedule_is_an_error(capsys, command, schedule):
    assert main([command, "--kernels", "eta_1_1_1d", "--H", schedule]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "positive and finite" in err


# a number whose arithmetic fails is a config error (exit 1), not a traceback
@pytest.mark.parametrize("argv", [
    ["weakstar", "--kernels", "eta_1_1_1d", "--H", "2^10000"],
    ["weakstar", "--kernels", "eta_1_1_1d", "--H", "1/0"],
    ["advect", "--kernel", "eta_1_1_1d", "--T", "1/0"],
    ["weakstar", "--kernels", "eta_1_1_1d", "--H=-8^0.5"],  # a complex power
])
def test_number_whose_arithmetic_fails_is_an_error(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# the number flags of `kernel eval` and `kdv --detail` take the studies' grammar
def test_kernel_eval_width_takes_the_number_grammar(capsys):
    assert main(["kernel", "eval", "--name", "eta_1_1_1d", "--H", "pi/4", "--at", "0.1"]) == 0
    h = math.pi / 4
    assert float(capsys.readouterr().out) == pytest.approx((1.0 - 0.1 / h) / h, rel=1e-11)


def test_kernel_eval_point_takes_the_number_grammar(capsys):
    assert main(["kernel", "eval", "--name", "eta_1_1_1d", "--H", "1", "--at", "pi/16"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0 - math.pi / 16, rel=1e-11)


def test_kdv_detail_snapshots_take_the_number_grammar(tmp_path):
    out = tmp_path / "u.csv"
    assert main(["kdv", "--detail", "--H", "pi", "--N", "64", "--T", "0.001",
                 "--snapshots", "1/2000", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "x,u(t=0),u(t=0.0005),u(t=0.001)"


@pytest.mark.parametrize("flag, argv", [
    ("H", ["kernel", "eval", "--name", "eta_1_1_1d", "--H", "pi/x", "--at", "0.1"]),
    ("at", ["kernel", "eval", "--name", "eta_1_1_1d", "--at", "0.1,y"]),
    ("snapshots", ["kdv", "--detail", "--H", "pi", "--N", "64", "--T", "0.001",
                   "--snapshots", "1/z"]),
])
def test_a_malformed_number_flag_is_an_error_naming_it(capsys, flag, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("H", ["nan", "inf", "0"])
def test_kernel_eval_rejects_a_width_that_is_not_positive_and_finite(capsys, H):
    assert main(["kernel", "eval", "--name", "eta_1_1_1d", "--H", H, "--at", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "positive and finite" in err


# a study that lists no kernel would emit a header-only table and pass
def test_blank_kernel_list_is_an_error(tmp_path, capsys):
    config = tmp_path / "study.cfg"
    config.write_text("study = weakstar\nkernels =\n")
    assert main(["study", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "needs ['kernels']" in err


# a gate that names a kernel the study does not list, or is not of its form, is a
# config error before any unit runs, not a silently missing row or a late traceback
@pytest.mark.parametrize("lines, message", [
    ("study = weakstar\nkernels = eta_1_1_2d, tensor:eta_1_1_1d\n"
     "parity_pairs = eta_1_1_2d:tensor:eta_1_1_1x", "does not list"),
    ("study = advect\nkernels = eta_1_1_1d\nordering = eta_2_3_1d > eta_1_1_1d",
     "does not list"),
    ("study = weakstar\nkernels = eta_1_1_1d\nparity_pairs = eta_1_1_1d",
     "parity_pairs must name two kernels as 'a:b'"),
    ("study = advect\nkernels = eta_1_1_1d, eta_2_3_1d\nordering = eta_2_3_1d, eta_1_1_1d",
     "ordering must name two kernels as 'a > b'"),
    ("study = advect\nkernels = eta_1_1_1d, eta_2_3_1d\n"
     "ordering = eta_2_3_1d > eta_1_1_1d > eta_2_3_1d", "ordering must name two kernels"),
], ids=["parity", "ordering", "parity-form", "ordering-form", "ordering-two-gt"])
def test_gate_naming_an_unlisted_kernel_is_an_error(tmp_path, capsys, lines, message):
    config = tmp_path / "study.cfg"
    config.write_text(lines + "\n")
    assert main(["study", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


# a listed kernel whose unit errored turns its gate into an error row
@pytest.mark.parametrize("lines, gate", [
    ("study = weakstar\nkernels = eta_1_1_1d, nosuch\nH = 2^-2..2^-3\n"
     "parity_pairs = eta_1_1_1d:nosuch", "parity(eta_1_1_1d,nosuch)"),
    ("study = advect\nkernels = eta_1_1_1d, nosuch\nN = 64\nT = 2pi\n"
     "ordering = nosuch > eta_1_1_1d", "ordering(nosuch>eta_1_1_1d)"),
], ids=["parity", "ordering"])
def test_gate_on_an_errored_kernel_is_an_error_row(tmp_path, capsys, lines, gate):
    config = tmp_path / "study.cfg"
    config.write_text(lines + "\n")
    assert main(["study", str(config)]) == 1
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["status"] for row in rows if row["kernel"] == "nosuch"] == ["error"]
    assert rows[-1]["kernel"] == gate
    assert rows[-1]["status"] == "error"
    assert "nosuch" in rows[-1]["message"]


@pytest.mark.parametrize("key", ["expected_R", "rate_min", "rate_max", "expected_rate"])
def test_per_kernel_list_of_wrong_length_is_an_error(tmp_path, capsys, key):
    config = tmp_path / "study.cfg"
    config.write_text("study = helmholtz1d\nkernels = eta_1_2_1d, eta_2_3_1d\n"
                      f"H = 2^-2..2^-3\n{key} = 1.0\n")
    assert main(["study", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{key} must list one value per kernel" in err


# expected_R and a rate band would gate one table twice; only one of them could hold
@pytest.mark.parametrize("band", [["--rate-min", "3.5"], ["--rate-min", "1.9", "--rate-max", "2.1"],
                                  ["--rate-max", "2.1"]])
def test_expected_r_beside_a_rate_band_is_an_error(capsys, band):
    assert main(["helmholtz1d", "--kernels", "eta_1_2_1d", "--H", "2^-2..2^-3",
                 "--expected-R", "1.99", *band]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: expected_R and rate_min/rate_max are two gates; set one of them\n"


def test_rate_max_without_rate_min_is_an_error(tmp_path, capsys):
    config = tmp_path / "study.cfg"
    config.write_text("study = helmholtz1d\nkernels = eta_1_2_1d\nH = 2^-2..2^-3\n"
                      "rate_max = 0.1\n")
    assert main(["study", str(config)]) == 1
    assert "rate_max needs rate_min" in capsys.readouterr().err


# each per-study subcommand with only its kernels and H flags, and the config that
# says the same; both must take every other value from the study's one table
STUDY_FLAGS = {
    "weakstar": {"kernels": "eta_1_1_1d", "H": "2^-2..2^-3"},
    "helmholtz1d": {"kernels": "eta_1_2_1d", "H": "2^-2..2^-3"},
    "helmholtz2d": {"kernels": "eta_0_1_2d", "H": "2^-2..2^-3"},
    "helmholtz2d-sobolev": {"kernels": "eta_0_1_2d", "H": "2^-2..2^-3"},
    "advect": {"kernels": "eta_1_1_1d", "H": "0.5"},
    "kdv": {"H": "pi"},
}


def _flags(command, keys):
    return [arg for key, value in STUDY_FLAGS[command].items() if key in keys
            for arg in (f"--{key}", value)]


@pytest.mark.parametrize("command", sorted(STUDY_FLAGS))
def test_subcommand_matches_study_config(tmp_path, command):
    config = tmp_path / "study.cfg"
    config.write_text(f"study = {command}\n"
                      + "".join(f"{k} = {v}\n" for k, v in STUDY_FLAGS[command].items()))
    by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
    code = main([command, *_flags(command, {"kernels", "H"}), "--out", str(by_flags)])
    assert code == main(["study", str(config), "--out", str(by_config)])
    assert by_flags.read_bytes() == by_config.read_bytes()


@pytest.mark.parametrize("command", sorted(STUDY_FLAGS))
def test_every_subcommand_flag_is_a_key_of_its_study(command):
    keys = set(STUDIES[command.replace("-", "_")].defaults)
    args = vars(build_parser().parse_args([command]))
    study_flags = set(args) - _COMMAND_FLAGS
    assert study_flags == keys | {"out", "format"}
    # no flag carries a default of its own
    assert all(args[k] is None for k in study_flags)
    # and each key's flag is --<key>, with '-' for '_'
    args = vars(build_parser().parse_args(
        [command, *(arg for key in keys for arg in (f"--{key.replace('_', '-')}", key))]))
    assert all(args[key] == key for key in keys)


def test_advect_detail_reads_its_config(tmp_path):
    out = tmp_path / "detail.csv"
    assert main(["advect", "--kernel", "eta_1_1_1d", "--detail", "--N", "64", "--T", "2pi",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,E"
    assert len(lines) == 65


def test_advect_detail_with_several_H_is_an_error(tmp_path, capsys):
    # one profile is emitted; the other H values would be dropped silently
    out = tmp_path / "detail.csv"
    assert main(["advect", "--kernel", "eta_1_1_1d", "--detail", "--H", "0.5,0.25",
                 "--N", "64", "--T", "2pi", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and "one H" in err
    assert not out.exists()


# a --detail run emits one profile; a list of kernels, T or H values would run one of them
@pytest.mark.parametrize("argv", [
    ["advect", "--kernel", "eta_1_1_1d", "--N", "64", "--T", "2pi,4pi"],
    ["advect", "--kernels", "eta_1_1_1d,eta_2_3_1d", "--N", "64", "--T", "2pi"],
    ["kdv", "--source", "kernel:eta_2_5_1d", "--H", "pi,pi/2", "--N", "64", "--T", "0.001"],
    ["kdv", "--N", "64", "--T", "0.001,0.002"],
    ["kdv", "--source", "gaussian", "--N", "64", "--T", "0.001"],
], ids=["advect-T", "advect-kernels", "kdv-H", "kdv-T", "kdv-gaussian-default-H"])
def test_detail_with_a_list_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "detail.csv"
    assert main(argv + ["--detail", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


# a --format the command cannot write is an error, not ignored: the detail runs and
# kernel eval and moments write CSV, kernel solve JSON
@pytest.mark.parametrize("argv", [
    ["advect", "--kernels", "eta_1_1_1d", "--N", "64", "--T", "2pi", "--detail",
     "--format", "json"],
    ["kdv", "--H", "pi", "--N", "64", "--T", "0.001", "--detail", "--format", "json"],
    ["kernel", "eval", "--name", "eta_1_1_1d", "--H", "0.5", "--at", "0.1", "--format", "json"],
    ["kernel", "moments", "--name", "eta_1_1_1d", "--format", "json"],
    ["kernel", "solve", "--m", "1", "--p", "1", "--format", "csv"],
], ids=["advect-detail", "kdv-detail", "kernel-eval", "kernel-moments", "kernel-solve"])
def test_a_format_the_command_cannot_write_is_an_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and "only, not" in err
    assert list(tmp_path.iterdir()) == []


# --detail runs the study's own run: its profile peaks at the table's cell
def test_advect_detail_is_a_run_of_the_study(tmp_path, capsys):
    flags = ["--kernels", "eta_2_3_1d", "--H", "0.5", "--N", "64", "--T", "2pi"]
    assert main(["advect", *flags, "--detail", "--out", str(tmp_path / "E.csv")]) == 0
    assert main(["advect", *flags]) == 0
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    with open(tmp_path / "E.csv", newline="") as fh:
        E = max(float(line["E"]) for line in csv.DictReader(fh))
    assert f"{E:.12g}" == row["max_error"]


@pytest.mark.parametrize("source", ["kernel:eta_2_5_1d", "gaussian"])
def test_kdv_detail_is_a_run_of_the_study(tmp_path, capsys, source):
    flags = ["--source", source, "--H", "pi/2", "--N", "64", "--T", "0.001"]
    assert main(["kdv", *flags, "--detail", "--out", str(tmp_path / "u.csv")]) == 0
    assert main(["kdv", *flags]) == 0
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    with open(tmp_path / "u.csv", newline="") as fh:
        u_final = max(abs(float(line[-1])) for line in list(csv.reader(fh))[1:])
    assert f"{u_final:.12g}" == row["max_u"]


# the stderr JSON of a --detail run: its kernel is the catalog entry, not an alias
@pytest.mark.parametrize("argv, expected", [
    (["advect", "--kernels", "eta_0_1_1d", "--N", "64", "--T", "2pi"],
     {"H": 0.5, "N": 64, "dt": 0.01227184630308513, "kernel": "eta_1_1_1d",
      "kmax_dt": 0.39269908169872414, "n_steps": 512, "t_final": 6.283185307179586}),
    (["kdv", "--source", "kernel:eta_2_5_1d", "--H", "pi", "--N", "64", "--T", "0.001"],
     {"H": 3.141592653589793, "dt": 0.0001, "kernel": "eta_2_5_1d",
      "length": 50.26548245743669, "n": 64, "n_steps": 10, "t_final": 0.001}),
    (["kdv", "--source", "gaussian", "--H", "0.5", "--N", "64", "--T", "0.001"],
     {"H": 0.5, "dt": 0.0001, "kernel": None, "length": 50.26548245743669, "n": 64,
      "n_steps": 10, "t_final": 0.001}),
], ids=["advect", "kdv-kernel", "kdv-gaussian"])
def test_detail_reports_its_run_on_stderr(tmp_path, capsys, argv, expected):
    assert main(argv + ["--detail", "--out", str(tmp_path / "detail.csv")]) == 0
    assert json.loads(capsys.readouterr().err) == expected


# the spectral studies march a 1D source and the weighted-Sobolev study solves in 2D;
# a kernel of the other dimension is an error row that says so
@pytest.mark.parametrize("argv, message", [
    (["advect", "--kernels", "eta_1_1_2d", "--N", "64", "--T", "2pi"],
     "eta_1_1_2d is not a 1D kernel"),
    (["kdv", "--source", "kernel:eta_1_1_2d", "--H", "pi", "--N", "64", "--T", "0.001"],
     "eta_1_1_2d is not a 1D kernel"),
    (["helmholtz2d-sobolev", "--kernels", "eta_1_1_1d", "--H", "2^-2..2^-3"],
     "eta_1_1_1d is not a 2D kernel"),
], ids=["advect", "kdv", "helmholtz2d-sobolev"])
def test_a_spectral_study_of_a_2d_kernel_is_an_error_row(capsys, argv, message):
    assert main(argv) == 1
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["status"] == "error"
    assert row["message"] == f"ConfigError: {message}"


@pytest.mark.parametrize("command, kernel", [("helmholtz1d", "eta_0_1_1d"),
                                             ("helmholtz2d", "eta_0_1_2d")])
def test_a_wavenumber_that_is_not_positive_is_a_clear_error_row(capsys, command, kernel):
    assert main([command, "--kernels", kernel, "--H", "2^-2..2^-3", "--k0", "-10"]) == 1
    [row] = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["status"] == "error"
    assert row["message"] == "ValueError: k0 must be positive"


# an unknown kernel's message prints as written, not as the repr a KeyError gives
def test_an_unknown_kernel_message_is_not_quoted(capsys):
    assert main(["kernel", "eval", "--name", "nosuch"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown kernel 'nosuch'; available: ")
    assert main(["weakstar", "--kernels", "nosuch"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith('nosuch,,,,,,,,error,"UnknownKernelError: unknown ')
    [row] = csv.DictReader(out.splitlines())
    assert row["message"].startswith("UnknownKernelError: unknown kernel 'nosuch'; available: ")


def test_advect_dispersion_table_cells(tables):
    _, rows = tables["advect-dispersion"]
    assert [row["max_error"] for row in rows] == ["0.0651291422461", "2.3755569413",
                                                  "2.31042779905"]
    for row in rows[:2]:
        assert float(row["amp_drift"]) <= 1e-11
        assert float(row["phase_dev"]) <= 5e-9


def test_helm1d_table_cells(tables):
    _, rows = tables["helm1d"]
    assert [row["E"] for row in rows] == [
        "0.0217887032888", "0.00566363327813", "0.0014297950947", "0.000358322390075",
        "0.0122883613906", "0.00334750231687", "0.000854683819366", "0.000214793450237",
        "0.000725077147941", "4.73381176627e-05", "2.99095183892e-06", "1.87442432298e-07",
        "0.0612095119416", "0.017276740899", "0.00445349438151", "0.00112194841519",
        "0.00562832995546", "0.000395240708255", "2.54335088461e-05", "1.60122797205e-06"]
    assert [row["R"] for row in rows] == [
        "", "1.94378058125", "1.98591944571", "1.99647830833",
        "", "1.87613559109", "1.96962233901", "1.9924408085",
        "", "3.93706026004", "3.98432575525", "3.99608519469",
        "", "1.82492477297", "1.95582141272", "1.98893142855",
        "", "3.83190345601", "3.95792912924", "3.98947988341"]


# closed-form oracles of the Helmholtz tables: the sup of |u - u_H| over the closed
# exterior beyond the support, max(cutoff, support radius) <= |x| <= 1; k0 and the
# cutoff are those of the shipped helm1d, helm2d and helm2d-sobolev configs
K0, CUTOFF = 10.0, 0.25


def _helm1d_oracle(name, H):
    """E of a helm1d cell: beyond the support, u - u_H = -b(x) (a(0) - <delta_H, a>) / D,
    a(t) = sin(k0 (1 + t) / 2), b(t) = sin(k0 (1 - |t|) / 2), D = k0 sin k0. The even
    kernel of mass 1 sees a(0) - (a(y) + a(-y)) / 2 = 2 sin(k0 / 2) sin^2(k0 y / 4)
    inside the integrand; a(0) - <delta_H, a> itself would cancel to 1e-8. |b| reaches
    1 at |x| = 1 - pi / k0, which lies beyond the cutoff and every support."""
    delta = catalog_lookup(name)(H)
    gap = 2.0 * integrate_panels(
        lambda y: delta.eval(y) * 2.0 * math.sin(K0 / 2) * np.sin(K0 * y / 4) ** 2,
        delta.breakpoints_physical(), gauss_legendre(40))
    assert max(CUTOFF, delta.support_radius) <= 1.0 - math.pi / K0
    return abs(gap) / abs(K0 * math.sin(K0))


def _outer_factor(r):
    """b = Y0(k0 r) - (Y0(k0) / J0(k0)) J0(k0 r) and b'."""
    c = special.y0(K0) / special.j0(K0)
    return (special.y0(K0 * r) - c * special.j0(K0 * r),
            K0 * (c * special.j1(K0 * r) - special.y1(K0 * r)))


@functools.cache
def _outer_factor_sup(lo):
    """max |b| on [lo, 1], over the endpoints and the zeros of b' bracketed on a scan."""
    scan = np.linspace(lo, 1.0, 1001)
    db = _outer_factor(scan)[1]
    zeros = [optimize.brentq(lambda r: _outer_factor(r)[1], scan[i], scan[i + 1], xtol=1e-15)
             for i in np.flatnonzero(db[:-1] * db[1:] < 0)]
    return float(np.max(np.abs(_outer_factor(np.array([lo, 1.0, *zeros]))[0])))


def _helm2d_oracle(name, H):
    """E of a helm2d cell: beyond the support, u - u_H = -b(r) (1 - m_H) / 4, with
    m_H = <delta_H, J0(k0 .)>. 1 - m_H keeps the kernel's mass deficit, which the solve
    sees too: eta_2_3_2d has mass 1 - 2.4e-14 at every Gauss order, 2e-8 of 1 - m_H at
    H = 2^-6."""
    delta = catalog_lookup(name)(H)
    m_H = integrate_panels(
        lambda s: delta.eval_radial(s) * special.j0(K0 * s) * 2.0 * np.pi * s,
        delta.breakpoints_physical(), gauss_legendre(40))
    return abs(1.0 - m_H) * _outer_factor_sup(max(CUTOFF, delta.support_radius)) / 4.0


def _check_cells(rows, oracle, rel, key=("kernel",)):
    """Every E cell against oracle(row) to rel, and every R cell against the R of the
    oracle's E values, to the 3 rel that two E values within rel allow."""
    runs = {}
    for row in rows:
        runs.setdefault(tuple(row[k] for k in key), []).append(row)
    for run in runs.values():
        Es = [oracle(row) for row in run]
        assert [float(row["E"]) for row in run] == pytest.approx(Es, rel=rel, abs=0.0)
        assert run[0]["R"] == ""
        Rs = [math.log2(e0 / e1) for e0, e1 in zip(Es, Es[1:])]
        assert [float(row["R"]) for row in run[1:]] == pytest.approx(Rs, rel=0.0, abs=3 * rel)


def test_helm1d_cells_match_the_closed_form(tables):
    _check_cells(tables["helm1d"][1],
                 lambda row: _helm1d_oracle(row["kernel"], float(row["H"])), 1e-8)


def test_helm2d_cells_match_the_closed_form(tables):
    _check_cells(tables["helm2d"][1],
                 lambda row: _helm2d_oracle(row["kernel"], float(row["H"])), 1e-8)


def test_helm2d_sobolev_cells_match_the_nested_gauss_norm(tables):
    alphas = (0.25, 0.5, 0.9)
    norms = {}

    def oracle(row):
        unit = row["kernel"], float(row["H"])
        if unit not in norms:
            norms[unit] = sobolev_oracle(catalog_lookup(unit[0])(unit[1]), alphas)
        return norms[unit][alphas.index(float(row["alpha"]))]

    _check_cells(tables["helm2d-sobolev"][1], oracle, 1e-10, key=("alpha", "kernel"))
