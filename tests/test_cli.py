import csv
import json
import math

import numpy as np
import pytest
from scipy import special

from deltareg.cli import _COMMAND_FLAGS, build_parser, main
from deltareg.kernels import catalog_lookup
from deltareg.quadrature import gauss_legendre, integrate_panels
from deltareg.reports import STUDIES

from test_elliptic import sobolev_oracle

# rows each table emits; weakstar-2d adds two parity rows, helm2d-sobolev one set per alpha
GATED_TABLES = {"weakstar-1d": 50, "weakstar-2d": 22, "helm1d": 20, "helm2d": 15,
                "helm2d-sobolev": 63, "advect-dispersion": 3, "kdv-impulse": 3}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tables")
    results = {}
    for table in GATED_TABLES:
        out = out_dir / f"{table}.csv"
        code = main(["reproduce", "--table", table, "--out", str(out)])
        with open(out, newline="") as fh:
            results[table] = (code, list(csv.DictReader(fh)))
    return results


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
    assert main(["kdv", "--detail", "--N", "64", "--T", "0.001", "--out", str(out)]) == 0
    snapshots = out.read_text().splitlines()
    spectra = (tmp_path / "u.csv.spectra.csv").read_text().splitlines()
    assert snapshots[0].startswith("x,u(t=0)")
    assert spectra[0].startswith("k,|u_hat|(t=0)")
    assert len(snapshots) == len(spectra) == 65
    # fft layout: the Nyquist wavenumber N/2 * 2 pi / L is carried negative
    assert [float(line.split(",")[0]) for line in spectra[33:35]] == [-4.0, -3.875]


def test_kdv_detail_gaussian_rejects_H(tmp_path, capsys):
    # the Gaussian's width is --sigma; an --H that changed nothing used to exit 0
    out = tmp_path / "u.csv"
    assert main(["kdv", "--detail", "--source", "gaussian", "--H", "0.5", "--N", "64",
                 "--T", "0.001", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and "--sigma" in err and "--H" in err
    assert list(tmp_path.iterdir()) == []


def test_kdv_detail_gaussian_width_is_sigma(tmp_path):
    snapshots = []
    for sigma in ("0.5", "0.05"):
        out = tmp_path / f"u{sigma}.csv"
        assert main(["kdv", "--detail", "--source", "gaussian", "--sigma", sigma, "--N", "64",
                     "--T", "0.001", "--out", str(out)]) == 0
        snapshots.append(out.read_text())
    assert snapshots[0] != snapshots[1]


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


def test_non_dyadic_range_schedule_is_an_error(capsys):
    assert main(["weakstar", "--kernels", "eta_1_1_1d", "--H", "2^-2..0.3"]) == 1
    assert "dyadic" in capsys.readouterr().err


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


def test_dims_filter_that_keeps_no_kernel_is_an_error(capsys):
    assert main(["weakstar", "--kernels", "eta_1_1_2d", "--dims", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "needs ['kernels']" in err


# a gate that names a kernel the study does not list is a config error, not a
# silently missing row
@pytest.mark.parametrize("lines", [
    "study = weakstar\nkernels = eta_1_1_2d, tensor:eta_1_1_1d\n"
    "parity_pairs = eta_1_1_2d:tensor:eta_1_1_1x",
    "study = advect\nkernels = eta_1_1_1d\nordering = eta_2_3_1d > eta_1_1_1d",
], ids=["parity", "ordering"])
def test_gate_naming_an_unlisted_kernel_is_an_error(tmp_path, capsys, lines):
    config = tmp_path / "study.cfg"
    config.write_text(lines + "\n")
    assert main(["study", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "does not list" in err


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
    kernels_flag = "--kernel" if command == "advect" else "--kernels"
    return [arg for key, value in STUDY_FLAGS[command].items() if key in keys
            for arg in (kernels_flag if key == "kernels" else f"--{key}", value)]


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
    args = vars(build_parser().parse_args([command, *_flags(command, {"kernels"})]))
    keys = set(STUDIES[command.replace("-", "_")].defaults) | {"out", "format"}
    study_flags = set(args) - _COMMAND_FLAGS
    assert study_flags <= keys
    # no flag carries a default of its own
    assert all(args[k] is None for k in study_flags - {"kernels"})


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


# a --detail run emits one profile; a list of T, H or sigma values would run one of them
@pytest.mark.parametrize("argv", [
    ["advect", "--kernel", "eta_1_1_1d", "--N", "64", "--T", "2pi,4pi"],
    ["kdv", "--source", "kernel:eta_2_5_1d", "--H", "pi,pi/2", "--N", "64", "--T", "0.001"],
    ["kdv", "--N", "64", "--T", "0.001,0.002"],
    ["kdv", "--source", "gaussian", "--sigma", "pi/64,pi/32", "--N", "64", "--T", "0.001"],
], ids=["advect-T", "kdv-H", "kdv-T", "kdv-sigma"])
def test_detail_with_a_list_is_an_error(tmp_path, capsys, argv):
    out = tmp_path / "detail.csv"
    assert main(argv + ["--detail", "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


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
        "0.0217886963802", "0.00566363148237", "0.00142979464136", "0.000358322276462",
        "0.0122883574944", "0.00334750125549", "0.000854683548372", "0.000214793382132",
        "0.000725076918042", "4.73381026532e-05", "2.9909508906e-06", "1.87442372956e-07",
        "0.061209492534", "0.0172767354211", "0.00445349296945", "0.00112194805945",
        "0.0056283281709", "0.000395240582937", "2.54335007821e-05", "1.60122746443e-06"]
    assert [row["R"] for row in rows] == [
        "", "1.94378058125", "1.98591944571", "1.99647830833",
        "", "1.87613559109", "1.96962233901", "1.9924408085",
        "", "3.93706026004", "3.98432575525", "3.996085194",
        "", "1.82492477297", "1.95582141272", "1.98893142855",
        "", "3.83190345601", "3.95792912924", "3.98947988334"]


# closed-form oracles of the Helmholtz tables; k0, cutoff and grids are those of the
# shipped helm1d, helm2d and helm2d-sobolev configs
K0, CUTOFF = 10.0, 0.25


def _helm1d_oracle(name, H, grid_points=4001):
    """E of a helm1d cell: beyond the support, u - u_H = -b(x) (a(0) - <delta_H, a>) / D,
    a(t) = sin(k0 (1 + t) / 2), b(t) = sin(k0 (1 - |t|) / 2), D = k0 sin k0. The even
    kernel of mass 1 sees a(0) - (a(y) + a(-y)) / 2 = 2 sin(k0 / 2) sin^2(k0 y / 4)
    inside the integrand; a(0) - <delta_H, a> itself would cancel to 1e-8."""
    delta = catalog_lookup(name)(H)
    gap = 2.0 * integrate_panels(
        lambda y: delta.eval(y) * 2.0 * math.sin(K0 / 2) * np.sin(K0 * y / 4) ** 2,
        delta.breakpoints_physical(), gauss_legendre(40))
    x = np.abs(np.linspace(-1.0, 1.0, grid_points))
    x = x[(x > CUTOFF) & (x >= delta.support_radius)]
    return abs(gap) * np.max(np.abs(np.sin(K0 * (1.0 - x) / 2))) / abs(K0 * math.sin(K0))


def _helm2d_oracle(name, H, n_cells=20480):
    """E of a helm2d cell: beyond the support, u - u_H = -b(r) (1 - m_H) / 4, with
    m_H = <delta_H, J0(k0 .)> and b = Y0(k0 .) - (Y0(k0) / J0(k0)) J0(k0 .). 1 - m_H
    keeps the kernel's mass deficit, which the solve sees too: eta_2_3_2d has mass
    1 - 2.4e-14 at every Gauss order, 2e-8 of 1 - m_H at H = 2^-6."""
    delta = catalog_lookup(name)(H)
    m_H = integrate_panels(
        lambda s: delta.eval_radial(s) * special.j0(K0 * s) * 2.0 * np.pi * s,
        delta.breakpoints_physical(), gauss_legendre(40))
    r = np.arange(1, n_cells + 1) / n_cells
    r = r[(r > CUTOFF) & (r >= delta.support_radius)]
    b = special.y0(K0 * r) - special.y0(K0) / special.j0(K0) * special.j0(K0 * r)
    return abs(1.0 - m_H) * np.max(np.abs(b)) / 4.0


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
