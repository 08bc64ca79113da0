import csv
import json

import pytest

from deltareg.cli import main

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


def test_blow_up_is_reported_without_traceback(capsys):
    code = main(["kdv", "--detail", "--source", "kernel:eta_2_5_1d", "--H", "0.05",
                 "--dt", "0.01", "--T", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: solution blew up")
    assert "Traceback" not in err


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
