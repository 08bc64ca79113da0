import json

import pytest

from deltareg.cli import main

# rows each table emits; weakstar-2d adds two parity rows, helm2d-sobolev one set per alpha
GATED_TABLES = {"weakstar-1d": 50, "weakstar-2d": 22, "helm2d": 15, "helm2d-sobolev": 63}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tables")
    results = {}
    for table in GATED_TABLES:
        # JSON, because the CSV writer leaves the commas in parity-row names unquoted
        out = out_dir / f"{table}.json"
        code = main(["reproduce", "--table", table, "--format", "json", "--out", str(out)])
        results[table] = (code, json.loads(out.read_text())["rows"])
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
    assert 3.85 <= final["R"] <= 4.15


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
