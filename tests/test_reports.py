import csv
import io
import json

import numpy as np
import pytest

from deltareg import elliptic, reports, spectral
from deltareg.reports import emit, parse_config_text, run_study


class ForcedFailure(RuntimeError):
    pass


def _fail(*args, **kwargs):
    raise ForcedFailure("forced")


# (config, the name a study's unit calls through, its key columns) per study kind;
# each config holds a single unit, so exactly one error row comes back
FAILING_UNITS = {
    "weakstar": ("kernels = eta_1_1_1d\nH = 2^-2..2^-3", (reports, "weak_star_error"),
                 {"kernel"}),
    "helmholtz1d": ("kernels = eta_1_2_1d\nH = 2^-2..2^-3",
                    (elliptic, "solve_regularized_1d"), {"kernel"}),
    "helmholtz2d": ("kernels = eta_0_1_2d\nH = 2^-2..2^-3",
                    (elliptic, "solve_regularized_2d_radial"), {"kernel"}),
    "helmholtz2d_sobolev": ("kernels = eta_0_1_2d\nH = 2^-2..2^-3",
                            (elliptic, "solve_regularized_2d_radial"), {"kernel"}),
    "advect": ("kernels = eta_1_1_1d\nH = 0.5",
               (spectral, "pointwise_error_after_periods"), {"kernel", "H"}),
    "kdv": ("H = pi", (spectral, "kdv_solve"), {"source", "H"}),
}


@pytest.mark.parametrize("study", sorted(FAILING_UNITS))
def test_failed_unit_is_one_error_row_with_null_columns(monkeypatch, study):
    text, (owner, name), key_columns = FAILING_UNITS[study]
    monkeypatch.setattr(owner, name, _fail)
    report = run_study(parse_config_text(f"study = {study}\n{text}"))
    assert report.exit_code == 1
    [row] = report.rows
    assert row["status"] == "error"
    assert row["message"].startswith("ForcedFailure: ")
    payload = json.loads(emit(report, "json"))
    [json_row] = payload["rows"]
    assert set(json_row) == set(payload["columns"])
    given = key_columns | {"status", "message"}
    assert all(json_row[c] is not None for c in given)
    assert all(json_row[c] is None for c in set(payload["columns"]) - given)
    [csv_row] = list(csv.DictReader(io.StringIO(emit(report, "csv").decode())))
    assert all(csv_row[c] == "" for c in set(payload["columns"]) - given)


def test_parsed_config_carries_every_key_with_its_default():
    config = parse_config_text("study = advect\nkernels = eta_1_1_1d")
    defaults = reports.STUDIES["advect"].defaults
    assert config.options == {**defaults, "kernels": "eta_1_1_1d", "out": None,
                              "format": "csv"}


def test_missing_required_key_is_a_config_error():
    with pytest.raises(reports.ConfigError, match=r"needs \['kernels'\]"):
        parse_config_text("study = weakstar")


def test_unknown_format_is_a_config_error():
    # raised while parsing, so no unit runs before emit would reject it
    with pytest.raises(reports.ConfigError, match="format must be csv or json, not 'xml'"):
        parse_config_text("study = weakstar\nkernels = eta_1_1_1d\nformat = xml")


def test_advect_ordering_must_hold_at_every_H(monkeypatch):
    # the richer kernel ends with the larger error at the last H only
    maxima = {("eta_2_3_1d", 0.5): 1.0, ("eta_1_1_1d", 0.5): 2.0,
              ("eta_2_3_1d", 0.25): 2.0, ("eta_1_1_1d", 0.25): 1.0}
    real = spectral.pointwise_error_after_periods

    def staged(run):
        _, result = real(run)
        return np.array([maxima[run.kernel.name, run.kernel.half_width]]), result

    monkeypatch.setattr(spectral, "pointwise_error_after_periods", staged)
    report = run_study(parse_config_text(
        "study = advect\nkernels = eta_1_1_1d, eta_2_3_1d\nH = 0.5, 0.25\nN = 64\n"
        "T = 2pi\nordering = eta_2_3_1d > eta_1_1_1d"))
    *runs, ordering = report.rows
    assert [row["status"] for row in runs] == ["ok"] * 4
    assert ordering["status"] == "fail"
    assert ordering["max_error"] == -1.0
    assert report.exit_code == 2
