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
    # the richer kernel ends with the larger error at the last H only; the units run
    # in order: eta_1_1_1d at H = 0.5, 0.25, then eta_2_3_1d at H = 0.5, 0.25
    maxima = iter([2.0, 1.0, 1.0, 2.0])
    real = spectral.pointwise_error_after_periods

    def staged(run):
        _, result = real(run)
        return np.array([next(maxima)]), result

    monkeypatch.setattr(spectral, "pointwise_error_after_periods", staged)
    report = run_study(parse_config_text(
        "study = advect\nkernels = eta_1_1_1d, eta_2_3_1d\nH = 0.5, 0.25\nN = 64\n"
        "T = 2pi\nordering = eta_2_3_1d > eta_1_1_1d"))
    *runs, ordering = report.rows
    assert [row["status"] for row in runs] == ["ok"] * 4
    assert ordering["status"] == "fail"
    assert ordering["max_error"] == -1.0
    assert report.exit_code == 2


# every number key of a study takes the grammar of H and cutoff, and a malformed one
# is a config error that names its key, raised before any unit runs
_NUMBER_KEYS = {
    "weakstar": ("kernels = eta_1_1_1d", ["slope_min", "slope_max", "parity_tolerance"]),
    "helmholtz1d": ("kernels = eta_0_1_1d", ["k0", "tolerance"]),
    "helmholtz2d": ("kernels = eta_0_1_2d", ["k0", "tolerance"]),
    "helmholtz2d_sobolev": ("kernels = eta_0_1_2d", ["k0", "tolerance"]),
    "advect": ("kernels = eta_1_1_1d", ["amp_tolerance", "phase_tolerance", "N"]),
    "kdv": ("", ["dt", "mass_tolerance", "N"]),
}


@pytest.mark.parametrize("value", ["abc", "1/0", "1,2"])
@pytest.mark.parametrize("study, key", [(study, key) for study, (_, keys) in _NUMBER_KEYS.items()
                                        for key in keys])
def test_a_malformed_number_key_is_a_config_error_naming_it(study, key, value):
    config = parse_config_text(f"study = {study}\n{_NUMBER_KEYS[study][0]}\n{key} = {value}")
    with pytest.raises(reports.ConfigError, match=f"^{key}"):
        run_study(config)


def test_number_keys_take_the_study_grammar():
    report = run_study(parse_config_text(
        "study = weakstar\nkernels = eta_1_1_1d\nH = 2^-2..2^-3\n"
        "slope_min = 1/2\nslope_max = 2^2\nparity_tolerance = pi/20"))
    assert [(row["slope_min"], row["slope_max"], row["status"]) for row in report.rows] == [
        (0.5, 4.0, "ok")] * 2
    report = run_study(parse_config_text(
        "study = helmholtz1d\nkernels = eta_0_1_1d\nH = 2^-2..2^-3\nk0 = 7pi/2"))
    assert report.exit_code == 0
    # N takes the grammar too, and must come out a whole number
    advect = "study = advect\nkernels = eta_1_1_1d\nT = 2pi\nN = "
    assert run_study(parse_config_text(advect + "2^6")).exit_code == 0
    with pytest.raises(reports.ConfigError, match="^N takes one integer, not '2.5'$"):
        run_study(parse_config_text(advect + "2.5"))
