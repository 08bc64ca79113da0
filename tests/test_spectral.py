import math

import numpy as np
import pytest

from deltareg.kernels import catalog_lookup
from deltareg.spectral import (
    AdvectionRun,
    BlowUpError,
    CFLError,
    KdVRun,
    PeriodicGrid1D,
    advect_leapfrog,
    conserved_quantities,
    gaussian_source,
    kdv_solve,
    leapfrog_phase_factors,
    peak_location,
    pointwise_error_after_periods,
    soliton,
    transport_diagnostics,
)


# ---------------------------------------------------------------------------
# leapfrog advection
# ---------------------------------------------------------------------------

def test_grid_layout():
    grid = PeriodicGrid1D(n=8, length=2 * math.pi)
    assert grid.nodes[0] == pytest.approx(-math.pi)
    assert grid.dx == pytest.approx(math.pi / 4)
    assert grid.wavenumbers[-1] == pytest.approx(4.0)
    assert grid.deriv_wavenumbers[-1] == 0.0


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=1000)


def test_cfl_violation_raises():
    grid = PeriodicGrid1D(n=64)
    run = AdvectionRun(grid=grid, initial=np.cos(grid.nodes), dt=1.0, t_final=2.0)
    with pytest.raises(CFLError):
        advect_leapfrog(run)


def test_single_mode_phase_follows_dispersion_relation():
    grid = PeriodicGrid1D(n=64)
    run = AdvectionRun(grid=grid, initial=np.cos(3 * grid.nodes), t_final=2 * math.pi)
    result = advect_leapfrog(run)
    rho = leapfrog_phase_factors(grid, result.dt)
    expected = result.spectrum_initial * rho**result.n_steps
    assert np.max(np.abs(result.spectrum_final - expected)) <= 1e-10
    amp = np.abs(np.abs(result.spectrum_final) - np.abs(result.spectrum_initial))
    assert np.max(amp) <= 1e-10


def test_zero_data_stays_zero():
    grid = PeriodicGrid1D(n=64)
    run = AdvectionRun(grid=grid, initial=np.zeros(64), t_final=2 * math.pi)
    result = advect_leapfrog(run)
    assert np.max(np.abs(result.u_final)) == 0.0


def test_band_limited_error_within_dispersion_bound():
    grid = PeriodicGrid1D(n=128)
    u0 = np.cos(grid.nodes) + 0.5 * np.sin(3 * grid.nodes) + 0.1 * np.cos(7 * grid.nodes)
    run = AdvectionRun(grid=grid, initial=u0, t_final=2 * math.pi)
    errs, result = pointwise_error_after_periods(run)
    # bound: sum over modes of 2 |c_k| |sin(n (arcsin(k dt) - k dt) / 2)|
    k = grid.deriv_wavenumbers
    coeffs = np.abs(result.spectrum_initial) / grid.n * 2.0
    phase_gap = result.n_steps * (np.arcsin(k * result.dt) - k * result.dt)
    bound = float(np.sum(coeffs * np.abs(np.sin(0.5 * phase_gap))) * 2.0)
    assert errs.max() <= bound + 1e-12
    assert errs.max() <= 1e-2  # low modes barely disperse over one period


def test_exact_translation_returns_to_initial_data():
    grid = PeriodicGrid1D(n=256)
    run = AdvectionRun(grid=grid, kernel=catalog_lookup("eta_1_1_1d")(0.5),
                       t_final=2 * math.pi)
    errs, _ = pointwise_error_after_periods(run, exact_translation=True)
    assert errs.max() <= 1e-12


def test_non_integer_period_count_rejected():
    grid = PeriodicGrid1D(n=64)
    run = AdvectionRun(grid=grid, initial=np.cos(grid.nodes), t_final=3.0)
    with pytest.raises(ValueError, match="period"):
        pointwise_error_after_periods(run)


def test_dispersion_error_ordering_short_run():
    grid = PeriodicGrid1D(n=512)
    errs = {}
    for name in ("eta_1_1_1d", "eta_2_3_1d"):
        run = AdvectionRun(grid=grid, kernel=catalog_lookup(name)(0.5),
                           t_final=4 * math.pi)
        e, _ = pointwise_error_after_periods(run)
        errs[name] = e.max()
    assert errs["eta_2_3_1d"] > errs["eta_1_1_1d"]


def test_phase_gap_monotone_in_wavenumber():
    grid = PeriodicGrid1D(n=1024)
    dt = grid.dx / 8.0
    k = grid.deriv_wavenumbers[1:-1]
    gap = np.arcsin(k * dt) - k * dt
    assert np.all(np.diff(gap) > 0)


def test_kernel_spectrum_ordering_high_modes():
    grid = PeriodicGrid1D(n=1024)
    hi = slice(2 * (grid.n // 2 + 1) // 3, None)
    rich = np.abs(np.fft.rfft(catalog_lookup("eta_2_3_1d")(0.5).eval(grid.nodes)))
    plain = np.abs(np.fft.rfft(catalog_lookup("eta_1_1_1d")(0.5).eval(grid.nodes)))
    assert rich[hi].mean() > plain[hi].mean()


# ---------------------------------------------------------------------------
# KdV
# ---------------------------------------------------------------------------

def _kdv_grid():
    return PeriodicGrid1D(n=512, length=16 * math.pi)


def test_soliton_short_run_accuracy():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=soliton(grid.nodes, c=1.0), dt=2e-4, t_final=0.2)
    result = kdv_solve(run)
    expected = soliton(grid.nodes, c=1.0, t=0.2)
    assert np.max(np.abs(result.snapshots[-1] - expected)) <= 1e-8
    assert abs(result.mass[-1] - result.mass[0]) <= 1e-12
    assert abs(result.momentum[-1] - result.momentum[0]) <= 1e-9


def test_zero_data_stays_zero_kdv():
    grid = _kdv_grid()
    result = kdv_solve(KdVRun(grid=grid, initial=np.zeros(grid.n), t_final=0.01))
    assert np.max(np.abs(result.snapshots[-1])) == 0.0


def test_blow_up_detection():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=2e6 * soliton(grid.nodes), t_final=0.01)
    with pytest.raises(BlowUpError):
        kdv_solve(run)


def test_conserved_quantities_constant_field():
    grid = _kdv_grid()
    mass, momentum = conserved_quantities(np.full(grid.n, 2.0), grid)
    assert mass == pytest.approx(2.0 * grid.length, rel=1e-14)
    assert momentum == pytest.approx(4.0 * grid.length, rel=1e-14)


def test_conserved_quantities_soliton_closed_forms():
    # integral of (1/2) sech^2(x/2) is 2; integral of its square is 2/3
    grid = PeriodicGrid1D(n=2048, length=64 * math.pi)
    u = soliton(grid.nodes, c=1.0)
    mass, momentum = conserved_quantities(u, grid)
    assert mass == pytest.approx(2.0, abs=1e-10)
    assert momentum == pytest.approx(2.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_soliton_speed_tracking(c):
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=soliton(grid.nodes, c=c), dt=2e-4, t_final=1.0,
                 snapshots=(0.5,))
    result = kdv_solve(run)
    x0 = peak_location(result.snapshots[0], grid)
    x1 = peak_location(result.snapshots[-1], grid)
    assert (x1 - x0) / 1.0 == pytest.approx(c, rel=0.02)


def test_mass_is_exactly_conserved_for_impulse():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, kernel=catalog_lookup("eta_2_5_1d")(math.pi / 2),
                 dt=1e-4, t_final=0.02)
    result = kdv_solve(run)
    assert abs(result.mass[-1] - result.mass[0]) <= 1e-12


def test_transport_diagnostics_match_first_moment_law():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=soliton(grid.nodes), dt=2e-4, t_final=0.5)
    diag = transport_diagnostics(kdv_solve(run))
    assert diag["com_displacement"] == pytest.approx(diag["com_predicted"], rel=1e-3)
    assert diag["peak_displacement"] > 0


def test_dealias_flag_recorded():
    grid = _kdv_grid()
    result = kdv_solve(KdVRun(grid=grid, initial=np.zeros(grid.n), t_final=0.001,
                              dealias=False))
    assert result.metadata["dealias"] is False


def test_kdv_run_validation():
    grid = _kdv_grid()
    with pytest.raises(ValueError):
        KdVRun(grid=grid)  # no source at all
    with pytest.raises(ValueError):
        KdVRun(grid=grid, initial=np.zeros(grid.n), gaussian_sigma=0.1)


# ---------------------------------------------------------------------------
# gaussian reference source
# ---------------------------------------------------------------------------

def test_gaussian_peak_height_and_location():
    sigma = math.pi / 64
    xs = np.linspace(0.3, 0.7, 2001)
    vals = gaussian_source(xs, sigma)
    peak = 1.0 / math.sqrt(2.0 * math.pi * sigma**2)
    assert xs[np.argmax(vals)] == pytest.approx(0.5, abs=1e-3)
    assert vals.max() == pytest.approx(peak, rel=1e-6)


def test_gaussian_mass_is_one_over_sqrt_two():
    # analytic integral of the printed form (exponent carries sigma^2)
    sigma = math.pi / 64
    xs = np.linspace(0.5 - 40 * sigma, 0.5 + 40 * sigma, 200001)
    mass = np.trapezoid(gaussian_source(xs, sigma), xs)
    assert mass == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-9)
    mass_normalized = np.trapezoid(gaussian_source(xs, sigma, normalized=True), xs)
    assert mass_normalized == pytest.approx(1.0, rel=1e-9)


def test_gaussian_concentrates_as_sigma_shrinks():
    assert gaussian_source(0.5, 1e-3) > gaussian_source(0.5, 1e-2)
    with pytest.raises(ValueError):
        gaussian_source(0.0, -1.0)
