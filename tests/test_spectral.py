import math

import numpy as np
import pytest

from deltareg import spectral
from deltareg.kernels import catalog_lookup
from deltareg.spectral import (
    AdvectionRun,
    BlowUpError,
    CFLError,
    KdVRun,
    PeriodicGrid1D,
    advect_leapfrog,
    com_displacement,
    conserved_quantities,
    gaussian_source,
    kdv_solve,
    leapfrog_multiplier,
    leapfrog_phase_factors,
    pointwise_error_after_periods,
)


def soliton(x, c=1.0, t=0.0):
    """Single right-moving solitary wave (c/2) sech^2(sqrt(c) (x - c t) / 2) of the KdV."""
    arg = 0.5 * math.sqrt(c) * (np.asarray(x, dtype=float) - c * t)
    return 0.5 * c / np.cosh(arg) ** 2


def peak_location(u, grid):
    """Sub-grid peak position by parabolic interpolation around the discrete max."""
    j = int(np.argmax(u))
    um, u0, up = u[j - 1], u[j], u[(j + 1) % grid.n]
    denom = um - 2.0 * u0 + up
    shift = 0.0 if denom == 0 else 0.5 * (um - up) / denom
    return grid.nodes[j] + shift * grid.dx


# ---------------------------------------------------------------------------
# leapfrog advection
# ---------------------------------------------------------------------------

def test_grid_layout():
    grid = PeriodicGrid1D(n=8, length=2 * math.pi)
    assert grid.nodes[0] == pytest.approx(-math.pi)
    assert grid.dx == pytest.approx(math.pi / 4)
    assert grid.wavenumbers[-1] == pytest.approx(4.0)
    assert grid.deriv_wavenumbers[-1] == 0.0


def test_full_wavenumbers_carry_nyquist_negative():
    # fftfreq layout; the CSVs of `kdv --detail` print these values
    k = PeriodicGrid1D(n=8).full_wavenumbers
    assert np.array_equal(k, [0.0, 1.0, 2.0, 3.0, -4.0, -3.0, -2.0, -1.0])


def test_grid_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=1000)


def test_cfl_violation_raises():
    grid = PeriodicGrid1D(n=64)
    run = AdvectionRun(grid=grid, initial=np.cos(grid.nodes), dt=1.0, t_final=2.0)
    with pytest.raises(CFLError):
        advect_leapfrog(run)


def test_cfl_checked_on_the_marched_time_step():
    # dt passes the check, but T = 1.4 dt is marched in one step of 1.4 dt
    grid = PeriodicGrid1D(n=64)
    dt = 0.9 / grid.wavenumbers[-1]
    run = AdvectionRun(grid=grid, initial=np.cos(grid.nodes), dt=dt, t_final=1.4 * dt)
    with pytest.raises(CFLError, match="1.260"):
        advect_leapfrog(run)


def test_advection_metadata_records_marched_steps_and_cfl_number():
    grid = PeriodicGrid1D(n=64)
    result = advect_leapfrog(AdvectionRun(grid=grid, initial=np.cos(grid.nodes),
                                          t_final=2 * math.pi))
    assert result.metadata["n_steps"] == result.n_steps == 512
    assert result.metadata["kmax_dt"] == grid.wavenumbers[-1] * result.dt


@pytest.mark.parametrize("run_type", [AdvectionRun, KdVRun])
@pytest.mark.parametrize("times", [dict(dt=-0.01), dict(dt=0.0), dict(t_final=0.0),
                                   dict(t_final=-1.0), dict(t_final=float("nan"))])
def test_runs_reject_non_positive_times(run_type, times):
    grid = PeriodicGrid1D(n=64)
    with pytest.raises(ValueError, match="must be positive"):
        run_type(grid=grid, initial=np.cos(grid.nodes), **times)


def _inline_leapfrog(grid, dt, n_steps, c0):
    prev = c0
    cur = leapfrog_phase_factors(grid, dt) * prev
    for _ in range(n_steps - 1):
        prev, cur = cur, prev - 2.0 * dt * (1j * grid.deriv_wavenumbers) * cur
    return cur


def _eta_2_3_run(grid):
    return AdvectionRun(grid=grid, kernel=catalog_lookup("eta_2_3_1d")(0.5),
                        t_final=2 * math.pi)


# the march of unit data is the multiplier; a run is c0 times it
def test_leapfrog_matches_inline_recursion_exactly():
    grid = PeriodicGrid1D(n=64)
    run = _eta_2_3_run(grid)
    result = advect_leapfrog(run)
    c0 = np.fft.rfft(run.initial_values())
    unit = _inline_leapfrog(grid, result.dt, result.n_steps, np.ones(c0.shape, dtype=complex))
    assert np.max(np.abs(result.spectrum_final - c0 * unit)) == 0.0
    assert np.max(np.abs(result.spectrum_initial - c0)) == 0.0


def test_leapfrog_multiplier_is_the_per_data_recursion_to_rounding():
    grid = PeriodicGrid1D(n=64)
    run = _eta_2_3_run(grid)
    result = advect_leapfrog(run)
    c0 = np.fft.rfft(run.initial_values())
    per_data = _inline_leapfrog(grid, result.dt, result.n_steps, c0)
    assert np.max(np.abs(result.spectrum_final - per_data)) <= 1e-13 * np.max(np.abs(c0))


def test_leapfrog_marches_once_per_grid(monkeypatch):
    marches = []

    def counted(grid, dt):
        marches.append(grid)
        return leapfrog_phase_factors(grid, dt)

    monkeypatch.setattr(spectral, "leapfrog_phase_factors", counted)
    grid = PeriodicGrid1D(n=64)
    first = advect_leapfrog(_eta_2_3_run(grid))
    advect_leapfrog(AdvectionRun(grid=grid, kernel=catalog_lookup("eta_1_1_1d")(0.5),
                                 t_final=2 * math.pi))
    assert len(marches) == 1
    # an equal grid is a new study: it marches again, to the same multiplier
    twin = PeriodicGrid1D(n=64)
    assert twin == grid
    again = advect_leapfrog(_eta_2_3_run(twin))
    assert len(marches) == 2
    assert np.array_equal(again.spectrum_final, first.spectrum_final)
    factor = leapfrog_multiplier(grid, first.dt, first.n_steps)
    assert not factor.flags.writeable
    assert factor is not leapfrog_multiplier(twin, first.dt, first.n_steps)


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


def test_com_displacement_matches_first_moment_law():
    # the first moment of u moves right at speed 3 * integral(u^2)
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=soliton(grid.nodes), dt=2e-4, t_final=0.5)
    result = kdv_solve(run)
    predicted = 3.0 * result.momentum[0] * (result.times[-1] - result.times[0])
    assert com_displacement(result) == pytest.approx(predicted, rel=1e-3)
    peaks = [peak_location(u, grid) for u in result.snapshots]
    assert peaks[-1] - peaks[0] > 0


def _kdv_reference(u0, grid, dt, n_steps, snap_steps):
    """IF-RK4 with the factor exp(-i k^3 t) anchored at t = 0, on full complex FFTs."""
    k = grid.full_wavenumbers
    ik3 = 1j * k**3
    g = -3.0 * 1j * k * (np.abs(k) <= (2.0 / 3.0) * np.max(np.abs(k)))

    def rhs(vh, t):
        u = np.real(np.fft.ifft(np.exp(ik3 * t) * vh))
        return np.exp(-ik3 * t) * g * np.fft.fft(u * u)

    v = np.fft.fft(u0)
    out = [u0]
    for step in range(1, n_steps + 1):
        t = (step - 1) * dt
        k1 = rhs(v, t)
        k2 = rhs(v + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(v + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(v + dt * k3, t + dt)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in snap_steps:
            out.append(np.real(np.fft.ifft(np.exp(ik3 * (step * dt)) * v)))
    return np.asarray(out)


def test_kdv_matches_time_anchored_integrating_factor_reference():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, kernel=catalog_lookup("eta_2_5_1d")(math.pi / 2),
                 dt=1e-4, t_final=5e-3, snapshots=(2e-3,))
    result = kdv_solve(run)
    assert result.metadata["n_steps"] == 50
    np.testing.assert_allclose(result.times, [0.0, 2e-3, 5e-3], rtol=0, atol=1e-15)
    expected = _kdv_reference(run.initial_values(), grid, 1e-4, 50, {20, 50})
    assert np.max(np.abs(result.snapshots - expected)) <= 1e-12


def test_kdv_rejects_run_shorter_than_half_a_step():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=np.zeros(grid.n), dt=1e-3, t_final=4e-4)
    with pytest.raises(ValueError, match="t_final = 0.0004"):
        kdv_solve(run)


@pytest.mark.parametrize("t", [-1.0, 5e-3])
def test_kdv_rejects_snapshot_outside_run(t):
    grid = _kdv_grid()
    run = KdVRun(grid=grid, initial=np.zeros(grid.n), t_final=1e-3, snapshots=(5e-4, t))
    with pytest.raises(ValueError, match=f"snapshot time {t:g}"):
        kdv_solve(run)


def test_dealias_keeps_rough_run_high_modes_and_spectra_keep_full_fft_layout():
    grid = _kdv_grid()
    run = KdVRun(grid=grid, kernel=catalog_lookup("eta_2_5_1d")(math.pi / 4),
                 dt=1e-4, t_final=0.02)
    result = kdv_solve(run)
    assert result.spectra.shape == (2, grid.n)
    assert np.array_equal(result.spectra, np.abs(np.fft.fft(result.snapshots, axis=1)))
    # the 2/3 rule leaves the modes above the cutoff (Nyquist aside, which the real
    # snapshot drops) to the linear factor alone, so their moduli stay put; without
    # it they move by 0.19 here
    k = grid.wavenumbers
    high = (k > (2.0 / 3.0) * k[-1]) & (k < k[-1])
    first, last = np.abs(np.fft.rfft(result.snapshots, axis=1))
    assert np.max(np.abs(last[high] - first[high])) <= 1e-12 * np.max(first)


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


def test_gaussian_concentrates_as_sigma_shrinks():
    assert gaussian_source(0.5, 1e-3) > gaussian_source(0.5, 1e-2)
    with pytest.raises(ValueError):
        gaussian_source(0.0, -1.0)
