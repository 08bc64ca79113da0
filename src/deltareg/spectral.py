"""Fourier pseudospectral experiments: leapfrog advection dispersion and
integrating-factor RK4 for the KdV equation, with spectral diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import RegularizedDelta

__all__ = [
    "PeriodicGrid1D",
    "AdvectionRun",
    "AdvectionResult",
    "KdVRun",
    "KdVResult",
    "BlowUpError",
    "CFLError",
    "advect_leapfrog",
    "leapfrog_multiplier",
    "leapfrog_phase_factors",
    "pointwise_error_after_periods",
    "kdv_solve",
    "gaussian_source",
    "conserved_quantities",
    "com_displacement",
]


class BlowUpError(RuntimeError):
    pass


class CFLError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Uniform periodic grid with nodes x_j = -L/2 + j L / N (N a power of two)."""

    n: int = 1024
    length: float = 2.0 * math.pi
    # (dt, n_steps) -> leapfrog multiplier, filled by `leapfrog_multiplier`
    _leapfrog: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size {self.n} is not a power of two")
        if self.length <= 0:
            raise ValueError("length must be positive")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return -0.5 * self.length + np.arange(self.n) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        """rfft-layout wavenumbers 0..N/2 times 2 pi / L."""
        return np.arange(self.n // 2 + 1) * (2.0 * math.pi / self.length)

    @property
    def deriv_wavenumbers(self) -> np.ndarray:
        """Wavenumbers entering the spectral derivative; the Nyquist mode is zeroed."""
        k = self.wavenumbers.copy()
        k[-1] = 0.0
        return k

    @property
    def full_wavenumbers(self) -> np.ndarray:
        """fft-layout wavenumbers 0..N/2-1, then -N/2..-1, times 2 pi / L.

        For even N the Nyquist mode is carried negative, as `fftfreq` gives it.
        """
        return np.fft.fftfreq(self.n, d=1.0 / self.n) * (2.0 * math.pi / self.length)


def _check_times(dt, t_final):
    if dt is not None and not dt > 0:
        raise ValueError(f"time step dt = {dt} must be positive")
    if not t_final > 0:
        raise ValueError(f"final time t_final = {t_final} must be positive")


@dataclass(frozen=True)
class AdvectionRun:
    grid: PeriodicGrid1D
    kernel: RegularizedDelta | None = None
    initial: np.ndarray | None = None
    dt: float | None = None  # default dx / 8
    t_final: float = 36.0 * math.pi

    def __post_init__(self):
        if (self.kernel is None) == (self.initial is None):
            raise ValueError("provide exactly one of kernel or initial data")
        if self.kernel is not None and self.kernel.dim != 1:
            raise ValueError("advection needs a 1D kernel")
        _check_times(self.dt, self.t_final)

    @property
    def time_step(self) -> float:
        return self.dt if self.dt is not None else self.grid.dx / 8.0

    def initial_values(self) -> np.ndarray:
        if self.initial is not None:
            return np.asarray(self.initial, dtype=float)
        return self.kernel.eval(self.grid.nodes)


@dataclass(frozen=True)
class AdvectionResult:
    grid: PeriodicGrid1D
    u_initial: np.ndarray
    u_final: np.ndarray
    spectrum_initial: np.ndarray  # complex rfft coefficients at t = 0
    spectrum_final: np.ndarray
    n_steps: int
    dt: float
    metadata: dict = field(default_factory=dict)


def leapfrog_phase_factors(grid: PeriodicGrid1D, dt: float) -> np.ndarray:
    """Principal per-step factors exp(-i omega_k dt) with sin(omega_k dt) = k dt."""
    s = grid.deriv_wavenumbers * dt
    return np.sqrt(1.0 - s * s) - 1j * s


def leapfrog_multiplier(grid: PeriodicGrid1D, dt: float, n_steps: int) -> np.ndarray:
    """Per-mode factor g_n with c_n = c_0 g_n after n_steps leapfrog steps of dt.

    Leapfrog with the spectral derivative is linear and acts on each Fourier mode
    alone, so n steps multiply c_0 by a factor that does not depend on the data.
    g_n is the march of unit data (c_0 = 1, c_1 = rho, the principal root), on the
    same in-place recursion c_{j+1} = c_{j-1} - 2 dt (i k) c_j as a march of c_0.
    The read-only result is kept on the grid, keyed by (dt, n_steps), so the runs
    of one study (which share a grid) share one march.  The memo lives and dies
    with the grid, not the process: a process-wide one would grow with every grid
    for the life of the process, and a study run again in the same process (a
    repeated timing) would look the march up instead of running it.
    """
    key = (dt, n_steps)
    g = grid._leapfrog.get(key)
    if g is None:
        # ((2 dt) i k) c is the rounding order of prev - 2.0 * dt * ik * cur
        coef = 2.0 * dt * (1j * grid.deriv_wavenumbers)
        prev = np.ones(coef.shape, dtype=complex)
        cur = leapfrog_phase_factors(grid, dt)
        tmp = np.empty_like(cur)
        for _ in range(n_steps - 1):
            np.multiply(coef, cur, out=tmp)
            np.subtract(prev, tmp, out=prev)
            prev, cur = cur, prev
        g = cur
        g.flags.writeable = False
        grid._leapfrog[key] = g
    return g


def advect_leapfrog(run: AdvectionRun) -> AdvectionResult:
    """March u_t + u_x = 0 with spectral derivative and leapfrog in time.

    Startup uses the scheme's principal root (dispersion phase arcsin(k dt)),
    which keeps every modal amplitude constant and makes the per-mode phase
    follow sin(omega dt) = k dt exactly.  The final spectrum is c_0 times the
    grid's `leapfrog_multiplier`, so runs on one grid with one dt and step count
    march once.
    """
    grid = run.grid
    dt = run.time_step
    n_steps = int(round(run.t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - run.t_final) > 1e-9 * max(run.t_final, 1.0):
        n_steps = max(n_steps, 1)
        dt = run.t_final / n_steps
    kmax_dt = grid.wavenumbers[-1] * dt
    if kmax_dt > 1.0:
        raise CFLError(f"k_max dt = {kmax_dt:.3f} > 1; leapfrog unstable")
    u0 = run.initial_values()
    c0 = np.fft.rfft(u0)
    cT = c0 * leapfrog_multiplier(grid, dt, n_steps)
    uT = np.fft.irfft(cT, n=grid.n)
    return AdvectionResult(
        grid=grid, u_initial=u0, u_final=uT,
        spectrum_initial=c0, spectrum_final=cT,
        n_steps=n_steps, dt=dt,
        metadata=dict(
            kernel=getattr(run.kernel, "name", "custom"),
            H=run.kernel.half_width if run.kernel is not None else None,
            t_final=run.t_final,
            n_steps=n_steps,
            kmax_dt=kmax_dt,
        ),
    )


def pointwise_error_after_periods(run: AdvectionRun) -> tuple[np.ndarray, AdvectionResult]:
    """E(x) = |u(x, 0) - u(x, T)| on grid nodes, for T an integer number of periods."""
    periods = run.t_final / run.grid.length
    if abs(periods - round(periods)) > 1e-9:
        raise ValueError(f"final time {run.t_final:g} is not an integer number of periods")
    result = advect_leapfrog(run)
    return np.abs(result.u_initial - result.u_final), result


# ---------------------------------------------------------------------------
# KdV
# ---------------------------------------------------------------------------

def gaussian_source(x, sigma: float):
    """Reference bump (2 pi sigma^2)^(-1/2) exp(-(x - 0.5)^2 / sigma^2).

    The KdV study's 'gaussian' source, with sigma its width H.  As printed the
    exponent carries sigma^2 (not 2 sigma^2), so the total mass is 1/sqrt(2).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    amp = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    return amp * np.exp(-((x - 0.5) ** 2) / (sigma * sigma))


def conserved_quantities(u: np.ndarray, grid: PeriodicGrid1D) -> tuple[float, float]:
    """(mass, momentum) = (integral of u, integral of u^2) by the periodic trapezoid rule."""
    u = np.asarray(u, dtype=float)
    return float(np.sum(u) * grid.dx), float(np.sum(u * u) * grid.dx)


@dataclass(frozen=True)
class KdVRun:
    grid: PeriodicGrid1D = field(default_factory=lambda: PeriodicGrid1D(n=512, length=16.0 * math.pi))
    kernel: RegularizedDelta | None = None
    initial: np.ndarray | None = None
    gaussian_sigma: float | None = None
    dt: float = 1e-4
    t_final: float = 0.05
    snapshots: tuple = ()

    def __post_init__(self):
        given = sum(x is not None for x in (self.kernel, self.initial, self.gaussian_sigma))
        if given != 1:
            raise ValueError("provide exactly one of kernel, initial data, or gaussian_sigma")
        if self.kernel is not None and self.kernel.dim != 1:
            raise ValueError("KdV needs a 1D kernel")
        _check_times(self.dt, self.t_final)

    def initial_values(self) -> np.ndarray:
        if self.initial is not None:
            return np.asarray(self.initial, dtype=float)
        if self.kernel is not None:
            return self.kernel.eval(self.grid.nodes)
        return gaussian_source(self.grid.nodes, self.gaussian_sigma)


@dataclass(frozen=True)
class KdVResult:
    grid: PeriodicGrid1D
    times: np.ndarray
    snapshots: np.ndarray  # (n_times, N)
    spectra: np.ndarray  # |u_hat| per snapshot
    mass: np.ndarray
    momentum: np.ndarray
    metadata: dict = field(default_factory=dict)


def kdv_solve(run: KdVRun) -> KdVResult:
    """Integrate u_t + 6 u u_x + u_xxx = 0 by integrating-factor RK4.

    The stiff dispersive term is removed exactly with the factor exp(i k^3 s),
    s anchored at the start of each step, so exp(i k^3 dt/2) and exp(i k^3 dt)
    are built once per run (Trefethen, Spectral Methods in MATLAB, program 27);
    up to rounding this is RK4 with the factor exp(-i k^3 t) anchored at t = 0.
    The quadratic term 3 (u^2)_x is evaluated pseudospectrally on real FFTs with
    2/3-rule dealiasing.  Aborts with a diagnostic when max|u| > 1e6.
    """
    grid = run.grid
    dt = run.dt
    n_steps = int(round(run.t_final / dt))
    if n_steps < 1:
        raise ValueError(f"t_final = {run.t_final:g} is shorter than half a time step "
                         f"(dt = {dt:g})")
    if abs(n_steps * dt - run.t_final) > 1e-12 * max(1.0, run.t_final):
        dt = run.t_final / n_steps
    snap_steps = {0, n_steps}
    for t in run.snapshots:
        if not 0.0 <= t <= run.t_final:
            raise ValueError(f"snapshot time {t:g} is outside [0, {run.t_final:g}]")
        snap_steps.add(int(round(t / dt)))

    k = grid.wavenumbers
    E = np.exp(0.5j * dt * k**3)
    E2 = E * E
    gm = -3j * k
    gm[k > (2.0 / 3.0) * k[-1]] = 0.0

    def nonlinear(w):
        # spectrum of -3 (u^2)_x for the field with spectrum w
        return gm * np.fft.rfft(np.fft.irfft(w, grid.n) ** 2)

    v = np.fft.rfft(run.initial_values())
    outputs, out_times = [], []
    mass, momentum = [], []

    def record(step):
        u = np.fft.irfft(v, grid.n)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise BlowUpError(f"solution blew up at t = {step * dt:.6g}")
        outputs.append(u)
        out_times.append(step * dt)
        m, p = conserved_quantities(u, grid)
        mass.append(m)
        momentum.append(p)

    record(0)
    # a blowing-up run overflows before the finiteness checks below catch it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            a = nonlinear(v)
            b = nonlinear(E * (v + 0.5 * dt * a))
            c = nonlinear(E * v + 0.5 * dt * b)
            d = nonlinear(E2 * v + dt * E * c)
            v = E2 * v + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
            if step in snap_steps:
                record(step)
            elif step % 200 == 0:
                if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > 1e7:
                    raise BlowUpError(f"solution blew up at t = {step * dt:.6g}")

    snaps = np.asarray(outputs)
    spectra = np.abs(np.fft.fft(snaps, axis=1))
    return KdVResult(
        grid=grid, times=np.asarray(out_times), snapshots=snaps, spectra=spectra,
        mass=np.asarray(mass), momentum=np.asarray(momentum),
        metadata=dict(
            kernel=getattr(run.kernel, "name", None),
            H=run.kernel.half_width if run.kernel is not None else None,
            dt=dt, n_steps=n_steps, t_final=run.t_final,
            n=grid.n, length=grid.length,
        ),
    )


def com_displacement(result: KdVResult) -> float:
    """Displacement of the first moment of u between the first and last snapshots.

    The first moment moves right at speed 3 * integral(u^2) exactly, so its
    displacement is the robust sign check for the emerging coherent structure;
    the raw argmax can drift left at short times while dispersive radiation
    still dominates the pointwise maximum.
    """
    grid = result.grid
    x = grid.nodes
    u0, uT = result.snapshots[0], result.snapshots[-1]
    return float(np.sum(x * uT) * grid.dx) - float(np.sum(x * u0) * grid.dx)
