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
    "leapfrog_phase_factors",
    "pointwise_error_after_periods",
    "kdv_solve",
    "gaussian_source",
    "conserved_quantities",
    "soliton",
    "peak_location",
    "transport_diagnostics",
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
        """fft-layout wavenumbers including negatives; Nyquist carried positive."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n) * (2.0 * math.pi / self.length)


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


def advect_leapfrog(run: AdvectionRun, exact_translation: bool = False) -> AdvectionResult:
    """March u_t + u_x = 0 with spectral derivative and leapfrog in time.

    Startup uses the scheme's principal root (dispersion phase arcsin(k dt)),
    which keeps every modal amplitude constant and makes the per-mode phase
    follow sin(omega dt) = k dt exactly.  With exact_translation the modes are
    instead multiplied by exp(-i k T): no dispersion, for oracle comparisons.
    """
    grid = run.grid
    dt = run.time_step
    kmax = grid.wavenumbers[-1]
    if kmax * dt > 1.0:
        raise CFLError(f"k_max dt = {kmax * dt:.3f} > 1; leapfrog unstable")
    n_steps = int(round(run.t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - run.t_final) > 1e-9 * max(run.t_final, 1.0):
        dt = run.t_final / max(n_steps, 1)
        n_steps = int(round(run.t_final / dt))
    u0 = run.initial_values()
    c0 = np.fft.rfft(u0)
    if exact_translation:
        cT = c0 * np.exp(-1j * grid.deriv_wavenumbers * run.t_final)
    else:
        ik = 1j * grid.deriv_wavenumbers
        prev = c0
        cur = leapfrog_phase_factors(grid, dt) * c0
        for _ in range(n_steps - 1):
            prev, cur = cur, prev - 2.0 * dt * ik * cur
        cT = cur
    uT = np.fft.irfft(cT, n=grid.n)
    return AdvectionResult(
        grid=grid, u_initial=u0, u_final=uT,
        spectrum_initial=c0, spectrum_final=cT,
        n_steps=n_steps, dt=dt,
        metadata=dict(
            kernel=getattr(run.kernel, "name", "custom"),
            H=run.kernel.half_widths[0] if run.kernel is not None else None,
            t_final=run.t_final,
            exact_translation=exact_translation,
        ),
    )


def pointwise_error_after_periods(run: AdvectionRun,
                                  exact_translation: bool = False) -> tuple[np.ndarray, AdvectionResult]:
    """E(x) = |u(x, 0) - u(x, T)| on grid nodes, for T an integer number of periods."""
    periods = run.t_final / run.grid.length
    if abs(periods - round(periods)) > 1e-9:
        raise ValueError(f"final time {run.t_final:g} is not an integer number of periods")
    result = advect_leapfrog(run, exact_translation=exact_translation)
    return np.abs(result.u_initial - result.u_final), result


# ---------------------------------------------------------------------------
# KdV
# ---------------------------------------------------------------------------

def gaussian_source(x, sigma: float, center: float = 0.5, normalized: bool = False):
    """Reference bump (2 pi sigma^2)^(-1/2) exp(-(x - c)^2 / sigma^2).

    As printed the exponent carries sigma^2 (not 2 sigma^2), so the total mass
    is 1/sqrt(2); normalized=True switches to the unit-mass variant.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(x, dtype=float)
    amp = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    denom = 2.0 * sigma * sigma if normalized else sigma * sigma
    return amp * np.exp(-((x - center) ** 2) / denom)


def soliton(x, c: float = 1.0, t: float = 0.0):
    """Single right-moving solitary wave (c/2) sech^2(sqrt(c) (x - c t) / 2)."""
    x = np.asarray(x, dtype=float)
    arg = 0.5 * math.sqrt(c) * (x - c * t)
    return 0.5 * c / np.cosh(arg) ** 2


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
    gaussian_normalized: bool = False
    dt: float = 1e-4
    t_final: float = 0.05
    snapshots: tuple = ()
    dealias: bool = True

    def __post_init__(self):
        given = sum(x is not None for x in (self.kernel, self.initial, self.gaussian_sigma))
        if given != 1:
            raise ValueError("provide exactly one of kernel, initial data, or gaussian_sigma")
        if self.kernel is not None and self.kernel.dim != 1:
            raise ValueError("KdV needs a 1D kernel")

    def initial_values(self) -> np.ndarray:
        if self.initial is not None:
            return np.asarray(self.initial, dtype=float)
        if self.kernel is not None:
            return self.kernel.eval(self.grid.nodes)
        return gaussian_source(self.grid.nodes, self.gaussian_sigma,
                               normalized=self.gaussian_normalized)


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

    The stiff dispersive term is removed exactly with the factor exp(-i k^3 t);
    the quadratic term 3 (u^2)_x is evaluated pseudospectrally with 2/3-rule
    dealiasing (on by default).  Aborts with a diagnostic when max|u| > 1e6.
    """
    grid = run.grid
    k = grid.full_wavenumbers
    ik3 = 1j * k**3
    g = -3.0 * 1j * k
    mask = np.ones_like(k)
    if run.dealias:
        kmax = np.max(np.abs(k))
        mask[np.abs(k) > (2.0 / 3.0) * kmax] = 0.0

    dt = run.dt
    n_steps = int(round(run.t_final / dt))
    if abs(n_steps * dt - run.t_final) > 1e-12 * max(1.0, run.t_final):
        dt = run.t_final / n_steps
    snap_times = sorted(set([0.0] + [float(t) for t in run.snapshots] + [run.t_final]))
    snap_steps = [int(round(t / dt)) for t in snap_times]

    u0 = run.initial_values()
    uhat = np.fft.fft(u0)

    def rhs(vh, t):
        # v = exp(-i k^3 t) u_hat; u_t + 6 u u_x = -3 (u^2)_x
        uh = np.exp(ik3 * t) * vh
        u = np.real(np.fft.ifft(uh))
        nl = g * mask * np.fft.fft(u * u)
        return np.exp(-ik3 * t) * nl

    v = uhat.copy()
    t = 0.0
    outputs, out_times = [], []
    mass, momentum = [], []

    def record(step):
        uh = np.exp(ik3 * (step * dt)) * v
        u = np.real(np.fft.ifft(uh))
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e6:
            raise BlowUpError(f"solution blew up at t = {step * dt:.6g}")
        outputs.append(u)
        out_times.append(step * dt)
        m, p = conserved_quantities(u, grid)
        mass.append(m)
        momentum.append(p)

    snap_set = set(snap_steps)
    if 0 in snap_set:
        record(0)
    # a blowing-up run overflows before the finiteness checks below catch it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            t = (step - 1) * dt
            k1 = rhs(v, t)
            k2 = rhs(v + 0.5 * dt * k1, t + 0.5 * dt)
            k3_ = rhs(v + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = rhs(v + dt * k3_, t + dt)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3_ + k4)
            if step in snap_set:
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
            H=run.kernel.half_widths[0] if run.kernel is not None else None,
            dt=dt, t_final=run.t_final, dealias=run.dealias, n=grid.n,
            length=grid.length,
        ),
    )


def transport_diagnostics(result: KdVResult) -> dict:
    """Rightward-transport measures between the first and last snapshots.

    The first moment of u moves right at speed 3 * integral(u^2) exactly, so its
    displacement is the robust sign check for the emerging coherent structure;
    the raw argmax can drift left at short times while dispersive radiation
    still dominates the pointwise maximum.
    """
    grid = result.grid
    x = grid.nodes
    u0, uT = result.snapshots[0], result.snapshots[-1]
    m1_0 = float(np.sum(x * u0) * grid.dx)
    m1_T = float(np.sum(x * uT) * grid.dx)
    t_span = float(result.times[-1] - result.times[0])
    return dict(
        com_displacement=m1_T - m1_0,
        com_predicted=3.0 * float(result.momentum[0]) * t_span,
        peak_displacement=peak_location(uT, grid) - peak_location(u0, grid),
    )


def peak_location(u: np.ndarray, grid: PeriodicGrid1D) -> float:
    """Sub-grid peak position by parabolic interpolation around the discrete max."""
    j = int(np.argmax(u))
    n = grid.n
    um, u0, up = u[(j - 1) % n], u[j], u[(j + 1) % n]
    denom = um - 2.0 * u0 + up
    shift = 0.0 if denom == 0 else 0.5 * (um - up) / denom
    return grid.nodes[j] + shift * grid.dx
