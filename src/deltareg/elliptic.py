"""Helmholtz point-source benchmarks: exact solutions, near-exact regularized solves,
deleted-neighborhood sup error, and weighted-Sobolev error."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import bessel
from .kernels import RegularizedDelta
from .moments import SingularSystemError
from .quadrature import QuadratureError, gauss_legendre, integrate_panels

__all__ = [
    "ResonanceError",
    "Helmholtz1D",
    "RadialHelmholtz2D",
    "SolutionProfile",
    "WeightedNormSpec",
    "exact_point_solution_1d",
    "exact_point_solution_1d_deriv",
    "greens_function_1d",
    "exact_point_solution_2d_radial",
    "exact_point_solution_2d_radial_deriv",
    "solve_regularized_1d",
    "solve_regularized_2d_radial",
    "exact_profile_1d",
    "exact_profile_2d",
    "radial_grid",
    "pointwise_error",
    "weighted_sobolev_error",
]


class ResonanceError(ValueError):
    """Wavenumber too close to a Dirichlet eigenvalue of the domain."""


@dataclass(frozen=True)
class SolutionProfile:
    """Sampled solution of a point-source problem on a 1D or radial-2D grid."""

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("profile nodes must be strictly increasing")

    @property
    def dim(self) -> int:
        return int(self.metadata.get("dim", 1))

    def check_boundary(self, tol: float = 1e-10) -> None:
        """Domain-edge values must vanish: x = +-1 in 1D, r = 1 in 2D."""
        if self.dim == 1:
            for edge in (-1.0, 1.0):
                i = int(np.argmin(np.abs(self.nodes - edge)))
                if abs(self.nodes[i] - edge) < 1e-12 and abs(self.values[i]) > tol:
                    raise ValueError(f"boundary value {self.values[i]:.2e} at x={edge}")
        else:
            if abs(self.nodes[-1] - 1.0) < 1e-12 and abs(self.values[-1]) > tol:
                raise ValueError(f"boundary value {self.values[-1]:.2e} at r=1")


@dataclass(frozen=True)
class Helmholtz1D:
    kernel: RegularizedDelta
    k0: float = 10.0

    def __post_init__(self):
        if abs(math.sin(self.k0)) < 1e-8:
            raise ResonanceError(f"sin(k0) = {math.sin(self.k0):.3e}; Dirichlet resonance")
        if self.kernel.dim != 1:
            raise ValueError("Helmholtz1D needs a 1D kernel")
        if self.kernel.support_radius >= 1.0:
            raise ValueError("kernel support must lie inside (-1, 1)")


@dataclass(frozen=True)
class RadialHelmholtz2D:
    kernel: RegularizedDelta
    k0: float = 10.0
    n_cells: int = 20480  # radial mesh cells; nodes = n_cells + 1

    def __post_init__(self):
        if abs(bessel.j0(self.k0)) < 1e-8:
            raise ResonanceError(f"J0(k0) = {bessel.j0(self.k0):.3e}; Dirichlet resonance")
        if self.kernel.dim != 2 or not self.kernel.is_radial:
            raise ValueError("RadialHelmholtz2D needs a radial 2D kernel")
        if self.kernel.support_radius >= 1.0:
            raise ValueError("kernel support must lie inside the unit disk")
        if self.n_cells < 2 * 10**4:
            raise ValueError("radial mesh needs at least 2e4 cells")


@dataclass(frozen=True)
class WeightedNormSpec:
    """Gradient norm weight |x|^(2 alpha); alpha admissible in (n/2 - 1, n/2)."""

    alpha: float
    dim: int = 2
    beta: float = 1.0

    def __post_init__(self):
        lo, hi = self.dim / 2 - 1, self.dim / 2
        if not lo < self.alpha < hi:
            raise ValueError(f"alpha must lie in ({lo}, {hi}) for dimension {self.dim}")


# ---------------------------------------------------------------------------
# 1D: closed-form point solution and Green's-function convolution solve
# ---------------------------------------------------------------------------

def exact_point_solution_1d(x, k0: float = 10.0):
    """Point-source solution on [-1, 1] with zero boundary values."""
    if abs(math.sin(k0)) < 1e-8:
        raise ResonanceError("sin(k0) vanishes")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("x outside [-1, 1]")
    return greens_function_1d(x, 0.0, k0)


def exact_point_solution_1d_deriv(x, k0: float = 10.0):
    """One-sided derivative of the 1D point solution (0 assigned at the kink x=0)."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * k0
    denom = k0 * math.sin(k0)
    # the solution is even in x, so its derivative is odd
    return np.sign(x) * half * np.sin(half) * np.cos(half * (1.0 - np.abs(x))) / denom


def greens_function_1d(x, y, k0: float = 10.0):
    """Translated two-point kernel consistent with exact_point_solution_1d at y=0."""
    half = 0.5 * k0
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return -np.sin(half * (1.0 + lo)) * np.sin(half * (1.0 - hi)) / (k0 * math.sin(k0))


def _kernel_panel_edges_1d(delta: RegularizedDelta) -> np.ndarray:
    pos = delta.half_widths[0] * np.asarray(delta.profiles[0].breakpoints)  # holds 0
    return np.unique(np.concatenate([-pos, pos]))


def _convolve_greens(xs: np.ndarray, delta: RegularizedDelta, k0: float,
                     order: int) -> tuple[np.ndarray, np.ndarray]:
    """Green's function and its x-derivative convolved with delta at every node of xs.

    G(x, y) = -a(min(x, y)) b(max(x, y)) / D, a(t) = sin(k0 (1 + t) / 2),
    b(t) = sin(k0 (1 - t) / 2), D = k0 sin k0, so u = -(b il + a ir) / D and
    u' = -(b' il + a' ir) / D, where il(x) integrates a delta over y < x and ir(x)
    b delta over y > x. Loops over the kernel's breakpoint panels, never over nodes:
    a node at or right of a panel takes the panel's Gauss moment of a delta into il,
    one at or left of it that of b delta into ir; nodes strictly inside [lo, hi]
    take the rule on [lo, x] and [x, hi] as one (n_split, 2, order) batch.
    """
    half = 0.5 * k0
    rule = gauss_legendre(order)
    il, ir = np.zeros_like(xs), np.zeros_like(xs)
    edges = _kernel_panel_edges_1d(delta)
    for lo, hi in zip(edges[:-1], edges[1:]):
        n, w = rule.mapped(lo, hi)
        wd = delta.eval(n) * w
        il[xs >= hi] += np.dot(wd, np.sin(half * (1.0 + n)))
        ir[xs <= lo] += np.dot(wd, np.sin(half * (1.0 - n)))
        split = (xs > lo) & (xs < hi)
        x = xs[split, None]
        ys, ws = rule.mapped(np.hstack([np.full_like(x, lo), x])[..., None],
                             np.hstack([x, np.full_like(x, hi)])[..., None])
        wds = ws * delta.eval(ys)  # [:, 0] on [lo, x], [:, 1] on [x, hi]
        il[split] += np.sum(wds[:, 0] * np.sin(half * (1.0 + ys[:, 0])), axis=1)
        ir[split] += np.sum(wds[:, 1] * np.sin(half * (1.0 - ys[:, 1])), axis=1)
    denom = k0 * math.sin(k0)
    a, b = np.sin(half * (1.0 + xs)), np.sin(half * (1.0 - xs))
    da, db = half * np.cos(half * (1.0 + xs)), -half * np.cos(half * (1.0 - xs))
    return -(b * il + a * ir) / denom, -(db * il + da * ir) / denom


def solve_regularized_1d(problem: Helmholtz1D, nodes: np.ndarray | None = None,
                         order: int = 16) -> SolutionProfile:
    """Regularized point-source solve by Green's-function convolution.

    Each `_convolve_greens` pass gives values and derivatives. Passes run at
    `order`, `2 order` and, if needed, `4 order`; a pass is accepted once doubling
    the Gauss order moves the values by <= 1e-10 of the `2 order` maximum, and
    the profile takes values and derivatives from it. Metadata `order` and
    `doubling_delta` record the accepted order and that last change.
    """
    if nodes is None:
        nodes = np.linspace(-1.0, 1.0, 4001)
    xs = np.asarray(nodes, dtype=float)
    k0 = problem.k0
    coarse, _ = _convolve_greens(xs, problem.kernel, k0, order)
    vals, derivs = _convolve_greens(xs, problem.kernel, k0, 2 * order)
    tol = 1e-10 * max(float(np.max(np.abs(vals))), 1e-300)
    accepted, diff = 2 * order, float(np.max(np.abs(vals - coarse)))
    if diff > tol:
        coarse = vals
        vals, derivs = _convolve_greens(xs, problem.kernel, k0, 4 * order)
        accepted, diff = 4 * order, float(np.max(np.abs(vals - coarse)))
        if diff > tol:
            raise QuadratureError("1D convolution quadrature failed the order-doubling check")
    profile = SolutionProfile(
        nodes=xs, values=vals, derivs=derivs,
        metadata=dict(dim=1, k0=k0, H=problem.kernel.half_widths[0],
                      kernel=problem.kernel.name, order=accepted, doubling_delta=diff),
    )
    profile.check_boundary()
    return profile


def exact_profile_1d(nodes: np.ndarray, k0: float = 10.0) -> SolutionProfile:
    nodes = np.asarray(nodes, dtype=float)
    return SolutionProfile(
        nodes=nodes,
        values=exact_point_solution_1d(nodes, k0),
        derivs=exact_point_solution_1d_deriv(nodes, k0),
        metadata=dict(dim=1, k0=k0, H=0.0, kernel="point_source"),
    )


# ---------------------------------------------------------------------------
# 2D radial: Bessel closed form and 4th-order finite differences
# ---------------------------------------------------------------------------

def exact_point_solution_2d_radial(r, k0: float = 10.0):
    """Radial point-source solution on the unit disk; r = 0 is a log singularity."""
    if k0 <= 0.0:
        raise ValueError("k0 must be positive")
    j0k = bessel.j0(k0)
    if abs(j0k) < 1e-8:
        raise ResonanceError("J0(k0) vanishes")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive (log singularity at 0)")
    c = bessel.y0(k0) / (4.0 * j0k)
    return -bessel.y0(k0 * r) / 4.0 + c * bessel.j0(k0 * r)


def exact_point_solution_2d_radial_deriv(r, k0: float = 10.0):
    """d/dr of the radial point-source solution; behaves like -1/(2 pi r) near 0."""
    if k0 <= 0.0:
        raise ValueError("k0 must be positive")
    j0k = bessel.j0(k0)
    if abs(j0k) < 1e-8:
        raise ResonanceError("J0(k0) vanishes")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    c = bessel.y0(k0) / (4.0 * j0k)
    return k0 * bessel.y1(k0 * r) / 4.0 - c * k0 * bessel.j1(k0 * r)


def exact_profile_2d(nodes: np.ndarray, k0: float = 10.0) -> SolutionProfile:
    nodes = np.asarray(nodes, dtype=float)
    return SolutionProfile(
        nodes=nodes,
        values=exact_point_solution_2d_radial(nodes, k0),
        derivs=exact_point_solution_2d_radial_deriv(nodes, k0),
        metadata=dict(dim=2, k0=k0, H=0.0, kernel="point_source"),
    )


def _fd_weights(offsets: np.ndarray, deriv: int, h: float) -> np.ndarray:
    n = len(offsets)
    v = np.vander(np.asarray(offsets, dtype=float), increasing=True).T
    b = np.zeros(n)
    b[deriv] = math.factorial(deriv)
    return np.linalg.solve(v, b) / h**deriv


def _region_edges(problem: RadialHelmholtz2D) -> list[int]:
    """Kernel breakpoints as mesh indices; they must land on mesh nodes."""
    n = problem.n_cells
    h = 1.0 / n
    idx = {0, n}
    for b in problem.kernel.breakpoints_physical():
        if 0.0 < b < 1.0:
            j = b / h
            if abs(j - round(j)) > 1e-9:
                raise ValueError(
                    f"kernel breakpoint r={b:g} is not resolvable on a mesh of {n} cells"
                )
            idx.add(int(round(j)))
    return sorted(idx)


def _source_jumps(problem: RadialHelmholtz2D, s: float, k0: float) -> np.ndarray:
    """Jumps [u''], [u'''], [u''''], [u''''']  at a source breakpoint radius s.

    Derived by repeatedly differentiating u'' = g - u'/r - k^2 u, where g is the
    (signed) source; u and u' are continuous across the breakpoint.
    """
    H = problem.kernel.half_widths[0]
    prof = problem.kernel.profiles[0]
    rho = s / H
    g = np.empty(4)
    for m in range(4):
        g[m] = -prof.jump(rho, m) / H ** (2 + m)  # source is -delta_H
    j2 = g[0]
    j3 = g[1] - j2 / s
    j4 = g[2] - j3 / s + 2 * j2 / s**2 - k0 * k0 * j2
    j5 = g[3] - j4 / s + 3 * j3 / s**2 - 6 * j2 / s**3 - k0 * k0 * j3
    return np.array([j2, j3, j4, j5])


def _singular_part(jumps: np.ndarray, s: float, k0: float):
    """One-sided expansion sum_m J_m (r-s)^m_+/m! and its image under the operator."""

    def u_sing(r):
        d = np.maximum(np.asarray(r, dtype=float) - s, 0.0)
        return (jumps[0] * d**2 / 2 + jumps[1] * d**3 / 6
                + jumps[2] * d**4 / 24 + jumps[3] * d**5 / 120)

    def u_sing_d1(r):
        d = np.maximum(np.asarray(r, dtype=float) - s, 0.0)
        return (jumps[0] * d + jumps[1] * d**2 / 2
                + jumps[2] * d**3 / 6 + jumps[3] * d**4 / 24)

    def u_sing_d2(r):
        d = np.maximum(np.asarray(r, dtype=float) - s, 0.0)
        return (jumps[0] + jumps[1] * d + jumps[2] * d**2 / 2 + jumps[3] * d**3 / 6)

    def L_u_sing(r):
        r = np.asarray(r, dtype=float)
        out = u_sing_d2(r) + u_sing_d1(r) / r + k0 * k0 * u_sing(r)
        return np.where(r > s, out, 0.0)

    return u_sing, u_sing_d1, L_u_sing


def radial_grid(n_cells: int) -> np.ndarray:
    """Nodes r_j = j h, h = 1 / n_cells, of the radial FD mesh on [0, 1]."""
    return np.arange(n_cells + 1) * (1.0 / n_cells)


_BW = 4  # lower and upper bandwidth of the radial FD operator
_CENTERED = np.arange(-2, 3)


def _centered_weights(h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order centred second- and first-derivative weights on offsets -2..2."""
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    return c2, c1


@lru_cache(maxsize=4)
def _radial_fd_operator(n: int, k0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band, banded LU and pivots of the radial FD operator on n cells, shared read-only.

    No row depends on the kernel, which enters the right-hand side only, so one
    factor serves every solve on a mesh. A zero pivot raises SingularSystemError
    here, so a failed factor is never cached.
    """
    h = 1.0 / n
    r = radial_grid(n)
    storage = np.zeros((3 * _BW + 1, n + 1))  # dgbtrf fills in the top _BW rows
    band = storage[_BW:]

    # r = 0: one-sided 4th-order first derivative = 0 (radial symmetry)
    window = np.arange(5)
    band[_BW - window, window] = _fd_weights(window, 1, h)

    # r = 1: Dirichlet
    band[_BW, n] = 1.0

    # boundary-biased interior rows
    for j, window in ((1, np.arange(0, 6)), (n - 1, np.arange(n - 5, n + 1))):
        offs = window - j
        band[_BW - offs, window] = _fd_weights(offs, 2, h) + _fd_weights(offs, 1, h) / r[j]
        band[_BW, j] += k0 * k0

    # centered rows everywhere else
    j_mid = np.arange(2, n - 1)
    for o, a2, a1 in zip(_CENTERED, *_centered_weights(h)):
        band[_BW - o, j_mid + o] = a2 + a1 / r[j_mid]
    band[_BW, j_mid] += k0 * k0

    lu, piv, info = dgbtrf(storage, _BW, _BW)
    if info > 0:
        raise SingularSystemError(f"zero pivot in column {info - 1} of the radial FD band LU")
    for a in (band, lu, piv):
        a.setflags(write=False)
    return band, lu, piv


def solve_regularized_2d_radial(problem: RadialHelmholtz2D) -> SolutionProfile:
    """4th-order finite-difference solve of the radial point-source benchmark.

    The source sign is chosen so the small-support limit is
    exact_point_solution_2d_radial.  Kernel breakpoints sit on mesh nodes, and
    the rows whose stencils cross a breakpoint get immersed-interface defect
    corrections built from the known source jumps, which preserves the 4th-order
    accuracy through the source's derivative discontinuities.

    No stencil reaches past 4 nodes from its row, so rows go straight into LAPACK
    band storage, A[i, j] at band[4 + i - j, j], factored by banded LU (a zero
    pivot raises SingularSystemError). The matrix depends on (n_cells, k0) only,
    so the band and its factor are built once per mesh and shared by every solve
    on it; the kernel enters the right-hand side alone. Metadata records the
    max-norm residual ||A u - b|| of the returned u, taken from the same band,
    and the mesh cells per kernel half-width.
    """
    n = problem.n_cells
    h = 1.0 / n
    k0 = problem.k0
    r = radial_grid(n)
    edges = _region_edges(problem)
    interior_bps = [b for b in edges if 0 < b < n]
    if any(b2 - b1 < 8 for b1, b2 in zip(edges[:-1], edges[1:])):
        raise ValueError("kernel breakpoints unresolvable: closer than 8 mesh cells")
    band, lu, piv = _radial_fd_operator(n, k0)
    c2, c1 = _centered_weights(h)

    # the source on every interior row; r = 0 (symmetry) and r = 1 (Dirichlet) are 0
    rhs = -problem.kernel.eval_radial(r)
    rhs[[0, n]] = 0.0

    # immersed-interface corrections at source breakpoints
    sing_parts = []
    for b in interior_bps:
        s = r[b]
        jumps = _source_jumps(problem, s, k0)
        u_sing, u_sing_d1, L_u_sing = _singular_part(jumps, s, k0)
        sing_parts.append((b, u_sing, u_sing_d1))
        for j in range(b - 3, b + 4):
            stencil_r = r[j + _CENTERED]
            lh = float((c2 + c1 / r[j]) @ u_sing(stencil_r)) + k0 * k0 * float(u_sing(r[j]))
            rhs[j] += lh - float(L_u_sing(r[j]))

    u = dgbtrs(lu, _BW, _BW, rhs, piv)[0]
    u[n] = 0.0  # Dirichlet value is exact
    au = np.zeros(n + 1)
    for o in range(-_BW, _BW + 1):  # A[i, i + o] sits at band[_BW - o, i + o]
        rows = slice(max(0, -o), min(n + 1, n + 1 - o))
        cols = slice(rows.start + o, rows.stop + o)
        au[rows] += band[_BW - o, cols] * u[cols]
    residual = float(np.max(np.abs(rhs - au)))

    # derivative by 4th-order differentiation with matching corrections
    du = np.empty_like(u)
    acc = np.zeros(n - 3)
    for o, c in zip(_CENTERED, c1):
        acc += c * u[2 + o:n - 1 + o]
    du[2:n - 1] = acc
    du[0] = _fd_weights(np.arange(0, 5), 1, h) @ u[0:5]
    du[1] = _fd_weights(np.arange(-1, 5), 1, h) @ u[0:6]
    du[n - 1] = _fd_weights(np.arange(-5, 1), 1, h) @ u[n - 5:n + 1]
    du[n] = _fd_weights(np.arange(-4, 1), 1, h) @ u[n - 4:n + 1]
    for b, u_sing, u_sing_d1 in sing_parts:
        for j in range(max(b - 3, 2), min(b + 4, n - 1)):
            dh = float(c1 @ u_sing(r[j + _CENTERED]))
            du[j] -= dh - float(u_sing_d1(r[j]))

    profile = SolutionProfile(
        nodes=r, values=u, derivs=du,
        metadata=dict(dim=2, k0=k0, H=problem.kernel.half_widths[0],
                      kernel=problem.kernel.name, n_cells=n,
                      cells_per_radius=problem.kernel.half_widths[0] * n,
                      residual=residual),
    )
    profile.check_boundary()
    return profile


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def _common_mask(u_exact: SolutionProfile, u_reg: SolutionProfile):
    if u_exact.nodes.shape != u_reg.nodes.shape or np.max(
            np.abs(u_exact.nodes - u_reg.nodes)) > 1e-12:
        raise ValueError("profiles must share a common evaluation grid")


def pointwise_error(u_exact: SolutionProfile, u_reg: SolutionProfile, cutoff: float,
                    min_points: int = 2000) -> float:
    """Sup of |u - u_H| over grid points with |x| > cutoff (sharp exclusion)."""
    _common_mask(u_exact, u_reg)
    outside = np.abs(u_exact.nodes) > cutoff
    n_out = int(np.count_nonzero(outside))
    if n_out == 0:
        raise ValueError("empty exterior region")
    if n_out < min_points:
        raise ValueError(f"only {n_out} grid points outside the cutoff; need {min_points}")
    return float(np.max(np.abs(u_exact.values[outside] - u_reg.values[outside])))


def _sobolev_2d_radial(rs, diff, spline, alphas, support_edge) -> list[float]:
    """2 pi * integral of diff(r)^2 r^(2 alpha + 1) per alpha, with a singular model on (0, r1).

    `spline` interpolates diff; it, the model and the panels serve every alpha.
    """
    r1, r2 = rs[0], rs[1]
    # model diff(r) = a/r + c r on the unresolved sliver next to the origin
    c = (diff[1] * r2 - diff[0] * r1) / (r2 * r2 - r1 * r1)
    a = diff[0] * r1 - c * r1 * r1
    # geometric panels from r1 up to the kernel edge, then uniform panels to 1
    edges = [r1]
    while edges[-1] < min(support_edge, 1.0) * 0.999:
        edges.append(min(edges[-1] * 2.0, min(support_edge, 1.0)))
    tail_start = edges[-1]
    n_tail = 48
    edges.extend(np.linspace(tail_start, 1.0, n_tail + 1)[1:])
    edges = np.asarray(edges)
    rule = gauss_legendre(12)
    out = []
    for alpha in alphas:
        ta = 2 * alpha
        sliver = (a * a * r1**ta / ta
                  + 2 * a * c * r1**(ta + 2) / (ta + 2)
                  + c * c * r1**(ta + 4) / (ta + 4))
        integral = integrate_panels(lambda r: spline(r) ** 2 * r**(ta + 1), edges, rule)
        out.append(2.0 * np.pi * (sliver + integral))
    return out


def _sobolev_1d(xs, spline, alphas) -> list[float]:
    """Integral of diff(x)^2 |x|^(2 alpha) over [xs[0], xs[-1]] per alpha; `spline` is diff.

    Each side of x = 0 takes 128 uniform panels, the innermost cut by 40 halvings
    toward the weight's singularity at 0; the sliver left around 0 takes diff(0).
    """
    if not xs[0] < 0.0 < xs[-1]:
        raise ValueError("1D weighted norm needs nodes on both sides of x = 0")
    unit = np.concatenate([2.0 ** np.arange(-40, 0), np.arange(1, 129)]) / 128
    rule = gauss_legendre(12)
    out = []
    for p in 2 * np.asarray(alphas):
        sliver = ((-xs[0] * unit[0]) ** (p + 1) + (xs[-1] * unit[0]) ** (p + 1)) / (p + 1)
        panels = sum(integrate_panels(lambda x: spline(x) ** 2 * np.abs(x) ** p, edges, rule)
                     for edges in (xs[0] * unit[::-1], xs[-1] * unit))
        out.append(float(spline(0.0)) ** 2 * sliver + panels)
    return out


def weighted_sobolev_error(u_exact: SolutionProfile, u_reg: SolutionProfile,
                           wspecs: Sequence[WeightedNormSpec]) -> list[float]:
    """Weighted H1-seminorm errors (integral of |grad(u - u_H)|^2 |x|^(2 alpha))^(1/2),
    one for each WeightedNormSpec in the sequence `wspecs`.

    The 2D radial form is 2 pi * integral (u' - u_H')^2 r^(2 alpha + 1) dr with the
    integrable derivative singularity at the origin handled by a fitted a/r + c r
    model on the first mesh cell and graded panels beyond it; 1D applies |x|^(2 alpha)
    inside the integrand, graded toward 0. One spline of u' - u_H' serves every weight.
    """
    from scipy.interpolate import CubicSpline  # about 0.3 s to import; only this norm needs it

    _common_mask(u_exact, u_reg)
    if u_exact.derivs is None or u_reg.derivs is None:
        raise ValueError("derivative values required")
    diff = u_exact.derivs - u_reg.derivs
    rs = u_exact.nodes
    if any(wspec.dim != u_exact.dim for wspec in wspecs):
        raise ValueError("weight dimension does not match profiles")
    alphas = [wspec.alpha for wspec in wspecs]
    if u_exact.dim == 2:
        support_edge = float(u_reg.metadata.get("H", 0.0)) or rs[-1]
        squares = _sobolev_2d_radial(rs, diff, CubicSpline(rs, diff), alphas, support_edge)
    else:
        squares = _sobolev_1d(rs, CubicSpline(rs, diff), alphas)
    return [math.sqrt(v) for v in squares]
