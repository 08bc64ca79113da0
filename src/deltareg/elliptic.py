"""Helmholtz point-source benchmarks: exact solutions, near-exact regularized solves,
deleted-neighborhood sup error, and weighted-Sobolev error."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.interpolate import CubicSpline

from . import bessel
from .kernels import RegularizedDelta
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
    half = 0.5 * k0
    lo = np.minimum(x, 0.0)
    hi = np.maximum(x, 0.0)
    return -np.sin(half * (1.0 + lo)) * np.sin(half * (1.0 - hi)) / (k0 * math.sin(k0))


def exact_point_solution_1d_deriv(x, k0: float = 10.0):
    """One-sided derivative of the 1D point solution (0 assigned at the kink x=0)."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * k0
    denom = k0 * math.sin(k0)
    pos = half * np.sin(half) * np.cos(half * (1.0 - x)) / denom
    neg = -half * np.cos(half * (1.0 + x)) * np.sin(half) / denom
    return np.where(x > 0, pos, np.where(x < 0, neg, 0.0))


def greens_function_1d(x, y, k0: float = 10.0):
    """Translated two-point kernel consistent with exact_point_solution_1d at y=0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = 0.5 * k0
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return -np.sin(half * (1.0 + lo)) * np.sin(half * (1.0 - hi)) / (k0 * math.sin(k0))


def _greens_dx_1d(x, y, k0: float):
    half = 0.5 * k0
    denom = k0 * math.sin(k0)
    dpos = half * np.sin(half * (1.0 + y)) * np.cos(half * (1.0 - x)) / denom  # x > y
    dneg = -half * np.cos(half * (1.0 + x)) * np.sin(half * (1.0 - y)) / denom  # x < y
    return np.where(x > y, dpos, dneg)


def _kernel_panel_edges_1d(delta: RegularizedDelta) -> np.ndarray:
    h = delta.half_widths[0]
    pos = [h * b for b in delta.profiles[0].breakpoints if b > 0]
    edges = sorted(set([-e for e in pos] + [0.0] + pos))
    return np.asarray(edges)


def _convolve_greens(xs: np.ndarray, delta: RegularizedDelta, k0: float, order: int,
                     deriv: bool) -> np.ndarray:
    kernel_fn = _greens_dx_1d if deriv else greens_function_1d
    edges = _kernel_panel_edges_1d(delta)
    w_support = edges[-1]
    rule = gauss_legendre(order)
    nodes_list, weights_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        n, w = rule.mapped(lo, hi)
        nodes_list.append(n)
        weights_list.append(w)
    ynodes = np.concatenate(nodes_list)
    yweights = np.concatenate(weights_list)
    dvals = delta.eval(ynodes)
    out = np.empty_like(xs)
    outside = np.abs(xs) >= w_support
    if np.any(outside):
        xo = xs[outside]
        g = kernel_fn(xo[:, None], ynodes[None, :], k0)
        out[outside] = g @ (dvals * yweights)
    inside_idx = np.nonzero(~outside)[0]
    for i in inside_idx:
        x = xs[i]
        split = np.unique(np.concatenate([edges, [x]]))
        total = 0.0
        for lo, hi in zip(split[:-1], split[1:]):
            n, w = rule.mapped(lo, hi)
            total += float(np.dot(w, kernel_fn(x, n, k0) * delta.eval(n)))
        out[i] = total
    return out


def solve_regularized_1d(problem: Helmholtz1D, nodes: np.ndarray | None = None,
                         order: int = 16) -> SolutionProfile:
    """Regularized point-source solve by Green's-function convolution.

    Quadrature panels split at the kernel breakpoints and at the kink y = x;
    the result is accepted once doubling the Gauss order moves it by <= 1e-10
    relative.
    """
    if nodes is None:
        nodes = np.linspace(-1.0, 1.0, 4001)
    xs = np.asarray(nodes, dtype=float)
    k0 = problem.k0
    vals = _convolve_greens(xs, problem.kernel, k0, order, deriv=False)
    vals2 = _convolve_greens(xs, problem.kernel, k0, 2 * order, deriv=False)
    scale = np.max(np.abs(vals2))
    if np.max(np.abs(vals2 - vals)) > 1e-10 * max(scale, 1e-300):
        vals = _convolve_greens(xs, problem.kernel, k0, 4 * order, deriv=False)
        if np.max(np.abs(vals - vals2)) > 1e-10 * max(scale, 1e-300):
            raise QuadratureError("1D convolution quadrature failed the order-doubling check")
        vals2 = vals
    derivs = _convolve_greens(xs, problem.kernel, k0, 2 * order, deriv=True)
    profile = SolutionProfile(
        nodes=xs, values=vals2, derivs=derivs,
        metadata=dict(dim=1, k0=k0, H=problem.kernel.half_widths[0],
                      kernel=problem.kernel.name),
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
        right = _profile_deriv_onesided(prof, rho, m, side=+1)
        left = _profile_deriv_onesided(prof, rho, m, side=-1)
        g[m] = -(right - left) / H ** (2 + m)  # source is -delta_H
    j2 = g[0]
    j3 = g[1] - j2 / s
    j4 = g[2] - j3 / s + 2 * j2 / s**2 - k0 * k0 * j2
    j5 = g[3] - j4 / s + 3 * j3 / s**2 - 6 * j2 / s**3 - k0 * k0 * j3
    return np.array([j2, j3, j4, j5])


def _profile_deriv_onesided(prof, rho: float, order: int, side: int) -> float:
    # one-sided profile derivative at a piece boundary; zero beyond the support
    eps = 1e-12
    if side > 0 and rho >= prof.support - eps:
        return 0.0
    if prof.is_polynomial:
        for piece in prof.pieces:
            owns = (abs(piece.lo - rho) < eps) if side > 0 else (abs(piece.hi - rho) < eps)
            if owns:
                c = np.asarray(piece.coeffs, dtype=float)
                for _ in range(order):
                    c = c[1:] * np.arange(1, c.size)
                return float(np.polyval(c[::-1], rho)) if c.size else 0.0
        return float(prof.deriv(rho, order))  # rho interior to a piece
    return float(prof.deriv(min(rho, prof.support), order))


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


def solve_regularized_2d_radial(problem: RadialHelmholtz2D) -> SolutionProfile:
    """4th-order finite-difference solve of the radial point-source benchmark.

    The source sign is chosen so the small-support limit is
    exact_point_solution_2d_radial.  Kernel breakpoints sit on mesh nodes, and
    the rows whose stencils cross a breakpoint get immersed-interface defect
    corrections built from the known source jumps, which preserves the 4th-order
    accuracy through the source's derivative discontinuities.
    """
    n = problem.n_cells
    h = 1.0 / n
    k0 = problem.k0
    r = np.arange(n + 1) * h
    edges = _region_edges(problem)
    interior_bps = [b for b in edges if 0 < b < n]
    if any(b2 - b1 < 8 for b1, b2 in zip(edges[:-1], edges[1:])):
        raise ValueError("kernel breakpoints unresolvable: closer than 8 mesh cells")
    source = -problem.kernel.eval(np.stack([r, np.zeros_like(r)], axis=-1))

    rows, cols, vals = [], [], []
    rhs = np.zeros(n + 1)

    # r = 0: one-sided 4th-order first derivative = 0 (radial symmetry)
    w_bc = _fd_weights(np.arange(5), 1, h)
    rows.extend([0] * 5)
    cols.extend(range(5))
    vals.extend(w_bc)

    # r = 1: Dirichlet
    rows.append(n)
    cols.append(n)
    vals.append(1.0)

    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    centered = np.arange(-2, 3)

    # boundary-biased interior rows
    for j, window in ((1, np.arange(0, 6)), (n - 1, np.arange(n - 5, n + 1))):
        offs = window - j
        wj = _fd_weights(offs, 2, h) + _fd_weights(offs, 1, h) / r[j]
        rows.extend([j] * 6)
        cols.extend(window)
        vals.extend(wj)
        rows.append(j)
        cols.append(j)
        vals.append(k0 * k0)
        rhs[j] = source[j]

    # centered rows everywhere else
    j_mid = np.arange(2, n - 1)
    jj = np.repeat(j_mid, 5)
    oo = np.tile(centered, j_mid.size)
    vv = np.tile(c2, j_mid.size) + np.tile(c1, j_mid.size) / np.repeat(r[j_mid], 5)
    rows.extend(jj)
    cols.extend(jj + oo)
    vals.extend(vv)
    rows.extend(j_mid)
    cols.extend(j_mid)
    vals.extend(np.full(j_mid.size, k0 * k0))
    rhs[j_mid] = source[j_mid]

    # immersed-interface corrections at source breakpoints
    sing_parts = []
    for b in interior_bps:
        s = r[b]
        jumps = _source_jumps(problem, s, k0)
        u_sing, u_sing_d1, L_u_sing = _singular_part(jumps, s, k0)
        sing_parts.append((b, u_sing, u_sing_d1))
        for j in range(b - 3, b + 4):
            stencil_r = r[j + centered]
            lh = float((c2 + c1 / r[j]) @ u_sing(stencil_r)) + k0 * k0 * float(u_sing(r[j]))
            rhs[j] += lh - float(L_u_sing(r[j]))

    mat = sp.csc_matrix(sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)))
    lu = spla.splu(mat)
    u = lu.solve(rhs)
    u += lu.solve(rhs - mat @ u)  # one step of iterative refinement
    u[n] = 0.0  # Dirichlet value is exact

    # derivative by 4th-order differentiation with matching corrections
    du = np.empty_like(u)
    j_mid = np.arange(2, n - 1)
    acc = np.zeros(j_mid.size)
    for o, c in zip(centered, c1):
        acc += c * u[j_mid + o]
    du[j_mid] = acc
    du[0] = _fd_weights(np.arange(0, 5), 1, h) @ u[0:5]
    du[1] = _fd_weights(np.arange(-1, 5), 1, h) @ u[0:6]
    du[n - 1] = _fd_weights(np.arange(-5, 1), 1, h) @ u[n - 5:n + 1]
    du[n] = _fd_weights(np.arange(-4, 1), 1, h) @ u[n - 4:n + 1]
    for b, u_sing, u_sing_d1 in sing_parts:
        for j in range(max(b - 3, 2), min(b + 4, n - 1)):
            dh = float(c1 @ u_sing(r[j + centered]))
            du[j] -= dh - float(u_sing_d1(r[j]))

    profile = SolutionProfile(
        nodes=r, values=u, derivs=du,
        metadata=dict(dim=2, k0=k0, H=problem.kernel.half_widths[0],
                      kernel=problem.kernel.name, n_cells=n),
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


def _sobolev_2d_radial(rs, diff, alpha, support_edge):
    """2 pi * integral of diff(r)^2 r^(2 alpha + 1), with a singular model on (0, r1)."""
    spline = CubicSpline(rs, diff)
    r1, r2 = rs[0], rs[1]
    # model diff(r) = a/r + c r on the unresolved sliver next to the origin
    c = (diff[1] * r2 - diff[0] * r1) / (r2 * r2 - r1 * r1)
    a = diff[0] * r1 - c * r1 * r1
    ta = 2 * alpha
    sliver = (a * a * r1**ta / ta
              + 2 * a * c * r1**(ta + 2) / (ta + 2)
              + c * c * r1**(ta + 4) / (ta + 4))
    # geometric panels from r1 up to the kernel edge, then uniform panels to 1
    edges = [r1]
    while edges[-1] < min(support_edge, 1.0) * 0.999:
        edges.append(min(edges[-1] * 2.0, min(support_edge, 1.0)))
    tail_start = edges[-1]
    n_tail = 48
    edges.extend(np.linspace(tail_start, 1.0, n_tail + 1)[1:])
    rule = gauss_legendre(12)
    integral = integrate_panels(lambda r: spline(r) ** 2 * r**(ta + 1), np.asarray(edges), rule)
    return 2.0 * np.pi * (sliver + integral)


def weighted_sobolev_error(u_exact: SolutionProfile, u_reg: SolutionProfile,
                           wspec: WeightedNormSpec) -> float:
    """Weighted H1-seminorm error (integral of |grad(u - u_H)|^2 |x|^(2 alpha))^(1/2).

    The 2D radial form is 2 pi * integral (u' - u_H')^2 r^(2 alpha + 1) dr with the
    integrable derivative singularity at the origin handled by a fitted a/r + c r
    model on the first mesh cell and graded panels beyond it.
    """
    _common_mask(u_exact, u_reg)
    if u_exact.derivs is None or u_reg.derivs is None:
        raise ValueError("derivative values required")
    diff = u_exact.derivs - u_reg.derivs
    rs = u_exact.nodes
    if wspec.dim != u_exact.dim:
        raise ValueError("weight dimension does not match profiles")
    if wspec.dim == 2:
        support_edge = float(u_reg.metadata.get("H", 0.0)) or rs[-1]
        return math.sqrt(_sobolev_2d_radial(rs, diff, wspec.alpha, support_edge))
    spline = CubicSpline(rs, diff**2 * np.abs(rs) ** (2 * wspec.alpha))
    rule = gauss_legendre(12)
    edges = np.linspace(rs[0], rs[-1], 256)
    return math.sqrt(integrate_panels(spline, edges, rule))
