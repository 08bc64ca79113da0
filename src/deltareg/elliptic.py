"""Helmholtz point-source benchmarks: exact solutions, near-exact regularized solves,
deleted-neighborhood sup error, and weighted-Sobolev error.

Both geometries share one node solve: G = -scale a(min) b(max) convolved with the
kernel in separable form, exact to quadrature at any nodes, with sines for a and b in
1D and J0/Y0 ring factors in 2D. The pointwise error solves at `exterior_nodes`, and
the weighted-Sobolev norm solves at its own Gauss radii and interpolates no profile.
The Green's-function factors depend on the geometry alone, never on the kernel: the
solves memoize them by (dim, k0, nodes) and (dim, k0, Gauss order, panel edges), so
doubling passes and kernels on one geometry share them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bessel
from .kernels import RegularizedDelta
from .quadrature import QuadratureError, _panels, gauss_legendre

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
    "exterior_nodes",
    "pointwise_error",
    "weighted_sobolev_error",
]


class ResonanceError(ValueError):
    """Wavenumber too close to a Dirichlet eigenvalue of the domain."""


@dataclass(frozen=True)
class SolutionProfile:
    """Sampled solution of a point-source problem on a 1D or radial-2D grid; a solve's
    profile carries its accepted Gauss order and doubling delta, a closed form None."""

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    dim: int = 1
    order: int | None = None
    doubling_delta: float | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("profile nodes must be strictly increasing")

    def check_boundary(self) -> None:
        """Domain-edge values must vanish to 1e-10: x = +-1 in 1D, r = 1 in 2D."""
        for edge in (-1.0, 1.0) if self.dim == 1 else (1.0,):
            i = int(np.argmin(np.abs(self.nodes - edge)))
            if abs(self.nodes[i] - edge) < 1e-12 and abs(self.values[i]) > 1e-10:
                raise ValueError(f"boundary value {self.values[i]:.2e} at {edge:g}")


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

    def __post_init__(self):
        if abs(bessel.j0(self.k0)) < 1e-8:
            raise ResonanceError(f"J0(k0) = {bessel.j0(self.k0):.3e}; Dirichlet resonance")
        if self.kernel.dim != 2 or not self.kernel.is_radial:
            raise ValueError("RadialHelmholtz2D needs a radial 2D kernel")
        if self.kernel.support_radius >= 1.0:
            raise ValueError("kernel support must lie inside the unit disk")


@dataclass(frozen=True)
class WeightedNormSpec:
    """Gradient norm weight |x|^(2 alpha) on the disk; alpha admissible in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) for the disk")


# ---------------------------------------------------------------------------
# 1D: closed-form point solution
# ---------------------------------------------------------------------------

def _point_args_1d(x, k0: float) -> np.ndarray:
    """x as an array, once sin(k0) != 0 and every x lies in [-1, 1]."""
    if abs(math.sin(k0)) < 1e-8:
        raise ResonanceError("sin(k0) vanishes")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-14):
        raise ValueError("x outside [-1, 1]")
    return x


def exact_point_solution_1d(x, k0: float = 10.0):
    """Point-source solution on [-1, 1] with zero boundary values."""
    return greens_function_1d(_point_args_1d(x, k0), 0.0, k0)


def exact_point_solution_1d_deriv(x, k0: float = 10.0):
    """One-sided derivative of the 1D point solution (0 assigned at the kink x=0)."""
    x = _point_args_1d(x, k0)
    half = 0.5 * k0
    denom = k0 * math.sin(k0)
    # the solution is even in x, so its derivative is odd
    return np.sign(x) * half * np.sin(half) * np.cos(half * (1.0 - np.abs(x))) / denom


def greens_function_1d(x, y, k0: float = 10.0):
    """Translated two-point kernel consistent with exact_point_solution_1d at y=0."""
    half = 0.5 * k0
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    return -np.sin(half * (1.0 + lo)) * np.sin(half * (1.0 - hi)) / (k0 * math.sin(k0))


def exact_profile_1d(nodes: np.ndarray, k0: float = 10.0) -> SolutionProfile:
    nodes = np.asarray(nodes, dtype=float)
    return SolutionProfile(
        nodes=nodes,
        values=exact_point_solution_1d(nodes, k0),
        derivs=exact_point_solution_1d_deriv(nodes, k0),
        dim=1,
    )


# ---------------------------------------------------------------------------
# 2D radial: Bessel closed form and ring factors
# ---------------------------------------------------------------------------

def _radial_point_args(r, k0: float):
    """r as an array and Y0(k0) / (4 J0(k0)), once k0 > 0, J0(k0) != 0 and 0 < r <= 1."""
    if k0 <= 0.0:
        raise ValueError("k0 must be positive")
    j0k = bessel.j0(k0)
    if abs(j0k) < 1e-8:
        raise ResonanceError("J0(k0) vanishes")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive (log singularity at 0)")
    if np.any(r > 1.0 + 1e-14):
        raise ValueError("r outside the unit disk")
    return r, bessel.y0(k0) / (4.0 * j0k)


def exact_point_solution_2d_radial(r, k0: float = 10.0):
    """Radial point-source solution on the unit disk; r = 0 is a log singularity."""
    r, c = _radial_point_args(r, k0)
    return -bessel.y0(k0 * r) / 4.0 + c * bessel.j0(k0 * r)


def exact_point_solution_2d_radial_deriv(r, k0: float = 10.0):
    """d/dr of the radial point-source solution; behaves like -1/(2 pi r) near 0."""
    r, c = _radial_point_args(r, k0)
    return k0 * bessel.y1(k0 * r) / 4.0 - c * k0 * bessel.j1(k0 * r)


def exact_profile_2d(nodes: np.ndarray, k0: float = 10.0) -> SolutionProfile:
    nodes = np.asarray(nodes, dtype=float)
    return SolutionProfile(
        nodes=nodes,
        values=exact_point_solution_2d_radial(nodes, k0),
        derivs=exact_point_solution_2d_radial_deriv(nodes, k0),
        dim=2,
    )


def _ring_factors(r, k0: float):
    """a = J0(k0 r) and b = Y0(k0 r) - (Y0(k0) / J0(k0)) J0(k0 r), so that b(1) = 0, and
    a' = -k0 J1(k0 r) and b' = k0 ((Y0(k0) / J0(k0)) J1(k0 r) - Y1(k0 r))."""
    ratio, a, j1 = bessel.y0(k0) / bessel.j0(k0), bessel.j0(k0 * r), bessel.j1(k0 * r)
    return a, bessel.y0(k0 * r) - ratio * a, -k0 * j1, k0 * (ratio * j1 - bessel.y1(k0 * r))


# ---------------------------------------------------------------------------
# one node solve for both geometries
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _greens_factors(dim: int, k0: float, order: int, points: bytes) -> tuple:
    """Read-only Green's-function factors of the dim-D node solve, memoized by value.

    With order 0, a, b, a' and b' at the nodes `points` (bytes), in 2D with b(1) = 0
    set exactly and also the point solution's u'. Otherwise that order's Gauss points y
    on the panels with edges `points` and the weighted factors there, shape (2, panels,
    order): w sin(k0 (1 +- y) / 2) in 1D, 2 pi y w times a and b in 2D. A pass of the
    helm2d and helm2d-sobolev tables fills 32 entries (11 pointwise, 21 Sobolev) and
    helm1d 17, so 64 keep a repeated pass from cycling the memo.
    """
    x, half = np.frombuffer(points), 0.5 * k0
    if order:
        y, w = _panels(x, gauss_legendre(order))
        factors = [y, 2.0 * np.pi * y * w * np.stack(_ring_factors(y, k0)[:2]) if dim == 2 else
                   w * np.sin([half * (1.0 + y), half * (1.0 - y)])]
    elif dim == 1:
        factors = [np.sin(half * (1.0 + x)), np.sin(half * (1.0 - x)),
                   half * np.cos(half * (1.0 + x)), -half * np.cos(half * (1.0 - x))]
    else:
        factors = [*_ring_factors(x, k0), exact_point_solution_2d_radial_deriv(x, k0)]
        factors[1][x == 1.0] = 0.0
    for f in factors:
        f.setflags(write=False)
    return tuple(factors)


def _separable_convolution(k, am, bm, factors, scale: float):
    """Values and derivatives of the convolution of G(x, y) = -scale a(min) b(max).

    `am` and `bm` are the panels' moments of a delta and b delta, in panel order, and
    node j has the first k[j] panels on its left, so il, the moments of a delta left of
    it, and ir, those of b delta right of it, are cumulative sums. `factors` holds a, b,
    a' and b' at the nodes; returns u = -scale (b il + a ir) and
    u' = -scale (b' il + a' ir).
    """
    a, b, da, db = factors
    il = np.concatenate([[0.0], np.cumsum(am)])[k]
    ir = np.concatenate([np.cumsum(bm[::-1])[::-1], [0.0]])[k]
    return -scale * (b * il + a * ir), -scale * (db * il + da * ir)


def _convolve(dim: int, nodes: np.ndarray, delta: RegularizedDelta, k0: float):
    """Values and derivatives of the convolution at the ascending nodes, as a function
    of the Gauss order.

    G(x, y) = -scale a(min(x, y)) b(max(x, y)). In 1D, a(t) = sin(k0 (1 + t) / 2),
    b(t) = sin(k0 (1 - t) / 2) and scale = 1 / (k0 sin k0); in 2D, a and b are the ring
    factors with the measure 2 pi s ds and scale = 1/4. The panels are the kernel's
    breakpoint intervals (mirrored in 1D) cut at every node strictly inside the
    support, so no panel holds a node in its interior, where G has its kink; one Gauss
    rule over all of them gives the moments that `_separable_convolution` sums. The
    panels, each node's panel and the node factors are built once for every order.
    """
    pos = np.asarray(delta.breakpoints_physical())  # holds 0
    inside = nodes[np.abs(nodes) < delta.support_radius]
    edges = np.unique(np.concatenate([-pos, pos, inside] if dim == 1 else [pos, inside]))
    k = np.maximum(np.searchsorted(edges, nodes, "right") - 1, 0)
    key, factors = edges.tobytes(), _greens_factors(dim, k0, 0, nodes.tobytes())[:4]
    profile = delta.eval if dim == 1 else delta.eval_radial
    scale = 1.0 / (k0 * math.sin(k0)) if dim == 1 else 0.25

    def convolve(order):
        y, weights = _greens_factors(dim, k0, order, key)
        am, bm = np.einsum("kij,ij->ki", weights, profile(y))
        return _separable_convolution(k, am, bm, factors, scale)

    return convolve


def _node_solve(dim: int, nodes: np.ndarray, delta: RegularizedDelta,
                k0: float) -> SolutionProfile:
    """The profile of `_convolve` at the nodes, accepted by Gauss-order doubling.

    Passes run at 8, 16 and, if needed, 32 Gauss points per panel; the 16 or 32 pass
    is accepted once it differs from the pass before by <= 1e-10 of its own maximum.
    The profile takes that pass's values and derivatives, its order as `order` and
    that last change as `doubling_delta`, and must vanish on the boundary.
    """
    convolve = _convolve(dim, nodes, delta, k0)
    coarse, _ = convolve(8)
    for order in (16, 32):
        vals, derivs = convolve(order)
        diff = float(np.max(np.abs(vals - coarse)))
        if diff <= 1e-10 * max(float(np.max(np.abs(vals))), 1e-300):
            profile = SolutionProfile(nodes=nodes, values=vals, derivs=derivs, dim=dim,
                                      order=order, doubling_delta=diff)
            profile.check_boundary()
            return profile
        coarse = vals
    raise QuadratureError(f"{dim}D convolution quadrature failed the order-doubling check")


def solve_regularized_1d(problem: Helmholtz1D, nodes: np.ndarray) -> SolutionProfile:
    """Regularized point-source solve by Green's-function convolution at the ascending
    nodes in [-1, 1]; `_node_solve` with the sines of greens_function_1d."""
    return _node_solve(1, _point_args_1d(nodes, problem.k0), problem.kernel, problem.k0)


def solve_regularized_2d_radial(problem: RadialHelmholtz2D,
                                nodes: np.ndarray) -> SolutionProfile:
    """Regularized radial point-source solve by separable ring-kernel convolution.

    The angular mean of the unit disk's Dirichlet Green's function is
    G(r, s) = -a(min(r, s)) b(max(r, s)) / 4, a = J0(k0 .) and
    b = Y0(k0 .) - (Y0(k0) / J0(k0)) J0(k0 .) (Graf's addition theorem, DLMF 10.23.8;
    Watson, Treatise on Bessel Functions, 11.3), so u_H and u_H' are 1D integrals;
    the source sign makes exact_point_solution_2d_radial the small-support limit.
    The profile is one `_node_solve` at the ascending radii `nodes` in (0, 1], which
    leave out r = 0, where b and the point solution u_H is compared against are singular."""
    return _node_solve(2, _radial_point_args(nodes, problem.k0)[0], problem.kernel, problem.k0)


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def exterior_nodes(dim: int, k0: float, cutoff: float) -> np.ndarray:
    """Ascending nodes of the closed exterior cutoff <= |x| <= 1, mirrored in 1D: a grid
    of spacing at most 1 / (4 k0) and the stationary points of the outer Green's factor
    b, at which u - u_H, a multiple of b beyond the kernel's support, peaks. They are
    1 - (2n + 1) pi / k0 in 1D and in 2D the zeros of b', by Newton steps with
    b'' = -b' / r - k0^2 b from each grid cell where b' changes sign."""
    if not k0 > 0.0:
        raise ValueError("k0 must be positive")
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie in (0, 1)")
    grid = np.linspace(cutoff, 1.0, math.ceil(4.0 * k0 * (1.0 - cutoff)) + 1)
    if dim == 1:
        odd = np.arange(1, math.floor(k0 * (1.0 - cutoff) / math.pi) + 1, 2)
        nodes = np.union1d(grid, 1.0 - odd * math.pi / k0)
        return np.concatenate([-nodes[::-1], nodes])
    d = _ring_factors(_radial_point_args(grid, k0)[0], k0)[3]
    r = 0.5 * (grid[:-1] + grid[1:])[d[:-1] * d[1:] < 0.0]
    for _ in range(6):  # quadratic convergence from at most 1/8 radian off
        _, b, _, d = _ring_factors(r, k0)
        r = r - d / (-d / r - k0 * k0 * b)
    return np.union1d(grid, r)


def pointwise_error(u_exact: SolutionProfile, u_reg: SolutionProfile, cutoff: float) -> float:
    """Sup of |e| = |u - u_H| over the closed exterior cutoff <= |x| <= 1: the largest |e|
    at the profiles' nodes there, if e' vanishes there to 1e-6 of max |e'| or it is at
    |x| = cutoff and does not rise into the exterior (e vanishes at |x| = 1). Otherwise
    the nodes missed the sup, and QuadratureError is raised."""
    if not np.array_equal(u_exact.nodes, u_reg.nodes):
        raise ValueError("profiles must share a common evaluation grid")
    outside = np.abs(u_exact.nodes) >= cutoff
    if not np.any(outside):
        raise ValueError("empty exterior region")
    x, e, de = (v[outside] for v in (u_exact.nodes, u_exact.values - u_reg.values,
                                     u_exact.derivs - u_reg.derivs))
    j = int(np.argmax(np.abs(e)))
    # near a peak of width 1 / kappa, |e''| ~ kappa^2 E and max |e'| ~ kappa E, so a
    # node with |e'| <= 1e-6 max |e'| is short of the peak by about 5e-13 E
    tol, rise = 1e-6 * float(np.max(np.abs(de))), np.sign(e[j] * x[j]) * de[j]  # d|e|/d|x|
    if abs(de[j]) > tol and not (abs(x[j]) == cutoff and rise <= tol):
        raise QuadratureError(f"the largest |u - u_H| outside the cutoff, at |x| = "
                              f"{abs(x[j]):.6g}, is not stationary: the nodes miss the sup")
    return float(abs(e[j]))


# the norm's panels: Gauss rules of this order and twice it, geometric levels graded
# toward r = 0 below the support edge, and the widest panel toward r = 1
_SOBOLEV_ORDER = 10
_SOBOLEV_LEVELS = 24
_SOBOLEV_WIDTH = 0.125


def _sobolev_edges(delta: RegularizedDelta) -> np.ndarray:
    """Panel edges on [r0, 1], r0 = R 2^-levels for the support radius R: the edges
    R 2^j below 1, the kernel breakpoints and the multiples of the widest panel."""
    R = delta.support_radius
    geometric = R * 2.0 ** np.arange(-_SOBOLEV_LEVELS, math.ceil(-math.log2(R)))
    uniform = np.arange(1, round(1.0 / _SOBOLEV_WIDTH) + 1) * _SOBOLEV_WIDTH
    edges = np.unique(np.concatenate([geometric, uniform, delta.breakpoints_physical()]))
    return edges[(edges >= geometric[0]) & (edges <= 1.0)]


def weighted_sobolev_error(problem: RadialHelmholtz2D,
                           wspecs: Sequence[WeightedNormSpec]) -> list[float]:
    """Weighted H1-seminorm errors (integral of |grad(u - u_H)|^2 |x|^(2 alpha))^(1/2)
    of the radial solve on the unit disk, one for each WeightedNormSpec in `wspecs`.

    The radial form is 2 pi * integral of (u' - u_H')^2 r^(2 alpha + 1) dr over (0, 1].
    On [r0, 1] it takes Gauss rules of q and 2q points on the panels of
    `_sobolev_edges`, with u_H' at both rules' radii from one node solve and u' in
    closed form from its `_greens_factors` entry. On (0, r0) it takes
    u' - u_H' = -1/(2 pi r), whose next term is O(r log r), in closed form:
    r0^(2 alpha) / (4 pi alpha). The 2q values are returned once they agree with the
    q values to 1e-10 relative; otherwise QuadratureError is raised.
    """
    edges = _sobolev_edges(problem.kernel)
    rules = [_panels(edges, gauss_legendre(q)) for q in (_SOBOLEV_ORDER, 2 * _SOBOLEV_ORDER)]
    radii, where = np.unique(np.concatenate([r.ravel() for r, _ in rules]),
                             return_inverse=True)
    u_reg = solve_regularized_2d_radial(problem, nodes=radii)
    diff = _greens_factors(2, problem.k0, 0, radii.tobytes())[4] - u_reg.derivs
    # each rule's radii, weights and (u' - u_H')^2, in the rule's order
    samples = [(r.ravel(), w.ravel(), diff[i] ** 2)
               for (r, w), i in zip(rules, np.split(where, [rules[0][0].size]))]
    out = []
    for wspec in wspecs:
        ta = 2.0 * wspec.alpha
        coarse, fine = (math.sqrt(edges[0] ** ta / (4.0 * math.pi * wspec.alpha)
                                  + 2.0 * math.pi * float(np.sum(w * d2 * r ** (ta + 1))))
                        for r, w, d2 in samples)
        if abs(fine - coarse) > 1e-10 * fine:
            raise QuadratureError("weighted-Sobolev norm failed the order-doubling check")
        out.append(fine)
    return out
