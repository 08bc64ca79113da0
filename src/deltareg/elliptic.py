"""Helmholtz point-source benchmarks: exact solutions, near-exact regularized solves,
deleted-neighborhood sup error, and weighted-Sobolev error.

The solves convolve the Green's function in separable form, exact to quadrature at any
nodes; the radial 2D solve on a mesh (the pointwise error's grid) is the node solve at
the mesh radii. The weighted-Sobolev norm solves at its own Gauss radii and interpolates
no profile. The Green's-function factors depend on the geometry alone, never on the
kernel: the solves memoize them by (k0, nodes) and (k0, Gauss order, panel edges), so
doubling passes and kernels on one geometry share them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bessel
from .kernels import RegularizedDelta
from .quadrature import QuadratureError, gauss_legendre

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
    n_cells: int = 20480  # cells of the mesh solve, which returns r = h .. 1, h = 1 / n_cells

    def __post_init__(self):
        if abs(bessel.j0(self.k0)) < 1e-8:
            raise ResonanceError(f"J0(k0) = {bessel.j0(self.k0):.3e}; Dirichlet resonance")
        if self.kernel.dim != 2 or not self.kernel.is_radial:
            raise ValueError("RadialHelmholtz2D needs a radial 2D kernel")
        if self.kernel.support_radius >= 1.0:
            raise ValueError("kernel support must lie inside the unit disk")
        # the solve is exact to quadrature on any mesh, but the mesh is also the grid
        # on which the pointwise table takes the sup of |u - u_H|; near a maximum that
        # grid sup is short of the true sup by up to (k0 h)^2 / 8 relative, 3e-8 at
        # 2e4 cells and k0 = 10. The weighted-Sobolev norm does not use the mesh.
        if self.n_cells < 2 * 10**4:
            raise ValueError("radial mesh needs at least 2e4 cells")


@dataclass(frozen=True)
class WeightedNormSpec:
    """Gradient norm weight |x|^(2 alpha) on the disk; alpha admissible in (0, 1)."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1) for the disk")


# ---------------------------------------------------------------------------
# 1D: closed-form point solution and Green's-function convolution solve
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


def _convolve_greens(xs: np.ndarray, delta: RegularizedDelta, k0: float):
    """Green's function and its x-derivative convolved with delta at every node of xs,
    as a function of the Gauss order.

    G(x, y) = -a(min(x, y)) b(max(x, y)) / D, a(t) = sin(k0 (1 + t) / 2),
    b(t) = sin(k0 (1 - t) / 2), D = k0 sin k0. The panels are the kernel's breakpoint
    intervals cut at every node strictly inside the support, so no panel holds a node
    in its interior, where G has its kink; one Gauss rule over all of them gives the
    moments that `_separable_convolution` sums. The panels, each node's panel and the
    node factors are built once for every order.
    """
    pos = np.asarray(delta.breakpoints_physical())  # holds 0
    edges = np.unique(np.concatenate([-pos, pos, xs[np.abs(xs) < delta.support_radius]]))
    k = np.maximum(np.searchsorted(edges, xs, "right") - 1, 0)
    key, nodes = edges.tobytes(), _greens_factors(1, k0, 0, xs.tobytes())

    def convolve(order):
        y, w, sines = _greens_factors(1, k0, order, key)
        am, bm = np.sum(w * delta.eval(y) * sines, axis=2)
        return _separable_convolution(k, am, bm, nodes, 1.0 / (k0 * math.sin(k0)))

    return convolve


def _accept_by_doubling(convolve, dim: int):
    """Values and derivatives from `convolve(order)`, accepted by Gauss-order doubling.

    Passes run at 8, 16 and, if needed, 32 Gauss points per panel; the 16 or 32 pass
    is accepted once it differs from the pass before by <= 1e-10 of its own maximum,
    and values and derivatives come from it. Returns them with the metadata `order`
    and `doubling_delta`: the accepted order and that last change.
    """
    coarse, _ = convolve(8)
    for order in (16, 32):
        vals, derivs = convolve(order)
        diff = float(np.max(np.abs(vals - coarse)))
        if diff <= 1e-10 * max(float(np.max(np.abs(vals))), 1e-300):
            return vals, derivs, dict(order=order, doubling_delta=diff)
        coarse = vals
    raise QuadratureError(f"{dim}D convolution quadrature failed the order-doubling check")


def solve_regularized_1d(problem: Helmholtz1D,
                         nodes: np.ndarray | None = None) -> SolutionProfile:
    """Regularized point-source solve by Green's-function convolution on nodes in [-1, 1].

    `_convolve_greens` gives each pass's values and derivatives; `_accept_by_doubling`
    runs the passes from 8 Gauss points per panel up and records `order` and
    `doubling_delta`. The sines and cosines at the nodes and at each pass's Gauss
    points come from `_greens_factors`, shared by every solve on the same geometry.
    """
    if nodes is None:
        nodes = np.linspace(-1.0, 1.0, 4001)
    k0 = problem.k0
    xs = _point_args_1d(nodes, k0)
    vals, derivs, check = _accept_by_doubling(_convolve_greens(xs, problem.kernel, k0),
                                              dim=1)
    profile = SolutionProfile(
        nodes=xs, values=vals, derivs=derivs,
        metadata=dict(dim=1, k0=k0, H=problem.kernel.half_width,
                      kernel=problem.kernel.name, **check),
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
# 2D radial: Bessel closed form and separable ring-kernel convolution
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
        metadata=dict(dim=2, k0=k0, H=0.0, kernel="point_source"),
    )


def radial_grid(n_cells: int) -> np.ndarray:
    """Nodes r_j = j h, h = 1 / n_cells, of the radial mesh on [0, 1]; the 2D solve
    returns its profile on r_1 .. r_n."""
    return np.arange(n_cells + 1) * (1.0 / n_cells)


def _ring_factors(r, k0: float):
    """a = J0(k0 r) and b = Y0(k0 r) - (Y0(k0) / J0(k0)) J0(k0 r), so that b(1) = 0."""
    a = bessel.j0(k0 * r)
    return a, bessel.y0(k0 * r) - (bessel.y0(k0) / bessel.j0(k0)) * a


@lru_cache(maxsize=64)
def _greens_factors(dim: int, k0: float, order: int, points: bytes) -> tuple:
    """Read-only Green's-function factors of the dim-D node solve, memoized by value.

    With order 0, a, b, a' and b' at the nodes `points` (bytes), in 2D with b(1) = 0
    set exactly and also the point solution's u'. Otherwise that order's Gauss points y
    on the panels with edges `points` and the table there: the weights w and
    sin(k0 (1 +- y) / 2) in 1D, a and b times 2 pi y w in 2D. A pass of the helm2d
    and helm2d-sobolev tables fills 32 entries (11 mesh, 21 Sobolev) and helm1d 17,
    so 64 keep a repeated pass from cycling the memo.
    """
    x, half = np.frombuffer(points), 0.5 * k0
    if order:
        y, w = gauss_legendre(order).mapped(x[:-1, None], x[1:, None])
        factors = ([y, 2.0 * np.pi * y * w * np.stack(_ring_factors(y, k0))] if dim == 2 else
                   [y, w, np.sin([half * (1.0 + y), half * (1.0 - y)])])
    elif dim == 1:
        factors = [np.sin(half * (1.0 + x)), np.sin(half * (1.0 - x)),
                   half * np.cos(half * (1.0 + x)), -half * np.cos(half * (1.0 - x))]
    else:
        (a, b), j1 = _ring_factors(x, k0), bessel.j1(k0 * x)
        b[x == 1.0] = 0.0
        factors = [a, b, -k0 * j1, k0 * (bessel.y0(k0) / bessel.j0(k0) * j1 - bessel.y1(k0 * x)),
                   exact_point_solution_2d_radial_deriv(x, k0)]
    for f in factors:
        f.setflags(write=False)
    return tuple(factors)


def _convolve_radial(rs: np.ndarray, delta: RegularizedDelta, k0: float):
    """Values and r-derivatives of the convolution at the ascending radii rs, as a
    function of the Gauss order.

    G(r, s) = -a(min(r, s)) b(max(r, s)) / 4 with the measure 2 pi s ds. The panels are
    the kernel's breakpoint intervals cut at every radius strictly inside the support,
    as in `_convolve_greens`, so no panel holds a node in its interior and
    `_separable_convolution` sums one Gauss rule's moments for all nodes. The panels,
    each node's panel and the node factors are built once for every order.
    """
    pos = np.asarray(delta.breakpoints_physical())  # holds 0
    edges = np.unique(np.concatenate([pos, rs[rs < delta.support_radius]]))
    k = np.searchsorted(edges, rs, "right") - 1
    key, nodes = edges.tobytes(), _greens_factors(2, k0, 0, rs.tobytes())[:4]

    def convolve(order):
        s, weights = _greens_factors(2, k0, order, key)
        am, bm = np.einsum("kij,ij->ki", weights, delta.eval_radial(s))
        return _separable_convolution(k, am, bm, nodes, 0.25)

    return convolve


def solve_regularized_2d_radial(problem: RadialHelmholtz2D,
                                nodes: np.ndarray | None = None) -> SolutionProfile:
    """Regularized radial point-source solve by separable ring-kernel convolution.

    The angular mean of the unit disk's Dirichlet Green's function is
    G(r, s) = -a(min(r, s)) b(max(r, s)) / 4, a = J0(k0 .) and
    b = Y0(k0 .) - (Y0(k0) / J0(k0)) J0(k0 .) (Graf's addition theorem, DLMF 10.23.8;
    Watson, Treatise on Bessel Functions, 11.3), so u_H and u_H' are 1D integrals;
    the source sign makes exact_point_solution_2d_radial the small-support limit.
    Without `nodes` the profile is on the mesh nodes r = h .. 1, h = 1 / n_cells; with
    them, on those ascending radii in (0, 1]. Both are one node solve,
    `_convolve_radial` with Bessel factors memoized by value in `_greens_factors`, and
    leave out r = 0, where b and the point solution that u_H is compared against are
    singular. `_accept_by_doubling` runs the passes from 8 Gauss points per panel up.
    """
    k0, delta = problem.k0, problem.kernel
    if nodes is None:
        nodes, grid = radial_grid(problem.n_cells)[1:], dict(n_cells=problem.n_cells)
    else:
        nodes, grid = _radial_point_args(nodes, k0)[0], {}
    vals, derivs, check = _accept_by_doubling(_convolve_radial(nodes, delta, k0), dim=2)
    profile = SolutionProfile(
        nodes=nodes, values=vals, derivs=derivs,
        metadata=dict(dim=2, k0=k0, H=delta.half_width, kernel=delta.name,
                      **grid, **check),
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


# the fewest grid points outside the cutoff that a sup error is taken over
_MIN_POINTS = 2000


def pointwise_error(u_exact: SolutionProfile, u_reg: SolutionProfile, cutoff: float) -> float:
    """Sup of |u - u_H| over grid points with |x| > cutoff (sharp exclusion)."""
    _common_mask(u_exact, u_reg)
    outside = np.abs(u_exact.nodes) > cutoff
    n_out = int(np.count_nonzero(outside))
    if n_out == 0:
        raise ValueError("empty exterior region")
    if n_out < _MIN_POINTS:
        raise ValueError(f"only {n_out} grid points outside the cutoff; need {_MIN_POINTS}")
    return float(np.max(np.abs(u_exact.values[outside] - u_reg.values[outside])))


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
    rules = [gauss_legendre(order).mapped(edges[:-1, None], edges[1:, None])
             for order in (_SOBOLEV_ORDER, 2 * _SOBOLEV_ORDER)]
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
