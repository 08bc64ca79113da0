"""Gauss-Legendre rules, composite panel integration, and weak-star error measurement."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussRule",
    "gauss_legendre",
    "integrate_panels",
    "weak_star_error",
    "convergence_slope",
    "SlopeFit",
    "QuadratureError",
]


class QuadratureError(RuntimeError):
    pass


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre nodes/weights on (-1, 1); exact for degree <= 2*order - 1."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to [a, b]."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return mid + half * self.nodes, half * self.weights


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> GaussRule:
    """The `order`-point Gauss-Legendre rule, from `numpy.polynomial.legendre.leggauss`.

    Nodes ascend; both arrays are read-only because the rule is cached and shared.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GaussRule(nodes=nodes, weights=weights, order=order)


def integrate_panels(f, edges, rule: GaussRule) -> float:
    """Composite Gauss integration with explicit panel edges (ascending).

    `f` is called once, on every panel's nodes; panels of zero width are skipped.
    The panel sums are added in order, as a per-panel loop would add them.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    x, w = rule.mapped(lo[keep, None], hi[keep, None])
    fx = np.reshape(f(x.ravel()), x.shape)
    total = 0.0
    for wi, fi in zip(w, fx):
        total += float(np.dot(wi, fi))
    return total


def _default_test_function(dim: int):
    # squared exponential, value 1 at the origin
    if dim == 1:
        return lambda x: np.exp(-(x**2))
    return lambda x, y: np.exp(-(x**2) - (y**2))


def _weak_star_once(delta, phi, order: int) -> float:
    """One evaluation of the integral of delta_H against phi at Gauss order `order`.

    Radial kernels use a polar product rule: Gauss in rho on the breakpoint
    panels, weighted by nu(n) rho^(n-1), times the mean of phi over the unit
    directions, {+1, -1} in 1D and `order` equispaced angles in 2D (the periodic
    trapezoid rule).  The tensor square uses the same Gauss panels on both axes.
    """
    rule = gauss_legendre(order)
    prof, h = delta.profile, delta.half_width
    if delta.is_radial:
        # angles 0 and pi give the 1D directions +1 and -1
        n_dir, nu = (2, 2.0) if delta.dim == 1 else (order, 2.0 * np.pi)
        theta = 2.0 * np.pi * np.arange(n_dir) / n_dir
        dirs = (np.cos(theta), np.sin(theta))[: delta.dim]
        mean_w = np.full(n_dir, 1.0 / n_dir)

        def integrand(rho):
            r = h * rho[:, None]
            vals = phi(*(r * d for d in dirs))
            mean_phi = vals @ mean_w if np.ndim(vals) else vals  # a constant phi may be scalar
            return prof.eval(rho) * rho ** (delta.dim - 1) * mean_phi

        return nu * integrate_panels(integrand, prof.breakpoints, rule)
    # the square: the same panels on both axes, summed one panel pair at a time
    bps = prof.breakpoints
    edges = [-b for b in bps[::-1]] + list(bps[1:])
    total = 0.0
    for xlo, xhi in zip(edges[:-1], edges[1:]):
        xn, xw = rule.mapped(xlo, xhi)
        fx = prof.eval(np.abs(xn))
        for ylo, yhi in zip(edges[:-1], edges[1:]):
            yn, yw = rule.mapped(ylo, yhi)
            fy = prof.eval(np.abs(yn))
            vals = phi(h * xn[:, None], h * yn[None, :])
            total += float(xw @ (vals * fx[:, None] * fy[None, :]) @ yw)
    return total


def weak_star_error(delta, phi=None, order: int = 24) -> float:
    """|integral of delta_H against the test function - value at 0|.

    Integration runs in the rescaled variable over the kernel support, with
    panel edges on every kernel breakpoint; radial kernels integrate phi over
    the directions of every radius, so phi need not be radial.  The result is
    accepted only once doubling the Gauss order (radial nodes and, in 2D,
    angles alike) moves it by <= 1e-12.
    """
    if phi is None:
        phi = _default_test_function(delta.dim)
        phi0 = 1.0
    else:
        phi0 = float(phi(0.0) if delta.dim == 1 else phi(0.0, 0.0))
    val = _weak_star_once(delta, phi, order)
    for _ in range(3):
        val2 = _weak_star_once(delta, phi, 2 * order)
        if abs(val2 - val) <= 1e-12:
            return abs(val2 - phi0)
        order, val = 2 * order, val2
    raise QuadratureError("weak-star quadrature failed to converge under order doubling")


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log E vs log H plus pairwise halving ratios."""

    slope: float
    ratios: np.ndarray


def convergence_slope(Hs, Es) -> SlopeFit:
    """Fit log E = slope * log H + c and report successive log2 error ratios.

    Entries with E <= 0 sit below the quadrature floor; they are excluded from
    the fit with a warning and produce NaN ratios.
    """
    Hs = np.asarray(Hs, dtype=float)
    Es = np.asarray(Es, dtype=float)
    if Hs.shape != Es.shape or Hs.size < 2:
        raise ValueError("need equal-length H and E vectors with at least 2 entries")
    if np.any(Hs <= 0):
        raise ValueError("H values must be positive")
    good = Es > 0
    if not np.all(good):
        warnings.warn("error entries below quadrature floor excluded from slope fit")
    if np.count_nonzero(good) < 2:
        raise ValueError("fewer than 2 positive error entries")
    slope = float(np.polyfit(np.log(Hs[good]), np.log(Es[good]), 1)[0])
    ratios = np.full(Hs.size - 1, np.nan)
    for i in range(Hs.size - 1):
        if good[i] and good[i + 1]:
            ratios[i] = math.log(Es[i] / Es[i + 1]) / math.log(Hs[i] / Hs[i + 1])
    return SlopeFit(slope=slope, ratios=ratios)
