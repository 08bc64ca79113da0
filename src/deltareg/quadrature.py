"""Gauss-Legendre rules, composite panel integration, and weak-star error measurement."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussRule",
    "gauss_legendre",
    "integrate_1d",
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


def integrate_1d(f, a: float, b: float, rule: GaussRule, panels: int = 1) -> float:
    """Composite Gauss integration of a vectorized callable over `panels` equal subintervals."""
    if not a < b:
        raise ValueError("require a < b")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    edges = np.linspace(a, b, panels + 1)
    return integrate_panels(f, edges, rule)


def integrate_panels(f, edges, rule: GaussRule) -> float:
    """Composite Gauss integration with explicit panel edges (ascending)."""
    edges = np.asarray(edges, dtype=float)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        x, w = rule.mapped(lo, hi)
        total += float(np.dot(w, f(x)))
    return total


def _default_test_function(dim: int):
    # squared exponential, value 1 at the origin
    if dim == 1:
        return lambda x: np.exp(-(x**2))
    return lambda x, y: np.exp(-(x**2) - (y**2))


def _scaled_panel_edges(delta, factor: float = 2.0) -> np.ndarray:
    """Panel edges in the rescaled radial variable covering `factor` times the support."""
    bps = [b for b in delta.profile_breakpoints() if b > 0.0]
    s = delta.scaled_support
    edges = sorted(set([0.0] + bps + [s, factor * s]))
    return np.asarray(edges)


def _weak_star_once(delta, phi, order: int) -> float:
    rule = gauss_legendre(order)
    if delta.dim == 1:
        edges = _scaled_panel_edges(delta)
        h = delta.half_width
        prof = delta.axis_profile(0)

        def integrand(y):
            return prof.eval(y) / 1.0 * phi(h * y)

        a = integrate_panels(integrand, edges, rule)
        b = integrate_panels(integrand, -edges[::-1], rule)
        return a + b
    if delta.is_radial:
        edges = _scaled_panel_edges(delta)
        h = delta.half_width
        prof = delta.radial_profile
        phi_r = phi  # radial test function of r

        def integrand(rho):
            return prof.eval(rho) * phi_r(h * rho, 0.0 * rho) * rho

        return 2.0 * np.pi * integrate_panels(integrand, edges, rule)
    # tensor-product geometry: Gauss panels over the scaled support box, per axis
    profs = [delta.axis_profile(i) for i in range(delta.dim)]
    hws = delta.axis_half_widths
    exts = []
    for i, prof in enumerate(profs):
        bps = [b for b in prof.breakpoints if b > 0]
        s = prof.support
        e = sorted(set([0.0] + bps + [s]))
        edges = np.asarray([-v for v in e[::-1]] + e[1:])
        exts.append(edges)
    total = 0.0
    x_edges, y_edges = exts
    for xlo, xhi in zip(x_edges[:-1], x_edges[1:]):
        xn, xw = rule.mapped(xlo, xhi)
        fx = profs[0].eval(np.abs(xn))
        for ylo, yhi in zip(y_edges[:-1], y_edges[1:]):
            yn, yw = rule.mapped(ylo, yhi)
            fy = profs[1].eval(np.abs(yn))
            vals = phi(hws[0] * xn[:, None], hws[1] * yn[None, :])
            total += float(xw @ (vals * fx[:, None] * fy[None, :]) @ yw)
    return total


def weak_star_error(delta, phi=None, box_halfwidth: float = 2.0, order: int = 24) -> float:
    """|integral of delta_H against the test function - value at 0|.

    Integration runs in the rescaled variable over twice the kernel support
    with panel edges on every kernel breakpoint.  The result is accepted only
    once doubling the Gauss order moves it by <= 1e-12.
    """
    if delta.normalization_name != "surface_measure":
        raise ValueError("weak-star experiments require SurfaceMeasure normalization")
    if delta.support_radius > box_halfwidth:
        raise ValueError(
            f"kernel support {delta.support_radius:g} exceeds integration box {box_halfwidth:g}"
        )
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
    used: np.ndarray = field(default=None)


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
    return SlopeFit(slope=slope, ratios=ratios, used=good)
