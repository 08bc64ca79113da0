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
    x, w = _panels(edges, rule)
    return _panel_sum(w, np.reshape(f(x.ravel()), x.shape))


def _panels(edges, rule: GaussRule) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    return rule.mapped(edges[:-1][keep, None], edges[1:][keep, None])


def _panel_sum(w, fx) -> float:
    total = 0.0
    for wi, fi in zip(w, fx):
        total += float(np.dot(wi, fi))
    return total


def _gaussian(x, *rest):
    """The default test function exp(-|x|^2), in any dimension: exactly 1 at the origin."""
    return np.exp(-sum((c**2 for c in rest), x**2))


_BASE_ORDER = 24  # the Gauss order weak_star_error starts from before it doubles


def _weak_star_table(prof, dim: int, order: int) -> tuple:
    """The dim-D radial rule's read-only nodes, weights, eta (times rho^(n-1)) and
    directions: neither H nor phi, and the tensor square's axes read the 1D one."""
    table = prof._weak_star.get((dim, order))
    if table is None:
        x, w = _panels(prof.breakpoints, gauss_legendre(order))
        # angles 0 and pi give the 1D directions +1 and -1
        n_dir = 2 if dim == 1 else order
        theta = 2.0 * np.pi * np.arange(n_dir) / n_dir
        rho = x.ravel()
        table = (rho, w, prof.eval(rho) * rho ** (dim - 1),
                 *(np.cos(theta), np.sin(theta))[:dim], np.full(n_dir, 1.0 / n_dir))
        for a in table:
            a.setflags(write=False)
        prof._weak_star[(dim, order)] = table
    return table


def _weak_star_once(delta, phi, order: int) -> float:
    """One evaluation of the integral of delta_H against phi at Gauss order `order`.

    Radial kernels use a polar product rule: Gauss in rho on the breakpoint
    panels, weighted by nu(n) rho^(n-1), times the mean of phi over the unit
    directions, {+1, -1} in 1D and `order` equispaced angles in 2D (the periodic
    trapezoid rule).  The tensor square takes that 1D rule on each axis: nodes
    h rho_i s, s = +-1 in i-major order, each weighing w_i eta(rho_i), so the
    integral is wx . (Phi wx) with Phi_kl = phi(x_k, x_l).  A call evaluates only
    phi(h x); the rest is `_weak_star_table`, kept per (dim, order) in the
    profile's `_weak_star` for every H and later call, not in a process-wide
    cache: a profile from a list of pieces is unhashable.  A constant phi may
    return a scalar: the sum is then phi times the mass, (sum wx)^2 for the square.
    """
    h = delta.half_width
    if delta.is_radial:
        rho, w, eta, *dirs, mean_w = _weak_star_table(delta.profile, delta.dim, order)
        vals = phi(*(h * rho[:, None] * d for d in dirs))
        mean_phi = vals @ mean_w if np.ndim(vals) else vals
        nu = 2.0 if delta.dim == 1 else 2.0 * np.pi  # the measure of the unit sphere
        return nu * _panel_sum(w, np.reshape(eta * mean_phi, w.shape))
    rho, w, eta, signs, _ = _weak_star_table(delta.profile, 1, order)
    x = (h * rho[:, None] * signs).ravel()
    wx = np.repeat(w.ravel() * eta, signs.size)
    vals = phi(x[:, None], x[None, :])
    return float(wx @ (vals @ wx)) if np.ndim(vals) else float(vals) * float(wx.sum()) ** 2


def weak_star_error(delta, phi=None) -> float:
    """|integral of delta_H against the test function - value at 0|.

    The test function defaults to exp(-|x|^2).  Integration runs in the rescaled
    variable over the kernel support, with panel edges on every kernel
    breakpoint; radial kernels integrate phi over the directions of every
    radius, so phi need not be radial.  The result is accepted only once
    doubling the Gauss order from 24 (radial nodes and, in 2D, angles alike)
    moves it by <= 1e-12.  Each order's H-free table is built once per profile
    and dimension and shared by every H and by the tensor square's axes
    (`_weak_star_once`).
    """
    phi = _gaussian if phi is None else phi
    val = _weak_star_once(delta, phi, _BASE_ORDER)
    for order in (2 * _BASE_ORDER, 4 * _BASE_ORDER, 8 * _BASE_ORDER):
        val, prev = _weak_star_once(delta, phi, order), val
        if abs(val - prev) <= 1e-12:
            return abs(val - float(phi(*(0.0,) * delta.dim)))
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
