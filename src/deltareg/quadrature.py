"""Gauss-Legendre rules, composite panel integration, and weak-star error measurement."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "GaussRule",
    "gauss_legendre",
    "integrate_panels",
    "weak_star_error",
    "weak_star_errors",
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


def integrate_panels(f, edges, rule: GaussRule):
    """Composite Gauss integration with explicit panel edges (ascending).

    `f` is called once, on every panel's nodes (zero-width panels are skipped), and may
    stack integrands on leading axes for an array of integrals.  The panel sums are
    added in order, as a per-panel loop would add them.
    """
    x, w = _panels(edges, rule)
    fx = f(x.ravel())
    total = _panel_sum(w, np.reshape(fx, np.shape(fx)[:-1] + x.shape))
    return float(total) if np.ndim(total) == 0 else total


def _panels(edges, rule: GaussRule) -> tuple[np.ndarray, np.ndarray]:
    edges = np.asarray(edges, dtype=float)
    keep = edges[1:] > edges[:-1]
    return rule.mapped(edges[:-1][keep, None], edges[1:][keep, None])


# sum_p w_p . f_p in panel order, per stack index of fx; each dot a (1 x q) @ (q x 1)
# matmul, which numpy sends to np.dot's kernel (a batched gemv moves 12-digit cells)
def _panel_sum(w, fx):
    dots = (w[:, None, :] @ fx[..., None])[..., 0, 0]
    return reduce(np.add, (dots[..., p] for p in range(dots.shape[-1])), 0.0)


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


def _weak_star_sums(deltas, phi, order: int) -> np.ndarray:
    """The integral of each delta_H (one profile, dim and kind) against phi at order `order`.

    Radial kernels: Gauss in rho on the breakpoint panels, weighted by nu(n) rho^(n-1),
    times the mean of phi over {+1, -1} in 1D or `order` equispaced angles in 2D, phi
    taking (widths, rho, directions) arrays.  The tensor square takes that 1D rule on
    each axis, one grid per width: nodes h rho_i s (s = +-1, i-major) weighing
    wx_i = w_i eta(rho_i), so the integral is wx . (Phi wx).  The H-free rest is the
    profile's `_weak_star_table`.  A constant phi may return a scalar.
    """
    if deltas[0].is_radial:
        rho, w, eta, *dirs, mean_w = _weak_star_table(deltas[0].profile, deltas[0].dim, order)
        h = np.array([d.half_width for d in deltas])[:, None, None]
        mean_phi = np.empty((h.size, eta.size))
        # <= 4096 points a call (or one width): larger arrays page-fault on glibc's heap trim
        step = max(1, 4096 // (eta.size * mean_w.size))
        for i in range(0, h.size, step):
            vals = phi(*(h[i:i + step] * rho[:, None] * d for d in dirs))
            mean_phi[i:i + step] = vals @ mean_w if np.ndim(vals) else vals
        nu = 2.0 if deltas[0].dim == 1 else 2.0 * np.pi  # the measure of the unit sphere
        return nu * _panel_sum(w, np.reshape(eta * mean_phi, (h.size, *w.shape)))
    rho, w, eta, signs, _ = _weak_star_table(deltas[0].profile, 1, order)
    wx = np.repeat(w.ravel() * eta, signs.size)
    xs = ((d.half_width * rho[:, None] * signs).ravel() for d in deltas)
    grids = (phi(x[:, None], x[None, :]) for x in xs)  # one width's grid at a time
    return np.array([wx @ (g @ wx) if np.ndim(g) else float(g) * float(wx.sum()) ** 2
                     for g in grids])


def weak_star_errors(deltas, phi=None) -> list[float]:
    """|integral of delta_H against phi - phi(0)| for each of a sequence of deltas.

    The deltas differ only in H: one profile object, dimension and kind, else ValueError.
    phi defaults to exp(-|x|^2) and need not be radial.  Each H is accepted at its first
    Gauss-order doubling from 24 (radial nodes and, in 2D, angles alike) that moves it by
    <= 1e-12, and only the rest go on; one unsettled at 192 raises QuadratureError.
    """
    if len({(id(d.profile), d.dim, d.is_radial) for d in deltas}) != 1:
        raise ValueError("a weak-star sweep takes one kernel's widths: one profile, dim and kind")
    phi = _gaussian if phi is None else phi
    at_zero = float(phi(*(0.0,) * deltas[0].dim))
    errors, todo = np.empty(len(deltas)), np.arange(len(deltas))
    prev = _weak_star_sums(deltas, phi, _BASE_ORDER)
    for order in (2 * _BASE_ORDER, 4 * _BASE_ORDER, 8 * _BASE_ORDER):
        val = _weak_star_sums([deltas[i] for i in todo], phi, order)
        done = np.abs(val - prev) <= 1e-12
        errors[todo[done]] = np.abs(val[done] - at_zero)
        todo, prev = todo[~done], val[~done]
        if not todo.size:
            return errors.tolist()
    raise QuadratureError("weak-star quadrature failed to converge under order doubling")


def weak_star_error(delta, phi=None) -> float:
    """`weak_star_errors` of the one kernel delta_H: |<delta_H, phi> - phi(0)|."""
    return weak_star_errors([delta], phi)[0]


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
