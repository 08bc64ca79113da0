"""Scaled radial profiles on [0, S]: piecewise polynomials and cosine series."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .quadrature import gauss_legendre, integrate_panels

__all__ = ["PolyPiece", "RadialProfile", "poly_profile", "cosine_profile"]


@dataclass(frozen=True)
class PolyPiece:
    lo: float
    hi: float
    coeffs: tuple  # monomial coefficients in r, ascending


@dataclass(frozen=True)
class RadialProfile:
    """Radial kernel profile eta(r) on [0, support], zero beyond.

    Either a list of monomial-polynomial pieces or a single cosine series
    sum_k c_k cos(k pi r / support) over the whole support.  Polynomial pieces
    are integrated exactly, every power in one Horner pass (`moment`).
    `_weak_star` holds its `quadrature._weak_star_table`s: weakstar-1d and -2d fill 24 in 12.
    """

    pieces: tuple = ()
    cos_coeffs: tuple = ()
    support: float = 1.0
    _weak_star: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if bool(self.pieces) == bool(self.cos_coeffs):
            raise ValueError("profile needs either polynomial pieces or cosine coefficients")
        edges = self.breakpoints  # `eval` relies on pieces that tile [0, last hi] in order
        if self.pieces and (edges[-1] > self.support or not all(
                p.lo == lo < p.hi for p, lo in zip(self.pieces, edges))):
            raise ValueError(f"pieces must tile [0, hi <= support {self.support}] in "
                             f"ascending order, not {[(p.lo, p.hi) for p in self.pieces]}")

    @property
    def is_polynomial(self) -> bool:
        return bool(self.pieces)

    @property
    def breakpoints(self) -> tuple:
        """Piece edges in [0, support], including 0 and the support radius."""
        return (0.0, *(p.hi for p in self.pieces)) if self.pieces else (0.0, self.support)

    def eval(self, r):
        """Profile value at |r| (even in r), exactly 0 outside the support.

        Pieces run from the outermost in, each kept where |r| <= its hi, so a shared edge
        keeps the inner piece.  In-place Horner on min(|r|, support), finite at +-inf, has
        np.polyval's bits (its 0 * x + c is c) without its fresh arrays, which would give up
        half the gain (eval per 2D Helmholtz pass: 12.97 ms masked, 7.98 in place, 10.71 by
        polyval; 2-core x86-64).  A cosine series starts at its k = 0 term: cos(0) is 1.
        """
        scalar = np.isscalar(r) or np.ndim(r) == 0
        r = np.atleast_1d(np.abs(np.asarray(r, dtype=float)))
        inside = np.minimum(r, self.support)
        if self.is_polynomial:
            out = 0.0
            for piece in reversed(self.pieces):
                y = piece.coeffs[-1]
                for c in piece.coeffs[-2::-1]:
                    y *= inside  # the first product makes the array, the rest are in place
                    y += c
                out = np.where(r <= piece.hi, y, out)
        else:
            acc = self.cos_coeffs[0]
            for k, c in enumerate(self.cos_coeffs[1:], 1):
                acc += c * np.cos(k * np.pi * inside / self.support)
            out = np.where(r <= self.support, acc, 0.0)
        return float(out[0]) if scalar else out

    def moment(self, power):
        """integral over [0, support] of eta(r) * r^power dr: a float for an int power.

        Polynomial pieces: one Horner pass at each piece's lo and hi over every power's
        antiderivative c_j / (power + j + 1), with polyint + polyval's bits (a closed form
        is 2.8e-14 off).  Cosine: a 32-point rule, r**p per p (an array power moves x**2's).
        """
        scalar, powers = np.ndim(power) == 0, np.atleast_1d(power)
        if powers.min() < 0:
            raise ValueError(f"moment powers must be >= 0, not {powers.min()}")
        if not self.is_polynomial:
            out = integrate_panels(lambda r: self.eval(r) * np.array([r**p for p in powers]),
                                   self.breakpoints, gauss_legendre(32))
            return float(out[0]) if scalar else out
        n = max(len(p.coeffs) for p in self.pieces)
        anti = np.zeros((powers.max() + n + 1, len(self.pieces), powers.size))  # [deg, j, k]
        for j, piece in enumerate(self.pieces):  # zeros above a degree: 0 * x + 0 adds no bit
            deg = powers[:, None] + np.arange(1, len(piece.coeffs) + 1)
            anti[deg, j, np.arange(powers.size)[:, None]] = np.divide(piece.coeffs, deg)
        lo, hi = x = np.array([[p.lo for p in self.pieces], [p.hi for p in self.pieces]])[..., None]
        acc = 0.0
        for c in anti[:0:-1]:  # Horner from the top degree down to 1
            acc = c + acc * x
        out = reduce(np.add, acc[1] * hi - acc[0] * lo, 0.0)  # the pieces in order
        return float(out[0]) if scalar else out


def poly_profile(coeffs, support: float = 1.0) -> RadialProfile:
    """Single-piece polynomial profile on [0, support] from ascending monomial coefficients."""
    return RadialProfile(pieces=(PolyPiece(0.0, support, tuple(coeffs)),), support=support)


def cosine_profile(coeffs, support: float = 1.0) -> RadialProfile:
    """Cosine-series profile sum_k c_k cos(k pi r / support) on [0, support]."""
    return RadialProfile(cos_coeffs=tuple(coeffs), support=support)
