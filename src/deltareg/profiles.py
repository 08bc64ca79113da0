"""Scaled radial profiles on [0, S]: piecewise polynomials and cosine series."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyint, polyval

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
    are differentiated and integrated exactly by `numpy.polynomial.polynomial`
    (`deriv`, `moment`).
    """

    pieces: tuple = ()
    cos_coeffs: tuple = ()
    support: float = 1.0

    def __post_init__(self):
        if bool(self.pieces) == bool(self.cos_coeffs):
            raise ValueError("profile needs either polynomial pieces or cosine coefficients")

    @property
    def is_polynomial(self) -> bool:
        return bool(self.pieces)

    @property
    def breakpoints(self) -> tuple:
        """Piece edges in [0, support], including 0 and the support radius."""
        if self.is_polynomial:
            edges = [self.pieces[0].lo] + [p.hi for p in self.pieces]
            return tuple(edges)
        return (0.0, self.support)

    def _piece_masks(self, r: np.ndarray):
        # boundary points belong to the inner piece
        for piece in self.pieces:
            mask = (r >= piece.lo) & (r <= piece.hi)
            if piece.lo > 0.0:
                mask &= r > piece.lo
            yield piece, mask

    def eval(self, r):
        """Profile value at |r| (even in r), exactly 0 outside the support."""
        scalar = np.isscalar(r) or np.ndim(r) == 0
        r = np.atleast_1d(np.abs(np.asarray(r, dtype=float)))
        out = np.zeros_like(r)
        if self.is_polynomial:
            for piece, mask in self._piece_masks(r):
                out[mask] = np.polyval(piece.coeffs[::-1], r[mask])
        else:
            mask = r <= self.support
            rm = r[mask]
            acc = np.zeros_like(rm)
            for k, c in enumerate(self.cos_coeffs):
                acc += c * np.cos(k * np.pi * rm / self.support)
            out[mask] = acc
        return float(out[0]) if scalar else out

    def deriv(self, r, order: int = 1):
        """Derivative of the one-sided profile at r in [0, support]."""
        scalar = np.isscalar(r) or np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        if self.is_polynomial:
            for piece, mask in self._piece_masks(r):
                out[mask] = polyval(r[mask], polyder(piece.coeffs, order))
        else:
            mask = r <= self.support
            rm = r[mask]
            acc = np.zeros_like(rm)
            for k, c in enumerate(self.cos_coeffs):
                w = k * np.pi / self.support
                acc += c * w**order * np.cos(w * rm + order * np.pi / 2)
            out[mask] = acc
        return float(out[0]) if scalar else out

    def moment(self, power: int) -> float:
        """integral over [0, support] of eta(r) * r^power dr.

        Exact for polynomial pieces (polyint); a cosine series takes a 32-point
        Gauss rule.
        """
        if not self.is_polynomial:
            rule = gauss_legendre(32)
            return integrate_panels(lambda r: self.eval(r) * r**power, self.breakpoints, rule)
        total = 0.0
        for piece in self.pieces:
            antideriv = polyint(np.concatenate([np.zeros(power), piece.coeffs]), lbnd=piece.lo)
            total += float(polyval(piece.hi, antideriv))
        return total


def poly_profile(coeffs, support: float = 1.0) -> RadialProfile:
    """Single-piece polynomial profile on [0, support] from ascending monomial coefficients."""
    return RadialProfile(pieces=(PolyPiece(0.0, support, tuple(coeffs)),), support=support)


def cosine_profile(coeffs, support: float = 1.0) -> RadialProfile:
    """Cosine-series profile sum_k c_k cos(k pi r / support) on [0, support]."""
    return RadialProfile(cos_coeffs=tuple(coeffs), support=support)
