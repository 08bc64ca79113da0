"""Assembly and solution of the continuous finite moment problem on [0, 1].

A polynomial spec (`BasisKind.SHIFTED_LEGENDRE`: the polynomials of degree p)
is posed on the monomials r^j, with exact `fractions.Fraction` rows in closed
form.  A cosine spec (cos(k pi r)) takes its moment rows from a Gauss rule and
its derivative rows at r = 0 and r = 1 from `_basis_values`.  Both systems have
the right-hand side e_0 and go through one solver, `solve_dense`, with scaled
partial pivoting and a pivot check: an exact system is eliminated fraction-free
in integers and rounded to floats once, a float one in floats.  nu(n) divides
the solution once, in floats, so a 1D polynomial kernel's coefficients are its
printed ones bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .profiles import RadialProfile, cosine_profile, poly_profile
from .quadrature import gauss_legendre

__all__ = [
    "BasisKind",
    "Normalization",
    "BasisFamily",
    "MomentProblemSpec",
    "DenseLinearSystem",
    "EtaKernel",
    "MomentSystemError",
    "SingularSystemError",
    "assemble_moment_system",
    "solve_dense",
    "solve_moment_problem",
    "moment_residuals",
    "radial_moment_residuals",
    "weak_star_order",
]


class MomentSystemError(ValueError):
    """Ill-posed moment problem (wrong shape, bad constraints, invalid domain)."""


class SingularSystemError(RuntimeError):
    """Moment system is numerically singular; carries the offending row label."""


class BasisKind(Enum):
    # the polynomials of degree p, posed and solved exactly on the monomials r^j
    SHIFTED_LEGENDRE = "shifted_legendre"
    COSINE = "cosine"


class Normalization(Enum):
    # surface factor nu(n) multiplying the radial mass integral
    SURFACE_MEASURE = "surface_measure"
    PAPER_TABLE1_2D = "paper_table1_2d"

    def nu(self, dim: int) -> float:
        if dim == 1:
            return 2.0
        if dim == 2:
            return 2.0 * math.pi if self is Normalization.SURFACE_MEASURE else math.pi
        raise MomentSystemError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class BasisFamily:
    kind: BasisKind
    max_index: int

    def __post_init__(self):
        if self.max_index < 0:
            raise MomentSystemError("max_index must be nonnegative")

    @property
    def size(self) -> int:
        return self.max_index + 1


@dataclass(frozen=True)
class MomentProblemSpec:
    """Square moment problem: rows theta=0..m plus appended derivative constraints.

    boundary_smoothness s pins d^k eta/dr^k(1) = 0 for k < s; origin_smoothness
    pins d^k eta/dr^k(0) = 0 for 1 <= k < origin_smoothness.
    """

    dim: int
    moments: int
    degree: int
    basis: BasisFamily
    boundary_smoothness: int = 0
    origin_smoothness: int = 0
    normalization: Normalization = Normalization.SURFACE_MEASURE

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise MomentSystemError("dim must be 1 or 2")
        if self.moments < 0 or self.degree < 0:
            raise MomentSystemError("moments and degree must be nonnegative")
        if self.basis.max_index != self.degree:
            raise MomentSystemError("basis max_index must equal the polynomial/trig degree")
        if self.boundary_smoothness < 0 or self.origin_smoothness < 0:
            raise MomentSystemError("smoothness orders must be nonnegative")
        if self.basis.kind is BasisKind.COSINE:
            if self.origin_smoothness > 1:
                raise MomentSystemError(
                    "cosine basis has all odd derivatives zero at r=0 already; "
                    "origin constraints would produce zero rows"
                )
            if self.boundary_smoothness > 1:
                raise MomentSystemError(
                    "cosine basis has zero odd derivatives at r=1 already; only the "
                    "value constraint eta(1)=0 is admissible"
                )

    @property
    def constraint_rows(self) -> int:
        return self.boundary_smoothness + max(self.origin_smoothness - 1, 0)

    @property
    def n_rows(self) -> int:
        return self.moments + 1 + self.constraint_rows

    @property
    def n_unknowns(self) -> int:
        return self.degree + 1


@dataclass(frozen=True)
class DenseLinearSystem:
    matrix: np.ndarray  # floats, or `Fraction`s (an object array) for an exact system
    rhs: np.ndarray
    row_labels: tuple = field(default=())

    @property
    def condition_estimate(self) -> float:  # 1-norm: an explicit inverse, so only when read
        return float(np.linalg.cond(np.asarray(self.matrix, dtype=float), 1))


def _basis_values(basis: BasisFamily, r, order: int = 0) -> np.ndarray:
    """d^order psi_k/dr^order of the cosine basis psi_k(r) = cos(k pi r) at the points r:
    one row per point, one column per k."""
    w = np.arange(basis.size) * np.pi
    return w**order * np.cos(np.outer(np.atleast_1d(r), w) + order * np.pi / 2)


def assemble_moment_system(spec: MomentProblemSpec) -> DenseLinearSystem:
    """Build the square system: moment rows <r^(theta+n-1), psi_j>, then constraint rows;
    the right-hand side is e_0, and nu(n) divides the solution.

    On the monomials psi_j = r^j every row is exact, as `Fraction`s: moment rows
    1/(theta+n+j), boundary rows j!/(j-k)! (zero for j < k), origin rows k! [j = k].
    The cosine moment rows take a Gauss rule, far inside its superexponential
    regime, and `_basis_values` gives the cosine constraint rows.
    """
    if spec.n_rows != spec.n_unknowns:
        raise MomentSystemError(
            f"system is {spec.n_rows}x{spec.n_unknowns}, not square: "
            f"{spec.moments + 1} moment rows + {spec.constraint_rows} constraint rows "
            f"require degree {spec.moments + spec.constraint_rows}"
        )
    boundary, origin = range(spec.boundary_smoothness), range(1, spec.origin_smoothness)
    labels = ([f"moment theta={theta}" for theta in range(spec.moments + 1)]
              + [f"d^{k} eta/dr^{k}(1) = 0" for k in boundary]
              + [f"d^{k} eta/dr^{k}(0) = 0" for k in origin])
    if spec.basis.kind is BasisKind.COSINE:
        max_power = spec.moments + spec.dim - 1
        x, w = gauss_legendre(max((max_power + spec.degree) // 2 + 2, 24)).mapped(0.0, 1.0)
        powers = np.arange(spec.moments + 1)[:, None] + spec.dim - 1
        mat = np.vstack([(w * x**powers) @ _basis_values(spec.basis, x)]
                        + [_basis_values(spec.basis, 1.0, k) for k in boundary]
                        + [_basis_values(spec.basis, 0.0, k) for k in origin])
    else:
        from fractions import Fraction  # imported here: only polynomial solves pay for it

        js = range(spec.degree + 1)
        mat = np.array([[Fraction(1, theta + spec.dim + j) for j in js]
                        for theta in range(spec.moments + 1)]
                       + [[Fraction(math.perm(j, k)) for j in js] for k in boundary]
                       + [[Fraction(math.factorial(k) * (j == k)) for j in js] for k in origin],
                       dtype=object)
    rhs = np.zeros(spec.n_unknowns, dtype=int)
    rhs[0] = 1
    return DenseLinearSystem(matrix=mat, rhs=rhs, row_labels=tuple(labels))


def _ratio(num, den: int) -> float:
    # num / den correctly rounded, as float(Fraction(num, den)) is: a zero is +0.0
    return float(-num / -den if den < 0 else num / den)


def solve_dense(system: DenseLinearSystem) -> np.ndarray:
    """Gaussian elimination with scaled partial pivoting; fails loudly on a relative
    pivot below 1e-13, naming the constraint of the row the permutation put there.

    An exact system (ints and `Fraction`s) is eliminated fraction-free in integers:
    each row times the lcm of its denominators (its factor), each Bareiss update divided
    exactly by the previous pivot, back substitution on det * x, and only x = X / det
    rounded, correctly.  Any other system takes floats.  A candidate pivot, the
    Gaussian-elimination entry (in integers: Bareiss entry / (previous pivot * factor)),
    is taken in floats relative to its row's largest entry: the pivots of partial
    pivoting (getrf's first row of largest magnitude) on the equilibrated rows.  The
    systems are tiny, so Python lists beat numpy's per-call overhead.
    """
    n = len(system.rhs)
    if np.shape(system.matrix) != (n, n) or np.shape(system.rhs) != (n,):
        raise MomentSystemError("system must be square with matching rhs")
    labels = system.row_labels or tuple(f"row {i}" for i in range(n))
    rows = [row + [b] for row, b in zip(np.asarray(system.matrix).tolist(),
                                         np.asarray(system.rhs).tolist())]
    try:  # ints and Fractions have denominators, floats do not
        factor = [math.lcm(*(v.denominator for v in row)) for row in rows]
        rows = [[int(v.numerator * (d // v.denominator)) for v in row]
                for row, d in zip(rows, factor)]
        exact = True
    except AttributeError:
        factor, exact = [1] * n, False
    scale = [max(map(abs, row[:n])) / d or 1.0 for row, d in zip(rows, factor)]
    order, prev = list(range(n)), 1  # prev, the previous pivot, stays 1 for floats
    for col in range(n):
        gauss = [_ratio(rows[i][col], prev * factor[order[i]]) for i in range(col, n)]
        p = max(range(col, n), key=lambda i: abs(gauss[i - col]) / scale[order[i]])
        top, pivot = rows[p], gauss[p - col]
        rows[col], rows[p] = rows[p], rows[col]
        order[col], order[p] = order[p], order[col]
        if abs(pivot) / scale[order[col]] < 1e-13:
            raise SingularSystemError(
                f"singular moment system: pivot {pivot:.3e} at column {col} "
                f"(constraint '{labels[order[col]]}')"
            )
        for row in rows[col + 1:]:
            if exact:  # Bareiss: the division by the previous pivot is exact
                f, t = row[col], top[col]
                row[col + 1:] = [(t * a - f * b) // prev
                                 for a, b in zip(row[col + 1:], top[col + 1:])]
            elif f := row[col] / top[col]:  # the constraint rows are mostly zeros
                for j in range(col + 1, n + 1):
                    row[j] -= f * top[j]
        prev = top[col] if exact else 1
    x = [0] * n  # det * x, where det = prev is the determinant of the integer rows
    for i, row in reversed(list(enumerate(rows))):
        rest = prev * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = rest // row[i] if exact else rest / row[i]
    return np.array([_ratio(v, prev) for v in x], dtype=float)


@dataclass(frozen=True)
class EtaKernel:
    """Solution of a moment problem, evaluated through its `profile()` and serialized by
    `to_json`.

    `coeffs` are ascending monomial coefficients in r for a polynomial spec, the
    printed form of Table 1 (the exact solution divided by nu(n) in floats), and
    the weights of cos(k pi r) for a cosine spec.
    """

    spec: MomentProblemSpec
    coeffs: np.ndarray
    name: str = ""

    @cached_property
    def _profile(self) -> RadialProfile:
        cosine = self.spec.basis.kind is BasisKind.COSINE
        return (cosine_profile if cosine else poly_profile)(self.coeffs)

    def profile(self) -> RadialProfile:
        return self._profile

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "dim": self.spec.dim,
            "m": self.spec.moments,
            "p": self.spec.degree,
            "basis": self.spec.basis.kind.value,
            "coeffs": list(map(float, self.coeffs)),
            "normalization": self.spec.normalization.value,
            "boundary_smoothness": self.spec.boundary_smoothness,
            "origin_smoothness": self.spec.origin_smoothness,
        }, sort_keys=True)


def solve_moment_problem(spec: MomentProblemSpec, name: str = "") -> EtaKernel:
    """Solve the assembled system and divide by nu(n): monomial or cosine coefficients."""
    coeffs = solve_dense(assemble_moment_system(spec)) / spec.normalization.nu(spec.dim)
    coeffs.setflags(write=False)
    return EtaKernel(spec=spec, coeffs=coeffs, name=name)


def radial_moment_residuals(kernel, upto: int, dim: int | None = None) -> np.ndarray:
    """Radial-reduction residuals nu(n) * integral(eta r^(theta+n-1)) - [theta=0], theta = 0..upto.

    `kernel` is an EtaKernel, whose spec supplies the normalization and dim (a
    different `dim` raises ValueError); or a RadialProfile, which needs `dim` and
    takes the SurfaceMeasure normalization.  These are the literal moment rows of
    the assembled system; no symmetry credit is taken for odd orders.
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    prof, normalization = kernel, Normalization.SURFACE_MEASURE
    if isinstance(kernel, EtaKernel):
        if dim not in (None, kernel.spec.dim):
            raise ValueError(f"dim = {dim} for a {kernel.spec.dim}D kernel's moment problem")
        prof, normalization, dim = kernel.profile(), kernel.spec.normalization, kernel.spec.dim
    if dim is None:
        raise TypeError("dimension required")
    theta = np.arange(upto + 1)
    return normalization.nu(dim) * prof.moment(theta + dim - 1) - (theta == 0)


def moment_residuals(kernel, upto: int, dim: int | None = None) -> np.ndarray:
    """Ball-moment residuals of the (symmetric) kernel for orders 0..upto.

    radial_moment_residuals with the odd entries set to exact zeros: odd ball
    moments vanish identically for a radially symmetric (even-extended) kernel.
    """
    out = radial_moment_residuals(kernel, upto, dim)
    out[1::2] = 0.0
    return out


def weak_star_order(kernel, dim: int | None = None) -> int:
    """q of the weak-* rate H^(q+1): the first even theta <= 8 whose ball-moment residual
    (`moment_residuals`, same arguments) is above 1e-8, minus 1.  A mass residual above
    1e-8, or no such theta, raises ValueError.  Over the 130 square problems of m <= 4 the
    matched residuals stay under 1.2e-11 and the first unmatched one is above 2.9e-3."""
    res = np.abs(moment_residuals(kernel, 8, dim))
    if res[0] > 1e-8:
        raise ValueError(f"kernel mass is off 1 by {res[0]:.3g}")
    for theta in (2, 4, 6, 8):
        if res[theta] > 1e-8:
            return theta - 1
    raise ValueError("every even ball moment up to theta = 8 vanishes")
