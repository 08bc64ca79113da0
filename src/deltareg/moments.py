"""Assembly and solution of the continuous finite moment problem on [0, 1].

The basis (orthonormal shifted Legendre from `numpy.polynomial.legendre`, or
cos(k pi r)) is tabulated by one helper: at Gauss nodes its values give every
moment row in one weighted matrix product, and its derivatives at r = 0 and
r = 1 give the smoothness rows.  The square system is solved by LAPACK gesv
through `numpy.linalg.solve`, after a pivot check on Python floats; a Legendre
solution also carries its monomial coefficients, through a Legendre-to-monomial
matrix cached per degree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import legder, legval

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
]


class MomentSystemError(ValueError):
    """Ill-posed moment problem (wrong shape, bad constraints, invalid domain)."""


class SingularSystemError(RuntimeError):
    """Moment system is numerically singular; carries the offending row label."""


class BasisKind(Enum):
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
    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple = field(default=())

    @property
    def condition_estimate(self) -> float:  # 1-norm: an explicit inverse, so only when read
        return float(np.linalg.cond(self.matrix, 1))


def _basis_values(basis: BasisFamily, r, order: int = 0) -> np.ndarray:
    """d^order psi_k/dr^order at the points r: one row per point, one column per k.

    Legendre: psi_k(r) = sqrt(2k+1) P_k(2r - 1), orthonormal on (0, 1), from
    `numpy.polynomial.legendre` (each r-derivative brings a factor 2).
    Cosine: psi_k(r) = cos(k pi r).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    k = np.arange(basis.size)
    if basis.kind is BasisKind.COSINE:
        w = k * np.pi
        return w**order * np.cos(np.outer(r, w) + order * np.pi / 2)
    values = legval(2.0 * r - 1.0, legder(np.eye(basis.size), order)).T
    return np.sqrt(2.0 * k + 1.0) * 2.0**order * values


@lru_cache(maxsize=None)
def _legendre_to_monomial(degree: int) -> np.ndarray:
    """Column k: ascending monomial coefficients in r of psi_k, its Taylor series at r = 0."""
    basis = BasisFamily(BasisKind.SHIFTED_LEGENDRE, degree)
    mat = np.array([_basis_values(basis, 0.0, j)[0] / math.factorial(j)
                    for j in range(degree + 1)])
    mat.setflags(write=False)
    return mat


def assemble_moment_system(spec: MomentProblemSpec) -> DenseLinearSystem:
    """Build the square system: moment rows <r^(theta+n-1), psi_j> then constraint rows."""
    if spec.n_rows != spec.n_unknowns:
        raise MomentSystemError(
            f"system is {spec.n_rows}x{spec.n_unknowns}, not square: "
            f"{spec.moments + 1} moment rows + {spec.constraint_rows} constraint rows "
            f"require degree {spec.moments + spec.constraint_rows}"
        )
    # one Gauss rule for both bases; its order covers the polynomial case exactly
    # and is far inside the superexponential regime for the trig case
    max_power = spec.moments + spec.dim - 1
    x, w = gauss_legendre(max((max_power + spec.degree) // 2 + 2, 24)).mapped(0.0, 1.0)
    powers = np.arange(spec.moments + 1)[:, None] + spec.dim - 1
    rows = [(w * x**powers) @ _basis_values(spec.basis, x)]
    labels = [f"moment theta={theta}" for theta in range(spec.moments + 1)]
    for k in range(spec.boundary_smoothness):
        rows.append(_basis_values(spec.basis, 1.0, k))
        labels.append(f"d^{k} eta/dr^{k}(1) = 0")
    for k in range(1, spec.origin_smoothness):
        rows.append(_basis_values(spec.basis, 0.0, k))
        labels.append(f"d^{k} eta/dr^{k}(0) = 0")
    mat = np.vstack(rows)
    rhs = np.zeros(spec.n_unknowns)
    rhs[0] = 1.0 / spec.normalization.nu(spec.dim)
    return DenseLinearSystem(matrix=mat, rhs=rhs, row_labels=tuple(labels))


def _first_small_pivot(rows: list) -> tuple | None:
    """(column, row, pivot) of the first pivot below 1e-13 that getrf meets, or None.

    Gaussian elimination with partial pivoting on lists of Python floats (the
    systems are tiny, and numpy's per-call overhead would dominate): it keeps
    getrf's pivot choice, the first row of largest magnitude, and only the
    pivots, since LAPACK gives the solution.  `row` indexes the input rows;
    `rows` is overwritten.
    """
    n = len(rows)
    order = list(range(n))
    for col in range(n):
        p = max(range(col, n), key=lambda i: abs(rows[i][col]))
        rows[col], rows[p] = rows[p], rows[col]
        order[col], order[p] = order[p], order[col]
        top = rows[col]
        if abs(top[col]) < 1e-13:
            return col, order[col], top[col]
        for row in rows[col + 1:]:
            f = row[col] / top[col]
            for j in range(col + 1, n):
                row[j] -= f * top[j]
    return None


def solve_dense(system: DenseLinearSystem) -> np.ndarray:
    """LAPACK gesv (`numpy.linalg.solve`) on the row-equilibrated matrix; fails loudly
    on pivot < 1e-13.

    Dividing each row by its largest entry makes partial pivoting pick the
    pivots of scaled partial pivoting on the original rows, and the pivot
    threshold is relative to the pivot row's scale.  gesv does not report its
    pivots, so `_first_small_pivot` repeats the elimination to check them; a
    failing pivot names the constraint of the row that the permutation put there.
    """
    a = np.asarray(system.matrix, dtype=float)
    b = np.asarray(system.rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise MomentSystemError("system must be square with matching rhs")
    labels = system.row_labels or tuple(f"row {i}" for i in range(n))
    scale = np.max(np.abs(a), axis=1)
    scale[scale == 0.0] = 1.0
    scaled = a / scale[:, None]
    small = _first_small_pivot(scaled.tolist())
    if small is not None:
        col, row, pivot = small
        raise SingularSystemError(
            f"singular moment system: pivot {pivot * scale[row]:.3e} at column {col} "
            f"(constraint '{labels[row]}')"
        )
    return np.linalg.solve(scaled, b / scale)


@dataclass(frozen=True)
class EtaKernel:
    """Solution of a moment problem: basis coefficients plus (Legendre) monomial form,
    evaluated through its `profile()` and serialized by `to_json`."""

    spec: MomentProblemSpec
    coeffs: np.ndarray
    monomial: np.ndarray | None = None
    name: str = ""

    def profile(self) -> RadialProfile:
        if self.spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
            return poly_profile(self.monomial)
        return cosine_profile(self.coeffs)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "dim": self.spec.dim,
            "m": self.spec.moments,
            "p": self.spec.degree,
            "basis": self.spec.basis.kind.value,
            "coeffs": list(map(float, self.coeffs)),
            "normalization": self.spec.normalization.value,
            "boundary_smoothness": self.spec.boundary_smoothness,
            "origin_smoothness": self.spec.origin_smoothness,
        }
        if self.monomial is not None:
            payload["monomial"] = list(map(float, self.monomial))
        return json.dumps(payload, sort_keys=True)


def solve_moment_problem(spec: MomentProblemSpec, name: str = "") -> EtaKernel:
    """Solve the assembled system; Legendre solutions also carry monomial coordinates."""
    system = assemble_moment_system(spec)
    beta = solve_dense(system)
    monomial = None
    if spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
        monomial = _legendre_to_monomial(spec.degree) @ beta
    beta.setflags(write=False)
    if monomial is not None:
        monomial.setflags(write=False)
    return EtaKernel(spec=spec, coeffs=beta, monomial=monomial, name=name)


def radial_moment_residuals(kernel, upto: int, dim: int | None = None) -> np.ndarray:
    """Radial-reduction residuals nu(n) * integral(eta r^(theta+n-1)) - [theta=0], theta = 0..upto.

    `kernel` is an EtaKernel, whose spec supplies the normalization and, unless
    it is given, dim; or a RadialProfile, which needs `dim` and takes the
    SurfaceMeasure normalization.  These are the literal moment rows of the
    assembled system; no symmetry credit is taken for odd orders.
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    prof, normalization = kernel, Normalization.SURFACE_MEASURE
    if isinstance(kernel, EtaKernel):
        prof, normalization = kernel.profile(), kernel.spec.normalization
        dim = kernel.spec.dim if dim is None else dim
    if dim is None:
        raise TypeError("dimension required")
    nu = normalization.nu(dim)
    theta = np.arange(upto + 1)
    return np.array([nu * prof.moment(t + dim - 1) for t in theta]) - (theta == 0)


def moment_residuals(kernel, upto: int, dim: int | None = None) -> np.ndarray:
    """Ball-moment residuals of the (symmetric) kernel for orders 0..upto.

    radial_moment_residuals with the odd entries set to exact zeros: odd ball
    moments vanish identically for a radially symmetric (even-extended) kernel.
    """
    out = radial_moment_residuals(kernel, upto, dim)
    out[1::2] = 0.0
    return out
