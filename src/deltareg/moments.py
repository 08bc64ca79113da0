"""Assembly and solution of the continuous finite moment problem on [0, 1]."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .profiles import RadialProfile, cosine_profile, poly_profile
from .quadrature import gauss_legendre, integrate_panels

__all__ = [
    "BasisKind",
    "Normalization",
    "BasisFamily",
    "MomentProblemSpec",
    "DenseLinearSystem",
    "EtaKernel",
    "MomentSystemError",
    "SingularSystemError",
    "shifted_legendre_eval",
    "shifted_legendre_monomial",
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
    condition_estimate: float
    row_labels: tuple = field(default=())


def shifted_legendre_eval(k: int, r):
    """L2(0,1)-orthonormal shifted Legendre polynomial P_k at r, by recurrence."""
    if k < 0:
        raise MomentSystemError("index must be nonnegative")
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0) or np.any(r_arr > 1.0):
        raise MomentSystemError("argument outside [0, 1]")
    t = 2.0 * r_arr - 1.0
    p_prev = np.ones_like(t)
    if k == 0:
        out = math.sqrt(1.0) * p_prev
    else:
        p = t.copy()
        for j in range(2, k + 1):
            p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
        out = math.sqrt(2 * k + 1) * p
    if out.ndim == 0:
        return float(out)
    return out


def shifted_legendre_monomial(k: int) -> np.ndarray:
    """Ascending monomial coefficients of the orthonormal shifted Legendre P_k."""
    # closed-form alternating binomial sum; exact integers times sqrt(2k+1)
    coeffs = np.zeros(k + 1)
    for j in range(k + 1):
        coeffs[j] = (-1) ** (k + j) * math.comb(k, j) * math.comb(k + j, j)
    return math.sqrt(2 * k + 1) * coeffs


def _legendre_endpoint_derivative(k: int, order: int, at_one: bool) -> float:
    # d^j/dr^j of shifted P_k at r=1 (or 0): sqrt(2k+1) * (k+j)! / (j! (k-j)!),
    # with sign (-1)^(k+j) at r=0; zero when j > k
    if order > k:
        return 0.0
    val = math.sqrt(2 * k + 1) * math.factorial(k + order) / (
        math.factorial(order) * math.factorial(k - order)
    )
    if not at_one:
        val *= (-1) ** (k + order)
    return val


def _basis_endpoint_derivative(spec: MomentProblemSpec, j: int, order: int, at_one: bool) -> float:
    if spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
        return _legendre_endpoint_derivative(j, order, at_one)
    w = j * math.pi
    if order == 0:
        return math.cos(w) if at_one else 1.0
    # cos(j pi r): odd derivatives vanish at both endpoints
    if order % 2 == 1:
        return 0.0
    sign = (-1) ** (order // 2)
    return sign * w**order * (math.cos(w) if at_one else 1.0)


def _basis_eval(spec: MomentProblemSpec, j: int, r: np.ndarray) -> np.ndarray:
    if spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
        return shifted_legendre_eval(j, r)
    return np.cos(j * np.pi * r)


def assemble_moment_system(spec: MomentProblemSpec) -> DenseLinearSystem:
    """Build the square system: moment rows <r^(theta+n-1), psi_j> then constraint rows."""
    if spec.n_rows != spec.n_unknowns:
        raise MomentSystemError(
            f"system is {spec.n_rows}x{spec.n_unknowns}, not square: "
            f"{spec.moments + 1} moment rows + {spec.constraint_rows} constraint rows "
            f"require degree {spec.moments + spec.constraint_rows}"
        )
    n = spec.n_unknowns
    # one quadrature path for both bases; order covers the polynomial case exactly
    # and is far inside the superexponential regime for the trig case
    max_power = spec.moments + spec.dim - 1
    order = max((max_power + spec.degree) // 2 + 2, 24)
    rule = gauss_legendre(order)
    mat = np.zeros((n, n))
    rhs = np.zeros(n)
    labels = []
    for theta in range(spec.moments + 1):
        power = theta + spec.dim - 1
        for j in range(n):
            mat[theta, j] = integrate_panels(
                lambda r, j=j, power=power: r**power * _basis_eval(spec, j, r),
                (0.0, 1.0),
                rule,
            )
        rhs[theta] = 1.0 / spec.normalization.nu(spec.dim) if theta == 0 else 0.0
        labels.append(f"moment theta={theta}")
    row = spec.moments + 1
    for k in range(spec.boundary_smoothness):
        for j in range(n):
            mat[row, j] = _basis_endpoint_derivative(spec, j, k, at_one=True)
        labels.append(f"d^{k} eta/dr^{k}(1) = 0")
        row += 1
    for k in range(1, spec.origin_smoothness):
        for j in range(n):
            mat[row, j] = _basis_endpoint_derivative(spec, j, k, at_one=False)
        labels.append(f"d^{k} eta/dr^{k}(0) = 0")
        row += 1
    cond = float(np.linalg.cond(mat, 1)) if n > 0 else 1.0
    return DenseLinearSystem(matrix=mat, rhs=rhs, condition_estimate=cond, row_labels=tuple(labels))


def solve_dense(system: DenseLinearSystem) -> np.ndarray:
    """Gaussian elimination with partial pivoting; fails loudly on pivot < 1e-13."""
    a = np.array(system.matrix, dtype=float)
    b = np.array(system.rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise MomentSystemError("system must be square with matching rhs")
    labels = list(system.row_labels) if system.row_labels else [f"row {i}" for i in range(n)]
    scale = np.max(np.abs(a), axis=1)
    scale[scale == 0.0] = 1.0
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col]) / scale[col:]))
        if abs(a[piv, col]) < 1e-13 * scale[piv]:
            raise SingularSystemError(
                f"singular moment system: pivot {a[piv, col]:.3e} at column {col} "
                f"(constraint '{labels[piv]}')"
            )
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
            scale[[col, piv]] = scale[[piv, col]]
            labels[col], labels[piv] = labels[piv], labels[col]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


@dataclass(frozen=True)
class EtaKernel:
    """Solution of a moment problem: basis coefficients plus (Legendre) monomial form."""

    spec: MomentProblemSpec
    coeffs: np.ndarray
    monomial: np.ndarray | None = None
    name: str = ""

    def profile(self) -> RadialProfile:
        if self.spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
            return poly_profile(self.monomial)
        return cosine_profile(self.coeffs)

    def eval(self, r):
        prof = self.profile()
        return prof.eval(r)

    def deriv(self, r, order: int = 1):
        return self.profile().deriv(r, order)

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

    @staticmethod
    def from_json(text: str) -> "EtaKernel":
        d = json.loads(text)
        spec = MomentProblemSpec(
            dim=d["dim"],
            moments=d["m"],
            degree=d["p"],
            basis=BasisFamily(BasisKind(d["basis"]), d["p"]),
            boundary_smoothness=d.get("boundary_smoothness", 0),
            origin_smoothness=d.get("origin_smoothness", 0),
            normalization=Normalization(d["normalization"]),
        )
        monomial = np.asarray(d["monomial"]) if "monomial" in d else None
        return EtaKernel(spec=spec, coeffs=np.asarray(d["coeffs"]), monomial=monomial,
                         name=d.get("name", ""))


def solve_moment_problem(spec: MomentProblemSpec, name: str = "") -> EtaKernel:
    """Solve the assembled system; Legendre solutions also carry monomial coordinates."""
    system = assemble_moment_system(spec)
    beta = solve_dense(system)
    monomial = None
    if spec.basis.kind is BasisKind.SHIFTED_LEGENDRE:
        monomial = np.zeros(spec.degree + 1)
        for j, b in enumerate(beta):
            monomial[: j + 1] += b * shifted_legendre_monomial(j)
    beta.setflags(write=False)
    if monomial is not None:
        monomial.setflags(write=False)
    return EtaKernel(spec=spec, coeffs=beta, monomial=monomial, name=name)


def _profile_of(obj) -> RadialProfile:
    if isinstance(obj, RadialProfile):
        return obj
    if isinstance(obj, EtaKernel):
        return obj.profile()
    if hasattr(obj, "radial_profile"):
        return obj.radial_profile
    raise TypeError(f"cannot extract a radial profile from {type(obj)!r}")


def _dim_of(obj, dim) -> int:
    if dim is not None:
        return dim
    if isinstance(obj, EtaKernel):
        return obj.spec.dim
    if hasattr(obj, "dim"):
        return obj.dim
    raise TypeError("dimension required")


def _norm_of(obj, normalization) -> Normalization:
    if normalization is not None:
        return normalization
    if isinstance(obj, EtaKernel):
        return obj.spec.normalization
    if hasattr(obj, "normalization"):
        return obj.normalization
    return Normalization.SURFACE_MEASURE


def moment_residuals(kernel, upto: int, dim: int | None = None,
                     normalization: Normalization | None = None) -> np.ndarray:
    """Ball-moment residuals of the (symmetric) kernel for orders 0..upto.

    Entry 0 is nu(n) * integral(eta r^(n-1)) - 1.  Odd orders vanish identically
    for radially symmetric / even-extended kernels, so those entries are exact
    zeros; even orders report nu(n) * integral(eta r^(theta+n-1)).
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    prof = _profile_of(kernel)
    n = _dim_of(kernel, dim)
    nu = _norm_of(kernel, normalization).nu(n)
    out = np.zeros(upto + 1)
    for theta in range(upto + 1):
        if theta == 0:
            out[0] = nu * prof.moment(n - 1) - 1.0
        elif theta % 2 == 1:
            out[theta] = 0.0
        else:
            out[theta] = nu * prof.moment(theta + n - 1)
    return out


def radial_moment_residuals(kernel, upto: int, dim: int | None = None,
                            normalization: Normalization | None = None) -> np.ndarray:
    """Raw radial-reduction residuals nu(n) * integral(eta r^(theta+n-1)) - [theta=0].

    These are the literal rows of the assembled system; unlike moment_residuals
    no symmetry credit is taken for odd orders.
    """
    if upto < 0:
        raise ValueError("upto must be nonnegative")
    prof = _profile_of(kernel)
    n = _dim_of(kernel, dim)
    nu = _norm_of(kernel, normalization).nu(n)
    out = np.zeros(upto + 1)
    for theta in range(upto + 1):
        out[theta] = nu * prof.moment(theta + n - 1) - (1.0 if theta == 0 else 0.0)
    return out
