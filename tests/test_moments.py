import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyint, polyval

import deltareg
from deltareg.kernels import RegularizedDelta, catalog_entries, catalog_lookup, catalog_names
from deltareg.moments import (
    BasisFamily,
    BasisKind,
    DenseLinearSystem,
    MomentProblemSpec,
    MomentSystemError,
    Normalization,
    SingularSystemError,
    assemble_moment_system,
    moment_residuals,
    radial_moment_residuals,
    solve_dense,
    solve_moment_problem,
    weak_star_order,
)
from deltareg.profiles import PolyPiece, RadialProfile, poly_profile
from deltareg.quadrature import convergence_slope, gauss_legendre, integrate_panels, weak_star_error

PI = math.pi


def legendre_spec(dim, m, p, s=0, origin=0, norm=Normalization.SURFACE_MEASURE):
    return MomentProblemSpec(
        dim=dim, moments=m, degree=p,
        basis=BasisFamily(BasisKind.SHIFTED_LEGENDRE, p),
        boundary_smoothness=s, origin_smoothness=origin, normalization=norm,
    )


def cosine_spec(dim, m, p, s=0, norm=Normalization.SURFACE_MEASURE):
    return MomentProblemSpec(
        dim=dim, moments=m, degree=p,
        basis=BasisFamily(BasisKind.COSINE, p),
        boundary_smoothness=s, normalization=norm,
    )


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def test_assemble_mass_only_is_one_by_one():
    # the right-hand side is e_0; nu(1) = 2 divides the solution afterwards
    system = assemble_moment_system(legendre_spec(1, 0, 0))
    assert system.matrix.shape == (1, 1)
    assert solve_dense(system).tolist() == [1.0]
    assert solve_moment_problem(legendre_spec(1, 0, 0)).coeffs.tolist() == [0.5]


def test_polynomial_rows_are_exact_in_closed_form():
    # moment rows 1/(theta+n+j), boundary rows j!/(j-k)!, origin rows k! [j = k]
    system = assemble_moment_system(legendre_spec(2, 2, 5, s=2, origin=2))
    assert system.matrix.tolist() == [
        [Fraction(1, 2 + j) for j in range(6)],
        [Fraction(1, 3 + j) for j in range(6)],
        [Fraction(1, 4 + j) for j in range(6)],
        [1, 1, 1, 1, 1, 1],
        [0, 1, 2, 3, 4, 5],
        [0, 1, 0, 0, 0, 0],
    ]
    assert all(type(v) is Fraction for v in system.matrix.flat)
    assert system.rhs.tolist() == [1, 0, 0, 0, 0, 0]


def test_assemble_rejects_non_square():
    # one basis function cannot carry a mass row plus a first-moment row
    with pytest.raises(MomentSystemError, match="square"):
        assemble_moment_system(legendre_spec(1, 1, 0))


def test_assemble_two_moment_with_continuity_is_4x4():
    system = assemble_moment_system(legendre_spec(1, 2, 3, s=1))
    assert system.matrix.shape == (4, 4)
    assert system.row_labels[-1] == "d^0 eta/dr^0(1) = 0"


def test_assemble_2d_reproduces_printed_linear_kernel():
    spec = legendre_spec(2, 1, 1, norm=Normalization.PAPER_TABLE1_2D)
    kernel = solve_moment_problem(spec)
    assert kernel.coeffs.tolist() == [18 / PI, -24 / PI]


def _scaled_quintic_system():
    # integer row scales keep the Fraction system exact
    system = assemble_moment_system(legendre_spec(1, 2, 5, s=2, origin=2))
    scales = np.array([3, 160, 7, 1, 12, 45])
    return DenseLinearSystem(matrix=system.matrix * scales[:, None], rhs=system.rhs * scales,
                             row_labels=system.row_labels)


def test_solver_row_scaling_invariance():
    # the system is exact, so the solution cannot move
    base = solve_dense(assemble_moment_system(legendre_spec(1, 2, 5, s=2, origin=2)))
    scaled = _scaled_quintic_system()
    assert solve_dense(scaled).tolist() == base.tolist() == [9, 0, -300, 900, -945, 336]


def _reference_solve(system):
    # Gaussian elimination with scaled partial pivoting in the entries' own arithmetic,
    # exact on Fractions: the solver's rule, without its integer rows
    n, labels = len(system.rhs), system.row_labels or [f"row {i}" for i in range(len(system.rhs))]
    rows = [row + [b] for row, b in zip(np.asarray(system.matrix).tolist(),
                                         np.asarray(system.rhs).tolist())]
    scale = [max(abs(float(v)) for v in row[:n]) or 1.0 for row in rows]
    order = list(range(n))
    for col in range(n):
        p = max(range(col, n), key=lambda i: abs(float(rows[i][col])) / scale[order[i]])
        rows[col], rows[p], order[col], order[p] = rows[p], rows[col], order[p], order[col]
        top = rows[col]
        if abs(float(top[col])) / scale[order[col]] < 1e-13:
            raise SingularSystemError(f"singular moment system: pivot {float(top[col]):.3e} "
                                      f"at column {col} (constraint '{labels[order[col]]}')")
        for row in rows[col + 1:]:
            f = row[col] / top[col]
            if f:
                row[col + 1:] = [a - f * b for a, b in zip(row[col + 1:], top[col + 1:])]
    x = [0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(rows[i][j] * x[j] for j in range(i + 1, n))) / rows[i][i]
    return np.array(x, dtype=float)


def _outcome(solve, system):
    try:
        return solve(system).tolist()
    except SingularSystemError as err:
        return str(err)


def test_singular_system_fails_loudly():
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    system = DenseLinearSystem(matrix=mat, rhs=np.array([1.0, 2.0]),
                               row_labels=("mass", "dup"))
    with pytest.raises(SingularSystemError, match="pivot"):
        solve_dense(system)


def test_exactly_singular_fraction_system_names_its_constraint():
    row = [Fraction(1, 2), Fraction(1, 3)]
    system = DenseLinearSystem(matrix=np.array([row, row], dtype=object),
                               rhs=np.array([1, 0]), row_labels=("mass", "dup"))
    with pytest.raises(SingularSystemError,
                       match=r"^singular moment system: pivot 0\.000e\+00 at column 1 "
                             r"\(constraint 'dup'\)$"):
        solve_dense(system)


def test_singular_pivot_names_its_row_through_the_permutation():
    # the first pivot swaps 'c' to the top, so the zero pivot of column 2 is row 'a'
    mat = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    system = DenseLinearSystem(matrix=mat, rhs=np.ones(3), row_labels=("a", "b", "c"))
    with pytest.raises(SingularSystemError, match=r"column 2 \(constraint 'a'\)"):
        solve_dense(system)


# pivots 1e-14 of their row's scale: LAPACK alone (numpy.linalg.solve) accepts both
@pytest.mark.parametrize("mat", [
    [[1.0, 1.0], [1.0, 1.0 + 1e-14]],
    [[3e6, 3e6], [2.0, 2.0 + 2e-14]],  # the threshold is relative to the row, not the matrix
], ids=["unit-rows", "scaled-rows"])
def test_tiny_equilibrated_pivot_is_singular(mat):
    mat = np.array(mat)
    assert np.all(np.isfinite(np.linalg.solve(mat, np.ones(2))))
    system = DenseLinearSystem(matrix=mat, rhs=np.ones(2), row_labels=("mass", "tiny"))
    with pytest.raises(SingularSystemError,
                       match=r"^singular moment system: pivot \S+ at column 1 "
                             r"\(constraint 'tiny'\)$"):
        solve_dense(system)


def test_pivot_check_matches_getrf():
    # the solver eliminates as getrf does: both must stop at the same column and,
    # unless the candidates there are all rounding noise, name the same row; where
    # every getrf pivot passes, the solver solves
    from scipy.linalg.lapack import dgetrf

    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(1, 9))
        a = rng.uniform(-1.0, 1.0, (n, n))
        noise_tie = n > 2 and trial % 3 == 2
        if n > 2 and trial % 3 == 1:  # one row a combination of two others
            i, j, k = rng.choice(n, 3, replace=False)
            a[k] = rng.uniform(-2, 2) * a[i] + rng.uniform(-2, 2) * a[j]
        elif noise_tie:  # one column a multiple of an earlier one
            i, k = sorted(rng.choice(n, 2, replace=False))
            a[:, k] = rng.uniform(-2, 2) * a[:, i]
        a /= np.max(np.abs(a), axis=1)[:, None]
        lu, piv, _ = dgetrf(a)
        small = np.flatnonzero(np.abs(np.diag(lu)) < 1e-13)
        system = DenseLinearSystem(matrix=a, rhs=np.ones(n))
        if small.size == 0:  # backward stable: a small residual against |x|
            x = solve_dense(system)
            assert np.max(np.abs(a @ x - 1.0)) <= 1e-13 * n * max(1.0, np.max(np.abs(x)))
            continue
        col, perm = int(small[0]), list(range(n))
        for i, p in enumerate(piv[: col + 1]):  # getrf swaps row i with row p, in order
            perm[i], perm[p] = perm[p], perm[i]
        with pytest.raises(SingularSystemError) as err:
            solve_dense(system)
        got = re.fullmatch(r"singular moment system: pivot (\S+) at column (\d+) "
                           r"\(constraint 'row (\d+)'\)", str(err.value))
        assert abs(float(got[1])) < 1e-13 and int(got[2]) == col
        assert noise_tie or int(got[3]) == perm[col]


def test_pivot_above_threshold_solves():
    # equilibrated pivot about 1e-12, ten times the threshold
    mat = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    system = DenseLinearSystem(matrix=mat, rhs=np.array([1.0, 2.0]))
    x1 = 1.0 / (mat[1, 1] - 1.0)
    assert solve_dense(system) == pytest.approx([1.0 - x1, x1], rel=1e-6)


def test_package_imports_and_solves_without_scipy():
    # scipy serves only the 2D studies' Bessel functions (scipy.special); the package,
    # its CLI and the moment solve must not load scipy, and the Sobolev and pointwise
    # 2D studies load no more of it than scipy.special (scipy.optimize alone raises
    # the helm2d bench's peak RSS by a fifth); importing fills no `elliptic` memo,
    # solves no moment problem, derives no weak order and loads no fractions
    # and no more of numpy.polynomial than numpy itself does, and the catalog's solves
    # and derivations load no scipy
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import deltareg, deltareg.cli\n"
        "print(sum(getattr(deltareg.elliptic, f).cache_info().currsize for f in "
        "('_greens_factors', '_panel_cut', '_sobolev_geometry')), "
        "sum('_profile' in vars(b) for b in deltareg.kernels._CATALOG.values()), "
        "sum('weak_order' in vars(b) for b in deltareg.kernels._CATALOG.values()), "
        "'fractions' in sys.modules, "
        "any(m.startswith('numpy.polynomial') for m in set(sys.modules) - before))\n"
        "deltareg.kernels.catalog_json()\n"
        "from deltareg.moments import BasisFamily, BasisKind, MomentProblemSpec, "
        "solve_moment_problem\n"
        "solve_moment_problem(MomentProblemSpec(dim=2, moments=2, degree=3, "
        "basis=BasisFamily(BasisKind.SHIFTED_LEGENDRE, 3), boundary_smoothness=1))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from deltareg.reports import parse_config_text, run_study\n"
        "for study, rows in (('helmholtz2d_sobolev', 6), ('helmholtz2d', 2)):\n"
        "    report = run_study(parse_config_text(f'study = {study}\\n"
        "kernels = eta_2_3_2d\\nH = 2^-2..2^-3'))\n"
        "    assert not report.had_error and len(report.rows) == rows\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'optimize'], "
        "['scipy', 'interpolate'], ['scipy', 'integrate'])))\n"
    )
    src = str(Path(deltareg.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:3] == ["0 0 0 False False", "[]", "[]"]


# ---------------------------------------------------------------------------
# printed Table-1 kernels (coefficient regeneration and the catalog profiles)
# ---------------------------------------------------------------------------

# Printed Table-1 forms as (catalog name, moment problem, coefficients): monomial
# coefficients for the polynomial kernels, cosine weights for the trigonometric
# ones.  The 2D forms carry the printed nu(2) = pi convention: a 2D polynomial
# kernel is listed by its printed integers, which nu divides in floats.
P2 = Normalization.PAPER_TABLE1_2D
D_COS2 = 9 * PI**4 - 104 * PI**2 + 48

TABLE_1D = [
    ("eta_1_0_1d", legendre_spec(1, 0, 0), [0.5]),
    ("eta_1_1_1d", legendre_spec(1, 0, 1, s=1), [1.0, -1.0]),
    ("eta_1_2_1d", legendre_spec(1, 1, 2, s=1), [3.0, -9.0, 6.0]),
    ("eta_2_2_1d", legendre_spec(1, 2, 2), [4.5, -18.0, 15.0]),
    ("eta_2_3_1d", legendre_spec(1, 2, 3, s=1), [6.0, -36.0, 60.0, -30.0]),
    ("eta_2_5_1d", legendre_spec(1, 2, 5, s=2, origin=2),
     [4.5, 0.0, -150.0, 450.0, -472.5, 168.0]),
]

TABLE_2D = [
    ("eta_0_1_2d", legendre_spec(2, 0, 1, s=1, norm=P2), [6, -6]),
    ("eta_1_1_2d", legendre_spec(2, 1, 1, norm=P2), [18, -24]),
    ("eta_1_2_2d", legendre_spec(2, 1, 2, s=1, norm=P2), [36, -96, 60]),
    ("eta_2_2_2d", legendre_spec(2, 2, 2, norm=P2), [72, -240, 180]),
    ("eta_2_3_2d", legendre_spec(2, 2, 3, s=1, norm=P2), [120, -600, 900, -420]),
    ("eta_2_5_2d", legendre_spec(2, 2, 5, s=2, origin=2, norm=P2),
     [84, 0, -2100, 5880, -5880, 2016]),
]

TABLE_COS = {
    "eta_1_cos_1d": (cosine_spec(1, 0, 1, s=1), [0.5, 0.5]),
    "eta_2_cos_1d": (cosine_spec(1, 2, 3, s=1),
                     [0.5, 23 * PI**2 / 192 - 1 / 16, PI**2 / 6, 3 * PI**2 / 64 + 9 / 16]),
    "eta_1_cos_2d": (cosine_spec(2, 0, 1, s=1, norm=P2),
                     [2 * PI / (PI**2 - 4), 2 * PI / (PI**2 - 4)]),
    "eta_2_cos_2d": (cosine_spec(2, 2, 3, s=1, norm=P2),
                     [-144 * PI / D_COS2,
                      -PI * (45 * PI**4 + 32 * PI**2 - 48) / (16 * D_COS2),
                      -2 * PI * (9 * PI**4 - 80 * PI**2 + 48) / D_COS2,
                      -81 * PI * (3 * PI**4 - 32 * PI**2 + 48) / (16 * D_COS2)]),
}

PRINTED = TABLE_1D + TABLE_2D + [
    (name, spec, coeffs) for name, (spec, coeffs) in TABLE_COS.items()]


def _printed_coeffs(printed, dim, nu):
    # a 1D form is printed as it is; a 2D one as integers over nu, divided in floats
    return printed if dim == 1 else [c / nu for c in printed]


# the exact solve reproduces every printed polynomial form bit for bit
@pytest.mark.parametrize("spec,printed", [(spec, c) for _, spec, c in TABLE_1D + TABLE_2D])
def test_polynomial_kernel_regeneration(spec, printed):
    kernel = solve_moment_problem(spec)
    assert kernel.coeffs.tolist() == _printed_coeffs(printed, spec.dim, PI)


def test_printed_forms_cover_every_table1_kernel():
    table1 = {e.name for e in catalog_entries() if e.source == "table1"}
    assert sorted(name for name, _, _ in PRINTED) == sorted(table1)


@pytest.mark.parametrize("name,spec,printed", PRINTED, ids=[row[0] for row in PRINTED])
def test_catalog_profile_matches_printed_form(name, spec, printed):
    # the catalog solves under SurfaceMeasure, nu(2) = 2 pi: half the printed 2D form
    prof = catalog_lookup(name).profile()
    if prof.is_polynomial:
        assert list(prof.pieces[0].coeffs) == _printed_coeffs(printed, spec.dim, 2 * PI)
        return
    coeffs = np.asarray(prof.cos_coeffs)
    expected = np.asarray(printed) * (0.5 if spec.dim == 2 else 1.0)
    assert coeffs.shape == expected.shape
    assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_quadratic_without_continuity_is_discontinuous():
    kernel = solve_moment_problem(legendre_spec(1, 2, 2))
    assert abs(kernel.profile().eval(1.0)) > 1.0  # non-vanishing at the support edge


# ---------------------------------------------------------------------------
# trigonometric kernels
# ---------------------------------------------------------------------------

def test_cosine_zero_moment_1d():
    spec, expected = TABLE_COS["eta_1_cos_1d"]
    kernel = solve_moment_problem(spec)
    # boundary constraint eta(1) = 0 fixes the cosine weight to +1/2
    assert kernel.coeffs == pytest.approx(expected, abs=1e-12)
    assert kernel.profile().eval(1.0) == pytest.approx(0.0, abs=1e-14)


def test_cosine_two_moment_1d_closed_form():
    spec, expected = TABLE_COS["eta_2_cos_1d"]
    kernel = solve_moment_problem(spec)
    assert kernel.coeffs == pytest.approx(expected, abs=1e-10)


def test_cosine_zero_moment_2d_closed_form():
    spec, expected = TABLE_COS["eta_1_cos_2d"]
    kernel = solve_moment_problem(spec)
    assert kernel.coeffs == pytest.approx(expected, abs=1e-12)


def test_cosine_two_moment_2d_closed_form():
    spec, expected = TABLE_COS["eta_2_cos_2d"]
    kernel = solve_moment_problem(spec)
    assert kernel.coeffs == pytest.approx(expected, abs=1e-10)


def test_cosine_rejects_redundant_origin_constraints():
    with pytest.raises(MomentSystemError):
        cosine_spec(1, 2, 4, s=2)
    with pytest.raises(MomentSystemError):
        MomentProblemSpec(dim=1, moments=1, degree=2,
                          basis=BasisFamily(BasisKind.COSINE, 2),
                          origin_smoothness=2)


# ---------------------------------------------------------------------------
# kernel invariants
# ---------------------------------------------------------------------------

def test_solution_satisfies_smoothness_constraints():
    kernel = solve_moment_problem(legendre_spec(1, 2, 5, s=2, origin=2))
    slope = polyder(kernel.coeffs)
    assert abs(kernel.profile().eval(1.0)) <= 1e-10
    assert abs(polyval(1.0, slope)) <= 1e-10
    assert abs(polyval(0.0, slope)) <= 1e-10


def test_moment_residuals_box_kernel():
    # 2 * integral(1/2) = 1 and the first moment vanishes by even extension
    kernel = solve_moment_problem(legendre_spec(1, 0, 0))
    res = moment_residuals(kernel, 1)
    assert res == pytest.approx([0.0, 0.0], abs=1e-12)


def test_moment_residuals_cubic_kernel():
    kernel = solve_moment_problem(legendre_spec(1, 2, 3, s=1))
    res = moment_residuals(kernel, 2)
    assert np.max(np.abs(res)) <= 1e-12


def test_radial_residuals_expose_unmatched_third_order():
    # the raw radial-reduction integral of eta_{2,2} at order 3 does not vanish
    kernel = solve_moment_problem(legendre_spec(1, 2, 2))
    radial = radial_moment_residuals(kernel, 3)
    assert np.max(np.abs(radial[:3])) <= 1e-12
    assert radial[3] == pytest.approx(0.05, abs=1e-12)
    # while the symmetric ball moment of odd order is zero by even extension
    assert moment_residuals(kernel, 3)[3] == 0.0


@pytest.mark.parametrize("upto", [0, 2, 8])
def test_a_dimension_other_than_the_kernels_is_an_error(upto):
    # the 1D eta_2_3 read as 2D gave the residuals of another problem, [-1, 0, 0.0898]
    kernel = solve_moment_problem(legendre_spec(1, 2, 3, s=1))
    for check in (radial_moment_residuals, moment_residuals):
        with pytest.raises(ValueError, match="dim = 2 for a 1D kernel"):
            check(kernel, upto, dim=2)
        assert np.array_equal(check(kernel, upto, dim=1), check(kernel, upto))
    with pytest.raises(ValueError, match="dim = 2 for a 1D kernel"):
        weak_star_order(kernel, dim=2)
    assert weak_star_order(kernel, dim=1) == weak_star_order(kernel) == 3


def test_nonuniqueness_extra_direction_preserves_moments():
    base = solve_moment_problem(legendre_spec(1, 2, 3, s=1))
    extended = solve_moment_problem(legendre_spec(1, 2, 4, s=2))
    for kernel in (base, extended):
        assert np.max(np.abs(moment_residuals(kernel, 2))) <= 1e-10
    assert not np.allclose(extended.coeffs[:4], np.append(base.coeffs, 0.0)[:4])


def test_condition_estimate_present():
    system = assemble_moment_system(legendre_spec(1, 2, 3, s=1))
    assert system.condition_estimate > 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_eta_kernel_builds_one_profile():
    kernel = solve_moment_problem(legendre_spec(1, 2, 3, s=1))
    assert kernel.profile() is kernel.profile()


def test_json_carries_spec_and_exact_coefficients():
    kernel = solve_moment_problem(legendre_spec(1, 2, 5, s=2, origin=2), name="quintic")
    payload = json.loads(kernel.to_json())
    assert payload["coeffs"] == [4.5, 0.0, -150.0, 450.0, -472.5, 168.0]
    assert "monomial" not in payload
    assert payload["name"] == "quintic"
    assert payload["basis"] == "shifted_legendre"
    assert (payload["dim"], payload["m"], payload["p"]) == (1, 2, 5)
    assert (payload["boundary_smoothness"], payload["origin_smoothness"]) == (2, 2)
    assert payload["normalization"] == "surface_measure"


def test_cosine_kernel_serializes_without_monomial():
    kernel = solve_moment_problem(cosine_spec(1, 2, 3, s=1))
    payload = json.loads(kernel.to_json())
    assert "monomial" not in payload
    assert payload["basis"] == "cosine"
    assert payload["coeffs"] == list(kernel.coeffs)


# ---------------------------------------------------------------------------
# every admissible square problem: dim 1-2, m <= 4, boundary and origin
# smoothness <= 2 (cosine: <= 1), both bases -- 130 specs
# ---------------------------------------------------------------------------

def _square_specs():
    specs = []
    for dim in (1, 2):
        for m in range(5):
            for s in range(3):
                for origin in range(3):
                    p = m + s + max(origin - 1, 0)
                    specs.append(legendre_spec(dim, m, p, s=s, origin=origin))
                    if s <= 1 and origin <= 1:
                        specs.append(MomentProblemSpec(
                            dim=dim, moments=m, degree=p, basis=BasisFamily(BasisKind.COSINE, p),
                            boundary_smoothness=s, origin_smoothness=origin))
    return specs


SQUARE_SPECS = _square_specs()


def _spec_id(spec):
    return (f"{spec.basis.kind.value}-d{spec.dim}-m{spec.moments}"
            f"-s{spec.boundary_smoothness}-o{spec.origin_smoothness}")


def test_square_specs_are_the_admissible_space():
    assert len(SQUARE_SPECS) == len({_spec_id(spec) for spec in SQUARE_SPECS}) == 130


@pytest.mark.parametrize("spec", SQUARE_SPECS, ids=_spec_id)
def test_every_square_problem_meets_its_rows_and_weak_order(spec):
    system = assemble_moment_system(spec)
    kernel = solve_moment_problem(spec)
    bound = 1e-12 * system.condition_estimate
    x = kernel.coeffs * spec.normalization.nu(spec.dim)  # the system's own solution
    assert np.max(np.abs(np.asarray(system.matrix, dtype=float) @ x - system.rhs)) <= bound
    assert np.max(np.abs(radial_moment_residuals(kernel, spec.moments))) <= bound
    # weak-star rate H^(q+1), q the highest moment matched: odd ball moments
    # vanish by symmetry, so an even m also matches m + 1
    q = spec.moments + (spec.moments % 2 == 0)
    assert weak_star_order(kernel) == q
    Hs = [2.0**-k for k in range(1, 5)]
    deltas = [RegularizedDelta(dim=spec.dim, name="eta", profile=kernel.profile(),
                               half_width=H) for H in Hs]
    errors = [weak_star_error(delta) for delta in deltas]
    assert convergence_slope(Hs, errors).slope == pytest.approx(q + 1, abs=0.25)


def _reference_moment(prof, power: int) -> float:
    """Oracle: numpy.polynomial's polyint (from each piece's lo) and polyval at its hi,
    summed over the pieces; a cosine series takes the 32-point rule one power at a time."""
    if not prof.is_polynomial:
        return integrate_panels(lambda r: prof.eval(r) * r**power, prof.breakpoints,
                                gauss_legendre(32))
    total = 0.0
    for piece in prof.pieces:
        antideriv = polyint(np.concatenate([np.zeros(power), piece.coeffs]), lbnd=piece.lo)
        total += float(polyval(piece.hi, antideriv))
    return total


# the 21 catalog names, the 130 square specs, and pieces of unequal degree off 0
@pytest.mark.parametrize("prof", [catalog_lookup(name).profile() for name in catalog_names()]
                         + [solve_moment_problem(spec).profile() for spec in SQUARE_SPECS]
                         + [RadialProfile(pieces=(PolyPiece(0.0, 0.5, (1.0, 2.0, -3.0, 0.25)),
                                                  PolyPiece(0.5, 1.25, [0.75, -0.5]),
                                                  PolyPiece(1.25, 2.0, (2, -1))), support=2.0)])
def test_moments_over_many_powers_match_one_power_at_a_time(prof):
    powers = np.arange(9)
    expected = [_reference_moment(prof, int(k)) for k in powers]
    got = prof.moment(powers)
    assert got.shape == (9,)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected]
    single = prof.moment(3)
    assert type(single) is float and single.hex() == expected[3].hex()
    assert prof.moment(np.array([4, 0, 4])).tolist() == [expected[4], expected[0], expected[4]]


@pytest.mark.parametrize("name", ["eta_2_3_1d", "eta_cubic", "eta_2_cos_1d"])
def test_a_negative_moment_power_is_an_error(name):
    # a negative power would index the antiderivative table from its top degree
    prof = catalog_lookup(name).profile()
    for power in (-1, np.array([2, -1])):
        with pytest.raises(ValueError, match="moment powers must be >= 0, not -1"):
            prof.moment(power)


_POLYNOMIAL_CATALOG = [(e.name, catalog_lookup(e.name).spec) for e in catalog_entries()
                       if e.builder_spec and e.builder_spec.get("basis") != "cosine"]


@pytest.mark.parametrize(
    "system",
    [assemble_moment_system(spec) for spec in SQUARE_SPECS]
    + [assemble_moment_system(spec) for _, spec in _POLYNOMIAL_CATALOG] + [_scaled_quintic_system()],
    ids=[_spec_id(spec) for spec in SQUARE_SPECS] + [name for name, _ in _POLYNOMIAL_CATALOG]
    + ["scaled-quintic"])
def test_solve_dense_matches_the_fraction_reference_bit_for_bit(system):
    assert solve_dense(system).tolist() == _reference_solve(system).tolist()


def test_polynomial_catalog_has_twelve_specs():
    assert len(_POLYNOMIAL_CATALOG) == 12


@pytest.mark.parametrize("rows", [[[Fraction(0), 1.0], [Fraction(0), 2.0]],
                                  [[Fraction(1, 3), 1.0], [Fraction(2), 0.5]]])
def test_a_system_mixing_fractions_and_floats_solves_as_the_reference(rows):
    system = DenseLinearSystem(matrix=np.array(rows, dtype=object), rhs=np.ones(2))
    assert _outcome(solve_dense, system) == _outcome(_reference_solve, system)


def _small_exact_systems():
    # seeded integer and Fraction matrices, rank-deficient by construction in 2 of 3
    # (a row that combines two others, or a copy of one)
    rng = np.random.default_rng(34)
    cases = []
    for trial in range(600):
        n, fractions = int(rng.integers(1, 7)), trial % 2 == 1
        a = rng.integers(-4, 5, (n, n)).tolist()
        if fractions:
            a = [[Fraction(v, int(rng.integers(1, 7))) for v in row] for row in a]
        if n > 2 and trial % 3 == 1:
            i, j, k = (int(v) for v in rng.choice(n, 3, replace=False))
            c1, c2 = (Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
                      if fractions else int(rng.integers(-3, 4)) for _ in range(2))
            a[k] = [c1 * u + c2 * v for u, v in zip(a[i], a[j])]
        elif n > 1 and trial % 3 == 2:
            a[int(rng.integers(1, n))] = list(a[0])
        cases.append(DenseLinearSystem(matrix=np.array(a, dtype=object if fractions else int),
                                       rhs=rng.integers(-2, 3, n)))
    return cases


def test_exact_pivots_and_singular_messages_match_the_reference():
    # the integer path must solve as the Fraction reference does, or fail at its column
    # with its pivot and the label of the same permuted row
    near = DenseLinearSystem(matrix=np.array([[Fraction(1), Fraction(1)],
                                              [Fraction(1), 1 + Fraction(1, 10**14)]]),
                             rhs=np.ones(2, dtype=int))
    with pytest.raises(SingularSystemError, match=r"pivot 1\.000e-14 at column 1 "):
        solve_dense(near)
    singular = 0
    for system in _small_exact_systems() + [near]:
        as_fractions = np.vectorize(Fraction, otypes=[object])(system.matrix)
        got = _outcome(solve_dense, system)
        assert got == _outcome(_reference_solve, DenseLinearSystem(as_fractions, system.rhs))
        singular += isinstance(got, str)
    assert 150 < singular < 450, singular  # both solved and singular cases are checked


def test_weak_star_order_needs_unit_mass():
    with pytest.raises(ValueError, match="mass"):
        weak_star_order(poly_profile([1.0]), dim=1)  # mass 2


def test_weak_star_order_needs_a_moment_that_does_not_vanish_by_theta_8():
    # m = 8 matches every moment up to theta = 9
    kernel = solve_moment_problem(legendre_spec(1, 8, 8))
    with pytest.raises(ValueError, match="theta = 8"):
        weak_star_order(kernel)
    assert weak_star_order(solve_moment_problem(legendre_spec(1, 6, 6))) == 7
