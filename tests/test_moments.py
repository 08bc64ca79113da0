import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyval

import deltareg
from deltareg.kernels import RegularizedDelta, catalog_entries, catalog_lookup
from deltareg.moments import (
    BasisFamily,
    BasisKind,
    DenseLinearSystem,
    MomentProblemSpec,
    MomentSystemError,
    Normalization,
    SingularSystemError,
    assemble_moment_system,
    _basis_values,
    _first_small_pivot,
    _legendre_to_monomial,
    moment_residuals,
    radial_moment_residuals,
    solve_dense,
    solve_moment_problem,
)
from deltareg.quadrature import convergence_slope, gauss_legendre, weak_star_error

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


def closed_form_legendre(k, r):
    # independent oracle: alternating binomial sum in exact rational arithmetic
    from fractions import Fraction

    rq = Fraction(r)
    total = Fraction(0)
    for j in range(k + 1):
        total += math.comb(k, j) * math.comb(k + j, j) * (-rq) ** j
    return (-1) ** k * math.sqrt(2 * k + 1) * float(total)


def legendre(k, r):
    """Orthonormal shifted Legendre psi_k at r, from the moment layer's basis helper."""
    return _basis_values(BasisFamily(BasisKind.SHIFTED_LEGENDRE, k), r)[:, k]


# ---------------------------------------------------------------------------
# shifted Legendre basis
# ---------------------------------------------------------------------------

def test_legendre_examples():
    assert legendre(0, 0.7) == pytest.approx([1.0], abs=1e-15)
    assert legendre(1, 0.5) == pytest.approx([0.0], abs=1e-15)
    assert legendre(1, 1.0) == pytest.approx([math.sqrt(3)], abs=1e-14)


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_legendre_recurrence_matches_closed_form(k, r):
    assert legendre(k, r)[0] == pytest.approx(
        closed_form_legendre(k, r), abs=1e-12, rel=1e-12)


def test_legendre_orthonormality():
    rule = gauss_legendre(14)
    nodes = 0.5 * (rule.nodes + 1.0)
    weights = 0.5 * rule.weights
    psi = _basis_values(BasisFamily(BasisKind.SHIFTED_LEGENDRE, 12), nodes)
    assert psi.T @ (weights[:, None] * psi) == pytest.approx(np.eye(13), abs=1e-12)


def test_monomial_conversion_matches_eval():
    # column k of the Legendre-to-monomial matrix against the closed form of
    # psi_k; raw high-degree monomial sums cancel, so the tolerance is looser
    # than the kernel-level round-trip bound tested below
    to_monomial = _legendre_to_monomial(8)
    for k in range(9):
        for r in np.linspace(0, 1, 7):
            assert np.polyval(to_monomial[::-1, k], r) == pytest.approx(
                closed_form_legendre(k, r), abs=1e-10)


# ---------------------------------------------------------------------------
# system assembly
# ---------------------------------------------------------------------------

def test_assemble_mass_only_is_one_by_one():
    system = assemble_moment_system(legendre_spec(1, 0, 0))
    assert system.matrix.shape == (1, 1)
    beta = solve_dense(system)
    assert beta[0] == pytest.approx(0.5, abs=1e-14)


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
    assert kernel.monomial == pytest.approx([18 / PI, -24 / PI], abs=1e-12)


def test_solver_row_scaling_invariance():
    system = assemble_moment_system(legendre_spec(1, 2, 5, s=2, origin=2))
    base = solve_dense(system)
    scales = np.array([2.0**s for s in (-3, 5, 1, -7, 2, 4)])
    scaled = DenseLinearSystem(
        matrix=system.matrix * scales[:, None],
        rhs=system.rhs * scales,
        condition_estimate=system.condition_estimate,
        row_labels=system.row_labels,
    )
    assert solve_dense(scaled) == pytest.approx(base, abs=1e-12)


def test_singular_system_fails_loudly():
    mat = np.array([[1.0, 2.0], [2.0, 4.0]])
    system = DenseLinearSystem(matrix=mat, rhs=np.array([1.0, 2.0]),
                               condition_estimate=np.inf,
                               row_labels=("mass", "dup"))
    with pytest.raises(SingularSystemError, match="pivot"):
        solve_dense(system)


def test_singular_pivot_names_its_row_through_the_permutation():
    # the first pivot swaps 'c' to the top, so the zero pivot of column 2 is row 'a'
    mat = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    system = DenseLinearSystem(matrix=mat, rhs=np.ones(3), condition_estimate=np.inf,
                               row_labels=("a", "b", "c"))
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
    system = DenseLinearSystem(matrix=mat, rhs=np.ones(2), condition_estimate=np.inf,
                               row_labels=("mass", "tiny"))
    with pytest.raises(SingularSystemError,
                       match=r"^singular moment system: pivot \S+ at column 1 "
                             r"\(constraint 'tiny'\)$"):
        solve_dense(system)


def test_pivot_check_matches_getrf():
    # the check repeats getrf's elimination; both must stop at the same column, and,
    # unless the candidates there are all rounding noise, name the same row
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
        got = _first_small_pivot(a.tolist())
        assert (got is None) == (small.size == 0)
        if got is None:
            continue
        col, perm = int(small[0]), list(range(n))
        for i, p in enumerate(piv[: col + 1]):  # getrf swaps row i with row p, in order
            perm[i], perm[p] = perm[p], perm[i]
        assert got[0] == col and abs(got[2]) < 1e-13
        assert noise_tie or got[1] == perm[col]


def test_pivot_above_threshold_solves():
    # equilibrated pivot about 1e-12, ten times the threshold
    mat = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]])
    system = DenseLinearSystem(matrix=mat, rhs=np.array([1.0, 2.0]), condition_estimate=np.inf)
    x1 = 1.0 / (mat[1, 1] - 1.0)
    assert solve_dense(system) == pytest.approx([1.0 - x1, x1], rel=1e-6)


def test_package_imports_and_solves_without_scipy():
    # scipy serves only the 2D studies' Bessel functions (scipy.special); the package,
    # its CLI and the moment solve must not load scipy, and the Sobolev study loads
    # no more of it than scipy.special; importing builds no Green's-function table
    code = (
        "import sys, deltareg, deltareg.cli\n"
        "print(deltareg.elliptic._greens_factors.cache_info().currsize)\n"
        "from deltareg.moments import BasisFamily, BasisKind, MomentProblemSpec, "
        "solve_moment_problem\n"
        "solve_moment_problem(MomentProblemSpec(dim=2, moments=2, degree=3, "
        "basis=BasisFamily(BasisKind.SHIFTED_LEGENDRE, 3), boundary_smoothness=1))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "from deltareg.reports import parse_config_text, run_study\n"
        "report = run_study(parse_config_text('study = helmholtz2d_sobolev\\n"
        "kernels = eta_2_3_2d\\nH = 2^-2..2^-3'))\n"
        "assert not report.had_error and len(report.rows) == 6\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))\n"
    )
    src = str(Path(deltareg.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split("\n")[:3] == ["0", "[]", "[]"]


# ---------------------------------------------------------------------------
# printed Table-1 kernels (coefficient regeneration and the catalog profiles)
# ---------------------------------------------------------------------------

# Printed Table-1 forms as (catalog name, moment problem, coefficients): monomial
# coefficients for the polynomial kernels, cosine weights for the trigonometric
# ones; the 2D forms carry the printed nu(2) = pi convention.
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
    ("eta_0_1_2d", legendre_spec(2, 0, 1, s=1, norm=P2), [6 / PI, -6 / PI]),
    ("eta_1_1_2d", legendre_spec(2, 1, 1, norm=P2), [18 / PI, -24 / PI]),
    ("eta_1_2_2d", legendre_spec(2, 1, 2, s=1, norm=P2), [36 / PI, -96 / PI, 60 / PI]),
    ("eta_2_2_2d", legendre_spec(2, 2, 2, norm=P2), [72 / PI, -240 / PI, 180 / PI]),
    ("eta_2_3_2d", legendre_spec(2, 2, 3, s=1, norm=P2),
     [120 / PI, -600 / PI, 900 / PI, -420 / PI]),
    ("eta_2_5_2d", legendre_spec(2, 2, 5, s=2, origin=2, norm=P2),
     [84 / PI, 0.0, -2100 / PI, 5880 / PI, -5880 / PI, 2016 / PI]),
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


@pytest.mark.parametrize("spec,expected", [(spec, c) for _, spec, c in TABLE_1D + TABLE_2D])
def test_polynomial_kernel_regeneration(spec, expected):
    kernel = solve_moment_problem(spec)
    assert kernel.monomial == pytest.approx(expected, abs=1e-10)


def test_printed_forms_cover_every_table1_kernel():
    table1 = {e.name for e in catalog_entries() if e.source == "table1"}
    assert sorted(name for name, _, _ in PRINTED) == sorted(table1)


@pytest.mark.parametrize("name,spec,printed", PRINTED, ids=[row[0] for row in PRINTED])
def test_catalog_profile_matches_printed_form(name, spec, printed):
    # the catalog solves under SurfaceMeasure, nu(2) = 2 pi: half the printed 2D form
    prof = catalog_lookup(name).profile()
    coeffs = np.asarray(prof.pieces[0].coeffs if prof.is_polynomial else prof.cos_coeffs)
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
    slope = polyder(kernel.monomial)
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


def test_round_trip_basis_to_monomial():
    kernel = solve_moment_problem(legendre_spec(1, 2, 5, s=2, origin=2))
    rs = np.linspace(0.0, 1.0, 100)
    from_basis = _basis_values(kernel.spec.basis, rs) @ kernel.coeffs
    from_monomial = np.polyval(kernel.monomial[::-1], rs)
    assert np.max(np.abs(from_basis - from_monomial)) <= 1e-11


def test_nonuniqueness_extra_direction_preserves_moments():
    base = solve_moment_problem(legendre_spec(1, 2, 3, s=1))
    extended = solve_moment_problem(legendre_spec(1, 2, 4, s=2))
    for kernel in (base, extended):
        assert np.max(np.abs(moment_residuals(kernel, 2))) <= 1e-10
    assert not np.allclose(extended.monomial[:4], np.append(base.monomial, 0.0)[:4])


def test_condition_estimate_present():
    system = assemble_moment_system(legendre_spec(1, 2, 3, s=1))
    assert system.condition_estimate > 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_carries_spec_and_exact_coefficients():
    kernel = solve_moment_problem(legendre_spec(1, 2, 5, s=2, origin=2), name="quintic")
    payload = json.loads(kernel.to_json())
    assert payload["coeffs"] == list(kernel.coeffs)
    assert payload["monomial"] == list(kernel.monomial)
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
    assert np.max(np.abs(system.matrix @ kernel.coeffs - system.rhs)) <= bound
    assert np.max(np.abs(radial_moment_residuals(kernel, spec.moments))) <= bound
    # weak-star rate H^(q+1), q the highest moment matched: odd ball moments
    # vanish by symmetry, so an even m also matches m + 1
    q = spec.moments + (spec.moments % 2 == 0)
    Hs = [2.0**-k for k in range(1, 5)]
    deltas = [RegularizedDelta(dim=spec.dim, name="eta", profile=kernel.profile(),
                               half_width=H) for H in Hs]
    errors = [weak_star_error(delta) for delta in deltas]
    assert convergence_slope(Hs, errors).slope == pytest.approx(q + 1, abs=0.25)
