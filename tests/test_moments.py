import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltareg.moments import (
    BasisFamily,
    BasisKind,
    DenseLinearSystem,
    EtaKernel,
    MomentProblemSpec,
    MomentSystemError,
    Normalization,
    SingularSystemError,
    assemble_moment_system,
    moment_residuals,
    radial_moment_residuals,
    shifted_legendre_eval,
    shifted_legendre_monomial,
    solve_dense,
    solve_moment_problem,
)
from deltareg.quadrature import gauss_legendre

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


# ---------------------------------------------------------------------------
# shifted Legendre basis
# ---------------------------------------------------------------------------

def test_legendre_examples():
    assert shifted_legendre_eval(0, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert shifted_legendre_eval(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert shifted_legendre_eval(1, 1.0) == pytest.approx(math.sqrt(3), abs=1e-14)


def test_legendre_domain_error():
    with pytest.raises(MomentSystemError):
        shifted_legendre_eval(2, 1.2)
    with pytest.raises(MomentSystemError):
        shifted_legendre_eval(2, -0.1)


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_legendre_recurrence_matches_closed_form(k, r):
    assert shifted_legendre_eval(k, r) == pytest.approx(
        closed_form_legendre(k, r), abs=1e-12, rel=1e-12)


def test_legendre_orthonormality():
    rule = gauss_legendre(14)
    nodes = 0.5 * (rule.nodes + 1.0)
    weights = 0.5 * rule.weights
    for j in range(13):
        pj = shifted_legendre_eval(j, nodes)
        for k in range(j, 13):
            pk = shifted_legendre_eval(k, nodes)
            inner = float(np.dot(weights, pj * pk))
            assert inner == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


def test_monomial_conversion_matches_eval():
    # raw high-degree monomial sums cancel, so the tolerance is looser than the
    # kernel-level round-trip bound tested below
    for k in range(9):
        coeffs = shifted_legendre_monomial(k)
        for r in np.linspace(0, 1, 7):
            assert np.polyval(coeffs[::-1], r) == pytest.approx(
                shifted_legendre_eval(k, r), abs=1e-10)


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


# ---------------------------------------------------------------------------
# printed polynomial kernels (coefficient regeneration)
# ---------------------------------------------------------------------------

TABLE_1D = [
    (legendre_spec(1, 0, 0), [0.5]),
    (legendre_spec(1, 0, 1, s=1), [1.0, -1.0]),
    (legendre_spec(1, 2, 2), [4.5, -18.0, 15.0]),
    (legendre_spec(1, 2, 3, s=1), [6.0, -36.0, 60.0, -30.0]),
    (legendre_spec(1, 2, 5, s=2, origin=2), [4.5, 0.0, -150.0, 450.0, -472.5, 168.0]),
]

TABLE_2D = [
    (legendre_spec(2, 0, 1, s=1, norm=Normalization.PAPER_TABLE1_2D),
     [6 / PI, -6 / PI]),
    (legendre_spec(2, 1, 1, norm=Normalization.PAPER_TABLE1_2D),
     [18 / PI, -24 / PI]),
    (legendre_spec(2, 1, 2, s=1, norm=Normalization.PAPER_TABLE1_2D),
     [36 / PI, -96 / PI, 60 / PI]),
    (legendre_spec(2, 2, 2, norm=Normalization.PAPER_TABLE1_2D),
     [72 / PI, -240 / PI, 180 / PI]),
    (legendre_spec(2, 2, 3, s=1, norm=Normalization.PAPER_TABLE1_2D),
     [120 / PI, -600 / PI, 900 / PI, -420 / PI]),
    (legendre_spec(2, 2, 5, s=2, origin=2, norm=Normalization.PAPER_TABLE1_2D),
     [84 / PI, 0.0, -2100 / PI, 5880 / PI, -5880 / PI, 2016 / PI]),
]


@pytest.mark.parametrize("spec,expected", TABLE_1D + TABLE_2D)
def test_polynomial_kernel_regeneration(spec, expected):
    kernel = solve_moment_problem(spec)
    assert kernel.monomial == pytest.approx(expected, abs=1e-10)


def test_quadratic_without_continuity_is_discontinuous():
    kernel = solve_moment_problem(legendre_spec(1, 2, 2))
    assert abs(kernel.eval(1.0)) > 1.0  # non-vanishing at the support edge


# ---------------------------------------------------------------------------
# trigonometric kernels
# ---------------------------------------------------------------------------

def test_cosine_zero_moment_1d():
    kernel = solve_moment_problem(cosine_spec(1, 0, 1, s=1))
    # boundary constraint eta(1) = 0 fixes the cosine weight to +1/2
    assert kernel.coeffs == pytest.approx([0.5, 0.5], abs=1e-12)
    assert kernel.eval(1.0) == pytest.approx(0.0, abs=1e-14)


def test_cosine_two_moment_1d_closed_form():
    kernel = solve_moment_problem(cosine_spec(1, 2, 3, s=1))
    expected = [0.5, 23 * PI**2 / 192 - 1 / 16, PI**2 / 6, 3 * PI**2 / 64 + 9 / 16]
    assert kernel.coeffs == pytest.approx(expected, abs=1e-10)


def test_cosine_zero_moment_2d_closed_form():
    spec = cosine_spec(2, 0, 1, s=1, norm=Normalization.PAPER_TABLE1_2D)
    kernel = solve_moment_problem(spec)
    c = 2 * PI / (PI**2 - 4)
    assert kernel.coeffs == pytest.approx([c, c], abs=1e-12)


def test_cosine_two_moment_2d_closed_form():
    spec = cosine_spec(2, 2, 3, s=1, norm=Normalization.PAPER_TABLE1_2D)
    kernel = solve_moment_problem(spec)
    d = 9 * PI**4 - 104 * PI**2 + 48
    expected = [
        -144 * PI / d,
        -PI * (45 * PI**4 + 32 * PI**2 - 48) / (16 * d),
        -2 * PI * (9 * PI**4 - 80 * PI**2 + 48) / d,
        -81 * PI * (3 * PI**4 - 32 * PI**2 + 48) / (16 * d),
    ]
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
    prof = kernel.profile()
    assert abs(prof.eval(1.0)) <= 1e-10
    assert abs(prof.deriv(1.0)) <= 1e-10
    assert abs(prof.deriv(0.0)) <= 1e-10


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
    from_basis = sum(
        b * shifted_legendre_eval(j, rs) for j, b in enumerate(kernel.coeffs))
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

def test_json_round_trip_is_bit_faithful():
    kernel = solve_moment_problem(legendre_spec(1, 2, 5, s=2, origin=2), name="quintic")
    text = kernel.to_json()
    back = EtaKernel.from_json(text)
    assert list(back.coeffs) == list(kernel.coeffs)
    assert list(back.monomial) == list(kernel.monomial)
    assert back.spec == kernel.spec
    assert back.to_json() == text
    payload = json.loads(text)
    assert payload["name"] == "quintic"
    assert payload["basis"] == "shifted_legendre"


def test_cosine_kernel_serializes_without_monomial():
    kernel = solve_moment_problem(cosine_spec(1, 2, 3, s=1))
    payload = json.loads(kernel.to_json())
    assert "monomial" not in payload
    back = EtaKernel.from_json(kernel.to_json())
    assert back.eval(0.3) == pytest.approx(kernel.eval(0.3), abs=1e-15)
