import json
import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from deltareg.kernels import (
    UnknownKernelError,
    catalog_entries,
    catalog_json,
    catalog_lookup,
    catalog_names,
    tensor_product,
)
from deltareg.moments import moment_residuals
from deltareg.quadrature import (convergence_slope, gauss_legendre, integrate_panels,
                                 weak_star_error)

RNG = np.random.default_rng(1234)

REQUIRED_NAMES = {
    "eta_1_0_1d", "eta_1_1_1d", "eta_2_2_1d", "eta_2_3_1d", "eta_2_5_1d",
    "eta_1_1_2d", "eta_1_2_2d", "eta_2_2_2d", "eta_2_3_2d", "eta_2_5_2d",
    "eta_1_cos_1d", "eta_2_cos_1d", "eta_1_cos_2d", "eta_2_cos_2d",
    "eta_hat1", "eta_hat2", "eta_cos", "eta_cubic",
}


def test_catalog_contains_required_kernels():
    assert REQUIRED_NAMES <= set(catalog_names())


def test_unknown_name_lists_available():
    with pytest.raises(UnknownKernelError, match="eta_1_0_1d"):
        catalog_lookup("eta_bogus")


def test_eval_examples():
    box = catalog_lookup("eta_1_0_1d")(0.25)
    assert box.eval(0.1) == pytest.approx(2.0, abs=1e-14)
    hat = catalog_lookup("eta_1_1_1d")(1.0)
    assert hat.eval(1.0) == 0.0
    assert hat.eval(-1.0) == 0.0


def test_tensor_peak_value():
    # each axis has half-width H / sqrt(2), so the peak is 1 / h^2 = 2 / H^2
    H = 0.5
    delta = tensor_product("eta_1_1_1d", H)
    assert delta.eval([0.0, 0.0]) == pytest.approx(2.0 / H**2, abs=1e-12)


@pytest.mark.parametrize("name, half_width", [("eta_1_1_1d", 1 / math.sqrt(2)),
                                              ("eta_hat2", 1 / (2 * math.sqrt(2)))],
                         ids=["support-1", "support-2"])
def test_tensor_square_fits_the_ball(name, half_width):
    delta = tensor_product(catalog_lookup(name), 1.0)
    assert delta.half_width == pytest.approx(half_width, abs=1e-15)
    assert delta.support_radius == pytest.approx(1.0, abs=1e-14)
    # support is the full square: nonzero just inside its corners, zero just outside
    assert delta.eval([0.7, 0.7]) > 0.0
    assert delta.eval([0.71, 0.0]) == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_kernels_reject_a_support_scale_that_is_not_positive_and_finite(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        catalog_lookup("eta_1_1_1d")(bad)
    with pytest.raises(ValueError, match="positive and finite"):
        tensor_product("eta_1_1_1d", bad)


@pytest.mark.parametrize("name", ["eta_2_3_2d", "eta_2_cos_2d"])
def test_eval_radial_matches_eval_on_the_axis(name):
    delta = catalog_lookup(name)(0.125)
    r = np.arange(20481) * (1.0 / 20480)
    on_axis = delta.eval(np.stack([r, np.zeros_like(r)], axis=-1))
    assert np.array_equal(delta.eval_radial(r), on_axis)
    assert on_axis[0] > 0.0 and on_axis[-1] == 0.0


def test_eval_radial_rejects_tensor_kernels():
    tens = tensor_product("eta_1_1_1d", 0.5)
    with pytest.raises(ValueError, match="not a radial kernel"):
        tens.eval_radial(np.array([0.1]))


def test_tensor_rejects_2d_axis():
    with pytest.raises(ValueError, match="must be 1D kernels"):
        tensor_product("eta_1_1_2d", 0.5)


def test_cubic_pieces_agree_at_join():
    builder = catalog_lookup("eta_cubic")
    prof = builder.profile()
    left, right = prof.pieces
    # both printed pieces evaluate to zero at |z| = 1
    assert np.polyval(left.coeffs[::-1], 1.0) == pytest.approx(0.0, abs=1e-15)
    assert np.polyval(right.coeffs[::-1], 1.0) == pytest.approx(0.0, abs=1e-15)


# jumps of the printed eta_cubic pieces' derivatives (orders 0-3), worked by
# hand: at z = 1 the outer piece minus the inner one, at z = 2 zero minus the
# outer piece
def test_cubic_profile_jumps():
    inner, outer = catalog_lookup("eta_cubic").profile().pieces

    def d(piece, z, order):
        return polyval(z, polyder(piece.coeffs, order))

    jumps = [d(outer, 1.0, order) - d(inner, 1.0, order) for order in range(4)]
    assert jumps == pytest.approx([0.0, 2 / 3, 0.0, -4.0], abs=1e-14)
    jumps = [-d(outer, 2.0, order) for order in range(4)]
    assert jumps == pytest.approx([0.0, -1 / 6, 0.0, 1.0], abs=1e-14)


def test_hat2_profile_value_at_origin():
    prof = catalog_lookup("eta_hat2").profile()
    assert prof.eval(0.0) == pytest.approx(0.5, abs=1e-15)


def test_quintic_endpoint_conditions():
    prof = catalog_lookup("eta_2_5_1d").profile()
    slope = polyder(prof.pieces[0].coeffs)
    assert abs(prof.eval(1.0)) <= 1e-10
    assert abs(polyval(1.0, slope)) <= 1e-10
    assert abs(polyval(0.0, slope)) <= 1e-10


@pytest.mark.parametrize("name", sorted(REQUIRED_NAMES))
def test_even_symmetry(name):
    builder = catalog_lookup(name)
    delta = builder(0.5)
    if builder.entry.dim == 1:
        xs = RNG.uniform(-1.5, 1.5, 64)
        assert np.allclose(delta.eval(xs), delta.eval(-xs), atol=0.0)
    else:
        pts = RNG.uniform(-0.6, 0.6, (64, 2))
        assert np.allclose(delta.eval(pts), delta.eval(-pts), atol=0.0)


def _radial_mass(delta):
    prof = delta.profile
    h = delta.half_width
    rule = gauss_legendre(48)
    edges = np.asarray(prof.breakpoints) * h
    if delta.dim == 1:
        return 2.0 * integrate_panels(lambda x: delta.eval(x), edges, rule)
    return 2.0 * np.pi * integrate_panels(
        lambda r: delta.eval(np.stack([r, 0 * r], axis=-1)) * r, edges, rule)


@pytest.mark.parametrize("name", sorted(REQUIRED_NAMES))
def test_mass_is_scale_invariant_and_unit(name):
    builder = catalog_lookup(name)
    masses = [_radial_mass(builder(H)) for H in (1.0, 0.5, 0.25)]
    assert max(masses) - min(masses) <= 1e-10
    assert masses[0] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", sorted(REQUIRED_NAMES))
def test_catalog_moment_residuals(name):
    builder = catalog_lookup(name)
    res = moment_residuals(builder.profile(), builder.weak_order, dim=builder.entry.dim)
    assert np.max(np.abs(res)) <= 1e-10


# the weak-* rate H^(q+1) the weak-star gate expects, q the order derived from the
# kernel's moments; a tensor square takes its axis profile's order
@pytest.mark.parametrize("name", catalog_names() + [
    f"tensor:{name}" for name in ("eta_1_1_1d", "eta_2_3_1d", "eta_2_5_1d", "eta_cubic")])
def test_weak_star_slope_matches_the_derived_order(name):
    builder = catalog_lookup(name.removeprefix("tensor:"))
    Hs = [2.0**-k for k in range(2, 7)]
    deltas = [tensor_product(builder, H) if name.startswith("tensor:") else builder(H)
              for H in Hs]
    slope = convergence_slope(Hs, [weak_star_error(delta) for delta in deltas]).slope
    assert abs(slope - (builder.weak_order + 1)) <= 0.1


# |<delta_H, 1> - 1|, the mass defect, stays at rounding level for every kernel the
# studies run, so it cannot reach a weak-star cell (worst 4.2e-14, tensor:eta_2_3_1d)
@pytest.mark.parametrize("H", [2.0**-2, 2.0**-6])
@pytest.mark.parametrize("name", catalog_names() + ["tensor:eta_1_1_1d", "tensor:eta_2_3_1d"])
def test_mass_defect_is_at_rounding_level(name, H):
    delta = (tensor_product(name.removeprefix("tensor:"), H) if name.startswith("tensor:")
             else catalog_lookup(name)(H))
    assert weak_star_error(delta, phi=lambda *x: 1.0) < 1e-13


def test_tensor_ball_mass_differs_from_full_mass():
    H = 0.5
    tens = tensor_product("eta_1_1_1d", H)
    # mass restricted to the ball inscribed in the square, of radius H / sqrt(2),
    # by nested quadrature
    R = H / math.sqrt(2)
    rule = gauss_legendre(40)
    xs, ws = rule.mapped(-R, R)

    def strip(x):
        half = math.sqrt(max(R * R - x * x, 0.0))
        if half == 0.0:
            return 0.0
        yn, yw = rule.mapped(-half, half)
        pts = np.stack([np.full_like(yn, x), yn], axis=-1)
        return float(np.dot(yw, tens.eval(pts)))

    ball_mass = float(np.dot(ws, [strip(x) for x in xs]))
    assert ball_mass < 0.999  # hypercube corners carry real mass
    radial = catalog_lookup("eta_1_1_2d")(H)
    assert _radial_mass(radial) == pytest.approx(1.0, abs=1e-10)


def test_catalog_json_round_trip():
    rows = json.loads(catalog_json())
    names = {row["name"] for row in rows}
    assert REQUIRED_NAMES <= names
    for row in rows:
        assert set(row) == {"name", "dim", "moments", "weak_order", "smoothness",
                            "closed_form", "source", "support_factor"}


def test_entries_carry_builder_specs_for_table_kernels():
    for entry in catalog_entries():
        if entry.source == "table1":
            assert entry.builder_spec is not None


# a Table-1 label is the imposed boundary constraint, not the smoothness attained
def test_table1_smoothness_is_the_imposed_boundary_constraint():
    table1 = [e for e in catalog_entries() if e.source == "table1"]
    assert len(table1) == 16
    for e in table1:
        s = e.builder_spec["s"]
        assert e.smoothness == ("L1" if s == 0 else f"C{s - 1}"), e.name
