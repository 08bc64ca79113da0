import importlib.resources
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltareg.kernels import RegularizedDelta, catalog_lookup, catalog_names, tensor_product
from deltareg.profiles import PolyPiece, RadialProfile, poly_profile
from deltareg.quadrature import (
    QuadratureError,
    _gaussian,
    _weak_star_sums,
    convergence_slope,
    gauss_legendre,
    integrate_panels,
    weak_star_error,
    weak_star_errors,
)


def test_order_one_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], abs=1e-15)


def test_order_two_rule_closed_form():
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_order_five_on_x8():
    # analytic integral of x^8 over [-1, 1] is 2/9; exactness degree is 9
    rule = gauss_legendre(5)
    val = float(np.dot(rule.weights, rule.nodes**8))
    assert val == pytest.approx(2.0 / 9.0, abs=1e-15)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 32, 128, 192])
def test_exactness_and_weight_sum(order):
    rule = gauss_legendre(order)
    assert float(np.sum(rule.weights)) == pytest.approx(2.0, abs=1e-13)
    for degree in range(2 * order):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        val = float(np.dot(rule.weights, rule.nodes**degree))
        assert val == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("order", [2, 3, 5, 8, 12, 20, 32])
def test_newton_residual(order):
    # |P_order(node)| <= 1e-14 in the range of orders the studies use
    rule = gauss_legendre(order)
    t = rule.nodes
    p_prev, p = np.ones_like(t), t.copy()
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * t * p - (k - 1) * p_prev) / k
    resid = p if order > 1 else p_prev
    assert np.max(np.abs(resid)) <= 1e-14


def test_integrate_polynomial():
    val = integrate_panels(lambda x: x**2, [0.0, 1.0], gauss_legendre(3))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_integrate_gaussian_against_high_order_oracle():
    # oracle: single-panel order-64 rule
    oracle = integrate_panels(lambda x: np.exp(-(x**2)), [-1.0, 1.0], gauss_legendre(64))
    assert oracle == pytest.approx(1.4936482656, abs=1e-9)
    val = integrate_panels(lambda x: np.exp(-(x**2)), np.linspace(-1.0, 1.0, 5),
                           gauss_legendre(20))
    assert val == pytest.approx(oracle, abs=1e-14)


def test_integrate_abs_kink_on_panel_boundary():
    val = integrate_panels(np.abs, [-1.0, 0.0, 1.0], gauss_legendre(10))
    assert val == pytest.approx(1.0, abs=1e-15)


def _integrate_panel_by_panel(f, edges, rule):
    """Reference: one call of f and one dot per panel, skipping zero-width panels."""
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        x, w = rule.mapped(lo, hi)
        total += float(np.dot(w, f(x)))
    return total


@pytest.mark.parametrize("order", [1, 5, 12, 24, 96])
@pytest.mark.parametrize("edges", [
    [0.0, 1.0],
    [-1.0, -0.25, 0.0, 0.0, 0.5, 1.0],  # a zero-width panel inside
    [0.0, 0.0, 0.125, 0.25, 0.25, 0.25, 1.0],  # zero-width panels at the start and repeated
    list(np.sort(np.random.default_rng(7).uniform(-2.0, 3.0, 40))),
])
def test_integrate_panels_matches_panel_by_panel_sum(order, edges):
    rule = gauss_legendre(order)
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(np.sin(3.0 * x)) * (1.0 + x * x)

    got = integrate_panels(f, edges, rule)
    assert got == _integrate_panel_by_panel(f, np.asarray(edges), rule)
    assert calls[0] == (order * int(np.count_nonzero(np.diff(edges) > 0)),)


def test_weak_star_box_kernel_against_direct_oracle():
    H = 0.5
    delta = catalog_lookup("eta_1_0_1d")(H)
    # oracle: order-64 Gauss on the exact integrand over the support
    rule = gauss_legendre(64)
    inner = integrate_panels(lambda x: np.exp(-(x**2)) / (2 * H), [-H, 0.0, H], rule)
    expected = abs(1.0 - inner)
    measured = weak_star_error(delta)
    assert measured == pytest.approx(expected, abs=1e-12)
    # leading-order size H^2/3
    assert measured == pytest.approx(H**2 / 3.0, rel=0.15)


def test_weak_star_two_moment_ratio_sixteen():
    builder = catalog_lookup("eta_2_3_1d")
    e1 = weak_star_error(builder(1 / 8))
    e2 = weak_star_error(builder(1 / 16))
    assert e1 / e2 == pytest.approx(16.0, rel=0.03)


def test_weak_star_doubles_order_up_to_192():
    # the narrow Lorentzian needs order 192 (24 -> 48 -> 96 -> 192) to settle;
    # oracle: scipy.integrate.quad on the same integrand
    delta = catalog_lookup("eta_1_1_1d")(0.5)
    val = weak_star_error(delta, phi=lambda x: 1.0 / (1.0 + ((x - 0.125) / 0.05) ** 2))
    assert val == pytest.approx(0.0710773122544052, abs=1e-14)


def test_weak_star_constant_test_function_is_mass():
    delta = catalog_lookup("eta_2_3_1d")(0.25)
    val = weak_star_error(delta, phi=lambda x: np.ones_like(x))
    assert val <= 1e-12


def test_weak_star_radial_2d_anisotropic_test_function():
    # oracle: scipy.integrate.dblquad of delta_H * phi in polar coordinates
    delta = catalog_lookup("eta_1_1_2d")(0.5)
    val = weak_star_error(delta, phi=lambda x, y: np.exp(-(x**2) - 4 * y**2))
    assert val == pytest.approx(0.1104040125256, abs=1e-12)


# the tensor path integrates the square of a 1D kernel against a separable phi;
# it must factor into the two 1D radial-path integrals at the square's half-width
@pytest.mark.parametrize("name, H", [("eta_2_3_1d", 0.25), ("eta_1_2_1d", 0.25),
                                     ("eta_cubic", 0.5), ("eta_cos", 0.5)])
def test_weak_star_tensor_path_factors_into_radial_paths(name, H):
    def f(x):
        return np.exp(0.8 * x) * np.cos(3 * x)

    def g(y):
        return 1.0 / (1.0 + ((y - 0.1) / 0.3) ** 2)

    builder = catalog_lookup(name)
    tensor = tensor_product(builder, H)
    axis = builder(tensor.half_width)
    for order in (24, 48):
        product = _weak_star_sums([axis], f, order)[0] * _weak_star_sums([axis], g, order)[0]
        assert _weak_star_sums([tensor], lambda x, y: f(x) * g(y), order)[0] == pytest.approx(
            product, abs=1e-13)


def test_weak_star_covers_a_support_wider_than_two():
    # eta_hat2 at H = 1.5 reaches |x| = 3; oracle: 80-point Gauss on [-3, 0] and
    # [0, 3] of the printed hat 1/4 (2 - |x| / H) / H against exp(-x^2)
    H = 1.5
    nodes, weights = np.polynomial.legendre.leggauss(80)
    mass = 0.0
    for lo, hi in ((-3.0, 0.0), (0.0, 3.0)):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        mass += 0.5 * (hi - lo) * np.dot(weights, 0.25 * (2.0 - np.abs(x) / H) / H * np.exp(-x**2))
    delta = catalog_lookup("eta_hat2")(H)
    assert delta.support_radius == 3.0
    assert weak_star_error(delta) == pytest.approx(abs(mass - 1.0), abs=1e-13)


@pytest.mark.parametrize("name", catalog_names())
def test_weak_star_order_doubling_floor(name):
    # doubling the base order 24 moves the sum by <= 1e-12 at H >= 1/64
    delta = catalog_lookup(name)(1 / 64)
    [a] = _weak_star_sums([delta], _gaussian, 24)
    [b] = _weak_star_sums([delta], _gaussian, 48)
    assert abs(a - b) <= 1e-12


def _per_call_weak_star_once(delta, phi, order: int) -> float:
    """Oracle: the weak-star sum that builds nodes, weights and eta on every call."""
    rule = gauss_legendre(order)
    prof, h = delta.profile, delta.half_width
    if delta.is_radial:
        # angles 0 and pi give the 1D directions +1 and -1
        n_dir, nu = (2, 2.0) if delta.dim == 1 else (order, 2.0 * np.pi)
        theta = 2.0 * np.pi * np.arange(n_dir) / n_dir
        dirs = (np.cos(theta), np.sin(theta))[: delta.dim]
        mean_w = np.full(n_dir, 1.0 / n_dir)

        def integrand(rho):
            r = h * rho[:, None]
            vals = phi(*(r * d for d in dirs))
            mean_phi = vals @ mean_w if np.ndim(vals) else vals  # a constant phi may be scalar
            return prof.eval(rho) * rho ** (delta.dim - 1) * mean_phi

        return nu * integrate_panels(integrand, prof.breakpoints, rule)
    # the square: the 1D rule on each axis, nodes h rho_i s (s = +-1, i-major)
    # weighing w_i eta(rho_i)
    bps = prof.breakpoints
    rho, w = (np.concatenate(a) for a in zip(*(rule.mapped(lo, hi)
                                               for lo, hi in zip(bps[:-1], bps[1:]))))
    x = np.stack([h * rho, -(h * rho)], axis=1).ravel()
    wx = np.repeat(w * prof.eval(rho), 2)
    return float(wx @ (phi(x[:, None], x[None, :]) @ wx))


def _make_kernel(spec: str, H: float) -> RegularizedDelta:
    if spec.startswith("tensor:"):
        return tensor_product(spec.split(":", 1)[1], H)
    return catalog_lookup(spec)(H)


@pytest.mark.parametrize("spec", catalog_names() + ["tensor:eta_1_1_1d", "tensor:eta_2_3_1d"])
def test_weak_star_table_matches_the_per_call_sum_exactly(spec):
    # the table must change no bit: warm (built by an earlier H) and cold alike
    for H in (2.0**-k for k in range(2, 7)):
        delta = _make_kernel(spec, H)
        phi = _gaussian
        for order in (24, 48):
            expected = _per_call_weak_star_once(delta, phi, order)
            assert _weak_star_sums([delta], phi, order)[0] == expected
            delta.profile._weak_star.clear()
            assert _weak_star_sums([delta], phi, order)[0] == expected
    tables = delta.profile._weak_star.values()
    assert tables
    for array in (a for table in tables for a in table):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0.0


def test_weak_star_of_a_profile_from_a_list_of_pieces():
    # a list of pieces makes the profile unhashable; a process-wide cache keyed
    # on the profile raised TypeError here
    listed = RadialProfile(pieces=[PolyPiece(0.0, 1.0, np.array([1.0, -1.0]))])
    twin = poly_profile([1.0, -1.0])
    with pytest.raises(TypeError):
        hash(listed)
    errors = [weak_star_error(RegularizedDelta(dim=1, name="hat", profile=prof, half_width=0.25))
              for prof in (listed, twin)]
    assert errors == [0.010287897542340718] * 2


def test_weak_star_table_holds_no_test_function():
    # test functions in a row share the tables; each matches its pinned oracle
    delta = catalog_lookup("eta_1_1_1d")(0.5)
    delta.profile._weak_star.clear()
    lorentzian = weak_star_error(delta, phi=lambda x: 1.0 / (1.0 + ((x - 0.125) / 0.05) ** 2))
    assert lorentzian == pytest.approx(0.0710773122544052, abs=1e-14)
    keys = [(1, n) for n in (24, 48, 96, 192)]
    assert sorted(delta.profile._weak_star) == keys
    # oracle: order-64 Gauss on the hat (1 - |x| / H) / H against exp(-x^2)
    hat = integrate_panels(lambda x: (1.0 - np.abs(x) / 0.5) / 0.5 * np.exp(-(x**2)),
                           [-0.5, 0.0, 0.5], gauss_legendre(64))
    warm = weak_star_error(delta)
    assert warm == pytest.approx(abs(1.0 - hat), abs=1e-12)
    delta.profile._weak_star.clear()
    assert weak_star_error(delta) == warm
    radial_2d = catalog_lookup("eta_1_1_2d")(0.5)
    radial_2d.profile._weak_star.clear()
    val = weak_star_error(radial_2d, phi=lambda x, y: np.exp(-(x**2) - 4 * y**2))
    assert val == pytest.approx(0.1104040125256, abs=1e-12)
    assert sorted(radial_2d.profile._weak_star) == [(2, 24), (2, 48)]


def test_tensor_weak_star_takes_the_1d_tables():
    # the square has no table of its own: it reads its 1D profile's radial rule
    tensor = tensor_product("eta_2_3_1d", 0.25)
    tensor.profile._weak_star.clear()
    weak_star_error(tensor)
    assert sorted(tensor.profile._weak_star) == [(1, 24), (1, 48)]


@pytest.mark.parametrize("spec", ["tensor:eta_2_3_1d", "tensor:eta_cubic", "eta_2_3_2d"])
def test_weak_star_scalar_constant_test_function_is_mass(spec):
    # a constant phi may return a scalar; the sum is then the kernel's mass
    delta = _make_kernel(spec, 0.25)
    for order in (24, 48):
        [mass] = _weak_star_sums([delta], lambda x, y: 2.0, order)
        assert mass == pytest.approx(2.0, abs=1e-13)
    assert weak_star_error(delta, phi=lambda x, y: 1.0) <= 1e-13


def _study_kernels(table):
    from deltareg.reports import parse_config_text

    text = (importlib.resources.files("deltareg") / "configs" / f"{table}.cfg").read_text()
    return [name.strip() for name in parse_config_text(text).options["kernels"].split(",")]


STUDY_HS = [2.0**-k for k in range(2, 7)]


@pytest.mark.parametrize("spec", _study_kernels("weakstar-1d") + _study_kernels("weakstar-2d"))
def test_sweep_matches_one_width_at_a_time(spec):
    # every kernel of the two weak-star tables: the sweep over all H has the bits of one
    # call per H, and each order's batched sums those of the per-call oracle
    deltas = [_make_kernel(spec, H) for H in STUDY_HS]
    assert weak_star_errors(deltas) == [weak_star_error(delta) for delta in deltas]
    for order in (24, 48):
        expected = [_per_call_weak_star_once(delta, _gaussian, order) for delta in deltas]
        assert _weak_star_sums(deltas, _gaussian, order).tolist() == expected


@pytest.mark.parametrize("spec, phi", [
    ("eta_2_3_1d", lambda x: np.exp(0.8 * x) * np.cos(3 * x)),  # not even in x
    ("eta_1_2_2d", lambda x, y: np.exp(-(x**2) - 4 * y**2 + x)),  # not radial
    ("tensor:eta_cubic", lambda x, y: np.exp(x - y**2)),
    ("eta_1_1_1d", lambda x: np.ones_like(x)),
    ("eta_2_3_2d", lambda x, y: 2.0),  # a constant phi may return a scalar
    ("tensor:eta_2_3_1d", lambda x, y: 2.0),
])
def test_sweep_matches_one_width_at_a_time_for_any_test_function(spec, phi):
    deltas = [_make_kernel(spec, H) for H in STUDY_HS]
    errors = weak_star_errors(deltas, phi)
    assert errors == [weak_star_error(delta, phi) for delta in deltas]
    assert all(type(e) is float for e in errors)


def test_sweep_takes_only_the_unsettled_widths_to_the_next_order(monkeypatch):
    # the Lorentzian needs order 96 at H = 1/2, while 1/4 and 1/8 settle at 48
    import deltareg.quadrature as quadrature

    def phi(x):
        return 1.0 / (1.0 + ((x - 0.125) / 0.1) ** 2)

    calls = []

    def recording(deltas, phi, order):
        calls.append((order, [delta.half_width for delta in deltas]))
        return _weak_star_sums(deltas, phi, order)

    deltas = [catalog_lookup("eta_1_1_1d")(H) for H in (0.5, 0.25, 0.125)]
    one_at_a_time = [weak_star_error(delta, phi) for delta in deltas]
    monkeypatch.setattr(quadrature, "_weak_star_sums", recording)
    assert weak_star_errors(deltas, phi) == one_at_a_time
    assert calls == [(24, [0.5, 0.25, 0.125]), (48, [0.5, 0.25, 0.125]), (96, [0.5])]


def test_sweep_that_never_settles_raises():
    # cos(3000 x) is not resolved by order 192 at H = 1/2, though it is at H = 1/64
    deltas = [catalog_lookup("eta_1_1_1d")(H) for H in (2.0**-6, 0.5)]
    with pytest.raises(QuadratureError, match="failed to converge"):
        weak_star_errors(deltas, lambda x: np.cos(3000 * x))
    with pytest.raises(QuadratureError, match="failed to converge"):
        weak_star_error(deltas[1], lambda x: np.cos(3000 * x))
    assert weak_star_errors(deltas[:1], lambda x: np.cos(3000 * x)) == [
        weak_star_error(deltas[0], lambda x: np.cos(3000 * x))]


@pytest.mark.parametrize("other", [
    lambda H: catalog_lookup("eta_2_3_1d")(H),  # another profile
    lambda H: catalog_lookup("eta_1_1_2d")(H),  # another dimension
    lambda H: tensor_product("eta_1_1_1d", H),  # the same profile as a tensor square
    lambda H: RegularizedDelta(dim=1, name="eta_1_1_1d", half_width=H,
                               profile=poly_profile([1.0, -1.0])),  # an equal profile object
])
def test_sweep_of_two_kernels_is_an_error(other):
    deltas = [catalog_lookup("eta_1_1_1d")(0.25), other(0.125)]
    with pytest.raises(ValueError, match="one profile, dim and kind"):
        weak_star_errors(deltas)


def test_empty_sweep_is_an_error():
    with pytest.raises(ValueError, match="one kernel's widths"):
        weak_star_errors([])


def test_weak_star_tables_hold_one_entry_per_geometry_and_order():
    from deltareg.reports import parse_config_text, run_study

    profiles = {id(p): p for p in (catalog_lookup(n).profile() for n in catalog_names())}
    for prof in profiles.values():
        prof._weak_star.clear()
    used = {}  # profile id -> the dimensions of the rules the tables use it in
    for table in ("weakstar-1d", "weakstar-2d"):
        text = (importlib.resources.files("deltareg") / "configs" / f"{table}.cfg").read_text()
        config = parse_config_text(text)
        assert run_study(config).exit_code == 0
        for spec in config.options["kernels"].split(","):
            delta = _make_kernel(spec.strip(), 0.25)
            # a tensor square reads its profile's 1D rule on each axis
            used.setdefault(id(delta.profile), set()).add(delta.dim if delta.is_radial else 1)
    for key, prof in profiles.items():
        allowed = {(dim, order) for dim in used.get(key, ()) for order in (24, 48)}
        assert set(prof._weak_star) <= allowed
    assert sum(len(p._weak_star) for p in profiles.values()) == 24


def test_slope_exact_power_laws():
    Hs = [1.0, 0.5, 0.25]
    fit = convergence_slope(Hs, [h**2 for h in Hs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    fit = convergence_slope(Hs, [3 * h**4 for h in Hs])
    assert fit.slope == pytest.approx(4.0, abs=1e-12)
    # halving ratios follow R(H) = log2(E(H) / E(H/2))
    assert fit.ratios == pytest.approx([4.0, 4.0], abs=1e-12)


@given(st.floats(min_value=0.5, max_value=4.5), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_slope_recovers_synthetic_rate(rate, scale):
    Hs = np.array([2.0**-k for k in range(2, 7)])
    fit = convergence_slope(Hs, scale * Hs**rate)
    assert fit.slope == pytest.approx(rate, abs=1e-9)


def test_slope_excludes_nonpositive_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = convergence_slope([1.0, 0.5, 0.25], [1.0, 0.25, 0.0])
        assert any("floor" in str(w.message) for w in caught)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert math.isnan(fit.ratios[-1])


def test_slope_input_validation():
    with pytest.raises(ValueError):
        convergence_slope([1.0], [1.0])
    with pytest.raises(ValueError):
        convergence_slope([1.0, -0.5], [1.0, 0.5])
