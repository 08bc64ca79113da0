import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltareg.kernels import catalog_lookup, catalog_names
from deltareg.quadrature import (
    QuadratureError,
    convergence_slope,
    gauss_legendre,
    integrate_1d,
    integrate_panels,
    weak_star_error,
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
    val = integrate_1d(lambda x: x**2, 0.0, 1.0, gauss_legendre(3), panels=1)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_integrate_gaussian_against_high_order_oracle():
    # oracle: single-panel order-64 rule
    oracle = integrate_1d(lambda x: np.exp(-(x**2)), -1.0, 1.0, gauss_legendre(64))
    assert oracle == pytest.approx(1.4936482656, abs=1e-9)
    val = integrate_1d(lambda x: np.exp(-(x**2)), -1.0, 1.0, gauss_legendre(20), panels=4)
    assert val == pytest.approx(oracle, abs=1e-14)


def test_integrate_abs_kink_on_panel_boundary():
    val = integrate_1d(np.abs, -1.0, 1.0, gauss_legendre(10), panels=2)
    assert val == pytest.approx(1.0, abs=1e-15)


def test_integrate_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_1d(np.abs, 1.0, -1.0, gauss_legendre(4))


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


def test_weak_star_requires_surface_measure():
    from deltareg.moments import Normalization

    delta = catalog_lookup("eta_1_1_2d")(0.25, normalization=Normalization.PAPER_TABLE1_2D)
    with pytest.raises(ValueError):
        weak_star_error(delta)


def test_weak_star_support_exceeding_box():
    delta = catalog_lookup("eta_hat2")(1.5)  # support radius 3
    with pytest.raises(ValueError):
        weak_star_error(delta, box_halfwidth=2.0)


@pytest.mark.parametrize("name", catalog_names())
def test_weak_star_order_doubling_floor(name):
    # doubling the base order moves the result by <= 1e-12 at H >= 1/64
    builder = catalog_lookup(name)
    delta = builder(1 / 64)
    a = weak_star_error(delta, order=12)
    b = weak_star_error(delta, order=24)
    assert abs(a - b) <= 1e-12


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
