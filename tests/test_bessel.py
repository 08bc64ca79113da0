import importlib
import math

import numpy as np
import pytest

from deltareg import bessel
from deltareg.elliptic import (
    exact_point_solution_2d_radial,
    exact_point_solution_2d_radial_deriv,
)

EULER_GAMMA = 0.5772156649015329


def j0_series(x, terms=40):
    """Ascending-series oracle for J0, summed term by term."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    term = np.ones_like(x)
    for m in range(terms):
        total += term
        term = term * (-(x * x) / 4.0) / ((m + 1) ** 2)
    return total


def y0_series(x, terms=40):
    """Series oracle Y0 = (2/pi)[(ln(x/2) + gamma) J0 + sum of harmonic corrections]."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    term = np.ones_like(x)
    harmonic = 0.0
    for m in range(1, terms):
        term = term * (-(x * x) / 4.0) / (m * m)
        harmonic += 1.0 / m
        total += -term * harmonic  # (-1)^(m+1) H_m (x^2/4)^m / (m!)^2
    return (2.0 / math.pi) * ((np.log(x / 2.0) + EULER_GAMMA) * j0_series(x, terms)
                              + total)


def bisect(fn, lo, hi, iters=60):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_first_call_binds_scipy_special():
    import scipy.special

    importlib.reload(bessel)  # back to the stand-ins, whatever ran before
    assert bessel.y1 is not scipy.special.y1
    assert bessel.j0(0.0) == 1.0
    assert {name: vars(bessel)[name] for name in bessel.__all__} == {
        name: getattr(scipy.special, name) for name in bessel.__all__}


def test_first_call_keeps_a_name_replaced_from_outside(monkeypatch):
    import scipy.special

    importlib.reload(bessel)
    stand_in, calls = bessel.j0, []
    monkeypatch.setattr(bessel, "j0", lambda x: calls.append(x) or stand_in(x))
    assert bessel.j0(0.0) == 1.0 and bessel.j0(0.0) == 1.0
    assert calls == [0.0, 0.0]  # every call still passes through the replacement
    assert bessel.y0 is scipy.special.y0


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'k0'"):
        bessel.k0
    assert not hasattr(bessel, "jv")


def test_j0_against_series_oracle():
    x = np.linspace(0.02, 20.0, 1000)
    assert np.max(np.abs(bessel.j0(x) - j0_series(x))) <= 1e-8


def test_y0_against_series_oracle():
    x = np.linspace(0.02, 20.0, 1000)
    assert np.max(np.abs(bessel.y0(x) - y0_series(x))) <= 1e-8


def test_j0_at_zero_limit():
    # J0(x) = 1 - x^2/4 + ..., within 1e-16 of 1 at x = 1e-8
    assert bessel.j0(0.0) == 1.0
    assert bessel.j0(1e-8) == pytest.approx(1.0, abs=1e-15)


def test_first_j0_zero_location():
    oracle_zero = bisect(j0_series, 2.0, 3.0)
    assert oracle_zero == pytest.approx(2.404825557695773, abs=1e-12)
    impl_zero = bisect(bessel.j0, 2.0, 3.0)
    assert abs(impl_zero - 2.404825557695773) <= 1e-12


def test_y0_at_one():
    assert bessel.y0(1.0) == pytest.approx(0.08825696421567696, abs=1e-12)


def test_y0_rejects_nonpositive():
    # scipy's y0/y1 return -inf or nan off (0, inf); the exact solution, which
    # evaluates them at k0 and k0 r, rejects those arguments instead
    for fn in (exact_point_solution_2d_radial, exact_point_solution_2d_radial_deriv):
        for k0 in (0.0, -10.0):
            with pytest.raises(ValueError, match="k0"):
                fn(0.5, k0)
        for r in (0.0, -0.5):
            with pytest.raises(ValueError, match="positive"):
                fn(r, 10.0)


def test_wronskian_identity():
    # J1 Y0 - J0 Y1 = 2 / (pi x): couples all four implementations
    x = np.linspace(0.05, 50.0, 4000)
    w = bessel.j1(x) * bessel.y0(x) - bessel.j0(x) * bessel.y1(x)
    assert np.max(np.abs(w - 2.0 / (np.pi * x))) <= 1e-13


def test_j1_is_derivative_of_j0():
    xs = np.linspace(0.5, 30.0, 200)
    h = 1e-5
    dj0 = (bessel.j0(xs + h) - bessel.j0(xs - h)) / (2 * h)
    assert np.max(np.abs(dj0 + bessel.j1(xs))) <= 1e-6


def test_j1_odd_symmetry():
    xs = np.linspace(0.1, 20.0, 50)
    assert np.allclose(bessel.j1(-xs), -bessel.j1(xs), atol=0.0)
