import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import numpy as np
import pytest
from scipy import special

from deltareg import elliptic
from deltareg.cli import main
from deltareg.elliptic import (
    Helmholtz1D,
    RadialHelmholtz2D,
    ResonanceError,
    SolutionProfile,
    WeightedNormSpec,
    exact_point_solution_1d,
    exact_point_solution_1d_deriv,
    exact_point_solution_2d_radial,
    exact_point_solution_2d_radial_deriv,
    exact_profile_1d,
    exact_profile_2d,
    greens_function_1d,
    pointwise_error,
    solve_regularized_1d,
    solve_regularized_2d_radial,
    weighted_sobolev_error,
)
from deltareg.kernels import catalog_lookup
from deltareg.quadrature import QuadratureError, gauss_legendre, integrate_panels
from deltareg.reports import emit, parse_config_text, run_study

from test_bessel import j0_series, y0_series

K0 = 10.0
# a uniform radial grid r = h .. 1, h = 1 / 20480, for the 2D solves that need fine
# spacing or many nodes inside the support
MESH = np.arange(1, 20481) / 20480


# ---------------------------------------------------------------------------
# 1D closed form and convolution solve
# ---------------------------------------------------------------------------

def test_exact_1d_boundary_values():
    assert exact_point_solution_1d(1.0, K0) == pytest.approx(0.0, abs=1e-15)
    assert exact_point_solution_1d(-1.0, K0) == pytest.approx(0.0, abs=1e-15)


def test_exact_1d_printed_value():
    # direct evaluation of the closed form at x = 0.5
    expected = -math.sin(5.0) * math.sin(2.5) / (10.0 * math.sin(10.0))
    assert exact_point_solution_1d(0.5, K0) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(-0.1055, abs=2e-4)


def test_exact_1d_even_symmetry():
    xs = np.linspace(0.05, 0.95, 19)
    assert np.allclose(exact_point_solution_1d(xs, K0),
                       exact_point_solution_1d(-xs, K0), atol=1e-15)


def test_resonance_guard():
    with pytest.raises(ResonanceError):
        exact_point_solution_1d(0.5, math.pi)
    with pytest.raises(ResonanceError):
        Helmholtz1D(kernel=catalog_lookup("eta_1_1_1d")(0.25), k0=math.pi)


def test_greens_function_reciprocity():
    pts = np.linspace(-0.95, 0.95, 20)
    g_xy = greens_function_1d(pts[:, None], pts[None, :], K0)
    assert np.max(np.abs(g_xy - g_xy.T)) <= 1e-12


def test_tiny_support_reproduces_exact_solution():
    delta = catalog_lookup("eta_1_0_1d")(1e-6)
    problem = Helmholtz1D(kernel=delta, k0=K0)
    nodes = np.linspace(-1.0, 1.0, 801)
    profile = solve_regularized_1d(problem, nodes)
    exact = exact_point_solution_1d(nodes, K0)
    outside = np.abs(nodes) > 0.01
    assert np.max(np.abs(profile.values[outside] - exact[outside])) <= 1e-9


def test_solution_boundary_and_edge_continuity():
    H = 0.25
    delta = catalog_lookup("eta_1_0_1d")(H)
    problem = Helmholtz1D(kernel=delta, k0=K0)
    nodes = np.unique(np.concatenate([
        np.linspace(-1, 1, 401), [H - 1e-7, H, H + 1e-7]]))
    profile = solve_regularized_1d(problem, nodes)
    profile.check_boundary()
    i = int(np.argmin(np.abs(profile.nodes - H)))
    window = profile.values[i - 1:i + 2]
    assert np.max(window) - np.min(window) <= 1e-6  # C1 through the support edge


def test_1d_functions_reject_points_outside_the_domain():
    problem = Helmholtz1D(kernel=catalog_lookup("eta_1_2_1d")(0.25), k0=K0)
    with pytest.raises(ValueError, match="outside"):
        solve_regularized_1d(problem, np.array([-1.5, 0.0, 1.5]))
    with pytest.raises(ValueError, match="outside"):
        exact_point_solution_1d_deriv(1.5, K0)


def test_kernel_support_must_fit_in_domain():
    with pytest.raises(ValueError):
        Helmholtz1D(kernel=catalog_lookup("eta_cubic")(0.6), k0=K0)  # support 1.2


def _breakpoint_edges(delta):
    """The kernel's breakpoints and their mirror images, ascending."""
    pos = delta.half_width * np.asarray(delta.profile.breakpoints)
    return np.unique(np.concatenate([-pos, pos]))


def _convolve_one_node(x, delta, order):
    """Reference: split the panels at the kink y = x for this one node, rule per sub-panel.

    Returns the convolution of G(x, .) and of dG/dx(x, .) with delta; dG/dx takes its
    x < y branch at y = x.
    """
    half, denom = 0.5 * K0, K0 * math.sin(K0)
    rule = gauss_legendre(order)
    split = np.unique(np.concatenate([_breakpoint_edges(delta), [x]]))
    value = deriv = 0.0
    for lo, hi in zip(split[:-1], split[1:]):
        n, w = rule.mapped(lo, hi)
        wd = w * delta.eval(n)
        dx = np.where(x > n, half * np.sin(half * (1.0 + n)) * np.cos(half * (1.0 - x)),
                      -half * np.cos(half * (1.0 + x)) * np.sin(half * (1.0 - n))) / denom
        value += float(np.dot(wd, greens_function_1d(x, n, K0)))
        deriv += float(np.dot(wd, dx))
    return value, deriv


def _check_against_oracle(xs, delta):
    values, derivs = elliptic._convolve(1, xs, delta, K0)(16)
    ref = np.array([_convolve_one_node(x, delta, 16) for x in xs])
    assert np.max(np.abs(values - ref[:, 0])) <= 1e-14 * np.max(np.abs(ref[:, 0]))
    assert np.max(np.abs(derivs - ref[:, 1])) <= 1e-14 * np.max(np.abs(ref[:, 1]))
    return values


@pytest.mark.parametrize("name", ["eta_1_2_1d", "eta_cos", "eta_cubic"])
def test_batched_convolution_matches_per_node_oracle(name):
    delta = catalog_lookup(name)(0.3)
    edges = _breakpoint_edges(delta)
    w = edges[-1]
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = np.unique(np.concatenate([
        [-1.0, 0.0, 1.0], edges, mids, edges[:-1] + 1e-3, edges[1:] - 1e-3,
        [-w - 1e-9, -w + 1e-9, w - 1e-9, w + 1e-9], np.linspace(-0.95, 0.95, 7),
    ]))
    _check_against_oracle(xs, delta)


@pytest.mark.parametrize("name", ["eta_1_2_1d", "eta_cos", "eta_cubic"])
def test_convolution_on_panel_edges_and_domain_ends(name):
    # no node lies strictly inside a panel, so every panel enters through its two moments
    delta = catalog_lookup(name)(0.3)
    xs = np.concatenate([[-1.0], _breakpoint_edges(delta), [1.0]])
    values = _check_against_oracle(xs, delta)
    assert values[0] == 0.0 and values[-1] == 0.0


@pytest.mark.parametrize("name", ["eta_1_2_1d", "eta_cos", "eta_cubic"])
@pytest.mark.parametrize("inner", [[], [0.1], [0.3 - 1e-15], [-0.3 + 1e-15, 1e-15]],
                         ids=["none", "one", "near-breakpoint", "near-edge-and-centre"])
def test_convolution_with_few_nodes_inside_the_support(name, inner):
    # panels are cut only at nodes strictly inside the support: none, one, or one a
    # rounding step from a breakpoint, which leaves a panel 1e-15 wide
    delta = catalog_lookup(name)(0.3)
    xs = np.concatenate([[-1.0, -0.7], inner, [0.75, 1.0]])
    values = _check_against_oracle(xs, delta)
    assert values[0] == 0.0 and values[-1] == 0.0


def test_1d_solve_reports_accepted_order_and_doubling_delta():
    problem = Helmholtz1D(kernel=catalog_lookup("eta_2_3_1d")(1 / 32), k0=K0)
    profile = solve_regularized_1d(problem, np.linspace(-1.0, 1.0, 4001))
    assert profile.order in (16, 32)
    assert profile.doubling_delta <= 1e-10 * np.max(np.abs(profile.values))


def _fake_convolution(factor):
    """A convolution whose values are (1 - x^2) * factor(order) and whose derivatives
    are the order itself, so a profile shows which pass its derivatives came from."""
    return lambda dim, xs, delta, k0: lambda order: ((1.0 - xs**2) * factor(order),
                                                np.full_like(xs, float(order)))


def test_1d_solve_accepts_the_third_order(monkeypatch):
    monkeypatch.setattr(elliptic, "_convolve",
                        _fake_convolution(lambda order: 2.0 if order == 8 else 1.0))
    problem = Helmholtz1D(kernel=catalog_lookup("eta_1_2_1d")(0.25), k0=K0)
    profile = solve_regularized_1d(problem, np.linspace(-1.0, 1.0, 41))
    assert profile.order == 32
    assert profile.doubling_delta == 0.0
    assert np.all(profile.derivs == 32.0)


def test_1d_solve_raises_when_order_doubling_fails(monkeypatch):
    monkeypatch.setattr(elliptic, "_convolve", _fake_convolution(float))
    problem = Helmholtz1D(kernel=catalog_lookup("eta_1_2_1d")(0.25), k0=K0)
    with pytest.raises(QuadratureError, match="order-doubling"):
        solve_regularized_1d(problem, np.linspace(-1.0, 1.0, 41))


# ---------------------------------------------------------------------------
# 2D closed form
# ---------------------------------------------------------------------------

def test_exact_2d_boundary_value():
    assert exact_point_solution_2d_radial(1.0, K0) == pytest.approx(0.0, abs=1e-9)


def test_exact_2d_log_singularity_coefficient():
    # u ~ -(1/(2 pi)) ln r as r -> 0
    r = np.array([1e-6, 1e-7])
    vals = exact_point_solution_2d_radial(r, K0)
    coef = (vals[1] - vals[0]) / (math.log(r[1]) - math.log(r[0]))
    assert coef == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-4)


def test_exact_2d_rejects_origin():
    with pytest.raises(ValueError):
        exact_point_solution_2d_radial(0.0, K0)


@pytest.mark.parametrize("fn", [exact_point_solution_2d_radial,
                                exact_point_solution_2d_radial_deriv])
def test_exact_2d_rejects_radii_outside_the_disk(fn):
    with pytest.raises(ValueError, match="outside"):
        fn(1.5, K0)
    fn(elliptic.exterior_nodes(2, K0, 0.25), K0)  # the last node, r = 1, is inside


def test_exact_2d_value_from_series_oracle():
    # compose the printed formula from series-oracle Bessel values
    r = 0.5
    j0_10, y0_10 = float(j0_series(10.0)), float(y0_series(10.0))
    j0_5, y0_5 = float(j0_series(5.0)), float(y0_series(5.0))
    expected = -y0_5 / 4.0 + (y0_10 / (4.0 * j0_10)) * j0_5
    assert exact_point_solution_2d_radial(r, K0) == pytest.approx(expected, abs=1e-7)


# ---------------------------------------------------------------------------
# 2D ring-kernel convolution solve
# ---------------------------------------------------------------------------

def _ring_kernel_oracle(delta, rr, k0=K0):
    """Independent solution via the disk ring kernel built on series-oracle Bessels."""
    H = delta.half_width
    c = float(y0_series(k0)) / float(j0_series(k0))

    def Z(x):
        return y0_series(x) - c * j0_series(x)

    rule = gauss_legendre(40)
    edges = sorted({0.0, min(rr, H), H})

    def integrand(rho):
        r_lt = np.minimum(rho, rr)
        r_gt = np.maximum(rho, rr)
        g = -delta.eval(np.stack([rho, np.zeros_like(rho)], axis=-1))
        return (np.pi / 2.0) * j0_series(k0 * r_lt) * Z(k0 * r_gt) * g * rho

    return integrate_panels(integrand, edges, rule)


def _check_ring_oracle(delta, radii):
    nodes = np.unique(np.append(radii, 1.0))
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=delta), nodes)
    for rr, value in zip(nodes, profile.values):
        assert value == pytest.approx(_ring_kernel_oracle(delta, rr), abs=1e-12)


@pytest.mark.parametrize("name, H", [(name, H)
                                     for name in ("eta_0_1_2d", "eta_1_2_2d", "eta_2_3_2d")
                                     for H in (0.25, 0.125)]
                         + [("eta_2_3_2d", 2.0**-8), ("eta_2_cos_2d", 0.125)])
def test_2d_solver_matches_ring_kernel_oracle(name, H):
    _check_ring_oracle(catalog_lookup(name)(H), (H / 3, H / 2, 0.05, 0.3, 0.55, 0.9))


def test_2d_breakpoint_between_mesh_nodes_is_solved():
    # the support edge r = 1/3 falls between two nodes
    _check_ring_oracle(catalog_lookup("eta_2_3_2d")(1 / 3),
                       (0.1, 1 / 3 - 1e-4, 1 / 3 + 1e-4, 0.5, 0.9))


def _source_moment(delta, k0=K0):
    """m_H = integral of J0(k0 s) delta_H(s) 2 pi s ds, from the series-oracle J0."""
    edges = delta.half_width * np.asarray(delta.profile.breakpoints)
    return integrate_panels(lambda s: j0_series(k0 * s) * delta.eval_radial(s) * 2 * np.pi * s,
                            edges, gauss_legendre(40))


@pytest.mark.parametrize("name, H", [("eta_0_1_2d", 0.25), ("eta_2_3_2d", 0.125),
                                     ("eta_2_3_2d", 1 / 3), ("eta_1_2_2d", 2.0**-8)])
def test_2d_derivative_outside_the_support_is_the_scaled_point_derivative(name, H):
    # for r > H, u_H = m_H u and so u_H' = m_H u'
    delta = catalog_lookup(name)(H)
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=delta), MESH)
    outside = profile.nodes > H
    expected = _source_moment(delta) * exact_point_solution_2d_radial_deriv(
        profile.nodes[outside], K0)
    assert np.max(np.abs(profile.derivs[outside] - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", ["eta_0_1_2d", "eta_1_2_2d", "eta_2_3_2d"])
def test_2d_derivative_inside_the_support_matches_centred_differences(name):
    # the centred difference of step h is off from u' by (h^2 / 6) u''' + O(h^4) and
    # that of step 2h by four times as much, so a correct u' sees the ratio 4 and
    # agrees with their extrapolation to h^4 (~1e-17 u^(5)) and rounding (~eps u / h)
    H = 0.125
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=catalog_lookup(name)(H)), MESH)
    h, u, du = MESH[0], profile.values, profile.derivs
    j = np.arange(2, int(0.9 * H / h))
    e1 = (u[j + 1] - u[j - 1]) / (2 * h) - du[j]
    e2 = (u[j + 2] - u[j - 2]) / (4 * h) - du[j]
    big = np.abs(e1) > 0.1 * np.max(np.abs(e1))
    assert np.all(np.abs(e2[big] / e1[big] - 4.0) <= 1e-4)
    assert np.max(np.abs(e1 - (e2 - e1) / 3)) <= 1e-11


@pytest.mark.parametrize("name, H", [("eta_0_1_2d", 0.25), ("eta_2_3_2d", 0.125),
                                     ("eta_2_3_2d", 1 / 3), ("eta_1_2_2d", 2.0**-8)])
def test_2d_node_solve_outside_the_support_is_the_weak_star_error(name, H):
    # for r >= H, u' - u_H' = -b'(r) (1 - m_H) / 4, the point derivative times 1 - m_H;
    # u' - u_H' is a difference of two values of size |u'|, which bounds its rounding
    delta = catalog_lookup(name)(H)
    radii = np.unique(np.concatenate([np.geomspace(1e-6, H, 20), np.linspace(H, 1.0, 41)]))
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=delta), nodes=radii)
    assert np.array_equal(profile.nodes, radii)
    outside = radii >= H
    du = exact_point_solution_2d_radial_deriv(radii[outside], K0)
    expected = -_ring_factor_derivs(radii[outside])[1] * (1.0 - _source_moment(delta)) / 4.0
    error = np.abs(du - profile.derivs[outside] - expected)
    assert np.max(error) <= 1e-12 * np.max(np.abs(expected)) + 2e-14 * np.max(np.abs(du))


def test_2d_node_solve_rejects_radii_outside_the_disk():
    problem = RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125))
    for radii in ([0.0, 0.5], [0.5, 1.5]):
        with pytest.raises(ValueError):
            solve_regularized_2d_radial(problem, nodes=np.array(radii))


def test_2d_solve_reports_mesh_order_and_doubling_delta():
    delta = catalog_lookup("eta_2_3_2d")(0.125)
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=delta), MESH)
    assert len(profile.nodes) == 20480 and profile.dim == 2
    assert profile.order in (16, 32)
    assert profile.doubling_delta <= 1e-10 * np.max(np.abs(profile.values))


# the cosine profile needs 32 points on the one panel [0, H] of the first cell
@pytest.mark.parametrize("name, order", [("eta_0_1_2d", 16), ("eta_2_3_2d", 16),
                                         ("eta_2_cos_2d", 32)])
def test_2d_support_inside_the_first_cell(name, order):
    # H < h: every returned node lies outside the support, so u_H = m_H u there
    delta = catalog_lookup(name)(1e-5)
    profile = solve_regularized_2d_radial(RadialHelmholtz2D(kernel=delta), MESH)
    expected = _source_moment(delta) * exact_point_solution_2d_radial(profile.nodes, K0)
    assert np.max(np.abs(profile.values - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert profile.order == order


def test_2d_solve_accepts_the_third_order(monkeypatch):
    monkeypatch.setattr(elliptic, "_convolve",
                        _fake_convolution(lambda order: 2.0 if order == 8 else 1.0))
    profile = solve_regularized_2d_radial(
        RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125)), MESH)
    assert profile.order == 32
    assert profile.doubling_delta == 0.0
    assert np.all(profile.derivs == 32.0)


def test_2d_solve_raises_when_order_doubling_fails(monkeypatch, capsys):
    monkeypatch.setattr(elliptic, "_convolve", _fake_convolution(float))
    problem = RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125))
    with pytest.raises(QuadratureError, match="order-doubling"):
        solve_regularized_2d_radial(problem, MESH)
    # a study turns the solver error into an error row and exits 1
    assert main(["helmholtz2d", "--kernels", "eta_2_3_2d", "--H", "2^-2..2^-3"]) == 1
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["status"] for row in rows] == ["error"]
    assert "order-doubling" in rows[0]["message"]


def test_2d_solves_in_threads_that_grow_the_tables_match_serial_solves():
    problems = [RadialHelmholtz2D(kernel=catalog_lookup("eta_1_2_2d")(2.0**-k))
                for k in (5, 4, 3, 2)]
    elliptic._greens_factors.cache_clear()
    serial = [solve_regularized_2d_radial(p, MESH).values for p in problems]
    elliptic._greens_factors.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(solve_regularized_2d_radial, p, MESH) for p in problems * 2]
            threaded = [f.result(timeout=60).values for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(t, v) for t, v in zip(threaded, serial * 2))


def test_2d_boundary_value_is_zero():
    profile = solve_regularized_2d_radial(
        RadialHelmholtz2D(kernel=catalog_lookup("eta_0_1_2d")(0.25)), MESH)
    assert profile.values[-1] == 0.0


def test_2d_resonance_guard():
    # first zero of J0 is a Dirichlet eigenvalue of the unit disk
    with pytest.raises(ResonanceError):
        RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125), k0=2.4048255577)


# ---------------------------------------------------------------------------
# memoized Green's-function factors of the node solves
# ---------------------------------------------------------------------------

NODES_1D = np.linspace(-1.0, 1.0, 201)
RADII_2D = np.linspace(0.01, 1.0, 100)


def _node_solves():
    one = solve_regularized_1d(Helmholtz1D(kernel=catalog_lookup("eta_cubic")(0.25)), NODES_1D)
    two = solve_regularized_2d_radial(
        RadialHelmholtz2D(kernel=catalog_lookup("eta_1_2_2d")(0.25)), nodes=RADII_2D)
    return one, two


def test_node_solves_from_a_cold_and_a_warm_memo_are_identical():
    elliptic._greens_factors.cache_clear()
    cold = _node_solves()
    assert elliptic._greens_factors.cache_info().currsize > 0
    for c, w in zip(cold, _node_solves()):
        assert np.array_equal(c.values, w.values) and np.array_equal(c.derivs, w.derivs)


def test_every_memo_entry_is_read_only(monkeypatch):
    original, entries = elliptic._greens_factors, []

    def record(*key):
        entries.append(original(*key))
        return entries[-1]

    original.cache_clear()
    monkeypatch.setattr(elliptic, "_greens_factors", record)
    _node_solves()
    weighted_sobolev_error(RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.25)),
                           [WeightedNormSpec(alpha=0.5)])
    assert len(entries) > original.cache_info().currsize > 0
    for shared in (x for entry in entries for x in entry):
        with pytest.raises(ValueError, match="read-only"):
            shared.flat[0] = 0.0


def test_memo_is_keyed_by_the_nodes_values():
    problem = Helmholtz1D(kernel=catalog_lookup("eta_0_1_1d")(0.25))
    elliptic._greens_factors.cache_clear()
    base = solve_regularized_1d(problem, NODES_1D)
    size = elliptic._greens_factors.cache_info().currsize
    # an equal copy shares the entries; a node outside the support moved by one ulp
    # leaves the panels as they were and gets a node entry of its own
    assert np.array_equal(solve_regularized_1d(problem, NODES_1D.copy()).values, base.values)
    assert elliptic._greens_factors.cache_info().currsize == size
    moved = NODES_1D.copy()
    moved[150] = np.nextafter(moved[150], 1.0)
    solve_regularized_1d(problem, moved)
    entries = [elliptic._greens_factors(1, K0, 0, x.tobytes()) for x in (NODES_1D, moved)]
    assert entries[0] is not entries[1]
    assert elliptic._greens_factors.cache_info().currsize == size + 1


def test_sobolev_norm_of_a_kernel_with_the_same_breakpoints_reuses_the_bessel_tables(
        monkeypatch):
    # eta_0_1_2d and eta_2_3_2d both break at 0 and H, so their norms share the radii
    # and every pass's panels
    points = []

    def j0(x):
        points.append(np.size(x))
        return special.j0(x)

    monkeypatch.setattr(elliptic.bessel, "j0", j0)
    wspecs = [WeightedNormSpec(alpha=0.5)]
    elliptic._greens_factors.cache_clear()
    first = weighted_sobolev_error(RadialHelmholtz2D(kernel=catalog_lookup("eta_0_1_2d")(0.125)),
                                   wspecs)
    assert max(points) > 1
    points.clear()
    second = weighted_sobolev_error(
        RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125)), wspecs)
    assert points and max(points) == 1  # only J0(k0)
    assert first != second


def test_a_second_pass_of_the_2d_tables_misses_no_memo_entry():
    # one pass of helm2d and helm2d-sobolev fills 32 entries; a memo smaller than that
    # would cycle and miss on every repeated pass
    configs = [parse_config_text((resources.files("deltareg") / "configs" / name).read_text())
               for name in ("helm2d.cfg", "helm2d-sobolev.cfg")]
    elliptic._greens_factors.cache_clear()
    first = [emit(run_study(config)) for config in configs]
    filled = elliptic._greens_factors.cache_info()
    assert [emit(run_study(config)) for config in configs] == first
    again = elliptic._greens_factors.cache_info()
    assert again.misses == filled.misses and again.hits > filled.hits


def test_helmholtz1d_study_filling_the_memo_matches_a_warm_run():
    config = parse_config_text(
        "study = helmholtz1d\nkernels = eta_0_1_1d, eta_cubic\nH = 2^-2..2^-5")
    elliptic._greens_factors.cache_clear()
    cold = emit(run_study(config))
    assert elliptic._greens_factors.cache_info().currsize > 0
    assert emit(run_study(config)) == cold


# ---------------------------------------------------------------------------
# error measures
# ---------------------------------------------------------------------------

def test_pointwise_error_identical_profiles():
    nodes = np.linspace(-1, 1, 4001)
    prof = exact_profile_1d(nodes, K0)
    assert pointwise_error(prof, prof, 0.25) == 0.0


def test_pointwise_error_empty_exterior():
    nodes = np.linspace(-0.2, 0.2, 4001)
    prof = exact_profile_1d(nodes, K0)
    with pytest.raises(ValueError, match="exterior"):
        pointwise_error(prof, prof, 0.25)


def test_pointwise_error_requires_common_grid():
    a = exact_profile_1d(np.linspace(-1, 1, 101), K0)
    b = exact_profile_1d(np.linspace(-1, 1, 201), K0)
    with pytest.raises(ValueError, match="common"):
        pointwise_error(a, b, 0.25)


def test_pointwise_error_takes_the_cutoff_itself():
    # in 2D |u| peaks at r = cutoff, so |u - 0.9 u| does too, and r = 1/4 belongs to
    # the closed exterior
    nodes = np.linspace(0.25, 1.0, 3001)
    u = exact_profile_2d(nodes, K0)
    scaled = SolutionProfile(nodes=nodes, values=0.9 * u.values, derivs=0.9 * u.derivs, dim=2)
    assert pointwise_error(u, scaled, 0.25) == abs(u.values[0] - scaled.values[0])


# every kernel of the helm1d and helm2d tables; the 1D errors peak inside the exterior,
# at |x| = 1 - pi / k0, between the nodes of any grid that does not place one there
@pytest.mark.parametrize("dim, name", [
    (1, name) for name in ("eta_0_1_1d", "eta_1_2_1d", "eta_2_3_1d", "eta_cos", "eta_cubic")
] + [(2, name) for name in ("eta_0_1_2d", "eta_1_2_2d", "eta_2_3_2d")])
def test_pointwise_error_at_the_study_nodes_is_the_sup_of_a_fine_solve(dim, name):
    if dim == 1:
        geometry, solve, exact = Helmholtz1D, solve_regularized_1d, exact_profile_1d
        fine = np.linspace(-1.0, 1.0, 200001)
    else:
        geometry, solve, exact = RadialHelmholtz2D, solve_regularized_2d_radial, exact_profile_2d
        fine = np.linspace(0.25, 1.0, 150001)
    problem = geometry(kernel=catalog_lookup(name)(1 / 32), k0=K0)
    nodes = elliptic.exterior_nodes(dim, K0, 0.25)
    E = pointwise_error(exact(nodes, K0), solve(problem, nodes), 0.25)
    error = np.abs(exact(fine, K0).values - solve(problem, fine).values)
    error[np.abs(fine) < 0.25] = 0.0
    elliptic._greens_factors.cache_clear()  # the fine grid's tables are large
    if dim == 1:
        assert 0.25 < abs(fine[np.argmax(error)]) < 1.0
    assert E == pytest.approx(np.max(error), rel=1e-10)


def test_pointwise_error_raises_where_the_largest_node_error_is_not_stationary():
    problem = Helmholtz1D(kernel=catalog_lookup("eta_2_3_1d")(1 / 32), k0=K0)
    nodes = np.linspace(-1.0, 1.0, 4001)
    with pytest.raises(QuadratureError, match="not stationary"):
        pointwise_error(exact_profile_1d(nodes, K0), solve_regularized_1d(problem, nodes), 0.25)


@pytest.mark.parametrize("k0", [K0, 23.7])
def test_exterior_nodes_hold_the_edges_and_every_stationary_point_of_b(k0):
    one, two = (elliptic.exterior_nodes(dim, k0, 0.25) for dim in (1, 2))
    half = one[one > 0]
    assert np.array_equal(one, np.concatenate([-half[::-1], half]))
    # b' vanishes where cos(k0 (1 - x) / 2) does in 1D
    fine = np.linspace(0.25, 1.0, 100001)
    for x, db in ((half, lambda r: np.cos(k0 * (1.0 - r) / 2)),
                  (two, lambda r: _ring_factor_derivs(r, k0)[1] / k0)):
        assert x[0] == 0.25 and x[-1] == 1.0 and np.max(np.diff(x)) <= (1.0 + 1e-12) / (4.0 * k0)
        d = db(fine)
        zeros = fine[np.flatnonzero(d[:-1] * d[1:] < 0)]
        nearest = x[np.argmin(np.abs(x[:, None] - zeros), axis=0)]
        assert len(zeros) > 0 and np.max(np.abs(nearest - zeros)) <= 1e-5
        assert np.max(np.abs(db(nearest))) <= 1e-13


# a grid of ceil(4 k0 (1 - cutoff)) + 1 nodes has no meaning for k0 <= 0
@pytest.mark.parametrize("k0", [-10.0, 0.0, math.nan])
@pytest.mark.parametrize("dim", [1, 2])
def test_exterior_nodes_reject_a_wavenumber_that_is_not_positive(dim, k0):
    with pytest.raises(ValueError, match="^k0 must be positive$"):
        elliptic.exterior_nodes(dim, k0, 0.25)


def test_1d_two_moment_ratio_saturates_near_four():
    nodes = elliptic.exterior_nodes(1, K0, 0.25)
    u_exact = exact_profile_1d(nodes, K0)
    builder = catalog_lookup("eta_2_3_1d")
    errs = []
    for H in (1 / 16, 1 / 32):
        problem = Helmholtz1D(kernel=builder(H), k0=K0)
        errs.append(pointwise_error(u_exact, solve_regularized_1d(problem, nodes), 0.25))
    assert math.log2(errs[0] / errs[1]) == pytest.approx(3.9961, abs=0.05)


def test_1d_one_moment_ratio_saturates_near_two():
    nodes = elliptic.exterior_nodes(1, K0, 0.25)
    u_exact = exact_profile_1d(nodes, K0)
    builder = catalog_lookup("eta_1_2_1d")
    errs = []
    for H in (1 / 16, 1 / 32):
        problem = Helmholtz1D(kernel=builder(H), k0=K0)
        errs.append(pointwise_error(u_exact, solve_regularized_1d(problem, nodes), 0.25))
    assert math.log2(errs[0] / errs[1]) == pytest.approx(1.9924, abs=0.05)


def test_weighted_sobolev_alpha_validation():
    with pytest.raises(ValueError):
        WeightedNormSpec(alpha=0.0)
    with pytest.raises(ValueError):
        WeightedNormSpec(alpha=1.0)
    WeightedNormSpec(alpha=0.25)  # admissible for the disk


def _ring_factor_derivs(r, k0=K0):
    """a' and b' of a = J0(k0 r), b = Y0(k0 r) - (Y0(k0) / J0(k0)) J0(k0 r)."""
    c = special.y0(k0) / special.j0(k0)
    return -k0 * special.j1(k0 * r), k0 * (c * special.j1(k0 * r) - special.y1(k0 * r))


def sobolev_oracle(delta, alphas, k0=K0, order=16, levels=30):
    """Weighted-Sobolev errors of the radial solve by nested Gauss rules, no solver helper.

    For r < H, u' - u_H' = -(b'(r) (1 - IL(r)) - a'(r) IR(r)) / 4 with the partial
    moments IL(r) of a delta 2 pi s on (0, r) and IR(r) of b delta 2 pi s on (r, H):
    the whole panels' moments plus a rule mapped onto (panel start, r) for each node.
    For r >= H it is -b'(r) (1 - IL(H)) / 4. The panels halve from H toward 0, grow
    by 1.5 from H toward 1, at most 1/16 wide; (0, r0) takes the -1/(2 pi r) term.
    Only kernels with no breakpoint inside (0, H) are resolved.
    """
    H = delta.support_radius
    c = special.y0(k0) / special.j0(k0)
    rule = gauss_legendre(order)

    def moments(s, w):
        g = w * delta.eval_radial(s) * 2.0 * np.pi * s
        a = special.j0(k0 * s)
        return np.sum(a * g, axis=-1), np.sum((special.y0(k0 * s) - c * a) * g, axis=-1)

    inner = np.concatenate([[0.0], H * 2.0 ** np.arange(-levels, 1.0)])
    x, w = rule.mapped(inner[:-1, None], inner[1:, None])
    whole_a, whole_b = moments(x, w)
    part_a, part_b = moments(*rule.mapped(inner[:-1, None, None], x[:, :, None]))
    il = np.concatenate([[0.0], np.cumsum(whole_a)[:-1]])[:, None] + part_a
    ir = np.cumsum(whole_b[::-1])[::-1][:, None] - part_b
    da, db = _ring_factor_derivs(x, k0)
    d_in = -(db * (1.0 - il) - da * ir) / 4.0
    grown = H * 1.5 ** np.arange(0, math.ceil(math.log(1.0 / H, 1.5)))
    outer = np.unique(np.concatenate([grown, np.arange(1, 17) / 16.0]))
    y, v = rule.mapped(outer[outer >= H][:-1, None], outer[outer >= H][1:, None])
    d_out = -_ring_factor_derivs(y, k0)[1] * (1.0 - np.sum(whole_a)) / 4.0
    out = []
    for alpha in alphas:
        p = 2.0 * alpha + 1.0
        panels = np.sum((w * d_in**2 * x**p)[1:]) + np.sum(v * d_out**2 * y**p)
        out.append(math.sqrt(inner[1] ** (2.0 * alpha) / (4.0 * np.pi * alpha)
                             + 2.0 * np.pi * panels))
    return out


@pytest.mark.parametrize("name, H", [("eta_0_1_2d", 0.25), ("eta_2_3_2d", 0.125),
                                     ("eta_1_2_2d", 2.0**-8), ("eta_2_cos_2d", 1 / 3)])
def test_weighted_sobolev_error_matches_nested_gauss(name, H):
    delta = catalog_lookup(name)(H)
    alphas = (0.25, 0.5, 0.9)
    got = weighted_sobolev_error(RadialHelmholtz2D(kernel=delta),
                                 [WeightedNormSpec(alpha=alpha) for alpha in alphas])
    assert got == pytest.approx(sobolev_oracle(delta, alphas), rel=1e-10)


def test_weighted_sobolev_error_raises_when_order_doubling_fails(monkeypatch):
    monkeypatch.setattr(elliptic, "_SOBOLEV_ORDER", 2)
    problem = RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.125))
    with pytest.raises(QuadratureError, match="order-doubling"):
        weighted_sobolev_error(problem, [WeightedNormSpec(alpha=0.5)])


def test_sobolev_ratio_tracks_alpha_for_one_kernel():
    builder = catalog_lookup("eta_1_2_2d")
    alphas = (0.25, 0.9)
    wspecs = [WeightedNormSpec(alpha=alpha) for alpha in alphas]
    per_H = [weighted_sobolev_error(RadialHelmholtz2D(kernel=builder(H)), wspecs)
             for H in (1 / 64, 1 / 128, 1 / 256)]
    for alpha, es in zip(alphas, zip(*per_H)):
        final_ratio = math.log2(es[-2] / es[-1])
        assert final_ratio == pytest.approx(alpha, abs=0.05)


def test_sobolev_errors_for_several_alphas_match_one_at_a_time():
    problem = RadialHelmholtz2D(kernel=catalog_lookup("eta_1_2_2d")(0.125))
    wspecs = [WeightedNormSpec(alpha=alpha) for alpha in (0.25, 0.5, 0.9)]
    together = weighted_sobolev_error(problem, wspecs)
    assert together == [weighted_sobolev_error(problem, [w])[0] for w in wspecs]
    assert all(e > 0.0 for e in together)


@pytest.mark.parametrize("dim, nodes", [(1, [-1.0, 0.0, 1.0]), (1, [-0.5, 0.0, 1.0]),
                                        (2, [0.5, 0.75, 1.0])])
def test_profile_with_a_nonzero_boundary_value_is_rejected(dim, nodes):
    profile = SolutionProfile(nodes=np.array(nodes), values=np.array([0.0, 1.0, 1e-9]),
                              derivs=np.zeros(3), dim=dim)
    with pytest.raises(ValueError, match="boundary value 1.00e-09 at 1"):
        profile.check_boundary()


def test_profile_nodes_must_increase():
    with pytest.raises(ValueError):
        SolutionProfile(nodes=np.array([0.0, 0.0, 1.0]), values=np.zeros(3),
                        derivs=np.zeros(3))
