import warnings

import numpy as np
import pytest

from deltareg.elliptic import RadialHelmholtz2D, solve_regularized_2d_radial
from deltareg.kernels import catalog_lookup, catalog_names
from deltareg.profiles import PolyPiece, RadialProfile


def masked_eval(profile, r):
    """The masked evaluation that `RadialProfile.eval` replaced, kept as its oracle."""
    scalar = np.isscalar(r) or np.ndim(r) == 0
    r = np.atleast_1d(np.abs(np.asarray(r, dtype=float)))
    out = np.zeros_like(r)
    if profile.is_polynomial:
        for piece in profile.pieces:  # a boundary point belongs to the inner piece
            above = r > piece.lo if piece.lo > 0.0 else r >= piece.lo
            mask = above & (r <= piece.hi)
            out[mask] = np.polyval(piece.coeffs[::-1], r[mask])
    else:
        mask = r <= profile.support
        rm = r[mask]
        acc = np.zeros_like(rm)
        for k, c in enumerate(profile.cos_coeffs):
            acc += c * np.cos(k * np.pi * rm / profile.support)
        out[mask] = acc
    return float(out[0]) if scalar else out


@pytest.fixture(scope="module")
def mesh_gauss_points():
    """Every point, in profile units, at which a 2D solve at H = 2^-2 on the uniform
    radii r = h .. 1, h = 1 / 20480, evaluates."""
    seen = []
    original = RadialProfile.eval

    def recording(self, r):
        seen.append(np.array(r, dtype=float))
        return original(self, r)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RadialProfile, "eval", recording)
        solve_regularized_2d_radial(RadialHelmholtz2D(kernel=catalog_lookup("eta_2_3_2d")(0.25)),
                                    np.arange(1, 20481) / 20480)
    assert seen and all(r.ndim == 2 for r in seen)
    return seen


def _probes(profile):
    s = profile.support
    edges = np.array(profile.breakpoints)
    inner = np.linspace(0.0, s, 37)
    return [
        0.0, -0.0, s, -s, np.nextafter(s, np.inf), np.inf, -np.inf, np.nan, 0.3 * s, -0.7 * s,
        np.array(0.5 * s),  # a 0-d array
        edges, -edges, np.array([0.0, -0.0, np.inf, -np.inf, np.nan, np.nextafter(s, np.inf)]),
        np.concatenate([inner, -inner]), np.stack([inner, -inner[::-1]]),  # 1-D and 2-D
    ]


def _same(got, want):
    if isinstance(want, float):
        return type(got) is float and np.array(got).tobytes() == np.array(want).tobytes()
    return (isinstance(got, np.ndarray) and got.shape == want.shape
            and got.dtype == want.dtype and np.array_equal(got, want)
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("name", catalog_names())
def test_eval_is_bit_identical_to_the_masked_evaluation(name, mesh_gauss_points):
    profile = catalog_lookup(name).profile()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in _probes(profile) + mesh_gauss_points:
            assert _same(profile.eval(r), masked_eval(profile, r)), (name, r)


def test_a_shared_edge_keeps_the_inner_piece():
    step = RadialProfile(pieces=(PolyPiece(0.0, 1.0, (2.0,)), PolyPiece(1.0, 2.0, (3.0,))),
                         support=2.0)
    assert step.eval(np.array([1.0, -1.0, np.nextafter(1.0, 2.0)])).tolist() == [2.0, 2.0, 3.0]
    assert masked_eval(step, 1.0) == step.eval(1.0) == 2.0


@pytest.mark.parametrize("edges, support", [
    ([(0.0, 0.5), (0.6, 1.0)], 1.0),  # a gap
    ([(0.0, 0.6), (0.5, 1.0)], 1.0),  # an overlap
    ([(0.1, 1.0)], 1.0),  # not starting at 0
    ([(0.0, 0.5), (0.5, 0.5), (0.5, 1.0)], 1.0),  # an empty piece
    ([(0.5, 1.0), (0.0, 0.5)], 1.0),  # descending
    ([(0.0, 1.0), (1.0, 2.0)], 1.5),  # beyond the support
], ids=["gap", "overlap", "first-lo-above-0", "empty-piece", "descending", "beyond-support"])
def test_pieces_that_do_not_tile_from_0_are_rejected(edges, support):
    with pytest.raises(ValueError, match="pieces must tile"):
        RadialProfile(pieces=tuple(PolyPiece(lo, hi, (1.0,)) for lo, hi in edges),
                      support=support)


def test_pieces_may_end_inside_the_support():
    profile = RadialProfile(pieces=(PolyPiece(0.0, 1.0, (1.0, -1.0)),), support=2.0)
    assert profile.eval(np.array([0.5, 1.5, 2.0])).tolist() == [0.5, 0.0, 0.0]
