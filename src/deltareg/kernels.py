"""Regularized point sources, radial or a 2D tensor square, and the named kernel catalog."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import (BasisFamily, BasisKind, MomentProblemSpec, solve_moment_problem,
                      weak_star_order)
from .profiles import PolyPiece, RadialProfile, cosine_profile, poly_profile

__all__ = [
    "RegularizedDelta",
    "KernelBuilder",
    "CatalogEntry",
    "UnknownKernelError",
    "catalog_lookup",
    "catalog_names",
    "catalog_entries",
    "catalog_rows",
    "catalog_json",
    "tensor_product",
]


class UnknownKernelError(KeyError):
    def __str__(self) -> str:
        return self.args[0]  # a KeyError's str is its argument's repr, in quotes


@dataclass(frozen=True)
class RegularizedDelta:
    """A scaled kernel delta_H: one profile eta at one half-width h.

    A radial kernel is eta(|x|/h) / h^dim.  A tensor kernel (is_radial=False)
    is the 2D square eta(|x|/h) eta(|y|/h) / h^2 of one 1D profile.
    Immutable; evaluation is pure and safe to share across threads.
    """

    dim: int
    name: str
    profile: RadialProfile
    half_width: float
    is_radial: bool = True

    @property
    def support_radius(self) -> float:
        """Radius of the smallest origin-centered ball containing the support."""
        s = self.half_width * self.profile.support
        return s if self.is_radial else math.hypot(s, s)

    def breakpoints_physical(self) -> tuple:
        """Kernel breakpoints in the physical variable (radial case)."""
        return tuple(self.half_width * b for b in self.profile.breakpoints)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        h = self.half_width
        if self.dim == 1:
            return self.profile.eval(x / h) / h
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != kernel dimension {self.dim}")
        if self.is_radial:
            return self.eval_radial(np.linalg.norm(x, axis=-1))
        return self.profile.eval(x[..., 0] / h) / h * self.profile.eval(x[..., 1] / h) / h

    __call__ = eval

    def eval_radial(self, r):
        """A radial kernel's value at distance r >= 0 from the origin."""
        if not self.is_radial:
            raise ValueError("not a radial kernel")
        h = self.half_width
        return self.profile.eval(np.asarray(r, dtype=float) / h) / h**self.dim


def _check_support_scale(H: float) -> None:
    if not 0.0 < H < math.inf:
        raise ValueError(f"H must be positive and finite, got {H}")


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog kernel's description.  A Table-1 `smoothness` is the boundary constraint
    C^(s-1) that its moment problem imposes, s = builder_spec["s"], and L1 for s = 0: so
    the cosine kernels read C0 though they attain C1."""

    name: str
    dim: int
    smoothness: str
    closed_form: str
    source: str
    builder_spec: dict | None = None


@dataclass(frozen=True)
class KernelBuilder:
    """Catalog entry plus a constructor parameterized by the support scale H.  Its moment
    problem (`spec`, None for a literature kernel), profile and weak order are each
    derived once per process, on first use."""

    entry: CatalogEntry
    printed: RadialProfile | None = None  # literature kernels only; Table-1 ones are solved

    @cached_property
    def spec(self) -> MomentProblemSpec | None:
        """The moment problem of builder_spec under SurfaceMeasure; None for literature kernels."""
        e, b = self.entry, self.entry.builder_spec
        if b is None:
            return None
        kind = BasisKind.COSINE if b.get("basis") == "cosine" else BasisKind.SHIFTED_LEGENDRE
        return MomentProblemSpec(
            dim=e.dim, moments=b["m"], degree=b["p"], basis=BasisFamily(kind, b["p"]),
            boundary_smoothness=b["s"], origin_smoothness=b["origin"],
        )

    @cached_property
    def _profile(self) -> RadialProfile:
        return self.printed if self.spec is None else solve_moment_problem(self.spec).profile()

    def profile(self) -> RadialProfile:
        """The radial profile: printed for literature kernels, else solved from `spec`."""
        return self._profile

    @cached_property
    def weak_order(self) -> int:
        """q of the weak-* rate H^(q+1), from the profile's moments on first read."""
        return weak_star_order(self.profile(), self.entry.dim)

    def __call__(self, H: float) -> RegularizedDelta:
        _check_support_scale(H)
        return RegularizedDelta(dim=self.entry.dim, name=self.entry.name,
                                profile=self.profile(), half_width=H)


_CATALOG: dict[str, KernelBuilder] = {}


def _register(name, dim, smoothness, closed_form, source, builder_spec=None, printed=None):
    entry = CatalogEntry(name, dim, smoothness, closed_form, source, builder_spec)
    _CATALOG[name] = KernelBuilder(entry=entry, printed=printed)


# ---- Table 1: profiles solved from builder_spec under SurfaceMeasure --------
# The closed forms are the printed ones (2D under nu(2) = pi, i.e. twice the
# solved profile); tests/test_moments.py checks the solved coefficients against them.
_register("eta_1_0_1d", 1, "L1", "1/2", "table1",
          builder_spec=dict(m=0, p=0, s=0, origin=0))
_register("eta_1_1_1d", 1, "C0", "1 - r", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0))
_register("eta_1_2_1d", 1, "C0", "3 - 9 r + 6 r^2", "table1",
          builder_spec=dict(m=1, p=2, s=1, origin=0))
_register("eta_2_2_1d", 1, "L1", "9/2 - 18 r + 15 r^2", "table1",
          builder_spec=dict(m=2, p=2, s=0, origin=0))
_register("eta_2_3_1d", 1, "C0", "-30 r^3 + 60 r^2 - 36 r + 6", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0))
_register("eta_2_5_1d", 1, "C1", "168 r^5 - 945/2 r^4 + 450 r^3 - 150 r^2 + 9/2", "table1",
          builder_spec=dict(m=2, p=5, s=2, origin=2))
_register("eta_0_1_2d", 2, "C0", "(6/pi) (1 - r)", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0))
_register("eta_1_1_2d", 2, "L1", "(6/pi) (3 - 4 r)", "table1",
          builder_spec=dict(m=1, p=1, s=0, origin=0))
_register("eta_1_2_2d", 2, "C0", "(12/pi) (5 r^2 - 8 r + 3)", "table1",
          builder_spec=dict(m=1, p=2, s=1, origin=0))
_register("eta_2_2_2d", 2, "L1", "(12/pi) (15 r^2 - 20 r + 6)", "table1",
          builder_spec=dict(m=2, p=2, s=0, origin=0))
_register("eta_2_3_2d", 2, "C0", "(-60/pi) (7 r^3 - 15 r^2 + 10 r - 2)", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0))
_register("eta_2_5_2d", 2, "C1", "(84/pi) (24 r^5 - 70 r^4 + 70 r^3 - 25 r^2 + 1)", "table1",
          builder_spec=dict(m=2, p=5, s=2, origin=2))
_register("eta_1_cos_1d", 1, "C0", "(1/2) (1 + cos(pi r))", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0, basis="cosine"))
_register("eta_2_cos_1d", 1, "C0",
          "1/2 + (23 pi^2/192 - 1/16) cos(pi r) + (pi^2/6) cos(2 pi r) "
          "+ (3 pi^2/64 + 9/16) cos(3 pi r)", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0, basis="cosine"))
_register("eta_1_cos_2d", 2, "C0", "(2 pi / (pi^2 - 4)) (cos(pi r) + 1)", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0, basis="cosine"))
_register("eta_2_cos_2d", 2, "C0",
          "-(144 pi + (pi (45 pi^4 + 32 pi^2 - 48)/16) cos(pi r) "
          "+ 2 pi (9 pi^4 - 80 pi^2 + 48) cos(2 pi r) "
          "+ (81 pi (3 pi^4 - 32 pi^2 + 48)/16) cos(3 pi r)) / (9 pi^4 - 104 pi^2 + 48)",
          "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0, basis="cosine"))

# ---- literature kernels: no moment spec, the printed profile is the source ----
_register("eta_hat2", 1, "C0", "1/4 (2 - |z|) on [-2, 2]", "hat_literature",
          printed=poly_profile([0.5, -0.25], support=2.0))
_register("eta_cos", 1, "C0", "1/4 (1 + cos(pi z / 2)) on [-2, 2]", "cos_literature",
          printed=cosine_profile([0.25, 0.25], support=2.0))
_register("eta_cubic", 1, "C0",
          "1 - |z|/2 - z^2 + |z|^3/2 on [0, 1]; 1 - 11|z|/6 + z^2 - |z|^3/6 on (1, 2]",
          "cubic_literature",
          printed=RadialProfile(pieces=(
              PolyPiece(0.0, 1.0, (1.0, -0.5, -1.0, 0.5)),
              PolyPiece(1.0, 2.0, (1.0, -11.0 / 6.0, 1.0, -1.0 / 6.0)),
          ), support=2.0))

_ALIASES = {
    "eta_0_1_1d": "eta_1_1_1d",  # study name for the 1D hat built from mass + C0
    "eta_hat1": "eta_1_1_1d",  # the literature hat 1 - |z| on [-1, 1]
}


def catalog_names() -> list[str]:
    """Every name catalog_lookup resolves, aliases included."""
    return sorted(set(_CATALOG) | set(_ALIASES))


def catalog_lookup(name: str) -> KernelBuilder:
    key = _ALIASES.get(name, name)
    try:
        return _CATALOG[key]
    except KeyError:
        raise UnknownKernelError(
            f"unknown kernel '{name}'; available: {', '.join(catalog_names())}"
        ) from None


def catalog_entries() -> list[CatalogEntry]:
    return [b.entry for _, b in sorted(_CATALOG.items())]


def catalog_rows() -> list[dict]:
    """A `kernel list` row per catalog name, aliases included; `moments` counts the even
    ball moments matched, theta = 0 among them."""
    rows = []
    for name in catalog_names():
        b = catalog_lookup(name)
        e, q = b.entry, b.weak_order
        rows.append(dict(name=name, dim=e.dim, moments=(q + 1) // 2, weak_order=q,
                         smoothness=e.smoothness, support_factor=b.profile().support,
                         source=e.source, closed_form=e.closed_form))
    return rows


def catalog_json() -> str:
    return json.dumps(catalog_rows(), indent=2, sort_keys=True)


def tensor_product(kernel: str | KernelBuilder, H: float) -> RegularizedDelta:
    """The square eta(|x|/h) eta(|y|/h) / h^2 of one 1D kernel, a catalog name or builder.

    h = H / (sqrt(2) S), S the profile's support, so the support square
    [-H/sqrt(2), H/sqrt(2)]^2 has its corners on the circle of radius H.  The
    moment conditions hold on the square, not on that ball.
    """
    builder = catalog_lookup(kernel) if isinstance(kernel, str) else kernel
    name = builder.entry.name
    if builder.entry.dim != 1:
        raise ValueError(f"tensor axes must be 1D kernels, got {name}")
    _check_support_scale(H)
    prof = builder.profile()
    return RegularizedDelta(dim=2, name=f"tensor({name},{name})", profile=prof,
                            half_width=H / (math.sqrt(2) * prof.support), is_radial=False)
