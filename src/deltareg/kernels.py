"""Evaluable n-dimensional regularized point sources and the named kernel catalog."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .moments import BasisFamily, BasisKind, MomentProblemSpec, solve_moment_problem
from .profiles import PolyPiece, RadialProfile, cosine_profile, poly_profile

__all__ = [
    "RegularizedDelta",
    "KernelBuilder",
    "CatalogEntry",
    "UnknownKernelError",
    "catalog_lookup",
    "catalog_names",
    "catalog_entries",
    "catalog_json",
    "tensor_product",
    "eval_delta",
]


class UnknownKernelError(KeyError):
    pass


@dataclass(frozen=True)
class RegularizedDelta:
    """A scaled kernel delta_H: radial profile or tensor product of 1D profiles.

    Immutable; evaluation is pure and safe to share across threads.
    """

    dim: int
    name: str
    profiles: tuple  # one RadialProfile (radial) or dim profiles (tensor)
    half_widths: tuple  # scale factors matching profiles
    is_radial: bool
    moments: int = 0
    weak_order: int = 0
    smoothness: str = ""
    ball_moments_ok: bool = True

    # -- geometry helpers -------------------------------------------------
    @property
    def radial_profile(self) -> RadialProfile:
        if not self.is_radial:
            raise ValueError("not a radial kernel")
        return self.profiles[0]

    def axis_profile(self, i: int) -> RadialProfile:
        return self.profiles[0] if self.is_radial else self.profiles[i]

    @property
    def axis_half_widths(self) -> tuple:
        return self.half_widths if not self.is_radial else (self.half_widths[0],) * self.dim

    @property
    def half_width(self) -> float:
        return self.half_widths[0]

    @property
    def scaled_support(self) -> float:
        return max(p.support for p in self.profiles)

    @property
    def support_radius(self) -> float:
        """Radius of the smallest origin-centered ball containing the support."""
        if self.is_radial:
            return self.half_widths[0] * self.profiles[0].support
        widths = [h * p.support for h, p in zip(self.half_widths, self.profiles)]
        return math.hypot(*widths)

    def profile_breakpoints(self) -> tuple:
        return self.profiles[0].breakpoints

    def breakpoints_physical(self) -> tuple:
        """Kernel breakpoints in the physical variable (radial case)."""
        h = self.half_widths[0]
        return tuple(h * b for b in self.profiles[0].breakpoints)

    # -- evaluation --------------------------------------------------------
    def eval(self, x):
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            h = self.half_widths[0]
            return self.profiles[0].eval(x / h) / h
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != kernel dimension {self.dim}")
        if self.is_radial:
            return self.eval_radial(np.linalg.norm(x, axis=-1))
        out = 1.0
        for i in range(self.dim):
            h = self.half_widths[i]
            out = out * self.profiles[i].eval(x[..., i] / h) / h
        return out

    __call__ = eval

    def eval_radial(self, r):
        """A radial kernel's value at distance r >= 0 from the origin."""
        h = self.half_widths[0]
        return self.radial_profile.eval(np.asarray(r, dtype=float) / h) / h**self.dim


def eval_delta(delta: RegularizedDelta, x) -> float:
    """Evaluate delta_H at a single point (sequence of length dim, or scalar in 1D)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (delta.dim,):
        raise ValueError(f"expected a point of dimension {delta.dim}, got shape {x.shape}")
    if delta.dim == 1:
        return float(delta.eval(x[0]))
    return float(delta.eval(x))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    moments: int
    weak_order: int
    smoothness: str
    closed_form: str
    source: str
    support_factor: float = 1.0
    builder_spec: dict | None = None


@lru_cache(maxsize=None)
def _solved_profile(spec: MomentProblemSpec) -> RadialProfile:
    # one solve per moment problem and process, on first use
    return solve_moment_problem(spec).profile()


@dataclass(frozen=True)
class KernelBuilder:
    """Catalog entry plus a constructor parameterized by the support scale H."""

    entry: CatalogEntry
    printed: RadialProfile | None = None  # literature kernels only; Table-1 ones are solved

    def profile(self) -> RadialProfile:
        """The radial profile: printed for literature kernels, else solved from builder_spec."""
        if self.printed is not None:
            return self.printed
        e, b = self.entry, self.entry.builder_spec
        kind = BasisKind.COSINE if b.get("basis") == "cosine" else BasisKind.SHIFTED_LEGENDRE
        return _solved_profile(MomentProblemSpec(
            dim=e.dim, moments=b["m"], degree=b["p"], basis=BasisFamily(kind, b["p"]),
            boundary_smoothness=b["s"], origin_smoothness=b["origin"],
        ))

    def __call__(self, H: float) -> RegularizedDelta:
        if H <= 0:
            raise ValueError("H must be positive")
        e = self.entry
        return RegularizedDelta(
            dim=e.dim,
            name=e.name,
            profiles=(self.profile(),),
            half_widths=(H,),
            is_radial=True,
            moments=e.moments,
            weak_order=e.weak_order,
            smoothness=e.smoothness,
        )


_CATALOG: dict[str, KernelBuilder] = {}


def _register(name, dim, moments, weak_order, smoothness, closed_form, source,
              builder_spec=None, printed=None):
    entry = CatalogEntry(
        name=name, dim=dim, moments=moments, weak_order=weak_order, smoothness=smoothness,
        closed_form=closed_form, source=source,
        support_factor=printed.support if printed is not None else 1.0,
        builder_spec=builder_spec,
    )
    _CATALOG[name] = KernelBuilder(entry=entry, printed=printed)


# ---- Table 1: profiles solved from builder_spec under SurfaceMeasure --------
# The closed forms are the printed ones (2D under nu(2) = pi, i.e. twice the
# solved profile); tests/test_moments.py checks the solved coefficients against them.
_register("eta_1_0_1d", 1, 1, 1, "L1", "1/2", "table1",
          builder_spec=dict(m=0, p=0, s=0, origin=0))
_register("eta_1_1_1d", 1, 1, 1, "C0", "1 - r", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0))
_register("eta_1_2_1d", 1, 1, 1, "C0", "3 - 9 r + 6 r^2", "table1",
          builder_spec=dict(m=1, p=2, s=1, origin=0))
_register("eta_2_2_1d", 1, 2, 3, "L1", "9/2 - 18 r + 15 r^2", "table1",
          builder_spec=dict(m=2, p=2, s=0, origin=0))
_register("eta_2_3_1d", 1, 2, 3, "C0", "-30 r^3 + 60 r^2 - 36 r + 6", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0))
_register("eta_2_5_1d", 1, 2, 3, "C1",
          "168 r^5 - 945/2 r^4 + 450 r^3 - 150 r^2 + 9/2", "table1",
          builder_spec=dict(m=2, p=5, s=2, origin=2))
_register("eta_0_1_2d", 2, 1, 1, "C0", "(6/pi) (1 - r)", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0))
_register("eta_1_1_2d", 2, 1, 1, "L1", "(6/pi) (3 - 4 r)", "table1",
          builder_spec=dict(m=1, p=1, s=0, origin=0))
_register("eta_1_2_2d", 2, 1, 1, "C0", "(12/pi) (5 r^2 - 8 r + 3)", "table1",
          builder_spec=dict(m=1, p=2, s=1, origin=0))
_register("eta_2_2_2d", 2, 2, 3, "L1", "(12/pi) (15 r^2 - 20 r + 6)", "table1",
          builder_spec=dict(m=2, p=2, s=0, origin=0))
_register("eta_2_3_2d", 2, 2, 3, "C0", "(-60/pi) (7 r^3 - 15 r^2 + 10 r - 2)", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0))
_register("eta_2_5_2d", 2, 2, 3, "C1",
          "(84/pi) (24 r^5 - 70 r^4 + 70 r^3 - 25 r^2 + 1)", "table1",
          builder_spec=dict(m=2, p=5, s=2, origin=2))
_register("eta_1_cos_1d", 1, 1, 1, "C0", "(1/2) (1 + cos(pi r))", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0, basis="cosine"))
_register("eta_2_cos_1d", 1, 2, 3, "C0",
          "1/2 + (23 pi^2/192 - 1/16) cos(pi r) + (pi^2/6) cos(2 pi r) "
          "+ (3 pi^2/64 + 9/16) cos(3 pi r)", "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0, basis="cosine"))
_register("eta_1_cos_2d", 2, 1, 1, "C0", "(2 pi / (pi^2 - 4)) (cos(pi r) + 1)", "table1",
          builder_spec=dict(m=0, p=1, s=1, origin=0, basis="cosine"))
_register("eta_2_cos_2d", 2, 2, 3, "C0",
          "-(144 pi + (pi (45 pi^4 + 32 pi^2 - 48)/16) cos(pi r) "
          "+ 2 pi (9 pi^4 - 80 pi^2 + 48) cos(2 pi r) "
          "+ (81 pi (3 pi^4 - 32 pi^2 + 48)/16) cos(3 pi r)) / (9 pi^4 - 104 pi^2 + 48)",
          "table1",
          builder_spec=dict(m=2, p=3, s=1, origin=0, basis="cosine"))

# ---- literature kernels: no moment spec, the printed profile is the source ----
_register("eta_hat2", 1, 1, 1, "C0", "1/4 (2 - |z|) on [-2, 2]", "hat_literature",
          printed=poly_profile([0.5, -0.25], support=2.0))
_register("eta_cos", 1, 1, 1, "C0", "1/4 (1 + cos(pi z / 2)) on [-2, 2]", "cos_literature",
          printed=cosine_profile([0.25, 0.25], support=2.0))
_register("eta_cubic", 1, 2, 3, "C0",
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


def catalog_json() -> str:
    rows = []
    for name in catalog_names():
        e = catalog_lookup(name).entry
        rows.append({
            "name": name, "dim": e.dim, "moments": e.moments,
            "weak_order": e.weak_order, "smoothness": e.smoothness,
            "closed_form": e.closed_form, "source": e.source,
            "support_factor": e.support_factor,
        })
    return json.dumps(rows, indent=2, sort_keys=True)


def _axis_profile_of(obj) -> tuple[RadialProfile, str]:
    if isinstance(obj, RadialProfile):
        return obj, "profile"
    if isinstance(obj, KernelBuilder):
        if obj.entry.dim != 1:
            raise ValueError(f"tensor axes must be 1D kernels, got {obj.entry.name}")
        return obj.profile(), obj.entry.name
    if isinstance(obj, str):
        return _axis_profile_of(catalog_lookup(obj))
    if hasattr(obj, "spec") and hasattr(obj, "profile"):  # EtaKernel
        if obj.spec.dim != 1:
            raise ValueError("tensor axes must be 1D kernels")
        return obj.profile(), obj.name or "eta"
    raise TypeError(f"cannot use {type(obj)!r} as a tensor axis")


def tensor_product(axes, fit_in_ball: bool) -> RegularizedDelta:
    """Tensor product of 1D kernels, each given as (kernel, H).

    With fit_in_ball the actual half-width of every axis is shrunk to H/sqrt(n)
    so the hypercube support fits inside the ball of radius H; otherwise the
    half-widths are used as given and ball-moment conditions are flagged as
    not guaranteed.
    """
    axes = list(axes)
    n = len(axes)
    profs, scales, names = [], [], []
    moments, weak = [], []
    for obj, H in axes:
        prof, name = _axis_profile_of(obj)
        if H <= 0:
            raise ValueError("H must be positive")
        if fit_in_ball:
            # actual half-width S*h == H/sqrt(n)
            h = H / (math.sqrt(n) * prof.support)
        else:
            h = H
        profs.append(prof)
        scales.append(h)
        names.append(name)
        if isinstance(obj, (KernelBuilder, str)):
            b = obj if isinstance(obj, KernelBuilder) else catalog_lookup(obj)
            moments.append(b.entry.moments)
            weak.append(b.entry.weak_order)
    if n == 1:
        prof = profs[0]
        return RegularizedDelta(
            dim=1, name=f"tensor({names[0]})",
            profiles=(prof,), half_widths=(scales[0],), is_radial=True,
            moments=moments[0] if moments else 0, weak_order=weak[0] if weak else 0,
        )
    return RegularizedDelta(
        dim=n, name="tensor(" + ",".join(names) + ")",
        profiles=tuple(profs), half_widths=tuple(scales), is_radial=False,
        moments=min(moments) if moments else 0,
        weak_order=min(weak) if weak else 0,
        ball_moments_ok=fit_in_ball,
    )
