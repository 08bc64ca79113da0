"""Compactly supported, moment-matched point-source regularizations and convergence harnesses."""

from .kernels import (
    CatalogEntry,
    KernelBuilder,
    RegularizedDelta,
    UnknownKernelError,
    catalog_entries,
    catalog_json,
    catalog_lookup,
    catalog_names,
    eval_delta,
    fourier_transform_1d,
    tensor_product,
)
from .moments import (
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
    solve_moment_problem,
)
from .profiles import RadialProfile, cosine_profile, poly_profile
from .quadrature import (
    GaussRule,
    SlopeFit,
    convergence_slope,
    gauss_legendre,
    integrate_1d,
    integrate_panels,
    weak_star_error,
)

__version__ = "0.1.0"
