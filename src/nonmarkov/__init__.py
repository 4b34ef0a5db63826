"""Non-Markovianity quantifiers for the damped quantum harmonic oscillator.

The package measures how far the reduced dynamics of a harmonic
oscillator coupled to a harmonic bath departs from a time-homogeneous,
divisible evolution.  Two frequency-domain quantifiers are provided: one
compares the derivative of the response matrix against the composition
law it would satisfy under divisibility, the other compares the exact
stationary two-time spectrum against the regression-theorem prediction.
Both reduce to normalized L2 distances, so every value lies in [0, 1]
and vanishes identically when the oscillator is decoupled from the bath.
Strict Ohmic damping keeps a nonzero divisibility residual,
D/(ω₀²−ω²−iDω)²·[[1, iω], [−iω, ω²]], so n1 is small at weak coupling
and grows with D.

Layers, bottom up:

``quadrature``
    adaptive Gauss–Kronrod integration of complex integrands, Cauchy
    principal values, oscillatory sine/cosine transforms, L2 inner
    products with tail accounting.
``spectral``
    Ohmic, peaked and tabulated spectral densities J(ω) with their
    memory kernels γ̃(ω) and derivatives.
``response``
    the susceptibility matrix χ̃(ω), its derivative and the divisibility
    residual, each an array of shape (2, 2) + ω.shape; the time-domain
    form and mean evolution after a kick.
``correlations``
    stationary covariances and the exact / regression two-time spectra,
    in the same (2, 2) + ω.shape layout.
``quantifiers``
    the normalized distances built from the layers above.
``oracle``
    two independent cross-checks: a Langevin Monte Carlo propagator and
    a Hamiltonian embedding of the peaked bath.
``cli``
    batch driver (``python -m nonmarkov.cli`` or the ``nonmarkov``
    script).
"""
from __future__ import annotations

from .errors import (
    CutoffSensitive,
    DerivativeUnstable,
    DivisionNearZero,
    NonConvergence,
    NonFinite,
    NumericsError,
    ParityViolation,
    PVFailure,
    TailDominates,
    UnstableStep,
    ZeroNorm,
)
from .quadrature import (
    Integrand,
    LineIntegral,
    QuadratureConfig,
    cosine_transform,
    inner_product_info,
    inner_product_l2,
    integrate,
    integrate_line,
    integrate_line_info,
    norm_l2,
    principal_value,
    sine_transform,
)
from .spectral import (
    OhmicSD,
    PeakedSD,
    SpectralDensity,
    TabulatedSD,
)
from .response import (
    CHI_PLUS,
    CHI_PLUS_INV,
    ModelParams,
    chi_matrix,
    chi_prime_matrix,
    chi_qq_prime_vec,
    chi_qq_vec,
    chi_time,
    divisibility_residual,
    feature_frequencies,
    is_decoupled,
    propagate_means,
)
from .correlations import (
    CovarianceMatrix,
    covariance0,
    covariance0_drift,
    exact_entries_vec,
    rt_entries_vec,
    rt_spectrum_general,
)
from .quantifiers import (
    EntryDiagnostics,
    QuantifierReport,
    distance,
    divisibility_quantifier,
    quantify,
    regression_quantifier,
)
from .oracle import (
    LangevinConfig,
    LangevinResult,
    embedding_response,
    embedding_static_sum,
    langevin_means,
    ou_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "CHI_PLUS",
    "CHI_PLUS_INV",
    "CovarianceMatrix",
    "CutoffSensitive",
    "DerivativeUnstable",
    "DivisionNearZero",
    "EntryDiagnostics",
    "Integrand",
    "LangevinConfig",
    "LangevinResult",
    "LineIntegral",
    "ModelParams",
    "NonConvergence",
    "NonFinite",
    "NumericsError",
    "OhmicSD",
    "ParityViolation",
    "PVFailure",
    "PeakedSD",
    "QuadratureConfig",
    "QuantifierReport",
    "SpectralDensity",
    "TabulatedSD",
    "TailDominates",
    "UnstableStep",
    "ZeroNorm",
    "chi_matrix",
    "chi_prime_matrix",
    "chi_qq_prime_vec",
    "chi_qq_vec",
    "chi_time",
    "cosine_transform",
    "covariance0",
    "covariance0_drift",
    "distance",
    "divisibility_quantifier",
    "divisibility_residual",
    "embedding_response",
    "embedding_static_sum",
    "exact_entries_vec",
    "feature_frequencies",
    "inner_product_info",
    "inner_product_l2",
    "integrate",
    "integrate_line",
    "integrate_line_info",
    "is_decoupled",
    "langevin_means",
    "norm_l2",
    "ou_coefficients",
    "principal_value",
    "propagate_means",
    "quantify",
    "regression_quantifier",
    "rt_entries_vec",
    "rt_spectrum_general",
    "sine_transform",
    "__version__",
]
