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
    one adaptive Gauss–Kronrod engine for vectorized callables of one or
    many rows on shared panels: finite and half-line integrals, Cauchy
    principal values, oscillatory sine/cosine transforms, and the
    whole-line pass that gives ⟨f,g⟩, ‖f‖² and ‖g‖² of the two sides
    one callable returns, with tail accounting, folded onto [0, W].
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
    the normalized distances built from the layers above; each
    quantifier is one whole-line pass over one integrand of both sides.
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
    TailDominates,
    UnstableStep,
    ZeroNorm,
)
from .quadrature import QuadratureConfig, integrate
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
    chi_qq_vec,
    chi_time,
    divisibility_residual,
    feature_frequencies,
    propagate_means,
)
from .correlations import (
    CovarianceMatrix,
    covariance0,
    exact_entries_vec,
    rt_entries_vec,
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
    "LangevinConfig",
    "LangevinResult",
    "ModelParams",
    "NonConvergence",
    "NonFinite",
    "NumericsError",
    "OhmicSD",
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
    "chi_qq_vec",
    "chi_time",
    "covariance0",
    "distance",
    "divisibility_quantifier",
    "divisibility_residual",
    "embedding_response",
    "embedding_static_sum",
    "exact_entries_vec",
    "feature_frequencies",
    "integrate",
    "langevin_means",
    "ou_coefficients",
    "propagate_means",
    "quantify",
    "regression_quantifier",
    "rt_entries_vec",
    "__version__",
]
