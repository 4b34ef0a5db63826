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
D/(ω₀²−ω²−iDω)²·[[1, iω], [−iω, ω²]], so n1 is small at weak coupling.
With x = D/ω₀, n1_qq² = x²(1+x²)/(x²(1+x²)+4) and n1_qp² = x²/(2(x²+2))
rise toward 1 and 1/2, while n1_pp² = x²/(x²+(x²+2)²) peaks at 1/9 at
x = √2 and falls like 1/x².

Layers, bottom up:

``quadrature``
    one adaptive Gauss–Kronrod engine for vectorized callables of one or
    many rows on shared panels: finite and half-line integrals, Cauchy
    principal values, oscillatory sine/cosine transforms, and the
    whole-line pass that gives ⟨f,g⟩, ‖f‖² and ‖g‖² over all real
    frequencies of the two sides one callable returns, folded onto one
    half-line [0, ∞).
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
    the normalized distances built from the layers above: n1, and n2 at
    ħ = 0, of a bath with a drift matrix in closed form (algebraic for
    the Ohmic bath, Lyapunov equations for the peaked one), quantum n2
    of both baths by Matsubara sums; any other quantifier one
    whole-line pass over one integrand of both sides.
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
    UnstableStep,
    ZeroNorm,
)
from .quadrature import integrate
from .spectral import (
    OhmicSD,
    PeakedSD,
    SpectralDensity,
    TabulatedSD,
)
from .response import (
    ModelParams,
    chi_matrix,
    chi_prime_matrix,
    chi_qq_vec,
    chi_time,
    divisibility_residual,
    feature_frequencies,
    propagate_means,
)
from .correlations import CovarianceMatrix, covariance0
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
)

__version__ = "0.1.0"

__all__ = [
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
    "QuantifierReport",
    "SpectralDensity",
    "TabulatedSD",
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
    "feature_frequencies",
    "integrate",
    "langevin_means",
    "propagate_means",
    "quantify",
    "regression_quantifier",
    "__version__",
]
