"""Equilibrium covariances and two-time correlation spectra.

Three pieces of the stationary state:

* ``covariance0``        the diagonal equal-time covariance matrix:
                         equipartition when ħ = 0, Matsubara sums for a
                         quantum bath with a suitable drift matrix,
                         otherwise thermally weighted integrals of Im χ̃_qq
* ``exact_entries_vec``  the fluctuation-dissipation form of C̃(ω)
* ``rt_entries_vec``     what the quantum regression theorem would
                         predict for C̃(ω), given the correct equal-time
                         covariance

Both spectra are ndarrays of shape (2, 2) + ω.shape, entries first, like
every 2×2 function of ω in ``response``.

One thermal weight serves the spectra and the quantum covariances:
the detailed-balance factor 2ħω/(1−e^{−βħω}), evaluated through
``expm1`` and equal to 2/β at ω = 0 and in the classical branch (ħ = 0
exactly).  The covariance weight ħω·coth(βħω/2) is that factor minus
ħω.  Im χ̃_qq/ω is evaluated as Re γ̃·|χ̃_qq|², which is finite
everywhere by construction.

The classical covariances need no integral.  With its counter-term the
Caldeira–Leggett coupling leaves the reduced equilibrium state of the
oscillator the bare Gibbs state, so c_qq = 1/(βω₀²) and c_pp = 1/β for
every bath (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)).

The quantum covariances of a bath whose drift matrix A has A_pp = 0 (the
peaked bath's pseudo-mode embedding) need no integral either.  At finite
β they are the Matsubara sums (same reference) of
χ̃_qq(iν_n) = e_qᵀ(ν_n − A)⁻¹e_p over ν_n = 2πn/(βħ): direct batched
solves up to ν_n ≈ 4‖A‖₁, then a tail from the moments e_qᵀA^k·e_p and
the Hurwitz ζ.  The Ohmic bath has A_pp = −D, for which the c_pp sum
diverges logarithmically.

Every other quantum case integrates: tables, the Ohmic bath, β = ∞, and
sums past 2¹⁴ terms (βħ‖A‖₁ ≳ 2.6e4).  c_qq and c_pp are the two rows of
one integrand, so each range is one pass on shared panels: [0, Λ] for
both rows, then [Λ, ∞) through a compactifying map, keeping the
covariances cutoff-independent whenever they converge.  The bath says
which rows those are: the momentum variance of a strict Ohmic bath (a
drift matrix with A_pp ≠ 0) with ħ > 0 grows logarithmically with
frequency, so that row alone stops at the model cutoff Λ, and a pass over [Λ, 2Λ] measures its drift; a shift wider
than 1% triggers a ``CutoffSensitive`` warning.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffSensitive, NumericsError
from .quadrature import integrate
from .response import ModelParams, _chi_qq, chi_qq_vec, feature_frequencies
from .spectral import SpectralDensity

__all__ = [
    "CovarianceMatrix",
    "covariance0",
    "exact_entries_vec",
    "rt_entries_vec",
]

@dataclass(frozen=True)
class CovarianceMatrix:
    """Equal-time equilibrium covariances; off-diagonals vanish.

    cutoff_drift is the relative change of a cutoff-limited variance
    between Λ and 2Λ: 0 when every variance reached a decaying tail or
    the model is decoupled, and above 0.01 alongside a CutoffSensitive
    warning from ``covariance0``.
    """

    c_qq: float
    c_pp: float
    cutoff_drift: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c_qq > 0.0 and self.c_pp > 0.0):
            raise ValueError("covariances must be positive")

    @property
    def c_qp(self) -> float:
        return 0.0

    @property
    def c_pq(self) -> float:
        return 0.0

    def as_array(self) -> np.ndarray:
        return np.diag([self.c_qq, self.c_pp])


def _bose_weight(omega, beta: float, hbar: float) -> np.ndarray:
    """2ħω/(1−e^{−βħω}), the detailed-balance weight; 2/β at ω = 0 and
    when ħ = 0.  ``expm1`` keeps it accurate for small βħω."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weight = 2.0 * hbar * omega / -np.expm1(-beta * hbar * omega)
    return np.where(hbar * omega == 0.0, 2.0 / beta, weight)


def _im_chi_over_omega(p: ModelParams, sd: SpectralDensity,
                       omega: np.ndarray) -> np.ndarray:
    """Im χ̃_qq(ω)/ω = Re γ̃(ω)·|χ̃_qq(ω)|², finite at ω = 0; one γ̃
    batch serves both factors."""
    gam = sd.gamma_tilde_vec(omega)
    return gam.real * np.abs(_chi_qq(p, omega, gam)) ** 2


def _free_covariance(p: ModelParams) -> CovarianceMatrix:
    if p.hbar == 0.0:
        return CovarianceMatrix(1.0 / (p.beta * p.omega0 ** 2), 1.0 / p.beta)
    half = 0.5 * p.hbar / math.tanh(0.5 * p.beta * p.hbar * p.omega0)
    return CovarianceMatrix(half / p.omega0, half * p.omega0)


# The Matsubara sum runs directly up to the first n with ν_{n+1} ≥ 4‖A‖₁
# (at least _MIN_TERMS terms), so the moment series of its tail falls by
# 4 per order and _TAIL_MOMENTS orders reach rounding.  A model whose
# direct part would need more than _MAX_TERMS terms (βħ‖A‖₁ ≳ 2.6e4)
# keeps the quadrature.
_MIN_TERMS = 16
_MAX_TERMS = 2 ** 14
_TAIL_MOMENTS = 30
# Hurwitz ζ(s, a) of the tail's orders s = k + 1 at a = N + 1 ≥ 17 by
# Euler–Maclaurin (Abramowitz & Stegun §23.1.30):
#   a^s·ζ(s, a) = a/(s − 1) + 1/2 + Σ_i B_2i/(2i)!·(s)_{2i−1}·a^{1−2i};
# six Bernoulli terms reach rounding wherever the weight 4^{−k} of an
# order leaves it any effect.  Row i − 1 of _EULER_MACLAURIN holds
# B_2i/(2i)!·(s)_{2i−1} over the orders.
_ORDERS = np.arange(2.0, _TAIL_MOMENTS + 2.0)
_EULER_MACLAURIN = np.array([
    b / math.factorial(2 * i)
    * np.prod([_ORDERS + j for j in range(2 * i - 1)], axis=0)
    for i, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                           -691 / 2730), start=1)])


def _matsubara_covariance(p: ModelParams,
                          a: np.ndarray) -> CovarianceMatrix | None:
    """Quantum covariances of a bath with drift matrix a and a_pp = 0
    from the Matsubara sums over ν_n = 2πn/(βħ), with s_n = (ν_n − a)⁻¹e_p:

        c_qq = (1/β)[1/ω₀² + 2Σ_n (s_n)_q],
        c_pp = (1/β)[1 − 2Σ_n a_p·s_n],

    since (s_n)_q = χ̃_qq(iν_n) and 1 − ν²χ̃_qq(iν) = −e_pᵀa(ν − a)⁻¹e_p.
    The tail n > N expands s_n = Σ_k a^k·e_p/ν_n^{k+1} and sums each
    order over n by Hurwitz ζ; its k = 0 term has no q entry and meets
    a_pp = 0.  Takes 0 < βħ < ∞; None when the direct part would need
    more than _MAX_TERMS terms."""
    nu1 = 2.0 * math.pi / (p.beta * p.hbar)
    terms = 4.0 * float(np.abs(a).sum(axis=0).max()) / nu1
    # ν_n past the largest float (βħ ≲ 1e-304) is left to the quadrature
    if not (terms <= _MAX_TERMS + 1 and nu1 * (_MAX_TERMS + 1) < math.inf):
        return None
    n = max(_MIN_TERMS, math.ceil(terms) - 1)
    dim = len(a)
    e_p = np.eye(dim)[:, 1:2]
    nu = nu1 * np.arange(1.0, n + 1.0)
    s = np.linalg.solve(nu[:, None, None] * np.eye(dim) - a, e_p)
    # the tail is Σ_k ζ_k·x^k·e_p/ν_{N+1}, with x = a/ν_{N+1} and
    # ζ_k = (N+1)^{k+1}·ζ(k+1, N+1); the Krylov columns x^k·e_p,
    # k = 0 … 31, come by doubling
    top = nu1 * (n + 1)
    zeta = ((n + 1.0) / (_ORDERS - 1.0) + 0.5
            + (n + 1.0) ** -np.arange(1.0, 12.0, 2.0) @ _EULER_MACLAURIN)
    power, krylov = a / top, e_p
    while krylov.shape[1] <= _TAIL_MOMENTS:
        krylov = np.hstack((krylov, power @ krylov))
        power = power @ power
    total = s.sum(axis=0)[:, 0] + krylov[:, 1:_TAIL_MOMENTS + 1] @ zeta / top
    return CovarianceMatrix(
        (1.0 / p.omega0 ** 2 + 2.0 * float(total[0])) / p.beta,
        (1.0 - 2.0 * float(a[1] @ total)) / p.beta)


# Keyed on the spectral density, so the cache keeps its entries' tables
# (and their γ̃ memos) alive.  Only a repeated (p, sd) hits it; it stays
# while perfbench/worker.py reads its cache_info().  It serves the
# quantum covariances that have no Matsubara route: tables, the Ohmic
# bath (whose c_pp diverges), β = ∞ and sums past _MAX_TERMS.
@functools.lru_cache(maxsize=4)
def _covariance0_cached(p: ModelParams,
                        sd: SpectralDensity) -> CovarianceMatrix:
    bp = feature_frequencies(p, sd)
    bp += [10.0 * p.omega0, 100.0 * p.omega0]
    top = p.cutoff

    def rows(w: np.ndarray) -> np.ndarray:
        # ħω·coth(βħω/2)·Im χ̃_qq/ω, then ω² times it
        s = ((_bose_weight(w, p.beta, p.hbar) - p.hbar * w)
             * _im_chi_over_omega(p, sd, w))
        return np.array([s, w * w * s])

    main = integrate(rows, 0.0, top, breakpoints=bp).real
    # The bath decides which rows converge: all but the quantum c_pp of a
    # white-noise kernel (a_pp ≠ 0, strict Ohmic), whose integrand falls
    # like 1/ω; it stops at Λ, and a pass over [Λ, 2Λ] measures its
    # drift.  A table's J ends at its last knot, the peaked J/ω falls
    # like ω⁻⁴ and a classical row carries the weight 2/β.
    a = sd.drift_matrix(p.omega0)
    cutoff_limited = p.hbar > 0.0 and a is not None and a[1, 1] != 0.0
    decays = np.array([True, not cutoff_limited])
    total = main.copy()
    total[decays] += integrate(lambda w: rows(w)[decays], top,
                               math.inf).real
    cov = (total / math.pi).tolist()
    if not all(0.0 < c < math.inf for c in cov):
        raise NumericsError(f"covariance quadrature gave (c_qq, c_pp) = "
                            f"{cov}, not finite and > 0")
    drift = 0.0
    if cutoff_limited:
        extra = integrate(lambda w: rows(w)[1:], top, 2.0 * top).real
        drift = float(abs(extra[0]) / main[1])
    return CovarianceMatrix(*cov, cutoff_drift=drift)


def covariance0(p: ModelParams, sd: SpectralDensity) -> CovarianceMatrix:
    """Equal-time equilibrium covariance matrix diag(c_qq, c_pp).

    ħ = 0 gives equipartition, c_qq = 1/(βω₀²) and c_pp = 1/β, for every
    bath; so does a decoupled bath its free-oscillator values.
    At finite β, a bath whose drift matrix A has A_pp = 0 (the peaked
    bath) gives the Matsubara sums of χ̃_qq(iν_n), with no quadrature.
    Otherwise c_qq = (1/π)∫ ħ·coth(βħω/2)·Im χ̃_qq dω and c_pp carries
    an extra ω² weight.  Both integrals run to infinity, except the
    log-divergent strict-Ohmic quantum c_pp, which is truncated at Λ
    with a sensitivity warning, and the matrix carries its drift between
    Λ and 2Λ as ``cutoff_drift``.
    """
    if sd.decoupled or p.hbar == 0.0:
        return _free_covariance(p)
    a = sd.drift_matrix(p.omega0)
    if a is not None and a[1, 1] == 0.0 and 0.0 < p.beta * p.hbar < math.inf:
        cov = _matsubara_covariance(p, a)
        if cov is not None:
            return cov
    cov = _covariance0_cached(p, sd)
    if cov.cutoff_drift > 0.01:
        warnings.warn(
            f"momentum variance shifts by {100.0 * cov.cutoff_drift:.1f}% "
            f"between the cutoff and twice the cutoff; result is "
            f"cutoff-limited", CutoffSensitive, stacklevel=2)
    return cov


def _exact_rows(p: ModelParams, omega, gam, c):
    """C̃ at qq, qp, pp from γ̃ and c = χ̃_qq: s, iωs, ω²s."""
    s = _bose_weight(omega, p.beta, p.hbar) * (gam.real * np.abs(c) ** 2)
    return s + 0.0j, 1j * omega * s, omega ** 2 * s + 0.0j


def _rt_rows(omega, c, c0: CovarianceMatrix):
    """The regression prediction at qq, qp, pp from c = χ̃_qq."""
    im_c = np.imag(c)
    return (2.0 * omega * c0.c_qq * im_c + 0.0j,
            c0.c_pp * c - c0.c_qq * (omega ** 2 * np.conj(c) + 1.0),
            2.0 * omega * c0.c_pp * im_c + 0.0j)


def exact_entries_vec(p: ModelParams, sd: SpectralDensity,
                      omega) -> np.ndarray:
    """Exact equilibrium spectrum C̃(ω) from the fluctuation-dissipation
    relation, shape (2, 2) + ω.shape."""
    omega = np.asarray(omega, dtype=float)
    gam = sd.gamma_tilde_vec(omega)
    qq, qp, pp = _exact_rows(p, omega, gam, _chi_qq(p, omega, gam))
    return np.array([[qq, qp], [-qp, pp]])


def rt_entries_vec(p: ModelParams, sd: SpectralDensity, omega,
                   c0: CovarianceMatrix) -> np.ndarray:
    """Regression-theorem prediction for C̃(ω) given the covariances c0,
    shape (2, 2) + ω.shape."""
    omega = np.asarray(omega, dtype=float)
    qq, qp, pp = _rt_rows(omega, chi_qq_vec(p, sd, omega), c0)
    return np.array([[qq, qp], [np.conj(qp), pp]])
