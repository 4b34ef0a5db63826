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
the Hurwitz ζ.  ``_matsubara_terms`` gives the frequencies, the term
count and the ζ of that tail for any drift matrix, and quantum n2
(``quantifiers``) of the Ohmic and peaked baths sums over the same
terms.  ``_covariances`` is ``covariance0`` over many baths at once:
the sums of those whose matrices share a size and a term count go as
one batched solve.  The Ohmic bath has A_pp = −D, for which the c_pp
sum diverges logarithmically, so its covariances integrate.

Every other quantum case integrates: tables, the Ohmic bath, β = ∞, and
sums past 2¹³ terms (βħ‖A‖₁ ≳ 1.3e4).  c_qq and c_pp are rows of one
integrand, integrated in one pass on shared panels over [0, ∞) through
a compactifying map, seeded with the bath's feature frequencies and the
decades of the thermal scale 1/(βħ).  The model cutoff Λ regularizes
one integral only: the momentum variance of a strict Ohmic bath (a
drift matrix with A_pp ≠ 0) with ħ > 0, which grows logarithmically
with frequency.  That row stops at Λ, a third row of the same pass
covers (Λ, 2Λ] and measures its drift, and a shift wider than 1%
triggers a ``CutoffSensitive`` warning.  No other covariance depends
on Λ.
"""
from __future__ import annotations

import functools
import math
import os
import sys
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

# the directory of the package's modules, whose frames a warning skips
_PACKAGE = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class CovarianceMatrix:
    """Equal-time equilibrium covariances; off-diagonals vanish.

    cutoff_drift is the relative change of a cutoff-limited variance
    between Λ and 2Λ: 0 unless the variance is the strict-Ohmic quantum
    c_pp, and above 0.01 alongside a CutoffSensitive warning from
    ``covariance0``.
    """

    c_qq: float
    c_pp: float
    cutoff_drift: float = 0.0

    def __post_init__(self) -> None:
        if not (self.c_qq > 0.0 and self.c_pp > 0.0):
            raise ValueError("covariances must be positive")


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
# 4 per order and _TAIL_MOMENTS orders reach rounding.  Past _MAX_TERMS
# (βħ‖A‖₁ ≳ 1.3e4) the covariances keep the quadrature.  The sum takes
# about 0.35 µs per term against 0.5–0.9 ms for the pass, a crossover
# near 2¹¹; but between 2¹¹ and 2¹³ terms the pass reads the covariances
# of the peaked (0.9, 1, 0.0625) bath up to 2.2e-11 off a 50-digit sum,
# where the sum stays within 1e-13.  Quantum n2
# (``quantifiers._n2_quantum_products``) takes about 0.25 ms plus 0.7 µs
# per term against 0.9–1.5 ms for its pass, on the 2×2 Ohmic matrix as
# on the 4×4 peaked ones, so it keeps the pass past _N2_MAX_TERMS, the
# measured crossover.
_MIN_TERMS = 16
_MAX_TERMS = 2 ** 13
_N2_MAX_TERMS = 2 ** 10
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


def _matsubara_terms(p: ModelParams, a: np.ndarray):
    """The Matsubara frequencies ν_n = 2πn/(βħ), n = 1 … N, that a sum
    over the drift matrix a takes directly, ν_{N+1}, and the tail's
    ζ_k = (N+1)^{k+1}·ζ(k+1, N+1) over the orders k + 1 = 2 … 31, so
    that Σ_{n>N} ν_n^{−s} = ζ_{s−1}/ν_{N+1}^s.  N is the last n with
    ν_{n+1} < 4‖a‖₁, and at least _MIN_TERMS.  None unless 0 < βħ < ∞,
    and when N would exceed _MAX_TERMS; any drift matrix takes them."""
    if not 0.0 < p.beta * p.hbar < math.inf:
        return None
    nu1 = 2.0 * math.pi / (p.beta * p.hbar)
    terms = 4.0 * float(np.abs(a).sum(axis=0).max()) / nu1
    # ν_n past the largest float (βħ ≲ 1e-304) is left to the quadrature
    if not (terms <= _MAX_TERMS + 1 and nu1 * (_MAX_TERMS + 1) < math.inf):
        return None
    n = max(_MIN_TERMS, math.ceil(terms) - 1)
    zeta = ((n + 1.0) / (_ORDERS - 1.0) + 0.5
            + (n + 1.0) ** -np.arange(1.0, 12.0, 2.0) @ _EULER_MACLAURIN)
    return nu1 * np.arange(1.0, n + 1.0), nu1 * (n + 1), zeta


def _matsubara_covariance(ps, a: np.ndarray, terms) -> list[CovarianceMatrix]:
    """Quantum covariances of the models ps with the stack a of drift
    matrices, each with a_pp = 0, from the Matsubara sums over
    ν_n = 2πn/(βħ) of their stacked terms (ν_n, ν_{N+1}, ζ) of one N, with
    s_n = (ν_n − a)⁻¹e_p:

        c_qq = (1/β)[1/ω₀² + 2Σ_n (s_n)_q],
        c_pp = (1/β)[1 − 2Σ_n a_p·s_n],

    since (s_n)_q = χ̃_qq(iν_n) and 1 − ν²χ̃_qq(iν) = −e_pᵀa(ν − a)⁻¹e_p.
    The tail n > N expands s_n = Σ_k a^k·e_p/ν_n^{k+1} and sums each
    order over n by Hurwitz ζ; its k = 0 term has no q entry and meets
    a_pp = 0.  One batched solve of (ν_n − a) serves the stack."""
    nu, top, zeta = terms
    dim = a.shape[-1]
    e_p = np.eye(dim)[:, 1:2]
    s = np.linalg.solve(nu[:, :, None, None] * np.eye(dim) - a[:, None], e_p)
    # the tail is Σ_k ζ_k·x^k·e_p/ν_{N+1}, with x = a/ν_{N+1}; the Krylov
    # columns x^k·e_p, k = 0 … 31, come by doubling
    power = a / top[:, None, None]
    krylov = np.broadcast_to(e_p, a.shape[:2] + (1,))
    while krylov.shape[-1] <= _TAIL_MOMENTS:
        krylov = np.concatenate((krylov, power @ krylov), axis=-1)
        power = power @ power
    total = (s.sum(axis=1)[..., 0]
             + (krylov[:, :, 1:_TAIL_MOMENTS + 1] @ zeta[:, :, None])[..., 0]
             / top[:, None])
    ap_total = (a[:, 1:2] @ total[:, :, None])[:, 0, 0]
    return [CovarianceMatrix((1.0 / p.omega0 ** 2 + 2.0 * float(t[0])) / p.beta,
                             (1.0 - 2.0 * float(ap)) / p.beta)
            for p, t, ap in zip(ps, total, ap_total)]


def _covariances(rows) -> list:
    """``covariance0`` of each (p, sd, a, terms) of rows, with a the
    drift matrix of sd at p.omega0 (None for a table or a decoupled
    bath) and terms its ``_matsubara_terms`` under _MAX_TERMS, or the
    NumericsError of its failed pass in its place.  The Matsubara sums
    of rows whose matrices share a size and a term count go as one
    batch; the passes run, and warn, in the order of rows."""
    out: list = [None] * len(rows)
    groups: dict = {}
    for i, (p, sd, a, terms) in enumerate(rows):
        if sd.decoupled or p.hbar == 0.0:
            out[i] = _free_covariance(p)
        elif a is not None and a[1, 1] == 0.0 and terms is not None:
            groups.setdefault((len(a), len(terms[0])), []).append(i)
        else:
            try:
                out[i] = _covariance_pass(p, sd)
            except NumericsError as exc:
                out[i] = exc
    for group in groups.values():
        covs = _matsubara_covariance(
            [rows[i][0] for i in group], np.stack([rows[i][2] for i in group]),
            _stacked_terms([rows[i][3] for i in group]))
        for i, cov in zip(group, covs):
            out[i] = cov
    return out


def _stacked_terms(terms):
    """Matsubara terms of one N, stacked over rows for a batched sum."""
    nu, top, zeta = zip(*terms)
    return np.stack(nu), np.array(top), np.stack(zeta)


# Keyed on the spectral density, so the cache keeps its entries' tables
# (and their γ̃ memos) alive.  Only a repeated (p, sd) hits it; it stays
# while perfbench/worker.py reads its cache_info().  It serves the
# quantum covariances that have no Matsubara route: tables, the Ohmic
# bath (whose c_pp diverges, and whose quantum n2 sums read these
# covariances), β = ∞ and sums past _MAX_TERMS.
@functools.lru_cache(maxsize=4)
def _covariance0_cached(p: ModelParams,
                        sd: SpectralDensity) -> CovarianceMatrix:
    bp = feature_frequencies(p, sd) + [10.0 * p.omega0, 100.0 * p.omega0]
    # the weight ħω·coth(βħω/2) turns over at ω ≈ 2/(βħ), which may lie
    # far below every feature of the bath
    if 0.0 < p.beta * p.hbar < math.inf:
        # a hot enough bath puts the top decades past the largest float,
        # and the pass drops every seed past its map's own bound
        with np.errstate(over="ignore"):
            bp += (10.0 ** np.arange(-1.0, 7.0) / (p.beta * p.hbar)).tolist()
    # The bath decides which rows converge: all but the quantum c_pp of a
    # white-noise kernel (a_pp ≠ 0, strict Ohmic), whose integrand falls
    # like 1/ω.  Its row stops at Λ, and a third row over (Λ, 2Λ]
    # measures its drift.  A table's J ends at its last knot, the peaked
    # J/ω falls like ω⁻⁴ and a classical row carries the weight 2/β.
    a = sd.drift_matrix(p.omega0)
    top = p.cutoff
    cutoff_limited = p.hbar > 0.0 and a is not None and a[1, 1] != 0.0
    if cutoff_limited:
        # only seeds below Λ: an extreme coupling puts its resonance
        # cluster where ω² overflows
        bp = [x for x in bp if x < top] + [top, 2.0 * top]

    def rows(w: np.ndarray) -> np.ndarray:
        # ħω·coth(βħω/2)·Im χ̃_qq/ω, then ω² times it
        s = ((_bose_weight(w, p.beta, p.hbar) - p.hbar * w)
             * _im_chi_over_omega(p, sd, w))
        if not cutoff_limited:
            return np.array([s, w * w * s])
        # the map to infinity visits nodes far beyond 2Λ, where the cut
        # rows vanish and ω² may overflow
        pp = np.minimum(w, 2.0 * top) ** 2 * s
        return np.array([s, pp * (w <= top),
                         pp * ((top < w) & (w <= 2.0 * top))])

    total = integrate(rows, 0.0, math.inf, breakpoints=bp).real
    cov = (total[:2] / math.pi).tolist()
    if not all(0.0 < c < math.inf for c in cov):
        raise NumericsError(f"covariance quadrature gave (c_qq, c_pp) = "
                            f"{cov}, not finite and > 0")
    drift = float(total[2] / total[1]) if cutoff_limited else 0.0
    return CovarianceMatrix(*cov, cutoff_drift=drift)


def _covariance_pass(p: ModelParams, sd: SpectralDensity) -> CovarianceMatrix:
    """The covariances of ``_covariance0_cached``, with a CutoffSensitive
    warning when their cutoff drift passes 1%, attributed to the first
    caller outside the package, however deep the package's own calls."""
    cov = _covariance0_cached(p, sd)
    if cov.cutoff_drift > 0.01:
        frame, level = sys._getframe(1), 2
        while frame.f_code.co_filename.startswith(_PACKAGE) and frame.f_back:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"momentum variance shifts by {100.0 * cov.cutoff_drift:.1f}% "
            f"between the cutoff and twice the cutoff; result is "
            f"cutoff-limited", CutoffSensitive, stacklevel=level)
    return cov


def covariance0(p: ModelParams, sd: SpectralDensity) -> CovarianceMatrix:
    """Equal-time equilibrium covariance matrix diag(c_qq, c_pp).

    ħ = 0 gives equipartition, c_qq = 1/(βω₀²) and c_pp = 1/β, for every
    bath; so does a decoupled bath its free-oscillator values.
    At finite β, a bath whose drift matrix A has A_pp = 0 (the peaked
    bath) gives the Matsubara sums of χ̃_qq(iν_n), with no quadrature.
    Otherwise c_qq = (1/π)∫ ħ·coth(βħω/2)·Im χ̃_qq dω and c_pp carries
    an extra ω² weight, both over [0, ∞) in one adaptive pass.  Only the
    log-divergent strict-Ohmic quantum c_pp reads the cutoff Λ: it is
    truncated there with a sensitivity warning, and the matrix carries
    its drift between Λ and 2Λ as ``cutoff_drift``.
    """
    a = None if sd.decoupled else sd.drift_matrix(p.omega0)
    terms = None if a is None else _matsubara_terms(p, a)
    (cov,) = _covariances([(p, sd, a, terms)])
    if isinstance(cov, NumericsError):
        raise cov
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
