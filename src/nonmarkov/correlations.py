"""Equilibrium covariances and two-time correlation spectra.

Three pieces of the stationary state:

* ``covariance0``        the diagonal equal-time covariance matrix:
                         equipartition when ħ = 0, otherwise thermally
                         weighted integrals of Im χ̃_qq
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

In the quantum case, c_qq and c_pp are the two rows of one integrand,
so each range is one pass on shared panels: [0, Λ] for both rows, then
[Λ, ∞) through a compactifying map for the rows that decay faster than
ω^{-3/2}, keeping the covariances cutoff-independent whenever they
converge.  The momentum variance of a strict Ohmic bath with ħ > 0 grows
logarithmically with frequency instead, so that row stops at the model
cutoff Λ, and a pass over [Λ, 2Λ] measures its drift; a shift wider
than 1% triggers a ``CutoffSensitive`` warning.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffSensitive
from .quadrature import _DEFAULT_CFG, QuadratureConfig, integrate
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


# Keyed on the spectral density, so the cache keeps its entries' tables
# (and their γ̃ memos) alive.  Only a repeated (p, sd, cfg) hits it; it
# stays while perfbench/worker.py reads its cache_info().
@functools.lru_cache(maxsize=4)
def _covariance0_cached(p: ModelParams, sd: SpectralDensity,
                        cfg: QuadratureConfig) -> CovarianceMatrix:
    bp = feature_frequencies(p, sd)
    bp += [10.0 * p.omega0, 100.0 * p.omega0]
    top = p.cutoff

    def rows(w: np.ndarray) -> np.ndarray:
        # ħω·coth(βħω/2)·Im χ̃_qq/ω, then ω² times it
        s = ((_bose_weight(w, p.beta, p.hbar) - p.hbar * w)
             * _im_chi_over_omega(p, sd, w))
        return np.array([s, w * w * s])

    main = integrate(rows, 0.0, top, cfg, breakpoints=bp).real
    # a row decays when its log-log slope over [Λ/10, Λ] is below −3/2
    # (or it has a non-positive sample there); it is then integrated to
    # infinity, and every other row to 2Λ to measure the drift
    xs = np.geomspace(top / 10.0, top, 9)
    ys = np.abs(rows(xs))
    positive = (ys > 0.0).all(axis=1)
    ly = np.log(np.where(ys > 0.0, ys, 1.0))
    decays = ~positive | (np.polyfit(np.log(xs), ly.T, 1)[0] < -1.5)
    total = main.copy()
    if decays.any():
        total[decays] += integrate(lambda w: rows(w)[decays], top, math.inf,
                                   cfg).real
    drift = 0.0
    if not decays.all():
        extra = integrate(lambda w: rows(w)[~decays], top, 2.0 * top,
                          cfg).real
        drift = float(np.max(np.abs(extra) / main[~decays]))
    return CovarianceMatrix(*(total / math.pi).tolist(), cutoff_drift=drift)


def covariance0(p: ModelParams, sd: SpectralDensity,
                cfg: QuadratureConfig | None = None) -> CovarianceMatrix:
    """Equal-time equilibrium covariance matrix diag(c_qq, c_pp).

    ħ = 0 gives equipartition, c_qq = 1/(βω₀²) and c_pp = 1/β, for every
    bath; so does a decoupled bath its free-oscillator values.
    Otherwise c_qq = (1/π)∫ ħ·coth(βħω/2)·Im χ̃_qq dω and c_pp carries an
    extra ω² weight.  Integrals that keep decaying are pushed to
    infinity; the log-divergent strict-Ohmic quantum c_pp is truncated
    at Λ with a sensitivity warning, and the matrix carries its drift
    between Λ and 2Λ as ``cutoff_drift``.
    """
    if sd.decoupled or p.hbar == 0.0:
        return _free_covariance(p)
    cov = _covariance0_cached(p, sd, cfg or _DEFAULT_CFG)
    if cov.cutoff_drift > 0.01:
        warnings.warn(
            f"momentum variance shifts by {100.0 * cov.cutoff_drift:.1f}% "
            f"between the cutoff and twice the cutoff; result is "
            f"cutoff-limited", CutoffSensitive, stacklevel=2)
    return cov


def exact_entries_vec(p: ModelParams, sd: SpectralDensity,
                      omega) -> np.ndarray:
    """Exact equilibrium spectrum C̃(ω) from the fluctuation-dissipation
    relation, shape (2, 2) + ω.shape."""
    omega = np.asarray(omega, dtype=float)
    s = _bose_weight(omega, p.beta, p.hbar) * _im_chi_over_omega(p, sd, omega)
    return np.array([[s + 0.0j, 1j * omega * s],
                     [-1j * omega * s, omega ** 2 * s + 0.0j]])


def rt_entries_vec(p: ModelParams, sd: SpectralDensity, omega,
                   c0: CovarianceMatrix) -> np.ndarray:
    """Regression-theorem prediction for C̃(ω) given the covariances c0,
    shape (2, 2) + ω.shape."""
    omega = np.asarray(omega, dtype=float)
    c = chi_qq_vec(p, sd, omega)
    im_c = np.imag(c)
    qp = c0.c_pp * c - c0.c_qq * (omega ** 2 * np.conj(c) + 1.0)
    return np.array([[2.0 * omega * c0.c_qq * im_c + 0.0j, qp],
                     [np.conj(qp), 2.0 * omega * c0.c_pp * im_c + 0.0j]])
