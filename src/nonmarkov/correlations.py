"""Equilibrium covariances and two-time correlation spectra.

Three pieces of the stationary state:

* ``covariance0``        the diagonal equal-time covariance matrix, from
                         thermally weighted integrals of Im χ̃_qq
* ``exact_entries_vec``  the fluctuation-dissipation form of C̃(ω)
* ``rt_entries_vec``     what the quantum regression theorem would
                         predict for C̃(ω), given the correct equal-time
                         covariance

Both spectra are ndarrays of shape (2, 2) + ω.shape, entries first, like
every 2×2 function of ω in ``response``.

Thermal weights use the detailed-balance factor 2ħω/(1−e^{−βħω}); the
classical branch (ħ = 0 exactly) replaces it by 2/β.  The removable
singularity at ω = 0 is handled by a series expansion of the Bose
factor, and Im χ̃_qq/ω is evaluated as Re γ̃·|χ̃_qq|², which is finite
everywhere by construction.

The momentum variance of a strict Ohmic bath with ħ > 0 grows
logarithmically with frequency, so that integral is truncated at the
model cutoff Λ; a wider-than-1% shift between Λ and 2Λ triggers a
``CutoffSensitive`` warning.  Integrands that decay faster than ω^{-3/2}
are instead integrated to infinity through a compactifying map, keeping
the covariances cutoff-independent whenever they converge.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffSensitive
from .quadrature import QuadratureConfig, integrate
from .response import (
    CHI_PLUS_INV,
    ModelParams,
    _chi_qq,
    _matmul2,
    chi_matrix,
    chi_qq_vec,
    feature_frequencies,
    is_decoupled,
)
from .spectral import SpectralDensity

__all__ = [
    "CovarianceMatrix",
    "covariance0",
    "exact_entries_vec",
    "rt_spectrum_general",
    "rt_entries_vec",
]

_SERIES_THRESHOLD = 1e-4


@dataclass(frozen=True)
class CovarianceMatrix:
    """Equal-time equilibrium covariances; off-diagonals vanish."""

    c_qq: float
    c_pp: float

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


def _thermal_weight_times_omega(omega: np.ndarray, beta: float,
                                hbar: float) -> np.ndarray:
    """ω·(thermal weight) = ħω·coth(βħω/2), even and finite at ω = 0.

    Classical branch returns the constant 2/β.
    """
    if hbar == 0.0:
        return np.full(omega.shape, 2.0 / beta)
    x = beta * hbar * omega
    out = np.empty(omega.shape)
    small = np.abs(x) < _SERIES_THRESHOLD
    out[small] = 2.0 / beta + beta * (hbar * omega[small]) ** 2 / 6.0 \
        - beta ** 3 * (hbar * omega[small]) ** 4 / 360.0
    xb = x[~small]
    out[~small] = hbar * omega[~small] / np.tanh(xb / 2.0)
    return out


def _bose_weight(omega: np.ndarray, beta: float, hbar: float) -> np.ndarray:
    """2ħω/(1−e^{−βħω}), the detailed-balance weight; 2/β when ħ = 0.

    Near ω = 0 the removable singularity is replaced by the series
    x/(1−e^{−x}) = 1 + x/2 + x²/12 − x⁴/720 + …
    """
    if hbar == 0.0:
        return np.full(omega.shape, 2.0 / beta)
    x = beta * hbar * omega
    out = np.empty(omega.shape)
    small = np.abs(x) < _SERIES_THRESHOLD
    xs = x[small]
    out[small] = (2.0 / beta) * (1.0 + xs / 2.0 + xs ** 2 / 12.0
                                 - xs ** 4 / 720.0)
    with np.errstate(over="ignore"):
        xb = x[~small]
        out[~small] = 2.0 * hbar * omega[~small] / (1.0 - np.exp(-xb))
    return out


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


def _tail_slope(fn, top: float) -> float:
    xs = np.geomspace(top / 10.0, top, 9)
    ys = np.abs(fn(xs))
    if np.any(ys <= 0.0):
        return -math.inf
    slope, _ = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope)


# Keyed on the spectral density, so the cache keeps its entries' tables
# (and their γ̃ memos) alive; its only hit is the cutoff-drift re-read of
# the covariance just computed, which a few entries serve.
@functools.lru_cache(maxsize=4)
def _covariance0_cached(p: ModelParams, sd: SpectralDensity,
                        cfg: QuadratureConfig):
    bp = feature_frequencies(p, sd)
    bp += [10.0 * p.omega0, 100.0 * p.omega0]
    top = p.cutoff

    def component(power: int):
        def integrand(w: np.ndarray):
            w = np.asarray(w, dtype=float)
            val = _thermal_weight_times_omega(w, p.beta, p.hbar) \
                * _im_chi_over_omega(p, sd, w) * w ** power
            return val + 0.0j

        main = integrate(integrand, 0.0, top, cfg, breakpoints=bp).real
        if _tail_slope(integrand, top) < -1.5:
            tail = integrate(integrand, top, math.inf, cfg).real
            return (main + tail) / math.pi, 0.0
        extra = integrate(integrand, top, 2.0 * top, cfg).real
        return main / math.pi, abs(extra / math.pi)

    c_qq, drift_qq = component(0)
    c_pp, drift_pp = component(2)
    drift = max(drift_qq / c_qq if c_qq else 0.0,
                drift_pp / c_pp if c_pp else 0.0)
    return CovarianceMatrix(c_qq, c_pp), drift


def covariance0(p: ModelParams, sd: SpectralDensity,
                cfg: QuadratureConfig | None = None) -> CovarianceMatrix:
    """Equal-time equilibrium covariance matrix diag(c_qq, c_pp).

    c_qq = (1/π)∫ ħ·coth(βħω/2)·Im χ̃_qq dω and c_pp carries an extra ω²
    weight; ħ = 0 selects the classical weight 2/(βω).  Integrals that
    keep decaying are pushed to infinity; the log-divergent strict-Ohmic
    quantum c_pp is truncated at Λ with a sensitivity warning.
    """
    if is_decoupled(sd):
        return _free_covariance(p)
    cov, drift = _covariance0_cached(p, sd, cfg or QuadratureConfig())
    if drift > 0.01:
        warnings.warn(
            f"momentum variance shifts by {100.0 * drift:.1f}% between the "
            f"cutoff and twice the cutoff; result is cutoff-limited",
            CutoffSensitive, stacklevel=2)
    return cov


def covariance0_drift(p: ModelParams, sd: SpectralDensity,
                      cfg: QuadratureConfig | None = None) -> float:
    """Relative change of the covariance between cutoff Λ and 2Λ.

    0 when every component either reached a decaying tail or the model
    is decoupled; values above 0.01 accompany a CutoffSensitive warning
    from covariance0.
    """
    if is_decoupled(sd):
        return 0.0
    _, drift = _covariance0_cached(p, sd, cfg or QuadratureConfig())
    return drift


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


def rt_spectrum_general(p: ModelParams, sd: SpectralDensity, omega,
                        c0: CovarianceMatrix) -> np.ndarray:
    """Matrix form χ̃ χ₊⁻¹ C(0) − C(0) χ₊⁻¹ χ̃† of the same prediction,
    kept separate as an algebraic cross-check of the explicit entries."""
    chi = chi_matrix(p, sd, omega)
    c = c0.as_array()
    return (_matmul2(_matmul2(chi, CHI_PLUS_INV), c)
            - _matmul2(_matmul2(c, CHI_PLUS_INV), chi.conj().swapaxes(0, 1)))
