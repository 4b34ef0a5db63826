"""Linear-response matrix of the damped harmonic oscillator.

Everything revolves around the position-position susceptibility

    χ̃_qq(ω) = 1 / (ω₀² − ω² − iω γ̃(ω)),

from which the full 2×2 frequency-domain response matrix, its ω
derivative, the divisibility residual, and the real-time propagator
follow.  Conventions: observables are ordered (q, p), transforms use the
kernel e^{iωt}, so d/dt corresponds to −iω, and the off-diagonal entries
are χ̃_qp = iω χ̃_qq and χ̃_pq = −iω χ̃_qq, with χ̃_pp = 1 + ω² χ̃_qq.

Every 2×2 function of ω is one ndarray of shape (2, 2) + ω.shape, entries
first, for a scalar or an array ω alike; products of such matrices go
through ``_matmul2``.

The time-domain propagator is reconstructed from Im χ̃_qq through sine
and cosine transforms (causality plus reality make that sufficient):

    χ_qq(t) = (2/π) ∫₀^∞ Im χ̃_qq(ω) sin(ωt) dω
    χ_qp(t) = −dχ_qq/dt,   χ_pq(t) = +dχ_qq/dt,
    χ_pp(t) = −d²χ_qq/dt² for t > 0.

A momentum/position kick displaces the means to (−a_p, +a_q) at t = 0⁺,
which then evolve as ⟨A(t)⟩ = χ(t)·a.  For a memory kernel with a
delta-function part (strict Ohmic) the momentum additionally picks up
the friction impulse D·a_p at t = 0⁺; the transforms above contain that
physics automatically.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffSensitive, DivisionNearZero
from .quadrature import QuadratureConfig, _oscillatory_transform
from .spectral import OhmicSD, PeakedSD, SpectralDensity

__all__ = [
    "CHI_PLUS",
    "CHI_PLUS_INV",
    "ModelParams",
    "chi_qq_vec",
    "chi_qq_prime_vec",
    "chi_matrix",
    "chi_prime_matrix",
    "divisibility_residual",
    "chi_time",
    "propagate_means",
    "feature_frequencies",
    "is_decoupled",
]

# Symplectic structure matrix: (χ₊)_qp = −1, (χ₊)_pq = +1.
CHI_PLUS = np.array([[0.0, -1.0], [1.0, 0.0]])
CHI_PLUS_INV = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ModelParams:
    """Oscillator and bath-state parameters.

    omega0  system frequency ω₀, finite and > 0 (the natural unit of the
            problem)
    beta    inverse temperature β > 0; β = ∞ (the ground state) only
            when ħ > 0
    hbar    quantum of action; exactly 0 selects the classical branch
    cutoff  finite UV cutoff Λ > ω₀ for the covariance integrals that
            need one
    """

    omega0: float
    beta: float
    hbar: float = 0.0
    cutoff: float | None = None

    def __post_init__(self) -> None:
        # each message starts with the name of the parameter at fault
        if not 0.0 < self.omega0 < math.inf:
            raise ValueError("omega0 must be finite and > 0")
        if not self.beta > 0.0:
            raise ValueError("beta must be > 0")
        if not self.hbar >= 0.0:
            raise ValueError("hbar must be >= 0")
        if self.hbar == 0.0 and math.isinf(self.beta):
            raise ValueError("beta must be finite when hbar = 0 (the "
                             "classical covariances vanish at T = 0)")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", 1000.0 * self.omega0)
        if not self.omega0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be finite and exceed omega0")
        if self.cutoff <= 10.0 * self.omega0:
            warnings.warn("cutoff within a decade of omega0; covariance "
                          "integrals will be crude", CutoffSensitive)


def _matmul2(a, b) -> np.ndarray:
    """2×2 matrix product over entries-first arrays of shape (2, 2, ...).

    (ab)[i, j] = Σ_k a[i, k]·b[k, j], with the trailing (frequency) axes
    broadcast, so a constant 2×2 matrix combines with a whole batch.  On
    (2, 2, N) batches this broadcast sum is about ten times faster than
    ``@`` on the (N, 2, 2) transpose.
    """
    a, b = np.asarray(a), np.asarray(b)
    nd = max(a.ndim, b.ndim)
    a = a.reshape(a.shape + (1,) * (nd - a.ndim))
    b = b.reshape(b.shape + (1,) * (nd - b.ndim))
    return (a[:, :, None] * b[None]).sum(axis=1)


def _chi_qq(p: ModelParams, omega: np.ndarray, gam: np.ndarray) -> np.ndarray:
    den = p.omega0 ** 2 - omega ** 2 - 1j * omega * gam
    bad = np.abs(den) < 1e-14 * p.omega0 ** 2
    if bad.any():
        w = omega[bad].ravel()[0]
        raise DivisionNearZero(
            f"response denominator vanishes at ω = {w:.6g} "
            "(undamped resonance)")
    return 1.0 / den


def chi_qq_vec(p: ModelParams, sd: SpectralDensity, omega) -> np.ndarray:
    """χ̃_qq at a scalar or an array of frequencies."""
    omega = np.asarray(omega, dtype=float)
    return _chi_qq(p, omega, sd.gamma_tilde_vec(omega))


def _chi_qq_and_prime(p: ModelParams, sd: SpectralDensity,
                      omega: np.ndarray):
    """χ̃_qq and dχ̃_qq/dω = χ̃_qq²·(2ω + iγ̃ + iω dγ̃/dω) from one γ̃
    batch and one γ̃′ batch."""
    gam = sd.gamma_tilde_vec(omega)
    c = _chi_qq(p, omega, gam)
    gam_p = sd.gamma_tilde_prime_vec(omega)
    return c, c ** 2 * (2.0 * omega + 1j * gam + 1j * omega * gam_p)


def chi_qq_prime_vec(p: ModelParams, sd: SpectralDensity, omega) -> np.ndarray:
    """dχ̃_qq/dω at a scalar or an array of frequencies."""
    return _chi_qq_and_prime(p, sd, np.asarray(omega, dtype=float))[1]


def chi_matrix(p: ModelParams, sd: SpectralDensity, omega) -> np.ndarray:
    """Response matrix χ̃(ω) over the (q, p) pair, shape (2, 2) + ω.shape."""
    w = np.asarray(omega, dtype=float)
    c = chi_qq_vec(p, sd, w)
    return np.array([[c, 1j * w * c], [-1j * w * c, 1.0 + w ** 2 * c]])


def chi_prime_matrix(p: ModelParams, sd: SpectralDensity, omega) -> np.ndarray:
    """Entrywise frequency derivative dχ̃/dω, shape (2, 2) + ω.shape."""
    w = np.asarray(omega, dtype=float)
    c, cp = _chi_qq_and_prime(p, sd, w)
    return np.array([[cp, 1j * c + 1j * w * cp],
                     [-1j * c - 1j * w * cp, 2.0 * w * c + w ** 2 * cp]])


def _composed_response(p: ModelParams, sd: SpectralDensity,
                       omega) -> np.ndarray:
    """χ̃ χ₊⁻¹ χ̃, which −i dχ̃/dω equals for a divisible propagator."""
    chi = chi_matrix(p, sd, omega)
    return _matmul2(_matmul2(chi, CHI_PLUS_INV), chi)


def divisibility_residual(p: ModelParams, sd: SpectralDensity,
                          omega) -> np.ndarray:
    """R(ω) = −i dχ̃/dω − χ̃ χ₊⁻¹ χ̃, shape (2, 2) + ω.shape; identically
    zero for a divisible (time-homogeneous) mean propagator."""
    return (-1j * chi_prime_matrix(p, sd, omega)
            - _composed_response(p, sd, omega))


def is_decoupled(sd: SpectralDensity) -> bool:
    """True when the bath coupling is exactly zero."""
    if isinstance(sd, OhmicSD):
        return sd.damping == 0.0
    if isinstance(sd, PeakedSD):
        return sd.coupling == 0.0
    return False


def feature_frequencies(p: ModelParams, sd: SpectralDensity) -> list[float]:
    """Positive frequencies where χ̃ has structure (resonance cluster,
    coupled-mode frequencies, kernel features).  Used as quadrature
    breakpoints so that narrow resonances are never missed."""
    return list(_feature_frequencies(p, sd))


# One model at a time: a χ(t) series asks again for every t, and a
# quantifier for every pass.
@functools.lru_cache(maxsize=1)
def _feature_frequencies(p: ModelParams,
                         sd: SpectralDensity) -> tuple[float, ...]:
    pts: list[float] = [p.omega0]
    if not is_decoupled(sd):
        # damped/shifted resonance: two fixed-point refinements of
        # ω*² = ω₀² + ω* Im γ̃(ω*), half-width from Re γ̃(ω*)
        w_star = p.omega0
        for _ in range(2):
            g = complex(sd.gamma_tilde_vec(np.array([w_star]))[0])
            w_star = math.sqrt(max(p.omega0 ** 2 + w_star * g.imag,
                                   1e-6 * p.omega0 ** 2))
        g = complex(sd.gamma_tilde_vec(np.array([w_star]))[0])
        sigma = 0.5 * max(g.real, 0.0)
        for k in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
            pts.append(w_star + k * sigma)
    if isinstance(sd, PeakedSD) and sd.coupling > 0.0:
        # poles of χ̃ are eigenvalues of the oscillator coupled to the
        # auxiliary mode that generates the peaked kernel
        d, g, big = sd.coupling, sd.width, sd.resonance
        a = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-(p.omega0 ** 2 + d ** 2 / big ** 2), 0.0, d, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [d, 0.0, -big ** 2, -g],
        ])
        for lam in np.linalg.eigvals(a):
            nu, sig = abs(lam.imag), abs(lam.real)
            if nu > 1e-12:
                pts.extend([nu, nu - sig, nu + sig, nu - 3 * sig, nu + 3 * sig])
    pts.extend(sd.feature_frequencies())
    return tuple(sorted({x for x in pts if x > 0.0}))


def _free_propagator(p: ModelParams, t: float) -> np.ndarray:
    w0 = p.omega0
    s, c = math.sin(w0 * t), math.cos(w0 * t)
    return np.array([[s / w0, -c], [c, w0 * s]])


def chi_time(p: ModelParams, sd: SpectralDensity, t: float,
             cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Real-time response matrix χ(t) as a 2×2 real array.

    χ(0) is the pre-kick (causal) limit, i.e. the zero matrix; the
    post-kick values live at t = 0⁺.
    """
    if t < 0.0:
        raise ValueError("response is causal; require t >= 0")
    if is_decoupled(sd):
        if t == 0.0:
            return np.zeros((2, 2))
        return _free_propagator(p, t)
    if t == 0.0:
        return np.zeros((2, 2))
    cfg = cfg or QuadratureConfig()
    bp = feature_frequencies(p, sd)

    def rows(w: np.ndarray) -> np.ndarray:
        im_c = np.imag(chi_qq_vec(p, sd, w))
        return np.array([im_c, w * im_c, w ** 2 * im_c])

    # χ_qq, dχ_qq/dt and χ_pp from one pass over shared panels
    qq, dot, pp = _oscillatory_transform(rows, t, cfg, ("sin", "cos", "sin"),
                                         bp)
    return np.array([[qq, -dot], [dot, pp]])


def propagate_means(p: ModelParams, sd: SpectralDensity, a_q: float,
                    a_p: float, t: float,
                    cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """Mean values (⟨q(t)⟩, ⟨p(t)⟩) after the kick (a_q, a_p) at t = 0.

    At t = 0 the post-kick displacement (−a_p, +a_q) is returned.
    """
    if t < 0.0:
        raise ValueError("require t >= 0")
    if t == 0.0:
        return (-a_p, a_q)
    mean = chi_time(p, sd, t, cfg) @ np.array([a_q, a_p])
    return (float(mean[0]), float(mean[1]))
