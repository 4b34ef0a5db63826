"""Linear-response matrix of the damped harmonic oscillator.

Everything revolves around the position-position susceptibility

    χ̃_qq(ω) = 1 / (ω₀² − ω² − iω γ̃(ω)),

from which the full 2×2 frequency-domain response matrix, its ω
derivative, the divisibility residual, and the real-time propagator
follow.  Conventions: observables are ordered (q, p), transforms use the
kernel e^{iωt}, so d/dt corresponds to −iω, and the off-diagonal entries
are χ̃_qp = iω χ̃_qq and χ̃_pq = −iω χ̃_qq, with χ̃_pp = 1 + ω² χ̃_qq.

Every 2×2 function of ω is one ndarray of shape (2, 2) + ω.shape, entries
first, for a scalar or an array ω alike, each written entry by entry
from χ̃_qq.

The time-domain propagator has the entries

    χ_qp(t) = −dχ_qq/dt,   χ_pq(t) = +dχ_qq/dt,
    χ_pp(t) = −d²χ_qq/dt² for t > 0.

A bath with a drift matrix A (``SpectralDensity.drift_matrix``: the
Ohmic oscillator, and the peaked bath's pseudo-mode embedding) gives
them without quadrature: with s = e^{At}·e_p, χ_qq = s_q, dχ_qq/dt = s_p
and χ_pp = −(A·s)_p, where e^{At} is taken by scaling and squaring.  A
table has no drift matrix, and its χ_qq is reconstructed from Im χ̃_qq
through sine and cosine transforms (causality plus reality make that
sufficient):

    χ_qq(t) = (2/π) ∫₀^∞ Im χ̃_qq(ω) sin(ωt) dω,

which stop at the bath's ``support_end``, where J and Im χ̃_qq end.

A momentum/position kick displaces the means to (−a_p, +a_q) at t = 0⁺,
which then evolve as ⟨A(t)⟩ = χ(t)·a.  For a memory kernel with a
delta-function part (strict Ohmic) the momentum additionally picks up
the friction impulse D·a_p at t = 0⁺; both routes contain that physics
automatically (for the Ohmic drift matrix, −(A·s)_p = ω₀²s_q + D·s_p).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionNearZero, NonConvergence
from .quadrature import _oscillatory_transform
from .spectral import SpectralDensity

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
    hbar    finite quantum of action ≥ 0; exactly 0 selects the classical
            branch
    cutoff  finite UV cutoff Λ > ω₀, read only by the one covariance
            integral that diverges without it: the momentum variance
            of a strict Ohmic bath at ħ > 0
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
        if not 0.0 <= self.hbar < math.inf:
            raise ValueError("hbar must be finite and >= 0")
        if self.hbar == 0.0 and math.isinf(self.beta):
            raise ValueError("beta must be finite when hbar = 0 (the "
                             "classical covariances vanish at T = 0)")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", 1000.0 * self.omega0)
        if not self.omega0 < self.cutoff < math.inf:
            raise ValueError("cutoff must be finite and exceed omega0")


def _chi_qq(p: ModelParams, omega: np.ndarray, gam: np.ndarray) -> np.ndarray:
    # ω₀² − ω² − iωγ̃ from its real and imaginary parts: where ω·Re γ̃
    # overflows, 1j·∞ would be nan + ∞j, while ∞ as the imaginary part
    # gives χ̃_qq = 0
    with np.errstate(over="ignore"):
        den = np.array(p.omega0 ** 2 - omega ** 2 + omega * gam.imag,
                       dtype=complex)
        den.imag = -omega * gam.real
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


def _chi_prime_rows(omega, c, cp):
    """dχ̃/dω at qq, qp, pp from c = χ̃_qq and cp = dχ̃_qq/dω; pq is −qp."""
    return cp, 1j * c + 1j * omega * cp, 2.0 * omega * c + omega ** 2 * cp


def chi_prime_matrix(p: ModelParams, sd: SpectralDensity, omega) -> np.ndarray:
    """Entrywise frequency derivative dχ̃/dω, shape (2, 2) + ω.shape."""
    w = np.asarray(omega, dtype=float)
    qq, qp, pp = _chi_prime_rows(w, *_chi_qq_and_prime(p, sd, w))
    return np.array([[qq, qp], [-qp, pp]])


def divisibility_residual(p: ModelParams, sd: SpectralDensity,
                          omega) -> np.ndarray:
    """R(ω) = −i dχ̃/dω − χ̃ χ₊⁻¹ χ̃, shape (2, 2) + ω.shape; identically
    zero for a divisible (time-homogeneous) mean propagator.

    The two terms cancel to χ̃_qq²·(γ̃ + ω dγ̃/dω)·[[1, iω], [−iω, ω²]],
    which is evaluated instead, so a weak bath keeps its digits."""
    w = np.asarray(omega, dtype=float)
    gam = sd.gamma_tilde_vec(w)
    r = _chi_qq(p, w, gam) ** 2 * (gam + w * sd.gamma_tilde_prime_vec(w))
    return np.array([[r, 1j * w * r], [-1j * w * r, w ** 2 * r]])


def feature_frequencies(p: ModelParams, sd: SpectralDensity) -> list[float]:
    """Positive frequencies where χ̃ has structure: ω₀, the cluster
    around the damped and shifted resonance of any coupled bath, and the
    bath's own ``feature_frequencies(ω₀)`` (for the peaked bath, the
    poles of χ̃).  Used as quadrature breakpoints so that narrow
    resonances are never missed."""
    return list(_feature_frequencies(p.omega0, sd))


# One (ω₀, bath) at a time: a χ(t) series asks again for every t, a
# quantifier for every pass, and a β or ħ sweep for every row.
@functools.lru_cache(maxsize=1)
def _feature_frequencies(omega0: float,
                         sd: SpectralDensity) -> tuple[float, ...]:
    pts: list[float] = [omega0]
    if not sd.decoupled:
        # damped/shifted resonance: two fixed-point refinements of
        # ω*² = ω₀² + ω* Im γ̃(ω*), half-width from Re γ̃(ω*)
        w_star = omega0
        for _ in range(2):
            g = complex(sd.gamma_tilde_vec(np.array([w_star]))[0])
            w_star = math.sqrt(max(omega0 ** 2 + w_star * g.imag,
                                   1e-6 * omega0 ** 2))
        g = complex(sd.gamma_tilde_vec(np.array([w_star]))[0])
        sigma = 0.5 * max(g.real, 0.0)
        for k in (-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0):
            pts.append(w_star + k * sigma)
    pts.extend(sd.feature_frequencies(omega0))
    return tuple(sorted({x for x in pts if x > 0.0}))


# [13/13] Padé approximant of e^x (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005)).  With the coefficients b_k, U = A·(A⁶·U_hi + U_lo) and
# V = A⁶·V_hi + V_lo; each row below gives one of U_hi, U_lo, V_hi, V_lo
# as a combination of (A², A⁴, A⁶), and _PADE13_EYE its multiple of I.
_PADE13 = np.array([
    [40840800.0, 16380.0, 1.0],
    [1187353796428800.0, 10559470521600.0, 33522128640.0],
    [1323241920.0, 960960.0, 182.0],
    [7771770303897600.0, 129060195264000.0, 670442572800.0],
])
_PADE13_EYE = np.array([0.0, 32382376266240000.0, 0.0, 64764752532480000.0])
# The scaling of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
# (2009): the approximant is exact in double precision while
# η₃ = max(d₆, d₈) ≤ θ₁₃, with d_k = ‖A^k‖₁^{1/k}.  Two refinements of
# theirs are left out, as neither brought e^A closer to a 40-digit
# reference on Ohmic and peaked drift matrices: min(η₃, η₄), which also
# needs A¹⁰ (the same worst error on 400 random ones), and ℓ(A, 13),
# which adds squarings on an |A|-based bound (on 60 where it adds one:
# worst 3.7e-13 of the norm with it, 3.0e-13 without).
_THETA13 = 4.25
# largest ‖a‖₁ that _expm takes: the squarings round an undamped
# oscillator's e^{At} to about ‖A·t‖₁·ε relative (up to 1.6e-8 at 1e8),
# and past about 1e17 its amplitude drifts without bound
_MAX_EXPM_NORM = 1e8


@functools.cache
def _ones_and_eye(n: int):
    """The ones vector and the identity of size n that ``_expm`` reads,
    built once per size; read only."""
    ones, eye = np.ones(n), np.eye(n)
    ones.flags.writeable = eye.flags.writeable = False
    return ones, eye


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring with the [13/13] Padé approximant.

    No eigenvectors are used, so a defective matrix (the critically
    damped oscillator, D = 2ω₀) is as accurate as any other.  The
    squarings follow ‖A^k‖₁^{1/k}, which a non-normal A (a sharp peaked
    bath) keeps far below ‖A‖₁; each needless squaring only adds
    rounding.  The products use ``ndarray.dot``, which costs a 4×4
    matrix about half of what ``@`` does."""
    n = len(a)
    # column sums as 1ᵀ·|X|, and in Python from there on: the reductions
    # of numpy cost a 4×4 matrix more than its products
    ones, eye = _ones_and_eye(n)
    norm = max(ones.dot(np.abs(a)).tolist())
    if norm > _MAX_EXPM_NORM:
        raise NonConvergence(f"e^(At) needs ‖A·t‖₁ <= {_MAX_EXPM_NORM:.0e} "
                             f"to keep the rounding of its squarings small, "
                             f"got {norm:.3g}")
    a2 = a.dot(a)
    a4 = a2.dot(a2)
    a6 = a4.dot(a2)
    squarings = 0
    if norm > _THETA13:  # otherwise η ≤ ‖A‖₁ needs none
        # d₆ and d₈ from the exact powers, which a 4×4 matrix affords:
        # the column sums of |[A⁶, A⁸]|
        sums = ones.dot(np.abs(np.concatenate((a6, a4.dot(a4)), axis=1)))
        sums = sums.tolist()
        eta = max(max(sums[:n]) ** (1.0 / 6.0), max(sums[n:]) ** (1.0 / 8.0))
        if eta > _THETA13:
            squarings = math.ceil(math.log2(eta / _THETA13))
            a = a * 2.0 ** -squarings
            a2 = a.dot(a)
            a4 = a2.dot(a2)
            a6 = a4.dot(a2)
    parts = _PADE13.dot(np.array([a2, a4, a6]).reshape(3, -1))
    parts[:, ::n + 1] += _PADE13_EYE[:, None]
    u_hi, u_lo, v_hi, v_lo = parts.reshape(4, n, n)
    u = a.dot(a6.dot(u_hi) + u_lo)
    v = a6.dot(v_hi) + v_lo
    # (V − U)⁻¹(V + U) as I + 2(V − U)⁻¹U, the form of scipy's expm: on
    # Ohmic D = 20ω₀ at t = 456/ω₀ the twelve squarings left the first
    # form 1.4e-12 off a 40-digit e^{At}, this one 3.0e-14
    r = np.linalg.solve(v - u, 2.0 * u) + eye
    for _ in range(squarings):
        r = r.dot(r)
    return r


def chi_time(p: ModelParams, sd: SpectralDensity, t: float) -> np.ndarray:
    """Real-time response matrix χ(t) as a 2×2 real array.

    χ(0) is the pre-kick (causal) limit, i.e. the zero matrix; the
    post-kick values live at t = 0⁺.  t must be finite: the response is
    causal, and no window bounds the transform at t = ∞ or NaN.

    A bath with a drift matrix A gives s = e^{At}·e_p, and
    χ(t) = [[s_q, −s_p], [s_p, −(A·s)_p]], with no quadrature.  A table
    goes through the transforms of ``_chi_time_transform``.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"response requires 0 <= t < inf, got {t}")
    if t == 0.0:
        return np.zeros((2, 2))
    a = sd.drift_matrix(p.omega0)
    if a is None:
        return _chi_time_transform(p, sd, t)
    s = _expm(a * t)[:, 1]
    return np.array([[s[0], -s[1]], [s[1], -(a[1] @ s)]])


def _chi_time_transform(p: ModelParams, sd: SpectralDensity,
                        t: float) -> np.ndarray:
    """χ(t) for 0 < t < ∞ from the sine and cosine transforms of Im χ̃_qq
    on panels locked to the period 2π/t, for any coupled bath; they stop
    at the bath's ``support_end``, beyond which Im χ̃_qq ≡ 0."""
    bp = feature_frequencies(p, sd)

    def rows(w: np.ndarray) -> np.ndarray:
        im_c = np.imag(chi_qq_vec(p, sd, w))
        return np.array([im_c, w * im_c, w ** 2 * im_c])

    # χ_qq, dχ_qq/dt and χ_pp from one pass over shared panels
    qq, dot, pp = _oscillatory_transform(rows, t, ("sin", "cos", "sin"),
                                         bp, sd.support_end)
    return np.array([[qq, -dot], [dot, pp]])


def propagate_means(p: ModelParams, sd: SpectralDensity, a_q: float,
                    a_p: float, t: float) -> tuple[float, float]:
    """Mean values (⟨q(t)⟩, ⟨p(t)⟩) after the kick (a_q, a_p) at t = 0.

    At t = 0 the post-kick displacement (−a_p, +a_q) is returned; any
    other t goes to ``chi_time``, which requires 0 < t < ∞.  Both kicks
    must be finite.
    """
    for name, kick in (("a_q", a_q), ("a_p", a_p)):
        if not math.isfinite(kick):
            raise ValueError(f"{name} must be finite, got {kick}")
    if t == 0.0:
        return (-a_p, a_q)
    mean = chi_time(p, sd, t) @ np.array([a_q, a_p])
    return (float(mean[0]), float(mean[1]))
