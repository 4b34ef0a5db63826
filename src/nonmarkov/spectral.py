"""Spectral densities and the frequency-domain memory kernel.

Three coupling-spectrum families are supported:

* ``OhmicSD``     J(ω) = D·ω, the strict Ohmic (white-noise) limit
* ``PeakedSD``    J(ω) = D²Γω / ((ω²−Ω²)² + Γ²ω²), a Lorentzian-like
                  resonance of strength D², width Γ, center Ω
* ``TabulatedSD`` J given on a grid, monotone-cubic interpolated

Every family exposes the same trio, each taking a scalar or an array ω
and returning an array of the same shape:

* ``j(ω)``                      the spectral density, odd-extended to ω < 0
* ``gamma_tilde_vec(ω)``        the one-sided Fourier transform of the
                                memory kernel, as complex values
* ``gamma_tilde_prime_vec(ω)``  its frequency derivative d γ̃/dω

For Ohmic and Peaked these are closed forms.  For tabulated data the real
part is J(ω)/ω and the imaginary part is recovered from the dispersion
integral  Im γ̃(ω) = −(1/π) 𝒫∫ dν [J(ν)/ν] / (ν−ω),  evaluated by
principal-value quadrature; the derivative falls back to Richardson
central differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import DerivativeUnstable, NonConvergence, PVFailure
from .quadrature import QuadratureConfig, principal_value

__all__ = [
    "SpectralDensity",
    "OhmicSD",
    "PeakedSD",
    "TabulatedSD",
]


class SpectralDensity:
    """Common interface of the spectral-density families.

    The defining data J(ω) lives on ω ≥ 0 and is extended to negative
    frequency as an odd function, which is the convention under which
    Re γ̃ = J(ω)/ω is even and Im γ̃ is odd.
    """

    def j(self, omega) -> np.ndarray:
        raise NotImplementedError

    def gamma_tilde_vec(self, omega) -> np.ndarray:
        """γ̃ at an array of frequencies, as complex values."""
        raise NotImplementedError

    def gamma_tilde_prime_vec(self, omega) -> np.ndarray:
        """dγ̃/dω at an array of frequencies, as complex values."""
        raise NotImplementedError

    def feature_frequencies(self) -> list[float]:
        """Positive frequencies where the kernel has structure; used to
        seed quadrature breakpoints downstream."""
        return []


@dataclass(frozen=True)
class OhmicSD(SpectralDensity):
    """Strict Ohmic spectrum J(ω) = D·ω without ultraviolet cutoff.

    The memory kernel is a delta function, so γ̃(ω) = D identically.
    D = 0 is allowed and means the system is decoupled from the bath.
    """

    damping: float

    def __post_init__(self) -> None:
        if not (self.damping >= 0.0 and math.isfinite(self.damping)):
            raise ValueError("Ohmic damping must be finite and >= 0")

    def j(self, omega) -> np.ndarray:
        return self.damping * np.asarray(omega, dtype=float)

    def gamma_tilde_vec(self, omega) -> np.ndarray:
        return np.full(np.asarray(omega, dtype=float).shape, self.damping,
                       dtype=complex)

    def gamma_tilde_prime_vec(self, omega) -> np.ndarray:
        return np.zeros(np.asarray(omega, dtype=float).shape, dtype=complex)


@dataclass(frozen=True)
class PeakedSD(SpectralDensity):
    """Resonant spectrum J(ω) = D²Γω / ((ω²−Ω²)² + Γ²ω²).

    coupling = D (so the numerator carries D²), width = Γ, resonance = Ω.
    The closed-form kernel below is algebraic in Γ and Ω and remains
    the correct dispersion transform of J for any Γ, Ω > 0, including
    the overdamped regime 2Ω² ≤ Γ² where the spectrum loses its peak.
    """

    coupling: float
    width: float
    resonance: float

    def __post_init__(self) -> None:
        if not (self.coupling >= 0.0 and math.isfinite(self.coupling)):
            raise ValueError("coupling must be finite and >= 0")
        if not (self.width > 0.0 and self.resonance > 0.0):
            raise ValueError("width and resonance must be > 0")

    def _denom(self, omega: np.ndarray) -> np.ndarray:
        w2 = omega ** 2
        return (w2 - self.resonance ** 2) ** 2 + (self.width ** 2) * w2

    def j(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        return self.coupling ** 2 * self.width * omega / self._denom(omega)

    def gamma_tilde_vec(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        d2 = self.coupling ** 2
        g, big = self.width, self.resonance
        den = self._denom(omega)
        re = d2 * g / den
        im = d2 * omega * (g ** 2 + omega ** 2 - big ** 2) / (big ** 2 * den)
        return re + 1j * im

    def gamma_tilde_prime_vec(self, omega) -> np.ndarray:
        w = np.asarray(omega, dtype=float)
        d2 = self.coupling ** 2
        g, big = self.width, self.resonance
        p = (w ** 2 - big ** 2) ** 2 + g ** 2 * w ** 2
        dp = 4.0 * w * (w ** 2 - big ** 2) + 2.0 * g ** 2 * w
        re_p = -d2 * g * dp / p ** 2
        num = g ** 2 + w ** 2 - big ** 2
        im_p = d2 / big ** 2 * ((num + 2.0 * w ** 2) * p - w * num * dp) / p ** 2
        return re_p + 1j * im_p

    def feature_frequencies(self) -> list[float]:
        return [self.resonance, max(self.resonance - self.width, self.width),
                self.resonance + self.width]


@dataclass(frozen=True, eq=False)
class TabulatedSD(SpectralDensity):
    """Spectral density sampled on a grid of non-negative frequencies.

    The samples are interpolated by a monotone cubic (PCHIP), which
    preserves positivity and the endpoint zeros without overshoot.  J is
    taken to vanish outside the tabulated range.  The table must start
    at (0, 0), be strictly increasing in ω, and decay at the far end
    (last value within 1e-3 of zero relative to the table maximum).
    """

    frequencies: np.ndarray
    values: np.ndarray
    pv_config: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if freq.ndim != 1 or freq.shape != vals.shape or freq.size < 4:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        if not (np.isfinite(freq).all() and np.isfinite(vals).all()):
            raise ValueError("table contains non-finite entries")
        if np.any(np.diff(freq) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")
        if freq[0] != 0.0 or vals[0] != 0.0:
            raise ValueError("table must start at the sample (0, 0)")
        if np.any(vals < 0.0):
            raise ValueError("spectral density values must be >= 0")
        peak = vals.max()
        if peak <= 0.0:
            raise ValueError("spectral density is identically zero")
        if vals[-1] > 1e-3 * peak:
            raise ValueError("last sample must be within 1e-3 of zero "
                             "relative to the table maximum (truncate later)")
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_interp", PchipInterpolator(freq, vals))
        object.__setattr__(self, "_slope0",
                           float(self._interp.derivative()(0.0)))
        object.__setattr__(self, "_im_cache", {})

    @classmethod
    def from_file(cls, path, pv_config: QuadratureConfig | None = None) -> "TabulatedSD":
        """Load a two-column "ω J" plain-text table; '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns 'omega J'")
        return cls(data[:, 0], data[:, 1],
                   pv_config=pv_config or QuadratureConfig())

    def j(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        mag = np.abs(omega)
        inside = mag <= self.frequencies[-1]
        out = np.zeros_like(mag)
        out[inside] = self._interp(mag[inside])
        return np.sign(omega) * out

    def _ratio(self, nu: np.ndarray) -> np.ndarray:
        """J(ν)/ν, even and regular at ν = 0 with value J'(0)."""
        nu = np.asarray(nu, dtype=float)
        mag = np.abs(nu)
        out = np.full(mag.shape, self._slope0)
        big = mag > 1e-12 * self.frequencies[-1]
        vals = np.zeros(mag.shape)
        inside = big & (mag <= self.frequencies[-1])
        vals[inside] = self._interp(mag[inside])
        out[big] = vals[big] / mag[big]
        return out

    def _im_dispersion(self, w: float) -> float:
        """Im γ̃ at w > 0 from the principal-value dispersion integral.

        The even symmetry of J(ν)/ν folds the whole-line integral onto
        [0, ∞): ∫ r(ν)/(ν−ω) dν = ∫₀ r(ν)·2ω/(ν²−ω²) dν.  Folding also
        keeps the |ν| kink of the extended ratio at the interval edge,
        where tables with J″(0) ≠ 0 would otherwise spoil the shrinking
        exclusion sequence around nearby poles.

        Each value costs an adaptive quadrature, and the quantifier
        integrals revisit frequencies across their panels, so results
        are memoized per instance.
        """
        hit = self._im_cache.get(w)
        if hit is not None:
            return hit
        top = self.frequencies[-1]
        half = 1.25 * max(top, w) + 1.0
        try:
            val = principal_value(
                lambda nu: self._ratio(nu) * 2.0 * w / (nu * nu - w * w)
                + 0.0j,
                pole=w, a=0.0, b=half, cfg=self.pv_config)
        except NonConvergence as exc:
            raise PVFailure(
                f"dispersion integral for Im γ̃ did not converge at "
                f"ω = {w:.6g}: {exc}") from exc
        out = -val.real / math.pi
        self._im_cache[w] = out
        return out

    def gamma_tilde_vec(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        re = self._ratio(omega)
        im = np.zeros(omega.shape)
        flat = omega.ravel()
        im_flat = im.ravel()
        for i, w in enumerate(flat):
            if w != 0.0:
                im_flat[i] = math.copysign(1.0, w) * self._im_dispersion(abs(w))
        return re + 1j * im.reshape(omega.shape)

    def gamma_tilde_prime_vec(self, omega) -> np.ndarray:
        """dγ̃/dω by two Richardson stages of central differences.

        The frequencies are taken one at a time, in order, so a table too
        coarse or noisy for the stencil fails at its first unstable ω
        without paying for the dispersion integrals of the others.
        """
        omega = np.asarray(omega, dtype=float)
        out = np.empty(omega.size, dtype=complex)
        for i, w in enumerate(omega.ravel()):
            h = 0.02 * max(1.0, abs(w))
            steps = np.array([h, h / 2.0, h / 4.0])
            g = self.gamma_tilde_vec(np.stack((w + steps, w - steps), axis=1))
            d = (g[:, 0] - g[:, 1]) / (2.0 * steps)
            k1 = (4.0 * d[1] - d[0]) / 3.0
            k2 = (4.0 * d[2] - d[1]) / 3.0
            if abs(k2 - k1) > max(1e-6, 1e-4 * abs(k2)):
                raise DerivativeUnstable(
                    f"Richardson difference stages disagree at ω = {w:.6g} "
                    f"(|Δ| = {abs(k2 - k1):.3g}); table too coarse or noisy")
            out[i] = k2
        return out.reshape(omega.shape)

    def feature_frequencies(self) -> list[float]:
        peak = float(self.frequencies[int(np.argmax(self.values))])
        return [f for f in (peak, float(self.frequencies[-1])) if f > 0.0]

