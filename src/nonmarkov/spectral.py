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
part is J(ω)/ω and the imaginary part is the dispersion integral
Im γ̃(ω) = −(1/π) 𝒫∫ dν [J(ν)/ν] / (ν−ω).  The table is interpolated
by a piecewise cubic, whose Hilbert transform is itself closed form
(F. W. King, *Hilbert Transforms*, CUP 2009), so Im γ̃ and dγ̃/dω come
from the cubic coefficients without quadrature; ``principal_value``
stays in ``quadrature`` as an independent check.  A table too rough
for its derivative is caught by comparison with its every-other-knot
subtable and raises ``DerivativeUnstable``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import PchipInterpolator

from .errors import DerivativeUnstable

__all__ = [
    "SpectralDensity",
    "OhmicSD",
    "PeakedSD",
    "TabulatedSD",
]

# (ω × knot) elements per block of the tabulated kernel evaluation
_BLOCK = 4096
# distinct |ω| a tabulated kernel memo holds before it is cleared
_MEMO_CAP = 2 ** 14
# median relative gap of dγ̃/dω between a table and its every-other-knot
# subtable above which the table is too rough to differentiate
_ROUGHNESS_LIMIT = 0.25
_ROUGHNESS_PROBES = 64
# odd moments in the far-field series of the tabulated kernel; at
# ω ≥ 2·top the series converges by a factor 4 per term
_MOMENTS = 30


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

    Re γ̃ = J(ω)/ω comes from the interpolant.  Im γ̃ and dγ̃/dω are the
    exact dispersion transform of the interpolant, in closed form from
    its cubic coefficients (``_kernel``), memoized per instance on |ω|.
    The first derivative request compares the table with its
    every-other-knot subtable; when their dγ̃/dω differ by a median
    relative gap above ``_ROUGHNESS_LIMIT`` the table is too coarse or
    noisy to differentiate and every derivative request raises
    ``DerivativeUnstable``.
    """

    frequencies: np.ndarray
    values: np.ndarray

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
        interp = PchipInterpolator(freq, vals)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_slope0", float(interp.derivative()(0.0)))

        # Jumps α, β of the t², t³ Taylor coefficients of the segment
        # cubics at knots 1 … n−1, t = c − x_j; the last knot borders
        # the J = 0 continuation, whose value and slope jumps are p0, p1.
        a3, a2, a1, _ = interp.c
        h = np.diff(freq)
        alpha = 3.0 * a3 * h + a2 - np.append(a2[1:], 0.0)
        beta = a3 - np.append(a3[1:], 0.0)
        x = freq[1:]
        c2 = 2.0 * alpha - 6.0 * beta * x
        knots = np.array([x, alpha, beta, c2,
                          2.0 * x * x * (alpha - beta * x),
                          4.0 * alpha * x - 6.0 * beta * x * x,
                          2.0 * beta * x])
        cubic = float(np.sum(a3 * h))
        p0 = float(vals[-1])
        p1 = float(3.0 * a3[-1] * h[-1] ** 2 + 2.0 * a2[-1] * h[-1] + a1[-1])
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_ends", (cubic, p0, p1))
        # finite part of Im γ̃′ at ω = 0, where it diverges like
        # (J″(0)/π)·log|ω| unless J″(0) = 0; callers multiply it by ω
        top = freq[-1]
        reg = (2.0 * cubic - p0 / top ** 2 - p1 / top
               + np.sum(c2 * np.log(x) + 3.0 * alpha - 5.0 * beta * x - c2))
        object.__setattr__(self, "_im_prime0", -float(reg) / math.pi)
        # far field ω ≥ 2·top: E = −2∫J/ν − 2·Σ_{m odd} M_m/ω^{m+1} with
        # the moments M_m = μ·top^m of J, by 32-point Gauss–Legendre per
        # segment (exact for these polynomials of degree ≤ 62, and for the
        # quadratic J/ν on the first segment)
        xi, wt = np.polynomial.legendre.leggauss(32)
        g0, mu = 0.0, np.zeros(_MOMENTS)
        step = _BLOCK // xi.size
        for lo in range(0, h.size, step):
            half = 0.5 * h[lo:lo + step, None]
            nodes = x[lo:lo + step, None] - half * (1.0 - xi)
            jw = interp(nodes) * half * wt
            g0 += float(np.sum(jw / nodes))
            r = nodes / top
            term, r2 = jw * r, r * r
            for i in range(_MOMENTS):
                mu[i] += term.sum()
                term *= r2
        object.__setattr__(self, "_far", (g0, mu, 2.0 * np.arange(
            1, _MOMENTS + 1) * mu))
        object.__setattr__(self, "_memo", (np.empty(0), np.empty((2, 0))))
        object.__setattr__(self, "_roughness", None)

    @classmethod
    def from_file(cls, path) -> "TabulatedSD":
        """Load a two-column "ω J" plain-text table; '#' starts a comment."""
        data = np.loadtxt(path, comments="#", ndmin=2)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError(f"{path}: expected two columns 'omega J'")
        return cls(data[:, 0], data[:, 1])

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

    def _ratio_prime(self, w: np.ndarray) -> np.ndarray:
        """d(J(ν)/ν)/dν at ν = w ≥ 0; on the first segment J/ν is the
        exact quadratic a3·ν² + a2·ν + a1."""
        x1, top = self.frequencies[1], self.frequencies[-1]
        a3, a2 = self._interp.c[:2, 0]
        out = np.zeros(w.shape)
        first = w <= x1
        out[first] = 2.0 * a3 * w[first] + a2
        mid = (w > x1) & (w <= top)
        wm = w[mid]
        out[mid] = (self._interp(wm, 1) * wm - self._interp(wm)) / wm ** 2
        return out

    def _kernel(self, w: np.ndarray) -> np.ndarray:
        """E(ω) and dE/dω at the frequencies w > 0, shape (2, w.size):
        the moment series at w ≥ 2·top, the knot sums below."""
        top = self.frequencies[-1]
        series = w >= 2.0 * top
        out = np.empty((2, w.size))
        g0, mu, dmu = self._far
        r = top / w[series]
        r2 = r * r
        out[0, series] = -2.0 * g0 - (2.0 / top) * r2 * polyval(r2, mu)
        out[1, series] = (2.0 / top ** 2) * r * r2 * polyval(r2, dmu)
        out[:, ~series] = self._knot_sums(w[~series])
        return out

    def _knot_sums(self, w: np.ndarray) -> np.ndarray:
        """E(ω) and dE/dω at the frequencies w > 0, shape (2, w.size).

        With G(c) = 𝒫∫₀^top J(ν)/(ν−c) dν the dispersion integral is
        𝒫∫ [J(ν)/ν]/(ν−ω) dν = E(ω)/ω, E = G(ω) + G(−ω) − 2G(0).  On a
        segment J = (ν−c)·q(ν) + J(c), so G(c) = Σ∫q + Σ_j log|x_j−c|·Δ_j(c)
        with Δ_j the jump of the segment cubics at knot x_j.  PCHIP is C¹,
        so Δ_j = α t² + β t³ (t = c − x_j) except for p0 + p1·t at the
        last knot.  Σ∫q contributes 2ω²·Σ a3·h to E.  Knot 0 gives
        −J″(0)·ω²·log ω, spread over the other knots by Σ_j Δ_j ≡ 0, which
        leaves each knot x_j = a the term (x = ω/a, u = min(x, 1/x))

            E_j = −c2·ω²·log x + ½·log1p(−x²)·S + atanh(x)·D      x ≤ ½
            E_j = c0·log x + ½·log1p(−u²)·S + atanh(u)·D          x ≥ 3/2

        with c2 = 2α − 6βa, c0 = 2a²(α − βa), S = c2·ω² + c0 and
        D = ω·(d1 − 2βω²), d1 = 4αa − 6βa²; no O(1) terms cancel as
        ω → 0.  For |x − 1| < ½ the direct form in t = ω − a is used.
        The (ω × knot) block is taken in row chunks of at most ``_BLOCK``
        elements, each row summed on its own, so a value does not depend
        on the batch it arrives in.
        """
        a, alpha, beta, c2, c0, d1, b2 = (k[None, :] for k in self._knots)
        rows = max(1, _BLOCK // a.size)
        out = np.empty((2, w.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, w.size, rows):
                wb = w[lo:lo + rows, None]
                w2 = wb * wb
                x = wb / a
                lx = np.log(x)
                far = x >= 1.5
                near = ~far & (x > 0.5)
                q = -c2 * w2 * lx
                u = np.minimum(x, 1.0 / x)
                l1 = np.log1p(-u * u)
                at = np.arctanh(u)
                e = (np.where(far, c0 * lx, q) + 0.5 * l1 * (c2 * w2 + c0)
                     + at * wb * (d1 - 2.0 * beta * w2))
                de = (c2 * wb * np.where(far, l1, l1 - 2.0 * lx) + b2 * wb
                      + at * (d1 - 6.0 * beta * w2))
                t = wb - a
                v = wb + a
                lt = np.log(np.abs(t) / a + (t == 0.0))     # 0 at t = 0
                lp = np.log1p(x)
                e = np.where(near, q + t * t * (alpha + beta * t) * lt
                             + v * v * (alpha - beta * v) * lp, e)
                de = np.where(near, b2 * wb + 2.0 * q / wb
                              + t * (2.0 * alpha + 3.0 * beta * t) * lt
                              + v * (2.0 * alpha - 3.0 * beta * v) * lp, de)
                out[0, lo:lo + rows] = e.sum(axis=1)
                out[1, lo:lo + rows] = de.sum(axis=1)
        cubic, p0, p1 = self._ends
        out[0] += 2.0 * cubic * w * w
        out[1] += 4.0 * cubic * w
        if p0 or p1:
            out += self._end_terms(w, p0, p1)
        return out

    def _end_terms(self, w: np.ndarray, p0: float, p1: float) -> np.ndarray:
        """E and dE/dω of the value and slope jumps p0, p1 at the last
        knot, w < 2·top.  Both are log-singular at ω = top, where the
        finite part is returned."""
        top = self.frequencies[-1]
        x = w / top
        small = x < 0.5
        xs = x[small]
        edge = w == top
        lm = np.log(np.abs(w - top) / top + edge)      # log|1 − x|, 0 at top
        lp = np.log1p(x)
        ls = lm + lp                                   # log|1 − x²|
        ls[small] = np.log1p(-xs * xs)
        at = 0.5 * (lp - lm)                           # atanh x or atanh 1/x
        at[small] = np.arctanh(xs)
        out = np.zeros((2, w.size))
        if p0:
            pole = np.where(edge, 0.0, 1.0 / np.where(edge, 1.0, top - w))
            out += p0 * np.array([ls, 1.0 / (top + w) - pole])
        if p1:
            slope = (w - top) * lm - (w + top) * lp
            slope[small] = -(2.0 * w[small] * at[small] + top * ls[small])
            out += p1 * np.array([slope, -2.0 * at])
        return out

    def _dispersion(self, w: np.ndarray):
        """E and dE/dω at |ω| values w ≥ 0 (both 0 at w = 0), from the
        memo; the distinct misses are evaluated and added to it.

        The memo is a pair of sorted arrays that is replaced, never
        changed in place, and it is cleared when it would outgrow
        ``_MEMO_CAP``; a value does not depend on what the memo holds.
        """
        flat = w.ravel()
        nz = flat > 0.0
        q = flat[nz]
        keys, vals = self._memo
        pos = np.searchsorted(keys, q)
        known = pos < keys.size
        known[known] = keys[pos[known]] == q[known]
        if not known.all():
            new = np.unique(q[~known])
            if keys.size + new.size > _MEMO_CAP:
                # start afresh from this batch, hits included
                keys = np.unique(q)
                vals = self._kernel(keys)
            else:
                at = np.searchsorted(keys, new)
                keys = np.insert(keys, at, new)
                vals = np.insert(vals, at, self._kernel(new), axis=1)
            object.__setattr__(self, "_memo", (keys, vals))
            pos = np.searchsorted(keys, q)
        out = np.zeros((2, flat.size))
        out[:, nz] = vals[:, pos]
        return out.reshape((2,) + w.shape)

    def gamma_tilde_vec(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        w = np.abs(omega)
        e = self._dispersion(w)[0]
        im = np.zeros(w.shape)
        nz = w > 0.0
        im[nz] = -e[nz] / (math.pi * w[nz])
        return self._ratio(omega) + 1j * np.sign(omega) * im

    def _roughness_gap(self) -> float:
        """Median relative gap between dγ̃/dω of this table and of its
        every-other-knot subtable, over probes in [x₁, top/2]; 0 for
        tables of fewer than six samples, which have no such subtable."""
        n = self.frequencies.size
        idx = np.unique(np.append(np.arange(0, n, 2), n - 1))
        if idx.size < 4:
            return 0.0
        try:
            coarse = TabulatedSD(self.frequencies[idx], self.values[idx])
        except ValueError:      # the even samples alone are no valid table
            return math.inf
        probes = np.linspace(self.frequencies[1], 0.5 * self.frequencies[-1],
                             _ROUGHNESS_PROBES)
        fine = self._prime(probes)
        gap = np.abs(fine - coarse._prime(probes)) / np.abs(fine)
        return float(np.median(gap))

    def _prime(self, omega: np.ndarray) -> np.ndarray:
        w = np.abs(omega)
        e, de = self._dispersion(w)
        im = np.full(w.shape, self._im_prime0)
        nz = w > 0.0
        wn = w[nz]
        im[nz] = -(de[nz] * wn - e[nz]) / (math.pi * wn * wn)
        return np.sign(omega) * self._ratio_prime(w) + 1j * im

    def gamma_tilde_prime_vec(self, omega) -> np.ndarray:
        """dγ̃/dω from the same closed form as γ̃.

        Raises ``DerivativeUnstable``, naming the first requested ω, when
        the table fails the roughness check (computed once per instance,
        on the first call).
        """
        omega = np.asarray(omega, dtype=float)
        if self._roughness is None:
            object.__setattr__(self, "_roughness", self._roughness_gap())
        if self._roughness > _ROUGHNESS_LIMIT and omega.size:
            raise DerivativeUnstable(
                f"dγ̃/dω of the table is unstable at "
                f"ω = {omega.flat[0]:.6g} (every-other-knot subtable "
                f"differs by a median {self._roughness:.3g} > "
                f"{_ROUGHNESS_LIMIT}); table too coarse or noisy")
        return self._prime(omega)

    def feature_frequencies(self) -> list[float]:
        peak = float(self.frequencies[int(np.argmax(self.values))])
        return [f for f in (peak, float(self.frequencies[-1])) if f > 0.0]
