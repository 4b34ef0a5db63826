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

For Ohmic and Peaked these are closed forms.  A bath also says whether
it is ``decoupled`` (zero coupling), where its J ends (``support_end``,
a table's last knot) and where it or the response of an oscillator of
frequency ω₀ has structure (``feature_frequencies(ω₀)``), so no other
module asks which family it has.  The Ohmic and peaked baths also give
a ``drift_matrix(ω₀)``, whose exponential is the real-time response; a
table gives None.  The peaked bath is one damped pseudo-mode (Garraway,
PRA 55, 2290 (1997)); the eigenvalues −σ ± iν of its drift matrix are
the poles of χ̃_qq, placed as breakpoints at ν, ν ± σ and ν ± 3σ.

For tabulated data the real part is J(ω)/ω and the imaginary part is
the dispersion integral Im γ̃(ω) = −(1/π) 𝒫∫ dν [J(ν)/ν] / (ν−ω).  The
table is interpolated by a monotone piecewise cubic, the module's own
numpy PCHIP (``_Pchip``), which the tests pin bit for bit to scipy's
``PchipInterpolator``; the module imports no scipy.  Its Hilbert transform is
itself closed form (F. W. King, *Hilbert Transforms*, CUP 2009), so
Im γ̃ and dγ̃/dω come from the cubic coefficients without quadrature;
``principal_value`` stays in ``quadrature`` as an independent check.  A
table too rough for its derivative is caught by comparison with its
every-other-knot subtable and raises ``DerivativeUnstable``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
# powers in the series of the knots outside the near band ½ < ω/x_j < 2;
# there u = min(ω/x_j, x_j/ω) ≤ ½, so the last term is below 4⁻²⁶ ≈ 2e-16
_TERMS = 26
# largest ratio of knot frequencies within which the series tables take
# powers relative to one knot; _SPAN**(2·_TERMS) stays far from overflow
_SPAN = 1e3
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
# 32-point Gauss–Legendre nodes and weights on [−1, 1] for the moments
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _scaled_suffix(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """S[m−1, J] = Σ_{j≥J} (x_J/x_j)^{2m}·coef[m−1, j] for increasing x > 0,
    with a zero column appended at J = x.size.

    The powers are taken within runs of knots spanning at most ``_SPAN``,
    relative to each run's first knot, and carried from run to run, so
    no power of a table frequency overflows or underflows."""
    def powers(r):              # r^{2m}, m = 1 … len(coef), as rows
        return np.cumprod(np.broadcast_to(r * r, coef.shape[:1] + r.shape),
                          axis=0)

    xs = np.append(x, np.inf)
    out = np.zeros((coef.shape[0], xs.size))
    end = x.size
    while end:
        start = int(np.searchsorted(x, x[end - 1] / _SPAN))
        run = xs[start:end]
        tail = np.cumsum((coef[:, start:end] * powers(run[0] / run))[:, ::-1],
                         axis=1)[:, ::-1]
        out[:, start:end] = (powers(run / run[0]) * tail
                             + powers(run / xs[end]) * out[:, end:end + 1])
        end = start
    return out


def _polyval(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_m coef[m]·y^m by Horner, in the order of numpy's ``polyval``: one
    elementwise pass per power, so each value depends on its own y only.
    Each coef[m] is a scalar or an array of y's shape."""
    acc = coef[-1] + 0.0 * y
    for row in coef[-2::-1]:
        acc *= y
        acc += row
    return acc


def _pchip_end_slope(h0, h1, m0, m1):
    """Three-point end slope of a PCHIP, limited to keep the end monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant (Fritsch & Butland,
    SIAM J. Sci. Stat. Comput. 5, 300 (1984)), with the end slopes of
    Moler's pchiptx.  ``c`` holds the cubic, quadratic, slope and value
    coefficients of each segment, shape (4, n−1), in powers of s = ω − x_i.

    Slopes, coefficients and the evaluation follow scipy's
    ``PchipInterpolator`` operation by operation, so the two agree to the
    last bit (tests/test_pchip.py)."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        h = np.diff(x)
        m = np.diff(y) / h
        # weighted harmonic mean of the secants, 0 where they change
        # sign or either is 0
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (
            m[:-1] == 0.0)
        d = np.empty(x.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1] = np.where(flat, 0.0, 1.0 / mean)
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._inner = x[1:-1]
        # left knot and the coefficients of each segment, gathered by
        # one take per call; ``c`` is a view of the last four rows
        self._rows = np.stack((x[:-1], t / h, (m - d[:-1]) / h - t, d[:-1],
                               y[:-1]))
        self.c = self._rows[1:]

    def __call__(self, omega, nu: int = 0) -> np.ndarray:
        """The interpolant (nu = 0) or its slope (nu = 1) at omega, with
        the end segments extended beyond the table.  The terms are
        summed in scipy's order: c0 + c1·s + c2·s² + c3·s³, and
        c1 + (c2·s)·2 + (c3·s²)·3."""
        omega = np.asarray(omega, dtype=float)
        w = omega.ravel()
        x0, c3, c2, c1, c0 = self._rows.take(
            np.searchsorted(self._inner, w, "right"), axis=1)
        s = w - x0
        s2 = s * s
        if nu == 0:
            out = c1 * s
            out += c0
            c2 *= s2
            out += c2
            s2 *= s
            c3 *= s2
        elif nu == 1:
            out = c2 * s
            out *= 2.0
            out += c1
            c3 *= s2
            c3 *= 3.0
        else:
            raise ValueError("nu must be 0 or 1")
        out += c3
        return out.reshape(omega.shape)


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

    @property
    def decoupled(self) -> bool:
        """True when the bath coupling is exactly zero."""
        return False

    support_end = math.inf  # beyond it J ≡ 0, and Re γ̃ and Im χ̃_qq too

    def feature_frequencies(self, omega0: float) -> list[float]:
        """Frequencies where the kernel, or the response of an oscillator
        of frequency omega0, has structure; the positive ones seed
        quadrature breakpoints downstream."""
        return []

    def drift_matrix(self, omega0: float) -> np.ndarray | None:
        """Drift matrix A of (q, p, …) of an oscillator of frequency omega0
        with this bath, so that χ_qq(t) = (e^{At})_qp; None when the bath
        has no finite Markovian embedding (tables)."""
        return None


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

    @property
    def decoupled(self) -> bool:
        return self.damping == 0.0

    def drift_matrix(self, omega0: float) -> np.ndarray:
        """Drift matrix of (q, p): q̇ = p, ṗ = −ω₀²q − D·p."""
        return np.array([[0.0, 1.0], [-omega0 ** 2, -self.damping]])


@dataclass(frozen=True)
class PeakedSD(SpectralDensity):
    """Resonant spectrum J(ω) = D²Γω / ((ω²−Ω²)² + Γ²ω²).

    coupling = D (so the numerator carries D²), width = Γ, resonance = Ω.
    The closed-form kernel below is algebraic in Γ and Ω and remains the
    correct dispersion transform of J for any Γ, Ω > 0 (squares normal,
    D² and the counter-term D²/Ω² finite), including the overdamped
    regime 2Ω² ≤ Γ².
    """

    coupling: float
    width: float
    resonance: float

    def __post_init__(self) -> None:
        # each message starts with the name of the parameter at fault
        for name, least in (("coupling", 0.0), ("width", _SMALLEST_NORMAL),
                            ("resonance", _SMALLEST_NORMAL)):
            value = getattr(self, name)
            if not (value >= 0.0 and least <= value * value < math.inf):
                raise ValueError(f"{name} must be finite and >= 0, square in "
                                 f"[{least:.3g}, inf), got {value!r}")
        if not self.coupling ** 2 / self.resonance ** 2 < math.inf:
            raise ValueError(f"coupling {self.coupling!r} over resonance "
                             f"{self.resonance!r} gives a counter-term "
                             "coupling²/resonance² that is not finite")

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

    @property
    def decoupled(self) -> bool:
        return self.coupling == 0.0

    def drift_matrix(self, omega0: float) -> np.ndarray:
        """Drift matrix A of (q, p, x, y), the oscillator coupled with
        strength D (units ω²) to the damped pseudo-mode x, counter-term
        included so the static response stays 1/ω₀²; χ_qq(t) = (e^{At})_qp."""
        d, big = self.coupling, self.resonance
        return np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-(omega0 ** 2 + d ** 2 / big ** 2), 0.0, d, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [d, 0.0, -big ** 2, -self.width],
        ])

    def feature_frequencies(self, omega0: float) -> list[float]:
        pts = [self.resonance, max(self.resonance - self.width, self.width),
               self.resonance + self.width]
        if not self.decoupled:
            for lam in np.linalg.eigvals(self.drift_matrix(omega0)):
                nu, sig = abs(lam.imag), abs(lam.real)
                if nu > 1e-12:
                    pts.extend([nu, nu - sig, nu + sig, nu - 3 * sig,
                                nu + 3 * sig])
        return pts


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
    its cubic coefficients (``_kernel``: knot sums in three regions of
    ω/x_j below 2·top, see ``_knot_sums``, and a moment series beyond),
    memoized per instance on |ω|.  A new |ω| costs its near band (the
    knots within a factor 2 of it) and one Horner pass, a batch some two
    hundred small numpy calls whatever its size, and the far-field
    moments are built on the first |ω| ≥ 2·top.  The first derivative
    request compares the table with its every-other-knot subtable; when
    their dγ̃/dω differ by a median relative gap above
    ``_ROUGHNESS_LIMIT`` the table is too coarse or noisy to
    differentiate and every derivative request raises
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
        object.__setattr__(self, "support_end", float(freq[-1]))
        interp = _Pchip(freq, vals)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_slope0", float(interp.c[2, 0]))

        top = freq[-1]
        # Jumps α, β of the t², t³ Taylor coefficients of the segment
        # cubics at knots 1 … n−1, t = c − x_j; the last knot borders
        # the J = 0 continuation, whose value and slope jumps are p0, p1.
        a3, a2, a1, _ = interp.c
        h = np.diff(freq)
        alpha = 3.0 * a3 * h + a2 - np.append(a2[1:], 0.0)
        beta = a3 - np.append(a3[1:], 0.0)
        x = freq[1:]
        c2 = 2.0 * alpha - 6.0 * beta * x
        c0 = 2.0 * x * x * (alpha - beta * x)
        d1 = 4.0 * alpha * x - 6.0 * beta * x * x
        cubic = float(np.sum(a3 * h))
        p0 = float(vals[-1])
        p1 = float(3.0 * a3[-1] * h[-1] ** 2 + 2.0 * a2[-1] * h[-1] + a1[-1])
        object.__setattr__(self, "_knots",
                           np.array([x, alpha, beta, c2, 2.0 * beta * x]))
        object.__setattr__(self, "_ends", (cubic, p0, p1))
        # Series of the knots outside the near band (``_knot_sums``):
        # coefficients A_m of the knots above 2ω and B_n of those below
        # ω/2, with the log and constant terms summed over suffixes
        # (index: first knot above) and prefixes (index: knots below).
        n = x.size
        lx = np.log(x / top)
        k = 2.0 * np.arange(1, _TERMS + 1)[:, None]
        above = -c0 / k + d1 * x / (k - 1.0)
        above[1:] -= c2 * x * x / (k[1:] - 2.0) + 2.0 * beta * x ** 3 / (
            k[1:] - 3.0)
        below = (-c0 / k + d1 * x / (k + 1.0) - c2 * x * x / (k + 2.0)
                 - 2.0 * beta * x ** 3 / (k + 3.0))
        b0 = x * d1 - 0.5 * x * x * c2 - 2.0 * beta * x ** 3 / 3.0
        sums = np.zeros((6, n + 1))
        sums[:2, :n] = np.cumsum(np.array([c2, c2 * lx])[:, ::-1],
                                 axis=1)[:, ::-1]
        sums[2:, 1:] = np.cumsum(np.array([c0, c0 * lx, beta * x, b0]),
                                 axis=1)
        series = np.concatenate([
            _scaled_suffix(x, above),
            _scaled_suffix(1.0 / x[::-1], below[:, ::-1])[:, ::-1]], axis=1)
        slope = 0.5 * k * series
        slope[:, n + 1:] *= -1.0
        # (power, column, E or dE/dω): one take gathers a batch's columns
        object.__setattr__(self, "_series", (
            np.append(x, np.inf), np.append(0.0, x), sums,
            np.stack([series, slope], axis=-1)))
        # finite part of Im γ̃′ at ω = 0, where it diverges like
        # (J″(0)/π)·log|ω| unless J″(0) = 0; callers multiply it by ω
        reg = (2.0 * cubic - p0 / top ** 2 - p1 / top
               + np.sum(c2 * np.log(x) + 3.0 * alpha - 5.0 * beta * x - c2))
        object.__setattr__(self, "_im_prime0", -float(reg) / math.pi)
        object.__setattr__(self, "_memo", (np.empty(0), np.empty((0, 2))))

    @functools.cached_property
    def _far(self) -> tuple[float, np.ndarray, np.ndarray]:
        """∫J/ν, μ and 2m·μ_m of the far field ω ≥ 2·top, on first use:
        E = −2∫J/ν − 2·Σ_{m odd} M_m/ω^{m+1} with the moments M_m = μ·top^m
        of J, by 32-point Gauss–Legendre per segment (exact for these
        polynomials of degree ≤ 62, and for J/ν, quadratic on [0, x₁])."""
        x = self.frequencies
        g0, mu = 0.0, np.zeros(_MOMENTS)
        step = _BLOCK // _GL_NODES.size
        for lo in range(0, x.size - 1, step):
            half = 0.5 * np.diff(x[lo:lo + step + 1])[:, None]
            nodes = x[lo + 1:lo + step + 1, None] - half * (1.0 - _GL_NODES)
            jw = self._interp(nodes) * half * _GL_WEIGHTS
            g0 += float(np.sum(jw / nodes))
            r = nodes / x[-1]
            term, r2 = jw * r, r * r
            for i in range(_MOMENTS):
                mu[i] += term.sum()
                term *= r2
        return g0, mu, 2.0 * np.arange(1, _MOMENTS + 1) * mu

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
        mag = np.abs(np.asarray(nu, dtype=float))
        out = np.full(mag.shape, self._slope0)
        big = mag > 1e-12 * self.frequencies[-1]
        out[big] = self.j(mag[big]) / mag[big]
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
        if not series.any():
            return self._knot_sums(w)
        out = np.empty((2, w.size))
        g0, mu, dmu = self._far
        r = top / w[series]
        r2 = r * r
        out[0, series] = -2.0 * g0 - (2.0 / top) * r2 * _polyval(mu, r2)
        out[1, series] = (2.0 / top ** 2) * r * r2 * _polyval(dmu, r2)
        out[:, ~series] = self._knot_sums(w[~series])
        return out

    def _knot_sums(self, w: np.ndarray) -> np.ndarray:
        """E(ω) and dE/dω at the frequencies 0 < w < 2·top, shape
        (2, w.size).

        With G(c) = 𝒫∫₀^top J(ν)/(ν−c) dν the dispersion integral is
        𝒫∫ [J(ν)/ν]/(ν−ω) dν = E(ω)/ω, E = G(ω) + G(−ω) − 2G(0).  On a
        segment J = (ν−c)·q(ν) + J(c), so G(c) = Σ∫q + Σ_j log|x_j−c|·Δ_j(c)
        with Δ_j the jump of the segment cubics at knot x_j.  PCHIP is C¹,
        so Δ_j = α t² + β t³ (t = c − x_j) except for p0 + p1·t at the
        last knot.  Σ∫q contributes 2ω²·Σ a3·h to E.  Knot 0 gives
        −J″(0)·ω²·log ω, spread over the other knots by Σ_j Δ_j ≡ 0, which
        leaves each knot x_j = a the term (x = ω/a, u = min(x, 1/x))

            E_j = −c2·ω²·log x + ½·log1p(−x²)·S + atanh(x)·D      x < 1
            E_j = c0·log x + ½·log1p(−u²)·S + atanh(u)·D          x > 1

        with c2 = 2α − 6βa, c0 = 2a²(α − βa), S = c2·ω² + c0 and
        D = ω·(d1 − 2βω²), d1 = 4αa − 6βa²; no O(1) terms cancel as
        ω → 0.  Expanded in u ≤ ½ these are power series (``_TERMS``
        powers, 4⁻²⁶ ≈ 2e-16), whose coefficients are summed once per
        table over the knots above (x ≤ ½, suffix sums) and below
        (x ≥ 2, prefix sums):

            E_j = −c2·ω²·log x + Σ_{m≥1} A_m·ω^{2m}                  x ≤ ½
            E_j = c0·log x − 2βa·ω² + B₀ + Σ_{n≥1} B_n·ω^{−2n}      x ≥ 2

        A_m = [−c0/(2m) + d1·a/(2m−1) − (c2·a²/(2m−2) + 2β·a³/(2m−3))·[m≥2]]
        / a^{2m}, B_n = a^{2n}·[−c0/(2n) + d1·a/(2n+1) − c2·a²/(2n+2) −
        2β·a³/(2n+3)], B₀ = a·d1 − a²c2/2 − 2βa³/3; the logarithms split
        into log(ω/top) times a sum and a sum of log(a/top), and dE/dω is
        the term-by-term derivative.  The series are summed with powers
        relative to the nearest knot of the range (``_scaled_suffix``), so
        no power of a frequency overflows on stretched tables.  Each ω
        then costs two table lookups and one Horner pass over the
        ``_TERMS`` powers, plus the direct form in t = ω − a for the knots
        of the near band ½ < x < 2 only (``_near_band``), where neither
        series converges fast.
        """
        x_hi, x_lo, sums, series = self._series
        hi = np.searchsorted(x_hi, 2.0 * w)           # first x_j ≥ 2ω
        lo = np.searchsorted(x_hi, 0.5 * w, "right")  # first x_j > ω/2
        out = self._near_band(w, lo, hi)
        # the columns of ``series`` above ω, then those below, each an
        # (E, dE/dω) pair of coefficients of the powers y¹ … y^_TERMS
        y = np.repeat(np.concatenate([(w / x_hi[hi]) ** 2,
                                      (x_lo[lo] / w) ** 2]), 2)
        cols = series.take(np.concatenate([hi, lo + x_hi.size]), axis=1)
        acc = y * _polyval(cols.reshape(_TERMS, -1), y)
        v, d = (acc[:2 * w.size] + acc[2 * w.size:]).reshape(-1, 2).T
        sc2, sl2 = sums[:2, hi]
        pc0, pl0, pba, pb0 = sums[2:, lo]
        lw = np.log(w / self.frequencies[-1])
        w2 = w * w
        log_hi = lw * sc2 - sl2
        out[0] += lw * pc0 - pl0 + pb0 - w2 * (log_hi + 2.0 * pba) + v
        out[1] += (pc0 / w - w * (2.0 * log_hi + sc2 + 4.0 * pba)
                   + 2.0 * d / w)
        cubic, p0, p1 = self._ends
        out[0] += 2.0 * cubic * w2
        out[1] += 4.0 * cubic * w
        if p0 or p1:
            out += self._end_terms(w, p0, p1)
        return out

    def _near_band(self, w: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
        """Σ_j E_j and Σ_j dE_j/dω over the knots lo ≤ j < hi of each ω, in
        the direct form in t = ω − a, shape (2, w.size).

        The ragged band is evaluated in chunks of whole rows, of at most
        ``_BLOCK`` elements plus one row, and every row is summed on its
        own in knot order, so a value does not depend on the batch it
        arrives in.
        """
        count = hi - lo
        cuts = [0, w.size]
        if count.sum() > _BLOCK:
            first = np.cumsum(count) - count
            cuts[1:1] = np.flatnonzero(np.diff(first // _BLOCK)) + 1
        out = np.empty((2, w.size))
        for r0, r1 in zip(cuts, cuts[1:]):
            n = count[r0:r1]
            row = np.repeat(np.arange(r1 - r0), n)
            j = np.arange(n.sum()) + np.repeat(lo[r0:r1] - np.cumsum(n) + n,
                                               n)
            a, alpha, beta, c2, b2 = self._knots.take(j, axis=1)
            wb = np.repeat(w[r0:r1], n)
            x = wb / a
            q = -c2 * wb * wb * np.log(x)
            t = wb - a
            v = wb + a
            lt = np.log(np.abs(t) / a + (t == 0.0))     # 0 at t = 0
            lp = np.log1p(x)
            e = (q + t * t * (alpha + beta * t) * lt
                 + v * v * (alpha - beta * v) * lp)
            de = (b2 * wb + 2.0 * q / wb
                  + t * (2.0 * alpha + 3.0 * beta * t) * lt
                  + v * (2.0 * alpha - 3.0 * beta * v) * lp)
            out[0, r0:r1] = np.bincount(row, e, r1 - r0)
            out[1, r0:r1] = np.bincount(row, de, r1 - r0)
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
        ls[small] = ls_small = np.log1p(-xs * xs)
        at = 0.5 * (lp - lm)                           # atanh x or atanh 1/x
        at[small] = at_small = np.arctanh(xs)
        out = np.zeros((2, w.size))
        if p0:
            pole = np.where(edge, 0.0, 1.0 / np.where(edge, 1.0, top - w))
            out += p0 * np.array([ls, 1.0 / (top + w) - pole])
        if p1:
            slope = (w - top) * lm - (w + top) * lp
            slope[small] = -(2.0 * w[small] * at_small + top * ls_small)
            out += p1 * np.array([slope, -2.0 * at])
        return out

    def _dispersion(self, w: np.ndarray):
        """E and dE/dω at |ω| values w ≥ 0, from the memo; the distinct
        misses are evaluated and added to it.  Both read 0 below
        w = 1e-150, where ω² and E(ω) leave the normal floats (and ω/top
        can underflow to 0).

        The memo is a pair of arrays, the sorted |ω| and their (E, dE/dω)
        rows, that is replaced, never changed in place, and it is cleared
        when it would outgrow ``_MEMO_CAP``; a value does not depend on
        what the memo holds.
        """
        flat = w.ravel()
        nz = flat >= 1e-150
        q = flat[nz]
        keys, vals = self._memo
        pos = np.searchsorted(keys, q)
        known = pos < keys.size
        known[known] = keys[pos[known]] == q[known]
        if not known.all():
            new = np.unique(q[~known])
            if keys.size + new.size > _MEMO_CAP:
                # start afresh from this batch, hits included
                keys, vals, new = keys[:0], vals[:0], np.unique(q)
            # a stable sort of two sorted runs is one merge pass
            keys = np.concatenate([keys, new])
            vals = np.concatenate([vals, self._kernel(new).T])
            order = keys.argsort(kind="stable")
            keys, vals = keys.take(order), vals.take(order, axis=0)
            object.__setattr__(self, "_memo", (keys, vals))
            pos = np.searchsorted(keys, q)
        rows = vals.take(pos, axis=0)
        if q.size < flat.size:
            out = np.zeros((flat.size, 2))
            out[nz] = rows
            rows = out
        return rows.T.reshape((2,) + w.shape)

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
        tables of fewer than six samples, which have no such subtable.
        The probes stay below 2·top, so the subtable never builds its
        far-field moments.  Raises the ValueError of ``TabulatedSD`` where
        the even samples alone are no valid table."""
        n = self.frequencies.size
        idx = np.unique(np.append(np.arange(0, n, 2), n - 1))
        if idx.size < 4:
            return 0.0
        coarse = TabulatedSD(self.frequencies[idx], self.values[idx])
        probes = np.linspace(self.frequencies[1], 0.5 * self.frequencies[-1],
                             _ROUGHNESS_PROBES)
        fine = self._prime(probes)
        gap = np.abs(fine - coarse._prime(probes)) / np.abs(fine)
        return float(np.median(gap))

    @functools.cached_property
    def _roughness(self) -> str:
        """The cause of instability of dγ̃/dω, or "" for a stable table."""
        try:
            gap = self._roughness_gap()
        except ValueError as exc:
            return f"could not be built: {exc}"
        return (f"differs by a median {gap:.3g} > {_ROUGHNESS_LIMIT}"
                if gap > _ROUGHNESS_LIMIT else "")

    def _prime(self, omega: np.ndarray) -> np.ndarray:
        w = np.abs(omega)
        e, de = self._dispersion(w)
        im = np.full(w.shape, self._im_prime0)
        # below 1e-150, ω² and E(ω) leave the normal floats: ω → 0 form
        tiny = (w > 0.0) & (w < 1e-150)
        im[tiny] += 2.0 / math.pi * self._interp.c[1, 0] * np.log(w[tiny])
        nz = w >= 1e-150
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
        if self._roughness and omega.size:
            raise DerivativeUnstable(
                f"dγ̃/dω of the table is unstable at "
                f"ω = {omega.flat[0]:.6g} (every-other-knot subtable "
                f"{self._roughness}); table too coarse or noisy")
        return self._prime(omega)

    def feature_frequencies(self, omega0: float) -> list[float]:
        peak = float(self.frequencies[int(np.argmax(self.values))])
        return [f for f in (peak, float(self.frequencies[-1])) if f > 0.0]
