"""The tabulated kernel against a 40-digit reference and under rescaling.

The reference is the Hilbert transform of the same C¹ piecewise cubic
that ``TabulatedSD`` interpolates, summed segment by segment in
``mpmath``: on a segment, p(ν) = (ν − c)·q(ν) + p(c), so
𝒫∫ p/(ν − c) = ∫ q + p(c)·log|(x₁ − c)/(x₀ − c)|, with an analytic
derivative in c.  Each segment cubic is rebuilt exactly from the knot
values and the interpolant's knot slopes: the floating-point segment
coefficients meet at a knot only to rounding, and the exact transform of
that tiny jump is log-singular there, which would swamp probes close to
a knot.
"""
from __future__ import annotations

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from nonmarkov.spectral import PeakedSD, TabulatedSD

PEAKED = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)


def peaked_table(n, top=40.0):
    w = np.linspace(0.0, top, n)
    j = PEAKED.j(w)
    j[0] = 0.0
    return TabulatedSD(w, j)


def exp_table(n, top, scale=1.0):
    w = np.linspace(0.0, top, n)
    return TabulatedSD(scale * w, 0.4 * w * np.exp(-w / 4.0))


def reference_kernel(sd, omega, dps=40):
    """E(ω) = G(ω) + G(−ω) − 2G(0) and dE/dω, G(c) = 𝒫∫₀^top J/(ν − c),
    at off-knot ω > 0, in ``dps`` digits."""
    with mp.workdps(dps):
        x = [mp.mpf(float(v)) for v in sd.frequencies]
        y = [mp.mpf(float(v)) for v in sd.values]
        d = [mp.mpf(float(v)) for v in sd._interp.c[2]]
        d.append(mp.mpf(float(sd._interp(sd.frequencies[-1], 1))))
        segments = []
        for k in range(len(x) - 1):
            h = x[k + 1] - x[k]
            m = (y[k + 1] - y[k]) / h
            segments.append((h, (d[k] + d[k + 1] - 2 * m) / h ** 2,
                             (3 * m - 2 * d[k] - d[k + 1]) / h, d[k], y[k]))

        def g(c):
            logs = [mp.log(abs(xk - c)) if xk != c else None for xk in x]
            val = der = mp.mpf(0)
            for k, (h, a3, a2, a1, a0) in enumerate(segments):
                s = c - x[k]            # the pole in segment coordinates
                val += (a3 * h ** 3 / 3 + (a2 + a3 * s) * h ** 2 / 2
                        + (a1 + a2 * s + a3 * s * s) * h)
                der += a3 * h ** 2 / 2 + (a2 + 2 * a3 * s) * h
                p = ((a3 * s + a2) * s + a1) * s + a0
                if logs[k] is None:     # c = 0 on the first segment: p = 0
                    continue
                dp = (3 * a3 * s + 2 * a2) * s + a1
                lg = logs[k + 1] - logs[k]
                val += p * lg
                der += dp * lg - p * (1 / (h - s) + 1 / s)
            return val, der

        g0 = g(mp.mpf(0))[0]
        out = []
        for w in omega:
            gp, dp = g(mp.mpf(float(w)))
            gm, dm = g(-mp.mpf(float(w)))
            out.append((float(gp + gm - 2 * g0), float(dp - dm)))
    return np.array(out).T


def probes(sd):
    """14 off-knot frequencies in (0, 2·top), and frequencies just inside
    and outside the switches between the near band and the series at
    ω = 2x_j and ω = x_j/2."""
    f = sd.frequencies
    n, top = f.size, f[-1]
    rng = np.random.default_rng(11)
    free = rng.uniform(0.0, 2.0 * top, 14)
    knots = f[[1, n // 7, n // 3, (2 * n) // 3]]
    edges = np.concatenate([2.0 * knots, 0.5 * knots])
    return np.concatenate([free, edges * (1.0 + 1e-9), edges * (1.0 - 1e-9)])


@pytest.mark.parametrize("make", [lambda: peaked_table(201),
                                  lambda: exp_table(301, 48.0)],
                         ids=["peaked-201", "exp-301"])
def test_kernel_matches_the_40_digit_reference(make):
    sd = make()
    omega = probes(sd)
    e, de = reference_kernel(sd, omega)
    im = -e / (math.pi * omega)
    im_prime = -(de * omega - e) / (math.pi * omega ** 2)
    gam = sd.gamma_tilde_vec(omega)
    prime = sd.gamma_tilde_prime_vec(omega)
    assert np.all(np.abs(gam.imag - im) <= 1e-9 * np.abs(gam))
    assert np.all(np.abs(prime.imag - im_prime) <= 5e-9 * np.abs(prime))


@pytest.mark.parametrize("make", [lambda: peaked_table(201),
                                  lambda: exp_table(301, 48.0)],
                         ids=["peaked-201", "exp-301"])
def test_far_field_series_matches_the_40_digit_reference(make):
    # the moment series serves every ω ≥ 2·top, which is most of the
    # real line that the quantifiers integrate these tables over
    sd = make()
    omega = sd.frequencies[-1] * np.array([2.0 * (1.0 + 1e-9), 2.5, 3.0,
                                           5.0, 10.0, 1e2, 1e3, 1e4])
    e, de = reference_kernel(sd, omega)
    im = -e / (math.pi * omega)
    im_prime = -(de * omega - e) / (math.pi * omega ** 2)
    gam = sd.gamma_tilde_vec(omega)
    prime = sd.gamma_tilde_prime_vec(omega)
    assert np.all(np.abs(gam.imag - im) <= 1e-14 * np.abs(im))
    assert np.all(np.abs(prime.imag - im_prime) <= 1e-14 * np.abs(im_prime))


@pytest.mark.parametrize("s", [1e-3, 1e3, 1e5, 1e8])
def test_kernel_is_scale_invariant(s):
    # E_s(s·ω) = E(ω) and s·dE_s/dω(s·ω) = dE/dω(ω) for the table
    # (s·ν_i, J_i), exactly; no power of a frequency may overflow
    omega = np.geomspace(1e-4, 500.0, 400)
    base = exp_table(301, 48.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e, de = base._dispersion(omega)
        es, des = exp_table(301, 48.0, scale=s)._dispersion(s * omega)
    assert np.all(np.abs(es - e) <= 1e-8 * np.abs(e).max())
    assert np.all(np.abs(s * des - de) <= 1e-8 * np.abs(de).max())
