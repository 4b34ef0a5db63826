"""The package's own PCHIP against scipy's ``PchipInterpolator``.

``spectral._Pchip`` carries every tabulated spectral density; the
closed-form kernel is built from its coefficients, so it is pinned to
scipy bit for bit on random tables of the shapes a measured J(ω) takes:
runs of zeros, plateaus, and knot spacings whose ratio reaches 1e4.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from nonmarkov.spectral import TabulatedSD, _Pchip

TABLES = 300
EPS = np.finfo(float).eps


def random_table(rng):
    """Knots from (0, 0) with non-negative values, as TabulatedSD takes."""
    n = int(rng.choice([4, 5, 6, int(rng.integers(7, 60)),
                        int(rng.integers(60, 3001))]))
    h = 10.0 ** rng.uniform(-2.0, 2.0, n - 1)     # spacing ratios up to 1e4
    if rng.random() < 0.5:
        h = np.full(n - 1, h[0])
    x = np.concatenate(([0.0], np.cumsum(h)))
    shape = rng.integers(3)
    if shape == 0:          # a smooth bump
        y = x * np.exp(-x / rng.uniform(0.1, 1.0) / x[-1] * 5.0)
    elif shape == 1:        # noise
        y = rng.exponential(size=n)
    else:                   # integers, so equal neighbours are common
        y = rng.integers(0, 4, size=n).astype(float)
    for _ in range(int(rng.integers(0, 4))):
        lo = int(rng.integers(1, n))
        hi = lo + int(rng.integers(1, max(2, n // 4)))
        y[lo:hi] = 0.0 if rng.random() < 0.5 else y[lo]   # zeros, plateau
    y[0] = 0.0
    return x, y * 10.0 ** rng.uniform(-6.0, 6.0)


def probes(rng, x):
    """Knots, segment midpoints and random points on [0, top]."""
    return np.concatenate([x, 0.5 * (x[1:] + x[:-1]),
                           rng.uniform(0.0, x[-1], 2 * x.size)])


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(20261019)
    return [random_table(rng) for _ in range(TABLES)]


def test_matches_scipy_bit_for_bit(tables):
    rng = np.random.default_rng(7)
    for x, y in tables:
        ours, ref = _Pchip(x, y), PchipInterpolator(x, y)
        assert ours.c.tobytes() == ref.c.tobytes()
        at = probes(rng, x)
        assert ours(at).tobytes() == ref(at).tobytes()
        assert ours(at, 1).tobytes() == ref(at, 1).tobytes()
        assert ours(0.0, 1) == ref.derivative()(0.0)


def test_tabulated_slope_at_zero_is_scipys(tables):
    valid = [(x, y) for x, y in tables
             if y.max() > 0.0 and y[-1] <= 1e-3 * y.max()]
    assert len(valid) > 50
    for x, y in valid:
        sd = TabulatedSD(x, y)
        assert sd._slope0 == PchipInterpolator(x, y).derivative()(0.0)


def test_no_overshoot(tables):
    """On every segment the cubic stays within its two knot values, up
    to 4ε of the larger, checked at its stationary points and along it."""
    for x, y in tables:
        p = _Pchip(x, y)
        a3, a2, a1, _ = p.c
        h = np.diff(x)
        # stationary points of a3·s³ + a2·s² + a1·s on the segment
        disc = np.maximum(a2 * a2 - 3.0 * a3 * a1, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = [(-a2 + sign * np.sqrt(disc)) / (3.0 * a3)
                     for sign in (1.0, -1.0)]
            roots.append(-a1 / (2.0 * a2))
        s = np.array(roots + [h * k / 8.0 for k in range(1, 8)])
        s = np.clip(np.nan_to_num(s), 0.0, h)
        v = p(np.minimum(x[:-1] + s, x[1:]))
        lo = np.minimum(y[:-1], y[1:])
        hi = np.maximum(y[:-1], y[1:])
        slack = 4.0 * EPS * hi
        assert np.all(v >= lo - slack) and np.all(v <= hi + slack)


def test_rejects_higher_derivatives():
    p = _Pchip(np.arange(4.0), np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        p(1.0, 2)
