"""Tests for the adaptive quadrature kernel.

Expected values marked "oracle" below were computed independently of the
library: high-resolution trapezoid sums, closed-form antiderivatives, or
series summation, then frozen here as literals.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov.errors import NonConvergence, NonFinite, PVFailure
from nonmarkov.quadrature import (
    QuadratureConfig,
    cosine_transform,
    inner_product_info,
    integrate,
    principal_value,
    sine_transform,
)
from nonmarkov.quantifiers import distance

from matrix_forms import unfolded_line

# Frozen oracle values.
SQRT_PI_HALF = 0.8862269254527576   # trapezoid oracle, 4e6 pts on [0, 40]
SQRT_PI = 1.7724538509055152        # doubled half-line oracle
PV_LOG = -1.0986122886681098        # antiderivative ln|x-1| on [-2, 2]
TWO_SHI_ONE = 2.114501750751457     # series sum 2*Σ 1/((2k+1)(2k+1)!)
SINE_EXP_T1 = 0.3183098861784861    # trapezoid oracle for ∫ω e^{-ω}sin ω
GAUSS_MOMENT2 = 0.8862269254527585  # trapezoid oracle for ∫t²e^{-t²}
PAIR_DISTANCE = 0.5773502691896258  # closed-form Gaussian moments

CFG = QuadratureConfig()


def gauss(x):
    return np.exp(-(x ** 2))


def half_gauss(x):
    # |half_gauss|² = gauss, so ‖half_gauss‖² is the line integral of gauss
    return np.exp(-(x ** 2) / 2.0)


def root_lorentz(x):
    # |root_lorentz|² = 1/(1 + x²)
    return 1.0 / np.sqrt(1.0 + x ** 2)


def pair(f, g):
    """The two sides (f, g) as the one callable ``inner_product_info``
    integrates."""
    return lambda x: (f(x), g(x))


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_sine_arch(self):
        val = integrate(np.sin, 0.0, math.pi, CFG)
        assert val.real == pytest.approx(2.0, abs=1e-11)
        assert val.imag == 0.0

    def test_gaussian_half_line(self):
        val = integrate(gauss, 0.0, math.inf, CFG)
        assert val.real == pytest.approx(SQRT_PI_HALF, abs=1e-10)

    def test_breakpoints_do_not_change_value(self):
        plain = integrate(gauss, 0.0, 10.0, CFG)
        seeded = integrate(gauss, 0.0, 10.0, CFG, breakpoints=[0.3, 2.5])
        assert seeded.real == pytest.approx(plain.real, abs=1e-11)

    def test_narrow_feature_found_via_breakpoint(self):
        # Lorentzian of width 1e-5 at x=3; area over the line is π·1e-5.
        def spike(x):
            return 1e-5 / ((x - 3.0) ** 2 + 1e-10)

        val = integrate(spike, 0.0, 10.0, CFG, breakpoints=[3.0])
        assert val.real == pytest.approx(math.pi, rel=1e-5)

    def test_nonfinite_detected(self):
        def bad(x):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(NonFinite):
            integrate(bad, 0.0, 1.0, CFG)

    def test_budget_exhaustion_carries_estimate(self):
        tiny = QuadratureConfig(max_subdivisions=4)
        with pytest.raises(NonConvergence) as exc:
            integrate(lambda x: np.abs(x - 0.3712) ** -0.5, 0.0, 1.0, tiny)
        assert exc.value.estimate is not None
        assert exc.value.error_bound is not None

    @pytest.mark.parametrize("b", [4.0, math.inf])
    def test_budget_exhaustion_names_the_heaviest_panel(self, b):
        # the half line reports x, not the variable u of its map
        tiny = QuadratureConfig(max_subdivisions=40)
        with pytest.raises(NonConvergence, match="could still be split") as exc:
            integrate(lambda x: np.abs(x - 2.3712) ** -0.5 / (1.0 + x ** 4),
                      0.0, b, tiny)
        assert abs(exc.value.where - 2.3712) < 1e-4

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(gauss, 1.0, 1.0, CFG)

    def test_only_the_upper_bound_may_be_infinite(self):
        for a in (-math.inf, math.inf):
            with pytest.raises(ValueError, match="lower"):
                integrate(gauss, a, 0.0, CFG)
        with pytest.raises(ValueError, match="a < b"):
            integrate(gauss, 0.0, -math.inf, CFG)

    def test_half_line_failures_name_the_frequency(self):
        with pytest.raises(NonFinite) as exc:
            integrate(lambda x: np.where(x > 3.0, np.nan, 1.0 / (1.0 + x ** 2)),
                      0.0, math.inf, CFG)
        assert exc.value.where > 3.0
        with pytest.raises(NonConvergence, match="diverges"):
            integrate(lambda x: 1.0 / (1.0 + x), 0.0, math.inf, CFG)


class TestIntegrateLine:
    """Whole-line integrals, as the norms and inner products of the one
    ``inner_product_info`` pass."""

    def test_gaussian(self):
        res = inner_product_info(pair(half_gauss, half_gauss), CFG)
        for val in res.value:
            assert val.real == pytest.approx(SQRT_PI, abs=1e-10)

    def test_odd_integrand_is_zero(self):
        # f g* = −i x·gauss is odd, so the fold's P(x) + P(−x) is exactly
        # zero at every node
        g = lambda x: 1j * x * half_gauss(x)
        res = inner_product_info(pair(half_gauss, g), CFG)
        assert res.value[0] == 0.0

    def test_lorentzian_needs_wide_window(self):
        # 1/(1 + x²) keeps a 2/W share beyond any window ±W; the default
        # pass has none and integrates it over the whole line
        res = inner_product_info(pair(root_lorentz, root_lorentz), CFG)
        assert res.value[1].real == pytest.approx(math.pi, abs=1e-9)

    def test_slow_tail_raises(self):
        # |f|² ~ 1/|x| is not integrable: the half-line pass diverges
        def f(x):
            return (1.0 + x ** 2) ** -0.25

        with pytest.raises(NonConvergence, match="diverges"):
            distance(f, f, CFG)

    def test_steep_exponential_tail_is_finite(self):
        def f(x):
            return np.exp(-2.0 * np.abs(x))

        res = inner_product_info(pair(f, f), CFG)
        assert res.value[1].real == pytest.approx(0.5, rel=1e-9)

    def test_hermitian_integrand_gives_real_value(self):
        def f(x):
            return half_gauss(x) * (1.0 + 1j * x)

        folded = inner_product_info(pair(f, half_gauss), CFG)
        whole = unfolded_line(pair(f, half_gauss), CFG)
        assert np.all(folded.value.imag == 0.0)
        assert folded.value[0].real == pytest.approx(SQRT_PI, abs=1e-10)
        assert np.all(np.abs(folded.value - whole)
                      <= CFG.rel_tol * np.abs(whole))

    def test_deterministic_bit_identical(self):
        def f(x):
            return np.exp(-np.abs(x)) * np.cos(3.0 * x)

        a = inner_product_info(pair(f, f), CFG)
        b = inner_product_info(pair(f, f), CFG)
        assert np.array_equal(a.value, b.value)
        assert a.panels == b.panels


class TestPrincipalValue:
    def test_pole_at_origin_odd(self):
        val = principal_value(lambda x: 1.0 / x, 0.0, -1.0, 1.0, CFG)
        assert abs(val) < 1e-12

    def test_even_over_x_vanishes(self):
        def f(x):
            return (np.cos(x) + x ** 2) / x

        val = principal_value(f, 0.0, -2.0, 2.0, CFG)
        assert abs(val) < 1e-12

    def test_log_antiderivative(self):
        val = principal_value(lambda x: 1.0 / (x - 1.0), 1.0, -2.0, 2.0, CFG)
        assert val.real == pytest.approx(PV_LOG, abs=1e-9)

    def test_exponential_over_x(self):
        val = principal_value(lambda x: np.exp(x) / x, 0.0, -1.0, 1.0, CFG)
        assert val.real == pytest.approx(TWO_SHI_ONE, abs=1e-9)

    def test_pole_outside_rejected(self):
        with pytest.raises(PVFailure):
            principal_value(lambda x: 1.0 / x, 5.0, -1.0, 1.0, CFG)

    @pytest.mark.parametrize("radius", [0.0, -1e-3, math.nan])
    def test_nonpositive_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            principal_value(lambda x: 1.0 / x, 0.0, -1.0, 1.0, CFG,
                            radius=radius)


class TestOscillatoryTransforms:
    def test_sine_at_zero_time(self):
        assert sine_transform(lambda x: 1.0 / (1.0 + x ** 2), 0.0, CFG) == 0.0

    def test_sine_exponential(self):
        def f(x):
            return x * np.exp(-np.abs(x))

        assert sine_transform(f, 1.0, CFG) == pytest.approx(SINE_EXP_T1, abs=1e-9)

    def test_sine_linearity(self):
        def f(x):
            return x * np.exp(-np.abs(x))

        assert sine_transform(lambda x: 4.0 * f(x), 1.3, CFG) == pytest.approx(
            4.0 * sine_transform(f, 1.3, CFG), rel=1e-10)

    def test_cosine_exponential(self):
        # ∫₀^∞ e^{-ω} cos(ω) dω = 1/2, so the transform is 1/π
        def f(x):
            return np.exp(-np.abs(x))

        assert cosine_transform(f, 1.0, CFG) == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_cosine_vanishing_case(self):
        # ∫₀^∞ ω e^{-ω} cos(ω) dω = 0
        def f(x):
            return x * np.exp(-np.abs(x))

        assert cosine_transform(f, 1.0, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_slowly_decaying_integrand_long_window(self):
        # (2/π)∫₀^∞ sin(ωt)/ω dω = 1 for t > 0; decays like 1/ω so the
        # tail correction has to do real work here.
        for t in (0.5, 2.0, 11.0):
            assert sine_transform(lambda x: 1.0 / x, t, CFG) == pytest.approx(
                1.0, abs=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            sine_transform(gauss, -1.0, CFG)

    def test_cosine_at_zero_time_keeps_the_tail(self):
        # (2/π)∫₀^∞ cos(ωt)/(1+ω²) dω = e^{-t}, continuous at t = 0
        def f(x):
            return 1.0 / (1.0 + x ** 2)

        at_zero = cosine_transform(f, 0.0, CFG)
        assert at_zero == pytest.approx(1.0, abs=1e-9)
        for t in (1e-9, 1e-6, 1e-3):
            assert cosine_transform(f, t, CFG) == pytest.approx(
                math.exp(-t), abs=1e-9)

    def test_cosine_at_zero_time_of_divergent_integral_raises(self):
        with pytest.raises(NonConvergence, match="t = 0"):
            cosine_transform(lambda x: 1.0 / (1.0 + x), 0.0, CFG)


class TestTransformWindow:
    """The transform window is sized from the integrand's by-parts tail."""

    def test_slow_tail_meets_tolerance(self):
        for t in (0.5, 2.0, 11.0):
            assert sine_transform(lambda x: 1.0 / x, t, CFG) == pytest.approx(
                1.0, abs=1e-9)

    def test_tail_that_never_settles_raises(self):
        # the 1e-3·sin 3ω ripple never decays, so no window bounds the tail
        def f(x):
            return 1.0 / (1.0 + x ** 2) + 1e-3 * np.sin(3.0 * x)

        with pytest.raises(NonConvergence, match=r"t = 1\b.*row 0"):
            sine_transform(f, 1.0, CFG)


class TestInnerProduct:
    def test_gaussian_norm(self):
        fg, ff, gg = inner_product_info(pair(half_gauss, half_gauss), CFG).value
        assert fg.real == pytest.approx(SQRT_PI, abs=1e-10)
        assert math.sqrt(ff.real) == pytest.approx(math.sqrt(SQRT_PI), abs=1e-10)
        assert math.sqrt(gg.real) == pytest.approx(math.sqrt(SQRT_PI), abs=1e-10)

    def test_conjugate_symmetry(self):
        def f(x):
            return np.exp(-(x ** 2)) * (1.0 + 1j * x)

        def g(x):
            return np.exp(-(x ** 2) / 2.0) * (x + 2j)

        fg = inner_product_info(pair(f, g), CFG)
        gf = inner_product_info(pair(g, f), CFG)
        assert fg.value[0] == pytest.approx(np.conj(gf.value[0]), abs=1e-12)
        # the norms trade places
        assert fg.value[1:] == pytest.approx(gf.value[[2, 1]], abs=1e-12)


ROWS = settings(max_examples=40, deadline=None, database=None)
# abs_tol far below every row, so each row is held to rel_tol of itself
TIGHT = QuadratureConfig(abs_tol=1e-300)


class TestVectorPass:
    """k-row integrands share one panel set, each row on its own tolerance."""

    @ROWS
    @given(st.lists(st.tuples(st.floats(-12.0, 6.0), st.floats(0.05, 50.0)),
                    min_size=1, max_size=6))
    def test_rows_meet_their_own_tolerance(self, rows):
        s = np.array([10.0 ** e for e, _ in rows])
        a = np.array([a for _, a in rows])
        def f(x):
            return s[:, None] * np.exp(-a[:, None] * x ** 2)

        def wide(x):
            # e^{−x²/100}: a g with a norm on the whole line
            return np.broadcast_to(np.exp(-x ** 2 / 100.0), (s.size, x.size))

        fg = inner_product_info(pair(f, wide), TIGHT).value[0]
        exact = s * np.sqrt(np.pi / (a + 0.01))
        assert fg.shape == s.shape
        assert np.all(np.abs(fg - exact) <= TIGHT.rel_tol * exact)

    def test_even_odd_rows_are_exactly_zero(self):
        # each row of f g* is odd: the fold's P(x) + P(−x) zeroes every
        # ⟨f,g⟩ row while the norm rows converge on the same panels
        c = np.array([1.0, 1e-8, 3e5])

        def f(x):
            return c[:, None] * np.exp(-(x ** 2))

        def g(x):
            return 1j * x * np.exp(-np.abs(x)) * c[::-1, None]

        res = inner_product_info(pair(f, g), CFG)
        assert res.value.shape == (3, 3)
        assert np.all(res.value[0] == 0.0)
        assert np.all(res.value[1:] != 0.0)

    def test_nonfinite_row_is_named(self):
        def rows(x):
            bad = np.where(x > 3.0, np.nan, np.exp(-(x ** 2)))
            return np.array([np.exp(-(x ** 2)), bad])

        with pytest.raises(NonFinite, match="x = ") as exc:
            inner_product_info(pair(rows, rows), CFG)
        assert exc.value.where > 3.0


def _distance(f, g, cfg):
    # 𝒟 = sqrt(1 - |<f,g>|²/(||f||²||g||²)) computed straight from the
    # quadrature primitives; mirrors the quantifier-module definition.
    fg, ff, gg = inner_product_info(pair(f, g), cfg).value
    return math.sqrt(max(0.0, 1.0 - abs(fg) ** 2 / (ff.real * gg.real)))


class TestParsevalInvariance:
    """Distance between two signals computed from time samples must agree
    with the distance computed from their analytic Fourier transforms."""

    def test_orthogonal_pair(self):
        f_t = half_gauss
        g_t = lambda t: t * half_gauss(t)
        # transforms with kernel e^{iωt}: f̃ = √(2π)e^{-ω²/2}, g̃ = iω f̃
        f_w = lambda w: math.sqrt(2.0 * math.pi) * half_gauss(w)
        g_w = lambda w: 1j * w * f_w(w)
        d_time = _distance(f_t, g_t, CFG)
        d_freq = _distance(f_w, g_w, CFG)
        assert d_time == pytest.approx(1.0, abs=1e-12)
        assert abs(d_time - d_freq) < 1e-6

    def test_mixed_pair(self):
        f_t = half_gauss
        h_t = lambda t: (1.0 + t) * half_gauss(t)
        f_w = lambda w: math.sqrt(2.0 * math.pi) * half_gauss(w)
        h_w = lambda w: (1.0 + 1j * w) * f_w(w)
        d_time = _distance(f_t, h_t, CFG)
        d_freq = _distance(f_w, h_w, CFG)
        assert d_time == pytest.approx(PAIR_DISTANCE, abs=1e-9)
        assert abs(d_time - d_freq) < 1e-6


class TestIntegrandHandle:
    """Integrands are plain vectorized callables."""

    def test_hermitian_accepted(self):
        # the fold of a hermitian pair is real and agrees with the
        # unfolded whole line
        def f(x):
            return np.exp(1j * x) / (1.0 + x ** 2)

        def g(x):
            return np.exp(1j * x) * gauss(x)

        folded = inner_product_info(pair(f, g), CFG)
        whole = unfolded_line(pair(f, g), CFG)
        assert np.all(folded.value.imag == 0.0)
        assert np.all(np.abs(folded.value - whole)
                      <= CFG.rel_tol * np.abs(whole))

    def test_scalar_wrapper(self):
        f = np.vectorize(lambda x: math.exp(-x * x / 2.0), otypes=[complex])
        res = inner_product_info(pair(f, f), CFG)
        assert res.value[1].real == pytest.approx(SQRT_PI, abs=1e-10)


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)
