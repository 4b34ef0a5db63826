"""Tests for the adaptive quadrature kernel.

Expected values marked "oracle" below were computed independently of the
library: high-resolution trapezoid sums, closed-form antiderivatives, or
series summation, then frozen here as literals.
"""
import math

import numpy as np
import pytest

from nonmarkov.errors import (
    NonConvergence,
    NonFinite,
    ParityViolation,
    PVFailure,
    TailDominates,
)
from nonmarkov.quadrature import (
    Integrand,
    QuadratureConfig,
    cosine_transform,
    inner_product_l2,
    integrate,
    integrate_line,
    integrate_line_info,
    norm_l2,
    principal_value,
    sine_transform,
)

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

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(gauss, 1.0, 1.0, CFG)


class TestIntegrateLine:
    def test_gaussian(self):
        f = Integrand(gauss, "even")
        assert integrate_line(f, CFG).real == pytest.approx(SQRT_PI, abs=1e-10)

    def test_odd_integrand_is_zero(self):
        f = Integrand(lambda x: x * np.exp(-(x ** 2)), "odd")
        assert integrate_line(f, CFG) == 0.0

    def test_lorentzian_needs_wide_window(self):
        f = Integrand(lambda x: 1.0 / (1.0 + x ** 2), "even")
        wide = QuadratureConfig(half_width=1e7, rel_tol=1e-6)
        assert integrate_line(f, wide).real == pytest.approx(math.pi, abs=1e-6)

    def test_slow_tail_raises(self):
        f = Integrand(lambda x: 1.0 / (1.0 + x ** 2), "even")
        with pytest.raises(TailDominates) as exc:
            integrate_line(f, CFG)
        assert exc.value.tail > 0

    def test_info_reports_tail_without_raising(self):
        f = Integrand(lambda x: 1.0 / (1.0 + x ** 2), "even")
        res = integrate_line_info(f, CFG)
        # truncated value is 2·atan(W)
        assert res.value.real == pytest.approx(2.0 * math.atan(CFG.half_width), abs=1e-9)
        assert res.tail == pytest.approx(2.0 / CFG.half_width, rel=0.1)

    def test_steep_exponential_tail_is_finite(self):
        # the power-law fit on [W/10, W] has a slope near −300 here, so
        # its amplitude alone is far beyond the float range
        f = Integrand(lambda x: np.exp(-4.0 * np.abs(x)), "even")
        res = integrate_line_info(f, CFG)
        assert res.value.real == pytest.approx(0.5, rel=1e-9)
        assert 0.0 <= res.tail < 1e-60

    def test_hermitian_integrand_gives_real_value(self):
        f = Integrand(lambda x: np.exp(-(x ** 2)) * (1.0 + 1j * x), "hermitian")
        val = integrate_line(f, CFG)
        assert val.imag == 0.0
        assert val.real == pytest.approx(SQRT_PI, abs=1e-10)

    def test_deterministic_bit_identical(self):
        f = Integrand(lambda x: np.exp(-np.abs(x)) * np.cos(3.0 * x), "even")
        a = integrate_line(f, CFG)
        b = integrate_line(f, CFG)
        assert a == b


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


class TestOscillatoryTransforms:
    def test_sine_at_zero_time(self):
        f = Integrand(lambda x: 1.0 / (1.0 + x ** 2), "even")
        assert sine_transform(f, 0.0, CFG) == 0.0

    def test_sine_exponential(self):
        f = Integrand(lambda x: x * np.exp(-np.abs(x)), "odd")
        assert sine_transform(f, 1.0, CFG) == pytest.approx(SINE_EXP_T1, abs=1e-9)

    def test_sine_linearity(self):
        f = Integrand(lambda x: x * np.exp(-np.abs(x)), "odd")
        g = Integrand(lambda x: 4.0 * x * np.exp(-np.abs(x)), "odd")
        assert sine_transform(g, 1.3, CFG) == pytest.approx(
            4.0 * sine_transform(f, 1.3, CFG), rel=1e-10)

    def test_cosine_exponential(self):
        # ∫₀^∞ e^{-ω} cos(ω) dω = 1/2, so the transform is 1/π
        f = Integrand(lambda x: np.exp(-np.abs(x)), "even")
        assert cosine_transform(f, 1.0, CFG) == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_cosine_vanishing_case(self):
        # ∫₀^∞ ω e^{-ω} cos(ω) dω = 0
        f = Integrand(lambda x: x * np.exp(-np.abs(x)), "odd")
        assert cosine_transform(f, 1.0, CFG) == pytest.approx(0.0, abs=1e-9)

    def test_slowly_decaying_integrand_long_window(self):
        # (2/π)∫₀^∞ sin(ωt)/ω dω = 1 for t > 0; decays like 1/ω so the
        # tail correction has to do real work here.
        f = Integrand(lambda x: 1.0 / x, "odd", skip_check=True)
        for t in (0.5, 2.0, 11.0):
            assert sine_transform(f, t, CFG) == pytest.approx(1.0, abs=1e-6)

    def test_negative_time_rejected(self):
        f = Integrand(gauss, "even")
        with pytest.raises(ValueError):
            sine_transform(f, -1.0, CFG)


class TestInnerProduct:
    def test_gaussian_norm(self):
        f = Integrand(lambda x: np.exp(-(x ** 2) / 2.0), "even")
        val = inner_product_l2(f, f, CFG)
        assert val.real == pytest.approx(SQRT_PI, abs=1e-10)
        assert norm_l2(f, CFG) == pytest.approx(math.sqrt(SQRT_PI), abs=1e-10)

    def test_even_odd_orthogonality(self):
        f = Integrand(lambda x: np.exp(-(x ** 2) / 2.0), "even")
        g = Integrand(lambda x: x * np.exp(-(x ** 2) / 2.0), "odd")
        assert inner_product_l2(f, g, CFG) == 0.0

    def test_conjugate_symmetry(self):
        f = Integrand(lambda x: np.exp(-(x ** 2)) * (1.0 + 1j * x), "hermitian")
        g = Integrand(lambda x: np.exp(-(x ** 2) / 2.0) * (x + 2j), "none")
        fg = inner_product_l2(f, g, CFG)
        gf = inner_product_l2(g, f, CFG)
        assert fg == pytest.approx(np.conj(gf), abs=1e-12)


def _distance(f, g, cfg):
    # 𝒟 = sqrt(1 - |<f,g>|²/(||f||²||g||²)) computed straight from the
    # quadrature primitives; mirrors the quantifier-module definition.
    num = abs(inner_product_l2(f, g, cfg)) ** 2
    den = inner_product_l2(f, f, cfg).real * inner_product_l2(g, g, cfg).real
    return math.sqrt(max(0.0, 1.0 - num / den))


class TestParsevalInvariance:
    """Distance between two signals computed from time samples must agree
    with the distance computed from their analytic Fourier transforms."""

    def test_orthogonal_pair(self):
        f_t = Integrand(lambda t: np.exp(-(t ** 2) / 2.0), "even")
        g_t = Integrand(lambda t: t * np.exp(-(t ** 2) / 2.0), "odd")
        # transforms with kernel e^{iωt}: f̃ = √(2π)e^{-ω²/2}, g̃ = iω f̃
        f_w = Integrand(lambda w: math.sqrt(2.0 * math.pi) * np.exp(-(w ** 2) / 2.0), "even")
        g_w = Integrand(lambda w: 1j * w * math.sqrt(2.0 * math.pi) * np.exp(-(w ** 2) / 2.0),
                        "hermitian")
        d_time = _distance(f_t, g_t, CFG)
        d_freq = _distance(f_w, g_w, CFG)
        assert d_time == pytest.approx(1.0, abs=1e-12)
        assert abs(d_time - d_freq) < 1e-6

    def test_mixed_pair(self):
        f_t = Integrand(lambda t: np.exp(-(t ** 2) / 2.0), "even")
        h_t = Integrand(lambda t: (1.0 + t) * np.exp(-(t ** 2) / 2.0), "none")
        f_w = Integrand(lambda w: math.sqrt(2.0 * math.pi) * np.exp(-(w ** 2) / 2.0), "even")
        h_w = Integrand(lambda w: math.sqrt(2.0 * math.pi) * (1.0 + 1j * w) * np.exp(-(w ** 2) / 2.0),
                        "hermitian")
        d_time = _distance(f_t, h_t, CFG)
        d_freq = _distance(f_w, h_w, CFG)
        assert d_time == pytest.approx(PAIR_DISTANCE, abs=1e-9)
        assert abs(d_time - d_freq) < 1e-6


class TestIntegrandHandle:
    def test_false_parity_rejected(self):
        with pytest.raises(ParityViolation):
            Integrand(lambda x: x + 1.0, "even")

    def test_unknown_parity_rejected(self):
        with pytest.raises(ValueError):
            Integrand(gauss, "sideways")

    def test_hermitian_accepted(self):
        Integrand(lambda x: np.exp(1j * x) / (1.0 + x ** 2), "hermitian")

    def test_scalar_wrapper(self):
        scalar = np.vectorize(lambda x: math.exp(-x * x), otypes=[complex])
        f = Integrand(scalar, "even")
        assert integrate_line(f, CFG).real == pytest.approx(SQRT_PI, abs=1e-10)


class TestConfigValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QuadratureConfig(half_width=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-9)
        with pytest.raises(ValueError):
            QuadratureConfig(max_subdivisions=0)
