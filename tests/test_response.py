"""Tests for the frequency- and time-domain response machinery.

Closed-form references: the Ohmic-bath oscillator has the damped-cosine
response χ_qq(t) = e^{−Dt/2} sin(ω₁t)/ω₁ with ω₁ = √(ω₀²−D²/4); its
divisibility residual is D·χ̃_qq²·[[1, iω],[−iω, ω²]].  Mean evolution
after a kick solves q̈ + Dq̇ + ω₀²q = 0 from (q, p)(0⁺) = (−a_p, a_q+D·a_p),
where the D·a_p term is the friction impulse of the delta-correlated
kernel acting on the position jump.
"""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nonmarkov import quadrature
from nonmarkov.errors import DivisionNearZero, NonConvergence
from nonmarkov.quadrature import (
    cosine_transform,
    integrate,
    sine_transform,
)
from nonmarkov.response import (
    CHI_PLUS,
    CHI_PLUS_INV,
    ModelParams,
    _chi_time_transform,
    _expm,
    chi_matrix,
    chi_prime_matrix,
    chi_qq_vec,
    chi_time,
    divisibility_residual,
    feature_frequencies,
    propagate_means,
)
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD

from matrix_forms import pole_residues

P1 = ModelParams(omega0=1.0, beta=2.0)
PEAKED = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)


def ohmic_chi_closed(damping: float, omega0: float, t: float) -> np.ndarray:
    w1 = math.sqrt(omega0 ** 2 - damping ** 2 / 4.0)
    e = math.exp(-damping * t / 2.0)
    s, c = math.sin(w1 * t), math.cos(w1 * t)
    qq = e * s / w1
    dot = e * (c - damping / (2.0 * w1) * s)
    pp = e * ((omega0 ** 2 - damping ** 2 / 2.0) / w1 * s + damping * c)
    return np.array([[qq, -dot], [dot, pp]])


def peaked_chi_expm(sd: PeakedSD, omega0: float, t: float) -> np.ndarray:
    """χ(t) of the peaked model from the pseudo-mode embedding matrix A:
    s = e^{At}·(0, 1, 0, 0) gives χ_qq = s₀, χ̇_qq = s₁, χ_pp = −(A·s)₁."""
    a = sd.drift_matrix(omega0)
    s = expm(a * t) @ np.array([0.0, 1.0, 0.0, 0.0])
    return np.array([[s[0], -s[1]], [s[1], -(a @ s)[1]]])


def damped_means_closed(damping, omega0, a_q, a_p, t):
    w1 = math.sqrt(omega0 ** 2 - damping ** 2 / 4.0)
    q0, p0 = -a_p, a_q + damping * a_p
    e = math.exp(-damping * t / 2.0)
    s, c = math.sin(w1 * t), math.cos(w1 * t)
    q = e * (q0 * c + (p0 + damping * q0 / 2.0) / w1 * s)
    p = e * (p0 * c - (omega0 ** 2 * q0 + damping * p0 / 2.0) / w1 * s)
    return q, p


class TestChiQQ:
    def test_static_susceptibility(self):
        p = ModelParams(omega0=2.0, beta=1.0)
        assert chi_qq_vec(p, OhmicSD(0.4), 0.0) == pytest.approx(0.25,
                                                              abs=1e-15)

    def test_ohmic_on_resonance(self):
        assert chi_qq_vec(P1, OhmicSD(1.0), 1.0) == pytest.approx(1j,
                                                              abs=1e-15)

    def test_high_frequency_falloff(self):
        val = chi_qq_vec(P1, OhmicSD(1.0), 1e3)
        assert abs(val) < 1.1 / 1e6

    def test_undamped_resonance_rejected(self):
        with pytest.raises(DivisionNearZero):
            chi_qq_vec(P1, OhmicSD(0.0), 1.0)

    def test_overflowing_denominator_gives_zero(self):
        # ω·Re γ̃ = 1e310 overflows; 1j·∞ would make the denominator NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val = chi_qq_vec(ModelParams(1.0, 1.0), OhmicSD(1e300), [1e10])
        assert val.tolist() == [0.0]


class TestChiMatrix:
    def test_entry_ratios(self):
        for sd in (OhmicSD(0.7), PEAKED):
            for w in (-3.2, 0.4, 1.0, 7.7):
                m = chi_matrix(P1, sd, w)
                assert abs(m[0, 1] - 1j * w * m[0, 0]) < 1e-12
                assert abs(m[1, 0] + 1j * w * m[0, 0]) < 1e-12
                assert abs(m[1, 1] - (1.0 + w ** 2 * m[0, 0])) < 1e-12

    def test_hermitian_frequency_symmetry(self):
        for sd in (OhmicSD(0.7), PEAKED):
            for w in (0.3, 1.1, 4.5):
                plus = chi_matrix(P1, sd, w)
                minus = chi_matrix(P1, sd, -w)
                assert np.abs(minus - plus.conj()).max() < 1e-12

    def test_decoupled_pp_is_free_oscillator(self):
        m = chi_matrix(P1, OhmicSD(0.0), 0.5)
        assert m[1, 1] == pytest.approx(1.0 + 0.25 / 0.75, abs=1e-14)


class TestChiPrime:
    def test_matches_central_differences(self):
        for sd in (OhmicSD(0.7), PEAKED):
            for w in (0.37, 1.0, 2.2):
                m = chi_prime_matrix(P1, sd, w)
                h = 1e-5 * max(1.0, abs(w))
                for i, j in np.ndindex(2, 2):
                    vals = [chi_matrix(P1, sd, w + s)[i, j]
                            for s in (h, -h, h / 2, -h / 2)]
                    d1 = (vals[0] - vals[1]) / (2.0 * h)
                    d2 = (vals[2] - vals[3]) / h
                    oracle = (4.0 * d2 - d1) / 3.0
                    assert m[i, j] == pytest.approx(oracle, rel=1e-7)

    def test_ohmic_derivative_at_zero(self):
        # χ̃_qq'(0) = χ̃_qq(0)²·(i·damping) = i·damping/ω₀⁴
        assert chi_prime_matrix(P1, OhmicSD(0.7), 0.0)[0, 0] == pytest.approx(
            0.7j, abs=1e-15)
        p2 = ModelParams(omega0=1.3, beta=1.0)
        assert chi_prime_matrix(p2, OhmicSD(0.4), 0.0)[0, 0] == pytest.approx(
            0.4j / 1.3 ** 4, abs=1e-15)


class TestDivisibilityResidual:
    def test_decoupled_is_zero(self):
        for sd in (OhmicSD(0.0), PeakedSD(0.0, 0.5, 2.0)):
            r = divisibility_residual(P1, sd, 0.7)
            assert np.abs(r).max() < 1e-14

    def test_ohmic_point_value(self):
        r = divisibility_residual(P1, OhmicSD(1.0), 1.0)
        expect = -np.array([[1.0, 1j], [-1j, 1.0]])
        assert np.abs(r - expect).max() < 1e-12

    def test_ohmic_closed_form_on_grid(self):
        for damping in (0.1, 1.0):
            sd = OhmicSD(damping)
            for w in np.linspace(-10.0, 10.0, 100):
                r = divisibility_residual(P1, sd, w)
                c = chi_qq_vec(P1, sd, w)
                expect = damping * c * c * np.array([[1.0, 1j * w],
                                                     [-1j * w, w * w]])
                assert np.abs(r - expect).max() < 1e-10

    @pytest.mark.parametrize("damping", [1e-8, 1e-4, 1.0])
    def test_weak_ohmic_keeps_its_digits(self, damping):
        # R = D/(ω₀² − ω² − iDω)²·[[1, iω], [−iω, ω²]]; the difference of
        # −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃ would lose the digits of a small D
        w = np.linspace(-10.0, 10.0, 201)
        r = divisibility_residual(P1, OhmicSD(damping), w)
        c = damping / (1.0 - w ** 2 - 1j * damping * w) ** 2
        expect = np.array([[c, 1j * w * c], [-1j * w * c, w * w * c]])
        assert np.all(np.abs(r - expect) <= 1e-13 * np.abs(expect))


class TestChiPlus:
    def test_round_trip(self):
        assert np.array_equal(CHI_PLUS @ CHI_PLUS_INV, np.eye(2))

    def test_skew_and_unit_determinant(self):
        assert np.array_equal(CHI_PLUS.T, -CHI_PLUS)
        assert np.linalg.det(CHI_PLUS) == pytest.approx(1.0, abs=1e-15)
        assert CHI_PLUS[1, 0] == 1.0 and CHI_PLUS[0, 1] == -1.0


class TestChiTime:
    def test_zero_time_is_zero_matrix(self):
        assert np.array_equal(chi_time(P1, OhmicSD(0.2), 0.0), np.zeros((2, 2)))
        assert np.array_equal(chi_time(P1, PEAKED, 0.0), np.zeros((2, 2)))

    def test_ohmic_damped_oscillation(self):
        sd = OhmicSD(0.2)
        for t in (0.3, 1.0, 2.7, 5.0, 12.0, 20.0):
            got = chi_time(P1, sd, t)
            assert np.abs(got - ohmic_chi_closed(0.2, 1.0, t)).max() < 1e-4

    def test_strongly_damped(self):
        sd = OhmicSD(1.5)
        for t in (0.5, 3.0, 9.0):
            got = chi_time(P1, sd, t)
            assert np.abs(got - ohmic_chi_closed(1.5, 1.0, t)).max() < 1e-4

    def test_decoupled_free_rotation(self):
        t = 1.234
        got = chi_time(P1, OhmicSD(0.0), t)
        s, c = math.sin(t), math.cos(t)
        assert np.abs(got - np.array([[s, -c], [c, s]])).max() < 1e-14

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            chi_time(P1, OhmicSD(0.2), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, t):
        # no window bounds the tail there: NaN never met the tail bound,
        # so the window kept doubling without end
        with pytest.raises(ValueError, match="t < inf"):
            chi_time(P1, PEAKED, t)
        with pytest.raises(ValueError, match="t < inf"):
            propagate_means(P1, PEAKED, 1.0, 1.0, t)

    def test_oversized_window_is_refused_before_it_is_built(self):
        # at t = 1e6 the period-locked window needs millions of panels;
        # counting them must not allocate them
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergence, match="panels"):
                _chi_time_transform(P1, PeakedSD(0.5, 0.5, 2.0), 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_deterministic(self):
        a = chi_time(P1, PEAKED, 2.5)
        b = chi_time(P1, PEAKED, 2.5)
        assert np.array_equal(a, b)

    def test_one_pass_matches_separate_transforms(self, monkeypatch):
        passes = []
        adaptive = quadrature._adaptive
        monkeypatch.setattr(quadrature, "_adaptive",
                            lambda *a: passes.append(1) or adaptive(*a))
        bp = feature_frequencies(P1, PEAKED)

        def im_c(w):
            return np.imag(chi_qq_vec(P1, PEAKED, w)) + 0.0j

        for t in (0.4, 2.5, 11.0):
            passes.clear()
            got = _chi_time_transform(P1, PEAKED, t)
            assert len(passes) == 1
            qq = sine_transform(im_c, t, breakpoints=bp)
            dot = cosine_transform(lambda w: w * im_c(w), t, breakpoints=bp)
            pp = sine_transform(lambda w: w ** 2 * im_c(w), t, breakpoints=bp)
            want = np.array([[qq, -dot], [dot, pp]])
            assert np.abs(got - want).max() < 1e-9

    def test_table_transform_stops_at_the_last_knot(self):
        # Im χ̃_qq ≡ 0 beyond a table's last knot, so the window is [0, 200]
        # with no tail; a window from 4·200 needed more than 20000
        # period-locked panels at t = 20.  The reference is the tail route
        # with a cap of 200000 panels.
        w = np.linspace(0.0, 200.0, 1001)
        j = 2.0 * w * np.exp(-w / 20.0)
        j[-1] = 0.0
        got = chi_time(ModelParams(omega0=1.0, beta=1.0), TabulatedSD(w, j),
                       20.0)
        want = (3.9243484806770856e-05, -9.009961570741828e-06,
                -2.873981266128325e-06)
        assert [got[0, 0], got[1, 0], got[1, 1]] == pytest.approx(want,
                                                                  rel=1e-9)


REF_TIMES = (0.1, 0.3, 0.6, 1.0, 3.0, 10.0, 20.0, 50.0)
# the drift-matrix route of every Ohmic and peaked bath, and the
# transforms of Im χ̃ that tables take
ROUTES = (chi_time, _chi_time_transform)


class TestChiTimeReferences:
    """Every χ(t) entry of both routes within 1e-9 of an exact reference."""

    @pytest.mark.parametrize("damping", [0.05, 0.2, 0.5, 1.5])
    def test_ohmic_closed_form(self, damping):
        for route in ROUTES:
            for t in REF_TIMES:
                got = route(P1, OhmicSD(damping), t)
                want = ohmic_chi_closed(damping, 1.0, t)
                assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("peak", [(0.75, 0.63, 1.0), (1.0, 0.5, 2.0),
                                      (0.05, 0.05, 1.0)])
    def test_peaked_embedding(self, peak):
        sd = PeakedSD(*peak)
        for route in ROUTES:
            for t in REF_TIMES:
                got = route(P1, sd, t)
                assert np.abs(got - peaked_chi_expm(sd, 1.0, t)).max() < 1e-9

    @settings(max_examples=15, deadline=None, database=None)
    @given(st.floats(0.05, 1.5), st.floats(0.5, 3.0), st.floats(0.05, 0.95))
    def test_peaked_embedding_drawn(self, coupling, resonance, frac):
        # width = frac·√2·Ω keeps the auxiliary mode oscillatory, 2Ω² > Γ²
        sd = PeakedSD(coupling, max(0.05, frac * math.sqrt(2.0) * resonance),
                      resonance)
        for route in ROUTES:
            for t in REF_TIMES:
                got = route(P1, sd, t)
                assert np.abs(got - peaked_chi_expm(sd, 1.0, t)).max() < 1e-9


def ohmic_chi_expm(damping: float, omega0: float, t: float) -> np.ndarray:
    """χ(t) of the Ohmic model from scipy's e^{At} of the drift matrix of
    (q, p), by the formula of ``peaked_chi_expm``."""
    a = np.array([[0.0, 1.0], [-omega0 ** 2, -damping]])
    s = expm(a * t) @ np.array([0.0, 1.0])
    return np.array([[s[0], -s[1]], [s[1], -(a @ s)[1]]])


class TestDriftRoute:
    """χ(t) from e^{At} of the bath's drift matrix: the two routes agree,
    the matrix exponential holds to rounding, and baths whose transforms
    fail still get their χ(t)."""

    @settings(max_examples=15, deadline=None, database=None)
    @given(st.floats(0.01, 4.0))
    @example(2.0)
    def test_ohmic_matches_the_transforms(self, damping):
        # D = 2ω₀ is critical damping, where the eigenvectors of A merge
        sd = OhmicSD(damping)
        for t in REF_TIMES:
            want = _chi_time_transform(P1, sd, t)
            assert np.abs(chi_time(P1, sd, t) - want).max() < 1e-9

    @settings(max_examples=15, deadline=None, database=None)
    @given(st.floats(0.0, 20.0))
    @example(0.0)
    @example(2.0)
    @example(20.0)
    def test_ohmic_matches_scipy_expm(self, damping):
        # D = 0 has no transform (Im χ̃ is a delta), and from D ≈ 6.7 on
        # the transforms may fail at t = 50, so scipy's e^{At} is the
        # reference over the whole range
        for t in REF_TIMES:
            want = ohmic_chi_expm(damping, 1.0, t)
            assert np.abs(chi_time(P1, OhmicSD(damping), t) - want).max() \
                < 1e-9

    @settings(max_examples=15, deadline=None, database=None)
    @given(st.floats(0.05, 1.5), st.floats(0.5, 3.0), st.floats(0.05, 2.0),
           st.floats(0.5, 2.0))
    @example(0.8, 1.0, 3.0 / math.sqrt(2.0), 1.0)
    def test_peaked_matches_the_transforms(self, coupling, resonance, frac,
                                           omega0):
        # width = frac·√2·Ω; frac ≥ 1 is the overdamped mode, 2Ω² ≤ Γ²
        sd = PeakedSD(coupling, frac * math.sqrt(2.0) * resonance, resonance)
        p = ModelParams(omega0=omega0, beta=1.0)
        for t in REF_TIMES:
            want = _chi_time_transform(p, sd, t)
            assert np.abs(chi_time(p, sd, t) - want).max() < 1e-9

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(["ohmic", "peaked"]), st.floats(0.0, 20.0),
           st.floats(0.05, 3.0), st.floats(0.5, 3.0), st.floats(0.5, 2.0),
           st.floats(1e-3, 1e3))
    @example("ohmic", 2.0, 1.0, 1.0, 1.0, 1e3)
    @example("peaked", 9.0, 1.0, 0.0625, 1.0, 5.0)
    # e^{At} decayed to 1.2e-10: the Padé step was 1.4e-12 of it off
    @example("ohmic", 20.0, 1.0, 1.0, 1.0, 456.0)
    def test_expm_holds_to_rounding(self, kind, d, width, resonance, omega0,
                                    t):
        sd = (OhmicSD(d) if kind == "ohmic"
              else PeakedSD(d / 10.0, width, resonance))
        at = sd.drift_matrix(omega0) * t
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(at.tolist())).tolist(),
                            dtype=float)
        norm = np.abs(want).max()
        err = np.abs(_expm(at) - want).max()
        assert err <= 1e-12 * max(norm, 1.0)
        # once e^{At} has decayed by 30 orders, its relative error grows
        # like (‖A‖t)²·ε near critical damping, for scipy's expm as well
        # (4e-11 of the norm at ω₀ = 0.5, D = 1, t = 1e3)
        if norm >= 1e-30:
            assert err <= 1e-12 * norm
        if t <= 10.0:
            # scipy's own error grows to about 2e-11 of the norm at t = 1e3
            assert np.abs(_expm(at) - expm(at)).max() <= 1e-12 * norm

    def test_expm_scales_a_non_normal_matrix_by_its_powers(self):
        # ‖A·t‖₁ = 1046 while e^{At} stays bounded: the squarings chosen
        # from ‖A‖₁ left e^{At} 1.2e-12 off; scipy's expm is 5.1e-14 off
        at = PeakedSD(0.9, 1.0, 0.0625).drift_matrix(1.0) * 5.0
        with mpmath.workdps(40):
            want = np.array(mpmath.expm(mpmath.matrix(at.tolist())).tolist(),
                            dtype=float)
        assert np.abs(_expm(at) - want).max() <= 1e-13 * np.abs(want).max()

    def test_long_time_is_refused_before_rounding_takes_over(self):
        # undamped, e^{At} is off by about ‖A·t‖₁·ε: 3.6e-9 in the median
        # and 1.6e-8 at most over 200 times just below the 1e8 limit
        t = 1e8
        s, c = math.sin(t), math.cos(t)
        got = chi_time(P1, OhmicSD(0.0), t)
        assert np.abs(got - np.array([[s, -c], [c, s]])).max() < 1e-7
        with pytest.raises(NonConvergence, match="rounding"):
            chi_time(P1, OhmicSD(0.0), 1.01e8)
        with pytest.raises(NonConvergence, match="rounding"):
            propagate_means(P1, PEAKED, 1.0, 1.0, 1e300)

    def test_very_weak_peaked_bath(self):
        # χ̃'s resonance is about 5e-14 wide, so the transforms end in
        # NonConvergence
        sd = PeakedSD(1e-6, 0.5, 2.0)
        got = chi_time(P1, sd, 5.0)
        assert np.abs(got - peaked_chi_expm(sd, 1.0, 5.0)).max() < 1e-12


class TestPseudoModePoles:
    """χ̃_qq of the peaked bath against the residues of its drift matrix,
    which pins the matrix to the closed-form kernel γ̃."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.floats(0.05, 1.5), st.floats(0.3, 3.0), st.floats(0.05, 0.95),
           st.floats(0.5, 2.0))
    def test_chi_is_the_residue_sum(self, coupling, resonance, frac, omega0):
        # width = frac·√2·Ω keeps the auxiliary mode oscillatory, 2Ω² > Γ²
        sd = PeakedSD(coupling, frac * math.sqrt(2.0) * resonance, resonance)
        p = ModelParams(omega0=omega0, beta=1.0)
        lam, r = pole_residues(sd, omega0)
        w = np.linspace(-20.0, 20.0, 401)
        want = chi_qq_vec(p, sd, w)
        got = -(r[:, None] / (lam[:, None] + 1j * w)).sum(axis=0)
        # an entry of A rounded by ε‖A‖ moves χ̃ by ε‖A‖·|χ̃|², which near
        # a sharp pole (weak coupling) exceeds 1e-12 of |χ̃|
        norm = np.abs(sd.drift_matrix(omega0)).max()
        bound = 1e-12 * np.abs(want) + 1e-14 * norm * np.abs(want) ** 2
        assert np.all(np.abs(got - want) <= bound)


class TestPropagateMeans:
    def test_post_kick_values(self):
        assert propagate_means(P1, OhmicSD(0.2), 1.0, 1.0, 0.0) == (-1.0, 1.0)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("kick", [math.nan, math.inf, -math.inf])
    def test_non_finite_kick_rejected(self, kick, t):
        with pytest.raises(ValueError, match="a_q must be finite"):
            propagate_means(P1, OhmicSD(0.2), kick, 1.0, t)
        with pytest.raises(ValueError, match="a_p must be finite"):
            propagate_means(P1, OhmicSD(0.2), 1.0, kick, t)

    def test_smooth_kernel_limit(self):
        sd = PeakedSD(0.3, 0.5, 2.0)
        q, p = propagate_means(P1, sd, 1.0, 1.0, 1e-4)
        assert q == pytest.approx(-1.0, abs=5e-4)
        assert p == pytest.approx(1.0, abs=5e-4)

    def test_free_rotation_conserves_energy(self):
        sd = OhmicSD(0.0)
        e0 = 1.0 ** 2 * 1.0 + 0.5 ** 2  # ω₀²·a_p² + a_q² at t=0⁺... energy of (−a_p, a_q)
        for t in (0.7, 2.0, 5.5, 11.0):
            q, p = propagate_means(P1, sd, 0.5, 1.0, t)
            assert q ** 2 + p ** 2 == pytest.approx(e0, rel=1e-12)

    def test_ohmic_matches_damped_closed_form(self):
        # Fig-2 style kick: a_p/√ω₀ = √ω₀·a_q = 1 with ω₀ = 1
        sd = OhmicSD(0.2)
        for t in np.linspace(0.25, 20.0, 12):
            got = propagate_means(P1, sd, 1.0, 1.0, t)
            ref = damped_means_closed(0.2, 1.0, 1.0, 1.0, t)
            assert abs(got[0] - ref[0]) < 1e-4
            assert abs(got[1] - ref[1]) < 1e-4


class TestSumRule:
    def test_static_value_recovered(self):
        # (2/π)∫₀^∞ Im χ̃_qq/ω dω must equal the static susceptibility 1/ω₀²
        cases = [OhmicSD(0.1), OhmicSD(1.0), PEAKED]
        for sd in cases:
            bp = feature_frequencies(P1, sd)

            def ratio(w, sd=sd):
                return np.imag(chi_qq_vec(P1, sd, w)) / w + 0.0j

            val = integrate(ratio, 0.0, math.inf, breakpoints=bp)
            assert 2.0 / math.pi * val.real == pytest.approx(1.0, rel=1e-6)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(omega0=0.0, beta=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, beta=-2.0)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, beta=1.0, hbar=-0.5)
        with pytest.raises(ValueError):
            ModelParams(omega0=1.0, beta=1.0, cutoff=0.5)

    @pytest.mark.parametrize("kwargs, key", [
        (dict(omega0=math.inf, beta=1.0), "omega0"),
        (dict(omega0=1.0, beta=1.0, cutoff=math.inf), "cutoff"),
        (dict(omega0=1.0, beta=math.inf), "beta"),
        (dict(omega0=1.0, beta=1.0, hbar=math.inf), "hbar"),
    ])
    def test_rejects_non_finite(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ModelParams(**kwargs)

    def test_default_cutoff(self):
        assert ModelParams(omega0=2.0, beta=1.0).cutoff == 2000.0


class TestFeatureFrequencies:
    def test_contains_resonance(self):
        pts = feature_frequencies(P1, OhmicSD(0.2))
        assert any(abs(x - 1.0) < 0.2 for x in pts)
        assert all(x > 0 for x in pts)
        assert pts == sorted(pts)

    def test_peaked_includes_mode_structure(self):
        pts = feature_frequencies(P1, PEAKED)
        assert any(abs(x - PEAKED.resonance) < PEAKED.width for x in pts)
        # the poles of χ̃, eigenvalues of the pseudo-mode drift matrix
        for lam in np.linalg.eigvals(PEAKED.drift_matrix(P1.omega0)):
            assert abs(lam.imag) in pts
