"""Tests for the spectral-density families and the memory kernel.

Derivative reference values were frozen from an independent Richardson
central-difference oracle run over the closed-form kernel.
"""
import math

import numpy as np
import pytest

from nonmarkov.errors import DerivativeUnstable
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD

# Richardson oracle at ω=1.3 for coupling=1, width=0.5, resonance=2
PRIME_13 = 0.17131325365256356 - 0.17208285153084515j
# slope of Im γ̃ at ω=0: coupling²·(width²−resonance²)/resonance⁶
IM_PRIME_0 = -0.05859375

PEAKED = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)


def make_peaked_table(step=0.0025, top=30.0, sd=PEAKED):
    grid = np.arange(0.0, top + 1e-9, step)
    vals = sd.j(grid)
    vals[0] = 0.0
    return TabulatedSD(grid, vals)


class TestOhmic:
    def test_j_linear(self):
        assert OhmicSD(0.3).j(2.0) == pytest.approx(0.6, abs=1e-15)

    def test_j_odd(self):
        sd = OhmicSD(0.3)
        assert sd.j(-2.0) == -sd.j(2.0)

    def test_kernel_constant(self):
        sd = OhmicSD(0.3)
        assert sd.gamma_tilde_vec(5.0) == 0.3 + 0.0j
        assert sd.gamma_tilde_vec(-7.1) == 0.3 + 0.0j

    def test_prime_zero(self):
        assert OhmicSD(1.7).gamma_tilde_prime_vec(0.9) == 0.0

    def test_decoupled_allowed(self):
        assert OhmicSD(0.0).gamma_tilde_vec(1.0).real == 0.0

    def test_decoupled_only_at_zero_damping(self):
        assert OhmicSD(0.0).decoupled
        assert not OhmicSD(1e-300).decoupled

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError):
            OhmicSD(-0.1)


class TestPeaked:
    def test_j_at_resonance(self):
        # J(Ω) = coupling²/(width·resonance)
        assert PEAKED.j(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_j_at_zero(self):
        assert PEAKED.j(0.0) == 0.0

    def test_kernel_at_resonance(self):
        val = PEAKED.gamma_tilde_vec(2.0)
        assert val.real == pytest.approx(0.5, abs=1e-15)
        assert val.imag == pytest.approx(0.125, abs=1e-15)

    def test_im_vanishes_at_zero(self):
        assert PEAKED.gamma_tilde_vec(0.0).imag == 0.0

    def test_re_is_j_over_omega(self):
        for w in np.linspace(0.1, 8.0, 23):
            assert PEAKED.gamma_tilde_vec(w).real == pytest.approx(
                PEAKED.j(w) / w, rel=1e-14)

    def test_im_closed_form(self):
        d, g, big = PEAKED.coupling, PEAKED.width, PEAKED.resonance
        for w in np.linspace(0.05, 9.0, 40):
            expect = d ** 2 * w * (g ** 2 + w ** 2 - big ** 2) / (
                big ** 2 * (g ** 2 * w ** 2 + (w ** 2 - big ** 2) ** 2))
            assert PEAKED.gamma_tilde_vec(w).imag == pytest.approx(
                expect, rel=1e-14)

    def test_parity_pairs(self):
        for w in (0.3, 1.1, 2.0, 5.5):
            plus = PEAKED.gamma_tilde_vec(w)
            minus = PEAKED.gamma_tilde_vec(-w)
            assert abs(minus.real - plus.real) < 1e-12
            assert abs(minus.imag + plus.imag) < 1e-12

    def test_overdamped_kernel_still_dispersion_consistent(self):
        # closed form remains the transform of J when the peak is gone
        over = PeakedSD(coupling=0.75, width=3.0, resonance=1.0)
        freqs = np.concatenate([[0.0], np.geomspace(1e-4, 400.0, 12000)])
        tab = TabulatedSD(freqs, over.j(freqs))
        for w in (0.3, 1.0, 2.5, 6.0):
            assert tab.gamma_tilde_vec(w).imag == pytest.approx(
                over.gamma_tilde_vec(w).imag, rel=1e-6)

    def test_decoupled_only_at_zero_coupling(self):
        assert PeakedSD(0.0, 0.5, 2.0).decoupled
        assert not PEAKED.decoupled

    def test_drift_matrix_keeps_the_static_response(self):
        # χ̃_qq(0) = −(A⁻¹)_qp = 1/ω₀² for any coupling
        for omega0 in (0.5, 1.0, 3.0):
            a = PEAKED.drift_matrix(omega0)
            assert -np.linalg.inv(a)[0, 1] == pytest.approx(omega0 ** -2,
                                                            rel=1e-14)

    def test_feature_frequencies_hold_the_poles(self):
        # λ = −σ ± iν gives ν, ν ± σ, ν ± 3σ next to the resonance points
        pts = PEAKED.feature_frequencies(1.0)
        assert pts[:3] == [2.0, 1.5, 2.5]
        for lam in np.linalg.eigvals(PEAKED.drift_matrix(1.0)):
            nu, sig = abs(lam.imag), abs(lam.real)
            for k in (-3, -1, 0, 1, 3):
                assert nu + k * sig in pts
        assert PeakedSD(0.0, 0.5, 2.0).feature_frequencies(1.0) == pts[:3]

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            PeakedSD(coupling=1.0, width=0.0, resonance=1.0)
        with pytest.raises(ValueError):
            PeakedSD(coupling=1.0, width=0.5, resonance=-2.0)

    def test_infinite_shape_rejected(self):
        with pytest.raises(ValueError, match="^width must be finite"):
            PeakedSD(coupling=1.0, width=math.inf, resonance=1.0)
        with pytest.raises(ValueError, match="^resonance must be finite"):
            PeakedSD(coupling=1.0, width=0.5, resonance=math.inf)

    @pytest.mark.parametrize("shape, name", [
        ((1e200, 0.5, 2.0), "coupling"),
        ((1.0, 1e200, 2.0), "width"),
        ((1.0, 0.5, 1e200), "resonance"),
        ((1.0, 0.5, 1e-160), "resonance"),
        ((1.0, 0.5, 1e-200), "resonance"),
        ((1.0, 1e-160, 2.0), "width"),
    ])
    def test_squares_out_of_the_normal_floats_rejected(self, shape, name):
        # the kernel and the drift matrix square all three parameters; an
        # overflowing or subnormal square used to end in OverflowError,
        # LinAlgError or ZeroDivisionError downstream
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            PeakedSD(*shape)

    def test_overflowing_counter_term_rejected(self):
        # each square is a normal float, but the drift matrix's D²/Ω² is
        # not; it used to end in LinAlgError from eigvals
        with pytest.raises(ValueError, match="^coupling .* not finite"):
            PeakedSD(1e150, 0.5, 1e-5)
        a = PeakedSD(1e150, 0.5, 1e-4).drift_matrix(1.0)
        assert np.isfinite(a).all()

    def test_squares_at_the_float_limits_accepted(self):
        sd = PeakedSD(1e150, 1e-150, 1e150)
        assert np.all(np.isfinite(sd.drift_matrix(1.0)))


class TestKernelDerivative:
    def test_ohmic_zero_everywhere(self):
        for w in (0.0, 0.5, 3.0):
            assert OhmicSD(0.8).gamma_tilde_prime_vec(w) == 0.0

    def test_peaked_at_origin(self):
        val = PEAKED.gamma_tilde_prime_vec(0.0)
        assert val.real == 0.0
        assert val.imag == pytest.approx(IM_PRIME_0, abs=1e-15)

    def test_peaked_matches_difference_oracle(self):
        val = PEAKED.gamma_tilde_prime_vec(1.3)
        assert abs(val - PRIME_13) < 1e-7

    def test_peaked_against_inline_richardson(self):
        for w in (0.4, 1.9, 2.6, 4.2):
            h = 1e-3
            d = [(PEAKED.gamma_tilde_vec(np.array([w + s]))[0]
                  - PEAKED.gamma_tilde_vec(np.array([w - s]))[0]) / (2 * s)
                 for s in (h, h / 2, h / 4)]
            oracle = (4.0 * d[2] - d[1]) / 3.0
            assert abs(PEAKED.gamma_tilde_prime_vec(w) - oracle) < 1e-7


class TestTabulated:
    def test_roundtrip_interpolation(self):
        tab = make_peaked_table(step=0.01)
        for w in (0.37, 1.5, 2.0, 6.283):
            assert tab.j(w) == pytest.approx(PEAKED.j(w), rel=1e-5)

    def test_zero_outside_range(self):
        tab = make_peaked_table()
        assert tab.j(31.0) == 0.0
        assert tab.j(-31.0) == 0.0

    def test_odd_extension(self):
        tab = make_peaked_table(step=0.01)
        assert tab.j(-1.4) == -tab.j(1.4)

    def test_re_limit_at_zero(self):
        # lim J(ω)/ω = coupling²·width/resonance⁴ = 0.03125
        tab = make_peaked_table()
        assert tab.gamma_tilde_vec(0.0).real == pytest.approx(0.03125,
                                                              abs=1e-5)
        assert tab.gamma_tilde_vec(0.0).imag == 0.0

    def test_dispersion_matches_analytic_kernel(self):
        # Im γ̃ by principal-value quadrature on a tabulated copy must
        # reproduce the closed form away from the resonance.
        tab = make_peaked_table()
        grid = np.concatenate([np.linspace(0.3, 1.7, 15),
                               np.linspace(2.3, 7.0, 15)])
        assert np.all(np.abs(grid - PEAKED.resonance) >= 0.05 * PEAKED.width)
        for w in grid:
            im_pv = tab.gamma_tilde_vec(w).imag
            im_an = PEAKED.gamma_tilde_vec(w).imag
            assert im_pv == pytest.approx(im_an, rel=1e-5)

    def test_parity_pairs(self):
        tab = make_peaked_table()
        for w in (0.9, 2.4):
            plus = tab.gamma_tilde_vec(w)
            minus = tab.gamma_tilde_vec(-w)
            assert abs(minus.real - plus.real) < 1e-12
            assert abs(minus.imag + plus.imag) < 1e-12

    def test_derivative_matches_analytic(self):
        tab = make_peaked_table()
        assert abs(tab.gamma_tilde_prime_vec(1.0)
                   - PEAKED.gamma_tilde_prime_vec(1.0)) < 1e-6

    def test_derivative_unstable_on_jagged_table(self):
        w = np.arange(0.0, 12.0 + 1e-9, 0.1)
        vals = w * np.exp(-w) * (1.0 + 0.25 * (-1.0) ** np.arange(w.size))
        vals[0] = vals[-1] = 0.0
        tab = TabulatedSD(w, vals)
        with pytest.raises(DerivativeUnstable):
            tab.gamma_tilde_prime_vec(1.0)


class TestTabulatedValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.1, 1.0, 2.0, 3.0]),
                        np.array([0.0, 1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.2, 1.0, 0.5, 0.0]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.0, 1.0, 1.0, 3.0]),
                        np.array([0.0, 1.0, 0.5, 0.0]))

    def test_nonnegative_values(self):
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.0, 1.0, -0.5, 0.0]))

    def test_tail_must_decay(self):
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.0, 1.0, 0.5, 0.4]))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            TabulatedSD(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            TabulatedSD(np.array([0.0, 1.0, 2.0, 3.0]),
                        np.array([0.0, bad, 0.5, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            TabulatedSD(np.array([0.0, 1.0, bad, 3.0]),
                        np.array([0.0, 1.0, 0.5, 0.0]))

    def test_not_identically_zero(self):
        with pytest.raises(ValueError, match="identically zero"):
            TabulatedSD(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))


class TestRoughnessGap:
    @pytest.mark.parametrize("n", [4, 5])
    def test_short_table_skips_the_check(self, n):
        # the every-other-knot subtable would have fewer than 4 samples
        vals = np.zeros(n)
        vals[1:-1] = 1.0
        tab = TabulatedSD(np.arange(float(n)), vals)
        assert tab._roughness_gap() == 0.0
        assert np.isfinite(tab.gamma_tilde_prime_vec(np.array([0.5])))

    def test_invalid_subtable_reads_as_unstable(self):
        # the samples at 0, 2, 4 and 5 alone are identically zero
        tab = TabulatedSD(np.arange(6.0),
                          np.array([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]))
        assert tab._roughness_gap() == math.inf
        with pytest.raises(DerivativeUnstable, match="ω = 0.5"):
            tab.gamma_tilde_prime_vec(np.array([0.5, 1.0]))


class TestFileLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sd.txt"
        path.write_text(
            "# spectral density table\n"
            "0.0  0.0\n"
            "0.5  0.8   # rising edge\n"
            "1.0  1.0\n"
            "2.0  0.3\n"
            "4.0  0.0\n")
        tab = TabulatedSD.from_file(path)
        assert tab.frequencies.size == 5
        assert tab.j(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 0.0 0.0\n1.0 1.0 1.0\n2.0 0.5 0.5\n3.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            TabulatedSD.from_file(path)
