"""Tests for equilibrium covariances and correlation spectra."""
import gc
import math
import warnings
import weakref
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import psi

from nonmarkov import correlations
from nonmarkov.correlations import (
    CovarianceMatrix,
    _bose_weight,
    _covariance0_cached,
    _matsubara_covariance,
    _matsubara_terms,
    covariance0,
    exact_entries_vec,
    rt_entries_vec,
)
from nonmarkov.errors import (CutoffSensitive, NonConvergence,
                             NumericsError)
from nonmarkov.quadrature import integrate
from nonmarkov.quantifiers import quantify, regression_quantifier
from nonmarkov.response import ModelParams, chi_qq_vec
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD

from matrix_forms import (mp_matsubara_covariance, pole_residues,
                          rt_spectrum_general)

PEAKED = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)
# PEAKED sampled on 201 points of [0, 40]
_W = np.linspace(0.0, 40.0, 201)
PEAKED_TABLE = (_W, 0.5 * _W / ((_W * _W - 4.0) ** 2 + 0.25 * _W * _W))
FREE_QUANTUM_CQQ = 0.6565176427496657  # (ħ/2ω₀)·coth(βħω₀/2) at ħ=1, β=2, ω₀=1


def matsubara_sum(p, a):
    """``_matsubara_covariance`` of the one drift matrix a, or None
    where ``_matsubara_terms`` gives it no sum under _MAX_TERMS."""
    terms = _matsubara_terms(p, a)
    if terms is None:
        return None
    nu, top, zeta = terms
    (cov,) = _matsubara_covariance([p], a[None],
                                   (nu[None], np.array([top]), zeta[None]))
    return cov


class TestCovariance0:
    # covariance0 returns equipartition for ħ = 0 without integrating;
    # the classical tests call the quadrature path, which must agree
    def test_classical_equipartition(self):
        p = ModelParams(omega0=1.0, beta=2.0)
        for sd in (OhmicSD(0.1), OhmicSD(0.5), PEAKED,
                   PeakedSD(0.75, 0.3, 1.0)):
            c = _covariance0_cached(p, sd)
            assert c.c_qq == pytest.approx(0.5, rel=1e-6)
            assert c.c_pp == pytest.approx(0.5, rel=1e-6)
            assert covariance0(p, sd) == CovarianceMatrix(0.5, 0.5)

    def test_classical_scales_with_frequency(self):
        p = ModelParams(omega0=2.0, beta=1.5)
        c = _covariance0_cached(p, OhmicSD(0.3))
        assert c.c_qq == pytest.approx(1.0 / (1.5 * 4.0), rel=1e-6)
        assert c.c_pp == pytest.approx(1.0 / 1.5, rel=1e-6)

    def test_decoupled_quantum_closed_form(self):
        p = ModelParams(omega0=1.0, beta=2.0, hbar=1.0)
        c = covariance0(p, OhmicSD(0.0))
        assert c.c_qq == pytest.approx(FREE_QUANTUM_CQQ, rel=1e-12)
        assert c.c_pp == pytest.approx(FREE_QUANTUM_CQQ, rel=1e-12)

    def test_weak_coupling_approaches_free_limit(self):
        p = ModelParams(omega0=1.0, beta=2.0, hbar=1.0)
        c = covariance0(p, OhmicSD(0.01))
        assert c.c_qq == pytest.approx(FREE_QUANTUM_CQQ, abs=1e-3)

    def test_quantum_ohmic_momentum_is_cutoff_limited(self):
        p = ModelParams(omega0=1.0, beta=2.0, hbar=1.0)
        with pytest.warns(CutoffSensitive):
            covariance0(p, OhmicSD(0.5))

    def test_cutoff_warning_names_the_caller(self):
        # the warning skips every frame of the package, however deep the
        # call that reaches the covariances
        p, sd = ModelParams(omega0=1.0, beta=1.0, hbar=1.0), OhmicSD(1.0)
        for call in (lambda: quantify(p, sd, "n2"),
                     lambda: regression_quantifier(p, sd),
                     lambda: covariance0(p, sd)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call()
            assert [(w.category, w.filename) for w in caught] == [
                (CutoffSensitive, __file__)]

    def test_quantum_peaked_is_cutoff_clean(self):
        p = ModelParams(omega0=1.0, beta=2.0, hbar=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CutoffSensitive)
            c = covariance0(p, PEAKED)
        assert c.c_qq > 0.5  # zero-point motion on top of thermal

    def test_quantum_ground_state_is_the_cold_limit(self):
        cold = covariance0(ModelParams(omega0=1.0, beta=1e4, hbar=1.0), PEAKED)
        ground = covariance0(ModelParams(omega0=1.0, beta=math.inf, hbar=1.0),
                             PEAKED)
        assert ground.c_qq == pytest.approx(cold.c_qq, rel=1e-6)
        assert ground.c_pp == pytest.approx(cold.c_pp, rel=1e-6)

    def test_deterministic(self):
        p = ModelParams(omega0=1.0, beta=2.0)
        a = covariance0(p, OhmicSD(0.3))
        b = covariance0(p, OhmicSD(0.3))
        assert (a.c_qq, a.c_pp) == (b.c_qq, b.c_pp)

    def test_underflowing_response_is_a_typed_failure(self):
        # |χ̃_qq|² underflows everywhere at D = 1e300, so both variances
        # come out 0; that used to end in CovarianceMatrix's ValueError
        p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        with pytest.raises(NumericsError, match="not finite and > 0"):
            _covariance0_cached(p, OhmicSD(1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            with pytest.raises(NumericsError, match="c_pp"):
                quantify(p, OhmicSD(1e300), which="n2")

    @pytest.mark.parametrize("p, sd", [
        (ModelParams(omega0=1.0, beta=2.0, hbar=1.0), OhmicSD(0.5)),
        (ModelParams(omega0=1.0, beta=2.0), OhmicSD(0.5)),
        (ModelParams(omega0=1.0, beta=math.inf, hbar=1.0), PEAKED),
        (ModelParams(omega0=1.0, beta=0.3, hbar=1.0),
         TabulatedSD(*PEAKED_TABLE))])
    def test_one_pass(self, p, sd, monkeypatch):
        passes = []

        def counted(*args, **kwargs):
            passes.append(args[1:3])
            return integrate(*args, **kwargs)
        monkeypatch.setattr(correlations, "integrate", counted)
        correlations._covariance0_cached.__wrapped__(p, sd)
        assert passes == [(0.0, math.inf)]

    @pytest.mark.parametrize("p", [
        ModelParams(omega0=1.0, beta=1.0, hbar=1.0),
        ModelParams(omega0=1.0, beta=math.inf, hbar=1.0)])
    @pytest.mark.parametrize("sd", [PEAKED, TabulatedSD(*PEAKED_TABLE)])
    def test_only_the_strict_ohmic_momentum_reads_the_cutoff(self, p, sd):
        # the quadrature, also where covariance0 takes the Matsubara sum
        got = {_covariance0_cached(replace(p, cutoff=cut), sd)
               for cut in (20.0, 1000.0, 5000.0)}
        assert len(got) == 1 and got.pop().cutoff_drift == 0.0

    def test_a_low_cutoff_warns_only_where_it_is_read(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0, cutoff=5.0)
            covariance0(p, PEAKED)
        with pytest.warns(CutoffSensitive, match="shifts by"):
            report = quantify(p, OhmicSD(1.0), which="n2")
        assert report.diagnostics["n2_qq"].cutoff_drift > 0.01

    def test_a_failing_pass_raises_its_own_error(self, monkeypatch):
        # quantum Ohmic covariances have no Matsubara route, so they take
        # the pass; a β no other test uses keeps the cache out of it
        failure = NonConvergence("the pass did not converge")

        def failing(*args, **kwargs):
            raise failure
        monkeypatch.setattr(correlations, "integrate", failing)
        with pytest.raises(NonConvergence) as exc:
            covariance0(ModelParams(omega0=1.0, beta=1.2345, hbar=1.0),
                        OhmicSD(0.5))
        assert exc.value is failure

    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(0.0, 1.0)
        with pytest.raises(ValueError):
            CovarianceMatrix(1.0, -0.2)


class TestBoseWeight:
    @pytest.mark.parametrize("beta, hbar", [(1.0, 1.0), (2.5, 0.7)])
    def test_matches_extended_precision(self, beta, hbar):
        # small βħω is where a plain 1 − e^{−x} loses digits
        x = np.geomspace(1e-9, 60.0, 400)
        omega = np.concatenate((x, -x)) / (beta * hbar)
        got = _bose_weight(omega, beta, hbar)
        with mp.workdps(40):
            bh = mp.mpf(beta) * mp.mpf(hbar)
            for w, g in zip(omega, got):
                want = 2 * mp.mpf(hbar) * w / -mp.expm1(-bh * w)
                assert abs(g - want) <= 2e-14 * abs(want), w

    def test_zero_frequency_and_classical_branch(self):
        assert _bose_weight(0.0, 2.5, 0.7) == 2.0 / 2.5
        assert np.all(_bose_weight(np.array([-3.0, 0.0, 4.0]), 2.5, 0.0)
                      == 2.0 / 2.5)


def _matsubara(p, kernel, n_terms=200_000):
    """c_qq = (1/β)Σ_n χ̃_qq(i|ν_n|) and
    c_pp = (1/β)Σ_n [1 − ν_n²·χ̃_qq(i|ν_n|)] over ν_n = 2πn/(βħ), n ∈ ℤ,
    with χ̃_qq(iν) = 1/(ω₀² + ν² + ν·γ̃(iν)) and kernel(ν) = γ̃(iν).
    The n = 0 term plus twice the sum over n = 1 … N, whose terms fall
    like c/n², plus the tail c/(N + ½); the c_pp terms are summed as
    (ω₀² + ν·γ̃)·χ̃_qq, which does not cancel."""
    n = np.arange(1, n_terms + 1, dtype=float)
    nu = 2.0 * np.pi * n / (p.beta * p.hbar)
    restoring = p.omega0 ** 2 + nu * kernel(nu)
    chi = 1.0 / (restoring + nu ** 2)
    out = []
    for zero, terms in ((1.0 / p.omega0 ** 2, chi), (1.0, restoring * chi)):
        tail = terms[-1] * n_terms ** 2 / (n_terms + 0.5)
        out.append((zero + 2.0 * (terms.sum() + tail)) / p.beta)
    return out


class TestMatsubaraReference:
    """covariance0 against the Matsubara sums of the imaginary-frequency
    susceptibility (Grabert, Schramm & Ingold, Phys. Rep. 168, 115)."""

    @pytest.mark.parametrize("beta", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("d, gamma, big", [
        (0.75, 0.63, 1.0), (1.0, 0.5, 2.0), (1.2, 0.3, 2.5)])
    def test_peaked(self, d, gamma, big, beta):
        p = ModelParams(omega0=1.0, beta=beta, hbar=1.0)
        c_qq, c_pp = _matsubara(p, lambda nu: (d / big) ** 2 * (gamma + nu)
                                / (big ** 2 + nu ** 2 + gamma * nu))
        c = covariance0(p, PeakedSD(d, gamma, big))
        assert c.c_qq == pytest.approx(c_qq, rel=1e-10)
        assert c.c_pp == pytest.approx(c_pp, rel=1e-10)

    @staticmethod
    def _ohmic_position(d, beta, cutoff=None):
        # γ̃(iν) = D; c_pp diverges with the cutoff, c_qq does not
        p = ModelParams(omega0=1.0, beta=beta, hbar=1.0, cutoff=cutoff)
        c_qq, _ = _matsubara(p, lambda nu: d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            c = covariance0(p, OhmicSD(d))
        assert c.c_qq == pytest.approx(c_qq, rel=1e-9)

    # Hot (β = 0.003), strong (D = 20) and low-cutoff baths are where
    # the rows' slopes near Λ do not show which of them converge: the
    # log-divergent c_pp can look decaying, and c_qq not.
    @pytest.mark.parametrize("beta", [0.003, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("d", [0.05, 0.5, 1.0, 2.5, 20.0])
    def test_ohmic_position(self, d, beta):
        self._ohmic_position(d, beta)

    @pytest.mark.parametrize("beta", [0.003, 0.3, 1.0, 5.0])
    @pytest.mark.parametrize("d", [0.05, 0.5, 1.0, 2.5, 20.0])
    def test_ohmic_position_at_a_low_cutoff(self, d, beta):
        self._ohmic_position(d, beta, cutoff=20.0)


class TestDigammaReference:
    """Covariances of a drift-matrix bath in closed form from the
    residues r_k at the poles λ_k of its drift matrix (``pole_residues``).
    With a = 2π/(βħ) the Matsubara sums become digamma functions,

        c_qq = (1/β)[1/ω₀² − (2/a)·Σ r_k ψ(1 − λ_k/a)],
        c_pp = (1/β)[1 + (2/a)·Σ r_k λ_k² ψ(1 − λ_k/a)],

    since Σ r_k = 0 and Σ r_k λ_k = 1 for every such bath, and
    Σ r_k λ_k² = 0 for the peaked one (the Ohmic bath has −D there, and
    its c_pp diverges); at β = ∞ they become
    c_qq = −(ħ/π)·Σ r_k log(−λ_k) and c_pp = (ħ/π)·Σ r_k λ_k² log(−λ_k)."""

    @staticmethod
    def _closed_form(p, sd):
        lam, r = pole_residues(sd, p.omega0)
        assert abs(r.sum()) < 1e-14 and abs((r * lam).sum() - 1.0) < 1e-14
        if math.isinf(p.beta):
            log = np.log(-lam)
            return (-p.hbar / math.pi * (r * log).sum().real,
                    p.hbar / math.pi * (r * lam ** 2 * log).sum().real)
        a = 2.0 * math.pi / (p.beta * p.hbar)
        digamma = psi(1.0 - lam / a)
        return ((1.0 / p.omega0 ** 2
                 - 2.0 / a * (r * digamma).sum().real) / p.beta,
                (1.0 + 2.0 / a * (r * lam ** 2 * digamma).sum().real)
                / p.beta)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 5.0, math.inf])
    @pytest.mark.parametrize("d, gamma, big", [
        (0.75, 0.63, 1.0), (1.0, 0.5, 2.0), (1.2, 0.3, 2.5)])
    def test_peaked(self, d, gamma, big, beta):
        p = ModelParams(omega0=1.0, beta=beta, hbar=1.0)
        sd = PeakedSD(d, gamma, big)
        lam, r = pole_residues(sd, p.omega0)
        assert abs((r * lam ** 2).sum()) < 1e-14
        c_qq, c_pp = self._closed_form(p, sd)
        c = covariance0(p, sd)
        assert c.c_qq == pytest.approx(c_qq, rel=1e-10)
        assert c.c_pp == pytest.approx(c_pp, rel=1e-10)

    # Cold baths, where the thermal weight turns over at ω ≈ 2/(βħ), far
    # below every feature of the bath.  covariance0 hands the first to
    # the Matsubara sum on (0.75, 0.63, 1), so the quadrature is called
    # directly.
    @pytest.mark.parametrize("beta", [5142.0, 11128.0, 1e5])
    @pytest.mark.parametrize("d, gamma, big", [
        (0.75, 0.63, 1.0), (1.0, 0.5, 2.0), (1.2, 0.3, 2.5)])
    def test_peaked_quadrature_when_cold(self, d, gamma, big, beta):
        p = ModelParams(omega0=1.0, beta=beta, hbar=1.0)
        sd = PeakedSD(d, gamma, big)
        c_qq, c_pp = self._closed_form(p, sd)
        c = _covariance0_cached(p, sd)
        assert c.c_qq == pytest.approx(c_qq, rel=1e-10)
        assert c.c_pp == pytest.approx(c_pp, rel=1e-10)

    # D = 2 is critical damping, where the drift matrix is defective
    @pytest.mark.parametrize("beta", [5.0, 5e3, 5e4, 5e5])
    @pytest.mark.parametrize("d", [0.05, 0.7, 2.5])
    def test_ohmic_position(self, d, beta):
        p = ModelParams(omega0=1.0, beta=beta, hbar=1.0)
        c_qq, _ = self._closed_form(p, OhmicSD(d))
        assert _covariance0_cached(p, OhmicSD(d)).c_qq == pytest.approx(
            c_qq, rel=1e-10)


class TestMatsubaraRoute:
    """covariance0 of a quantum bath whose drift matrix has A_pp = 0 (the
    peaked bath) is the Matsubara sum of ``_matsubara_covariance``."""

    @pytest.mark.parametrize("beta, hbar", [
        (0.3, 1.0), (1.0, 1.0), (5.0, 1.0), (50.0, 1.0), (1.0, 0.05)])
    @pytest.mark.parametrize("d, gamma, big", [
        (0.75, 0.63, 1.0), (1.0, 0.5, 2.0), (0.9, 1.0, 0.0625),
        (1e-3, 0.63, 1.0), (0.3, 0.01, 1.5), (2.0, 3.0, 0.5)])
    def test_matches_50_digit_sum(self, d, gamma, big, beta, hbar):
        # (0.9, 1.0, 0.0625) has ‖A‖₁ = 209, and (2, 3, 0.5) is overdamped
        p = ModelParams(omega0=1.0, beta=beta, hbar=hbar)
        sd = PeakedSD(d, gamma, big)
        c_qq, c_pp = mp_matsubara_covariance(p, sd)
        c = covariance0(p, sd)
        assert c.c_qq == pytest.approx(c_qq, rel=1e-13)
        assert c.c_pp == pytest.approx(c_pp, rel=1e-13)
        assert c.cutoff_drift == 0.0

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.floats(0.05, 2.0), st.floats(0.1, 3.0), st.floats(0.5, 3.0),
           st.floats(0.5, 2.0), st.floats(0.2, 20.0), st.floats(0.05, 2.0))
    def test_matches_the_quadrature(self, d, gamma, big, omega0, beta, hbar):
        p = ModelParams(omega0=omega0, beta=beta, hbar=hbar)
        sd = PeakedSD(d, gamma, big)
        got = matsubara_sum(p, sd.drift_matrix(omega0))
        want = _covariance0_cached(p, sd)
        assert got.c_qq == pytest.approx(want.c_qq, rel=1e-9)
        assert got.c_pp == pytest.approx(want.c_pp, rel=1e-9)

    def test_term_cap_hands_over_to_the_quadrature(self, monkeypatch):
        # the overdamped (2, 3, 0.5) has ‖A‖₁ = 19, so the sum needs
        # ⌈4‖A‖₁βħ/2π⌉ − 1 terms: 8188 at β = 677 and 8200 at β = 678,
        # on either side of the cap of 2^13
        sd = PeakedSD(2.0, 3.0, 0.5)
        a = sd.drift_matrix(1.0)
        below = ModelParams(omega0=1.0, beta=677.0, hbar=1.0)
        above = ModelParams(omega0=1.0, beta=678.0, hbar=1.0)
        for p in (below, above):
            quad = _covariance0_cached(p, sd)
            if p is above:
                assert matsubara_sum(p, a) is None
                assert covariance0(p, sd) == quad
                monkeypatch.setattr(correlations, "_MAX_TERMS", 2 ** 14)
            c = matsubara_sum(p, a)
            assert c.c_qq == pytest.approx(quad.c_qq, rel=1e-9)
            assert c.c_pp == pytest.approx(quad.c_pp, rel=1e-9)

    def test_fields_are_plain_floats(self):
        c = covariance0(ModelParams(omega0=1.0, beta=1.0, hbar=1.0), PEAKED)
        assert type(c.c_qq) is float and type(c.c_pp) is float
        assert type(c.cutoff_drift) is float

    def test_other_quantum_covariances_keep_the_quadrature(self):
        # the Ohmic bath (A_pp = −D) and β = ∞ have no Matsubara route
        for p, sd in ((ModelParams(omega0=1.0, beta=2.0, hbar=1.0),
                       OhmicSD(0.5)),
                      (ModelParams(omega0=1.0, beta=math.inf, hbar=1.0),
                       PEAKED)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffSensitive)
                assert covariance0(p, sd) == _covariance0_cached(p, sd)


class TestExactSpectrum:
    def test_classical_point_value(self):
        p = ModelParams(omega0=1.0, beta=1.0)
        m = exact_entries_vec(p, OhmicSD(1.0), 1.0)
        assert m[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_matrix_structure(self):
        p = ModelParams(omega0=1.0, beta=1.3, hbar=0.8)
        for w in (-2.1, 0.4, 1.0, 3.3):
            m = exact_entries_vec(p, PEAKED, w)
            assert abs(m[0, 1] - 1j * w * m[0, 0]) < 1e-12
            assert abs(m[1, 0] + 1j * w * m[0, 0]) < 1e-12
            assert abs(m[1, 1] - w ** 2 * m[0, 0]) < 1e-12

    def test_detailed_balance(self):
        p = ModelParams(omega0=1.0, beta=1.3, hbar=0.8)
        for w in (0.7, 2.2, 1e-5):
            plus = exact_entries_vec(p, PEAKED, w)[0, 0]
            minus = exact_entries_vec(p, PEAKED, -w)[0, 0]
            assert abs(minus - math.exp(-p.beta * p.hbar * w) * plus) < 1e-12

    def test_classical_limit_pointwise(self):
        beta = 1.0
        quantum = ModelParams(omega0=1.0, beta=beta, hbar=1e-9)
        classical = ModelParams(omega0=1.0, beta=beta)
        sd = OhmicSD(0.7)
        for w in (0.5, 1.0, 2.0):
            assert beta * quantum.hbar * w < 1e-6
            a = exact_entries_vec(quantum, sd, w)[0, 0].real
            b = exact_entries_vec(classical, sd, w)[0, 0].real
            assert a == pytest.approx(b, rel=1e-8)

    def test_bose_series_joins_smoothly(self):
        # series branch must agree with an expm1-based direct evaluation
        p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        sd = OhmicSD(0.5)
        for w in (0.2e-4, 0.99e-4, 1.01e-4):
            got = exact_entries_vec(p, sd, w)[0, 0].real
            bose = 2.0 * p.hbar * w / (-math.expm1(-p.beta * p.hbar * w))
            g = sd.gamma_tilde_vec(w)
            want = bose * g.real * abs(chi_qq_vec(p, sd, w)) ** 2
            assert got == pytest.approx(want, rel=1e-10)


class TestRTSpectrum:
    def test_general_form_equals_explicit_entries(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = ModelParams(omega0=rng.uniform(0.5, 2.0),
                            beta=rng.uniform(0.5, 3.0),
                            hbar=float(rng.choice([0.0, 1.0])))
            sd = OhmicSD(rng.uniform(0.05, 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CutoffSensitive)
                c0 = covariance0(p, sd)
            w = rng.uniform(-5.0, 5.0)
            e = rt_entries_vec(p, sd, w, c0)
            g = rt_spectrum_general(p, sd, w, c0)
            assert np.abs(e - g).max() < 1e-12

    def test_conjugate_pair_symmetry(self):
        p = ModelParams(omega0=1.0, beta=2.0)
        c0 = covariance0(p, PEAKED)
        for w in (0.3, 1.7, 4.0):
            m = rt_entries_vec(p, PEAKED, w, c0)
            assert m[0, 1] == pytest.approx(np.conj(m[1, 0]), abs=1e-15)

    def test_diagonal_vanishes_at_zero_frequency(self):
        p = ModelParams(omega0=1.0, beta=2.0)
        c0 = covariance0(p, OhmicSD(0.4))
        m = rt_entries_vec(p, OhmicSD(0.4), 0.0, c0)
        assert m[0, 0] == 0.0 and m[1, 1] == 0.0

    def test_entries_vec_matches_scalar(self):
        p = ModelParams(omega0=1.0, beta=2.0)
        c0 = covariance0(p, PEAKED)
        ws = np.array([0.5, 1.5, 3.0])
        e = rt_entries_vec(p, PEAKED, ws, c0)
        for i, w in enumerate(ws):
            m = rt_entries_vec(p, PEAKED, float(w), c0)
            assert e[0, 1, i] == pytest.approx(m[0, 1], abs=1e-15)


class TestCovarianceCache:
    def test_cache_does_not_keep_every_table_alive(self):
        # n2 caches the covariance of each table it sees; the cache must
        # not hold on to every table and its γ̃ memo
        p = ModelParams(omega0=1.0, beta=1.0, hbar=0.0)
        w = np.linspace(0.0, 48.0, 41)
        refs = []
        for i in range(20):
            sd = TabulatedSD(w, (0.4 + 0.01 * i) * w * np.exp(-w / 4.0))
            quantify(p, sd, which="n2")
            refs.append(weakref.ref(sd))
            del sd
        gc.collect()
        alive = sum(r() is not None for r in refs)
        assert alive <= _covariance0_cached.cache_info().maxsize <= 4
