"""Tests for the normalized distance and the two quantifier matrices."""
import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nonmarkov import quadrature, quantifiers
from nonmarkov.correlations import (
    CovarianceMatrix,
    _covariance0_cached,
    covariance0,
    exact_entries_vec,
    rt_entries_vec,
)
from nonmarkov.errors import (CutoffSensitive, DivisionNearZero,
                             NonConvergence, NonFinite, NumericsError,
                             ZeroNorm)
from nonmarkov.quadrature import inner_product_info
from nonmarkov.quantifiers import (
    _n1_sides,
    _n2_sides,
    _pass_quantifiers,
    _quantifier_matrix,
    distance,
    divisibility_quantifier,
    quantify,
    regression_quantifier,
)
from nonmarkov.response import (
    CHI_PLUS_INV,
    ModelParams,
    chi_matrix,
    chi_prime_matrix,
    chi_qq_prime_vec,
    chi_qq_vec,
    feature_frequencies,
)
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD

from matrix_forms import (mp_lyapunov_quantifiers, mp_matsubara_covariance,
                          mp_quantum_n2, unfolded_line)

P1 = ModelParams(omega0=1.0, beta=1.0)

GAUSS = lambda x: np.exp(-0.5 * x * x) + 0j
ODD_GAUSS = lambda x: x * np.exp(-0.5 * x * x) + 0j


def ohmic_n1(x):
    """n1 (qq, qp, pp) of the strict Ohmic bath at x = D/ω₀ in closed
    form: the whole-line integrals of its n1 integrands are rational in
    x (by residues; exact sympy integrals agree at D/ω₀ = 1/10, 1/2, 1,
    2, 7/3, 3 and 5), and

        n1_qq² = x²(1 + x²)/(x²(1 + x²) + 4),
        n1_qp² = x²/(2(x² + 2)),
        n1_pp² = x²/(x² + (x² + 2)²).

    qq and qp rise toward 1 and 1/√2; pp peaks at 1/3 at x = √2 and
    falls like 1/x."""
    x2 = x * x
    return (math.sqrt(x2 * (1.0 + x2) / (x2 * (1.0 + x2) + 4.0)),
            math.sqrt(x2 / (2.0 * (x2 + 2.0))),
            math.sqrt(x2 / (x2 + (x2 + 2.0) ** 2)))


def raised(result):
    """result, or the NumericsError that it is raised (the pass returns
    its error in place of the matrix)."""
    if isinstance(result, NumericsError):
        raise result
    return result


# ω₀ = β = 1.  The surds of the D = 1 and D = 2 tests are ohmic_n1 there.
N1_OHMIC_WEAK = ohmic_n1(0.01)[0]             # D = 0.01, qq entry


class TestDistance:
    def test_identical_functions(self):
        assert distance(GAUSS, GAUSS) == 0.0

    def test_global_scaling_is_invisible(self):
        lam = 3.0 - 2.0j
        assert distance(GAUSS, lambda x: lam * np.exp(-0.5 * x * x)) < 1e-7

    def test_parity_orthogonal_pair(self):
        assert distance(GAUSS, ODD_GAUSS) == 1.0

    def test_scale_invariance_of_generic_pair(self):
        lam = 0.0037 - 1.2j
        def g(x):
            return np.exp(-((x - 0.3) ** 2))

        assert abs(distance(GAUSS, g)
                   - distance(lambda x: lam * GAUSS(x),
                              lambda x: lam * g(x))) < 1e-10

    @pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
    def test_cancelling_pair_is_scale_free(self, scale):
        # ⟨f,g⟩ of an even and an odd function cancels to rounding, whose
        # size grows with the scale; the pass must not ask for less
        def f(x):
            return scale * np.exp(-x * x)

        def g(x):
            return scale * x * np.exp(-np.abs(x))

        assert distance(f, g) == 1.0

    @pytest.mark.parametrize("scale", [1e-4, 1e-6, 1e-9])
    def test_small_pair_is_scale_free(self, scale):
        # squared norms near or below 1e-12: an absolute acceptance
        # test would stop refining and move the distance by up to 1e-6
        def pair(s):
            return distance(lambda x: s * np.exp(-x * x),
                            lambda x: s * (1.0 + x) * np.exp(-np.abs(x)))

        unit = pair(1.0)
        assert abs(pair(scale) - unit) <= 1e-14 * unit

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNorm):
            distance(GAUSS, np.zeros_like)

    @settings(max_examples=40, deadline=None, database=None)
    @given(*[st.floats(-10.0, 100.0), st.floats(0.0, 2.0 * math.pi)] * 2)
    @example(100.0, 0.0, 100.0, 1.0)
    def test_complex_rescaling_is_invisible(self, log_s, arg_s, log_t, arg_t):
        # |s|, |t| ∈ [1e-10, 1e100]: the ratio is divided through, so
        # ⟨s·f, t·g⟩ up to 1e200 is never squared past the largest float
        s = 10.0 ** log_s * cmath.exp(1j * arg_s)
        t = 10.0 ** log_t * cmath.exp(1j * arg_t)

        def g(x):
            return np.exp(-((x - 0.3) ** 2))

        assert abs(distance(lambda x: s * GAUSS(x), lambda x: t * g(x))
                   - distance(GAUSS, g)) <= 1e-12


class TestDivisibilityQuantifier:
    def test_zero_coupling_is_zero_matrix(self):
        m, diag = divisibility_quantifier(P1, OhmicSD(0.0))
        assert not m.any()
        assert diag["n1_qq"].panels == 0

    def test_weak_coupling_value(self):
        m, _ = divisibility_quantifier(P1, OhmicSD(0.01))
        assert m[0, 0] == pytest.approx(N1_OHMIC_WEAK, rel=1e-6)
        assert m[0, 0] < 0.05

    def test_strictly_increasing_in_coupling(self):
        vals = [divisibility_quantifier(P1, OhmicSD(d))[0][0, 0]
                for d in (0.01, 0.1, 1.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unit_coupling_surds(self):
        # truncating the line at ±200 moves qp and pp by 1.8e-9, 2.5e-9
        m, _ = divisibility_quantifier(P1, OhmicSD(1.0))
        assert m[0, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert m[0, 1] == pytest.approx(1.0 / math.sqrt(6.0), abs=1e-12)
        assert m[1, 1] == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-12)

    def test_critical_coupling_surds(self):
        # D = 2ω₀; truncating the line at ±200 moves qp by 1.0e-8
        m, _ = divisibility_quantifier(P1, OhmicSD(2.0))
        assert m[0, 0] == pytest.approx(math.sqrt(5.0 / 6.0), abs=1e-12)
        assert m[0, 1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert m[1, 1] == pytest.approx(1.0 / math.sqrt(10.0), abs=1e-12)

    # quantify takes the closed form; the quadrature pass must meet it
    # too.  Below D/ω₀ ≈ 1e-2 the pass drifts from it (9e-8 at 1e-4):
    # the divisibility residual cancels in the n1 integrands
    @pytest.mark.parametrize("omega0", [1.0, 2.5])
    @pytest.mark.parametrize("x", np.geomspace(0.1, 50.0, 16).tolist())
    def test_ohmic_closed_form(self, x, omega0):
        p = ModelParams(omega0=omega0, beta=1.0)
        sd = OhmicSD(x * omega0)
        for m in (divisibility_quantifier(p, sd)[0],
                  _quantifier_matrix(p, sd, "n1", _n1_sides(p, sd))[0]):
            assert [m[0, 0], m[0, 1], m[1, 1]] == pytest.approx(ohmic_n1(x),
                                                                rel=1e-11)

    def test_ohmic_pp_is_not_monotonic(self):
        # n1_pp peaks at exactly 1/3 at D = √2·ω₀, inside D = 1.2 … 1.7
        pp = [divisibility_quantifier(P1, OhmicSD(d))[0][1, 1]
              for d in (1.2, math.sqrt(2.0), 1.7)]
        assert pp[1] == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert pp[0] < pp[1] > pp[2]

    def test_off_diagonal_symmetry(self):
        m, diag = divisibility_quantifier(P1, PeakedSD(0.75, 0.4, 1.0))
        assert m[0, 1] == m[1, 0]
        assert diag["n1_qp"] == diag["n1_pq"]

    def test_entries_bounded(self):
        m, _ = divisibility_quantifier(P1, OhmicSD(10.0))
        assert ((m >= 0.0) & (m <= 1.0)).all()

    def test_deterministic(self):
        a, _ = divisibility_quantifier(P1, PeakedSD(0.75, 0.4, 1.0))
        b, _ = divisibility_quantifier(P1, PeakedSD(0.75, 0.4, 1.0))
        assert np.array_equal(a, b)

    def test_matches_closed_form_residual_route(self):
        # strict Ohmic: deriv side minus quadratic side is D·χ̃², entrywise
        # weighted by (1, iω, ω²); rebuild the second argument from that
        sd = OhmicSD(0.7)
        bps = feature_frequencies(P1, sd)
        m, _ = divisibility_quantifier(P1, sd)
        ref = {"qq": m[0, 0], "qp": m[0, 1], "pp": m[1, 1]}

        def deriv_side(w, key):
            c = chi_qq_vec(P1, sd, w)
            cp = chi_qq_prime_vec(P1, sd, w)
            return {"qq": -1j * cp, "qp": c + w * cp,
                    "pp": -1j * (2.0 * w * c + w * w * cp)}[key]

        for key in ("qq", "qp", "pp"):
            def closed(w, key=key):
                c = chi_qq_vec(P1, sd, w)
                weight = {"qq": 1.0, "qp": 1j * w, "pp": w * w}[key]
                return deriv_side(w, key) - sd.damping * weight * c * c

            d = distance(lambda w, k=key: deriv_side(w, k), closed,
                         breakpoints=bps)
            assert d == pytest.approx(ref[key], abs=1e-8)

    def test_peaked_width_sweep_has_interior_maximum(self):
        vals = [divisibility_quantifier(
            P1, PeakedSD(0.75, g, 1.0))[0][0, 0] for g in (0.02, 0.63, 5.0)]
        assert vals[1] > vals[0] and vals[1] > vals[2]

    # the abstract's "no monotonic relation" for the peaked bath, in the
    # coupling and in the resonance: classical n1_qq peaks inside each
    # bracket (0.341, 0.392, 0.358 and 0.358, 0.639, 0.335)
    @pytest.mark.parametrize("baths", [
        [PeakedSD(d, 0.63, 1.0) for d in (0.45, 0.585, 0.75)],
        [PeakedSD(0.75, 0.63, big) for big in (1.0, 1.181, 1.4)],
    ], ids=["coupling", "resonance"])
    def test_peaked_bath_has_interior_maximum(self, baths):
        p = ModelParams(omega0=1.0, beta=1.0, hbar=0.0)
        vals = [divisibility_quantifier(p, sd)[0][0, 0] for sd in baths]
        assert vals[1] > vals[0] and vals[1] > vals[2]


def _mp_classical_ohmic_n2(d, beta):
    """Classical n2 qq and qp of the strict Ohmic bath at ω₀ = 1, from
    30-digit mpmath quadrature over the whole real line.  The exact
    spectrum is the fluctuation-dissipation S_qq = (2/(βω))·Im χ̃_qq,
    with S_qp = iω·S_qq; the regression prediction is
    (χ̃ χ₊⁻¹ C − C χ₊⁻¹ χ̃†) with C = diag(1, 1)/β, multiplied out."""
    with mp.workdps(30):
        damping, b = mp.mpf(d), mp.mpf(beta)
        pts = [-mp.inf, -1, 0, 1, mp.inf]

        def pair(w, entry):
            c = 1 / (1 - w ** 2 - 1j * damping * w)
            s_qq = 2 * mp.im(c) / (b * w) if w else 2 * damping / b
            if entry == "qq":
                return s_qq, 2 * w * mp.im(c) / b
            return 1j * w * s_qq, (c - 1 - w ** 2 * mp.conj(c)) / b

        out = []
        for entry in ("qq", "qp"):
            fg = mp.quad(lambda w: pair(w, entry)[0]
                         * mp.conj(pair(w, entry)[1]), pts)
            ff = mp.quad(lambda w: abs(pair(w, entry)[0]) ** 2, pts)
            gg = mp.quad(lambda w: abs(pair(w, entry)[1]) ** 2, pts)
            out.append(float(mp.sqrt(1 - abs(fg) ** 2 / (ff * gg))))
        return out


class TestRegressionQuantifier:
    def test_classical_values(self):
        # the whole-line values are 1/√5 and 1/3; truncating the line
        # at ±200 gives 0.33310 for qp
        # quantify's closed form and the quadrature pass alike
        qq, qp = _mp_classical_ohmic_n2(0.5, 1.0)
        assert qq == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-14)
        assert qp == pytest.approx(1.0 / 3.0, abs=1e-14)
        for m in (regression_quantifier(P1, OhmicSD(0.5))[0],
                  _pass_quantifiers(P1, OhmicSD(0.5))[1]):
            assert m[0, 0] == pytest.approx(qq, abs=1e-10)
            assert m[0, 1] == pytest.approx(qp, abs=1e-10)
            assert m[0, 1] > 0.05
            assert m[1, 1] < 1e-6  # regression holds exactly for pp

    def test_weak_coupling_small(self):
        m, _ = regression_quantifier(P1, OhmicSD(1e-3))
        assert (m < 0.05).all()

    def test_quantum_propagates_cutoff_warning(self):
        pq = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        with pytest.warns(CutoffSensitive):
            m, _ = regression_quantifier(pq, OhmicSD(0.5))
        assert ((m >= 0.0) & (m <= 1.0)).all()
        assert m[0, 0] > 0.05

    def test_zero_coupling_is_zero_matrix(self):
        m, _ = regression_quantifier(P1, OhmicSD(0.0))
        assert not m.any()

    def test_entries_carry_the_covariance_cutoff_drift(self):
        pq = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        sd = OhmicSD(0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            rep = quantify(pq, sd, which="both")
            drift = covariance0(pq, sd).cutoff_drift
        assert drift > 0.01
        for key in ("qq", "qp", "pq", "pp"):
            assert rep.diagnostics[f"n2_{key}"].cutoff_drift == drift
            assert rep.diagnostics[f"n1_{key}"].cutoff_drift == 0.0


class TestQuantify:
    def test_unresolvable_resonance_is_named(self):
        # Re γ̃(ω₀) ≈ 5e-14: χ̃'s resonance at ω₀ = 1 is narrower than the
        # 1e-14 relative split limit of the adaptive engine.  covariance0
        # takes the Matsubara sum, which needs no quadrature; the
        # quadrature of the covariances still fails there
        # quadrature too.  quantify's closed form is guarded before it:
        # χ̃_qq's rounding there, eps/(2q), is far above rel_tol
        p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        sd = PeakedSD(1e-6, 0.5, 2.0)
        for run in (lambda: raised(_quantifier_matrix(p, sd, "n1",
                                                      _n1_sides(p, sd))),
                    lambda: _covariance0_cached(p, sd)):
            with pytest.raises(NonConvergence,
                               match="reached the 1e-14 relative split "
                                     "limit") as exc:
                run()
            assert abs(exc.value.where - 1.0) < 1e-9
        with pytest.raises(NonConvergence, match="^n1_qq: the mode of the "
                                                 "drift matrix") as exc:
            quantify(p, sd, which="n1")
        assert abs(exc.value.where - 1.0) < 1e-9
        c = covariance0(p, sd)
        c_qq, c_pp = mp_matsubara_covariance(p, sd)
        assert c.c_qq == pytest.approx(c_qq, rel=1e-13)
        assert c.c_pp == pytest.approx(c_pp, rel=1e-13)
        # the bath barely moves the free oscillator's (½)coth(½)
        free = 0.5 / math.tanh(0.5)
        assert c.c_qq == pytest.approx(free, rel=1e-9)
        assert c.c_pp == pytest.approx(free, rel=1e-9)

    def test_selection_validated(self):
        with pytest.raises(ValueError):
            quantify(P1, OhmicSD(0.5), which="n3")

    def test_single_quantifier_leaves_other_unset(self):
        rep = quantify(P1, OhmicSD(0.5), which="n1")
        assert rep.n2 is None and rep.n1 is not None
        assert set(rep.diagnostics) == {"n1_qq", "n1_qp", "n1_pq", "n1_pp"}

    def test_both_quantifiers_report(self):
        rep = quantify(P1, OhmicSD(0.5), which="both")
        assert rep.n1.shape == (2, 2) and rep.n2.shape == (2, 2)
        assert len(rep.diagnostics) == 8


class TestOnePass:
    """Each quantifier that has no closed form is one whole-line pass
    over all of its entries; one that has a closed form makes none."""

    @staticmethod
    def _count_passes(monkeypatch):
        passes = []
        inner = quantifiers.inner_product_info
        monkeypatch.setattr(quantifiers, "inner_product_info",
                            lambda *a, **k: passes.append(1) or inner(*a, **k))
        adaptive = quadrature._adaptive
        monkeypatch.setattr(quadrature, "_adaptive",
                            lambda *a: passes.append(2) or adaptive(*a))
        return passes

    @pytest.mark.parametrize("sd", [OhmicSD(1.0), PeakedSD(0.75, 0.63, 1.0)])
    def test_one_inner_product_pass_per_quantifier(self, sd, monkeypatch):
        # n1, and classical n2, of a bath with a drift matrix are closed
        # forms, and its quantum n2 is Matsubara sums; a peaked bath's
        # quantum covariances are sums too, while the strict Ohmic ones
        # take their own pass, cached here before the count starts
        passes = self._count_passes(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            if isinstance(sd, OhmicSD):
                covariance0(ModelParams(1.0, 1.0, 1.0), sd)
                passes.clear()
            for p, which in ((ModelParams(1.0, 1.0, 1.0), "n1"),
                             (ModelParams(1.0, 1.0, 0.0), "n2"),
                             (ModelParams(1.0, 1.0, 1.0), "n2")):
                rep = quantify(p, sd, which=which)
                assert passes == []
                assert {d.panels for d in rep.diagnostics.values()} == {0}

        passes.clear()
        distance(GAUSS, GAUSS)
        assert passes == [1, 2]

    @pytest.mark.parametrize("which", ["n1", "n2"])
    @pytest.mark.parametrize("hbar", [0.0, 1.0])
    def test_a_table_takes_one_pass(self, which, hbar, monkeypatch):
        passes = self._count_passes(monkeypatch)
        p = ModelParams(1.0, 1.0, hbar)
        sd = smooth_table(2, 1.5, 0.4, 301)
        if which == "n2":
            covariance0(p, sd)      # its own pass, cached for quantify
        passes.clear()
        rep = quantify(p, sd, which=which)
        assert passes == [1, 2]
        panels = {d.panels for d in rep.diagnostics.values()}
        assert len(panels) == 1 and panels.pop() > 0


class TestStrongCoupling:
    """Every entry is a whole-line distance in [0, 1], at any coupling;
    truncating the line at ±200 leaves Ohmic D ≳ 20 too large a tail
    for any n2."""

    @staticmethod
    def _entries(p, sd):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            rep = quantify(p, sd, which="both")
        return np.concatenate((rep.n1.ravel(), rep.n2.ravel()))

    @pytest.mark.parametrize("d", [20.0, 50.0, 1000.0])
    def test_ohmic_strong_coupling(self, d):
        for beta in (0.3, 5.0):
            for hbar in (0.0, 1.0):
                vals = self._entries(ModelParams(1.0, beta, hbar), OhmicSD(d))
                assert np.all(np.isfinite(vals))
                assert np.all((vals >= 0.0) & (vals <= 1.0))

    @staticmethod
    def _rounding_limited(sd):
        """Whether χ̃_qq's own rounding near the sharpest resonance,
        eps/(2q) with q = |Re λ|/|λ| over the drift matrix's eigenvalues
        λ, exceeds the rel_tol that the pass asks of it."""
        lam = np.linalg.eigvals(sd.drift_matrix(1.0))
        q = np.min(np.abs(lam.real) / np.abs(lam))
        return np.finfo(float).eps / (2.0 * q) > quadrature._REL_TOL

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.one_of(
        st.builds(OhmicSD, st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
        st.builds(PeakedSD, coupling=st.floats(0.05, 3.0),
                  width=st.floats(0.02, 3.0), resonance=st.floats(0.1, 4.0))),
        st.floats(0.3, 5.0), st.sampled_from([0.0, 1.0]))
    def test_every_entry_is_a_distance(self, sd, beta, hbar):
        try:
            vals = self._entries(ModelParams(1.0, beta, hbar), sd)
        except NonConvergence:
            # the known limit that test_rounding_limited_resonance pins
            if not self._rounding_limited(sd):
                raise
            return
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @pytest.mark.xfail(raises=NonConvergence, strict=True,
                       reason="χ̃_qq's rounding near a resonance of "
                              "q = 3.7e-9 is 30 times rel_tol")
    def test_rounding_limited_resonance(self):
        # a strong, narrow, slow bath moves the oscillator to ω ≈ 30.017
        # with |Re λ|/|λ| = 3.7e-9; there ω₀² − ω² + ω·Im γ̃ cancels 900
        # against 900, so χ̃_qq carries rounding of eps/(2q) ≈ 3e-8 and
        # no panel count meets rel_tol (truncating at ±200 does no better)
        sd = PeakedSD(3.0, 0.02, 0.1)
        assert self._rounding_limited(sd)
        self._entries(ModelParams(1.0, 1.0, 0.0), sd)


def _mp_n1(p, sd):
    """n1 qq, qp, pp from 30-digit mpmath quadrature of the integrals
    ⟨f,g⟩, ‖f‖², ‖g‖² over the whole real line, split at
    ±feature_frequencies and 0, with f = −i dχ̃/dω and g = χ̃ χ₊⁻¹ χ̃
    written out in mpmath."""
    with mp.workdps(30):
        w0 = mp.mpf(p.omega0)
        if isinstance(sd, OhmicSD):
            def gam(w):
                return mp.mpf(sd.damping)
        else:
            d2 = mp.mpf(sd.coupling) ** 2
            g, big = mp.mpf(sd.width), mp.mpf(sd.resonance)

            def gam(w):
                den = (w ** 2 - big ** 2) ** 2 + g ** 2 * w ** 2
                return d2 * (g + 1j * w * (g ** 2 + w ** 2 - big ** 2) / big ** 2) / den

        entries = ((0, 0), (0, 1), (1, 1))
        memo = {}

        def sides(w):
            if w not in memo:
                c = 1 / (w0 ** 2 - w ** 2 - 1j * w * gam(w))
                x = [[c, 1j * w * c], [-1j * w * c, 1 + w ** 2 * c]]
                cp = c ** 2 * (2 * w + 1j * gam(w) + 1j * w * mp.diff(gam, w))
                xp = [[cp, 1j * c + 1j * w * cp],
                      [-1j * c - 1j * w * cp, 2 * w * c + w ** 2 * cp]]
                memo[w] = ([-1j * xp[i][j] for i, j in entries],
                           [x[i][0] * x[1][j] - x[i][1] * x[0][j]
                            for i, j in entries])
            return memo[w]

        bps = [mp.mpf(b) for b in feature_frequencies(p, sd)]
        pts = [-mp.inf] + [-b for b in reversed(bps)] + [0] + bps + [mp.inf]
        out = []
        for e in range(3):
            fg = mp.quad(lambda w: sides(w)[0][e] * mp.conj(sides(w)[1][e]), pts)
            ff = mp.quad(lambda w: abs(sides(w)[0][e]) ** 2, pts)
            gg = mp.quad(lambda w: abs(sides(w)[1][e]) ** 2, pts)
            out.append(float(mp.sqrt(1 - abs(fg) ** 2 / (ff * gg))))
        return out


class TestIndependentReference:
    @pytest.mark.parametrize("sd", [OhmicSD(1.0), PeakedSD(0.75, 0.63, 1.0)])
    def test_n1_matches_mpmath_quadrature(self, sd):
        # the closed form of quantify and the quadrature pass alike
        p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        ref = _mp_n1(p, sd)
        for m in (quantify(p, sd, which="n1").n1,
                  _quantifier_matrix(p, sd, "n1", _n1_sides(p, sd))[0]):
            assert [m[0, 0], m[0, 1], m[1, 1]] == pytest.approx(ref,
                                                                abs=1e-9)

    @pytest.mark.parametrize("d", [0.1, 5.0])
    def test_ohmic_closed_form_matches_mpmath_quadrature(self, d):
        ref = _mp_n1(ModelParams(omega0=1.0, beta=1.0), OhmicSD(d))
        assert ohmic_n1(d) == pytest.approx(ref, rel=1e-14)


ENTRIES = (0, 0, 1), (0, 1, 1)


def _entries_within(got, want, rel):
    np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


class TestClosedForm:
    """n1 and classical n2 of a bath with a drift matrix, in closed form:
    against a 50-digit Lyapunov solve, exact whole-line integrals and
    the quadrature pass, which still serves tables."""

    @pytest.mark.parametrize("sd", [
        *(OhmicSD(x) for x in (1e-8, 1e-4, 1e-2, 1.0, 2.0, 50.0, 1e3, 1e4)),
        PeakedSD(0.75, 0.63, 1.0), PeakedSD(1.0, 0.5, 2.0),
        PeakedSD(1e-3, 0.63, 1.0), PeakedSD(0.3, 0.01, 1.5),
        PeakedSD(3.0, 3.0, 4.0)], ids=repr)
    def test_matches_50_digit_lyapunov_reference(self, sd):
        n1, n2 = mp_lyapunov_quantifiers(sd)
        rep = quantify(P1, sd)
        _entries_within(rep.n1[ENTRIES], n1, 1e-10)
        _entries_within(rep.n2[ENTRIES], n2, 1e-10)
        assert {d.panels for d in rep.diagnostics.values()} == {0}

    @pytest.mark.parametrize("d", [0.1, 5.0])
    def test_ohmic_classical_n2_matches_mpmath_quadrature(self, d):
        # n2_qq² = x²/(1 + x²), n2_qp² = x²/(2 + x²) and n2_pp = 0
        m, _ = regression_quantifier(P1, OhmicSD(d))
        _entries_within(m[ENTRIES][:2], _mp_classical_ohmic_n2(d, 1.0),
                        1e-14)
        assert m[1, 1] == 0.0

    def test_huge_ohmic_coupling_has_its_true_entries(self):
        # every entry of D = 1e300 is finite: no power of D is formed
        rep = quantify(P1, OhmicSD(1e300))
        _entries_within(rep.n1[ENTRIES], [1.0, math.sqrt(0.5), 1e-300], 1e-14)
        _entries_within(rep.n2[ENTRIES], [1.0, 1.0, 0.0], 1e-14)

    @staticmethod
    def _rounding(sd, omega0=1.0):
        """eps/(2q), q = |Re λ|/|λ| smallest over the drift matrix, and
        |Im λ| of that mode."""
        lam = np.linalg.eigvals(sd.drift_matrix(omega0))
        q = np.abs(lam.real) / np.abs(lam)
        k = np.argmin(q)
        return np.finfo(float).eps / (2.0 * q[k]), abs(lam[k].imag)

    @pytest.mark.parametrize("sd, bound", [(PeakedSD(1e-6, 0.5, 2.0), 4.1e-3),
                                           (PeakedSD(3.0, 0.02, 0.1), 3.0e-8)])
    @pytest.mark.parametrize("which", ["n1", "n2"])
    def test_guard_names_the_entry_and_the_mode(self, sd, bound, which):
        rounding, where = self._rounding(sd)
        assert rounding == pytest.approx(bound, rel=0.02)
        with pytest.raises(NonConvergence,
                           match=f"^{which}_qq: the mode of the drift "
                                 f"matrix at ω = ") as exc:
            quantify(ModelParams(1.0, 1.0, 0.0), sd, which=which)
        assert exc.value.where == where
        assert exc.value.error_bound == pytest.approx(rounding, rel=1e-12)

    @pytest.mark.parametrize("sd", [PeakedSD(1e-100, 1.0, 1.0),
                                    PeakedSD(0.5, 1e-150, 1.0),
                                    PeakedSD(0.5, 1e100, 1.0)], ids=repr)
    def test_undamped_mode_is_guarded_without_warning(self, sd):
        # Re λ = 0, or λ = 0, in doubles: a typed failure, never a NaN or
        # a division warning (which the suite turns into errors)
        with pytest.raises(NonConvergence, match="^n1_qq: the mode of the "
                                                 "drift matrix at"):
            quantify(P1, sd)

    def test_inconsistent_solves_are_refused(self, monkeypatch):
        # ‖f − g‖² from ⟨f,g⟩ against ‖r‖² from its own realization: a
        # bath whose solves break it (parameters 1e20 apart, found by a
        # fuzz) fails typed instead of returning a number in [0, 1]
        # unit f and g at 60°, r = f − g: then qp's ‖r‖² is spoiled
        products = np.repeat([[1.0], [1.0], [1.0], [0.5], [0.5], [-0.5]],
                             3, axis=1)
        values, errors = quantifiers._gram_entries(products[None], "n2")
        assert errors == [None]
        assert values[0] == pytest.approx([math.sqrt(0.75)] * 3, rel=1e-15)
        products[2, 1] = 0.5
        (error,) = quantifiers._gram_entries(products[None], "n2")[1]
        assert isinstance(error, NonConvergence)
        assert str(error).startswith("n2_qp: the closed form's ‖f − g‖²")

        def singular(a):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(quantifiers, "_n1_products", singular)
        with pytest.raises(DivisionNearZero, match="^n1_qq: the Lyapunov "
                                                   "operator"):
            quantify(P1, PeakedSD(0.75, 0.63, 1.0), which="n1")

    def test_sweep_baths_are_far_from_the_guard(self):
        # the corners of the peaked ranges of perfbench's sweep, where a
        # 13³ grid finds its worst eps/(2q), 2.8e-11, too
        worst = max(self._rounding(PeakedSD(d, g, big))[0]
                    for d in (0.1, 1.3) for g in (0.1, 2.5)
                    for big in (0.8, 3.5))
        assert worst == pytest.approx(2.8e-11, rel=0.01)

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.one_of(
        st.builds(OhmicSD, st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)),
        st.builds(PeakedSD, coupling=st.floats(0.05, 3.0),
                  width=st.floats(0.02, 3.0), resonance=st.floats(0.1, 4.0))),
        st.floats(0.5, 2.0))
    def test_closed_form_matches_the_pass(self, sd, omega0):
        # squared entries, so a vanishing entry's √(rounding) is no excuse
        assume(self._rounding(sd, omega0)[0] <= quadrature._REL_TOL)
        p = ModelParams(omega0, 1.0, 0.0)
        rep = quantify(p, sd)
        for closed, passed in zip((rep.n1, rep.n2), _pass_quantifiers(p, sd)):
            assert np.abs(closed ** 2 - passed ** 2).max() <= 1e-7


class TestQuantumMatsubara:
    """Quantum n2 of the Ohmic and peaked baths by Matsubara sums, with no
    pass: against 30-digit whole-line quadrature, the pass, the classical
    closed form as ħ → 0, and the term cap past which the pass stays."""

    # each bath at two (β, ħ), so that every bath, every β and both ħ
    # appear; the whole 4 × 4 × 2 grid agrees within 6.6e-12, but takes
    # about 30 s at 30 digits
    @pytest.mark.parametrize("bath, beta, hbar", [
        ((0.75, 0.63, 1.0), 0.3, 0.05), ((0.75, 0.63, 1.0), 5.0, 1.0),
        ((1.0, 0.5, 2.0), 1.0, 1.0), ((1.0, 0.5, 2.0), 50.0, 0.05),
        ((0.9, 1.0, 0.0625), 0.3, 1.0), ((0.9, 1.0, 0.0625), 5.0, 0.05),
        ((1e-3, 0.63, 1.0), 1.0, 0.05), ((1e-3, 0.63, 1.0), 50.0, 1.0)])
    def test_matches_30_digit_whole_line_reference(self, bath, beta, hbar):
        p, sd = ModelParams(1.0, beta, hbar), PeakedSD(*bath)
        rep = quantify(p, sd, which="n2")
        _entries_within(rep.n2[ENTRIES],
                        mp_quantum_n2(p, sd, covariance0(p, sd)), 1e-10)
        assert {d.panels for d in rep.diagnostics.values()} == {0}

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.builds(PeakedSD, coupling=st.floats(0.05, 3.0),
                     width=st.floats(0.02, 3.0),
                     resonance=st.floats(0.1, 4.0)),
           st.floats(0.3, 5.0))
    def test_matches_the_pass(self, sd, beta):
        # TestStrongCoupling's peaked ranges at ħ = 1; squared entries
        assume(not TestStrongCoupling._rounding_limited(sd))
        p = ModelParams(1.0, beta, 1.0)
        got = quantify(p, sd, which="n2").n2
        assert np.abs(got ** 2 - _pass_quantifiers(p, sd)[1] ** 2).max() \
            <= 1e-7

    @pytest.mark.parametrize("sd", [PeakedSD(0.75, 0.63, 1.0),
                                    PeakedSD(1.0, 0.5, 2.0),
                                    PeakedSD(0.9, 1.0, 0.0625)], ids=repr)
    def test_tends_to_the_classical_closed_form(self, sd):
        # qq and qp tend to their classical closed forms.  pp, 0
        # classically, is first order in ħ (the odd part ħω of the Bose
        # weight, about 0.67ħ on (0.75, 0.63, 1), as 30-digit quadrature
        # also gives), so n2_pp/ħ stays put; at ħ = 1e-6 it carries the
        # 1 − ratio formula's rounding ε/n2_pp², up to 6e-4
        def n2(hbar):
            return quantify(ModelParams(1.0, 1.0, hbar), sd, which="n2").n2

        quantum = n2(1e-6)
        classical = quantify(P1, sd, which="n2").n2
        assert np.abs(quantum - classical)[0].max() <= 1e-9
        assert quantum[1, 1] / 1e-6 == pytest.approx(n2(1e-3)[1, 1] / 1e-3,
                                                      rel=2e-3)

    def test_past_the_cap_takes_the_pass(self):
        # (0.75, 0.63, 1) has ‖A‖₁ = 2.3125: ⌈4‖A‖₁βħ/2π⌉ − 1 terms are
        # 1023 at β = 695 and 1471 at β = 1000, about the pass's cost
        sd = PeakedSD(0.75, 0.63, 1.0)
        below, above = (ModelParams(1.0, beta, 1.0) for beta in (695.0, 1e3))
        rep = quantify(below, sd, which="n2")
        assert {d.panels for d in rep.diagnostics.values()} == {0}
        rep = quantify(above, sd, which="n2")
        panels = {d.panels for d in rep.diagnostics.values()}
        assert len(panels) == 1 and panels.pop() > 0
        assert np.array_equal(rep.n2, _pass_quantifiers(above, sd)[1])

    @staticmethod
    def _ohmic_n2(p, d):
        """Quantum n2 of OhmicSD(d) by quantify, with its covariances; the
        strict Ohmic c_pp is cutoff-limited and may warn so."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            sd = OhmicSD(d)
            return quantify(p, sd, which="n2"), covariance0(p, sd)

    # D = 2 is critical damping, a defective drift matrix
    @pytest.mark.parametrize("hbar", [0.05, 1.0])
    @pytest.mark.parametrize("beta", [0.3, 5.0])
    @pytest.mark.parametrize("d", [0.05, 2.0, 20.0])
    def test_ohmic_matches_30_digit_whole_line_reference(self, d, beta,
                                                          hbar):
        # the sums take the Λ-cut c_pp of the covariance pass as given, and
        # every entry carries its drift
        p = ModelParams(1.0, beta, hbar)
        rep, cov0 = self._ohmic_n2(p, d)
        _entries_within(rep.n2[ENTRIES], mp_quantum_n2(p, OhmicSD(d), cov0),
                        1e-10)
        assert cov0.cutoff_drift > 0.0
        assert {(e.panels, e.cutoff_drift)
                for e in rep.diagnostics.values()} == {(0, cov0.cutoff_drift)}

    @pytest.mark.parametrize("d", [1e-8, 1e-3])
    def test_ohmic_weak_couplings_match_the_pass(self, d):
        # squared entries; a strong coupling is stiff and keeps the pass
        p = ModelParams(1.0, 1.0, 1.0)
        rep, _ = self._ohmic_n2(p, d)
        assert {e.panels for e in rep.diagnostics.values()} == {0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            passed = _pass_quantifiers(p, OhmicSD(d))[1]
        assert np.abs(rep.n2 ** 2 - passed ** 2).max() <= 1e-7

    # mode rates 959 apart at D = 31 and 1022 at D = 32, across the
    # spread 1e3 past which the sums lose digits (5.5e-13 on squares at
    # D = 1e3 and β = 1, with 637 terms) and the pass takes over; D = 1e5
    # at β = 0.01 would take 636 terms
    @pytest.mark.parametrize("d, beta, summed", [
        (31.0, 1.0, True), (32.0, 1.0, False), (1e3, 1.0, False),
        (1e5, 0.01, False)])
    def test_stiff_ohmic_takes_the_pass(self, d, beta, summed):
        # squared entries within 1e-13 of 30 digits either way
        p = ModelParams(1.0, beta, 1.0)
        rep, cov0 = self._ohmic_n2(p, d)
        panels = {e.panels for e in rep.diagnostics.values()}
        assert len(panels) == 1 and (panels.pop() == 0) == summed
        want = np.array(mp_quantum_n2(p, OhmicSD(d), cov0))
        assert np.abs(rep.n2[ENTRIES] ** 2 - want ** 2).max() <= 1e-13

    def test_ohmic_past_the_cap_takes_the_pass(self):
        # D = 20 has ‖A‖₁ = 21: 1016 terms at β = 76, 1029 at β = 77
        sd = OhmicSD(20.0)
        below, above = (ModelParams(1.0, beta, 1.0) for beta in (76.0, 77.0))
        rep, _ = self._ohmic_n2(below, 20.0)
        assert {e.panels for e in rep.diagnostics.values()} == {0}
        rep, cov0 = self._ohmic_n2(above, 20.0)
        panels = {e.panels for e in rep.diagnostics.values()}
        assert len(panels) == 1 and panels.pop() > 0
        assert {e.cutoff_drift for e in rep.diagnostics.values()} == {
            cov0.cutoff_drift}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            passed = _pass_quantifiers(above, sd)[1]
        assert np.array_equal(rep.n2, passed)

    def test_guard_and_singular_operator(self, monkeypatch):
        p = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(NonConvergence, match="^n2_qq: the mode of the "
                                                 "drift matrix at ω = "):
            quantify(p, PeakedSD(1e-6, 0.5, 2.0), which="n2")

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(quantifiers, "_n2_quantum_products", singular)
        with pytest.raises(DivisionNearZero, match="^n2_qq: the Lyapunov "
                                                   "operator"):
            quantify(p, PeakedSD(0.75, 0.63, 1.0), which="n2")


class TestHotQuantumN2:
    """Quantum n2's inner products grow like 1/β²; the sums and the pass
    divide the ratio through, so their entries stay the hot limit's until
    a product itself passes the largest float, which is NonFinite."""

    BATHS = [OhmicSD(0.7), PeakedSD(0.75, 0.63, 1.0)]

    @staticmethod
    def _n2(route, beta, sd):
        p = ModelParams(1.0, beta, 1.0)
        if route == "pass":
            return _pass_quantifiers(p, sd)[1]
        report = quantify(p, sd, "n2")
        assert report.diagnostics["n2_qq"].panels == 0
        return report.n2

    @pytest.mark.parametrize("route", ["sums", "pass"])
    @pytest.mark.parametrize("sd", BATHS, ids=["ohmic", "peaked"])
    def test_beta_1e_100_is_the_hot_limit(self, route, sd):
        hot, warm = (self._n2(route, beta, sd) for beta in (1e-100, 1e-50))
        np.testing.assert_allclose(hot[0], warm[0], rtol=1e-12, atol=0.0)
        assert abs(hot[1, 1] - warm[1, 1]) <= 1e-7

    @pytest.mark.parametrize("route", ["sums", "pass"])
    @pytest.mark.parametrize("sd", BATHS, ids=["ohmic", "peaked"])
    def test_beta_1e_160_is_non_finite(self, route, sd):
        with pytest.raises(NonFinite):
            self._n2(route, 1e-160, sd)

    def test_subnormal_hbar_is_the_classical_limit(self):
        # βħ = 1.1e-309 puts the Matsubara frequencies past the largest
        # float, so the peaked bath takes the covariance pass, whose
        # thermal seeds 10^k/(βħ) reach 9e307; they seed nothing there,
        # and no node of the pass overflows
        sd = PeakedSD(1.0, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hot = quantify(ModelParams(1.0, 0.5, 2.2e-309), sd, "n2").n2
        classical = quantify(ModelParams(1.0, 0.5, 0.0), sd, "n2").n2
        assert np.all((0.0 <= hot) & (hot <= 1.0))
        assert np.abs(hot ** 2 - classical ** 2).max() <= 1e-9


# the range of each swept parameter: guard refusals (peaked D ≲ 1e-5),
# stiff Ohmic baths (D ≳ 31.6) and sums past their caps (large β) inside
SWEPT = {"d": (1e-6, 60.0), "gamma": (0.02, 3.0), "omega-big": (0.1, 4.0),
         "beta": (0.05, 300.0), "hbar": (0.0, 1.5)}


@st.composite
def sweep_grids(draw):
    """The (model, bath) points of a CLI sweep: one bath kind, one swept
    parameter over 2–9 values, at ħ ∈ {0, 1}."""
    kind = draw(st.sampled_from(["ohmic", "peaked"]))
    param = draw(st.sampled_from(["d", "beta", "hbar"] + (
        ["gamma", "omega-big"] if kind == "peaked" else [])))
    low, high = SWEPT[param]
    if kind == "peaked" and param == "d":
        high = 3.0
    values = draw(st.lists(st.floats(low, high), min_size=2, max_size=9))
    setting = {"d": draw(st.floats(0.05, 3.0)),
               "gamma": draw(st.floats(0.1, 2.0)),
               "omega-big": draw(st.floats(0.5, 3.0)),
               "beta": draw(st.floats(0.3, 3.0)),
               "hbar": draw(st.sampled_from([0.0, 1.0]))}
    points = []
    for value in values:
        point = {**setting, param: value}
        sd = (OhmicSD(point["d"]) if kind == "ohmic" else
              PeakedSD(point["d"], point["gamma"], point["omega-big"]))
        points.append((ModelParams(1.0, point["beta"], point["hbar"]), sd))
    return points


class TestBatchReports:
    """``_batch_reports``, which a sweep hands its grid to, gives every
    row what ``quantify`` gives it alone: values, diagnostics and error
    text.  Batched LAPACK and BLAS calls may round differently from
    single ones, so values may differ within 1e-15 relative on squared
    entries; on this platform they are byte-identical."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(sweep_grids(), st.sampled_from(["n1", "n2", "both"]))
    # a subnormal ħ sends the peaked covariances to their pass, whose
    # thermal seeds reach the largest float
    @example([(ModelParams(1.0, 0.5, 2.2e-309), PeakedSD(1.0, 1.0, 1.0)),
              (ModelParams(1.0, 0.5, 1.0), PeakedSD(1.0, 1.0, 1.0))], "n2")
    def test_rows_match_per_row_quantify(self, points, which):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            self._match_per_row(quantifiers._batch_reports(points, which),
                                points, which)

    @staticmethod
    def _match_per_row(batched, points, which, exact=False):
        for got, point in zip(batched, points):
            try:
                want = quantify(*point, which=which)
            except NumericsError as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert got.diagnostics == want.diagnostics
            for g, w in ((got.n1, want.n1), (got.n2, want.n2)):
                assert (g is None) == (w is None)
                if w is not None:
                    assert np.array_equal(g, w) or not exact and np.allclose(
                        g ** 2, w ** 2, rtol=1e-15, atol=0.0)

    def test_a_mixed_batch_computes_n1_once_per_key(self, monkeypatch):
        # two β of one peaked bath, a second peaked bath (an equal copy
        # of the first at another ω₀ is a key of its own), and Ohmic rows
        # classical and quantum; n1 and classical n2 are computed once
        # per (ω₀, bath), and every row is byte-equal to quantify alone
        peaked = PeakedSD(0.75, 0.63, 1.0)
        points = [(ModelParams(1.0, 0.5, 1.0), peaked),
                  (ModelParams(1.0, 2.0, 1.0), PeakedSD(0.75, 0.63, 1.0)),
                  (ModelParams(1.0, 1.0, 1.0), PeakedSD(1.0, 0.5, 2.0)),
                  (ModelParams(2.0, 1.0, 1.0), peaked),
                  (ModelParams(1.0, 0.3, 0.0), OhmicSD(0.7)),
                  (ModelParams(1.0, 3.0, 0.0), OhmicSD(0.7)),
                  (ModelParams(1.0, 1.0, 1.0), OhmicSD(0.7))]
        seen = []
        closed = quantifiers._closed_forms
        monkeypatch.setattr(
            quantifiers, "_closed_forms", lambda batch, prefix: seen.extend(
                (prefix, r.p.omega0, r.sd, r.p.beta) for r in batch.rows)
            or closed(batch, prefix))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffSensitive)
            batched = quantifiers._batch_reports(points, "both")
            monkeypatch.setattr(quantifiers, "_closed_forms", closed)
            self._match_per_row(batched, points, "both", exact=True)
        assert sorted(seen, key=str) == sorted([
            ("n1", 1.0, peaked, 0.5), ("n1", 1.0, PeakedSD(1.0, 0.5, 2.0), 1.0),
            ("n1", 2.0, peaked, 1.0), ("n1", 1.0, OhmicSD(0.7), 0.3),
            ("n2", 1.0, OhmicSD(0.7), 0.3)], key=str)


def smooth_table(k, cutoff, scale, n):
    """J = scale·ω·(ω/ωc)^(k−1)·e^(−ω/ωc) on n knots over [0, 25·ωc]."""
    w = np.linspace(0.0, 25.0 * cutoff, n)
    return TabulatedSD(w, scale * w * (w / cutoff) ** (k - 1)
                       * np.exp(-w / cutoff))


FOLD = settings(max_examples=25, deadline=None, database=None)
models = st.builds(ModelParams, omega0=st.floats(0.5, 2.0),
                   beta=st.just(1.0))
analytic_baths = st.one_of(
    st.builds(OhmicSD, st.floats(0.01, 5.0)),
    st.builds(PeakedSD, coupling=st.floats(0.05, 1.5),
              width=st.floats(0.05, 3.0), resonance=st.floats(0.3, 3.0)),
)
tables = st.builds(smooth_table, k=st.integers(1, 3),
                   cutoff=st.floats(0.5, 4.0), scale=st.floats(0.05, 1.0),
                   n=st.sampled_from([201, 301, 401]))
positive_frequencies = hnp.arrays(np.float64, st.integers(1, 16),
                                  elements=st.floats(1e-3, 200.0))


real_frequencies = hnp.arrays(np.float64, st.integers(1, 16),
                              elements=st.floats(-200.0, 200.0))


@FOLD
@given(models, st.one_of(analytic_baths, tables), real_frequencies)
def test_composed_response_matches_plain_matmul(p, sd, omega):
    # the closed-form g rows of the n1 pair against the product they
    # multiply out, one frequency at a time; ω = 0 is always among them
    omega = np.append(omega, 0.0)
    batch = _n1_sides(p, sd)(omega)[1]
    for i, w in enumerate(omega):
        chi = chi_matrix(p, sd, float(w))
        want = (chi @ CHI_PLUS_INV @ chi)[(0, 0, 1), (0, 1, 1)]
        scale = max(np.abs(batch[:, i]).max(), np.abs(want).max())
        np.testing.assert_allclose(batch[:, i], want, rtol=0.0,
                                   atol=1e-13 * scale)


@FOLD
@given(models, st.one_of(analytic_baths, tables), real_frequencies)
def test_n1_f_rows_are_the_response_derivative(p, sd, omega):
    # the f rows repeat −i·chi_prime_matrix at qq, qp, pp; they must stay
    # the same expressions, to the last bit
    omega = np.append(omega, 0.0)
    want = -1j * chi_prime_matrix(p, sd, omega)[(0, 0, 1), (0, 1, 1)]
    assert np.array_equal(_n1_sides(p, sd)(omega)[0], want)


thermal_models = st.builds(ModelParams, omega0=st.floats(0.5, 2.0),
                           beta=st.floats(0.3, 5.0),
                           hbar=st.sampled_from([0.0, 1.0]))
# any positive covariances will do: the sides only carry them
COV = CovarianceMatrix(0.8, 1.3)


@FOLD
@given(thermal_models, st.one_of(analytic_baths, tables), real_frequencies)
def test_n2_rows_are_the_two_spectra(p, sd, omega):
    # one γ̃ batch must give, to the last bit, what exact_entries_vec
    # and rt_entries_vec put at qq, qp, pp from their own batches
    omega = np.append(omega, 0.0)
    exact, rt = _n2_sides(p, sd, COV)(omega)
    entry = (0, 0, 1), (0, 1, 1)
    assert np.array_equal(exact, exact_entries_vec(p, sd, omega)[entry])
    assert np.array_equal(rt, rt_entries_vec(p, sd, omega, COV)[entry])


class _CountingBath:
    """A bath that counts the γ̃ batches asked of it."""

    def __init__(self, sd):
        self.sd, self.batches = sd, 0

    def gamma_tilde_vec(self, omega):
        self.batches += 1
        return self.sd.gamma_tilde_vec(omega)


@pytest.mark.parametrize("sd", [OhmicSD(0.7), PeakedSD(0.75, 0.63, 1.0),
                                smooth_table(2, 1.5, 0.4, 301)])
def test_n2_sides_take_one_gamma_batch(sd):
    bath = _CountingBath(sd)
    sides = _n2_sides(ModelParams(1.0, 1.0, 1.0), bath, COV)
    for n in (1, 7, 30):
        sides(np.linspace(-5.0, 5.0, n))
    assert bath.batches == 3


@pytest.mark.parametrize("which", ["n1", "n2"])
def test_degenerate_entry_raises_naming_it(which):
    # every norm of Ohmic D = 1e300 on the quadrature pass is below
    # 1e-14; such an entry used to read 0 with no flag, as if the bath
    # were Markovian.  quantify takes the closed form there instead
    sd = OhmicSD(1e300)
    sides = (_n1_sides(P1, sd) if which == "n1"
             else _n2_sides(P1, sd, covariance0(P1, sd)))
    with pytest.raises(ZeroNorm, match=f"^degenerate {which}_qq: norm"):
        raised(_quantifier_matrix(P1, sd, which, sides))


def _assert_hermitian(p, sd, omega):
    sides = _n1_sides(p, sd)
    for plus, minus in zip(sides(omega), sides(-omega)):
        scale = np.maximum(np.abs(plus), np.abs(minus))
        assert np.all(np.abs(minus - np.conj(plus)) <= 1e-13 * scale)


class TestHermitianFold:
    """Both sides of n1 satisfy f(−ω) = f(ω)*, as the response of a real,
    causal system must, so each ⟨f,g⟩ of n1 is real.  The folded pass is
    checked against ``integrate`` over the unfolded line, for n1 and for
    quantum n2, whose sides are not hermitian."""

    @FOLD
    @given(models, analytic_baths, positive_frequencies)
    def test_n1_sides_are_hermitian(self, p, sd, omega):
        _assert_hermitian(p, sd, omega)

    @FOLD
    @given(models, tables, positive_frequencies)
    def test_n1_sides_are_hermitian_on_tables(self, p, sd, omega):
        _assert_hermitian(p, sd, omega)

    @staticmethod
    def _fold_matches_whole_line(p, sd, sides):
        bps = feature_frequencies(p, sd)
        folded = inner_product_info(sides, breakpoints=bps)
        whole = unfolded_line(sides, bps)
        assert np.all(np.abs(folded.value - whole)
                      <= quadrature._REL_TOL * np.abs(whole))
        return folded

    @pytest.mark.parametrize("sd", [OhmicSD(1.0), PeakedSD(0.75, 0.63, 1.0),
                                    smooth_table(2, 1.5, 0.4, 301)])
    def test_fold_matches_whole_line(self, sd):
        folded = self._fold_matches_whole_line(P1, sd, _n1_sides(P1, sd))
        assert np.all(folded.value.imag == 0.0)

    @pytest.mark.parametrize("sd", [PeakedSD(0.75, 0.63, 1.0),
                                    smooth_table(2, 1.5, 0.4, 301)])
    def test_quantum_n2_fold_matches_whole_line(self, sd):
        p = ModelParams(omega0=1.0, beta=1.0, hbar=1.0)
        self._fold_matches_whole_line(
            p, sd, _n2_sides(p, sd, covariance0(p, sd)))


@pytest.mark.parametrize("sd", [OhmicSD(0.7), PeakedSD(0.75, 0.63, 1.0),
                                smooth_table(2, 1.5, 0.4, 301)])
def test_classical_n2_is_beta_invariant(sd):
    # classically both spectra and the covariances scale as 1/β, and no
    # distance sees a common scale
    n2 = [regression_quantifier(ModelParams(omega0=1.0, beta=beta), sd)[0]
          for beta in (0.3, 1.0, 5.0)]
    for m in n2[1:]:
        np.testing.assert_allclose(m ** 2, n2[0] ** 2, rtol=0.0, atol=1e-12)
