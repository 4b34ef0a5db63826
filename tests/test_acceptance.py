"""Acceptance suite: one test per release criterion, each pinned to an
analytic identity, an independent oracle or a qualitative property of
the two quantifiers, with an explicit runtime budget.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.
"""
from __future__ import annotations

import math
import time
import warnings

import numpy as np

from nonmarkov import (
    CutoffSensitive,
    LangevinConfig,
    ModelParams,
    OhmicSD,
    PeakedSD,
    chi_qq_vec,
    chi_time,
    distance,
    divisibility_quantifier,
    divisibility_residual,
    embedding_response,
    feature_frequencies,
    integrate,
    langevin_means,
    propagate_means,
    quantify,
    regression_quantifier,
)
from nonmarkov.correlations import _covariance0_cached
from nonmarkov.quadrature import principal_value
from nonmarkov.response import _chi_time_transform, chi_qq_prime_vec

BETA1 = ModelParams(omega0=1.0, beta=1.0)
PEAKED_DEFAULT = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)


class Budget:
    """Wall-clock guard; the limit is part of the criterion."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self, label: str) -> None:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, (
            f"{label} took {elapsed:.1f}s, budget {self.limit:g}s")
        print(f"{label}: pass ({elapsed:.2f}s)")


def test_01_ohmic_residual_matches_closed_form():
    budget = Budget(1.0)
    for d in (0.1, 1.0):
        sd = OhmicSD(d)
        for w in np.linspace(-10.0, 10.0, 100):
            got = divisibility_residual(BETA1, sd, w)
            den = 1.0 - w ** 2 - 1j * d * w
            ref = d / den ** 2 * np.array([[1.0, 1j * w],
                                           [-1j * w, w ** 2]])
            assert np.abs(got - ref).max() < 1e-10
    budget.check("criterion 1 (residual closed form, tol 1e-10)")


def test_02_static_susceptibility_sum_rule():
    budget = Budget(5.0)
    for sd in (OhmicSD(1.0), PEAKED_DEFAULT):
        def im_over_w(w):
            return np.imag(chi_qq_vec(BETA1, sd, w)) / w + 0.0j

        val = integrate(im_over_w, 0.0, 200.0,
                        breakpoints=feature_frequencies(BETA1, sd))
        assert abs(2.0 / math.pi * val.real - 1.0) < 1e-6
    budget.check("criterion 2 (sum rule 2/π ∫ Imχ̃/ω = 1/ω₀², tol 1e-6)")


def test_03_classical_equipartition_is_coupling_free():
    budget = Budget(5.0)
    p = ModelParams(omega0=1.0, beta=1.7, hbar=0.0)
    families = [OhmicSD(0.1), OhmicSD(0.5),
                PeakedSD(coupling=0.1, width=0.5, resonance=2.0),
                PeakedSD(coupling=0.5, width=0.5, resonance=2.0)]
    for sd in families:
        # the quadrature path: covariance0 returns equipartition for ħ = 0
        cov = _covariance0_cached(p, sd)
        assert abs(cov.c_qq * 1.7 - 1.0) < 1e-6
        assert abs(cov.c_pp * 1.7 - 1.0) < 1e-6
    budget.check("criterion 3 (equipartition 1/(βω₀²), 1/β, tol 1e-6)")


def test_04_peaked_kernel_analytic_vs_dispersion_quadrature():
    budget = Budget(10.0)
    d, gam, res = 1.0, 0.5, 2.0
    sd = PeakedSD(coupling=d, width=gam, resonance=res)

    def ratio(nu):
        return d * d * gam / ((nu * nu - res * res) ** 2
                              + gam * gam * nu * nu)

    for w in np.linspace(0.05, 6.0, 30):
        assert abs(w - res) >= 0.05 * gam
        pv = principal_value(
            lambda nu: ratio(nu) * 2.0 * w / (nu * nu - w * w) + 0.0j,
            pole=w, a=0.0, b=400.0)
        im_quad = -pv.real / math.pi
        im_analytic = sd.gamma_tilde_vec(w).imag
        assert abs(im_quad - im_analytic) < 1e-5 * abs(im_analytic)
    budget.check("criterion 4 (peaked Im γ̃ vs PV quadrature, rel 1e-5)")


def test_05_ohmic_quantifier_grows_with_coupling():
    budget = Budget(120.0)
    values = []
    for d in (0.01, 0.1, 1.0, 10.0):
        matrix, _ = divisibility_quantifier(BETA1, OhmicSD(d))
        values.append(matrix[0, 0])
    assert values[0] < 0.05
    assert all(a < b for a, b in zip(values, values[1:]))
    budget.check("criterion 5 (n1_qq < 0.05 at D=0.01 and increasing)")


def test_06_peaked_quantifier_not_monotone_in_width():
    budget = Budget(300.0)
    qq = []
    for gam in np.geomspace(0.01, 5.0, 25):
        sd = PeakedSD(coupling=0.75, width=float(gam), resonance=1.0)
        matrix, _ = divisibility_quantifier(BETA1, sd)
        qq.append(matrix[0, 0])
    top = max(qq)
    best = qq.index(top)
    assert 0 < best < len(qq) - 1
    assert qq[0] <= 0.95 * top
    assert qq[-1] <= 0.95 * top
    budget.check("criterion 6 (interior maximum over the width sweep)")


def test_07_regression_theorem_fails_classically_but_not_decoupled():
    budget = Budget(120.0)
    p = ModelParams(omega0=1.0, beta=1.0, hbar=0.0, cutoff=1e3)
    strong, _ = regression_quantifier(p, OhmicSD(0.5))
    weak, _ = regression_quantifier(p, OhmicSD(1e-3))
    assert strong[0, 1] > 0.05
    assert weak[0, 1] < 0.05
    budget.check("criterion 7 (classical n2_qp: 0.05 threshold both ways)")


def test_08_mean_propagation_matches_damped_oscillator():
    budget = Budget(30.0)
    d, aq, ap = 0.2, 1.0, 0.5
    sd = OhmicSD(d)
    w1 = math.sqrt(1.0 - d * d / 4.0)
    # strict Ohmic friction kicks the momentum by D·a_p at t = 0⁺, so
    # the damped-oscillator branch starts from p₀ = a_q + D·a_p while
    # the t = 0 value itself is the identity-propagator pair
    q0, p0 = -ap, aq + d * ap
    for t in np.linspace(0.0, 20.0, 81):
        q, pm = propagate_means(BETA1, sd, aq, ap, float(t))
        if t == 0.0:
            q_ref, p_ref = -ap, aq
        else:
            e = math.exp(-d * t / 2.0)
            s, c = math.sin(w1 * t), math.cos(w1 * t)
            q_ref = e * (q0 * c + (p0 + d * q0 / 2.0) / w1 * s)
            p_ref = e * (p0 * c - (q0 + d * p0 / 2.0) / w1 * s)
        assert abs(q - q_ref) < 1e-4
        assert abs(pm - p_ref) < 1e-4
    budget.check("criterion 8 (means vs e^{-Dt/2} sin(ω₁t)/ω₁ form, 1e-4)")


def test_09_response_matches_hamiltonian_embedding():
    budget = Budget(120.0)
    sd = PeakedSD(coupling=0.05, width=0.05, resonance=1.0)
    ts = np.linspace(0.0, 50.0, 26)
    emb = embedding_response(0.05, 0.05, 1.0, 1.0, ts)
    for t, ref in zip(ts, emb):
        assert abs(chi_time(BETA1, sd, float(t))[0, 0] - ref) < 1e-3
    # the transforms of χ̃ as well: chi_time reads the drift matrix that
    # the embedding integrates, and tables have no other route
    for t, ref in zip(ts[1:], emb[1:]):
        got = _chi_time_transform(BETA1, sd, float(t))[0, 0]
        assert abs(got - ref) < 1e-3
    budget.check("criterion 9 (χ_qq(t) vs embedding ODE, abs 1e-3)")


def test_10_monte_carlo_langevin_agrees_with_propagation():
    budget = Budget(180.0)
    cfg = LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                         t_max=20.0, n_traj=10 ** 5, seed=20260815,
                         kick_q=1.0, kick_p=1.0)
    res = langevin_means(cfg)
    sd = OhmicSD(0.2)
    idx = np.linspace(1, len(res.times) - 1, 20, dtype=int)
    for i in idx:
        t = float(res.times[i])
        q_ref, p_ref = propagate_means(BETA1, sd, 1.0, 1.0, t)
        assert abs(res.q_mean[i] - q_ref) < 3.0 * res.q_se[i]
        assert abs(res.p_mean[i] - p_ref) < 3.0 * res.p_se[i]
    budget.check("criterion 10 (10⁵ trajectories within 3 SE at 20 times)")


def test_11_distance_axioms_and_offdiagonal_symmetry():
    budget = Budget(60.0)
    gauss = lambda w: np.exp(-w * w) + 0.0j
    odd_gauss = lambda w: w * np.exp(-w * w) + 0.0j
    assert distance(gauss, gauss) == 0.0
    scaled = lambda w: (0.7 - 2.3j) * np.exp(-w * w)
    assert distance(gauss, scaled) < 1e-6
    assert distance(gauss, odd_gauss) == 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffSensitive)
        report = quantify(BETA1, PEAKED_DEFAULT, which="both")
    for matrix in (report.n1, report.n2):
        assert (matrix >= 0.0).all() and (matrix <= 1.0).all()

    rng = np.random.default_rng(20260815)
    cases = []
    for _ in range(5):
        cases.append(OhmicSD(float(np.exp(rng.uniform(np.log(0.05),
                                                      np.log(5.0))))))
        cases.append(PeakedSD(coupling=float(rng.uniform(0.1, 1.2)),
                              width=float(rng.uniform(0.1, 2.0)),
                              resonance=float(rng.uniform(0.6, 3.0))))
    for sd in cases:
        bps = feature_frequencies(BETA1, sd)

        def deriv_side(w, sign=1.0):
            c = chi_qq_vec(BETA1, sd, w)
            cp = chi_qq_prime_vec(BETA1, sd, w)
            return sign * (c + w * cp)

        def quadratic_side(w, sign=1.0):
            c = chi_qq_vec(BETA1, sd, w)
            return sign * (c + 2.0 * w * w * c * c)

        d_qp = distance(deriv_side, quadratic_side, breakpoints=bps)
        d_pq = distance(lambda w: deriv_side(w, -1.0),
                        lambda w: quadratic_side(w, -1.0), breakpoints=bps)
        assert abs(d_qp - d_pq) < 1e-8
    budget.check("criterion 11 (distance axioms, qp/pq agreement 1e-8)")
