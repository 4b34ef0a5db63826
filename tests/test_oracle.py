"""Tests for the Langevin and pseudo-mode embedding cross-check engines."""
import math

import numpy as np
import pytest

from nonmarkov.errors import UnstableStep
from nonmarkov.oracle import (
    LangevinConfig,
    embedding_response,
    embedding_static_sum,
    langevin_means,
    ou_coefficients,
)
from nonmarkov.response import ModelParams, propagate_means
from nonmarkov.spectral import OhmicSD


class TestLangevinConfig:
    def test_step_bound_enforced(self):
        with pytest.raises(ValueError):
            LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.02,
                           t_max=1.0, n_traj=1000, seed=0)
        with pytest.raises(ValueError):
            LangevinConfig(damping=5.0, omega0=1.0, beta=1.0, dt=0.01,
                           t_max=1.0, n_traj=1000, seed=0)

    def test_ensemble_floor(self):
        with pytest.raises(ValueError):
            LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                           t_max=1.0, n_traj=999, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("beta", math.inf), ("beta", math.nan), ("beta", -1.0),
        ("kick_q", math.nan), ("kick_p", math.inf)])
    def test_non_finite_or_negative_field_is_named(self, field, value):
        args = dict(damping=0.2, omega0=1.0, beta=1.0, dt=0.01, t_max=1.0,
                    n_traj=1000, seed=0)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LangevinConfig(**{**args, field: value})


class TestOUStep:
    def test_noise_scale_matches_white_noise_increment(self):
        c1, c2 = ou_coefficients(0.2, 2.0, 0.01)
        assert c1 == pytest.approx(math.exp(-0.002))
        assert c2 * c2 == pytest.approx(2.0 * 0.2 * 0.01 / 2.0, rel=0.01)

    def test_sampled_increment_variance(self):
        rng = np.random.Generator(np.random.Philox(5))
        _, c2 = ou_coefficients(0.2, 2.0, 0.01)
        draws = c2 * rng.standard_normal(10 ** 6)
        assert draws.var(ddof=1) == pytest.approx(2e-3, rel=0.01)


class TestLangevinMeans:
    def test_unkicked_equilibrium_means_vanish(self):
        cfg = LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                             t_max=5.0, n_traj=2000, seed=11)
        res = langevin_means(cfg)
        z = np.maximum(np.abs(res.q_mean) / res.q_se,
                       np.abs(res.p_mean) / res.p_se)
        assert z.max() < 3.0

    def test_matches_analytic_propagation(self):
        cfg = LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                             t_max=20.0, n_traj=10 ** 5, seed=20260815,
                             kick_q=1.0, kick_p=1.0)
        res = langevin_means(cfg)
        p = ModelParams(omega0=1.0, beta=1.0)
        sd = OhmicSD(0.2)
        idx = np.linspace(1, len(res.times) - 1, 20, dtype=int)
        for i in idx:
            mq, mp = propagate_means(p, sd, 1.0, 1.0, float(res.times[i]))
            assert abs(res.q_mean[i] - mq) < 3.0 * res.q_se[i]
            assert abs(res.p_mean[i] - mp) < 3.0 * res.p_se[i]

    def test_initial_state_carries_friction_impulse(self):
        # bath stays centered on the pre-kick position: p gains D·a_p
        cfg = LangevinConfig(damping=0.5, omega0=1.0, beta=1.0, dt=0.01,
                             t_max=0.02, n_traj=10 ** 4, seed=3,
                             kick_q=0.25, kick_p=1.0)
        res = langevin_means(cfg)
        assert res.q_mean[0] == pytest.approx(-1.0, abs=4 * res.q_se[0])
        assert res.p_mean[0] == pytest.approx(0.75, abs=4 * res.p_se[0])

    def test_seeded_reproducibility(self):
        cfg = LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                             t_max=2.0, n_traj=2000, seed=42, kick_q=1.0)
        a = langevin_means(cfg)
        b = langevin_means(cfg)
        assert np.array_equal(a.q_mean, b.q_mean)
        assert np.array_equal(a.p_se, b.p_se)

    def test_halving_dt_stays_within_statistics(self):
        mk = lambda dt, seed: LangevinConfig(damping=0.2, omega0=1.0,
                                             beta=1.0, dt=dt, t_max=10.0,
                                             n_traj=3 * 10 ** 4, seed=seed,
                                             kick_q=1.0, kick_p=1.0)
        coarse = langevin_means(mk(0.01, 7))
        fine = langevin_means(mk(0.005, 7))
        idx = np.linspace(1, len(coarse.times) - 1, 10, dtype=int)
        for i in idx:
            se = math.hypot(coarse.q_se[i], fine.q_se[2 * i])
            assert abs(coarse.q_mean[i] - fine.q_mean[2 * i]) < 3.0 * se

    def test_blowup_detected(self):
        cfg = LangevinConfig(damping=0.0, omega0=1.0, beta=1e-12, dt=0.01,
                             t_max=1.0, n_traj=1000, seed=1)
        with pytest.raises(UnstableStep):
            langevin_means(cfg)

    def test_csv_dump(self, tmp_path):
        cfg = LangevinConfig(damping=0.2, omega0=1.0, beta=1.0, dt=0.01,
                             t_max=0.1, n_traj=1000, seed=2)
        out = tmp_path / "means.csv"
        langevin_means(cfg).to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t,q_mean,p_mean"


class TestEmbedding:
    def test_causal_start(self):
        assert embedding_response(0.05, 0.05, 1.0, 1.0, 0.0) == 0.0

    def test_static_sum_rule(self):
        s = embedding_static_sum(0.05, 0.05, 1.0, 1.0)
        assert s == pytest.approx(1.0, rel=1e-5)
        s2 = embedding_static_sum(0.75, 0.63, 1.0, 2.0)
        assert s2 == pytest.approx(0.25, rel=1e-5)

    def test_matches_frequency_domain_response(self):
        from nonmarkov.response import _chi_time_transform, chi_time
        from nonmarkov.spectral import PeakedSD
        ts = np.linspace(0.0, 50.0, 26)
        emb = embedding_response(0.05, 0.05, 1.0, 1.0, ts)
        p = ModelParams(omega0=1.0, beta=1.0)
        sd = PeakedSD(coupling=0.05, width=0.05, resonance=1.0)
        for ti, ei in zip(ts, emb):
            assert chi_time(p, sd, float(ti))[0, 0] == pytest.approx(
                ei, abs=1e-3)
        # chi_time reads the drift matrix that the embedding integrates;
        # the transforms of χ̃ share nothing with it
        for ti, ei in zip(ts[1:], emb[1:]):
            assert _chi_time_transform(p, sd, float(ti))[0, 0] == \
                pytest.approx(ei, abs=1e-3)

    def test_overdamped_auxiliary_mode_rejected(self):
        with pytest.raises(ValueError):
            embedding_response(0.05, 3.0, 1.0, 1.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            embedding_response(0.05, 0.05, 1.0, 1.0, -1.0)
