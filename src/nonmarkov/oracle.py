"""Independent cross-checks for the response machinery.

Two engines that share no numerics with the frequency-domain pipeline:

* a classical Langevin Monte Carlo integrator for the strict-Ohmic
  model, prepared by the same momentum/position kick as the analytic
  propagator, whose ensemble means must agree with `propagate_means`;
* a deterministic four-dimensional ODE, the damped pseudo-mode
  embedding of the peaked spectral density, whose kicked trajectory
  must reproduce `chi_time`.

The ODE integrates `PeakedSD.drift_matrix`, the one copy of the
pseudo-mode matrix.  The pipeline reads that matrix for the quadrature
breakpoints at its eigenvalues and for `chi_time`, which is its
exponential; so the embedding check of the CLI compares the ODE with
the sine and cosine transforms of χ̃ instead, which come from the
closed-form γ̃ of `PeakedSD`.  The tests check the residues of the
matrix against that χ̃, so the two descriptions of the bath agree.

The ODE functions import ``scipy.integrate`` when they run, so importing
this module, and with it the package and the CLI, loads no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UnstableStep
from .spectral import PeakedSD

_BLOWUP = 1e6


@dataclass(frozen=True)
class LangevinConfig:
    """Ensemble description for the classical strict-Ohmic simulation.

    The step bound dt ≤ 0.01/max(ω₀, D) keeps the symplectic part of
    the integrator far inside its stability region, so discretization
    bias stays below the statistical error of any ensemble this size.
    """

    damping: float
    omega0: float
    beta: float
    dt: float
    t_max: float
    n_traj: int
    seed: int
    kick_q: float = 0.0
    kick_p: float = 0.0

    def __post_init__(self) -> None:
        # each message starts with the name of the field at fault
        if not self.omega0 > 0.0:
            raise ValueError("omega0 must be > 0")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and > 0")
        for name in ("kick_q", "kick_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.damping < 0.0:
            raise ValueError("damping must be >= 0")
        if not (0.0 < self.dt <= 0.01 / max(self.omega0, self.damping)):
            raise ValueError("dt must satisfy dt <= 0.01/max(omega0, damping)")
        if self.t_max <= 0.0:
            raise ValueError("t_max must be > 0")
        if self.n_traj < 1000:
            raise ValueError("n_traj must be >= 1000")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class LangevinResult:
    """Ensemble means with per-time standard errors on the dt grid."""

    times: np.ndarray
    q_mean: np.ndarray
    p_mean: np.ndarray
    q_se: np.ndarray
    p_se: np.ndarray

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.q_mean, self.p_mean])
        np.savetxt(path, data, delimiter=",", header="t,q_mean,p_mean",
                   comments="")


def ou_coefficients(damping: float, beta: float, dt: float):
    """Exact one-step Ornstein-Uhlenbeck update (decay, noise scale).

    The noise scale squared is (1 − e^{−2·D·dt})/β, which reduces to
    the white-noise increment variance 2·D·dt/β as D·dt → 0.
    """
    c1 = math.exp(-damping * dt)
    c2 = math.sqrt(max(1.0 - c1 * c1, 0.0) / beta)
    return c1, c2


def langevin_means(cfg: LangevinConfig) -> LangevinResult:
    """Kicked-equilibrium ensemble means of (q, p) under strict-Ohmic
    classical Langevin dynamics q̈ = −ω₀²q − D q̇ + ξ.

    Trajectories start from the coupling-independent classical
    equilibrium Gaussian; the kick (a_q, a_p) shifts q by −a_p and p by
    a_q + D·a_p.  The extra D·a_p impulse is the instantaneous friction
    back-action of a bath that stays centered on the pre-kick position,
    and is what the strict-Ohmic short-time response requires.

    Uses a BAOAB splitting with the exact Ornstein-Uhlenbeck half-step
    and a counter-based generator, so results are reproducible bit for
    bit from the seed alone.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n = cfg.n_traj
    w0sq = cfg.omega0 ** 2

    q = rng.normal(0.0, 1.0 / (math.sqrt(cfg.beta) * cfg.omega0), n)
    p = rng.normal(0.0, 1.0 / math.sqrt(cfg.beta), n)
    q -= cfg.kick_p
    p += cfg.kick_q + cfg.damping * cfg.kick_p

    n_steps = int(round(cfg.t_max / cfg.dt))
    times = np.arange(n_steps + 1) * cfg.dt
    q_mean = np.empty(n_steps + 1)
    p_mean = np.empty(n_steps + 1)
    q_se = np.empty(n_steps + 1)
    p_se = np.empty(n_steps + 1)
    root_n = math.sqrt(n)

    def record(k):
        q_mean[k] = q.mean()
        p_mean[k] = p.mean()
        q_se[k] = q.std(ddof=1) / root_n
        p_se[k] = p.std(ddof=1) / root_n

    record(0)
    c1, c2 = ou_coefficients(cfg.damping, cfg.beta, cfg.dt)
    half = 0.5 * cfg.dt
    for k in range(1, n_steps + 1):
        p -= half * w0sq * q
        q += half * p
        p *= c1
        if c2 > 0.0:
            p += c2 * rng.standard_normal(n)
        q += half * p
        p -= half * w0sq * q
        if max(np.abs(q).max(), np.abs(p).max()) > _BLOWUP:
            raise UnstableStep(f"trajectory magnitude exceeded {_BLOWUP:g} "
                               f"at t = {times[k]:g}")
        record(k)

    return LangevinResult(times, q_mean, p_mean, q_se, p_se)


def _embedding_matrix(coupling: float, width: float, resonance: float,
                      omega0: float) -> np.ndarray:
    """The peaked bath's drift matrix for (q, p, x, y).  ``PeakedSD``
    checks the bath; the embedding adds ω₀ > 0 and the oscillatory
    regime."""
    sd = PeakedSD(coupling, width, resonance)
    if not omega0 > 0.0:
        raise ValueError("omega0 must be > 0")
    if not 2.0 * resonance ** 2 - width ** 2 > 0.0:
        raise ValueError("embedding oracle requires the oscillatory "
                         "auxiliary-mode regime 2·resonance² − width² > 0")
    return sd.drift_matrix(omega0)


def embedding_response(coupling: float, width: float, resonance: float,
                       omega0: float, t) -> np.ndarray | float:
    """Position response of the pseudo-mode embedding to a unit
    momentum impulse at t = 0; equals χ_qq(t) of the peaked model.

    Accepts a scalar time or an array of times ≥ 0.
    """
    from scipy.integrate import solve_ivp

    mat = _embedding_matrix(coupling, width, resonance, omega0)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if (t_arr < 0.0).any():
        raise ValueError("times must be >= 0")

    t_end = float(t_arr.max())
    if t_end == 0.0:
        out = np.zeros_like(t_arr)
        return out if np.ndim(t) else float(out[0])

    sol = solve_ivp(lambda _, s: mat @ s, (0.0, t_end),
                    np.array([0.0, 1.0, 0.0, 0.0]),
                    t_eval=np.sort(np.unique(t_arr)), method="DOP853",
                    rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise NonConvergence(f"embedding integration failed: {sol.message}")
    lookup = dict(zip(sol.t, sol.y[0]))
    out = np.array([0.0 if ti == 0.0 else lookup[ti] for ti in t_arr])
    return out if np.ndim(t) else float(out[0])


def embedding_static_sum(coupling: float, width: float, resonance: float,
                         omega0: float) -> float:
    """∫₀^∞ χ_qq(t) dt computed from the embedding by augmenting the
    state with the running integral; must equal the static response
    1/ω₀².  The horizon is set by the slowest decay rate."""
    from scipy.integrate import solve_ivp

    mat = _embedding_matrix(coupling, width, resonance, omega0)
    rates = -np.real(np.linalg.eigvals(mat))
    slowest = float(rates.min())
    if slowest <= 0.0:
        raise NonConvergence("embedding has a non-decaying mode")
    t_end = min(40.0 / slowest, 1e6)

    def rhs(_, s):
        return np.concatenate([mat @ s[:4], s[:1]])

    sol = solve_ivp(rhs, (0.0, t_end), np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
                    method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise NonConvergence(f"embedding integration failed: {sol.message}")
    return float(sol.y[4, -1])
