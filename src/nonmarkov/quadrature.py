"""Adaptive quadrature for complex-valued integrands.

The engine is a Gauss-Kronrod (G7, K15) panel scheme with embedded error
estimation and deterministic bisection refinement.  On top of it sit the
operations the rest of the package needs:

* ``integrate``        adaptive integral on [a, b], b may be +inf
* ``integrate_line``   truncated whole-line integral on [-W, W] with a
                       power-law tail estimate and parity shortcuts
* ``principal_value``  Cauchy principal value by symmetric exclusion and
                       Richardson extrapolation over ε, ε/2, ε/4
* ``sine_transform``   (2/π)∫₀^∞ f(ω) sin(ωt) dω with period-locked panels
* ``cosine_transform`` same with cos(ωt)
* ``inner_product_l2`` ⟨f,g⟩ = ∫ f(ω) g*(ω) dω over [-W, W]; ``norm_l2``

Integrand evaluators must be vectorized: they receive a float ndarray and
return an ndarray of values (real or complex).  Every operation is pure,
and repeated evaluation with identical inputs is bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, InitVar
from typing import Callable

import numpy as np

from .errors import (
    NonConvergence,
    NonFinite,
    ParityViolation,
    PVFailure,
    TailDominates,
)

__all__ = [
    "QuadratureConfig",
    "Integrand",
    "LineIntegral",
    "integrate",
    "integrate_line",
    "integrate_line_info",
    "principal_value",
    "sine_transform",
    "cosine_transform",
    "inner_product_l2",
    "inner_product_info",
    "norm_l2",
]

# 15-point Kronrod extension of 7-point Gauss, abscissae/weights on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate((-_XGK[:7], _XGK[::-1]))          # 15 sorted nodes
_KWEIGHTS = np.concatenate((_WGK[:7], _WGK[::-1]))
_GWEIGHTS = np.zeros(15)
_GWEIGHTS[[1, 3, 5, 7, 9, 11, 13]] = np.concatenate((_WG[:3], _WG[::-1]))

_PARITIES = ("none", "even", "odd", "hermitian")
_PARITY_PROBE_SEED = 180451
_MAX_ROUNDS = 400
_TINY = 1e-300


@dataclass(frozen=True)
class QuadratureConfig:
    """Knobs for all quadrature operations.

    half_width
        Truncation W of whole-line integrals to [-W, W].
    rel_tol, abs_tol
        Success means estimated error ≤ max(abs_tol, rel_tol·|result|).
    pv_radius
        Starting symmetric exclusion radius ε for principal values.
    max_subdivisions
        Cap on the total number of panels of one adaptive integral.
    oscillatory_panel_per_period
        Minimum panels per oscillation period 2π/t in the transforms.
    """

    half_width: float = 200.0
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    pv_radius: float = 1e-3
    max_subdivisions: int = 20000
    oscillatory_panel_per_period: int = 8

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and self.rel_tol > 0 and self.abs_tol > 0
                and self.pv_radius > 0):
            raise ValueError("half_width, rel_tol, abs_tol, pv_radius must be > 0")
        if self.max_subdivisions < 1 or self.oscillatory_panel_per_period < 1:
            raise ValueError("subdivision and panel counts must be >= 1")


_DEFAULT_CFG = QuadratureConfig()


@dataclass(frozen=True)
class Integrand:
    """A vectorized evaluator plus an optional symmetry declaration.

    parity describes f on the whole real line: "even" f(-x) = f(x),
    "odd" f(-x) = -f(x), "hermitian" f(-x) = f(x)*.  Declared parities
    are spot-checked at three fixed pseudo-random points in |x| ∈ [0.1, 10];
    a failed check rejects the handle.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    parity: str = "none"
    skip_check: InitVar[bool] = False

    def __post_init__(self, skip_check: bool) -> None:
        if self.parity not in _PARITIES:
            raise ValueError(f"unknown parity {self.parity!r}, use one of {_PARITIES}")
        if self.parity != "none" and not skip_check:
            self._verify_parity()

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=complex)

    def _verify_parity(self) -> None:
        rng = np.random.default_rng(_PARITY_PROBE_SEED)
        x = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        fp = self(x)
        fm = self(-x)
        expect = {"even": fp, "odd": -fp, "hermitian": np.conj(fp)}[self.parity]
        scale = np.maximum(np.abs(fp), np.abs(fm))
        bad = np.abs(fm - expect) > 1e-10 * np.maximum(scale, _TINY)
        if bad.any():
            raise ParityViolation(
                f"declared parity {self.parity!r} fails at x = {x[bad][0]:.6g}")


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray):
    """G7/K15 on each [lo_i, hi_i]; one batched evaluator call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(fn(x.ravel()), dtype=complex)
    if y.shape != (x.size,):
        raise TypeError("integrand evaluator must return one value per input point")
    y = y.reshape(x.shape)
    finite = np.isfinite(y)
    if not finite.all():
        where = x[~finite][0]
        raise NonFinite(f"integrand returned a non-finite value at x = {where:.6g}",
                        where=float(where))
    vals = (y @ _KWEIGHTS) * half
    errs = np.abs((y @ (_KWEIGHTS - _GWEIGHTS)) * half)
    return vals, errs


def _adaptive(fn, edges: np.ndarray, cfg: QuadratureConfig,
              max_panels: int | None = None):
    """Globally adaptive bisection over an initial sorted edge set.

    Each round splits the set of panels carrying the top 90% of the total
    error estimate, batching all child evaluations into one call.  Panel
    bookkeeping is kept sorted by left edge, so the refinement sequence
    (and the floating-point sum) is deterministic.

    Returns (value, error_bound, panel_count).
    """
    max_panels = max_panels or cfg.max_subdivisions
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("integration edges must be strictly increasing")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(fn, lo, hi)

    for _ in range(_MAX_ROUNDS):
        total = vals.sum()
        err_total = float(errs.sum())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err_total <= tol:
            return total, err_total, lo.size
        budget = max_panels - lo.size
        span = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        splittable = (hi - lo) > 1e-14 * span
        if budget < 1 or not splittable.any():
            raise NonConvergence(
                f"adaptive quadrature did not reach tolerance {tol:.3g} "
                f"(error bound {err_total:.3g} with {lo.size} panels)",
                estimate=total, error_bound=err_total)

        cand = np.nonzero(splittable)[0]
        order = cand[np.lexsort((lo[cand], -errs[cand]))]
        cum = np.cumsum(errs[order])
        k = int(np.searchsorted(cum, 0.9 * err_total) + 1)
        k = min(k, order.size, budget)
        sel = order[:k]

        mids = 0.5 * (lo[sel] + hi[sel])
        child_lo = np.concatenate((lo[sel], mids))
        child_hi = np.concatenate((mids, hi[sel]))
        cvals, cerrs = _eval_panels(fn, child_lo, child_hi)

        keep = np.ones(lo.size, dtype=bool)
        keep[sel] = False
        lo = np.concatenate((lo[keep], child_lo))
        hi = np.concatenate((hi[keep], child_hi))
        vals = np.concatenate((vals[keep], cvals))
        errs = np.concatenate((errs[keep], cerrs))
        idx = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[idx], hi[idx], vals[idx], errs[idx]

    raise NonConvergence(
        "adaptive quadrature exceeded the refinement round limit",
        estimate=vals.sum(), error_bound=float(errs.sum()))


def _with_breakpoints(a: float, b: float, breakpoints=()) -> np.ndarray:
    pts = [float(p) for p in breakpoints if a < p < b]
    return np.array(sorted({a, b, *pts}))


def integrate(f, a: float, b: float, cfg: QuadratureConfig | None = None,
              *, breakpoints=()) -> complex:
    """Adaptive integral of f over [a, b]; b may be +inf (half-line map).

    Raises NonConvergence (with best estimate attached) when the panel
    budget is exhausted, NonFinite if the integrand returns NaN/inf.
    """
    cfg = cfg or _DEFAULT_CFG
    if math.isinf(b):
        if math.isinf(a):
            raise ValueError("use integrate_line for the whole real line")
        # x = a + u/(1-u) maps [0,1) to [a, inf); GK nodes never touch u=1.
        def mapped(u):
            om = 1.0 - u
            return f(a + u / om) / om**2
        edges = np.concatenate(([0.0], 1.0 - 0.5 ** np.arange(1, 14), [1.0]))
        mapped_bp = [(x - a) / (1.0 + x - a) for x in breakpoints if x > a]
        edges = np.array(sorted({*edges, *mapped_bp}))
        val, _, _ = _adaptive(mapped, edges, cfg)
        return complex(val)
    if math.isinf(a):
        return integrate(lambda x: f(-x), -b, -a, cfg,
                         breakpoints=[-p for p in breakpoints])
    if not a < b:
        raise ValueError("integration bounds must satisfy a < b")
    val, _, _ = _adaptive(f, _with_breakpoints(a, b, breakpoints), cfg)
    return complex(val)


def _power_law_tail(f, W: float) -> float:
    """Estimate ∫_W^∞ |f| from a power-law fit of |f| on [W/10, W].

    Returns inf when the fitted decay is slower than 1/ω (not integrable),
    0.0 when the samples already underflowed to zero.
    """
    xs = np.geomspace(W / 10.0, W, 9)
    ys = np.abs(f(xs))
    mask = ys > _TINY
    if mask.sum() < 3:
        return 0.0
    logx = np.log(xs[mask])
    logy = np.log(ys[mask])
    p, logA = np.polyfit(logx, logy, 1)
    if p >= -1.0000001:
        return math.inf
    # one exponent: exp(logA) alone overflows for fast-decaying |f|
    return math.exp(logA + (p + 1.0) * math.log(W)) / (-(p + 1.0))


def _decade_edges(W: float, breakpoints=()) -> np.ndarray:
    """[0, W] seeded with decade edges so narrow structure cannot hide."""
    decades = W * 10.0 ** np.arange(-6.0, 0.0)
    pts = [float(p) for p in breakpoints if 0.0 < p < W]
    return np.array(sorted({0.0, W, *decades, *pts}))


@dataclass(frozen=True)
class LineIntegral:
    """Whole-line integral value plus its truncation diagnostics."""

    value: complex
    error: float
    tail: float
    panels: int


def integrate_line_info(f: Integrand, cfg: QuadratureConfig | None = None,
                        *, breakpoints=()) -> LineIntegral:
    """∫_{-W}^{W} f dω with a tail estimate; does not police the tail."""
    cfg = cfg or _DEFAULT_CFG
    W = cfg.half_width
    parity = getattr(f, "parity", "none")

    if parity == "odd":
        return LineIntegral(0.0 + 0.0j, 0.0, 0.0, 0)

    if parity == "even":
        val, err, n = _adaptive(lambda x: 2.0 * f(x),
                                _decade_edges(W, breakpoints), cfg)
        tail = 2.0 * _power_law_tail(f, W)
    elif parity == "hermitian":
        # f(-ω) + f(ω) = 2 Re f(ω), so the line integral is real.
        val, err, n = _adaptive(lambda x: 2.0 * np.real(f(x)) + 0.0j,
                                _decade_edges(W, breakpoints), cfg)
        tail = 2.0 * _power_law_tail(f, W)
    else:
        pos = _decade_edges(W, breakpoints)
        neg = -pos[::-1]
        edges = np.concatenate((neg[:-1], pos))
        val, err, n = _adaptive(f, edges, cfg)
        tail = _power_law_tail(f, W) + _power_law_tail(lambda x: f(-x), W)

    return LineIntegral(complex(val), float(err), float(tail), int(n))


def integrate_line(f: Integrand, cfg: QuadratureConfig | None = None,
                   *, breakpoints=()) -> complex:
    """Truncated whole-line integral; raises TailDominates when the
    estimated tail exceeds 10·rel_tol·|value| (half-width too small)."""
    cfg = cfg or _DEFAULT_CFG
    res = integrate_line_info(f, cfg, breakpoints=breakpoints)
    if res.tail > 10.0 * cfg.rel_tol * abs(res.value):
        raise TailDominates(
            f"tail estimate {res.tail:.3g} dominates result {res.value:.6g}; "
            f"increase half_width", value=res.value, tail=res.tail)
    return res.value


def principal_value(f, pole: float, a: float, b: float,
                    cfg: QuadratureConfig | None = None) -> complex:
    """Cauchy principal value of ∫_a^b f with a simple pole inside.

    Symmetric exclusion I(ε) has error linear in ε from the regular part,
    cubic beyond that; two Richardson stages over ε, ε/2, ε/4 cancel both.
    """
    cfg = cfg or _DEFAULT_CFG
    if not (a < pole < b):
        raise PVFailure(f"pole {pole} must lie strictly inside ({a}, {b})")
    gap = min(pole - a, b - pole)
    eps0 = min(cfg.pv_radius, gap / 8.0)
    if eps0 <= 1e-13 * max(1.0, abs(pole)):
        raise PVFailure("pole too close to an endpoint for symmetric exclusion")

    inner_cfg = QuadratureConfig(
        half_width=cfg.half_width, rel_tol=cfg.rel_tol / 10.0,
        abs_tol=cfg.abs_tol / 10.0, pv_radius=cfg.pv_radius,
        max_subdivisions=cfg.max_subdivisions,
        oscillatory_panel_per_period=cfg.oscillatory_panel_per_period)

    def excluded(eps: float) -> complex:
        # geometric edges walking away from the pole keep the 1/(x-pole)
        # growth inside well-resolved panels
        left = [pole - eps]
        while left[-1] - a > eps and len(left) < 60:
            left.append(pole - (pole - left[-1]) * 2.0)
        edges_l = np.array(sorted({a, *[x for x in left if x > a], pole - eps}))
        right = [pole + eps]
        while b - right[-1] > eps and len(right) < 60:
            right.append(pole + (right[-1] - pole) * 2.0)
        edges_r = np.array(sorted({b, *[x for x in right if x < b], pole + eps}))
        vl, _, _ = _adaptive(f, edges_l, inner_cfg)
        vr, _, _ = _adaptive(f, edges_r, inner_cfg)
        return vl + vr

    # Neville tableau over halved radii; the exclusion error is odd in ε
    # (2g'ε + g'''ε³/9 + …), so stage k cancels the ε^(2k-1) term.  Three
    # levels usually suffice; more are added when the regular part still
    # varies on the scale of ε₀ itself (pole near an endpoint).
    rows: list[list[complex]] = []
    resid = math.inf
    for m in range(8):
        row = [excluded(eps0 / 2.0 ** m)]
        for k, above in enumerate(rows[-1] if rows else ()):
            f2 = 2.0 ** (2 * k + 1)
            row.append((f2 * row[k] - above) / (f2 - 1.0))
        rows.append(row)
        if m < 2:
            continue
        top = row[-1]
        scale = max(abs(top), abs(row[0]), cfg.abs_tol)
        resid = abs(top - row[-2])
        if resid <= max(1e-6 * scale, 1e3 * max(cfg.abs_tol, cfg.rel_tol * scale)):
            return complex(top)
    raise NonConvergence(
        f"principal-value exclusion sequence did not contract "
        f"(residual {resid:.3g} at scale {scale:.3g})",
        estimate=complex(rows[-1][-1]), error_bound=resid)


def _oscillatory_tail(f, W: float, t: float, kind: str) -> complex:
    """∫_W^∞ f(ω)·{sin,cos}(ωt) dω by integration by parts (3 terms).

    Valid for smooth decaying f and Wt ≳ 20; the remainder is
    O(|f″(W)|/(W t³)).  Derivatives are central differences at W.
    """
    h = max(W * 1e-4, 1e-8)
    fw = complex(f(np.array([W]))[0])
    fp_ = f(np.array([W + h, W - h]))
    fp = (fp_[0] - fp_[1]) / (2.0 * h)
    fpp = (fp_[0] - 2.0 * fw + fp_[1]) / h**2
    s, c = math.sin(W * t), math.cos(W * t)
    if kind == "sin":
        return fw * c / t - fp * s / t**2 - fpp * c / t**3
    return -fw * s / t - fp * c / t**2 + fpp * s / t**3


def _oscillatory_transform(f, t: float, cfg: QuadratureConfig, kind: str,
                           breakpoints=()) -> float:
    cfg = cfg or _DEFAULT_CFG
    if t < 0:
        raise ValueError("transform requires t >= 0")
    kernel = np.sin if kind == "sin" else np.cos

    if t == 0.0:
        if kind == "sin":
            return 0.0
        val, _, _ = _adaptive(f, _decade_edges(cfg.half_width, breakpoints), cfg)
        return float(np.real(val)) * (2.0 / math.pi)

    # Push the truncation out until at least ~3 periods fit beyond the
    # features, so the integration-by-parts tail correction applies.
    W = max(cfg.half_width, 20.0 / t)
    period = 2.0 * math.pi / t
    max_width = period / cfg.oscillatory_panel_per_period

    base = _decade_edges(W, breakpoints)
    pieces = [np.array([base[0]])]
    for lo, hi in zip(base[:-1], base[1:]):
        n = max(1, int(math.ceil((hi - lo) / max_width)))
        pieces.append(np.linspace(lo, hi, n + 1)[1:])
    edges = np.concatenate(pieces)

    val, _, _ = _adaptive(lambda x: f(x) * kernel(x * t), edges, cfg)
    val = val + _oscillatory_tail(f, W, t, kind)
    return float(np.real(val)) * (2.0 / math.pi)


def sine_transform(f, t: float, cfg: QuadratureConfig | None = None,
                   *, breakpoints=()) -> float:
    """(2/π)∫₀^∞ f(ω) sin(ωt) dω with ≥ oscillatory_panel_per_period
    panels per period 2π/t.  Returns the real part of the transform."""
    return _oscillatory_transform(f, t, cfg or _DEFAULT_CFG, "sin", breakpoints)


def cosine_transform(f, t: float, cfg: QuadratureConfig | None = None,
                     *, breakpoints=()) -> float:
    """(2/π)∫₀^∞ f(ω) cos(ωt) dω, same panelling policy as sine_transform."""
    return _oscillatory_transform(f, t, cfg or _DEFAULT_CFG, "cos", breakpoints)


def _product_parity(pf: str, pg: str) -> str:
    """Parity of ω ↦ f(ω)·g*(ω) given the factor parities."""
    if pf == "hermitian" and pg == "hermitian":
        return "hermitian"
    if {pf, pg} == {"even"} or {pf, pg} == {"odd"}:
        return "even"
    if {pf, pg} == {"even", "odd"}:
        return "odd"
    return "none"


def inner_product_info(f: Integrand, g: Integrand,
                       cfg: QuadratureConfig | None = None,
                       *, breakpoints=()) -> LineIntegral:
    """⟨f,g⟩ over [-W, W] with tail diagnostics, no tail policing."""
    prod = Integrand(lambda x: f(x) * np.conj(g(x)),
                     _product_parity(getattr(f, "parity", "none"),
                                     getattr(g, "parity", "none")),
                     skip_check=True)
    return integrate_line_info(prod, cfg, breakpoints=breakpoints)


def inner_product_l2(f: Integrand, g: Integrand,
                     cfg: QuadratureConfig | None = None,
                     *, breakpoints=()) -> complex:
    """L2 inner product ⟨f,g⟩ = ∫_{-W}^{W} f(ω) g*(ω) dω."""
    cfg = cfg or _DEFAULT_CFG
    res = inner_product_info(f, g, cfg, breakpoints=breakpoints)
    if res.tail > 10.0 * cfg.rel_tol * abs(res.value):
        raise TailDominates(
            f"tail estimate {res.tail:.3g} dominates inner product "
            f"{res.value:.6g}", value=res.value, tail=res.tail)
    return res.value


def norm_l2(f: Integrand, cfg: QuadratureConfig | None = None,
            *, breakpoints=()) -> float:
    """√⟨f,f⟩ ≥ 0 over [-W, W]."""
    val = inner_product_l2(f, f, cfg, breakpoints=breakpoints)
    return math.sqrt(max(val.real, 0.0))
