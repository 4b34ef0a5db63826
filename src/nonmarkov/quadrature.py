"""Adaptive quadrature for complex-valued integrands.

The engine is a Gauss-Kronrod (G7, K15) panel scheme with embedded error
estimation and deterministic bisection refinement.  An integrand may
return k rows of values; all rows then share one panel set, and the pass
converges only when every row meets its own tolerance.  On top of the
engine sit the operations the rest of the package needs:

* ``integrate``          adaptive integral on [a, b], b may be +inf
* ``inner_product_info`` ⟨f,g⟩ = ∫ f(ω) g*(ω) dω, ‖f‖² and ‖g‖² over
                         the whole real line in one half-line pass folded
                         onto [0, ∞), for every row of the sides (f, g)
                         of one callable
* ``principal_value``    Cauchy principal value by symmetric exclusion and
                         Richardson extrapolation over ε, ε/2, ε/4
* ``sine_transform``     (2/π)∫₀^∞ f(ω) sin(ωt) dω with period-locked panels
                         on [0, W] and a by-parts tail beyond W; W doubles
                         until the tail's remainder bound is within 1e-12
* ``cosine_transform``   same with cos(ωt); at t = 0 the half-line
                         integral of f, which must converge

An integrand is a plain vectorized callable: it receives a float ndarray
of N points and returns N values (real or complex), or an array of shape
rows + (N,).  Every operation is pure, and repeated evaluation with
identical inputs is bit-identical.

Every operation runs at the same fixed tolerances: 1e-9 relative for an
adaptive integral, 1e-12 absolute for a transform's tail and a principal
value's residual, and at most 20,000 panels in one pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, NonFinite, PVFailure

__all__ = [
    "LineIntegral",
    "integrate",
    "principal_value",
    "sine_transform",
    "cosine_transform",
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

_MAX_ROUNDS = 400
_ROUNDOFF = 50.0 * np.finfo(float).eps
_TINY = 1e-300
# minimum panels per oscillation period 2π/t in the transforms
_PANELS_PER_PERIOD = 8
# The fixed tolerances: relative for every adaptive pass, absolute for a
# transform's by-parts tail and a principal value's Richardson residual,
# and the panel cap of one adaptive pass.
_REL_TOL = 1e-9
_ABS_TOL = 1e-12
_MAX_PANELS = 20000


def _eval_panels(fn, lo: np.ndarray, hi: np.ndarray):
    """G7/K15 on each [lo_i, hi_i] for every row of fn; one batched
    evaluator call.  Values and errors have shape rows + (panels,)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(fn(x.ravel()), dtype=complex)
    if y.ndim == 0 or y.shape[-1] != x.size:
        raise TypeError("integrand evaluator must return one value per "
                        "input point in each row")
    y = y.reshape(y.shape[:-1] + x.shape)
    finite = np.isfinite(y).reshape((-1,) + x.shape).all(axis=0)
    if not finite.all():
        where = x[~finite][0]
        raise NonFinite(f"integrand returned a non-finite value at x = {where:.6g}",
                        where=float(where))
    # einsum, not a matmul: BLAS would split the long gemv over threads
    vals = np.einsum("...k,k->...", y, _KWEIGHTS) * half
    errs = np.abs(np.einsum("...k,k->...", y, _KWEIGHTS - _GWEIGHTS) * half)
    return vals, errs


def _adaptive(fn, edges: np.ndarray, x_of=lambda u: u, *,
              rel_tol: float = _REL_TOL):
    """Globally adaptive bisection over an initial sorted edge set.

    All rows of fn share one panel set.  The pass converges when every
    row's error bound is within max(rel_tol·|row value|,
    50·eps·Σ|panel values|); the last term is the round-off limit of a
    row whose panels cancel (Piessens et al., QUADPACK, 1983).  The test
    is relative only, so the result scales with fn however small it is;
    rel_tol is _REL_TOL except in the inner passes of principal values.
    A panel's weight is the sum of its rows' errors in units of their own
    tolerances (scaled by the tightest, so one row weighs its plain
    error); each round splits the panels carrying the top 90% of the
    total weight, batching all child evaluations into one call.  Panel
    bookkeeping is kept sorted by left edge, so the refinement sequence
    (and the floating-point sum) is deterministic.

    A non-finite value raises NonFinite, which carries the result on
    the panels so far once refinement has begun.  A pass that runs out
    of panels (_MAX_PANELS), of rounds or of panels wide enough to split
    raises NonConvergence at its heaviest panel: ``where`` is the
    panel's midpoint, mapped by x_of from the variable of fn to the
    caller's x, and the message says whether the panel reached the 1e-14
    relative split limit.

    Returns (value, error_bound, panel_count); value and error_bound have
    the row shape of fn, () for a scalar integrand.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("integration edges must be strictly increasing")
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _eval_panels(fn, lo, hi)

    for rounds in range(_MAX_ROUNDS + 1):
        total = vals.sum(axis=-1)
        err_total = errs.sum(axis=-1)
        # _TINY keeps a row that is exactly zero off 0/0 in the weights
        tol = np.maximum(_TINY, rel_tol * np.abs(total))
        # a row that cancels is known only to the rounding of its panels
        tol = np.maximum(tol, _ROUNDOFF * np.abs(vals).sum(axis=-1))
        if np.all(err_total <= tol):
            return total, err_total, lo.size
        weight = (errs * (tol.min() / tol)[..., None]).reshape(-1, lo.size)
        weight = weight.sum(axis=0)
        budget = _MAX_PANELS - lo.size
        span = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        splittable = (hi - lo) > 1e-14 * span
        if budget < 1 or not splittable.any() or rounds == _MAX_ROUNDS:
            worst = np.unravel_index(np.argmax(err_total / tol), tol.shape)
            heavy = int(np.argmax(weight))
            left, right = x_of(lo[heavy]), x_of(hi[heavy])
            state = ("could still be split" if splittable[heavy] else
                     "has reached the 1e-14 relative split limit")
            raise NonConvergence(
                f"adaptive quadrature did not reach tolerance {tol[worst]:.3g} "
                f"(error bound {err_total[worst]:.3g} with {lo.size} panels "
                f"after {rounds} rounds); the heaviest panel "
                f"[{left:.15g}, {right:.15g}] {state}",
                estimate=total, error_bound=err_total,
                where=float(x_of(0.5 * (lo[heavy] + hi[heavy]))))

        cand = np.nonzero(splittable)[0]
        order = cand[np.lexsort((lo[cand], -weight[cand]))]
        cum = np.cumsum(weight[order])
        k = int(np.searchsorted(cum, 0.9 * weight.sum()) + 1)
        k = min(k, order.size, budget)
        sel = order[:k]

        mids = 0.5 * (lo[sel] + hi[sel])
        child_lo = np.concatenate((lo[sel], mids))
        child_hi = np.concatenate((mids, hi[sel]))
        try:
            cvals, cerrs = _eval_panels(fn, child_lo, child_hi)
        except NonFinite as exc:
            exc.estimate = total
            raise

        keep = np.ones(lo.size, dtype=bool)
        keep[sel] = False
        lo = np.concatenate((lo[keep], child_lo))
        hi = np.concatenate((hi[keep], child_hi))
        vals = np.concatenate((vals[..., keep], cvals), axis=-1)
        errs = np.concatenate((errs[..., keep], cerrs), axis=-1)
        idx = np.argsort(lo, kind="stable")
        lo, hi, vals, errs = lo[idx], hi[idx], vals[..., idx], errs[..., idx]


def _with_breakpoints(a: float, b: float, breakpoints=()) -> np.ndarray:
    pts = [float(p) for p in breakpoints if a < p < b]
    return np.array(sorted({a, b, *pts}))


# The reciprocal map of ``_half_line`` reaches x − a = s/(2s − v)·s ≈
# 2.3e15·s one double below v = 2s, so a breakpoint further than _FAR
# beyond a, where that node would overflow, seeds nothing
_FAR = 1e290


def _half_line(f, a: float, breakpoints=()):
    """One adaptive pass of f over [a, ∞); returns what ``_adaptive`` does.

    The pass runs in v ∈ [0, 2s), with s the largest breakpoint beyond
    a (at least 1): x = a + v up to v = s, so the nodes where f has its
    structure are exact, and x = a + s²/(2s − v) beyond, the reciprocal
    map of QUADPACK's qagi, which meets the first piece with slope 1.
    Its seed edges v = 2s − s·2⁻ᵏ are x = a + s·2ᵏ, k = 0 … 13.  A
    divergent integral drives nodes to v = 2s, where the mapped
    integrand is infinite; that raises NonConvergence, and a non-finite
    f elsewhere raises NonFinite at its own x.  A breakpoint more than
    _FAR beyond a seeds nothing.  The decades x = a + 10ᵏ, k ≥ 0, that
    lie a decade or more below the nearest breakpoint are seeded too: a
    first panel from a to a far breakpoint has no node near the unit
    scale, and an f that underflows at all its nodes reads as 0.
    """
    breakpoints = [x - a for x in breakpoints if 0.0 < x - a <= _FAR]
    if breakpoints:
        breakpoints += (10.0 ** np.arange(
            math.floor(math.log10(min(breakpoints))))).tolist()
    s = max([1.0, *breakpoints])

    def stretch(v):
        # dx/dv = stretch², and x = a + s·stretch beyond s: s² may overflow
        with np.errstate(divide="ignore"):
            return np.where(v <= s, 1.0, s / (2.0 * s - v))

    def x_of(v):
        return a + np.where(v <= s, v, s * stretch(v))

    def mapped(v):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = f(x_of(v))
        # a value past the largest float is inf, raised as NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            return y * stretch(v) ** 2
    edges = [0.0, *breakpoints, *2.0 * s - s * 0.5 ** np.arange(14), 2.0 * s]
    try:
        return _adaptive(mapped, np.array(sorted(set(edges))), x_of)
    except NonFinite as exc:
        if exc.where == 2.0 * s:
            raise NonConvergence(
                f"integral over [{a:.6g}, inf) diverges: the panels reached "
                "infinity without meeting the tolerance",
                estimate=exc.estimate) from exc
        x = float(x_of(exc.where))
        raise NonFinite(f"integrand returned a non-finite value at "
                        f"x = {x:.6g}", where=x, estimate=exc.estimate) from exc


def integrate(f, a: float, b: float, *,
              breakpoints=()) -> complex | np.ndarray:
    """Adaptive integral of f over [a, b]; a must be finite and b may be
    +inf (half-line map).

    A scalar f gives a complex; a k-row f gives the complex array of its
    k integrals, all rows on one shared panel set, each row with its own
    tolerance.  Raises NonConvergence (with best estimate attached) when
    the panel budget is exhausted or a half-line integral diverges,
    NonFinite if the integrand returns NaN/inf.
    """
    if math.isinf(a):
        raise ValueError("the lower integration bound must be finite")
    if b == math.inf:
        val, _, _ = _half_line(f, a, breakpoints)
    elif not a < b:
        raise ValueError("integration bounds must satisfy a < b")
    else:
        val, _, _ = _adaptive(f, _with_breakpoints(a, b, breakpoints))
    return complex(val) if np.ndim(val) == 0 else val


def _decade_edges(W: float, breakpoints=()) -> np.ndarray:
    """[0, W] seeded with decade edges so narrow structure cannot hide."""
    return _with_breakpoints(0.0, W, [*W * 10.0 ** np.arange(-6.0, 0.0),
                                      *breakpoints])


# the whole-line pass is seeded with the decade edges of [0, 200], where
# its exact nodes end and its map to infinity begins; 200 bounds nothing
_LINE_TOP = 200.0


@dataclass(frozen=True)
class LineIntegral:
    """⟨f,g⟩, ‖f‖² and ‖g‖² over the whole real line from one shared
    adaptive pass: value has shape (3,) + rows in that order, rows the
    row shape of each side, and panels counts the panels of the pass."""

    value: np.ndarray
    panels: int


def inner_product_info(sides, *, breakpoints=()) -> LineIntegral:
    """⟨f,g⟩ = ∫ f(ω) g*(ω) dω, ‖f‖² and ‖g‖² over the whole real line
    in one pass.

    sides is one callable that returns f and g stacked on a leading axis
    of 2, shape (2,) + rows + (N,) for N points; row r of f pairs with
    row r of g, and each of the 3·rows integrals keeps its own
    tolerance.  The pass is one ``_half_line`` over [0, ∞), seeded with
    the decade edges of [0, 200] and the breakpoints inside it (the
    sides of a bath may overflow at the far breakpoints of an extreme
    coupling), calling sides once per panel batch on the nodes x and
    their mirrors −x, and each product P integrates as P(x) + P(−x).
    A side that is not square-integrable raises NonConvergence
    ("... diverges"), and a product past the largest float NonFinite.
    """
    def folded(x):
        fx, gx = np.asarray(sides(np.concatenate((x, -x))), dtype=complex)
        # a product past the largest float is inf, raised as NonFinite
        with np.errstate(over="ignore", invalid="ignore"):
            prods = np.stack((fx * np.conj(gx), (fx * np.conj(fx)).real,
                              (gx * np.conj(gx)).real))
            return prods[..., :x.size] + prods[..., x.size:]

    val, _, n = _half_line(folded, 0.0, _decade_edges(_LINE_TOP, breakpoints))
    return LineIntegral(val + 0.0j, int(n))


def principal_value(f, pole: float, a: float, b: float, *,
                    radius: float = 1e-3,
                    abs_tol: float = _ABS_TOL) -> complex:
    """Cauchy principal value of ∫_a^b f with a simple pole inside.

    Symmetric exclusion I(ε) has error linear in ε from the regular part,
    cubic beyond that; two Richardson stages over ε, ε/2, ε/4 cancel both.
    `radius` is the starting exclusion radius ε (> 0); `abs_tol` is the
    absolute floor of the residual test, which a kernel far below 1 in
    size needs lowered.
    """
    if not radius > 0.0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if not (a < pole < b):
        raise PVFailure(f"pole {pole} must lie strictly inside ({a}, {b})")
    gap = min(pole - a, b - pole)
    eps0 = min(radius, gap / 8.0)
    if eps0 <= 1e-13 * max(1.0, abs(pole)):
        raise PVFailure("pole too close to an endpoint for symmetric exclusion")

    inner_tol = _REL_TOL / 10.0

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
        vl, _, _ = _adaptive(f, edges_l, rel_tol=inner_tol)
        vr, _, _ = _adaptive(f, edges_r, rel_tol=inner_tol)
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
        scale = max(abs(top), abs(row[0]), abs_tol)
        resid = abs(top - row[-2])
        if resid <= max(1e-6 * scale, 1e3 * max(abs_tol, _REL_TOL * scale)):
            return complex(top)
    raise NonConvergence(
        f"principal-value exclusion sequence did not contract "
        f"(residual {resid:.3g} at scale {scale:.3g})",
        estimate=complex(rows[-1][-1]), error_bound=resid)


# Central stencils on the offsets -3..3 (in steps h) for f, f′, …, f⁽⁵⁾
# at the middle point; row k is in units of h⁻ᵏ.
_STENCIL_OFFSETS = np.arange(-3.0, 4.0)
_STENCILS = np.array([
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0,
    np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0,
    np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0,
    np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / 6.0,
    np.array([-1.0, 4.0, -5.0, 0.0, 5.0, -4.0, 1.0]) / 2.0,
])


def _oscillatory_tail(f, W: float, t: float, sin_rows):
    """∫_W^∞ f(ω)·{sin,cos}(ωt) dω for every row of f by integration by
    parts, and a bound on what the expansion leaves out.

    sin_rows marks the rows with a sine kernel.  The tail keeps 5 terms,
    Σ_k f⁽ᵏ⁾(W)·kernel(Wt + (k+1)π/2)/t^(k+1) for k = 0…4; the first
    neglected term is |f⁽⁵⁾(W)|/t⁶.  Derivatives come from a 7-point
    central stencil of step h = W/500, and again of step h/2, so that an
    f which is not smooth on the scale h (or whose oscillation aliases
    one stencil) shows as disagreement.  The bound per row is the larger
    neglected term of the two steps plus the difference of their tails.
    """
    h = W / 500.0
    x = W + np.concatenate((_STENCIL_OFFSETS * h, _STENCIL_OFFSETS * h / 2.0))
    y = np.asarray(f(x))
    y = y.reshape(y.shape[:-1] + (2, _STENCIL_OFFSETS.size))
    steps = np.array([h, h / 2.0])
    deriv = (y @ _STENCILS.T) / steps[:, None] ** np.arange(6)  # rows+(2, 6)
    k = np.arange(5)
    phase = W * t + (k + 1) * (math.pi / 2.0)
    kernel = np.where(sin_rows[..., None], np.sin(phase),
                      np.cos(phase)) / t ** (k + 1)
    tails = (deriv[..., :5] * kernel[..., None, :]).sum(axis=-1)
    neglected = np.abs(deriv[..., 5]).max(axis=-1) / t ** 6
    bound = neglected + np.abs(tails[..., 0] - tails[..., 1])
    return tails[..., 0], bound


def _period_locked_edges(base: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The edges base with gap i cut evenly into n[i] panels."""
    step = np.diff(base)
    n = n.astype(int)
    gap = np.repeat(np.arange(n.size), n)
    j = np.arange(gap.size) - np.repeat(np.cumsum(n) - n, n)
    return np.append(base[gap] + j * (step / n)[gap], base[-1])


def _oscillatory_transform(f, t: float, kinds,
                           breakpoints=(), support=math.inf):
    """(2/π)∫₀^∞ f(ω)·k(ωt) dω, real part, with k = sin or cos.

    kinds is "sin" or "cos" for a scalar f, or a tuple naming the kernel
    of each row of a k-row f; all rows share one adaptive pass over
    period-locked panels on [0, W].  W is the support of an f that
    vanishes beyond it, with no tail.  Otherwise each row has its own
    by-parts tail beyond W, which starts at max(4·largest breakpoint,
    20/t), with 1 in place of the breakpoint when there is none, and
    doubles until every row's tail bound (``_oscillatory_tail``) is
    within _ABS_TOL.  A window whose panels would exceed _MAX_PANELS
    raises NonConvergence naming the window (or the support) and t.  At
    t = 0 the cosine rows are the half-line integral of f, which must
    converge.
    """
    if not 0.0 <= t < math.inf:
        # NaN or ∞ would never meet the tail bound below
        raise ValueError(f"transform requires 0 <= t < inf, got {t}")
    sin_rows = np.asarray(kinds) == "sin"

    def integrand(x):
        xt = x * t
        return f(x) * np.where(sin_rows[..., None], np.sin(xt), np.cos(xt))

    if t == 0.0:
        # sin(0) = 0 and cos(0) = 1: nothing oscillates
        try:
            val, _, _ = _half_line(integrand, 0.0, breakpoints)
        except NonConvergence as exc:
            raise NonConvergence(
                f"transform at t = 0 does not converge: {exc}",
                estimate=exc.estimate, error_bound=exc.error_bound,
                where=exc.where) from exc
        return np.real(val) * (2.0 / math.pi)

    max_width = 2.0 * math.pi / t / _PANELS_PER_PERIOD
    bounded = support < math.inf
    W = support if bounded else max(4.0 * max(breakpoints, default=1.0),
                                    20.0 / t)
    tail, bound = 0.0, np.full(sin_rows.shape, 0.0 if bounded else math.inf)
    while True:
        # count the panels before building them: a long window at large t
        # would otherwise take gigabytes only to be refused
        base = _decade_edges(W, breakpoints)
        n = np.maximum(1, np.ceil(np.diff(base) / max_width))
        if n.sum() > _MAX_PANELS:
            row = int(np.argmax(bound))
            # a support has no tail to blame
            why = "" if bounded else (f"; row {row} keeps a tail bound of "
                                      f"{bound.flat[row]:.3g}, above "
                                      f"{_ABS_TOL:.3g}")
            raise NonConvergence(
                f"the {'support' if bounded else 'window'} [0, {W:.6g}] "
                f"needs more than {_MAX_PANELS} panels at t = {t:.6g}{why}",
                error_bound=bound)
        if bounded:
            break
        tail, bound = _oscillatory_tail(f, W, t, sin_rows)
        if np.all(bound <= _ABS_TOL):
            break
        W *= 2.0

    val, _, _ = _adaptive(integrand, _period_locked_edges(base, n))
    return np.real(val + tail) * (2.0 / math.pi)


def sine_transform(f, t: float, *, breakpoints=()) -> float:
    """(2/π)∫₀^∞ f(ω) sin(ωt) dω with at least 8 panels per period 2π/t
    on a window sized from f's by-parts tail.  Returns the real part of
    the transform."""
    return float(_oscillatory_transform(f, t, "sin", breakpoints))


def cosine_transform(f, t: float, *, breakpoints=()) -> float:
    """(2/π)∫₀^∞ f(ω) cos(ωt) dω, same panelling policy as sine_transform."""
    return float(_oscillatory_transform(f, t, "cos", breakpoints))
