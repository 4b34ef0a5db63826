"""Scale-invariant L2 distance and the two non-Markovianity quantifiers.

The first quantifier measures how far the frequency-domain response is
from satisfying the divisibility (semigroup) identity; the second
measures how far the exact equilibrium correlation spectrum is from the
regression-theorem prediction built out of the mean-value propagator.
Both reduce each 2×2 matrix entry to a number in [0, 1] via the same
normalized distance over the whole real frequency line, so they are
insensitive to any global rescaling of the underlying functions.

A coupled bath with a drift matrix (``SpectralDensity.drift_matrix``)
gives n1, and n2 at ħ = 0, in closed form with no quadrature: the Ohmic
bath by algebraic functions of D/ω₀, the peaked bath by Lyapunov
equations of its drift matrix A, since every side is then the causal
response of a finite realization.  Each such distance is the Gram
determinant of the two shortest of f, g and r = f − g, so nothing
cancels where f ≈ g.  A peaked bath whose sharpest mode λ of A gives
χ̃_qq a rounding of ε/(2|Re λ|/|λ|) above the 1e-9 relative tolerance
raises ``NonConvergence`` instead, and so does one whose ‖f − g‖² and
‖r‖² disagree by more than that.  Quantum n2 of a bath with a drift
matrix at 0 < βħ < ∞ is Matsubara sums over the same realizations, up
to 2¹⁰ terms (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)):
the peaked bath's under the same guard, the Ohmic bath's, like its
closed forms, with none, on the covariances of ``covariance0`` (whose
momentum variance there is cut at Λ, with its cutoff drift).
Tables, β = ∞, longer sums and a stiff Ohmic bath (D ≳ 31.6ω₀, whose
mode rates span more than 1e3) take one whole-line quadrature pass.

``quantify`` is one row of ``_batch_reports``, which a CLI sweep hands
its whole grid.  The batch keys each row by (ω₀, sd).  n1 depends on
nothing else, nor does n2 at ħ = 0, so each is computed once per key
and shared by the key's rows: a β or ħ sweep computes one n1.  Rows
whose drift matrices share a size share each closed form's batched
LAPACK calls, and quantum n2 rows that also share their Matsubara term
count share one batched sum; every row keeps its own term count,
summation order, result and error.  Each row's eigenvalues (for the
guard) and Lyapunov operators are built once, in one batched call with
the other rows that lack them, and serve n1 and n2 alike.  The pass
and the sums end in one finisher, ``_ratio_entries``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import (_N2_MAX_TERMS, _ORDERS, _TAIL_MOMENTS,
                           _covariances, _exact_rows, _matsubara_terms,
                           _rt_rows, _stacked_terms, covariance0)
from .errors import (DivisionNearZero, NonConvergence, NonFinite,
                     NumericsError, ZeroNorm)
from .quadrature import _REL_TOL, inner_product_info
from .response import (_chi_prime_rows, _chi_qq, _chi_qq_and_prime,
                       feature_frequencies)
from .spectral import SpectralDensity

# the guard's floor under |λ|: λ = 0 in doubles is an undamped mode
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
# the widest spread max|λ|/min|λ| of the strict Ohmic drift matrix's mode
# rates on which its quantum n2 takes the Matsubara sums.  Against its
# pass, on squared entries: within 1.8e-14 up to the spread 1e3, over
# D ∈ [1e-8, 31], β ∈ [0.01, 1e3] and ħ ∈ [0.01, 3] at ω₀ = 1; 8.4e-14
# at 1e4 (D = 100) and 5.5e-13 at 1e6 (D = 1e3), where the pass is
# 2.2e-16 off 30 digits
_MAX_SPREAD = 1e3
# the entries computed, and their (row, column) indices; pq mirrors qp
_KEYS = ("qq", "qp", "pp")
_NAMES = {q: [f"{q}_{key}" for key in _KEYS] for q in ("n1", "n2")}
_ENTRY = ((0, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class EntryDiagnostics:
    """How one quantifier entry was obtained.

    panels is the panel count of the one whole-line pass that gives all
    entries of a quantifier, so it is the same for each of them; 0 means
    no pass, for a decoupled bath or an entry in closed form.
    cutoff_drift is the ``CovarianceMatrix.cutoff_drift`` of the
    covariances an n2 entry is built on; n1 entries read 0.
    """

    panels: int
    cutoff_drift: float = 0.0


@dataclass(frozen=True)
class QuantifierReport:
    """Both quantifier matrices plus per-entry diagnostics.

    n1 and n2 are 2×2 real arrays ordered [[qq, qp], [pq, pp]]; a
    matrix is None when it was not requested.  Diagnostics are keyed
    'n1_qq', 'n2_qp', ... matching the CSV column names.
    """

    n1: np.ndarray | None
    n2: np.ndarray | None
    diagnostics: dict[str, EntryDiagnostics]


def _distance_info(sides, breakpoints=(), names=("argument",)):
    """Normalized distances of the row pairs (f, g) that the callable
    sides returns, from one ``inner_product_info`` pass over the whole
    line, with the panel count of the pass; names[r] names row r.

    Raises what ``_ratio_entries`` finds, naming the first such row.  A
    pass that fails raises ZeroNorm as well when its estimate so far
    shows a row with a norm below 1e-14: that entry has no distance
    however the other rows would end.
    """
    try:
        res = inner_product_info(sides, breakpoints=breakpoints)
    except NonConvergence as exc:
        if exc.estimate is not None:
            (error,) = _ratio_entries(exc.estimate[None], names, "pass")[1]
            if isinstance(error, ZeroNorm):
                raise error
        raise
    (values,), (error,) = _ratio_entries(res.value[None], names, "pass")
    if error is not None:
        raise error
    return values, res.panels


def _ratio_entries(value, names, source):
    """√(1 − |⟨f,g⟩|²/(‖f‖²‖g‖²)) of each entry of each row of value,
    shape (B, 3, k): ⟨f,g⟩, ‖f‖² and ‖g‖² of the k entries that names
    names, from the source ('pass' or 'Matsubara sums').  The ratio is
    divided through, (|⟨f,g⟩|/‖f‖²)·(|⟨f,g⟩|/‖g‖²), so that no two norms
    multiply: quantum n2's products grow like 1/β², and at β = 1e-100
    their squares would overflow.  Returns the entries and each row's
    error or None, from ``_row_error``: a norm below 1e-14 is
    degenerate."""
    with np.errstate(all="ignore"):
        norms = np.maximum(value[:, 1:].real, 0.0)
        inner = np.abs(value[:, 0])
        ratio = (inner / norms[:, 0]) * (inner / norms[:, 1])
        degenerate = ~(np.sqrt(norms) >= 1e-14).all(axis=1)
    bad = ~np.isfinite(value).all(axis=(1, 2)) | degenerate.any(axis=1)
    errors = [None] * len(value)
    for i in np.flatnonzero(bad):
        errors[i] = _row_error(value[i], degenerate[i], names, source,
                               "norm below 1e-14")
    return np.sqrt(np.clip(1.0 - ratio, 0.0, 1.0)), errors


def _row_error(products, degenerate, names, source, why):
    """The error of one row whose entries, named by names, are the
    columns of products: NonFinite for the first entry with a product
    that is not finite, else ZeroNorm (why) for the first degenerate one;
    None when there is neither."""
    for name, column in zip(names, products.T):
        if not np.isfinite(column).all():
            return NonFinite(f"{name}: an inner product of the {source} "
                             "is not finite")
    for name, bad in zip(names, degenerate):
        if bad:
            return ZeroNorm(f"degenerate {name}: {why}")
    return None


def distance(f, g, *, breakpoints=()) -> float:
    """Normalized L2 distance 𝒟 = √(1 − |⟨f,g⟩|²/(‖f‖²‖g‖²)) ∈ [0, 1].

    f and g are vectorized callables of ω, integrated over the whole
    real line.  𝒟 vanishes exactly when g is a (complex) multiple of f
    and reaches 1 when the functions are orthogonal.

    Raises
    ------
    ZeroNorm
        If either norm is below 1e-14.
    NonConvergence
        If f or g is not square-integrable.
    """
    (val,), _ = _distance_info(lambda w: ([f(w)], [g(w)]), breakpoints)
    return float(val)


def _n1_sides(p, sd):
    """The pair (−i dχ̃/dω, χ̃ χ₊⁻¹ χ̃) at qq, qp, pp from one χ̃ batch: f is
    −i times the rows of ``chi_prime_matrix``, and g is −2iωc²,
    c + 2ω²c², −2iωc(1 + ω²c) with c = χ̃_qq.  Both are hermitian (χ̃ is
    the response of a real, causal system), so each ⟨f,g⟩ row is real."""
    def sides(w):
        c, cp = _chi_qq_and_prime(p, sd, w)
        return (-1j * np.array(_chi_prime_rows(w, c, cp)),
                np.array([-2j * w * c ** 2, c + 2.0 * w ** 2 * c ** 2,
                          -2j * w * c * (1.0 + w ** 2 * c)]))
    return sides


def _n2_sides(p, sd, cov0):
    """The pair (exact spectrum, regression prediction) at qq, qp, pp
    from one χ̃ batch; ħ > 0 breaks their ω ↦ −ω symmetry, which the
    folded pass does not need."""
    def sides(w):
        gam = sd.gamma_tilde_vec(w)
        c = _chi_qq(p, w, gam)
        return (np.array(_exact_rows(p, w, gam, c)),
                np.array(_rt_rows(w, c, cov0)))
    return sides


def _matrix(prefix, values, panels=0, cutoff_drift=0.0):
    """The 2×2 matrix of the qq, qp, pp values, and every entry's
    diagnostics; qp and pq coincide by the entry structure (the two
    off-diagonal functions differ only by an overall sign or a complex
    conjugation, neither of which moves the distance)."""
    matrix = np.zeros((2, 2))
    matrix[_ENTRY] = values
    matrix[_ENTRY[::-1]] = values
    entry = EntryDiagnostics(panels, cutoff_drift)
    return matrix, {f"{prefix}_{key}": entry
                    for key in ("qq", "qp", "pq", "pp")}


def _quantifier_matrix(p, sd, prefix, sides, cutoff_drift=0.0):
    """Entrywise distances from one pass over the three-row sides, or
    the NumericsError that fails it, as ``_distance_info`` names it.
    Every entry carries cutoff_drift.  A decoupled bath gives the zero
    matrix and no pass."""
    if sd.decoupled:
        return _matrix(prefix, 0.0, 0, cutoff_drift)
    try:
        values, panels = _distance_info(
            sides, feature_frequencies(p, sd), _NAMES[prefix])
    except NumericsError as exc:
        return exc
    return _matrix(prefix, values, panels, cutoff_drift)


def _ohmic_entries(x, prefix):
    """n1 or classical n2 (qq, qp, pp) of the strict Ohmic bath at each
    x = D/ω₀ of the array x, shape x.shape + (3,).  The whole-line
    integrals are rational in x (by residues):

        n1_qq² = x²(1 + x²)/(x²(1 + x²) + 4),   n2_qq² = x²/(1 + x²),
        n1_qp² = x²/(2(x² + 2)),                n2_qp² = x²/(2 + x²),
        n1_pp² = x²/(x² + (x² + 2)²),           n2_pp = 0,

    each written so that no power of x overflows: D = 1e300 gives
    n1 = (1, 1/√2, 1e-300) and n2 = (1, 1, 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        if prefix == "n1":
            return 1.0 / np.hypot([1.0, math.sqrt(2.0), 1.0], np.stack(
                (2.0 / (x * np.hypot(1.0, x)), 2.0 / x, x + 2.0 / x),
                axis=-1))
        return np.stack((x / np.hypot(1.0, x),
                         x / np.hypot(math.sqrt(2.0), x), np.zeros_like(x)),
                        axis=-1)


class _Row:
    """One bath of a batch: its model p, its bath sd, its key (ω₀, sd),
    its drift matrix a (None for a table or a decoupled bath), and the
    results the batch has of it so far, each a (matrix, diagnostics)
    pair or the error that ends the row.  What its chunk works out of a
    stays on it until the chunk ends: lam, the eigenvalues of a, and ops,
    its ``_lyapunov`` operators (both from ``_built``), and terms, the
    Matsubara terms of its quantum n2; cov0 holds its covariances."""

    def __init__(self, p, sd: SpectralDensity):
        self.p, self.sd = p, sd
        self.key = (p.omega0, sd)
        self.a = None if sd.decoupled else sd.drift_matrix(p.omega0)
        self.lam = self.ops = self.terms = self.cov0 = None
        self.results: dict = {}
        self.error: NumericsError | None = None

    def put(self, prefix, result):
        """Record result, a (matrix, diagnostics) pair, or the error."""
        self.results[prefix] = result
        if isinstance(result, NumericsError):
            self.error = result

    def report(self):
        """The QuantifierReport of the row, or its error."""
        n1, n2 = (self.results.get(q, (None, {})) for q in ("n1", "n2"))
        return self.error or QuantifierReport(n1[0], n2[0], {**n1[1], **n2[1]})


def _built(rows, name, build):
    """Each row's name ('lam' or 'ops') of rows, whose drift matrices
    share a size.  One call of build (``eigvals``, or the rows of
    ``_lyapunov``) on the stacked drift matrices of the rows that lack
    it sets it, so each row's is built once for n1 and n2 alike."""
    missing = [r for r in rows if getattr(r, name) is None]
    if missing:
        built = build(np.stack([r.a for r in missing]))
        for row, value in zip(missing, built):
            setattr(row, name, value)
    return [getattr(r, name) for r in rows]


def _guard(rows, prefix):
    """The NonConvergence of each drift matrix of rows, or None: it names
    the entry and the frequency |Im λ| where the sharpest mode λ,
    q = |Re λ|/|λ| smallest, leaves χ̃_qq a rounding of ε/(2q) above
    _REL_TOL; an undamped mode (q = 0, or λ = 0 in doubles) has no bound
    at all.

    Strict Ohmic 2×2 matrices pass unchecked: their n1 and classical n2
    are rational in D/ω₀, and their quantum n2 sums, where the batch
    takes them, held within 1.8e-14 of the pass on squared entries down
    to D = 1e-10 ω₀, below which the covariance pass fails first."""
    errors = [None] * len(rows)
    if len(rows[0].a) == 2:
        return errors
    lam = np.stack(_built(rows, "lam", np.linalg.eigvals))
    ratio = np.abs(lam.real) / np.maximum(np.abs(lam), _TINY)
    q = ratio.min(axis=-1)
    with np.errstate(divide="ignore"):
        bound = _EPS / (2.0 * q)
    for i in np.flatnonzero(~(bound <= _REL_TOL)):
        k = int(np.argmin(ratio[i]))
        where = abs(float(lam[i, k].imag))
        limit = float(bound[i]) if q[i] > 0.0 else math.inf
        errors[i] = NonConvergence(
            f"{prefix}_qq: the mode of the drift matrix at ω = {where:.6g} "
            f"has |Re λ|/|λ| = {q[i]:.3g}, so χ̃_qq carries rounding of "
            f"{limit:.3g}, above the {_REL_TOL:.0e} relative tolerance",
            error_bound=limit, where=where)
    return errors


def _lyapunov(a):
    """The operators I⊗a + a⊗I of the stack a of n×n drift matrices,
    shape (B, n², n²), in doubles and in extended precision, for
    ``_solve``."""
    n = a.shape[-1]
    eye = np.eye(n)
    op = (a[:, :, None, :, None] * eye[:, None, :]
          + eye[:, None, :, None] * a[:, None, :, None, :]).reshape(
              -1, n * n, n * n)
    return op, op.astype(np.longdouble)


def _solve(ops, rhs):
    """X with a·X + X·aᵀ = R for each row's stack R of rhs, shape
    (B, ..., n, n), through its n²×n² operator in ops, the stacks
    (op, wide) of ``_lyapunov``, and one step of iterative refinement with
    the residual in extended precision: a slow mode of a (an overdamped
    bath far below a fast one) leaves the operator ill-conditioned, and
    the step takes its error from about ε·cond to ε (peaked (3, 3, 0.1):
    n1_qp from 1.4e-5 to 2.2e-9 of a 50-digit solve).  Where longdouble
    is double the step does no harm."""
    op, wide = ops
    b = rhs.reshape(len(rhs), -1, op.shape[-1]).swapaxes(1, 2)
    x = np.linalg.solve(op, b)
    x += np.linalg.solve(op, (b - wide @ x).astype(float))
    return x.swapaxes(1, 2).reshape(rhs.shape)


# the pairs (u, v) of the sides (f, g, r) whose ⟨u, v⟩ enter a distance
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _n1_products(rows, a, ops):
    """2π·⟨u, v⟩ over _PAIRS of f, g, r at qq, qp, pp, shape (B, 6, 3),
    of the stack a of the rows' drift matrices, with their operators ops.

    By Parseval ⟨u, v⟩ = 2π∫₀^∞ u(t)v(t) dt, and each side is a causal
    response c·e^{A't}·b: f = −i dχ̃/dω of A' = [[A, I], [0, A]],
    g = χ̃ χ₊⁻¹ χ̃ of [[A, M], [0, A]] and r of [[A, I − M], [0, A]],
    with B = [e_p, −A·e_p], C = [e_q; e_p], M = B·χ₊⁻¹·C, and at entry
    (i, j) the input b = [0; B_j] and the output c = [C_i, 0].  With the
    coupling blocks P, Q of u and v, X = [[X11, X12], [X21, X22]] solves,
    block by block from the bottom: L(X22) = −B_j B_jᵀ, L(X12) = −P·X22,
    L(X21) = −X22·Qᵀ and L(X11) = −(P·X21 + X12·Qᵀ), with
    L(X) = A·X + X·Aᵀ; then ⟨u, v⟩ = 2π·C_i·X11·C_iᵀ.  The peaked bath
    has I − M = diag(0, 0, 1, 1), so r carries the coupling explicitly."""
    size = a.shape[-1]
    eye = np.broadcast_to(np.eye(size), a.shape)
    e_q, e_p = np.eye(size)[:2]
    b = np.stack((np.broadcast_to(e_p, a.shape[:2]), -a[:, :, 1]), axis=1)
    m = b[:, 0, :, None] * e_p - b[:, 1, :, None] * e_q  # B·χ₊⁻¹·C
    blocks = np.stack((eye, m, eye - m), axis=1)         # f, g, r
    x22 = _solve(ops, -b[:, :, :, None] * b[:, :, None, :])
    y = _solve(ops, -np.einsum("zsab,zjbc->zsjac", blocks, x22))  # X12s
    u, v = np.array(_PAIRS).T
    x11 = _solve(ops, -(
        np.einsum("zuab,zujcb->zujac", blocks[:, u], y[:, v])
        + np.einsum("zujab,zucb->zujac", y[:, u], blocks[:, v])))
    return 2.0 * math.pi * np.stack(
        (x11[:, :, 0, 0, 0], x11[:, :, 1, 0, 0], x11[:, :, 1, 1, 1]),
        axis=-1)


def _static_columns(a, omega0_sq):
    """−A⁻¹e_p, the static response [1/ω₀², 0, −A_bb⁻¹A_bq/ω₀²] of each
    drift matrix of the stack a (bath block bb, coupling A_bq)."""
    bath = np.linalg.solve(a[:, 2:, 2:], a[:, 2:, :1])[..., 0]
    return np.concatenate(
        (np.broadcast_to([1.0, 0.0], (len(a), 2)), -bath), axis=1) / \
        omega0_sq[:, None]


def _n2_products(rows, a, ops):
    """2π·⟨u, v⟩ over _PAIRS of the classical exact spectrum S, the
    regression prediction T and R = S − T at qq, qp, pp, shape (B, 6, 3),
    in units of 1/β², of the rows, as ``_n1_products`` takes them.

    S and T are H + H^† with H causal, so ⟨S_ij, T_ij⟩ is the sum of
    the causal products of columns j and i, at outputs i and j.  S has
    the columns Σ·[e_q, e_p]·β = [−A⁻¹e_p, e_p] (the Gibbs state of the
    embedding), T has [A·e_p/ω₀², e_p]; so R has only a q column.  A·e_p
    = e_q for the peaked bath, so the q and p entries of R's column
    cancel exactly, leaving the coupling."""
    omega0_sq = np.array([r.p.omega0 ** 2 for r in rows])
    e_p = np.eye(a.shape[-1])[1]
    s_q = _static_columns(a, omega0_sq)
    t_q = a[:, :, 1] / omega0_sq[:, None]
    cols = np.stack((s_q, t_q, s_q - t_q), axis=1)  # S, T, R at column q
    u, v = np.array(_PAIRS).T
    x = _solve(ops, np.concatenate((
        -cols[:, u, :, None] * cols[:, v, None, :],
        np.broadcast_to(-np.outer(e_p, e_p), (len(a), 1) + a.shape[1:])),
        axis=1))
    # column p: S and T share e_p, and R has none
    xq = x[:, :-1]
    xp = x[:, -1:] * ((u < 2) & (v < 2))[:, None, None]
    return 2.0 * math.pi * np.stack(
        (2.0 * xq[:, :, 0, 0], xp[:, :, 0, 0] + xq[:, :, 1, 1],
         2.0 * xp[:, :, 1, 1]), axis=-1)


# A side U = H_ij(s) + H_ji(−s) has two causal halves, each an (output,
# column) half-side numbered 4·output + column: output 0 is q and 1 is p;
# columns 0, 1 are S's σ_q, σ_p and 2, 3 are T's τ_q, τ_p.
def _sides(col):
    return [(4 * i + col + j, 4 * j + col + i) for i, j in zip(*_ENTRY)]


# the products (F⁺, F⁻, G⁺, G⁻) that _n2_quantum_products takes: S with
# S, T with T and S with T at qq, qp, pp, then S_pp with T_qp
_S, _T = _sides(0), _sides(2)
_PRODUCTS = np.array([*zip(_S, _S), *zip(_T, _T), *zip(_S, _T),
                      (_S[2], _T[1])]).reshape(-1, 4).T


def _n2_quantum_products(rows, a, ops):
    """⟨S, T⟩, ‖S‖² and ‖T‖² at qq, qp, pp of the quantum exact spectrum
    S and the regression prediction T of each row (peaked 4×4 or strict
    Ohmic 2×2 drift matrices, taken as ``_n1_products`` takes them),
    shape (B, 3, 3) like a pass's value, from each row's model p,
    covariances cov0 and Matsubara terms (ν_n, ν_{N+1}, ζ) of
    ``correlations._matsubara_terms``, which share one N.

    Entry (i, j) of S is (w_B/2)·U, U = H_ij(s) + H_ji(−s) with
    H = C(s − a)⁻¹[σ_q, σ_p], s = −iω, σ_q = −a⁻¹e_p and σ_p = e_p; T is
    the same with [τ_q, τ_p] = [c_qq·a·e_p, c_pp·e_p] and no weight.
    The Bose weight w_B = W + ħω, W = ħω·coth(βħω/2), and its odd part
    ħω drops out by parity but for S_qp with T_qp, where it leaves
    iħ⟨U_pp, T_qp⟩; w_B² leaves 2ħ²ω² + ħ²ω²csch²(βħω/2).  For a
    product P = F·G* of two such sides, X_kl solving
    a·X + X·aᵀ + b_k·b_lᵀ = 0 gives ∫P/(ω² + ν²) dω = πΞ(ν)/ν by residues,
    with Ξ(ν) the resolvent forms c(ν − a)⁻¹X·c′ of the cross halves and
    the products F⁺(ν)G⁻(ν) + F⁻(ν)G⁺(ν) of the others.  Then, with the
    Matsubara frequencies ν_n = 2πn/(βħ),

        ∫P dω = lim πνΞ(ν) = πμ_0,
        ∫W·P dω = (2/β)∫P + (4/β)Σ_n ∫P·ω²/(ω² + ν_n²),
        ∫ħ²ω²csch²·P dω = (4/β²)[∫P + Σ_n ∂_ν(2ν∫P·ω²/(ω² + ν²))|ν_n],
        ∫ω²P dω = −πμ_2,

    where ∫P·ω²/(ω² + ν²) = −πΣ_j μ_j/ν^j is written exactly through
    e_o·a(ν − a)⁻¹ and its ∂_ν through e_o·a²(ν − a)⁻² and
    e_o·a(ν − a)⁻², and the tail n > N sums its moments μ_j by Hurwitz ζ
    (μ_1 vanishes: P falls faster than ω⁻²)."""
    nu, top, zeta = _stacked_terms([r.terms for r in rows])
    ps = [r.p for r in rows]
    size = a.shape[-1]
    eye = np.eye(size)
    count = len(a)
    c_qq = np.array([r.cov0.c_qq for r in rows])[:, None]
    c_pp = np.array([r.cov0.c_pp for r in rows])[:, None]
    cols = np.stack((
        _static_columns(a, np.array([p.omega0 ** 2 for p in ps])),
        np.broadcast_to(eye[1], (count, size)), c_qq * a[:, :, 1],
        c_pp * eye[1]), axis=1)
    x = _solve(ops, -cols[:, :, None, :, None] * cols[:, None, :, None, :])
    # the rows e_o·a(ν − a)⁻¹, e_o·a(ν − a)⁻² and e_o·a²(ν − a)⁻² at each ν_n
    res = np.linalg.inv(nu[:, :, None, None] * eye - a[:, None])
    z = a[:, None, :2] @ res
    v, w = z @ res, z @ a[:, None] @ res
    # the Krylov rows e_o·(a/ν_{N+1})^j, j = 0 … 31, by doubling
    power = a / top[:, None, None]
    krylov = np.broadcast_to(eye[:2, None, :], (count, 2, 1, size))
    while krylov.shape[2] <= _TAIL_MOMENTS:
        krylov = np.concatenate((krylov, krylov @ power[:, None]), axis=2)
        power = power @ power
    tail = krylov[:, :, 2:_TAIL_MOMENTS + 2]      # the orders j = 2 … 31
    # the cross halves' row functionals: e_o (∫P), the W and csch² sums,
    # each direct part plus its ζ tail, and e_o·a² (μ_2)
    rows = np.stack((
        np.broadcast_to(eye[:2], (count, 2, size)),
        z.sum(axis=1) + (zeta[:, None, None] @ tail)[:, :, 0],
        w.sum(axis=1)
        + (((_ORDERS - 1.0) * zeta)[:, None, None] @ tail)[:, :, 0],
        a[:, :2] @ a), axis=1)
    # R_o·X_kl·e_o′ + R_o′·X_lk·e_o over the half-sides (o, k) and (o′, l)
    g = np.einsum("zfod,zkldm->zfokml", rows, x[..., :2])
    cross = (g + g.transpose(0, 1, 4, 5, 2, 3)).reshape(count, 4, 8, 8)
    # the other halves: νF(ν) = e_o·b_k + e_o·a(ν − a)⁻¹b_k = Σ_j f_j/ν^j
    # with f_j = e_o·a^j·b_k, and its ∂_ν
    cols_t = cols.swapaxes(1, 2)[:, None]
    phi = (cols_t[:, :, :2] + z @ cols_t).reshape(count, -1, 8)
    dphi = -(v @ cols_t).reshape(count, -1, 8)
    f = (krylov[:, :, :_TAIL_MOMENTS + 1] @ cols_t).swapaxes(2, 3).reshape(
        count, 8, -1)
    f_t = f.swapaxes(1, 2)
    # the tail of Σ_j p_j/ν^{j+1}, p the Cauchy product of two f, is a
    # Hankel form: ζ of the order k + l + 1 between f_k and f_l
    k = np.arange(_TAIL_MOMENTS + 1)
    order = k[:, None] + k
    hankel = np.concatenate((np.zeros((count, 1)), zeta,
                             np.zeros((count, _TAIL_MOMENTS))), axis=1)[:, order]
    top = top[:, None, None]
    prod = np.stack((
        np.zeros((count, 8, 8)),
        (phi / nu[:, :, None]).swapaxes(1, 2) @ phi + f @ hankel @ f_t / top,
        -(dphi.swapaxes(1, 2) @ phi + phi.swapaxes(1, 2) @ dphi)
        + f @ (order * hankel) @ f_t / top,
        (f[:, :, 0, None] * f[:, None, :, 1]
         + f[:, :, 1, None] * f[:, None, :, 0]) * top), axis=1)
    f1, f2, g1, g2 = _PRODUCTS
    m0, sw, sc, mu2 = (cross[:, :, f1, g1] + cross[:, :, f2, g2]
                       + prod[:, :, f1, g2] + prod[:, :, f2, g1]).swapaxes(0, 1)
    m0 = math.pi * m0
    beta = np.array([p.beta for p in ps])[:, None]
    beta_sq = np.array([p.beta ** 2 for p in ps])[:, None]
    hbar = np.array([p.hbar for p in ps])
    hbar_sq = np.array([p.hbar ** 2 for p in ps])[:, None]
    ss = ((m0[:, :3] + 2.0 * math.pi * sc[:, :3]) / beta_sq
          - 0.5 * math.pi * hbar_sq * mu2[:, :3])
    st = (m0[:, 6:9] - 2.0 * math.pi * sw[:, 6:9]) / beta + 0j
    st[:, 1] += 0.5j * hbar * m0[:, 9]
    return np.stack((st, ss + 0j, m0[:, 3:6] + 0j), axis=1)


def _gram_entries(products, prefix):
    """√(G/(‖f‖²‖g‖²)) per entry of each row of products (B, 6, 3), the
    products over _PAIRS, with G the Gram determinant of the two shortest
    of f, g and r = f − g, which spans the same area from any two of
    them; divided through so that no two norms multiply, which could
    overflow.  Returns the entries and each row's error or None:
    NonFinite or ZeroNorm for the first entry with an inner product not
    finite or a norm not positive, else NonConvergence where ‖f‖² −
    2⟨f,g⟩ + ‖g‖² and ‖r‖², from its own realization, disagree: that
    checks the solves, which an extreme bath (parameters 1e20 apart)
    breaks."""
    ff, gg, rr, fg, fr, gr = products.swapaxes(0, 1)
    with np.errstate(all="ignore"):
        gap = np.abs(ff - 2.0 * fg + gg - rr) / (ff + gg)
        longest = np.argmax(products[:, :3], axis=1)
        ratio = np.where(longest == 2, 1.0 - (fg / ff) * (fg / gg),
                         np.where(longest == 1, (rr - fr * (fr / ff)) / gg,
                                  (rr - gr * (gr / gg)) / ff))
    finite = np.isfinite(products).all(axis=1)
    bad = ~(finite & (ff > 0.0) & (gg > 0.0)) | ~(gap <= _REL_TOL)
    errors = [None] * len(products)
    for i in np.flatnonzero(bad.any(axis=1)):
        errors[i] = _gram_error(products[i], gap[i], prefix)
    return np.sqrt(np.clip(ratio, 0.0, 1.0)), errors


def _gram_error(products, gap, prefix):
    """The error of one row that ``_gram_entries`` refuses."""
    error = _row_error(products, ~((products[0] > 0.0) & (products[1] > 0.0)),
                       _NAMES[prefix], "closed form", "norm not positive")
    if error is not None:
        return error
    k = int(np.argmax(gap))
    return NonConvergence(
        f"{prefix}_{_KEYS[k]}: the closed form's ‖f − g‖² and ‖r‖² "
        f"differ by {gap[k]:.3g} of ‖f‖² + ‖g‖², above the "
        f"{_REL_TOL:.0e} relative tolerance", error_bound=float(gap[k]))


def _solved(kernel, rows, prefix):
    """The rows that ``_guard`` passes, and kernel(rows, a, ops) of them,
    on the stacks of their drift matrices and operators, with
    floating-point warnings off; the others fail.  Where a solve is
    singular in double precision the rows run one by one, each singular
    one fails with DivisionNearZero, and the rows shrink to the others.
    The products are None when no row is left."""
    for row, error in zip(rows, _guard(rows, prefix)):
        if error is not None:
            row.put(prefix, error)
    rows = [r for r in rows if r.error is None]
    if not rows:
        return rows, None
    a = np.stack([r.a for r in rows])
    op, wide = map(np.stack, zip(*_built(
        rows, "ops", lambda a: zip(*_lyapunov(a)))))
    try:
        with np.errstate(all="ignore"):
            return rows, kernel(rows, a, (op, wide))
    except np.linalg.LinAlgError:
        pass
    kept, parts = [], []
    for k, row in enumerate(rows):
        one = slice(k, k + 1)
        try:
            with np.errstate(all="ignore"):
                parts.append(kernel([row], a[one], (op[one], wide[one])))
        except np.linalg.LinAlgError as exc:
            error = DivisionNearZero(
                f"{prefix}_qq: the Lyapunov operator of the drift matrix is "
                "singular in double precision")
            error.__cause__ = exc
            row.put(prefix, error)
        else:
            kept.append(row)
    return kept, np.concatenate(parts) if parts else None


def _closed_forms(rows, prefix):
    """n1 (prefix 'n1') or classical n2 ('n2') of each of rows, whose
    drift matrices share a size, with no pass.  Beside the errors of
    ``_solved`` a row fails as ``_gram_entries`` says."""
    if len(rows[0].a) == 2:  # (q, p) alone: the strict Ohmic oscillator
        x = np.array([-r.a[1, 1] / r.p.omega0 for r in rows])
        values, errors = _ohmic_entries(x, prefix), [None] * len(x)
    else:
        rows, products = _solved(
            _n1_products if prefix == "n1" else _n2_products, rows, prefix)
        if products is None:
            return
        values, errors = _gram_entries(products, prefix)
    for row, value, error in zip(rows, values, errors):
        row.put(prefix, error or _matrix(prefix, value))


def _stiff_ohmic(rows):
    """Whether the drift matrix of each of rows, which share a size, is
    the strict Ohmic 2×2 one with mode rates |λ| more than _MAX_SPREAD
    apart (NaN counts as apart), as past D ≈ 31.6ω₀, where its real modes
    sit near D and ω₀²/D.  A peaked matrix is never so: on stiff ones its
    pass loses digits too, as on (0.9, 1, 0.0625), a spread of 7.7e5,
    where at β = 0.3, ħ = 1 the sums read n2 squared 9.5e-12 off 30
    digits and the pass 4.7e-12."""
    if len(rows[0].a) > 2:
        return [False] * len(rows)
    rates = np.abs(np.stack(_built(rows, "lam", np.linalg.eigvals)))
    return ~(rates.max(axis=-1) <= _MAX_SPREAD * rates.min(axis=-1))


def _quantum_sums(rows):
    """Quantum n2 of each of rows by ``_n2_quantum_products`` over its
    Matsubara terms (one N); beside the errors of ``_solved`` a row fails
    as ``_ratio_entries`` says."""
    rows, value = _solved(_n2_quantum_products, rows, "n2")
    if value is None:
        return
    values, errors = _ratio_entries(value, _NAMES["n2"], "Matsubara sums")
    for row, value, error in zip(rows, values, errors):
        row.put("n2", error or _matrix(
            "n2", value, cutoff_drift=row.cov0.cutoff_drift))


def _by(rows, key):
    """rows grouped by key(row), each group in the order of rows."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return list(groups.values())


def _size(row):
    return len(row.a)


def _divisibility(rows):
    """n1 of each row: the closed form where it has a drift matrix, the
    pass otherwise."""
    for group in _by([r for r in rows if r.a is not None], _size):
        _closed_forms(group, "n1")
    for row in rows:
        if row.a is None:
            row.put("n1", _quantifier_matrix(row.p, row.sd, "n1",
                                             _n1_sides(row.p, row.sd)))


def _regression(rows):
    """n2 of each row: the closed form at ħ = 0, Matsubara sums at
    0 < βħ < ∞ of at most _N2_MAX_TERMS terms on a matrix that is not
    stiff (``_stiff_ohmic``), the pass otherwise, each row on the
    covariances of ``covariance0``, which come in the order of rows."""
    for group in _by([r for r in rows if r.a is not None
                      and r.p.hbar == 0.0], _size):
        _closed_forms(group, "n2")
    others = [r for r in rows if r.a is None or r.p.hbar != 0.0]
    for row in others:
        row.terms = None if row.a is None else _matsubara_terms(row.p, row.a)
    for row, cov0 in zip(others, _covariances(
            [(r.p, r.sd, r.a, r.terms) for r in others])):
        row.cov0 = cov0
        if isinstance(cov0, NumericsError):
            row.put("n2", cov0)
    quantum = [r for r in others if r.error is None and r.terms is not None
               and len(r.terms[0]) <= _N2_MAX_TERMS]
    summed = [r for group in _by(quantum, _size)
              for r, stiff in zip(group, _stiff_ohmic(group)) if not stiff]
    for group in _by(summed, lambda r: (len(r.a), len(r.terms[0]))):
        _quantum_sums(group)
    for row in others:
        if row.error is None and "n2" not in row.results:
            row.put("n2", _quantifier_matrix(
                row.p, row.sd, "n2", _n2_sides(row.p, row.sd, row.cov0),
                row.cov0.cutoff_drift))


def _shared(row, prefix):
    """Whether quantifier prefix of row depends on its key alone: n1 is
    built from χ̃, and n2 at ħ = 0 on the bare Gibbs state that the
    counter-term leaves (Grabert, Schramm & Ingold, Phys. Rep. 168, 115
    (1988)), whose scale 1/β no distance sees."""
    return prefix == "n1" or row.p.hbar == 0.0


# rows per batch: enough to spread numpy's cost per call, few enough
# that quantum n2 at 2¹⁰ terms holds some tens of MB
_BATCH = 64


def _batch_reports(points, which: str):
    """The ``quantify`` report of each (p, sd) of points, or the
    NumericsError that fails it, in order; ``quantify`` is a batch of one.

    A row's key is (ω₀, sd): an analytic bath by value, a table by
    identity.  n1, and n2 at ħ = 0, depend on the key alone (``_shared``),
    so the first row of a key computes them and the key's other rows take
    its matrices and diagnostics, or its error: a β or ħ sweep computes
    one n1, a classical β sweep one report.  The points go in chunks of
    at most _BATCH, in order, so a CutoffSensitive warning of a row comes
    in the order of points, and a chunk's rows drop their eigenvalues,
    Lyapunov operators and Matsubara terms before the next chunk is
    built.  In a chunk, the rows that compute each quantifier and share
    a drift-matrix size share its batched solves, and quantum n2 rows
    that also share their Matsubara term count share its sums; each
    row's operators and eigenvalues are built once for both quantifiers
    (``_built``).  Tables, decoupled baths and the quantum n2 rows that
    keep the pass run alone.  Each row keeps its own error: the guard
    and the checks act row by row, and a batch with a singular operator
    runs again row by row."""
    if which not in ("n1", "n2", "both"):
        raise ValueError(f"unknown quantifier selection {which!r}")
    rows = [_Row(p, sd) for p, sd in points]
    first: dict = {}
    for start in range(0, len(rows), _BATCH):
        chunk = rows[start:start + _BATCH]
        for prefix, stage in (("n1", _divisibility), ("n2", _regression)):
            if which not in (prefix, "both"):
                continue
            live = [r for r in chunk if r.error is None]
            stage([r for r in live if not _shared(r, prefix)
                   or first.setdefault((prefix, r.key), r) is r])
            for row in live:
                if prefix not in row.results:
                    row.put(prefix, first[prefix, row.key].results[prefix])
        for row in chunk:
            row.lam = row.ops = row.terms = None
    return [r.report() for r in rows]


def divisibility_quantifier(p, sd: SpectralDensity):
    """First quantifier: distance between −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃.

    Vanishes entrywise iff the mean propagator forms a divisible
    (semigroup) family; zero coupling returns the zero matrix.  A bath
    with a drift matrix takes the closed form, any other one pass.

    Returns (2×2 real array, diagnostics dict).
    """
    report = quantify(p, sd, "n1")
    return report.n1, report.diagnostics


def regression_quantifier(p, sd: SpectralDensity):
    """Second quantifier: distance between the exact equilibrium
    correlation spectrum and the regression-theorem prediction.

    At ħ = 0 a bath with a drift matrix (Ohmic or peaked) takes the
    closed form, and at 0 < βħ < ∞ Matsubara sums of at most 2¹⁰ terms,
    but for a stiff Ohmic bath; any other case takes one pass.  Either
    way it propagates CutoffSensitive warnings from the underlying
    equal-time covariances (strict Ohmic bath with ħ > 0), and stamps
    their cutoff_drift on every entry's diagnostics.

    Returns (2×2 real array, diagnostics dict).
    """
    report = quantify(p, sd, "n2")
    return report.n2, report.diagnostics


def _pass_quantifiers(p, sd: SpectralDensity):
    """n1 and n2 by the quadrature pass, whatever the bath: the
    cross-check of the closed forms."""
    cov0 = covariance0(p, sd)
    results = (_quantifier_matrix(p, sd, "n1", _n1_sides(p, sd)),
               _quantifier_matrix(p, sd, "n2", _n2_sides(p, sd, cov0),
                                  cov0.cutoff_drift))
    for result in results:
        if isinstance(result, NumericsError):
            raise result
    return tuple(matrix for matrix, _ in results)


def quantify(p, sd: SpectralDensity, which: str = "both") -> QuantifierReport:
    """Compute the requested quantifier matrices with diagnostics.

    which ∈ {'n1', 'n2', 'both'}.
    """
    (report,) = _batch_reports([(p, sd)], which)
    if isinstance(report, NumericsError):
        raise report
    return report
