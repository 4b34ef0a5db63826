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
momentum variance there is the Λ-cut pass, with its cutoff drift).
Tables, β = ∞, longer sums and a stiff Ohmic bath (D ≳ 31.6ω₀, whose
mode rates span more than 1e3) take one whole-line quadrature pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import (_N2_MAX_TERMS, _ORDERS, _TAIL_MOMENTS,
                           _exact_rows, _matsubara_terms, _rt_rows,
                           covariance0)
from .errors import DivisionNearZero, NonConvergence, NonFinite, ZeroNorm
from .quadrature import _REL_TOL, inner_product_info
from .response import (_chi_prime_rows, _chi_qq, _chi_qq_and_prime,
                       feature_frequencies)
from .spectral import SpectralDensity

# the guard's floor under |λ|: λ = 0 in doubles is an undamped mode
_TINY = np.finfo(float).tiny
# the widest spread max|λ|/min|λ| of the strict Ohmic drift matrix's mode
# rates on which its quantum n2 takes the Matsubara sums.  Against its
# pass, on squared entries: within 1.8e-14 up to the spread 1e3, over
# D ∈ [1e-8, 31], β ∈ [0.01, 1e3] and ħ ∈ [0.01, 3] at ω₀ = 1; 8.4e-14
# at 1e4 (D = 100) and 5.5e-13 at 1e6 (D = 1e3), where the pass is
# 2.2e-16 off 30 digits
_MAX_SPREAD = 1e3
# the entries computed, and their (row, column) indices; pq mirrors qp
_KEYS = ("qq", "qp", "pp")
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


def _norms(value, names):
    """‖f‖² and ‖g‖² of each row of a pass's value; raises ZeroNorm,
    naming the first row (names[r]) with a norm below 1e-14."""
    norms = np.maximum(value[1:].real, 0.0)
    degenerate = np.flatnonzero((np.sqrt(norms) < 1e-14).any(axis=0))
    if degenerate.size:
        raise ZeroNorm(f"degenerate {names[degenerate[0]]}: norm below 1e-14")
    return norms


def _distance_info(sides, breakpoints=(), names=("argument",)):
    """Normalized distances of the row pairs (f, g) that the callable
    sides returns, from one ``inner_product_info`` pass over the whole
    line, with the panel count of the pass; names[r] names row r.

    Raises ZeroNorm, naming the first such row, when a row has a norm
    below 1e-14.  A pass that fails raises it as well when its estimate
    so far shows such a row: that entry has no distance however the
    other rows would end.
    """
    try:
        res = inner_product_info(sides, breakpoints=breakpoints)
    except NonConvergence as exc:
        if exc.estimate is not None:
            _norms(exc.estimate, names)
        raise
    return _distances(res.value, names), res.panels


def _distances(value, names):
    """√(1 − |⟨f,g⟩|²/(‖f‖²‖g‖²)) of each row of the products value,
    stacked ⟨f,g⟩, ‖f‖², ‖g‖²; raises ZeroNorm as ``_norms`` does."""
    nf2, ng2 = _norms(value, names)
    ratio = np.abs(value[0]) ** 2 / (nf2 * ng2)
    r = np.clip(1.0 - ratio, 0.0, 1.0)  # rounding can step outside [0, 1]
    return np.sqrt(r)


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
    val, _ = _distance_info(lambda w: (f(w), g(w)), breakpoints)
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
    """Entrywise distances from one pass over the three-row sides.
    Every entry carries cutoff_drift; an entry with a norm below 1e-14
    raises ZeroNorm, naming it.  A decoupled bath gives the zero matrix
    and no pass."""
    if sd.decoupled:
        return _matrix(prefix, 0.0, 0, cutoff_drift)
    values, panels = _distance_info(
        sides, feature_frequencies(p, sd),
        [f"{prefix}_{key}" for key in _KEYS])
    return _matrix(prefix, values, panels, cutoff_drift)


def _ohmic_entries(x, prefix):
    """n1 or classical n2 (qq, qp, pp) of the strict Ohmic bath at
    x = D/ω₀.  The whole-line integrals are rational in x (by residues):

        n1_qq² = x²(1 + x²)/(x²(1 + x²) + 4),   n2_qq² = x²/(1 + x²),
        n1_qp² = x²/(2(x² + 2)),                n2_qp² = x²/(2 + x²),
        n1_pp² = x²/(x² + (x² + 2)²),           n2_pp = 0,

    each written so that no power of x overflows: D = 1e300 gives
    n1 = (1, 1/√2, 1e-300) and n2 = (1, 1, 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        if prefix == "n1":
            return 1.0 / np.hypot([1.0, math.sqrt(2.0), 1.0],
                                  [2.0 / (x * np.hypot(1.0, x)), 2.0 / x,
                                   x + 2.0 / x])
        return np.array([x / np.hypot(1.0, x),
                         x / np.hypot(math.sqrt(2.0), x), 0.0])


def _guard(a, prefix):
    """Raise NonConvergence, naming the entry and the frequency |Im λ|,
    when the sharpest mode λ of the drift matrix a, q = |Re λ|/|λ|
    smallest, leaves χ̃_qq a rounding of ε/(2q) above _REL_TOL; an
    undamped mode (q = 0, or λ = 0 in doubles) has no bound at all.

    The strict Ohmic 2×2 matrix passes unchecked: its n1 and classical
    n2 are rational in D/ω₀, and its quantum n2 sums, where
    ``_quantum_closed_form`` takes them, held within 1.8e-14 of the pass
    on squared entries down to D = 1e-10 ω₀, below which its covariance
    pass fails first."""
    if len(a) == 2:
        return
    lam = np.linalg.eigvals(a)
    ratio = np.abs(lam.real) / np.maximum(np.abs(lam), _TINY)
    k = int(np.argmin(ratio))
    q = float(ratio[k])
    bound = np.finfo(float).eps / (2.0 * q) if q > 0.0 else math.inf
    if not bound <= _REL_TOL:
        where = abs(float(lam[k].imag))
        raise NonConvergence(
            f"{prefix}_qq: the mode of the drift matrix at ω = {where:.6g} "
            f"has |Re λ|/|λ| = {q:.3g}, so χ̃_qq carries rounding of "
            f"{bound:.3g}, above the {_REL_TOL:.0e} relative tolerance",
            error_bound=bound, where=where)


def _lyapunov(a):
    """solve(R): X with a·X + X·aᵀ = R for a batch R of shape (..., n, n),
    through the one n²×n² operator I⊗a + a⊗I, and one step of
    iterative refinement with the residual in extended precision: a
    slow mode of a (an overdamped bath far below a fast one) leaves the
    operator ill-conditioned, and the step takes its error from about
    ε·cond to ε (peaked (3, 3, 0.1): n1_qp from 1.4e-5 to 2.2e-9 of a
    50-digit solve).  Where longdouble is double the step does no harm."""
    n = len(a)
    eye = np.eye(n)
    op = (a[:, None, :, None] * eye[None, :, None, :]
          + eye[:, None, :, None] * a[None, :, None, :]).reshape(n * n, n * n)
    wide = op.astype(np.longdouble)

    def solve(rhs):
        b = rhs.reshape(-1, n * n).T
        x = np.linalg.solve(op, b)
        x += np.linalg.solve(op, (b - wide @ x).astype(float))
        return x.T.reshape(rhs.shape)
    return solve


# the pairs (u, v) of the sides (f, g, r) whose ⟨u, v⟩ enter a distance
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _n1_products(a):
    """2π·⟨u, v⟩ over _PAIRS of f, g, r at qq, qp, pp, shape (6, 3).

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
    n = len(a)
    solve = _lyapunov(a)
    e_q, e_p = np.eye(n)[:2]
    b = np.stack((e_p, -a[:, 1]))                     # B_q, B_p as rows
    m = np.outer(b[0], e_p) - np.outer(b[1], e_q)     # B·χ₊⁻¹·C
    blocks = np.stack((np.eye(n), m, np.eye(n) - m))  # f, g, r
    x22 = solve(-b[:, :, None] * b[:, None, :])
    y = solve(-np.einsum("sab,jbc->sjac", blocks, x22))  # X12 of each side
    u, v = np.array(_PAIRS).T
    x11 = solve(-(np.einsum("uab,ujcb->ujac", blocks[u], y[v])
                  + np.einsum("ujab,ucb->ujac", y[u], blocks[v])))
    return 2.0 * math.pi * np.stack(
        (x11[:, 0, 0, 0], x11[:, 1, 0, 0], x11[:, 1, 1, 1]), axis=1)


def _n2_products(a, omega0):
    """2π·⟨u, v⟩ over _PAIRS of the classical exact spectrum S, the
    regression prediction T and R = S − T at qq, qp, pp, shape (6, 3),
    in units of 1/β².

    S and T are H + H^† with H causal, so ⟨S_ij, T_ij⟩ is the sum of
    the causal products of columns j and i, at outputs i and j.  S has
    the columns Σ·[e_q, e_p]·β = [−A⁻¹e_p, e_p] (the Gibbs state of the
    embedding), T has [A·e_p/ω₀², e_p]; so R has only a q column.  The
    static response −A⁻¹e_p is [1/ω₀², 0, −A_bb⁻¹A_bq/ω₀²] (bath block
    bb, coupling A_bq), and A·e_p = e_q for the peaked bath, so the q
    and p entries of R's column cancel exactly, leaving the coupling."""
    e_p = np.eye(len(a))[1]
    s_q = np.concatenate(([1.0, 0.0],
                          -np.linalg.solve(a[2:, 2:], a[2:, 0]))) / omega0 ** 2
    t_q = a[:, 1] / omega0 ** 2
    cols = np.stack((s_q, t_q, s_q - t_q))           # S, T, R at column q
    u, v = np.array(_PAIRS).T
    x = _lyapunov(a)(np.concatenate((
        -cols[u][:, :, None] * cols[v][:, None, :], -np.outer(e_p, e_p)[None])))
    # column p: S and T share e_p, and R has none
    xq, xp = x[:-1], x[-1] * ((u < 2) & (v < 2))[:, None, None]
    return 2.0 * math.pi * np.stack(
        (2.0 * xq[:, 0, 0], xp[:, 0, 0] + xq[:, 1, 1], 2.0 * xp[:, 1, 1]),
        axis=1)


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


def _n2_quantum_products(p, a, cov0, terms):
    """⟨S, T⟩, ‖S‖² and ‖T‖² at qq, qp, pp of the quantum exact spectrum
    S and the regression prediction T of a bath with the drift matrix a
    (the peaked 4×4 or the strict Ohmic 2×2 one), shape (3, 3) like a
    pass's value, from the Matsubara terms (ν_n, ν_{N+1}, ζ) of
    ``correlations._matsubara_terms``.

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
    nu, top, zeta = terms
    eye = np.eye(len(a))
    sigma = np.concatenate(([1.0, 0.0],
                            -np.linalg.solve(a[2:, 2:], a[2:, 0])))
    cols = np.stack((sigma / p.omega0 ** 2, eye[1], cov0.c_qq * a[:, 1],
                     cov0.c_pp * eye[1]))
    x = _lyapunov(a)(-cols[:, None, :, None] * cols[None, :, None, :])
    # the rows e_o·a(ν − a)⁻¹, e_o·a(ν − a)⁻² and e_o·a²(ν − a)⁻² at each ν_n
    res = np.linalg.inv(nu[:, None, None] * eye - a)
    z = a[:2] @ res
    v, w = z @ res, z @ a @ res
    # the Krylov rows e_o·(a/ν_{N+1})^j, j = 0 … 31, by doubling
    power, krylov = a / top, eye[:2, None, :]
    while krylov.shape[1] <= _TAIL_MOMENTS:
        krylov = np.concatenate((krylov, krylov @ power), axis=1)
        power = power @ power
    tail = krylov[:, 2:_TAIL_MOMENTS + 2]           # the orders j = 2 … 31
    # the cross halves' row functionals: e_o (∫P), the W and csch² sums,
    # each direct part plus its ζ tail, and e_o·a² (μ_2)
    rows = np.stack((eye[:2], z.sum(axis=0) + zeta @ tail,
                     w.sum(axis=0) + (_ORDERS - 1.0) * zeta @ tail,
                     a[:2] @ a))
    # R_o·X_kl·e_o′ + R_o′·X_lk·e_o over the half-sides (o, k) and (o′, l)
    g = np.einsum("fod,kldm->fokml", rows, x[..., :2])
    cross = (g + g.transpose(0, 3, 4, 1, 2)).reshape(4, 8, 8)
    # the other halves: νF(ν) = e_o·b_k + e_o·a(ν − a)⁻¹b_k = Σ_j f_j/ν^j
    # with f_j = e_o·a^j·b_k, and its ∂_ν
    phi = (cols.T[:2] + z @ cols.T).reshape(-1, 8)
    dphi = -(v @ cols.T).reshape(-1, 8)
    f = (krylov[:, :_TAIL_MOMENTS + 1] @ cols.T).swapaxes(1, 2).reshape(8, -1)
    # the tail of Σ_j p_j/ν^{j+1}, p the Cauchy product of two f, is a
    # Hankel form: ζ of the order k + l + 1 between f_k and f_l
    k = np.arange(_TAIL_MOMENTS + 1)
    order = k[:, None] + k
    hankel = np.concatenate(([0.0], zeta, np.zeros(_TAIL_MOMENTS)))[order]
    prod = np.stack((
        np.zeros((8, 8)),
        (phi / nu[:, None]).T @ phi + f @ hankel @ f.T / top,
        -(dphi.T @ phi + phi.T @ dphi) + f @ (order * hankel) @ f.T / top,
        (np.outer(f[:, 0], f[:, 1]) + np.outer(f[:, 1], f[:, 0])) * top))
    f1, f2, g1, g2 = _PRODUCTS
    m0, sw, sc, mu2 = (cross[:, f1, g1] + cross[:, f2, g2]
                       + prod[:, f1, g2] + prod[:, f2, g1])
    m0 = math.pi * m0
    ss = ((m0[:3] + 2.0 * math.pi * sc[:3]) / p.beta ** 2
          - 0.5 * math.pi * p.hbar ** 2 * mu2[:3])
    st = (m0[6:9] - 2.0 * math.pi * sw[6:9]) / p.beta + 0j
    st[1] += 0.5j * p.hbar * m0[9]
    return np.stack((st, ss + 0j, m0[3:6] + 0j))


def _gram_entries(products, prefix):
    """√(G/(‖f‖²‖g‖²)) per entry from the products over _PAIRS, with G
    the Gram determinant of the two shortest of f, g and r = f − g,
    which spans the same area from any two of them; divided through so
    that no two norms multiply, which could overflow."""
    for key, column in zip(_KEYS, products.T):
        if not np.isfinite(column).all():
            raise NonFinite(f"{prefix}_{key}: an inner product of the "
                            "closed form is not finite")
        if not (column[0] > 0.0 and column[1] > 0.0):
            raise ZeroNorm(f"degenerate {prefix}_{key}: norm not positive")
    ff, gg, rr, fg, fr, gr = products
    # ‖r‖² comes from its own realization, so ‖f‖² − 2⟨f,g⟩ + ‖g‖² checks
    # the solves: an extreme bath (parameters 1e20 apart) breaks it
    gap = np.abs(ff - 2.0 * fg + gg - rr) / (ff + gg)
    k = int(np.argmax(gap))
    if not gap[k] <= _REL_TOL:
        raise NonConvergence(
            f"{prefix}_{_KEYS[k]}: the closed form's ‖f − g‖² and ‖r‖² "
            f"differ by {gap[k]:.3g} of ‖f‖² + ‖g‖², above the "
            f"{_REL_TOL:.0e} relative tolerance", error_bound=float(gap[k]))
    longest = np.argmax(products[:3], axis=0)
    with np.errstate(over="ignore", under="ignore"):
        ratio = np.where(longest == 2, 1.0 - (fg / ff) * (fg / gg),
                         np.where(longest == 1, (rr - fr * (fr / ff)) / gg,
                                  (rr - gr * (gr / gg)) / ff))
    return np.sqrt(np.clip(ratio, 0.0, 1.0))


def _closed_form(p, a, prefix):
    """n1 (prefix 'n1') or classical n2 ('n2') of a coupled bath with
    the drift matrix a, as a (matrix, diagnostics) pair with no pass.
    An extreme bath whose solves overflow raises NonFinite, one whose
    Lyapunov operator is singular in doubles DivisionNearZero."""
    _guard(a, prefix)
    if len(a) == 2:     # (q, p) alone: the strict Ohmic oscillator
        values = _ohmic_entries(-a[1, 1] / p.omega0, prefix)
    else:
        try:
            with np.errstate(all="ignore"):
                products = (_n1_products(a) if prefix == "n1"
                            else _n2_products(a, p.omega0))
        except np.linalg.LinAlgError as exc:
            raise DivisionNearZero(
                f"{prefix}_qq: the Lyapunov operator of the drift matrix "
                "is singular in double precision") from exc
        values = _gram_entries(products, prefix)
    return _matrix(prefix, values)


def _stiff_ohmic(a):
    """Whether a is the strict Ohmic 2×2 drift matrix with mode rates |λ|
    more than _MAX_SPREAD apart (NaN counts as apart), as past
    D ≈ 31.6ω₀, where its real modes sit near D and ω₀²/D.  A peaked
    matrix is never so: on stiff ones its pass loses digits too, as on
    (0.9, 1, 0.0625), a spread of 7.7e5, where at β = 0.3, ħ = 1 the
    sums read n2 squared 9.5e-12 off 30 digits and the pass 4.7e-12."""
    if len(a) > 2:
        return False
    rates = np.abs(np.linalg.eigvals(a))
    return not rates.max() <= _MAX_SPREAD * rates.min()


def _quantum_closed_form(p, a, cov0):
    """Quantum n2 (qq, qp, pp) of a bath with the drift matrix a by
    ``_n2_quantum_products``, after ``_guard`` as in ``_closed_form``,
    with its errors; None where ``_matsubara_terms`` has no sum (β = ∞)
    or past _N2_MAX_TERMS terms, and on a stiff strict Ohmic matrix,
    whose pass keeps the digits that the sums lose there."""
    terms = _matsubara_terms(p, a, _N2_MAX_TERMS)
    if terms is None or _stiff_ohmic(a):
        return None
    _guard(a, "n2")
    try:
        with np.errstate(all="ignore"):
            value = _n2_quantum_products(p, a, cov0, terms)
    except np.linalg.LinAlgError as exc:
        raise DivisionNearZero(
            "n2_qq: the Lyapunov operator of the drift matrix is singular "
            "in double precision") from exc
    for key, column in zip(_KEYS, value.T):
        if not np.isfinite(column).all():
            raise NonFinite(f"n2_{key}: an inner product of the Matsubara "
                            "sums is not finite")
    return _distances(value, [f"n2_{key}" for key in _KEYS])


def divisibility_quantifier(p, sd: SpectralDensity):
    """First quantifier: distance between −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃.

    Vanishes entrywise iff the mean propagator forms a divisible
    (semigroup) family; zero coupling returns the zero matrix.  A bath
    with a drift matrix takes the closed form, any other one pass.

    Returns (2×2 real array, diagnostics dict).
    """
    a = None if sd.decoupled else sd.drift_matrix(p.omega0)
    if a is not None:
        return _closed_form(p, a, "n1")
    return _quantifier_matrix(p, sd, "n1", _n1_sides(p, sd))


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
    a = None if sd.decoupled else sd.drift_matrix(p.omega0)
    if a is not None and p.hbar == 0.0:
        return _closed_form(p, a, "n2")
    cov0 = covariance0(p, sd)
    values = None if a is None else _quantum_closed_form(p, a, cov0)
    if values is not None:
        return _matrix("n2", values, cutoff_drift=cov0.cutoff_drift)
    return _quantifier_matrix(p, sd, "n2", _n2_sides(p, sd, cov0),
                              cutoff_drift=cov0.cutoff_drift)


def _pass_quantifiers(p, sd: SpectralDensity):
    """n1 and n2 by the quadrature pass, whatever the bath: the
    cross-check of the closed forms."""
    cov0 = covariance0(p, sd)
    return (_quantifier_matrix(p, sd, "n1", _n1_sides(p, sd))[0],
            _quantifier_matrix(p, sd, "n2", _n2_sides(p, sd, cov0),
                               cov0.cutoff_drift)[0])


def quantify(p, sd: SpectralDensity, which: str = "both") -> QuantifierReport:
    """Compute the requested quantifier matrices with diagnostics.

    which ∈ {'n1', 'n2', 'both'}.
    """
    if which not in ("n1", "n2", "both"):
        raise ValueError(f"unknown quantifier selection {which!r}")
    n1 = n2 = None
    diagnostics: dict[str, EntryDiagnostics] = {}
    if which in ("n1", "both"):
        n1, d = divisibility_quantifier(p, sd)
        diagnostics.update(d)
    if which in ("n2", "both"):
        n2, d = regression_quantifier(p, sd)
        diagnostics.update(d)
    return QuantifierReport(n1=n1, n2=n2, diagnostics=diagnostics)
