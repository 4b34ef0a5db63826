"""Matrix forms of the correlation spectra and of the peaked bath, for
algebraic cross-checks.

The package computes the regression-theorem prediction entry by entry
(``correlations.rt_entries_vec``); the form here multiplies the 2×2
matrices out, so the tests can compare the two.  ``pole_residues``
diagonalizes the pseudo-mode drift matrix of a peaked bath, from which
χ̃_qq and the equal-time covariances follow in closed form.
``unfolded_line`` integrates the three products of an
``inner_product_info`` pass over each half of the real line itself,
without the fold.
``mp_matsubara_covariance`` sums the quantum covariances of a
drift-matrix bath at 50 digits, ``mp_lyapunov_quantifiers`` solves
for n1 and classical n2 of an Ohmic or peaked bath at 50 digits, and
``mp_quantum_n2`` integrates quantum n2 of an Ohmic or peaked bath over
the whole line at 30 digits.
"""
import math

import mpmath as mp
import numpy as np

from nonmarkov.correlations import CovarianceMatrix
from nonmarkov.quadrature import integrate
from nonmarkov.response import CHI_PLUS_INV, ModelParams, chi_matrix
from nonmarkov.spectral import OhmicSD, PeakedSD, SpectralDensity


def _matmul(a, b):
    """2×2 product over entries-first arrays of shape (2, 2, ...):
    (ab)[i, j] = Σ_k a[i, k]·b[k, j], with the trailing (frequency) axes
    broadcast, so a constant 2×2 matrix combines with a whole batch."""
    return np.einsum("ik...,kj...->ij...", a, b)


def rt_spectrum_general(p: ModelParams, sd: SpectralDensity, omega,
                        c0: CovarianceMatrix):
    """Matrix form χ̃ χ₊⁻¹ C(0) − C(0) χ₊⁻¹ χ̃† of the regression
    prediction, shape (2, 2) + ω.shape."""
    chi = chi_matrix(p, sd, omega)
    c = np.diag([c0.c_qq, c0.c_pp])
    return (_matmul(_matmul(chi, CHI_PLUS_INV), c)
            - _matmul(_matmul(c, CHI_PLUS_INV), chi.conj().swapaxes(0, 1)))


def pole_residues(sd: PeakedSD, omega0: float):
    """Eigenvalues λ_k of A = ``sd.drift_matrix(omega0)`` = V·Λ·V⁻¹ and
    the residues r_k = V_qk·(V⁻¹)_kp, so that χ_qq(t) = Σ r_k e^{λ_k t}
    and χ̃_qq(ω) = −Σ r_k/(λ_k + iω)."""
    lam, v = np.linalg.eig(sd.drift_matrix(omega0))
    return lam, v[0] * np.linalg.inv(v)[:, 1]


def unfolded_line(sides, breakpoints=()):
    """⟨f,g⟩, ‖f‖² and ‖g‖² of the pair (f, g) that sides returns, by
    one ``integrate`` of P(x) and one of P(−x) over [0, ∞), each with
    the breakpoints, shape (3,) + rows like ``LineIntegral.value``."""
    def products(x):
        fx, gx = np.asarray(sides(x))
        return np.stack((fx * np.conj(gx), np.abs(fx) ** 2, np.abs(gx) ** 2))

    return sum(integrate(lambda x, s=s: products(s * x), 0.0, math.inf,
                         breakpoints=breakpoints) for s in (1.0, -1.0))


def mp_matsubara_covariance(p: ModelParams, sd: SpectralDensity,
                            dps: int = 50):
    """(c_qq, c_pp) of a bath whose drift matrix A has A_pp = 0, from its
    Matsubara sums at dps digits, with s_n = (ν_n − A)⁻¹e_p:
    c_qq = (1/β)[1/ω₀² + 2Σ_n (s_n)_q] and c_pp = (1/β)[1 − 2Σ_n A_p·s_n].

    Each s_n up to the first n with ν_n ≥ 4ρ(A) + 32ν₁ is an ``lu_solve``;
    beyond it, s_n = Σ_k A^k·e_p/ν_n^{k+1}, and each order k = 1 … 80 is
    summed over n by the Hurwitz ζ.  The terms of that series fall like
    4^{−k}, far below rounding at 80; the p entry of the k = 0 order
    diverges, but A_pp = 0 leaves it out of c_pp."""
    a = sd.drift_matrix(p.omega0)
    assert a[1, 1] == 0.0
    rho = float(np.abs(np.linalg.eigvals(a)).max())
    with mp.workdps(dps):
        am = mp.matrix(a.tolist())
        dim = am.rows
        e_p = mp.matrix([0, 1] + [0] * (dim - 2))
        nu1 = 2 * mp.pi / (mp.mpf(p.beta) * mp.mpf(p.hbar))
        n = math.ceil(4.0 * rho / float(nu1)) + 32
        s = mp.matrix(dim, 1)
        for k in range(1, n + 1):
            s += mp.lu_solve(k * nu1 * mp.eye(dim) - am, e_p)
        v = e_p
        for k in range(1, 81):
            v = am * v
            s += v * (mp.zeta(k + 1, n + 1) / nu1 ** (k + 1))
        c_pp = 1 - 2 * sum(am[1, j] * s[j] for j in range(dim))
        return (float((1 / mp.mpf(p.omega0) ** 2 + 2 * s[0]) / p.beta),
                float(c_pp / p.beta))


def _mp_kron(x, y):
    out = mp.matrix(x.rows * y.rows, x.cols * y.cols)
    for i in range(x.rows):
        for j in range(x.cols):
            if x[i, j]:
                for k in range(y.rows):
                    for m in range(y.cols):
                        out[i * y.rows + k, j * y.cols + m] = x[i, j] * y[k, m]
    return out


def _mp_drift_matrix(sd, omega0):
    """The drift matrix of an Ohmic or peaked bath, built from the
    bath's parameters at the working precision, not from
    ``drift_matrix``."""
    w2 = mp.mpf(omega0) ** 2
    if isinstance(sd, OhmicSD):
        return mp.matrix([[0, 1], [-w2, -mp.mpf(sd.damping)]])
    d, g, big = (mp.mpf(sd.coupling), mp.mpf(sd.width),
                 mp.mpf(sd.resonance))
    return mp.matrix([[0, 1, 0, 0], [-(w2 + d ** 2 / big ** 2), 0, d, 0],
                      [0, 0, 0, 1], [d, 0, -big ** 2, -g]])


def _mp_products(drifts, cases):
    """c·X·cᵀ for each pair (u, v) of realizations and each case
    (inputs, output): X solves A_u·X + X·A_vᵀ + b_u·b_vᵀ = 0, with
    b = inputs[u] and inputs[v], by LU decomposition of the Kronecker
    operator I⊗A_u + A_v⊗I (column-major vec), and c = e_output.  Each
    operator is built and factored once for all cases, where
    ``lu_solve`` would factor it again for each."""
    out = [{} for _ in cases]
    for u, v in (("f", "f"), ("g", "g"), ("f", "g")):
        au, av = drifts[u], drifts[v]
        n = au.rows
        lu, perm = mp.mp.LU_decomp(_mp_kron(mp.eye(n), au)
                                + _mp_kron(av, mp.eye(n)))
        for res, (inputs, output) in zip(out, cases):
            rhs = mp.matrix(n * n, 1)
            for col in range(n):
                for row in range(n):
                    rhs[col * n + row] = -inputs[u][row] * inputs[v][col]
            x = mp.mp.U_solve(lu, mp.mp.L_solve(lu, rhs, perm))
            res[u + v] = x[output * (n + 1)]
    return out


def _mp_distance(prods):
    return float(mp.sqrt(max(0, 1 - prods["fg"] ** 2
                             / (prods["ff"] * prods["gg"]))))


def mp_lyapunov_quantifiers(sd, omega0: float = 1.0, dps: int = 50):
    """(n1, classical n2) at qq, qp, pp of an Ohmic or peaked bath from
    Lyapunov equations at dps digits, each distance as
    √(1 − ⟨f,g⟩²/(‖f‖²‖g‖²)) of the two sides alone.

    n1: f = −i dχ̃/dω and g = χ̃ χ₊⁻¹ χ̃ are the responses of the drift
    matrices [[A, I], [0, A]] and [[A, M], [0, A]], M = B·χ₊⁻¹·C, with
    input [0; B_j] and output [C_i, 0] at entry (i, j), where
    B = [e_p, −A·e_p] and C = [e_q; e_p]; each is solved whole, as one
    (2n)² system.  Classical n2: the exact spectrum has the causal part
    C·e^{At}·[−A⁻¹e_p, e_p], the regression prediction
    C·e^{At}·[A·e_p/ω₀², e_p], and entry (i, j) adds the products of
    columns j and i at outputs i and j."""
    with mp.workdps(dps):
        a = _mp_drift_matrix(sd, omega0)
        n = a.rows
        eye = mp.eye(n)
        e_p = eye[:, 1]
        b = [e_p, -(a * e_p)]
        m = b[0] * eye[1, :] - b[1] * eye[0, :]

        def block(coupling):
            out = mp.matrix(2 * n, 2 * n)
            for i in range(n):
                for j in range(n):
                    out[i, j] = out[n + i, n + j] = a[i, j]
                    out[i, n + j] = coupling[i, j]
            return out

        drifts = {"f": block(eye), "g": block(m)}
        pads = []
        for j in range(2):
            pad = mp.matrix(2 * n, 1)
            for k in range(n):
                pad[n + k] = b[j][k]
            pads.append({"f": pad, "g": pad})
        n1 = [_mp_distance(prods) for prods in _mp_products(
            drifts, [(pads[j], i) for i, j in ((0, 0), (0, 1), (1, 1))])]
        static = -mp.lu_solve(a, e_p)
        columns = [{"f": static, "g": (a * e_p) / mp.mpf(omega0) ** 2},
                   {"f": e_p, "g": e_p}]
        # products of column j at output i, keyed (i, j)
        keys = [(i, j) for i in range(2) for j in range(2)]
        prods = dict(zip(keys, _mp_products(
            {"f": a, "g": a}, [(columns[j], i) for i, j in keys])))
        n2 = [_mp_distance({k: prods[i, j][k] + prods[j, i][k]
                            for k in ("ff", "gg", "fg")})
              for i, j in ((0, 0), (0, 1), (1, 1))]
        return n1, n2


def mp_quantum_n2(p: ModelParams, sd, c0: CovarianceMatrix, dps: int = 30):
    """Quantum n2 at qq, qp, pp of an Ohmic or peaked bath from whole-line
    mpmath quadrature at dps digits: ⟨S, T⟩, ‖S‖² and ‖T‖² of the exact
    spectrum S = w_B·Re γ̃·|χ̃_qq|²·[1, iω, ω²] and the regression
    prediction T built on the covariances c0, each integrated as
    P(ω) + P(−ω) over [0, ∞), split at the resonances ν and ν ± σ of the
    drift matrix's modes −σ ± iν and at the thermal scale 1/(βħ).  The
    strict Ohmic γ̃ is the constant D, and c0 carries its cutoff-limited
    c_pp.  One evaluation at ω serves all ten integrands, in real
    arithmetic (⟨S, T⟩ at qp is complex)."""
    with mp.workdps(dps):
        ohmic = isinstance(sd, OhmicSD)
        if not ohmic:
            d2 = mp.mpf(sd.coupling) ** 2
            g2, big2 = mp.mpf(sd.width) ** 2, mp.mpf(sd.resonance) ** 2
        w02, beta, hbar = (mp.mpf(p.omega0) ** 2, mp.mpf(p.beta),
                           mp.mpf(p.hbar))
        cqq, cpp = mp.mpf(c0.c_qq), mp.mpf(c0.c_pp)
        memo = {}

        def rows(x):
            if x not in memo:
                # γ̃(±x) = re ± i·x·im and χ̃_qq(±x) = cr ± i·ci
                x2 = x * x
                if ohmic:
                    re, im = mp.mpf(sd.damping), mp.mpf(0)
                else:
                    den = (x2 - big2) ** 2 + g2 * x2
                    re = d2 * mp.sqrt(g2) / den
                    im = d2 * (g2 + x2 - big2) / (big2 * den)
                dr, di = w02 - x2 + x2 * im, -x * re
                mod = dr * dr + di * di
                cr = dr / mod
                # T_qp = c_pp·χ̃ − c_qq(ω²χ̃* + 1) = tr ± i·ti
                tr = (cpp - cqq * x2) * cr - cqq
                out = [mp.mpf(0)] * 10
                for w in (x, -x):
                    ci = w * re / mod
                    s = -2 * hbar * w / mp.expm1(-beta * hbar * w) * re / mod
                    tqq, tpp = 2 * w * cqq * ci, 2 * w * cpp * ci
                    ti = (cpp + cqq * x2) * ci
                    for k, term in enumerate((
                            s * tqq, s * s, tqq * tqq,
                            w * s * ti, w * s * tr, x2 * s * s,
                            tr * tr + ti * ti,
                            x2 * s * tpp, x2 * x2 * s * s, tpp * tpp)):
                        out[k] += term
                memo[x] = out
            return memo[x]

        cuts = [1.0 / (p.beta * p.hbar)]
        for lam in np.linalg.eigvals(sd.drift_matrix(p.omega0)):
            nu, sig = abs(lam.imag), abs(lam.real)
            cuts += [nu, nu - sig, nu + sig]
        line = [mp.mpf(0), *(mp.mpf(x) for x in sorted(set(cuts)) if x > 0),
                mp.inf]
        ints = [mp.quad(lambda x, k=k: rows(x)[k], line) for k in range(10)]
        n2 = []
        for st2, ss, tt in ((ints[0] ** 2, ints[1], ints[2]),
                            (ints[3] ** 2 + ints[4] ** 2, ints[5], ints[6]),
                            (ints[7] ** 2, ints[8], ints[9])):
            n2.append(float(mp.sqrt(1 - st2 / (ss * tt))))
        return n2
