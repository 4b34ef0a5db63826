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
drift-matrix bath at 50 digits.
"""
import math

import mpmath as mp
import numpy as np

from nonmarkov.correlations import CovarianceMatrix
from nonmarkov.quadrature import integrate
from nonmarkov.response import CHI_PLUS_INV, ModelParams, chi_matrix
from nonmarkov.spectral import PeakedSD, SpectralDensity


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
    c = c0.as_array()
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
