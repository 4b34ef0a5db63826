"""Matrix forms of the correlation spectra and of the peaked bath, for
algebraic cross-checks.

The package computes the regression-theorem prediction entry by entry
(``correlations.rt_entries_vec``); the form here multiplies the 2×2
matrices out, so the tests can compare the two.  ``pole_residues``
diagonalizes the pseudo-mode drift matrix of a peaked bath, from which
χ̃_qq and the equal-time covariances follow in closed form.
``unfolded_line`` integrates the three products of an
``inner_product_info`` pass over [−W, W] itself, without the fold.
"""
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


def unfolded_line(f, g, cfg, breakpoints=()):
    """⟨f,g⟩, ‖f‖² and ‖g‖² by ``integrate`` over [−W, W] with the
    breakpoints mirrored, shape (3,) + rows like ``LineIntegral.value``."""
    def products(x):
        fx, gx = np.asarray(f(x)), np.asarray(g(x))
        return np.stack((fx * np.conj(gx), np.abs(fx) ** 2, np.abs(gx) ** 2))

    W = cfg.half_width
    return integrate(products, -W, W, cfg,
                     breakpoints=[s * b for b in breakpoints for s in (-1, 1)])
