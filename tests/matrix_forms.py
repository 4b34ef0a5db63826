"""Matrix forms of the correlation spectra, for algebraic cross-checks.

The package computes the regression-theorem prediction entry by entry
(``correlations.rt_entries_vec``); the form here multiplies the 2×2
matrices out, so the tests can compare the two.
"""
from nonmarkov.correlations import CovarianceMatrix
from nonmarkov.response import CHI_PLUS_INV, ModelParams, _matmul2, chi_matrix
from nonmarkov.spectral import SpectralDensity


def rt_spectrum_general(p: ModelParams, sd: SpectralDensity, omega,
                        c0: CovarianceMatrix):
    """Matrix form χ̃ χ₊⁻¹ C(0) − C(0) χ₊⁻¹ χ̃† of the regression
    prediction, shape (2, 2) + ω.shape."""
    chi = chi_matrix(p, sd, omega)
    c = c0.as_array()
    return (_matmul2(_matmul2(chi, CHI_PLUS_INV), c)
            - _matmul2(_matmul2(c, CHI_PLUS_INV), chi.conj().swapaxes(0, 1)))
