"""Property tests of the array response layer.

Every 2×2 function of ω (χ̃, χ̃′, the divisibility residual, the exact
and the regression-theorem spectra) is one ndarray of shape
(2, 2) + ω.shape.  These tests pin that layout, check that a batch gives
the values of its scalar slices, and check the matrix identities against
plain ``@`` products taken one frequency at a time.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nonmarkov
from nonmarkov.correlations import (
    CovarianceMatrix,
    exact_entries_vec,
    rt_entries_vec,
)
from nonmarkov.errors import DerivativeUnstable
from nonmarkov.quantifiers import _n1_sides
from nonmarkov.response import (
    CHI_PLUS_INV,
    ModelParams,
    chi_matrix,
    chi_prime_matrix,
    divisibility_residual,
)
from nonmarkov.spectral import OhmicSD, PeakedSD, TabulatedSD

from matrix_forms import rt_spectrum_general

SETTINGS = settings(max_examples=40, deadline=None, database=None)

models = st.builds(
    ModelParams,
    omega0=st.floats(0.5, 2.0),
    beta=st.floats(0.3, 3.0),
    hbar=st.sampled_from([0.0, 0.5, 1.0]),
)
baths = st.one_of(
    st.builds(OhmicSD, st.floats(0.01, 2.0)),
    st.builds(PeakedSD, coupling=st.floats(0.05, 1.5),
              width=st.floats(0.1, 2.0), resonance=st.floats(0.3, 3.0)),
)
covariances = st.builds(CovarianceMatrix, st.floats(0.05, 5.0),
                        st.floats(0.05, 5.0))
frequencies = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4),
    elements=st.floats(-20.0, 20.0))


def _layers(p, sd, c0):
    """Every array-valued 2×2 function of ω, as (name, ω ↦ array)."""
    return (
        ("chi_matrix", lambda w: chi_matrix(p, sd, w)),
        ("chi_prime_matrix", lambda w: chi_prime_matrix(p, sd, w)),
        ("divisibility_residual", lambda w: divisibility_residual(p, sd, w)),
        ("exact_entries_vec", lambda w: exact_entries_vec(p, sd, w)),
        ("rt_entries_vec", lambda w: rt_entries_vec(p, sd, w, c0)),
        ("rt_spectrum_general",
         lambda w: rt_spectrum_general(p, sd, w, c0)),
    )


def _close(a, b, *terms):
    """Equal to rounding: numpy's scalar and array loops may differ in the
    last bit, and a difference inherits the error of its terms."""
    scale = max(np.abs(x).max() for x in (a, b, *terms))
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-13 * scale)


@SETTINGS
@given(models, baths, covariances, frequencies)
def test_shape_is_entries_first(p, sd, c0, omega):
    for name, fn in _layers(p, sd, c0):
        assert fn(omega).shape == (2, 2) + omega.shape, name
        assert fn(float(omega.flat[0])).shape == (2, 2), name


@SETTINGS
@given(models, baths, covariances, frequencies)
def test_batch_matches_scalar_slices(p, sd, c0, omega):
    for name, fn in _layers(p, sd, c0):
        batch = fn(omega)
        for idx in np.ndindex(omega.shape):
            w = float(omega[idx])
            terms = ((chi_prime_matrix(p, sd, w), chi_matrix(p, sd, w))
                     if name == "divisibility_residual" else ())
            _close(batch[(slice(None), slice(None)) + idx], fn(w), *terms)


@SETTINGS
@given(models, baths, frequencies)
def test_residual_matches_plain_matmul(p, sd, omega):
    res = divisibility_residual(p, sd, omega)
    for idx in np.ndindex(omega.shape):
        w = float(omega[idx])
        chi = chi_matrix(p, sd, w)
        lhs = -1j * chi_prime_matrix(p, sd, w)
        rhs = chi @ CHI_PLUS_INV @ chi
        _close(res[(slice(None), slice(None)) + idx], lhs - rhs, lhs, rhs)


@SETTINGS
@given(models, baths,
       hnp.arrays(np.float64, st.integers(1, 8),
                  elements=st.floats(-20.0, 20.0)))
def test_n1_pair_differs_by_the_residual(p, sd, omega):
    # the residual is evaluated in closed form, not as this difference
    res = divisibility_residual(p, sd, omega)
    f, g = _n1_sides(p, sd)(omega)
    _close(f - g, res[(0, 0, 1), (0, 1, 1)], f, g)


@SETTINGS
@given(models, baths, covariances, frequencies)
def test_rt_entries_match_general_form(p, sd, c0, omega):
    _close(rt_entries_vec(p, sd, omega, c0),
           rt_spectrum_general(p, sd, omega, c0))


def test_tabulated_derivative_batch_and_first_failure():
    peaked = PeakedSD(coupling=1.0, width=0.5, resonance=2.0)
    grid = np.arange(0.0, 30.0 + 1e-9, 0.0025)
    vals = peaked.j(grid)
    vals[0] = 0.0
    tab = TabulatedSD(grid, vals)
    omega = np.array([[0.8, -1.0], [1.0, 2.6]])
    batch = tab.gamma_tilde_prime_vec(omega)
    assert batch.shape == omega.shape
    for idx in np.ndindex(omega.shape):
        assert batch[idx] == tab.gamma_tilde_prime_vec(float(omega[idx]))

    w = np.arange(0.0, 12.0 + 1e-9, 0.1)
    jagged = w * np.exp(-w) * (1.0 + 0.25 * (-1.0) ** np.arange(w.size))
    jagged[0] = jagged[-1] = 0.0
    with pytest.raises(DerivativeUnstable, match="ω = 1.3 "):
        TabulatedSD(w, jagged).gamma_tilde_prime_vec(np.array([1.3, 1.0]))


PUBLIC_NAMES = {
    "CovarianceMatrix", "CutoffSensitive",
    "DerivativeUnstable", "DivisionNearZero", "EntryDiagnostics",
    "LangevinConfig", "LangevinResult",
    "ModelParams", "NonConvergence", "NonFinite", "NumericsError",
    "OhmicSD", "PeakedSD",
    "QuadratureConfig", "QuantifierReport", "SpectralDensity",
    "TabulatedSD", "UnstableStep", "ZeroNorm",
    "chi_matrix", "chi_prime_matrix", "chi_qq_vec",
    "chi_time", "covariance0",
    "distance", "divisibility_quantifier", "divisibility_residual",
    "embedding_response", "embedding_static_sum",
    "feature_frequencies", "integrate",
    "langevin_means",
    "propagate_means", "quantify", "regression_quantifier",
    "__version__",
}


def test_public_surface_is_pinned():
    assert len(nonmarkov.__all__) == len(set(nonmarkov.__all__))
    assert set(nonmarkov.__all__) == PUBLIC_NAMES
    for name in nonmarkov.__all__:
        assert getattr(nonmarkov, name) is not None
