"""Scale-invariant L2 distance and the two non-Markovianity quantifiers.

The first quantifier measures how far the frequency-domain response is
from satisfying the divisibility (semigroup) identity; the second
measures how far the exact equilibrium correlation spectrum is from the
regression-theorem prediction built out of the mean-value propagator.
Both reduce each 2×2 matrix entry to a number in [0, 1] via the same
normalized distance over the whole real frequency line, so they are
insensitive to any global rescaling of the underlying functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import _exact_rows, _rt_rows, covariance0
from .errors import NonConvergence, ZeroNorm
from .quadrature import _DEFAULT_CFG, QuadratureConfig, inner_product_info
from .response import _chi_qq, _chi_qq_and_prime, feature_frequencies
from .spectral import SpectralDensity

# the entries computed, and their (row, column) indices; pq mirrors qp
_KEYS = ("qq", "qp", "pp")
_ENTRY = ((0, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class EntryDiagnostics:
    """How one quantifier entry was obtained.

    panels is the panel count of the one whole-line pass that gives all
    entries of a quantifier, so it is the same for each of them.
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


def _distance_info(sides, cfg: QuadratureConfig, breakpoints=(),
                   names=("argument",)):
    """Normalized distances of the row pairs (f, g) that the callable
    sides returns, from one ``inner_product_info`` pass over the whole
    line, with the panel count of the pass; names[r] names row r.

    Raises ZeroNorm, naming the first such row, when a row has a norm
    below 1e-14.  A pass that fails raises it as well when its estimate
    so far shows such a row: that entry has no distance however the
    other rows would end.
    """
    try:
        res = inner_product_info(sides, cfg, breakpoints=breakpoints)
    except NonConvergence as exc:
        if exc.estimate is not None:
            _norms(exc.estimate, names)
        raise
    nf2, ng2 = _norms(res.value, names)
    ratio = np.abs(res.value[0]) ** 2 / (nf2 * ng2)
    r = np.clip(1.0 - ratio, 0.0, 1.0)  # rounding can step outside [0, 1]
    return np.sqrt(r), res.panels


def distance(f, g, cfg: QuadratureConfig | None = None,
             *, breakpoints=()) -> float:
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
    val, _ = _distance_info(lambda w: (f(w), g(w)), cfg or _DEFAULT_CFG,
                               breakpoints)
    return float(val)


def _n1_sides(p, sd):
    """The pair (−i dχ̃/dω, χ̃ χ₊⁻¹ χ̃) at qq, qp, pp from one χ̃ batch: f is
    −i·``chi_prime_matrix``, and g is −2iωc², c + 2ω²c², −2iωc(1 + ω²c)
    with c = χ̃_qq.  Both are hermitian (χ̃ is the response of a real,
    causal system), so each ⟨f,g⟩ row is real."""
    def sides(w):
        c, cp = _chi_qq_and_prime(p, sd, w)
        return (-1j * np.array([cp, 1j * c + 1j * w * cp,
                                2.0 * w * c + w ** 2 * cp]),
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


def _quantifier_matrix(p, sd, cfg, prefix, sides, cutoff_drift=0.0):
    """Entrywise distances from one pass over the three-row sides; qp
    and pq coincide by the entry structure (the two off-diagonal
    functions differ only by an overall sign or a complex conjugation,
    neither of which moves the distance).  Every entry carries
    cutoff_drift; an entry with a norm below 1e-14 raises ZeroNorm,
    naming it.  A decoupled bath gives the zero matrix and no pass."""
    matrix = np.zeros((2, 2))
    panels = 0
    if not sd.decoupled:
        values, panels = _distance_info(
            sides, cfg, feature_frequencies(p, sd),
            [f"{prefix}_{key}" for key in _KEYS])
        matrix[_ENTRY] = values
        matrix[_ENTRY[::-1]] = values
    entry = EntryDiagnostics(panels, cutoff_drift)
    return matrix, {f"{prefix}_{key}": entry
                    for key in ("qq", "qp", "pq", "pp")}


def divisibility_quantifier(p, sd: SpectralDensity,
                            cfg: QuadratureConfig | None = None):
    """First quantifier: distance between −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃.

    Vanishes entrywise iff the mean propagator forms a divisible
    (semigroup) family; zero coupling returns the zero matrix.

    Returns (2×2 real array, diagnostics dict).
    """
    return _quantifier_matrix(p, sd, cfg or _DEFAULT_CFG, "n1",
                              _n1_sides(p, sd))


def regression_quantifier(p, sd: SpectralDensity,
                          cfg: QuadratureConfig | None = None):
    """Second quantifier: distance between the exact equilibrium
    correlation spectrum and the regression-theorem prediction.

    Propagates CutoffSensitive warnings from the underlying equal-time
    covariances (strict Ohmic bath with ħ > 0), and stamps their
    cutoff_drift on every entry's diagnostics.

    Returns (2×2 real array, diagnostics dict).
    """
    cfg = cfg or _DEFAULT_CFG
    cov0 = covariance0(p, sd, cfg)
    return _quantifier_matrix(p, sd, cfg, "n2", _n2_sides(p, sd, cov0),
                              cutoff_drift=cov0.cutoff_drift)


def quantify(p, sd: SpectralDensity, cfg: QuadratureConfig | None = None,
             which: str = "both") -> QuantifierReport:
    """Compute the requested quantifier matrices with diagnostics.

    which ∈ {'n1', 'n2', 'both'}.
    """
    if which not in ("n1", "n2", "both"):
        raise ValueError(f"unknown quantifier selection {which!r}")
    cfg = cfg or _DEFAULT_CFG
    n1 = n2 = None
    diagnostics: dict[str, EntryDiagnostics] = {}
    if which in ("n1", "both"):
        n1, d = divisibility_quantifier(p, sd, cfg)
        diagnostics.update(d)
    if which in ("n2", "both"):
        n2, d = regression_quantifier(p, sd, cfg)
        diagnostics.update(d)
    return QuantifierReport(n1=n1, n2=n2, diagnostics=diagnostics)
