"""Scale-invariant L2 distance and the two non-Markovianity quantifiers.

The first quantifier measures how far the frequency-domain response is
from satisfying the divisibility (semigroup) identity; the second
measures how far the exact equilibrium correlation spectrum is from the
regression-theorem prediction built out of the mean-value propagator.
Both reduce each 2×2 matrix entry to a number in [0, 1] via the same
normalized distance, so they are insensitive to any global rescaling of
the underlying functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import covariance0, exact_entries_vec, rt_entries_vec
from .errors import TailDominates, ZeroNorm
from .quadrature import QuadratureConfig, inner_product_info
from .response import (
    _composed_response,
    chi_prime_matrix,
    feature_frequencies,
    is_decoupled,
)
from .spectral import SpectralDensity

_DEFAULT_CFG = QuadratureConfig()

# Truncation-sensitivity thresholds on the scale-free tail ratio:
# above _TAIL_FLAG the report flags the entry, above _TAIL_RAISE the
# window is too small for the number to mean anything.
_TAIL_FLAG = 1e-3
_TAIL_RAISE = 0.1

# the entries computed, and their (row, column) indices; pq mirrors qp
_KEYS = ("qq", "qp", "pp")
_ENTRY = ((0, 0, 1), (0, 1, 1))


@dataclass(frozen=True)
class EntryDiagnostics:
    """Truncation diagnostics for one quantifier entry.

    tail_ratio is the largest estimated out-of-window contribution of
    the three underlying integrals, each normalized by its own scale,
    so it is invariant under rescaling of either function.  panels is
    the panel count of the one whole-line pass that gives all entries
    of a quantifier, so it is the same for each of them.  cutoff_drift
    is the ``CovarianceMatrix.cutoff_drift`` of the covariances an n2
    entry is built on; n1 entries read 0.
    """

    tail_ratio: float
    panels: int
    flagged: bool
    cutoff_drift: float = 0.0


@dataclass(frozen=True)
class QuantifierReport:
    """Both quantifier matrices plus per-entry truncation diagnostics.

    n1 and n2 are 2×2 real arrays ordered [[qq, qp], [pq, pp]]; a
    matrix is None when it was not requested.  Diagnostics are keyed
    'n1_qq', 'n2_qp', ... matching the CSV column names.
    """

    n1: np.ndarray | None
    n2: np.ndarray | None
    diagnostics: dict[str, EntryDiagnostics]


def _distance_info(f, g, cfg: QuadratureConfig, breakpoints=(),
                   hermitian: bool = False):
    """Normalized distances of the row pairs of f and g from one
    ``inner_product_info`` pass, with their tail ratios and the panel
    count of the pass; hermitian=True folds the pass onto [0, W] and is
    only for pairs with f(−ω) = f(ω)* and g(−ω) = g(ω)*.

    A row with a norm below 1e-14 is degenerate: its distance and tail
    ratio are NaN.  Raises TailDominates when the window is too small
    for any other row.
    """
    res = inner_product_info(f, g, cfg, breakpoints=breakpoints,
                             hermitian=hermitian)
    ip, ff, gg = res.value
    t_ip, t_ff, t_gg = res.tail
    nf2 = np.maximum(ff.real, 0.0)
    ng2 = np.maximum(gg.real, 0.0)
    degenerate = (np.sqrt(nf2) < 1e-14) | (np.sqrt(ng2) < 1e-14)
    nf2 = np.where(degenerate, np.nan, nf2)
    ng2 = np.where(degenerate, np.nan, ng2)

    scale = np.sqrt(nf2 * ng2)
    tail_ratio = np.maximum.reduce([t_ff / nf2, t_gg / ng2, np.abs(t_ip) / scale])
    worst = float(np.fmax(tail_ratio, 0.0).max())  # fmax skips the NaN rows
    if worst > _TAIL_RAISE:
        raise TailDominates(
            f"estimated out-of-window contribution ({worst:.2g} of the "
            "norm scale) dominates the distance; increase half_width",
            tail=worst)

    ratio = np.abs(ip) ** 2 / (nf2 * ng2)
    r = np.clip(1.0 - ratio, 0.0, 1.0)  # clamp window 1e-12 vs rounding
    return np.sqrt(r), tail_ratio, res.panels


def distance(f, g, cfg: QuadratureConfig | None = None,
             *, breakpoints=()) -> float:
    """Normalized L2 distance 𝒟 = √(1 − |⟨f,g⟩|²/(‖f‖²‖g‖²)) ∈ [0, 1].

    f and g are vectorized callables of ω, integrated over the whole
    window [−W, W].  𝒟 vanishes exactly when g is a (complex) multiple
    of f and reaches 1 when the functions are orthogonal over the window.

    Raises
    ------
    ZeroNorm
        If either norm is below 1e-14.
    TailDominates
        If the estimated out-of-window contribution is comparable to
        the norms themselves.
    """
    val, _, _ = _distance_info(f, g, cfg or _DEFAULT_CFG, breakpoints)
    if np.isnan(val):
        raise ZeroNorm("degenerate argument: norm below 1e-14")
    return float(val)


def _n1_sides(p, sd):
    """Three-row integrands (−i dχ̃/dω, χ̃ χ₊⁻¹ χ̃) at qq, qp, pp: the two
    sides whose difference is ``divisibility_residual``.  Both are
    hermitian, f(−ω) = f(ω)*, because χ̃ is the response of a real,
    causal system."""
    return (lambda w: -1j * chi_prime_matrix(p, sd, w)[_ENTRY],
            lambda w: _composed_response(p, sd, w)[_ENTRY])


def _n2_sides(p, sd, cov0):
    """Three-row integrands (exact spectrum, regression prediction) at
    qq, qp, pp; ħ > 0 breaks their ω ↦ −ω symmetry."""
    return (lambda w: exact_entries_vec(p, sd, w)[_ENTRY],
            lambda w: rt_entries_vec(p, sd, w, cov0)[_ENTRY])


def _quantifier_matrix(p, sd, cfg, prefix, sides, hermitian=False,
                       cutoff_drift=0.0):
    """Entrywise distances from one pass over the three-row integrand
    pair sides, folded onto [0, W] when they are hermitian; qp and pq
    coincide by the entry structure (the two off-diagonal functions
    differ only by an overall sign or a complex conjugation, neither of
    which moves the distance).  A degenerate entry reads 0; every entry
    carries cutoff_drift."""
    matrix = np.zeros((2, 2))
    if is_decoupled(sd):
        zero = EntryDiagnostics(0.0, 0, False)
        return matrix, {f"{prefix}_{key}": zero
                        for key in ("qq", "qp", "pq", "pp")}

    values, tails, panels = _distance_info(*sides, cfg,
                                           feature_frequencies(p, sd),
                                           hermitian)
    values, tails = np.nan_to_num(values), np.nan_to_num(tails)
    matrix[_ENTRY] = values
    matrix[_ENTRY[::-1]] = values
    diagnostics = {f"{prefix}_{key}": EntryDiagnostics(
        tail_ratio=float(tail), panels=panels,
        flagged=bool(tail > _TAIL_FLAG), cutoff_drift=cutoff_drift)
        for key, tail in zip(_KEYS, tails)}
    diagnostics[f"{prefix}_pq"] = diagnostics[f"{prefix}_qp"]
    return matrix, diagnostics


def divisibility_quantifier(p, sd: SpectralDensity,
                            cfg: QuadratureConfig | None = None):
    """First quantifier: distance between −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃.

    Vanishes entrywise iff the mean propagator forms a divisible
    (semigroup) family; zero coupling returns the zero matrix.

    Returns (2×2 real array, diagnostics dict).
    """
    return _quantifier_matrix(p, sd, cfg or _DEFAULT_CFG, "n1",
                              _n1_sides(p, sd), hermitian=True)


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
