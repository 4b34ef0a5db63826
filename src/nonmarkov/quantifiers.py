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

import math
from dataclasses import dataclass

import numpy as np

from .correlations import covariance0, exact_entries_vec, rt_entries_vec
from .errors import TailDominates, ZeroNorm
from .quadrature import Integrand, QuadratureConfig, inner_product_info
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

# (name, row, column) of the entries computed; pq mirrors qp
_SLOTS = (("qq", 0, 0), ("qp", 0, 1), ("pp", 1, 1))


@dataclass(frozen=True)
class EntryDiagnostics:
    """Truncation diagnostics for one quantifier entry.

    tail_ratio is the largest estimated out-of-window contribution of
    the three underlying integrals, each normalized by its own scale,
    so it is invariant under rescaling of either function.
    """

    tail_ratio: float
    panels: int
    flagged: bool


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


def _distance_info(f: Integrand, g: Integrand,
                   cfg: QuadratureConfig, breakpoints=()):
    """Normalized distance plus diagnostics; raises ZeroNorm on a
    degenerate argument and TailDominates when the window is too small."""
    ip = inner_product_info(f, g, cfg, breakpoints=breakpoints)
    ff = inner_product_info(f, f, cfg, breakpoints=breakpoints)
    gg = inner_product_info(g, g, cfg, breakpoints=breakpoints)

    nf2 = max(ff.value.real, 0.0)
    ng2 = max(gg.value.real, 0.0)
    if math.sqrt(nf2) < 1e-14 or math.sqrt(ng2) < 1e-14:
        raise ZeroNorm("degenerate argument: norm below 1e-14")

    scale = math.sqrt(nf2 * ng2)
    tail_ratio = max(ff.tail / nf2, gg.tail / ng2, abs(ip.tail) / scale)
    panels = ip.panels + ff.panels + gg.panels
    if tail_ratio > _TAIL_RAISE:
        raise TailDominates(
            f"estimated out-of-window contribution ({tail_ratio:.2g} of the "
            "norm scale) dominates the distance; increase half_width",
            tail=tail_ratio)

    ratio = abs(ip.value) ** 2 / (nf2 * ng2)
    r = min(max(1.0 - ratio, 0.0), 1.0)  # clamp window 1e-12 vs rounding
    diag = EntryDiagnostics(tail_ratio=float(tail_ratio), panels=panels,
                            flagged=bool(tail_ratio > _TAIL_FLAG))
    return math.sqrt(r), diag


def distance(f: Integrand, g: Integrand,
             cfg: QuadratureConfig | None = None, *, breakpoints=()) -> float:
    """Normalized L2 distance 𝒟 = √(1 − |⟨f,g⟩|²/(‖f‖²‖g‖²)) ∈ [0, 1].

    𝒟 vanishes exactly when g is a (complex) multiple of f and reaches 1
    when the functions are orthogonal over the integration window.

    Raises
    ------
    ZeroNorm
        If either norm is below 1e-14.
    TailDominates
        If the estimated out-of-window contribution is comparable to
        the norms themselves.
    """
    val, _ = _distance_info(f, g, cfg or _DEFAULT_CFG, breakpoints)
    return val


def _n1_pair(p, sd, i, j):
    """Integrand pair (−i dχ̃/dω, χ̃ χ₊⁻¹ χ̃) at entry (i, j): the two
    sides whose difference is ``divisibility_residual``."""
    return (Integrand(lambda w: -1j * chi_prime_matrix(p, sd, w)[i, j],
                      "hermitian"),
            Integrand(lambda w: _composed_response(p, sd, w)[i, j],
                      "hermitian"))


def _n2_pair(p, sd, i, j, cov0):
    """Integrand pair (exact spectrum, regression prediction) at (i, j)."""
    # ħ > 0 breaks the ω ↦ −ω symmetry of the exact spectrum
    return (Integrand(lambda w: exact_entries_vec(p, sd, w)[i, j], "none"),
            Integrand(lambda w: rt_entries_vec(p, sd, w, cov0)[i, j],
                      "none"))


def _quantifier_matrix(p, sd, cfg, prefix, pair_factory):
    """Entrywise distances; qp and pq coincide by the entry structure
    (the two off-diagonal functions differ only by an overall sign or a
    complex conjugation, neither of which moves the distance)."""
    diagnostics: dict[str, EntryDiagnostics] = {}
    matrix = np.zeros((2, 2))
    if is_decoupled(sd):
        zero = EntryDiagnostics(0.0, 0, False)
        for key in ("qq", "qp", "pq", "pp"):
            diagnostics[f"{prefix}_{key}"] = zero
        return matrix, diagnostics

    bps = feature_frequencies(p, sd)
    for key, i, j in _SLOTS:
        f, g = pair_factory(i, j)
        try:
            value, diag = _distance_info(f, g, cfg, bps)
        except ZeroNorm:
            value, diag = 0.0, EntryDiagnostics(0.0, 0, False)
        matrix[i, j] = matrix[j, i] = value
        diagnostics[f"{prefix}_{key}"] = diag
    diagnostics[f"{prefix}_pq"] = diagnostics[f"{prefix}_qp"]
    return matrix, diagnostics


def divisibility_quantifier(p, sd: SpectralDensity,
                            cfg: QuadratureConfig | None = None):
    """First quantifier: distance between −i dχ̃/dω and χ̃ χ₊⁻¹ χ̃.

    Vanishes entrywise iff the mean propagator forms a divisible
    (semigroup) family; zero coupling returns the zero matrix.

    Returns (2×2 real array, diagnostics dict).
    """
    cfg = cfg or _DEFAULT_CFG
    return _quantifier_matrix(p, sd, cfg, "n1",
                              lambda i, j: _n1_pair(p, sd, i, j))


def regression_quantifier(p, sd: SpectralDensity,
                          cfg: QuadratureConfig | None = None):
    """Second quantifier: distance between the exact equilibrium
    correlation spectrum and the regression-theorem prediction.

    Propagates CutoffSensitive warnings from the underlying equal-time
    covariances (strict Ohmic bath with ħ > 0).

    Returns (2×2 real array, diagnostics dict).
    """
    cfg = cfg or _DEFAULT_CFG
    if is_decoupled(sd):
        return _quantifier_matrix(p, sd, cfg, "n2", None)
    cov0 = covariance0(p, sd, cfg)
    return _quantifier_matrix(p, sd, cfg, "n2",
                              lambda i, j: _n2_pair(p, sd, i, j, cov0))


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
