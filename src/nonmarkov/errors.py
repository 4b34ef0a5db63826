"""Exception and warning types shared across the package.

Numerical failures are always raised (or warned) with enough context to
identify the offending quantity; silent degradation is never acceptable
for the quadrature-heavy computations done here.
"""
from __future__ import annotations


class NumericsError(Exception):
    """Base class for numerical failures."""


class NonConvergence(NumericsError):
    """An iterative scheme exhausted its budget before meeting tolerance.

    Carries the best available estimate and the error bound at the point
    of failure so callers can decide whether the partial result is usable,
    and, from an adaptive integral, ``where``: the midpoint of the panel
    that carried the most error.
    """

    def __init__(self, message: str, estimate: complex | float | None = None,
                 error_bound: float | None = None,
                 where: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.where = where


class NonFinite(NumericsError):
    """An integrand or trajectory produced NaN or infinity.

    From an adaptive integral that had already begun refining,
    ``estimate`` is its result on the panels before the failing batch.
    """

    def __init__(self, message: str, where: float | None = None,
                 estimate: complex | float | None = None):
        super().__init__(message)
        self.where = where
        self.estimate = estimate


class PVFailure(NumericsError):
    """Principal-value evaluation failed (pole too close to an endpoint,
    or the exclusion-radius sequence did not contract)."""


class DerivativeUnstable(NumericsError):
    """A frequency derivative cannot be trusted: the kernel derivative
    of a tabulated spectral density disagrees with that of its
    every-other-knot subtable, so the table is too coarse or noisy."""


class DivisionNearZero(NumericsError):
    """A response-function denominator came within rounding of zero,
    typically an undamped resonance evaluated on the real axis."""


class ZeroNorm(NumericsError):
    """A function entering a normalized distance has (numerically) zero
    L2 norm, making the distance undefined for that entry."""


class UnstableStep(NumericsError):
    """A stochastic trajectory escaped the sanity bounds, indicating an
    unstable discretization (time step too large)."""


class CutoffSensitive(UserWarning):
    """A covariance integral changes materially when the UV cutoff is
    doubled; the returned value is cutoff-regularized, not converged."""
