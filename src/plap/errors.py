"""Exception taxonomy.

Every failure mode a caller can meaningfully branch on gets its own class;
plain misuse (wrong types, malformed arguments) stays ValueError.
"""

from __future__ import annotations


class PlapError(Exception):
    """Base class for all library-specific failures."""


class DimensionRegime(PlapError):
    """Requested exponent is undefined because N <= p (low-dimension regime)."""


class DomainError(PlapError):
    """Evaluation point lies outside a profile's domain of definition."""


class InterpolationError(PlapError):
    """Grid profile queried outside its sampled range."""


class SingularGradient(PlapError):
    """|V'|^{p-2} is singular: p < 2 and the gradient vanishes at the point."""


class NonPositiveValue(PlapError):
    """Operation requires u > 0 at the evaluation point."""


class NotSupercritical(PlapError):
    """Counterexample construction needs q strictly above the inequality threshold."""


class NegativeWeightExponent(PlapError):
    """Counterexample construction needs gamma >= 0."""


class OriginSingularity(PlapError):
    """Closed form carries an (N-1)/r term; the r = 0 value exists only as a limit."""


class RangeError(PlapError):
    """Query radius outside the interval the bound is stated on."""


class RegimeError(PlapError):
    """Operation stated only for lambda < 0 (p < N) was called outside that regime."""


class NotDecaying(PlapError):
    """Decay-estimate report requested for a trajectory that is not positive decaying."""


class CrossedZero(PlapError):
    """Identity evaluation requires u > 0 up to r_eval but the trajectory crossed."""


class NewtonDivergence(PlapError):
    """Damped Newton failed to reduce the residual.

    Carries the last scaled residual and the regularization level at failure.
    """

    def __init__(self, message: str, last_residual: float, flux_eps: float):
        super().__init__(message)
        self.last_residual = last_residual
        self.flux_eps = flux_eps


class BoundaryDominanceViolated(PlapError):
    """Comparison check called with boundary data that does not dominate the barrier."""


class NotPHarmonic(PlapError):
    """Profile fails the p-harmonicity scan on the cutoff's support."""
