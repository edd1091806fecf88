"""Exceptions.

Every library failure is a PlapError, and its message names the cause.  Two
subclasses exist because code catches them: SingularGradient (caught by
check_p_harmonic) and NewtonDivergence (its own exit code in the CLI).
Plain misuse (wrong types, malformed arguments) stays ValueError.
"""

from __future__ import annotations


class PlapError(Exception):
    """Base class for all library-specific failures."""


class SingularGradient(PlapError):
    """|V'|^{p-2} is singular: p < 2 and the gradient vanishes at the point."""


class NewtonDivergence(PlapError):
    """Damped Newton failed to reduce the residual.

    Carries the last scaled residual and the regularization level at failure.
    """

    def __init__(self, message: str, last_residual: float, flux_eps: float):
        super().__init__(message)
        self.last_residual = last_residual
        self.flux_eps = flux_eps
