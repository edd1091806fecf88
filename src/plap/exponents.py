"""Problem parameters, critical exponents, and regime classification.

The model problem is the radial inequality / equation

    -Delta_p u  >=/=  a r^gamma u^q      on R^N,

with Delta_p u = div(|grad u|^{p-2} grad u).  For N > p two thresholds in q
govern existence of positive solutions:

    q_S = (N+gamma)(p-1)/(N-p)                    (inequality threshold)
    q_E = ((N+gamma)(p-1) + p + gamma)/(N-p)      (radial-equation threshold)

with q_E - q_S = (p+gamma)/(N-p) > 0 always.  At p = 2, gamma = 0 the second
is the Sobolev exponent (N+2)/(N-2).  The fundamental-solution exponent is
lambda = (p-N)/(p-1): r^lambda is p-harmonic away from the origin, log r
taking its place when N = p.  The coefficient

    K = N - p - (gamma+N) p / (q+1)

multiplying the volume term of the radial Pohozaev identity is strictly
increasing in q and vanishes exactly at q = q_E.  Its derivation never
divides by N - p; for N <= p it is negative for every q > p - 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import PlapError

_K_ROUNDING = 1e-12  # |K| at most this share of its (gamma+N)p/(q+1) term counts as K = 0

# Named tuples rather than dataclasses: `dataclasses` imports `inspect`, and
# this module is on the standard-library-only path of `plap classify`.


class ProblemParams(namedtuple("ProblemParams", "n_dim p q gamma amplitude")):
    """The tuple (N, p, q, gamma, a) defining -Delta_p u >=/= a r^gamma u^q."""

    __slots__ = ()

    def __new__(cls, n_dim: int, p: float, q: float, gamma: float = 0.0,
                amplitude: float = 1.0):
        if not isinstance(n_dim, int) or n_dim < 1:
            raise ValueError(f"n_dim must be an integer >= 1, got {n_dim!r}")
        if not p > 1:
            raise ValueError(f"p must exceed 1, got {p}")
        if not -p < gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed -p = {-p}, got {gamma}")
        if not p - 1 < q < math.inf:
            raise ValueError(f"q must be finite and exceed p - 1 = {p - 1}, got {q}")
        if not 0 < amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and positive, got {amplitude}")
        return super().__new__(cls, n_dim, p, q, gamma, amplitude)

    def replace(self, **changes) -> ProblemParams:
        """A copy with ``changes`` applied, validated like the constructor
        (``_replace`` would skip the validation)."""
        return ProblemParams(**{**self._asdict(), **changes})


class Regime(namedtuple("Regime", (
        "low_dimension inequality_nonexistence counterexample_exists "
        "equation_radial_nonexistence lam q_serrin q_equation"))):
    """Which nonexistence statements apply, plus the derived exponents.

    ``q_serrin``/``q_equation`` are None when N <= p (undefined there).
    The two boolean families are mutually exclusive by construction:
    ``inequality_nonexistence`` covers q <= q_S, ``counterexample_exists``
    needs q > q_S (and gamma >= 0, which the explicit construction assumes).
    ``equation_radial_nonexistence`` holds where positive radial solutions
    of the equation are ruled out: N > p, gamma >= 0 and K < 0 by
    ``pohozaev_sign``, the rule the shot labels follow.  At q = q_E, where
    K reads 0, the weighted bubble is a positive solution, so the flag is
    false there.
    """

    __slots__ = ()


def _require_n_above_p(params: ProblemParams, what: str) -> None:
    if params.n_dim <= params.p:
        raise PlapError(
            f"{what} undefined for N <= p (N={params.n_dim}, p={params.p}); "
            "in that regime every positive supersolution is constant"
        )


def lambda_exponent(params: ProblemParams) -> float:
    """Fundamental-solution exponent (p - N)/(p - 1).

    Negative iff N > p, zero iff N = p, positive iff N < p.
    """
    return (params.p - params.n_dim) / (params.p - 1.0)


def serrin_critical(params: ProblemParams) -> float:
    """Inequality threshold q_S = (N + gamma)(p - 1)/(N - p); needs N > p."""
    _require_n_above_p(params, "q_serrin")
    return (params.n_dim + params.gamma) * (params.p - 1.0) / (params.n_dim - params.p)


def equation_critical(params: ProblemParams) -> float:
    """Equation threshold q_E = ((N + gamma)(p - 1) + p + gamma)/(N - p); needs N > p."""
    _require_n_above_p(params, "q_equation")
    num = (params.n_dim + params.gamma) * (params.p - 1.0) + params.p + params.gamma
    return num / (params.n_dim - params.p)


def pohozaev_coefficient(params: ProblemParams) -> float:
    """K = N - p - (gamma + N) p/(q + 1): negative below q_E, zero at q_E,
    positive above, and negative for every q when N <= p."""
    return params.n_dim - params.p - (params.gamma + params.n_dim) * params.p / (params.q + 1.0)


def pohozaev_sign(params: ProblemParams) -> int:
    """The sign of K, -1, 0 or +1.  |K| up to 1e-12 of its (gamma + N) p/(q + 1)
    term, which is N - p - K, is rounding and reads as 0: the case q = q_E."""
    k = pohozaev_coefficient(params)
    if abs(k) <= _K_ROUNDING * (params.n_dim - params.p - k):
        return 0
    return -1 if k < 0 else 1


def classify_regime(params: ProblemParams) -> Regime:
    """Populate all regime flags from the closed threshold conditions."""
    above = params.n_dim > params.p
    q_s = serrin_critical(params) if above else None
    q_e = equation_critical(params) if above else None
    return Regime(
        low_dimension=not above,
        inequality_nonexistence=above and params.q <= q_s,
        counterexample_exists=above and params.gamma >= 0.0 and params.q > q_s,
        equation_radial_nonexistence=above and params.gamma >= 0.0 and pohozaev_sign(params) < 0,
        lam=lambda_exponent(params),
        q_serrin=q_s,
        q_equation=q_e,
    )
