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

    N - p - (gamma+N) p / (q+1)

multiplying the volume term of the radial Pohozaev identity is strictly
increasing in q and vanishes exactly at q = q_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionRegime


@dataclass(frozen=True)
class ProblemParams:
    """The tuple (N, p, q, gamma, a) defining -Delta_p u >=/= a r^gamma u^q."""

    n_dim: int
    p: float
    q: float
    gamma: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_dim, int) or self.n_dim < 1:
            raise ValueError(f"n_dim must be an integer >= 1, got {self.n_dim!r}")
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if not -self.p < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and exceed -p = {-self.p}, got {self.gamma}")
        if not self.p - 1 < self.q < math.inf:
            raise ValueError(f"q must be finite and exceed p - 1 = {self.p - 1}, got {self.q}")
        if not 0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and positive, got {self.amplitude}")


@dataclass(frozen=True)
class Regime:
    """Which nonexistence statements apply, plus the derived exponents.

    ``q_serrin``/``q_equation`` are None when N <= p (undefined there).
    The two boolean families are mutually exclusive by construction:
    ``inequality_nonexistence`` covers q <= q_S, ``counterexample_exists``
    needs q > q_S (and gamma >= 0, which the explicit construction assumes).
    ``equation_radial_nonexistence`` encodes exactly the hypotheses under
    which positive radial solutions of the equation are ruled out:
    N > p, gamma >= 0 and q <= q_E inclusive; the
    strict/non-strict boundary mismatch at q = q_E is surfaced by the CLI,
    not resolved here.
    """

    low_dimension: bool
    inequality_nonexistence: bool
    counterexample_exists: bool
    equation_radial_nonexistence: bool
    lam: float
    q_serrin: float | None
    q_equation: float | None


def _require_n_above_p(params: ProblemParams, what: str) -> None:
    if params.n_dim <= params.p:
        raise DimensionRegime(
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
    """N - p - (gamma + N) p/(q + 1): negative below q_E, zero at q_E, positive above."""
    _require_n_above_p(params, "pohozaev_coefficient")
    return params.n_dim - params.p - (params.gamma + params.n_dim) * params.p / (params.q + 1.0)


def classify_regime(params: ProblemParams) -> Regime:
    """Populate all regime flags from the closed threshold conditions."""
    lam = lambda_exponent(params)
    if params.n_dim <= params.p:
        return Regime(
            low_dimension=True,
            inequality_nonexistence=False,
            counterexample_exists=False,
            equation_radial_nonexistence=False,
            lam=lam,
            q_serrin=None,
            q_equation=None,
        )
    q_s = serrin_critical(params)
    q_e = equation_critical(params)
    return Regime(
        low_dimension=False,
        inequality_nonexistence=params.q <= q_s,
        counterexample_exists=params.gamma >= 0.0 and params.q > q_s,
        equation_radial_nonexistence=params.gamma >= 0.0 and params.q <= q_e,
        lam=lam,
        q_serrin=q_s,
        q_equation=q_e,
    )
