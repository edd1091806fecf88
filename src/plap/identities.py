"""Two directly checkable inequality engines: the iteration recursion bound
and the Caccioppoli inequality for p-harmonic radial profiles.

Recursion: phi_n <= c^n phi_{n-1}^k with k > 1 forces

    phi_n^{k^{-n}} <= c^{k/(k-1)^2} phi_0.

The extremal sequence (equality at every step) satisfies
k^{-n} log phi_n = log phi_0 + log c * [k - (n+1)k^{1-n} + n k^{-n}]/(k-1)^2,
and the bracket increases to k/(k-1)^2, so for c >= 1 the bound holds with
the n -> oo limit attained.  For c < 1 the same formula shows the bound
*fails* already at n = 1 (the bracket starts at 1/k < k/(k-1)^2 and log c
flips the inequality); the checker reports that honestly rather than
clamping.  All arithmetic in log space -- phi_n grows doubly exponentially.

Caccioppoli: for Delta_p u = 0 on the support of a piecewise-linear cutoff
zeta (0 <= zeta <= 1),

    int |u'|^p zeta^p r^{N-1} dr <= p^p int |u|^p |zeta'|^p r^{N-1} dr,

the constant p^p coming from the Hoelder/absorption chain in the proof.  The
sphere-measure constant cancels in the ratio, so both sides are plain radial
integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import ProblemParams
from .radial_ops import ProfileSpec, check_p_harmonic, eval_profile
from .reports import IdentityReport

_RECURSION_TOL = 1e-12
_CACCIOPPOLI_TOL = 1e-8


# ---------------------------------------------------------------------------
# Recursion bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursionSpec:
    """phi_n <= c^n phi_{n-1}^k data: c, k > 1, phi0, depth n_max."""

    c: float
    k: float
    phi0: float
    n_max: int

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not self.k > 1:
            raise ValueError("k must exceed 1 (the bound divides by (k-1)^2)")
        if not self.phi0 > 0:
            raise ValueError("phi0 must be positive")
        if not (isinstance(self.n_max, int) and self.n_max >= 1):
            raise ValueError("n_max must be an integer >= 1")


def extremal_log_sequence(spec: RecursionSpec) -> np.ndarray:
    """log phi_n, n = 0..n_max, for the equality sequence phi_n = c^n phi_{n-1}^k."""
    out = np.empty(spec.n_max + 1)
    out[0] = math.log(spec.phi0)
    lc = math.log(spec.c)
    for n in range(1, spec.n_max + 1):
        out[n] = n * lc + spec.k * out[n - 1]
    return out


def recursion_bound_report(spec: RecursionSpec, log_phi: Sequence[float]) -> IdentityReport:
    """Check phi_n^{k^{-n}} <= c^{k/(k-1)^2} phi0 for a given log-sequence."""
    log_phi = np.asarray(log_phi, dtype=float)
    n = np.arange(len(log_phi))
    normalized = log_phi * spec.k ** (-n.astype(float))
    log_bound = (spec.k / (spec.k - 1.0) ** 2) * math.log(spec.c) + math.log(spec.phi0)
    i_worst = int(np.argmax(normalized))
    lhs = float(normalized[i_worst])
    margin = log_bound - lhs
    scale = max(1.0, abs(log_bound))
    return IdentityReport(
        label="moser_recursion",
        lhs=lhs,
        rhs=log_bound,
        residual=margin,
        scale=scale,
        tol=_RECURSION_TOL,
        passed=margin >= -_RECURSION_TOL * scale,
        note=f"log-space margin; max of phi_n^(k^-n) at n={i_worst}",
    )


def moser_recursion_bound(spec: RecursionSpec) -> IdentityReport:
    """Bound check for the extremal (equality-case) sequence."""
    return recursion_bound_report(spec, extremal_log_sequence(spec))


# ---------------------------------------------------------------------------
# Caccioppoli inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialCutoff:
    """Piecewise-linear zeta with 0 <= zeta <= 1, vanishing at both ends."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or len(knots) != len(values) or len(knots) < 3:
            raise ValueError("need matching knot/value arrays, length >= 3")
        if not np.all(np.diff(knots) > 0) or knots[0] < 0:
            raise ValueError("knots must be strictly increasing and nonnegative")
        if np.any(values < 0) or np.any(values > 1):
            raise ValueError("cutoff values must lie in [0, 1]")
        if values[0] != 0.0 or values[-1] != 0.0:
            raise ValueError("cutoff must vanish at both ends of its support")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def tent(cls, a: float, b: float) -> "RadialCutoff":
        return cls(np.array([a, 0.5 * (a + b), b]), np.array([0.0, 1.0, 0.0]))

    @classmethod
    def trapezoid(cls, a: float, b: float, c: float, d: float) -> "RadialCutoff":
        return cls(np.array([a, b, c, d]), np.array([0.0, 1.0, 1.0, 0.0]))

    def value(self, r: float) -> float:
        return float(np.interp(r, self.knots, self.values))

    def slope(self, piece: int) -> float:
        return float(
            (self.values[piece + 1] - self.values[piece])
            / (self.knots[piece + 1] - self.knots[piece])
        )


def caccioppoli_check(
    profile: ProfileSpec,
    params: ProblemParams,
    cutoff: RadialCutoff,
) -> IdentityReport:
    """LHS = int |u'|^p zeta^p r^{N-1}, RHS = int |u|^p |zeta'|^p r^{N-1};
    pass iff LHS <= p^p RHS (1 + 1e-8).  Integrals piecewise by adaptive
    quadrature (zeta' jumps only at the knots)."""
    from scipy.integrate import quad

    p, n_dim = params.p, params.n_dim
    check_p_harmonic(profile, params, float(cutoff.knots[0]), float(cutoff.knots[-1]))

    lhs = 0.0
    rhs = 0.0
    for piece in range(len(cutoff.knots) - 1):
        a, b = float(cutoff.knots[piece]), float(cutoff.knots[piece + 1])
        slope_p = abs(cutoff.slope(piece)) ** p

        def f_lhs(rr):
            pt = eval_profile(profile, rr)
            return abs(pt.d1) ** p * cutoff.value(rr) ** p * rr ** (n_dim - 1.0)

        def f_rhs(rr):
            pt = eval_profile(profile, rr)
            return abs(pt.value) ** p * slope_p * rr ** (n_dim - 1.0)

        lhs += quad(f_lhs, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
        rhs += quad(f_rhs, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)[0]

    bound = p ** p * rhs
    ratio = lhs / bound if bound > 0 else math.inf if lhs > 0 else 0.0
    return IdentityReport(
        label="caccioppoli",
        lhs=lhs,
        rhs=bound,
        residual=lhs - bound,
        scale=max(lhs, bound, 1e-300),
        tol=_CACCIOPPOLI_TOL,
        passed=lhs <= bound * (1.0 + _CACCIOPPOLI_TOL),
        note=f"ratio LHS/(p^p RHS) = {ratio:.12g}",
    )
