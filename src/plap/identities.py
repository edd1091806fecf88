"""The iteration recursion bound, a directly checkable inequality engine.

phi_n <= c^n phi_{n-1}^k with k > 1 forces

    phi_n^{k^{-n}} <= c^{k/(k-1)^2} phi_0.

The extremal sequence (equality at every step) satisfies
k^{-n} log phi_n = log phi_0 + log c * [k - (n+1)k^{1-n} + n k^{-n}]/(k-1)^2,
and the bracket increases to k/(k-1)^2, so for c >= 1 the bound holds with
the n -> oo limit attained.  For c < 1 the same formula shows the bound
*fails* already at n = 1 (the bracket starts at 1/k < k/(k-1)^2 and log c
flips the inequality); the checker reports that honestly rather than
clamping.  All arithmetic in log space -- phi_n grows doubly exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reports import IdentityReport

_RECURSION_TOL = 1e-12


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

