"""Explicit barriers, the supercritical counterexample, and three-sphere bounds.

Counterexample recipe: for N > p, gamma >= 0 and q strictly above the
inequality threshold q_S, pick eps in (0, N-p) solving

    q = (N + gamma - eps)(p - 1)/(N - p - eps),

set alpha = (N - p - eps)/(p - 1) and choose c from

    a c^{q-p+1} = alpha^{p-1} eps.

Then Gamma = c (1+r)^{-alpha} satisfies -Delta_p Gamma >= a r^gamma Gamma^q
on all of (0, oo): the exponent bookkeeping is alpha q = alpha(p-1) + p + gamma
= N + gamma - eps and N - 1 - (alpha+1)(p-1) = eps, and the residual keeps the
sign because (N-1)(1+r)/r - (alpha+1)(p-1) >= eps >= eps (r/(1+r))^gamma.

Cutoff barrier (k >= 3, 1/k < p-1):

    -Delta_p zeta = [m1(k+1)/(R-r1)^{k+1}]^{p-1} s^{k(p-1)-1}
                    [ k(p-1) + (N-1) s/r ],     s = (r - r1)+,

zero for r <= r1, and bounded by (k+1)^{p-1}(N+2p-3) m1^{p-1} (R-r1)^{-p}
on (r1, R) provided k(p-1) <= 2(p-1) + (N-1) r1/R (the closed form increases
on (r1, R), so the sup sits at r -> R); see ``cutoff_plap_bound``.  The
printed bracket constant 2(p-1) is refuted by the FD oracle, and the chain
rule gives k(p-1).

Log-corrected barrier psi = g1 r^lam (log r)^beta + g2 (r > 1, N > p):

    Delta_p psi = g1^{p-1} r^{-N} |lam L^b + b L^{b-1}|^{p-2}
                  [ (p-1) b (b-1) L^{b-2} - b (N-p) L^{b-1} ],   L = log r,

which has the large-r shape -C r^{-N} (log r)^{b(p-1)-1}.  Admissible beta:
0 < beta < 1/(p-1) for p > 2, beta = 1 for p <= 2.

Hadamard three-sphere bound for -Delta_p u >= 0, u >= 0, m(r) = min_{|x|=r} u:

    m(r) >= [ m(r1)(r^lam - r2^lam) + m(r2)(r1^lam - r^lam) ] / (r1^lam - r2^lam)

for r1 <= r <= r2 (log r in place of r^lam at lam = 0, i.e. N = p), with
equality when m comes from an exact p-harmonic profile.  For lam < 0 and
global supersolutions, sending r2 -> oo shows g(r) = m(r) r^{-lam} is
nondecreasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlapError, SingularGradient
from .exponents import ProblemParams, serrin_critical
from .radial_ops import Counterexample, CutoffBarrier, LogBarrier
from .reports import IdentityReport

_HADAMARD_TOL = 1e-8


# ---------------------------------------------------------------------------
# Counterexample
# ---------------------------------------------------------------------------

def counterexample_epsilon(params: ProblemParams) -> float:
    """eps of the recipe; needs N > p, gamma >= 0, q > q_S strictly."""
    n, p, q, gamma = params.n_dim, params.p, params.q, params.gamma
    if gamma < 0:
        raise PlapError(
            f"counterexample construction assumes gamma >= 0, got {gamma}"
        )
    q_s = serrin_critical(params)  # raises PlapError for N <= p
    if q <= q_s:
        raise PlapError(
            f"need q > q_serrin = {q_s} strictly, got q = {q} (eps would be <= 0)"
        )
    return (q * (n - p) - (n + gamma) * (p - 1.0)) / (q - (p - 1.0))


def build_counterexample(params: ProblemParams) -> Counterexample:
    """The profile c (1+r)^{-alpha} of the recipe, for eps = counterexample_epsilon."""
    n, p, q = params.n_dim, params.p, params.q
    eps = counterexample_epsilon(params)
    alpha = (n - p - eps) / (p - 1.0)
    c = (alpha ** (p - 1.0) * eps / params.amplitude) ** (1.0 / (q - p + 1.0))
    return Counterexample(c=c, alpha=alpha)


def counterexample_plap(profile: Counterexample, params: ProblemParams, r):
    """Delta_p Gamma for Gamma = c(1+r)^{-alpha}, vectorized over r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise PlapError(
            "closed form carries an (N-1)/r term; at r = 0 the residual is +inf "
            "(the inequality holds in the limit)"
        )
    n, p = params.n_dim, params.p
    c, alpha = profile.c, profile.alpha
    bracket = (alpha + 1.0) * (p - 1.0) / (1.0 + r) - (n - 1.0) / r
    out = (c * alpha) ** (p - 1.0) * (1.0 + r) ** (-(alpha + 1.0) * (p - 1.0)) * bracket
    return out if out.shape else float(out)


def _counterexample_sides(profile, params, r):
    r = np.asarray(r, dtype=float)
    lhs = -np.asarray(counterexample_plap(profile, params, r))
    # a r^gamma Gamma^q in logs: Gamma itself can be subnormal before the power q
    log_gamma = math.log(profile.c) - profile.alpha * np.log1p(r)
    rhs = np.exp(math.log(params.amplitude) + params.gamma * np.log(r) + params.q * log_gamma)
    return lhs, rhs


def counterexample_residual(
    profile: Counterexample, params: ProblemParams, r: float
) -> IdentityReport:
    """residual = -Delta_p Gamma - a r^gamma Gamma^q at one r; >= 0 for all r > 0."""
    lhs, rhs = _counterexample_sides(profile, params, float(r))
    residual = float(lhs - rhs)
    scale = max(abs(float(lhs)), abs(float(rhs)), 1e-300)
    return IdentityReport(
        label="counterexample_residual",
        lhs=float(lhs),
        rhs=float(rhs),
        residual=residual,
        scale=scale,
        tol=0.0,
        passed=residual >= 0.0,
    )


def counterexample_residual_grid(
    profile: Counterexample,
    params: ProblemParams,
    r_min: float = 1e-3,
    r_max: float = 1e6,
    points: int = 2000,
):
    """(r, residual) on a log grid; the standard nonnegativity sweep."""
    if not 0 < r_min < r_max < math.inf:
        raise ValueError(f"need 0 < r_min < r_max < inf, got [{r_min}, {r_max}]")
    if points < 2:
        raise ValueError(f"need at least 2 grid points, got {points}")
    r = np.geomspace(r_min, r_max, points)
    lhs, rhs = _counterexample_sides(profile, params, r)
    return r, lhs - rhs


# ---------------------------------------------------------------------------
# Cutoff barrier
# ---------------------------------------------------------------------------

def cutoff_barrier_plap(spec: CutoffBarrier, params: ProblemParams, r: float) -> float:
    """-Delta_p zeta in closed form; 0 for r <= r1."""
    if r < 0:
        raise PlapError(f"need r >= 0, got {r}")
    n, p = params.n_dim, params.p
    spec.check_admissible(p)
    s = r - spec.r1
    if s <= 0.0:
        return 0.0
    lead = (spec.m1 * (spec.k + 1) / (spec.r_big - spec.r1) ** (spec.k + 1)) ** (p - 1.0)
    kp = spec.k * (p - 1.0)
    return lead * s ** (kp - 1.0) * (kp + (n - 1.0) * s / r)


def cutoff_plap_bound(spec: CutoffBarrier, params: ProblemParams) -> float:
    """(k+1)^{p-1} (N+2p-3) m1^{p-1} (R-r1)^{-p}.

    Valid as a sup bound for -Delta_p zeta on (r1, R) iff
    k(p-1) <= 2(p-1) + (N-1) r1/R; at R = 2r1 this reads
    k(p-1) <= 2(p-1) + (N-1)/2 (e.g. k = 3 needs N >= 2p - 1).
    """
    n, p = params.n_dim, params.p
    return (
        (spec.k + 1) ** (p - 1.0)
        * (n + 2.0 * p - 3.0)
        * spec.m1 ** (p - 1.0)
        * (spec.r_big - spec.r1) ** (-p)
    )


# ---------------------------------------------------------------------------
# Log-corrected barrier
# ---------------------------------------------------------------------------

def log_barrier_plap(spec: LogBarrier, params: ProblemParams, r: float) -> float:
    """Delta_p psi for psi = g1 r^lam (log r)^beta + g2; r > 1, N > p."""
    if params.n_dim <= params.p:
        raise PlapError(
            f"log-corrected barrier is stated for N > p (N={params.n_dim}, p={params.p})"
        )
    if r <= 1.0:
        raise PlapError(f"log barrier needs r > 1, got r={r}")
    n, p = params.n_dim, params.p
    lam, b = spec.lam, spec.beta
    L = math.log(r)
    inner = lam * L ** b + b * L ** (b - 1.0)
    if p < 2.0 and abs(inner) <= 1e-12 * max(1.0, abs(lam) * L ** b):
        raise SingularGradient(
            f"|psi'| vanishes near r={r} (inner={inner:.3e}) and p={p} < 2"
        )
    bracket = (p - 1.0) * b * (b - 1.0) * L ** (b - 2.0) - b * (n - p) * L ** (b - 1.0)
    return spec.gamma1 ** (p - 1.0) * r ** (-float(n)) * abs(inner) ** (p - 2.0) * bracket


# ---------------------------------------------------------------------------
# Hadamard three-sphere bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HadamardInput:
    """Sphere minima m1 = m(r1), m2 = m(r2) at radii 0 < r1 < r2.

    The bound interpolates through r^lam, and at lam = 0 (the N = p case)
    linearly in log r.
    """

    r1: float
    r2: float
    m1: float
    m2: float
    lam: float

    def __post_init__(self):
        if not 0 < self.r1 < self.r2 < math.inf:
            raise ValueError("need 0 < r1 < r2 < inf")
        if not (0 <= self.m1 < math.inf and 0 <= self.m2 < math.inf):
            raise ValueError("sphere minima must be finite and nonnegative")
        if not math.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam!r}")


def hadamard_lower_bound(inp: HadamardInput, r):
    """The interpolated lower bound for m(r) on [r1, r2]; vectorized over r."""
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < inp.r1) or np.any(r_arr > inp.r2):
        raise PlapError(f"r must lie in [{inp.r1}, {inp.r2}]")
    if inp.lam == 0.0:
        denom = math.log(inp.r1 / inp.r2)
        out = (inp.m1 * np.log(r_arr / inp.r2) + inp.m2 * np.log(inp.r1 / r_arr)) / denom
    else:
        # The weight of the far end b is (r^lam - a^lam)/(b^lam - a^lam), as a
        # ratio of expm1 anchored at the end a where lam log(r/a) <= 0: the
        # differences cancel as lam -> 0, and r^lam overflows at large lam.
        ends = ((inp.r1, inp.m1), (inp.r2, inp.m2))
        (a, m_a), (b, m_b) = ends if inp.lam < 0 else ends[::-1]
        theta = np.expm1(inp.lam * np.log(r_arr / a)) / np.expm1(inp.lam * np.log(b / a))
        out = m_a * (1.0 - theta) + m_b * theta
    return out if out.shape else float(out)


def hadamard_monotonicity_check(samples, lam: float) -> IdentityReport:
    """min consecutive increment of g(r) = m(r) r^{-lam}; pass iff >= -1e-8 max|g|.

    Stated for lam < 0 (p < N) and for minima of *global* supersolutions;
    trajectories that stop being supersolutions (e.g. after crossing zero)
    only satisfy it on the range where the exterior-domain argument applies.
    """
    if lam >= 0:
        raise PlapError(f"monotonicity of m(r) r^(-lam) needs lam < 0, got {lam}")
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("samples must be a sequence of (r, m) pairs, length >= 2")
    r, m = arr[:, 0], arr[:, 1]
    if not np.all(np.diff(r) > 0):
        raise ValueError("samples must be sorted by strictly increasing r")
    g = m * r ** (-lam)
    increments = np.diff(g)
    worst = float(np.min(increments))
    scale = max(1e-300, float(np.max(np.abs(g))))
    return IdentityReport(
        label="hadamard_monotonicity",
        lhs=float(g[0]),
        rhs=float(g[-1]),
        residual=worst,
        scale=scale,
        tol=_HADAMARD_TOL,
        passed=worst >= -_HADAMARD_TOL * scale,
        note=f"min increment of m(r) r^(-lam) over {len(r)} samples",
    )
