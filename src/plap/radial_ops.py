"""Closed-form radial profiles and the radial p-Laplacian.

For radial V in dimension N the operator has two equivalent forms,

    Delta_p V = |V'|^{p-2} ( (p-1) V'' + (N-1)/r V' )          (expanded)
              = r^{1-N} ( r^{N-1} |V'|^{p-2} V' )'             (conservative)

The expanded form drives the closed-form evaluator ``p_laplacian_radial``;
the conservative form drives the value-only finite-difference oracle
``p_laplacian_fd``.  The two are implemented with no shared differentiation
code so their agreement is a genuine cross-check, and ``fd_agreement`` is the
one place where they meet: a family's hand-derived Delta_p is checked against
its report's ``lhs`` (the expanded form) at the report's ``scale``.

Profile catalog (all immutable, evaluated through ``eval_profile``):

    PowerBarrier    c2 r^lam + c1            (c2 log r + c1 at lam = 0, N = p)
    LogBarrier      g1 r^lam (log r)^b + g2  (critical-case corrected barrier)
    CutoffBarrier   m1 [1 - ((r-r1)+)^{k+1}/(R-r1)^{k+1}]
    Counterexample  c (1+r)^{-alpha}
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from .errors import PlapError, SingularGradient
from .exponents import ProblemParams, lambda_exponent
from .reports import IdentityReport

GRADIENT_FLOOR = 1e-12
_P_HARMONIC_TOL = 1e-8
_FD_AGREEMENT_TOL = 1e-6
_POWER_TRANSFORM_TOL = 1e-8


@dataclass(frozen=True)
class EvalPoint:
    """Value and first two derivatives of a radial profile at r > 0."""

    r: float
    value: float
    d1: float
    d2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r, self.value, self.d1, self.d2))):
            raise ValueError("EvalPoint fields must be finite")


@dataclass(frozen=True)
class PowerBarrier:
    """c2 r^lam + c1; at lam = 0 (the N = p case) c2 log r + c1 instead."""

    c2: float
    c1: float
    lam: float

    @classmethod
    def fundamental(cls, params: ProblemParams, c2: float = 1.0, c1: float = 0.0) -> "PowerBarrier":
        """The p-harmonic profile for the given parameters (log r at N = p)."""
        return cls(c2=c2, c1=c1, lam=lambda_exponent(params))


@dataclass(frozen=True)
class LogBarrier:
    """g1 r^lam (log r)^beta + g2 on r > 1; lam = (p-N)/(p-1) of the target params."""

    gamma1: float
    gamma2: float
    beta: float
    lam: float

    def __post_init__(self):
        if not self.gamma1 > 0:
            raise ValueError("gamma1 must be positive")
        if self.gamma2 < 0:
            raise ValueError("gamma2 must be nonnegative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    @classmethod
    def for_params(
        cls, params: ProblemParams, gamma1: float, gamma2: float, beta: float
    ) -> "LogBarrier":
        return cls(gamma1=gamma1, gamma2=gamma2, beta=beta, lam=lambda_exponent(params))


@dataclass(frozen=True)
class CutoffBarrier:
    """m1 [1 - s^{k+1}/(R-r1)^{k+1}] with s = (r-r1)+; flat for r <= r1.

    k >= 3 makes the profile C^2 at r1.  The p-dependent admissibility
    1/k < p - 1 is enforced where params are available (check_admissible).
    """

    m1: float
    r1: float
    r_big: float
    k: int

    def __post_init__(self):
        if not self.m1 > 0:
            raise ValueError("m1 must be positive")
        if not 0 < self.r1 < self.r_big:
            raise ValueError("need 0 < r1 < r_big")
        if not isinstance(self.k, int) or self.k < 3:
            raise ValueError(f"k must be an integer >= 3, got {self.k!r}")

    def check_admissible(self, p: float) -> None:
        # 1/k < p - 1 keeps the exponent k(p-1) - 1 positive, i.e. -Delta_p zeta
        # continuous (and zero) at r = r1.
        if not 1.0 / self.k < p - 1.0:
            raise ValueError(
                f"cutoff needs 1/k < p - 1: k={self.k}, p={p} fails admissibility"
            )


@dataclass(frozen=True)
class Counterexample:
    """c (1 + r)^{-alpha}; smooth on r >= 0."""

    c: float
    alpha: float

    def __post_init__(self):
        if not self.c > 0 or not self.alpha > 0:
            raise ValueError("c and alpha must be positive")


ProfileSpec = PowerBarrier | LogBarrier | CutoffBarrier | Counterexample


# ---------------------------------------------------------------------------
# eval_profile: exact value/d1/d2 per family
# ---------------------------------------------------------------------------

@singledispatch
def eval_profile(spec, r: float) -> EvalPoint:
    raise TypeError(f"not a profile spec: {type(spec).__name__}")


@eval_profile.register
def _(spec: PowerBarrier, r: float) -> EvalPoint:
    if r <= 0:
        raise PlapError(f"power barrier needs r > 0, got r={r}")
    if spec.lam == 0.0:
        lr = math.log(r)
        return EvalPoint(r, spec.c2 * lr + spec.c1, spec.c2 / r, -spec.c2 / (r * r))
    rl = r ** spec.lam
    value = spec.c2 * rl + spec.c1
    d1 = spec.c2 * spec.lam * rl / r
    d2 = spec.c2 * spec.lam * (spec.lam - 1.0) * rl / (r * r)
    return EvalPoint(r, value, d1, d2)


@eval_profile.register
def _(spec: LogBarrier, r: float) -> EvalPoint:
    if r <= 1.0:
        raise PlapError(f"log barrier needs r > 1, got r={r}")
    L = math.log(r)
    lam, b = spec.lam, spec.beta
    rl = r ** lam
    value = spec.gamma1 * rl * L ** b + spec.gamma2
    d1 = spec.gamma1 * rl / r * (lam * L ** b + b * L ** (b - 1.0))
    d2 = (
        spec.gamma1
        * rl
        / (r * r)
        * (
            lam * (lam - 1.0) * L ** b
            + b * (2.0 * lam - 1.0) * L ** (b - 1.0)
            + b * (b - 1.0) * L ** (b - 2.0)
        )
    )
    return EvalPoint(r, value, d1, d2)


@eval_profile.register
def _(spec: CutoffBarrier, r: float) -> EvalPoint:
    if r < 0:
        raise PlapError(f"cutoff barrier needs r >= 0, got r={r}")
    s = r - spec.r1
    if s <= 0.0:
        return EvalPoint(r, spec.m1, 0.0, 0.0)
    denom = (spec.r_big - spec.r1) ** (spec.k + 1)
    value = spec.m1 * (1.0 - s ** (spec.k + 1) / denom)
    d1 = -spec.m1 * (spec.k + 1) * s ** spec.k / denom
    d2 = -spec.m1 * (spec.k + 1) * spec.k * s ** (spec.k - 1) / denom
    return EvalPoint(r, value, d1, d2)


@eval_profile.register
def _(spec: Counterexample, r: float) -> EvalPoint:
    if r < 0:
        raise PlapError(f"counterexample profile needs r >= 0, got r={r}")
    base = (1.0 + r) ** (-spec.alpha)
    value = spec.c * base
    d1 = -spec.c * spec.alpha * base / (1.0 + r)
    d2 = spec.c * spec.alpha * (spec.alpha + 1.0) * base / (1.0 + r) ** 2
    return EvalPoint(r, value, d1, d2)


# ---------------------------------------------------------------------------
# Delta_p: closed form and finite-difference oracle
# ---------------------------------------------------------------------------

def _odd_pow(x: float, e: float) -> float:
    """sign-preserving power: |x|^e sign(x)."""
    if x == 0.0:
        return 0.0
    return math.copysign(abs(x) ** e, x)


def p_laplacian_radial(point: EvalPoint, params: ProblemParams) -> float:
    """Expanded-form Delta_p V = |V'|^{p-2}((p-1)V'' + (N-1)/r V').

    On the degenerate set V' = 0 the formula gives (p-1)V'' at p = 2 and 0
    for p > 2; for p < 2 it is singular, and |V'| <= 1e-12 |V''| r raises
    SingularGradient.  Both sides scale with V, so multiplying the profile by a
    constant does not move the floor.
    """
    if point.r <= 0:
        raise PlapError(f"p_laplacian_radial needs r > 0, got r={point.r}")
    p, n = params.p, params.n_dim
    if p < 2.0 and abs(point.d1) <= GRADIENT_FLOOR * abs(point.d2) * point.r:
        raise SingularGradient(
            f"|V'| = {abs(point.d1):.3e} below floor at r={point.r} with p={p} < 2"
        )
    core = (p - 1.0) * point.d2 + (n - 1.0) / point.r * point.d1
    return abs(point.d1) ** (p - 2.0) * core


def operator_scale(point: EvalPoint, params: ProblemParams) -> float:
    """|V'|^{p-2}((p-1)|V''| + (N-1)|V'|/r): the size of the operator's two
    expanded-form terms before they cancel (gradient factor 1 where V' = 0)."""
    p, n = params.p, params.n_dim
    grad_factor = abs(point.d1) ** (p - 2.0) if point.d1 != 0.0 else 1.0
    return grad_factor * ((p - 1.0) * abs(point.d2) + (n - 1.0) / point.r * abs(point.d1))


def check_p_harmonic(spec: ProfileSpec, params: ProblemParams, r_lo: float, r_hi: float) -> None:
    """Raise PlapError unless |Delta_p V| <= 1e-8 * operator_scale at nine
    equally spaced radii of [r_lo, r_hi]."""
    for r in np.linspace(r_lo, r_hi, 9):
        pt = eval_profile(spec, float(r))
        if pt.d1 == 0.0 and pt.d2 == 0.0:
            continue  # locally constant: Delta_p = 0
        try:
            val = p_laplacian_radial(pt, params)
        except SingularGradient as exc:
            raise PlapError(
                f"profile gradient degenerates at r={r:.6g} with p={params.p} < 2"
            ) from exc
        if abs(val) > _P_HARMONIC_TOL * operator_scale(pt, params):
            raise PlapError(
                f"Delta_p V = {val:.3e} at r={r:.6g} exceeds {_P_HARMONIC_TOL:g} x scale; "
                f"profile is not p-harmonic on [{r_lo:.6g}, {r_hi:.6g}]"
            )


def fd_step_default(r: float) -> float:
    # Relative step h = 1e-4 r at every r: h/r = 1e-4 balances O((h/r)^2)
    # truncation (~1e-8 rel) against value-cancellation noise eps (r/h)^2
    # (~1e-8 rel).  An absolute floor would let h/r grow as r shrinks.
    return 1e-4 * r


def p_laplacian_fd(
    spec: ProfileSpec, r: float, params: ProblemParams, h: float | None = None
) -> float:
    """Conservative-form oracle r^{1-N} d/dr [r^{N-1}|u'|^{p-2}u'] from values only.

    Slopes at r +- h come from centered differences of the profile *values* at
    {r-2h, r, r+2h}; fluxes at r +- h are differenced again.  Second order,
    and fully independent of the closed-form derivatives.
    """
    if h is None:
        h = fd_step_default(r)
    if not r > 2.0 * h:
        raise PlapError(f"need r > 2h (r={r}, h={h})")
    p, n = params.p, params.n_dim
    v_mm = eval_profile(spec, r - 2.0 * h).value
    v_0 = eval_profile(spec, r).value
    v_pp = eval_profile(spec, r + 2.0 * h).value
    du_minus = (v_0 - v_mm) / (2.0 * h)
    du_plus = (v_pp - v_0) / (2.0 * h)
    flux_minus = (r - h) ** (n - 1.0) * _odd_pow(du_minus, p - 1.0)
    flux_plus = (r + h) ** (n - 1.0) * _odd_pow(du_plus, p - 1.0)
    return (flux_plus - flux_minus) / (2.0 * h) / r ** (n - 1.0)


def fd_agreement(spec: ProfileSpec, r: float, params: ProblemParams) -> IdentityReport:
    """Closed form vs FD oracle at one point.

    The scale is the size of the two expanded-form terms before cancellation,
    so exact kernels (closed form 0) are judged against the magnitude the
    oracle actually differences, not against 0.
    """
    pt = eval_profile(spec, r)
    closed = p_laplacian_radial(pt, params)
    fd = p_laplacian_fd(spec, r, params)
    scale = max(abs(closed), abs(fd), operator_scale(pt, params), 1e-300)
    residual = closed - fd
    return IdentityReport(
        label="p_laplacian_closed_vs_fd",
        lhs=closed,
        rhs=fd,
        residual=residual,
        scale=scale,
        tol=_FD_AGREEMENT_TOL,
        passed=abs(residual) <= _FD_AGREEMENT_TOL * scale,
    )


# ---------------------------------------------------------------------------
# Power-transform identity
# ---------------------------------------------------------------------------

def power_point(point: EvalPoint, alpha: float) -> EvalPoint:
    """EvalPoint of u^alpha from the EvalPoint of u (exact chain rule); needs u > 0."""
    u, d1, d2 = point.value, point.d1, point.d2
    ua = u ** alpha
    return EvalPoint(
        point.r,
        ua,
        alpha * u ** (alpha - 1.0) * d1,
        alpha * (alpha - 1.0) * u ** (alpha - 2.0) * d1 * d1
        + alpha * u ** (alpha - 1.0) * d2,
    )


def power_transform_residual(
    spec: ProfileSpec, alpha: float, r: float, params: ProblemParams
) -> IdentityReport:
    """Pointwise chain-rule identity for the power transform u -> u^alpha:

        Delta_p(u^alpha)
          = alpha^{p-1} u^{(alpha-1)(p-1)} [ Delta_p u + (alpha-1)(p-1) u^{-1}|u'|^p ].

    Both sides are evaluated from the same (value, d1, d2) triple, so the
    residual isolates the transform algebra from any sampling error in the
    triple itself.  It is judged against the size of the terms before they
    cancel, which is homogeneous of degree alpha(p-1) in u.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    pt = eval_profile(spec, r)
    if pt.value <= 0:
        raise PlapError(f"u({r}) = {pt.value} <= 0")
    p = params.p
    lifted = power_point(pt, alpha)
    lhs = p_laplacian_radial(lifted, params)
    grad_term = (alpha - 1.0) * (p - 1.0) / pt.value * abs(pt.d1) ** p
    prefactor = alpha ** (p - 1.0) * pt.value ** ((alpha - 1.0) * (p - 1.0))
    rhs = prefactor * (p_laplacian_radial(pt, params) + grad_term)
    residual = lhs - rhs
    scale = max(operator_scale(lifted, params),
                prefactor * max(operator_scale(pt, params), grad_term), 1e-300)
    return IdentityReport(
        label="power_transform", lhs=lhs, rhs=rhs, residual=residual, scale=scale,
        tol=_POWER_TRANSFORM_TOL, passed=abs(residual) <= _POWER_TRANSFORM_TOL * scale,
    )
