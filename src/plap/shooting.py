"""Radial shooting, read: outcome labels, the radial Pohozaev identity,
scaling covariance and sweeps, each on shots that ``ivp`` integrates.

The problem, the origin series, the shot's state and its event closures
live in ``ivp``; ``shooting`` names its ``EquationSign``, ``IvpSpec``,
``Trajectory`` and ``integrate_ivp`` too, so callers reach a whole shot
here.  A label follows the theory's sign rules:

- plus sign: every shot blows up, at the pole its closure reports;
- minus sign, K < 0 (q < q_E, or N <= p): every positive radial solution
  crosses zero, at the crossing its closure reports, beyond r_max if it
  lies there;
- minus sign, K >= 0 (q >= q_E): the Pohozaev identity below rules out a
  first zero (at one, its right side is (1-p)|u'|^p R^N < 0 <= a K int),
  so a computed crossing is indeterminate, and a shot that reaches r_max is
  positive and decreasing by construction, with the tail slope of its final
  decade [r_max/10, r_max].

The Pohozaev identity carries the amplitude (it reduces to the a = 1 display
after the rescaling v = a^{1/(q-p+1)} u):

    a K int_0^R r^{gamma+N-1}|u|^{q+1} dr
        = -(N-p) |u'|^{p-2}u' u R^{N-1} + (1-p)|u'|^p R^N
          - (a p/(q+1)) R^{gamma+N} |u(R)|^{q+1},

K = N - p - (gamma+N)p/(q+1); both multiplier identities were re-derived and
cross-checked against the closed form u = 3^{1/4}(1+r^2)^{-1/2} (p=2, N=3,
q=5), whose boundary terms cancel exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import PlapError
from .exponents import ProblemParams, pohozaev_coefficient, pohozaev_sign
from .ivp import (
    EquationSign,
    IvpSpec,
    Trajectory,
    _closure,
    _log_series_term,
    integrate_ivp,
    series_logs,
)
from .radial_ops import _odd_pow
from .reports import IdentityReport
from .rk45 import left_sum

# The 7-point Gauss-Legendre rule on [-1, 1], as literals: computing it with
# leggauss(7) loads numpy.polynomial and runs a LAPACK eigensolver.
_GL_X = np.array([
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
])
_GL_W = np.array([
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
])
_SCALING_SAMPLES = 40
_SCALING_FACTOR = 2.0   # scaling_covariance_report compares u_s(r) = s^kappa u(s r) at this s
_SCALING_TOL = 1e-6


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

class OutcomeKind(enum.Enum):
    CROSSES_ZERO = "crosses_zero"
    POSITIVE_DECAYING = "positive_decaying"
    BLOWS_UP = "blows_up"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Outcome:
    """A shot's label and its reason.  ``r_event`` is the radius of the event
    the label rests on, the crossing or the blow-up, else None; ``tail_slope``
    is d log u / d log r of a POSITIVE_DECAYING shot, the least-squares fit
    on 64 log-spaced samples of its final decade [r_max/10, r_max]."""

    kind: OutcomeKind
    reason: str
    r_event: float | None = None
    tail_slope: float | None = None

    def __post_init__(self):
        if self.kind in (OutcomeKind.CROSSES_ZERO, OutcomeKind.BLOWS_UP) and not (
            self.r_event is not None and 0 < self.r_event < math.inf
        ):
            raise ValueError(f"{self.kind.name} needs a finite r_event > 0")
        if self.kind is OutcomeKind.POSITIVE_DECAYING and not (
            self.tail_slope is not None and self.tail_slope < 0
        ):
            raise ValueError("PositiveDecaying needs tail_slope < 0")
        if not self.reason:
            raise ValueError("every Outcome needs the reason for its label")


def classify_outcome(traj: Trajectory) -> Outcome:
    """Label a shot by an event it computed, under the theory's sign rules
    for the problem it carries (``traj.spec``).

    A plus shot, or a minus shot with K < 0, ran to its event
    (``integrate_ivp``), so no label depends on r_max.  A minus shot with
    K >= 0 cannot cross zero; one that reaches r_max is positive and
    decreasing by construction, and its tail slope is read at 64 log-spaced
    radii of its final decade [r_max/10, r_max], so it does not depend on
    where the integrator stepped; where it underflows to 0 the label is
    indeterminate.  Every outcome carries its reason.
    """
    spec, r_event = traj.spec, traj.r_event
    if traj.status == "launch_out_of_range":
        return Outcome(OutcomeKind.INDETERMINATE, reason=(
            f"launch at delta0={spec.delta0:.6g} outside the float range: "
            f"series term exp({_log_series_term(spec):.6g}) u0"))
    if r_event is not None:
        r, log_xr, log_err = traj._stop()
        closed = (f"{' beyond r_max' if r_event > spec.r_max else ''}, closed from r={r:.6g} "
                  f"(x/r={math.exp(log_xr):.2g}, closure error ~{math.exp(log_err):.1g})")
    if spec.sign is EquationSign.PLUS:
        if r_event is not None:
            return Outcome(OutcomeKind.BLOWS_UP, r_event=r_event,
                           reason=f"pole at r={r_event:.6g}{closed}")
        return _unresolved(traj, "before blow-up")

    k = pohozaev_coefficient(spec.params)
    crossing_forced = pohozaev_sign(spec.params) < 0
    sign_k = f"K={k:.3g}<0" if crossing_forced else f"K={k:.3g}>=0"
    if crossing_forced:
        if r_event is not None:
            return Outcome(OutcomeKind.CROSSES_ZERO, r_event=r_event,
                           reason=f"crossed at r={r_event:.6g}{closed}, {sign_k}")
        return _unresolved(traj, f"before a crossing, although {sign_k} forces one")
    if r_event is not None:
        return Outcome(OutcomeKind.INDETERMINATE, reason=(
            f"crossed at r={r_event:.6g}, but {sign_k}: the Pohozaev identity "
            "rules out a first zero"))
    if traj.status != "finished":
        return _unresolved(traj, f"with {sign_k}")

    # Final decade [r_max/10, r_max], clear of the transients near the origin,
    # on 64 log-spaced samples ending at r_max exactly: d log u / d log r =
    # -1/xi < 0 there, read from the state, not from differences of log u.
    r_dec = [spec.r_max * 10.0 ** (k / 63.0 - 1.0) for k in range(64)]
    log_r, closure = list(map(math.log, r_dec)), _closure(spec)
    slopes = [-math.exp(-closure(lr, y0, y1)[0])
              for lr, (y0, y1) in zip(log_r, traj._read(r_dec).tolist())]
    slope, where = _fit_slope(log_r, slopes), f"on [{r_dec[0]:.6g}, {spec.r_max:.6g}], {sign_k}"
    if slope < 0.0:
        return Outcome(OutcomeKind.POSITIVE_DECAYING, tail_slope=slope,
                       reason=f"positive and decreasing {where} rules out a crossing")
    return Outcome(OutcomeKind.INDETERMINATE, reason=f"tail slope underflows to 0 {where}")


def _fit_slope(x: list[float], dydx: list[float]) -> float:
    """Least-squares slope of y against x, summed by parts from dy/dx.

    With xc = x - mean(x), the fit sum xc_i y_i / sum xc_i^2 equals
    sum_j C_j (y_{j+1} - y_j) / sum xc_i^2, C_j = sum_{i>j} xc_i > 0, and each
    difference is the trapezoid of dy/dx over [x_j, x_{j+1}].  So the slope
    is a mean of dy/dx with positive weights, and has their sign where y is
    flat to rounding.  Sums are left folds (no LAPACK).
    """
    x_mean = left_sum(x) / len(x)
    xc = [xi - x_mean for xi in x]
    tails = list(accumulate(reversed(xc[1:])))[::-1]  # C_0 ... C_{n-2}
    steps = [0.5 * (b - a) * (ga + gb) for a, b, ga, gb in zip(x, x[1:], dydx, dydx[1:])]
    return left_sum(map(mul, tails, steps)) / left_sum(map(mul, xc, xc))


def _unresolved(traj: Trajectory, what: str) -> Outcome:
    return Outcome(OutcomeKind.INDETERMINATE, reason=(
        f"integrator status {traj.status} at r={traj.r[-1]:.6g} {what}"))


# ---------------------------------------------------------------------------
# Quadrature along the dense trajectory
# ---------------------------------------------------------------------------

def _series_head(spec: IvpSpec) -> float:
    """int_0^delta0 r^{N-1+gamma} |u|^{q+1} dr from the two-term origin series."""
    pr = spec.params
    sgn, power = float(spec.sign.value), pr.q + 1.0
    s, log_ku, _ = series_logs(pr, spec.u0)
    ng = pr.n_dim + pr.gamma
    log_d = math.log(spec.delta0)
    lead = math.exp(power * math.log(spec.u0) + ng * log_d) / ng
    term = math.exp(log_ku + s * log_d) / spec.u0  # ku delta0^s / u0
    return lead * (1.0 + sgn * power * term * ng / (ng + s))


def _weighted_integral(traj: Trajectory, r_end: float) -> float:
    """int_0^{r_end} r^{N-1+gamma} |u|^{q+1} dr: the series head, then one
    Gauss-Legendre panel per node interval, the last one cut at r_end.

    All panels come from one ``sol`` call and are added in order to the head.
    The rule's nodes and weights, ``_GL_X`` and ``_GL_W``, are the literal
    values of numpy.polynomial.legendre.leggauss(7), bit for bit.
    """
    pr = traj.spec.params
    edges = np.append(traj.r[traj.r < r_end], r_end)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_X
    u = traj.sample(pts.ravel())[0].reshape(pts.shape)
    vals = pts ** (pr.n_dim - 1.0 + pr.gamma) * u ** (pr.q + 1.0)
    # (1, 7) @ (7, 1) per panel rounds like a 7-point dot; an (m, 7) @ (7,) gemv does not.
    panels = half * (vals[:, None, :] @ _GL_W[:, None])[:, 0, 0]
    return left_sum([_series_head(traj.spec), *panels.tolist()])


def pohozaev_residual(traj: Trajectory, r_eval: float, tol: float = 1e-6) -> IdentityReport:
    """Radial Pohozaev identity at R = r_eval for the minus-sign shot ``traj``,
    in the parameters it carries; needs u > 0 on [0, r_eval].

    residual = LHS - RHS with scale = max(|LHS|, |RHS|, a * integral), so the
    critical case (vanishing coefficient) stays well-scaled.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"need finite tol > 0, got {tol}")
    if traj.spec.sign is not EquationSign.MINUS:
        raise PlapError("Pohozaev identity is stated for the minus equation")
    if (r_cross := traj.r_event) is not None and r_eval >= r_cross:
        raise PlapError(f"u changes sign at r={r_cross:.6g} <= r_eval")
    # The reads raise first on a shot short of r_eval, naming its outcome.
    u, du = float(traj.sample(r_eval)[0][0]), float(traj.du(r_eval)[0])

    pr = traj.spec.params
    coeff = pohozaev_coefficient(pr)
    integral = _weighted_integral(traj, r_eval)

    n, p, q, a = pr.n_dim, pr.p, pr.q, pr.amplitude
    flux_term = -(n - p) * _odd_pow(du, p - 1.0) * u * r_eval ** (n - 1.0)
    grad_term = (1.0 - p) * abs(du) ** p * r_eval ** float(n)
    pot_term = -(a * p / (q + 1.0)) * r_eval ** (pr.gamma + n) * abs(u) ** (q + 1.0)
    lhs = a * coeff * integral
    rhs = flux_term + grad_term + pot_term
    scale = max(abs(lhs), abs(rhs), a * integral, 1e-300)
    residual = lhs - rhs
    return IdentityReport(
        label="pohozaev_radial",
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        scale=scale,
        tol=tol,
        passed=abs(residual) <= tol * scale,
        note=f"flux={flux_term:.6e} grad={grad_term:.6e} potential={pot_term:.6e}",
    )


# ---------------------------------------------------------------------------
# Scaling covariance and sweeps
# ---------------------------------------------------------------------------

def scaling_exponent(params: ProblemParams) -> float:
    """kappa = (p+gamma)/(q-p+1): u_s(r) = s^kappa u(sr) solves the same equation."""
    return (params.p + params.gamma) / (params.q - params.p + 1.0)


def rescaled_spec(spec: IvpSpec, s: float) -> IvpSpec:
    """The shooting problem whose solution should equal s^kappa u(s r).  Its
    r_max, r_max/s, keeps the 1e-294 floor of ``IvpSpec`` only for a spec
    with r_max >= s 1e-294; below, this raises ValueError naming both."""
    if not spec.r_max / s >= 1e-294:
        raise ValueError(f"need r_max >= {s * 1e-294:.6g} (s 1e-294 at s={s:g}) to rescale, "
                         f"got {spec.r_max}")
    return replace(spec, u0=s ** scaling_exponent(spec.params) * spec.u0,
                   r_max=spec.r_max / s, max_step=spec.max_step / s)


def scaling_covariance_report(spec: IvpSpec) -> IdentityReport:
    """Compare s^kappa u(s r) against the rescaled shot at s = 2, max rel error."""
    s = _SCALING_FACTOR
    spec2 = rescaled_spec(spec, s)
    traj, traj2 = integrate_ivp(spec), integrate_ivp(spec2)
    for tr in (traj, traj2):
        if tr.status not in ("finished", "event"):  # cut short of r_max and of any event
            out = classify_outcome(tr)
            raise PlapError(
                f"shot from u0={tr.spec.u0:.6g} outcome {out.kind.value}: {out.reason}")
    kappa = scaling_exponent(spec.params)
    # overlap range, clear of both hand-off radii and both endpoints
    lo = 10.0 * max(traj.r[0] / s, traj2.r[0])
    hi = 0.99 * min(traj.r[-1] / s, traj2.r[-1])
    if hi <= lo:
        raise PlapError("trajectories do not overlap after rescaling")
    r = np.geomspace(lo, hi, _SCALING_SAMPLES)
    u_base, _ = traj.sample(s * r)
    u_resc, _ = traj2.sample(r)
    predicted = s ** kappa * u_base
    rel = np.abs(predicted - u_resc) / u_resc
    worst = float(np.max(rel))
    return IdentityReport(
        label="scaling_covariance",
        lhs=float(predicted[np.argmax(rel)]),
        rhs=float(u_resc[np.argmax(rel)]),
        residual=worst,
        scale=1.0,
        tol=_SCALING_TOL,
        passed=worst <= _SCALING_TOL,
        note=f"s={s}, kappa={kappa:.6g}, {_SCALING_SAMPLES} overlap samples",
    )


def sweep_outcomes(specs) -> list[Outcome]:
    """Classify a batch of specs, in order, one shot after another."""
    return [classify_outcome(integrate_ivp(spec)) for spec in specs]
