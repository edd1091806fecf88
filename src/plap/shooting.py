"""Radial shooting for -(r^{N-1}|u'|^{p-2}u')' = a r^{N-1+gamma} u^q and its
sign variant, with outcome classification and the radial Pohozaev identity.

The flux is w = r^{N-1}|u'|^{p-2}u', so u' = sign(w) (|w| / r^{N-1})^{1/(p-1)}
and w' = -+ a r^{N-1+gamma} |u|^{q-1} u (minus for EquationMinus).  Near the
origin, with log ku and log kw from ``series_logs``,

    u(r) = u0 -+ ku r^s + O(r^{2s}),   s = (p+gamma)/(p-1),
    w(r) = -+ kw r^{N+gamma} (1 + O(r^s)),   kw = a u0^q/(N+gamma),
    ku = (p-1)/(p+gamma) kw^{1/(p-1)}.

Up to its event a shot keeps u > 0 and the sign of w, so for both signs its
state is y = (log(u/u0), log(|w| / (kw r^{N+gamma}))).  It launches at
(log1p(-+ ku delta0^s / u0), 0), and every constant of the series cancels
from its rates:

    y0' = -+ s (ku/u0) r^{s-1} e^{y1/(p-1) - y0},   y1' = (N+gamma)/r expm1(q y0 - y1),

so no power of u or w is formed, and a rate past the float range is an inf
stage, which the integrator rejects.  An error in y is relative in u and
|w|, so no tolerance is absolute and no result depends on the units of u.
The hand-off radius delta0 is derived (``IvpSpec.delta0``), and the
hand-off error is O(delta0^{2s}) relative.

Every label rests on an event the integrator computes, and a shot is one
integration that ends at it.  Neither event is reached in logs, so each is
a closure: the shot stops where the estimated error of closing the rest in
a profile falls to rtol (``_closure``), and reports the profile's radius:

- plus sign: u and w stay positive and grow to a pole at a finite R, near
  which u ~ A (R-r)^{-beta} (``_pole``), so neither a level of u nor the
  float range decides the radius and the step count does not grow with q;
- minus sign, K < 0 (q < q_E, or N <= p): every positive radial solution
  crosses zero, so the shot runs to its crossing, beyond r_max if it lies
  there, closed in the p-harmonic profile of its frozen flux (``_zero``);
- minus sign, K >= 0 (q >= q_E): the Pohozaev identity below rules out a
  first zero (at one, its right side is (1-p)|u'|^p R^N < 0 <= a K int),
  so a computed crossing is indeterminate, and a shot that reaches r_max is
  positive and decreasing by construction, with the tail slope of its final
  decade [r_max/10, r_max].

A shot with an event runs up to r = 1e300, so r_max enters it only through
delta0, and for r_max >= 1 its event radius is the same at every r_max.

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

from . import rk45
from .errors import PlapError
from .exponents import ProblemParams, pohozaev_coefficient, pohozaev_sign
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
_R_FAR = 1e300          # shots with an event stop here: every certified event lies before it


class EquationSign(enum.Enum):
    """MINUS: -Delta_p u = a r^gamma u^q.  PLUS: Delta_p u = a r^gamma u^q."""

    MINUS = -1
    PLUS = 1


@dataclass(frozen=True)
class IvpSpec:
    """Shooting problem: u(0) = u0 > 0, u'(0) = 0.

    A shot whose label rests on an event (plus sign, or minus with K < 0)
    integrates to that event; a minus shot with K >= 0 integrates to r_max,
    the end of its final decade.  The hand-off radius ``delta0`` follows
    from params, u0 and r_max; it is not a setting.  ``rtol`` bounds each
    step's error in log u and log|w|, so it is relative in u and w for
    both signs.
    """

    params: ProblemParams
    u0: float
    sign: EquationSign = EquationSign.MINUS
    r_max: float = 100.0
    rtol: float = 1e-10
    max_step: float = math.inf             # refinement-study knob: caps every step

    def __post_init__(self):
        if not (self.u0 > 0 and math.isfinite(self.u0)):
            raise ValueError(f"need finite u0 > 0, got {self.u0}")
        if not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise ValueError(f"need finite r_max > 0, got {self.r_max}")
        if not self.params.n_dim + self.params.gamma > 0:
            raise ValueError("the origin series needs N + gamma > 0")
        if not 0 < self.rtol < math.inf:
            raise ValueError(f"rtol must be finite and positive: {self.rtol}")
        if not (self.max_step > 0):
            raise ValueError("max_step must be positive")

    @property
    def delta0(self) -> float:
        """The hand-off radius: 1e-6 min(1, r_max), shrunk where needed to
        (1e-6 u0 / ku)^{1/s}, so the series term ku r^s stays within 1e-6 of u0,
        but not below 1e-300, where a tiny s would underflow it to 0."""
        s, log_ku, _ = series_logs(self.params, self.u0)
        default = 1e-6 * min(1.0, self.r_max)
        log_shrunk = (math.log(1e-6 * self.u0) - log_ku) / s
        if log_shrunk >= math.log(default):
            return default
        return max(math.exp(log_shrunk), 1e-300)


def series_logs(params: ProblemParams, u0: float) -> tuple[float, float, float]:
    """(s, log ku, log kw) of the origin series u = u0 -+ ku r^s, w = -+ kw r^{N+gamma}."""
    pr = params
    log_kw = math.log(pr.amplitude) + pr.q * math.log(u0) - math.log(pr.n_dim + pr.gamma)
    log_ku = math.log((pr.p - 1.0) / (pr.p + pr.gamma)) + log_kw / (pr.p - 1.0)
    return (pr.p + pr.gamma) / (pr.p - 1.0), log_ku, log_kw


def _log_series_term(spec: IvpSpec) -> float:
    """log(ku delta0^s / u0), the series term at the launch relative to u0.  The
    launch state (log1p(-+ e^this), 0) is outside the float range where this is
    >= 0, which only the 1e-300 floor of delta0 allows."""
    s, log_ku, _ = series_logs(spec.params, spec.u0)
    return log_ku + s * math.log(spec.delta0) - math.log(spec.u0)


def _log_du(spec: IvpSpec):
    """The map (log r, y1) -> log|u'| = log(s ku) + (s-1) log r + y1/(p-1), on
    floats or arrays: |u'| = (|w| / r^{N-1})^{1/(p-1)} in the shot's state."""
    s, log_ku, _ = series_logs(spec.params, spec.u0)
    log_sku, inv_pm1 = math.log(s) + log_ku, 1.0 / (spec.params.p - 1.0)

    def log_du(log_r, y1):
        return log_sku + (s - 1.0) * log_r + y1 * inv_pm1

    return log_du


def _rhs(spec: IvpSpec):
    """The shot's rates (y0', y1') at (r, y), on floats; inf past the float range.
    Past x = q y0 - y1 = 709, where expm1(x) overflows, e^x - 1 = e^x in floats."""
    log_du, sgn = _log_du(spec), float(spec.sign.value)
    log_u0, q = math.log(spec.u0), spec.params.q
    ng = spec.params.n_dim + spec.params.gamma
    log_ng = math.log(ng)

    def rhs(r, y):
        y0, y1 = y
        log_r, x = math.log(r), q * y0 - y1
        try:
            return (sgn * math.exp(log_du(log_r, y1) - log_u0 - y0),
                    ng / r * math.expm1(x) if x < 709.0 else math.exp(log_ng - log_r + x))
        except OverflowError:  # an inf stage, which rk45 rejects
            return math.inf, math.inf

    return rhs


# The pole.  Near R, u = A x^{-beta} (1 + b x + ...) with x = R - r and beta = p/(q-p+1); the
# (N-1)/r term and r^gamma ~ R^gamma (1 - gamma x/R) fix c = b R/beta = (N-1 + m gamma) /
# (2(p-1)(m+beta)), m = (beta+1)(p-1).  The remainder x^ = beta u/u' is then x (1 + c x/R + ...),
# so R = r + x^ - c x^2/(r + x^) up to two terms the profile neglects:
# - its next order, O(x^3/R^2) relative to R, whose coefficient holds c^2 (from inverting x^(x))
#   and the profile's own second-order term, of unit size: max(1, c^2) (x^/r)^3;
# - its free mode, the constant E of the leading balance (p-1)/p u'^p = a R^gamma u^{q+1}/(q+1)
#   + E.  E is set near the launch, where u ~ u0, so relative to the first term it is about
#   (u0/u)^{q+1}, and it moves x^ and x by that fraction: (x^/r) (u0/u)^{q+1}.
# A plus shot stops where the larger of the two falls to rtol.
def _pole(spec: IvpSpec) -> tuple[float, float]:
    """(beta, c) of the pole profile derived above."""
    pr = spec.params
    beta = pr.p / (pr.q - pr.p + 1.0)
    m = (beta + 1.0) * (pr.p - 1.0)
    return beta, (pr.n_dim - 1.0 + m * pr.gamma) / (2.0 * (pr.p - 1.0) * (m + beta))


# The zero.  With its flux frozen at w(r), the rest of a minus shot is the p-harmonic profile
# u' = u'(r) (r/t)^m, m = (N-1)/(p-1), whose zero R solves x^ = int_r^R (r/t)^m dt for the
# remainder x^ = u/|u'|: R = r (1 + (1-m) x^/r)^{1/(1-m)}, r e^{x^/r} at m = 1.  Where
# 1 + (1-m) x^/r <= 0 the profile stays positive: it has no zero to close to.  The source grows
# |w| by the fraction (w'/w)(t - r) over the rest, which steepens u' by that over p-1, and so
# drops u by (x^/r)(x^ w'/w)/(2(p-1)) of r|u'| before R, to leading order.  That moves R by as
# much, relative, times the profile's conditioning d log R / d(x^/r) = 1/(1 + (1-m) x^/r).  A
# minus shot stops where the product falls to rtol.  The frozen flux is a lower bound on |w|,
# so the profile's R lies beyond the solution's own zero: a closure certifies a crossing.
def _zero(spec: IvpSpec) -> float:
    """m = (N-1)/(p-1) of the p-harmonic profile derived above."""
    return (spec.params.n_dim - 1.0) / (spec.params.p - 1.0)


def _closure(spec: IvpSpec):
    """The map (log r, y0, y1) -> (log(x^/r), log of the closure's error
    estimate) at a node of the shot ``spec``: the pole's (plus, ``_pole``)
    or the zero's (minus, ``_zero``).  xi = u / (r|u'|) is x^/r of the zero,
    and d log u / d log r = -+1/xi."""
    log_du, log_u0, q = _log_du(spec), math.log(spec.u0), spec.params.q

    def log_xi(log_r, y0, y1):
        return log_u0 + y0 - log_r - log_du(log_r, y1)

    if spec.sign is EquationSign.PLUS:
        beta, c = _pole(spec)
        log_beta, log_curve = math.log(beta), math.log(max(1.0, c * c))

        def pole(log_r, y0, y1):
            log_xr = log_beta + log_xi(log_r, y0, y1)
            return log_xr, max(log_curve + 3.0 * log_xr, log_xr - (q + 1.0) * y0)

        return pole
    one_m = 1.0 - _zero(spec)
    pr = spec.params
    log_source = math.log((pr.n_dim + pr.gamma) / (2.0 * (pr.p - 1.0)))

    def zero(log_r, y0, y1):
        # x^ w'/w = (N+gamma) (x^/r) e^{q y0 - y1}; d = (1 + (1-m) x^/r) / (x^/r)
        log_xr = log_xi(log_r, y0, y1)
        try:
            d = math.exp(-log_xr) + one_m
        except OverflowError:  # x^/r underflows: the shot is at its zero
            return log_xr, -math.inf
        if d <= 0.0:
            return log_xr, math.inf
        return log_xr, log_source + log_xr + q * y0 - y1 - math.log(d)

    return zero


def _exp(x):
    """exp on arrays, inf past the float range without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(x)


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes of one shooting run of ``spec`` plus the dense interpolant.

    Readers of the trajectory take the equation from its ``spec``.  ``result``
    is the integrator result in r, on the shot's state; its last node is the
    closure's stop when the shot ends at its event.  ``u``, ``w``, ``du`` and
    ``sample`` give u, w and u', inf where a plus shot's values pass the float
    range.  A launch outside the float range (``_log_series_term``) is not
    integrated: ``result`` is the launch node alone, with u = u0, w = nan and
    status "launch_out_of_range".
    """

    spec: IvpSpec
    result: rk45.IntegrationResult

    @property
    def r(self) -> np.ndarray:
        return self.result.ts

    @property
    def u(self) -> np.ndarray:
        return self._values(self.r, self.result.ys)[0]

    @property
    def w(self) -> np.ndarray:
        return self._values(self.r, self.result.ys)[1]

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def r_event(self) -> float | None:
        """The radius of the event the shot ended at, else None: a minus shot's
        zero crossing (``_zero``) or a plus shot's pole R (``_pole``), closed
        from the stop."""
        if self.status != "event":
            return None
        r, log_xr, _ = self._stop()
        x = r * math.exp(log_xr)
        if self.spec.sign is EquationSign.PLUS:
            return r + x - _pole(self.spec)[1] * x * x / (r + x)
        one_m = 1.0 - _zero(self.spec)
        return r * math.exp(x / r if one_m == 0.0 else math.log1p(one_m * x / r) / one_m)

    def _stop(self) -> tuple[float, float, float]:
        """(r, log(x^/r), log of the closure's error estimate) at the last node
        (``_closure``)."""
        r, (y0, y1) = float(self.r[-1]), self.result.ys[-1].tolist()
        return (r, *_closure(self.spec)(math.log(r), y0, y1))

    def du(self, r=None) -> np.ndarray:
        """u' recovered from w: at the nodes, or at radii r, read as ``sample`` reads them."""
        if r is None:
            return self._du(self.r, self.result.ys)
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        return self._du(r_arr, self._read(r_arr))

    def sample(self, r) -> tuple[np.ndarray, np.ndarray]:
        """(u, w) at radii r, from the dense interpolant.  Every verdict reads
        its shot here, at radii its problem fixes, so none depends on where
        the integrator stepped."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        return self._values(r_arr, self._read(r_arr))

    def _read(self, r):
        """States at radii r.  One outside the integrated range raises PlapError
        naming the shot's outcome, so a shot cut short fails with its cause;
        ``classify_outcome`` reads a finished shot, which reaches r_max."""
        try:
            return self.result.sol(np.atleast_1d(r))
        except ValueError as err:
            out = classify_outcome(self)
            raise PlapError(f"shot {err}: outcome {out.kind.value}: {out.reason}") from None

    def _values(self, r, ys):
        """(u, w) at radii r from states of the shot."""
        spec = self.spec
        _, _, log_kw = series_logs(spec.params, spec.u0)
        ng = spec.params.n_dim + spec.params.gamma
        with np.errstate(over="ignore"):
            u = spec.u0 * np.exp(ys[:, 0])
        return u, spec.sign.value * _exp(log_kw + ng * np.log(r) + ys[:, 1])

    def _du(self, r, ys):
        """u' = -+|u'|, with log|u'| from the shot's state (``_log_du``)."""
        return self.spec.sign.value * _exp(_log_du(self.spec)(np.log(r), ys[:, 1]))


def integrate_ivp(spec: IvpSpec) -> Trajectory:
    """Shoot from delta0 in one integration to the closure's stop (``_closure``).

    A plus shot, or a minus shot with K < 0, has an event the theory puts at
    a finite radius and runs up to r = 1e300 to reach it; a minus shot with
    K >= 0 ends at r_max or at an earlier stop.  A step's error is held to
    rtol in y, and a plus step's also to rtol |y|.  Step-size underflow is
    recorded on the trajectory (status "step_collapse"), not raised:
    classification reports it as indeterminate, as it does a launch outside
    the float range.
    """
    r0, log_term = spec.delta0, _log_series_term(spec)
    if log_term >= 0.0:
        ys = np.array([[0.0, math.nan]])
        return Trajectory(spec, rk45.IntegrationResult(np.array([r0]), ys, ys,
                                                       "launch_out_of_range"))
    rhs, closure, log_rtol = _rhs(spec), _closure(spec), math.log(spec.rtol)
    stop = [r0, None]

    def event(r, y):
        if r > stop[0]:  # an accepted node: rk45 bisects only inside a step it accepted
            stop[:] = r, y
        return closure(math.log(r), *y)[1] - log_rtol

    plus = spec.sign is EquationSign.PLUS
    r_end = _R_FAR if plus or pohozaev_sign(spec.params) < 0 else spec.r_max
    res = rk45.integrate(
        rhs, r0, r_end, (math.log1p(spec.sign.value * math.exp(log_term)), 0.0),
        rtol=spec.rtol if plus else 0.0, atol=spec.rtol, first_step=0.1 * r0,
        max_step=spec.max_step, event=event,
    )
    if res.status == "event":
        # A closure needs a node where its estimate is <= rtol, not the root: the
        # root's state is read off the step's cubic interpolant, whose error a
        # zero closure amplifies by d log R / d log(x^/r) = 1/d, up to 1.6e4 on
        # a crossing at r ~ 7e96.  So the shot ends at the accepted node instead.
        res.ts[-1], res.ys[-1], res.fs[-1] = stop[0], stop[1], rhs(*stop)
    return Trajectory(spec, res)


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
    where the integrator stepped.  Every outcome carries its reason.
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
    return Outcome(OutcomeKind.POSITIVE_DECAYING, tail_slope=_fit_slope(log_r, slopes), reason=(
        f"positive and decreasing on [{r_dec[0]:.6g}, {spec.r_max:.6g}], {sign_k} "
        "rules out a crossing"))


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
    """The shooting problem whose solution should equal s^kappa u(s r)."""
    return replace(spec, u0=s ** scaling_exponent(spec.params) * spec.u0,
                   r_max=spec.r_max / s, max_step=spec.max_step / s)


def scaling_covariance_report(spec: IvpSpec) -> IdentityReport:
    """Compare s^kappa u(s r) against the rescaled shot at s = 2, max rel error."""
    s = _SCALING_FACTOR
    traj = integrate_ivp(spec)
    traj2 = integrate_ivp(rescaled_spec(spec, s))
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
