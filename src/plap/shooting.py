"""Radial shooting for -(r^{N-1}|u'|^{p-2}u')' = a r^{N-1+gamma} u^q and its
sign variant, with outcome classification and the radial Pohozaev identity.

The state is (u, w) with w = r^{N-1}|u'|^{p-2}u', so
u' = sign(w) (|w| / r^{N-1})^{1/(p-1)} and w' = -+ a r^{N-1+gamma} |u|^{q-1} u
(minus for EquationMinus), well-defined where u' = 0 for every p > 1.  A plus
shot keeps u > 0 and w > 0, and its state is (log u, log w), with rates
u'/u and w'/w.  Both rates are formed once, in logs (``_log_rates``), so no
power of r, u or w is formed at any radius; a rate past the float range is
an inf stage, which the integrator rejects.  Initial data at the hand-off
radius delta0 comes from the origin series, whose log ku and log kw come
from ``series_logs``:

    u(r) = u0 -+ ku r^s + O(r^{2s}),   s = (p+gamma)/(p-1),
    w(r) = -+ kw r^{N+gamma},   kw = a u0^q/(N+gamma),   ku = (p-1)/(p+gamma) kw^{1/(p-1)},

so the hand-off error is O(delta0^{2s}) relative; a plus launch is formed
in logs, so it never leaves the float range.  delta0 is derived, not
set: ``launch_radius`` gives 1e-6 min(1, r_max), shrunk where needed until
ku delta0^s <= 1e-6 u0, but not below 1e-300, where a tiny s would
underflow it to 0.

Every label rests on an event the integrator computes, and a shot is one
integration that ends at it:

- plus sign: u and w stay positive and grow to a pole at a finite R, near
  which u ~ A (R-r)^{-beta}; the shot integrates (log u, log w), stops where
  the estimated error of closing the rest in the pole's profile (``_pole``)
  falls to rtol, and reports R, so neither a level of u nor the float range
  decides the radius and the step count does not grow with q;
- minus sign, K < 0 (q < q_E, or N <= p): every positive radial solution
  crosses zero, so the shot runs to its crossing, beyond r_max if it lies
  there;
- minus sign, K >= 0 (q >= q_E): the Pohozaev identity below rules out a
  first zero (at one, its right side is (1-p)|u'|^p R^N < 0 <= a K int),
  so a computed crossing is indeterminate and a positive shot is judged on
  its final decade, [r_max/10, r_max].

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
import sys
from dataclasses import dataclass, replace
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
    from params, u0 and r_max (``launch_radius``); it is not a setting.
    ``atol`` bounds the absolute error of u and w in a minus shot only: a
    plus shot integrates (log u, log w) with atol = rtol, so its error is
    relative in u and w and its results do not depend on the units of u.
    """

    params: ProblemParams
    u0: float
    sign: EquationSign = EquationSign.MINUS
    r_max: float = 100.0
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf             # refinement-study knob: caps every step

    def __post_init__(self):
        if not (self.u0 > 0 and math.isfinite(self.u0)):
            raise ValueError(f"need finite u0 > 0, got {self.u0}")
        if not (self.r_max > 0 and math.isfinite(self.r_max)):
            raise ValueError(f"need finite r_max > 0, got {self.r_max}")
        if not self.params.n_dim + self.params.gamma > 0:
            raise ValueError("the origin series needs N + gamma > 0")
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError(f"rtol, atol must be finite and positive: {self.rtol}, {self.atol}")
        if not (self.max_step > 0):
            raise ValueError("max_step must be positive")

    @property
    def delta0(self) -> float:
        """The hand-off radius, launch_radius(params, u0, r_max)."""
        return launch_radius(self.params, self.u0, self.r_max)


def series_logs(params: ProblemParams, u0: float) -> tuple[float, float, float]:
    """(s, log ku, log kw) of the origin series u = u0 -+ ku r^s, w = -+ kw r^{N+gamma}."""
    pr = params
    log_kw = math.log(pr.amplitude) + pr.q * math.log(u0) - math.log(pr.n_dim + pr.gamma)
    log_ku = math.log((pr.p - 1.0) / (pr.p + pr.gamma)) + log_kw / (pr.p - 1.0)
    return (pr.p + pr.gamma) / (pr.p - 1.0), log_ku, log_kw


def launch_radius(params: ProblemParams, u0: float, r_max: float) -> float:
    """The hand-off radius: 1e-6 min(1, r_max), shrunk where needed to
    (1e-6 u0 / ku)^{1/s}, so the series term ku r^s stays within 1e-6 of u0,
    but not below 1e-300, where a tiny s would underflow it to 0."""
    s, log_ku, _ = series_logs(params, u0)
    default = 1e-6 * min(1.0, r_max)
    log_shrunk = (math.log(1e-6 * u0) - log_ku) / s
    if log_shrunk >= math.log(default):
        return default
    return max(math.exp(log_shrunk), 1e-300)


def series_state(spec: IvpSpec, r: float) -> tuple[float, float]:
    """(u, w) from the origin series at radius r."""
    pr = spec.params
    sgn = float(spec.sign.value)
    s, log_ku, log_kw = series_logs(pr, spec.u0)
    log_r = math.log(r)
    u = spec.u0 + sgn * math.exp(log_ku + s * log_r)
    w = sgn * math.exp(log_kw + (pr.n_dim + pr.gamma) * log_r)
    return u, w


def _launch_state(spec: IvpSpec) -> tuple[float, float]:
    """The shot's state at delta0 from the origin series: (u, w) for a minus
    shot, (log u, log w) for a plus shot, formed in logs."""
    if spec.sign is EquationSign.MINUS:
        return series_state(spec, spec.delta0)
    pr = spec.params
    s, log_ku, log_kw = series_logs(pr, spec.u0)
    log_d, log_u0 = math.log(spec.delta0), math.log(spec.u0)
    return (log_u0 + math.log1p(math.exp(log_ku + s * log_d - log_u0)),
            log_kw + (pr.n_dim + pr.gamma) * log_d)


def _launch_fault(spec: IvpSpec) -> str | None:
    """Why the launch state is outside the float range, else None: the series
    term ku r^s reaches u0 at the first radius where the shot holds the
    solution's w, or a minus shot's w(delta0) overflows.  A plus shot holds
    log w, so that radius is delta0; a minus shot holds w, first where w and
    w' = (N+gamma) w/r are normal floats: delta0, or later where w(delta0)
    underflows."""
    pr, f64 = spec.params, sys.float_info
    s, log_ku, log_kw = series_logs(pr, spec.u0)
    ng, log_d, log_tiny = pr.n_dim + pr.gamma, math.log(spec.delta0), math.log(f64.min)
    log_w = log_kw + ng * log_d
    log_r, w_overflows = log_d, False
    if spec.sign is EquationSign.MINUS:
        log_dw = log_w + math.log(ng) - log_d  # w' grows like r^{N-1+gamma}
        log_r = max(log_d if log_dw >= log_tiny else (
            log_d + (log_tiny - log_dw) / (ng - 1.0) if ng > 1.0 else math.inf),
            (log_tiny - log_kw) / ng)
        w_overflows = log_w > math.log(f64.max)
    log_term = log_ku + s * log_r - math.log(spec.u0)
    fault = w_overflows or log_term >= 0.0
    return f"w(delta0)=exp({log_w:.6g}), series term exp({log_term:.6g}) u0" if fault else None


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


def _closure(spec: IvpSpec):
    """The map (log r, log u, log w) -> (log(x^/r), log of the closure's error
    estimate) at a node of the plus shot ``spec`` (``_pole``)."""
    (beta, c), rates = _pole(spec), _log_rates(spec.params)
    log_beta, log_curve = math.log(beta), math.log(max(1.0, c * c))
    q1, log_u0 = spec.params.q + 1.0, math.log(spec.u0)

    def closure(log_r, log_u, log_w):
        log_xr = log_beta + log_u - rates(log_r, 0.0, log_w)[0] - log_r
        return log_xr, max(log_curve + 3.0 * log_xr, log_xr + q1 * (log_u0 - log_u))

    return closure


def _log_rates(params: ProblemParams):
    """The equation in logs, on floats or arrays: the map (log r, log|u|, log|w|)
    -> (log|u'|, log|w'|) = ((log|w| - (N-1) log r)/(p-1), log a + (N-1+gamma) log r + q log|u|)."""
    n1, inv_pm1, q = params.n_dim - 1.0, 1.0 / (params.p - 1.0), params.q
    log_a, n1g = math.log(params.amplitude), n1 + params.gamma

    def rates(log_r, log_u, log_w):
        return (log_w - n1 * log_r) * inv_pm1, log_a + n1g * log_r + q * log_u

    return rates


def _log_abs(x: float) -> float:
    """log|x|, -inf at 0 (a zero u or w gives a zero rate)."""
    return math.log(abs(x)) if x else -math.inf


def _exp(x):
    """exp on arrays, inf past the float range without a warning."""
    with np.errstate(over="ignore"):
        return np.exp(x)


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes of one shooting run of ``spec`` plus the dense interpolant.

    Readers of the trajectory take the equation from its ``spec``.  ``result``
    is the integrator result in r, on the shot's own state: (u, w) for a
    minus shot, whose event is the zero crossing, and (log u, log w) for a
    plus shot, whose event is the blow-up stop (``_pole``).  ``u``, ``w``,
    ``du`` and ``sample`` give u, w and u' either way, inf where a plus
    shot's values pass the float range.  A launch outside the float range
    (``_launch_fault``) is not integrated: ``result`` is the launch node
    alone, with w = nan and status "launch_out_of_range".
    """

    spec: IvpSpec
    result: rk45.IntegrationResult

    @property
    def r(self) -> np.ndarray:
        return self.result.ts

    @property
    def u(self) -> np.ndarray:
        return self._values(self.result.ys)[0]

    @property
    def w(self) -> np.ndarray:
        return self._values(self.result.ys)[1]

    @property
    def status(self) -> str:
        return self.result.status

    @property
    def r_cross(self) -> float | None:
        if self.status == "event" and self.spec.sign is EquationSign.MINUS:
            return float(self.r[-1])
        return None

    @property
    def r_blow(self) -> float | None:
        """The pole R, closed from the blow-up stop (``_pole``)."""
        if self.status != "event" or self.spec.sign is EquationSign.MINUS:
            return None
        r, log_xr, _ = self._stop()
        x = r * math.exp(log_xr)
        return r + x - _pole(self.spec)[1] * x * x / (r + x)

    def _stop(self) -> tuple[float, float, float]:
        """(r, log(x^/r), log of the closure's error estimate) at the last node
        of a plus shot (``_closure``)."""
        r, (log_u, log_w) = float(self.r[-1]), self.result.ys[-1].tolist()
        return (r, *_closure(self.spec)(math.log(r), log_u, log_w))

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
        return self._values(self._read(r))

    def _read(self, r):
        """States at radii r.  One outside the integrated range raises PlapError
        naming the shot's outcome, so a shot cut short fails with its cause;
        ``classify_outcome`` reads a finished shot, which reaches r_max."""
        try:
            return self.result.sol(np.atleast_1d(r))
        except ValueError as err:
            out = classify_outcome(self)
            raise PlapError(f"shot {err}: outcome {out.kind.value}: {out.reason}") from None

    def _values(self, ys):
        """(u, w) from states of the shot."""
        if self.spec.sign is EquationSign.MINUS:
            return ys[:, 0], ys[:, 1]
        return _exp(ys[:, 0]), _exp(ys[:, 1])

    def _du(self, r, ys):
        """u' = sign(w) |u'|, with log|u'| from the rates in logs (log|u| enters only w')."""
        if self.spec.sign is EquationSign.MINUS:
            w = ys[:, 1]
            with np.errstate(divide="ignore"):  # w = 0: log|w| = -inf, so u' = 0
                sign, log_w = np.sign(w), np.log(np.abs(w))
        else:
            sign, log_w = 1.0, ys[:, 1]
        log_du, _ = _log_rates(self.spec.params)(np.log(np.asarray(r, dtype=float)), 0.0, log_w)
        return sign * _exp(log_du)


def integrate_ivp(spec: IvpSpec) -> Trajectory:
    """Shoot from delta0 in one integration: (u, w) to a zero crossing (minus),
    or (log u, log w) to the blow-up stop (plus).

    A plus shot, or a minus shot with K < 0, has an event the theory puts at
    a finite radius and runs up to r = 1e300 to reach it; a minus shot with
    K >= 0 ends at r_max or at an earlier crossing.  Step-size underflow is
    recorded on the trajectory (status "step_collapse"), not raised:
    classification reports it as indeterminate, as it does a launch outside
    the float range.
    """
    r0 = spec.delta0
    if _launch_fault(spec):
        u0 = spec.u0 if spec.sign is EquationSign.MINUS else math.log(spec.u0)
        ys = np.array([[u0, math.nan]])
        return Trajectory(spec, rk45.IntegrationResult(np.array([r0]), ys, ys,
                                                       "launch_out_of_range"))
    rates = _log_rates(spec.params)
    if spec.sign is EquationSign.MINUS:
        def rhs(r, y):
            u, w = y
            log_du, log_dw = rates(math.log(r), _log_abs(u), _log_abs(w))
            try:
                return math.copysign(math.exp(log_du), w), -math.copysign(math.exp(log_dw), u)
            except OverflowError:  # an inf stage, which rk45 rejects
                return math.inf, math.inf

        event, atol = (lambda r, y: y[0]), spec.atol
        r_end = _R_FAR if pohozaev_sign(spec.params) < 0 else spec.r_max
    else:
        closure, log_rtol = _closure(spec), math.log(spec.rtol)

        def rhs(r, y):
            log_u, log_w = y
            log_du, log_dw = rates(math.log(r), log_u, log_w)
            try:
                return math.exp(log_du - log_u), math.exp(log_dw - log_w)
            except OverflowError:
                return math.inf, math.inf

        def blowup(r, y):
            return closure(math.log(r), *y)[1] - log_rtol

        event, atol, r_end = blowup, spec.rtol, _R_FAR
    res = rk45.integrate(
        rhs, r0, r_end, _launch_state(spec),
        rtol=spec.rtol, atol=atol, first_step=0.1 * r0, max_step=spec.max_step, event=event,
    )
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
    K >= 0 cannot cross zero; if positive at r_max it is judged on its final
    decade [r_max/10, r_max], read at 64 log-spaced radii (``Trajectory.sample``),
    so neither its label nor its tail slope depends on where the integrator
    stepped.  Every outcome carries its reason.
    """
    spec = traj.spec
    if traj.status == "launch_out_of_range":
        return Outcome(OutcomeKind.INDETERMINATE, reason=(
            f"launch at delta0={spec.delta0:.6g} outside the float range: {_launch_fault(spec)}"))
    if spec.sign is EquationSign.PLUS:
        if (r_blow := traj.r_blow) is not None:
            r, log_xr, log_err = traj._stop()
            return Outcome(OutcomeKind.BLOWS_UP, r_event=r_blow, reason=(
                f"pole at r={r_blow:.6g}{_beyond(r_blow, spec)}, closed from r={r:.6g} "
                f"(x/r={math.exp(log_xr):.2g}, closure error ~{math.exp(log_err):.1g})"))
        return _unresolved(traj, "before blow-up")

    k = pohozaev_coefficient(spec.params)
    crossing_forced = pohozaev_sign(spec.params) < 0
    sign_k = f"K={k:.3g}<0" if crossing_forced else f"K={k:.3g}>=0"
    if crossing_forced:
        if traj.r_cross is not None:
            return Outcome(OutcomeKind.CROSSES_ZERO, r_event=traj.r_cross, reason=(
                f"crossed at r={traj.r_cross:.6g}{_beyond(traj.r_cross, spec)}, {sign_k}"))
        return _unresolved(traj, f"before a crossing, although {sign_k} forces one")
    if traj.r_cross is not None:
        return Outcome(OutcomeKind.INDETERMINATE, reason=(
            f"crossed at r={traj.r_cross:.6g}, but {sign_k}: the Pohozaev identity "
            "rules out a first zero"))
    if traj.status != "finished":
        return _unresolved(traj, f"with {sign_k}")

    # Final decade [r_max/10, r_max], clear of the transients near the origin,
    # on 64 log-spaced samples: the radii read do not depend on where the
    # integrator stepped, and the last is r_max exactly.  u' has the sign of
    # w, so u > 0 and w < 0 is "positive and decreasing".
    r_dec = [spec.r_max * 10.0 ** (k / 63.0 - 1.0) for k in range(64)]
    u_dec, w_dec = traj.sample(r_dec)
    u_dec, w_dec = u_dec.tolist(), w_dec.tolist()
    positive = all(u > 0.0 for u in u_dec)
    if positive and all(w < 0.0 for w in w_dec):
        slope = _fit_slope(list(map(math.log, r_dec)), list(map(math.log, u_dec)))
        return Outcome(OutcomeKind.POSITIVE_DECAYING, tail_slope=slope, reason=(
            f"positive and decreasing on [{r_dec[0]:.6g}, {spec.r_max:.6g}], {sign_k} "
            "rules out a crossing"))
    return Outcome(OutcomeKind.INDETERMINATE, reason="u positive but not monotone in final decade"
                   if positive else "sign behavior unresolved in final decade")


def _fit_slope(x: list[float], y: list[float]) -> float:
    """Least-squares slope of y against x, from centred sums (no LAPACK)."""
    x_mean, y_mean = left_sum(x) / len(x), left_sum(y) / len(y)
    xc = [xi - x_mean for xi in x]
    return left_sum(map(mul, xc, [yi - y_mean for yi in y])) / left_sum(map(mul, xc, xc))


def _beyond(r: float, spec: IvpSpec) -> str:
    return " beyond r_max" if r > spec.r_max else ""


def _unresolved(traj: Trajectory, what: str) -> Outcome:
    return Outcome(OutcomeKind.INDETERMINATE, reason=(
        f"integrator status {traj.status} at r={traj.r[-1]:.6g} {what}"))


# ---------------------------------------------------------------------------
# Quadrature along the dense trajectory
# ---------------------------------------------------------------------------

def _series_head(spec: IvpSpec, power: float) -> float:
    """int_0^delta0 r^{N-1+gamma} |u|^power dr from the two-term origin series."""
    pr = spec.params
    sgn = float(spec.sign.value)
    s, log_ku, _ = series_logs(pr, spec.u0)
    ng = pr.n_dim + pr.gamma
    log_d = math.log(spec.delta0)
    lead = math.exp(power * math.log(spec.u0) + ng * log_d) / ng
    term = math.exp(log_ku + s * log_d) / spec.u0  # ku delta0^s / u0
    return lead * (1.0 + sgn * power * term * ng / (ng + s))


def _weighted_integral(traj: Trajectory, power: float, r_end: float) -> float:
    """int_0^{r_end} r^{N-1+gamma} |u|^power dr: the series head, then one
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
    u = traj.result.sol(pts.ravel())[:, 0].reshape(pts.shape)
    vals = pts ** (pr.n_dim - 1.0 + pr.gamma) * np.abs(u) ** power
    # (1, 7) @ (7, 1) per panel rounds like a 7-point dot; an (m, 7) @ (7,) gemv does not.
    panels = half * (vals[:, None, :] @ _GL_W[:, None])[:, 0, 0]
    return left_sum([_series_head(traj.spec, power), *panels.tolist()])


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
    if traj.r_cross is not None and r_eval >= traj.r_cross:
        raise PlapError(f"u changes sign at r={traj.r_cross:.6g} <= r_eval")
    # The reads raise first on a shot short of r_eval, naming its outcome.
    u, du = float(traj.sample(r_eval)[0][0]), float(traj.du(r_eval)[0])

    pr = traj.spec.params
    coeff = pohozaev_coefficient(pr)
    integral = _weighted_integral(traj, pr.q + 1.0, r_eval)

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
    # keep clear of an approaching zero crossing, where the relative error
    # denominator collapses while the absolute error stays at integrator level
    amp = float(np.max(np.abs(u_resc)))
    mask = np.abs(u_resc) >= 0.01 * amp
    r, u_base, u_resc = r[mask], u_base[mask], u_resc[mask]
    predicted = s ** kappa * u_base
    rel = np.abs(predicted - u_resc) / np.maximum(np.abs(u_resc), spec.atol)
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
