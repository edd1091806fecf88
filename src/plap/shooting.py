"""Radial shooting for -(r^{N-1}|u'|^{p-2}u')' = a r^{N-1+gamma} u^q and its
sign variant, with outcome classification and the radial Pohozaev identity.

The integration variable pair is (u, w) with w = r^{N-1}|u'|^{p-2}u', so
u' = sign(w) (|w| / r^{N-1})^{1/(p-1)} and w' = -+ a r^{N-1+gamma} |u|^{q-1} u
(minus for EquationMinus), well-defined where u' = 0 for every p > 1.  Both
rates are formed once, in logs (``_log_rates``), so no power of r, u or w is
formed at any radius; a rate past the float range is an inf stage, which the
integrator rejects.  Initial data at the hand-off radius delta0 comes from
the origin series, whose log ku and log kw come from ``series_logs``:

    u(r) = u0 -+ ku r^s + O(r^{2s}),   s = (p+gamma)/(p-1),
    w(r) = -+ kw r^{N+gamma},   kw = a u0^q/(N+gamma),   ku = (p-1)/(p+gamma) kw^{1/(p-1)},

so the hand-off error is O(delta0^{2s}) relative.  delta0 is derived, not
set: ``launch_radius`` gives 1e-6 min(1, r_max), shrunk where needed until
ku delta0^s <= 1e-6 u0, but not below 1e-300, where a tiny s would
underflow it to 0.

Every label rests on an event the integrator computes:

- plus sign: u increases, and once r u'/u >= 1 the shot continues in
  s = log u with state (r, log w), so the blow-up radius is the r reached at
  s = log(blowup_threshold), in a step count that grows like q, where steps
  in r collapse as u^q steepens;
- minus sign, K < 0 (q < q_E, or N <= p): every positive radial solution
  crosses zero, so a shot still positive at r_max continues past it to its
  crossing;
- minus sign, K >= 0 (q >= q_E): the Pohozaev identity below rules out a
  first zero (at one, its right side is (1-p)|u'|^p R^N < 0 <= a K int),
  so a computed crossing is indeterminate and a positive shot is judged on
  its final decade.

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
from dataclasses import dataclass
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
_R_FAR = 1e300          # continued shots stop here: every certified event lies before it


class EquationSign(enum.Enum):
    """MINUS: -Delta_p u = a r^gamma u^q.  PLUS: Delta_p u = a r^gamma u^q."""

    MINUS = -1
    PLUS = 1


@dataclass(frozen=True)
class IvpSpec:
    """Shooting problem: u(0) = u0 > 0, u'(0) = 0, integrate to r_max.

    The hand-off radius ``delta0`` follows from params, u0 and r_max
    (``launch_radius``); it is not a setting.
    """

    params: ProblemParams
    u0: float
    sign: EquationSign = EquationSign.MINUS
    r_max: float = 100.0
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = math.inf             # refinement-study knob

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

    @property
    def blowup_threshold(self) -> float:
        """u above which a shot counts as blown up."""
        return 1e8 * self.u0


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


@dataclass(frozen=True)
class Trajectory:
    """Accepted nodes of one shooting run of ``spec`` plus the dense interpolant.

    Readers of the trajectory take the equation from its ``spec``.  ``result``
    is the integrator result in r, whose event 0 is the zero crossing and
    event 1 the switch of a plus shot to s = log u.  ``blowup`` is that second
    phase, with state (r, log w); it only supplies ``r_blow``, so the nodes and
    the dense output end where it starts.
    """

    spec: IvpSpec
    result: rk45.IntegrationResult
    blowup: rk45.IntegrationResult | None = None

    @property
    def r(self) -> np.ndarray:
        return self.result.ts

    @property
    def u(self) -> np.ndarray:
        return self.result.ys[:, 0]

    @property
    def w(self) -> np.ndarray:
        return self.result.ys[:, 1]

    @property
    def status(self) -> str:
        """The integrator status; a blow-up phase that reached the threshold ends in "event"."""
        if self.blowup is None:
            return self.result.status
        return "event" if self.blowup.status == "finished" else self.blowup.status

    @property
    def step_collapsed(self) -> bool:
        return self.status == "step_collapse"

    @property
    def r_cross(self) -> float | None:
        res = self.result
        if res.status == "event" and res.event_index == 0:
            return float(res.ts[-1])
        return None

    @property
    def r_blow(self) -> float | None:
        if self.blowup is not None and self.blowup.status == "finished":
            return float(self.blowup.ys[-1, 0])
        return None

    def du(self) -> np.ndarray:
        """u' at the nodes, recovered from w."""
        return _du_from_w(self.r, self.w, self.spec.params)

    def sample(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, u', w) at arbitrary radii inside the integrated range."""
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        ys = self.result.sol(r_arr)
        u, w = ys[:, 0], ys[:, 1]
        return u, _du_from_w(r_arr, w, self.spec.params), w


def _du_from_w(r, w, params: ProblemParams):
    """u' = sign(w) |u'|, with log|u'| from the rates in logs (log|u| enters only w')."""
    w = np.asarray(w, dtype=float)
    log_r = np.log(np.asarray(r, dtype=float))
    with np.errstate(divide="ignore"):  # w = 0: log|w| = -inf, so u' = 0
        log_du, _ = _log_rates(params)(log_r, 0.0, np.log(np.abs(w)))
    return np.sign(w) * np.exp(log_du)


def integrate_ivp(spec: IvpSpec) -> Trajectory:
    """Shoot from delta0 to r_max; halt at a zero crossing or at blow-up.

    Step-size underflow is recorded on the trajectory (step_collapsed), not
    raised: classification reports it as indeterminate.
    """
    return _shoot(spec, spec.delta0, series_state(spec, spec.delta0), spec.r_max, spec.max_step)


def _shoot(spec: IvpSpec, r0: float, y0, r_end: float, max_step: float) -> Trajectory:
    """Integrate (u, w) in r from (r0, y0) to r_end; a plus shot switches to
    s = log u where r u'/u reaches 1 and runs on to the blow-up threshold."""
    sgn = float(spec.sign.value)
    rates = _log_rates(spec.params)

    def rhs(r, y):
        u, w = y
        log_du, log_dw = rates(math.log(r), _log_abs(u), _log_abs(w))
        try:
            return math.copysign(math.exp(log_du), w), sgn * math.copysign(math.exp(log_dw), u)
        except OverflowError:  # an inf stage, which rk45 rejects
            return math.inf, math.inf

    def switch(r, y):
        """log(r u'/u), whose root is that of r u'/u - 1."""
        log_r = math.log(r)
        return log_r + rates(log_r, 0.0, _log_abs(y[1]))[0] - math.log(y[0])

    events = [rk45.EventSpec(fn=lambda t, y: y[0], direction=-1)]
    if spec.sign is EquationSign.PLUS:
        events.append(rk45.EventSpec(fn=switch, direction=1))
    res = rk45.integrate(
        rhs, r0, r_end, y0,
        rtol=spec.rtol, atol=spec.atol, first_step=0.1 * r0, max_step=max_step, events=events,
    )
    if res.status == "event" and res.event_index == 1:
        # Start from the last accepted node: the event node is interpolated.
        return Trajectory(spec, res, _blowup_phase(spec, float(res.ts[-2]), res.ys[-2]))
    return Trajectory(spec, res)


def _blowup_phase(spec: IvpSpec, r0: float, y0) -> rk45.IntegrationResult:
    """Integrate a plus shot in s = log u from (r0, y0) to s = log(blowup_threshold).

    State (r, log w): log(dr/ds) = s - log u' and
    log(d(log w)/ds) = log w' - log w + log(dr/ds), from the rates in logs,
    because u^q and w overflow near blow-up for large q.  The threshold is
    reached at a finite s, where r is the blow-up radius.
    """
    rates = _log_rates(spec.params)

    def rhs(s, y):
        r, log_w = y
        try:
            log_du, log_dw = rates(math.log(r), s, log_w)
            log_dr = s - log_du
            return math.exp(log_dr), math.exp(log_dw - log_w + log_dr)
        except (OverflowError, ValueError):  # past the float range, or a stage past r = 0
            return math.inf, math.inf

    s0, s1 = math.log(y0[0]), math.log(spec.blowup_threshold)
    return rk45.integrate(
        rhs, s0, s1, [r0, math.log(y0[1])],
        rtol=spec.rtol, atol=spec.atol, first_step=1e-3 * (s1 - s0),
    )


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
    is d log u / d log r over a POSITIVE_DECAYING shot's final decade."""

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

    @property
    def label(self) -> str:
        return self.kind.value


def classify_outcome(traj: Trajectory) -> Outcome:
    """Label a shot by an event it computed, under the theory's sign rules
    for the problem it carries (``traj.spec``).

    A plus shot, or a minus shot with K < 0, still running at r_max continues
    from its last node to r = 1e300, so no label depends on r_max.  A minus
    shot with K >= 0 cannot cross zero; if positive at r_max it is judged on
    its final decade [r_max/10, r_max].  Every outcome carries its reason.
    """
    spec = traj.spec
    if spec.sign is EquationSign.PLUS:
        if traj.status == "finished":
            traj = _continue(traj)
        if traj.r_blow is not None:
            return Outcome(OutcomeKind.BLOWS_UP, r_event=traj.r_blow, reason=(
                f"u reached {spec.blowup_threshold:.6g} at r={traj.r_blow:.6g}"
                f"{_beyond(traj.r_blow, spec)}, integrated in log u"))
        return _unresolved(traj, "before blow-up")

    k = pohozaev_coefficient(spec.params)
    crossing_forced = pohozaev_sign(spec.params) < 0
    sign_k = f"K={k:.3g}<0" if crossing_forced else f"K={k:.3g}>=0"
    if crossing_forced:
        if traj.status == "finished":
            traj = _continue(traj)
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

    # Final decade [r_max/10, r_max]: transients near the origin must not
    # pollute the slope fit.  u' has the sign of w, so u > 0 and w < 0 is
    # "positive and decreasing".
    lo = spec.r_max / 10.0
    i = int(traj.r.searchsorted(lo))
    if traj.r.size - i >= 8:
        r_dec, u_dec, w_dec = traj.r[i:], traj.u[i:], traj.w[i:]
    else:
        r_dec = np.geomspace(lo, traj.r[-1], 64)
        u_dec, _, w_dec = traj.sample(r_dec)
    r_dec, u_dec, w_dec = r_dec.tolist(), u_dec.tolist(), w_dec.tolist()
    positive = all(u > 0.0 for u in u_dec)
    if positive and all(w < 0.0 for w in w_dec):
        slope = _fit_slope(list(map(math.log, r_dec)), list(map(math.log, u_dec)))
        return Outcome(OutcomeKind.POSITIVE_DECAYING, tail_slope=slope, reason=(
            f"positive and decreasing on [{lo:.6g}, {spec.r_max:.6g}], {sign_k} "
            "rules out a crossing"))
    if positive:
        return Outcome(
            OutcomeKind.INDETERMINATE, reason="u positive but not monotone in final decade"
        )
    return Outcome(
        OutcomeKind.INDETERMINATE, reason="sign behavior unresolved in final decade"
    )


def _fit_slope(x: list[float], y: list[float]) -> float:
    """Least-squares slope of y against x, from centred sums (no LAPACK)."""
    x_mean, y_mean = left_sum(x) / len(x), left_sum(y) / len(y)
    xc = [xi - x_mean for xi in x]
    return left_sum(map(mul, xc, [yi - y_mean for yi in y])) / left_sum(map(mul, xc, xc))


def _continue(traj: Trajectory) -> Trajectory:
    """The shot continued past r_max from the last node of ``traj``."""
    return _shoot(traj.spec, float(traj.r[-1]), traj.result.ys[-1], _R_FAR, math.inf)


def _beyond(r: float, spec: IvpSpec) -> str:
    return " beyond r_max" if r > spec.r_max else ""


def _unresolved(traj: Trajectory, what: str) -> Outcome:
    r_end = traj.r[-1] if traj.blowup is None else traj.blowup.ys[-1, 0]
    return Outcome(OutcomeKind.INDETERMINATE, reason=(
        f"integrator status {traj.status} at r={r_end:.6g} {what}"))


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
    if not (traj.r[0] <= r_eval <= traj.r[-1]):
        raise PlapError(f"r_eval={r_eval} outside integrated range [{traj.r[0]}, {traj.r[-1]}]")

    pr = traj.spec.params
    coeff = pohozaev_coefficient(pr)

    integral = _weighted_integral(traj, pr.q + 1.0, r_eval)

    u_arr, du_arr, _ = traj.sample(r_eval)
    u, du = float(u_arr[0]), float(du_arr[0])
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
    kappa = scaling_exponent(spec.params)
    return IvpSpec(
        params=spec.params,
        u0=s ** kappa * spec.u0,
        sign=spec.sign,
        r_max=spec.r_max / s,
        rtol=spec.rtol,
        atol=spec.atol,
    )


def scaling_covariance_report(spec: IvpSpec) -> IdentityReport:
    """Compare s^kappa u(s r) against the rescaled shot at s = 2, max rel error."""
    s = _SCALING_FACTOR
    traj = integrate_ivp(spec)
    traj2 = integrate_ivp(rescaled_spec(spec, s))
    for tr in (traj, traj2):
        if tr.status not in ("finished", "event"):  # cut short of r_max and of any event
            out = classify_outcome(tr)
            raise PlapError(f"shot from u0={tr.spec.u0:.6g} outcome {out.label}: {out.reason}")
    kappa = scaling_exponent(spec.params)
    # overlap range, clear of both hand-off radii and both endpoints
    lo = 10.0 * max(traj.r[0] / s, traj2.r[0])
    hi = 0.99 * min(traj.r[-1] / s, traj2.r[-1])
    if hi <= lo:
        raise PlapError("trajectories do not overlap after rescaling")
    r = np.geomspace(lo, hi, _SCALING_SAMPLES)
    u_base, _, _ = traj.sample(s * r)
    u_resc, _, _ = traj2.sample(r)
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
