"""The Taylor-series oracle for crossing and blow-up radii.

``taylor_oracle`` is an order-24 Taylor-series integration of
(u, |u'|^{p-2}u') in pure Python: a different method on a different
formulation from the shooting code's Dormand-Prince pair on
(u, r^{N-1}|u'|^{p-2}u') in logs (``ivp``).  ``taylor_launch`` starts it
from the origin series, and ``_oracle_radius`` runs it for a shot's spec, as
the verify board's criteria 5 and 11 do.  Its own check against scipy's
DOP853 is in the test suite; nothing here imports scipy or numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PlapError
from .exponents import ProblemParams

if TYPE_CHECKING:
    from .ivp import IvpSpec

_TAYLOR_ORDER = 24
_TAYLOR_TOL = 1e-16  # last-coefficient size relative to the state, per component
# The pole is read once it is this close, relative to r: there the profile's O(x) term
# (``ivp._pole``'s c) moves the Domb-Sykes read at order k by about
# beta (beta-1) c d^2/(k^2 R), far below rounding.
_POLE_READ = 1e-6


@dataclass(frozen=True)
class TaylorRun:
    """Nodes of one oracle run.  ``event`` is "crosses_zero" (u = 0) or
    "blows_up" (the pole, where u = inf) when the last node is that event,
    else "r_max"."""

    r: list[float]
    u: list[float]
    event: str


def taylor_launch(params: ProblemParams, u0: float, sgn: float, r: float):
    """(r, u, w) at radius r from the leading-order origin series
    w = sgn c r^{1+gamma}, u = u0 + sgn c^{1/(p-1)} r^s / s, c = a u0^q / (N+gamma),
    s = (p+gamma)/(p-1)."""
    pr = params
    m = 1.0 / (pr.p - 1.0)
    s = (pr.p + pr.gamma) * m
    c = pr.amplitude * u0 ** pr.q / (pr.n_dim + pr.gamma)
    return r, u0 + sgn * c ** m * r ** s / s, sgn * c * r ** (1.0 + pr.gamma)


def _power_coefficient(f: list[float], pw: list[float], alpha: float, k: int) -> float:
    """Coefficient k of f^alpha from f[:k+1] and pw[:k] (the power recurrence
    k f_0 P_k = sum_{j=1}^k ((alpha+1) j - k) f_j P_{k-j})."""
    acc = 0.0
    for j in range(1, k + 1):
        acc += ((alpha + 1.0) * j - k) * f[j] * pw[k - j]
    return acc / (k * f[0])


def _horner(c: list[float], t: float) -> float:
    acc = 0.0
    for ck in reversed(c):
        acc = acc * t + ck
    return acc


def _polynomial_root(c: list[float], h: float) -> float:
    """The root t in [0, h] of the polynomial c, given that it has opposite
    signs at 0 and h: Newton, kept in the bracket by bisection."""
    dc = [k * ck for k, ck in enumerate(c)][1:]
    lo, hi = (0.0, h) if c[0] < 0.0 else (h, 0.0)  # g(lo) < 0 < g(hi)
    g0, gh = c[0], _horner(c, h)
    t = h * g0 / (g0 - gh)
    for _ in range(100):
        g = _horner(c, t)
        if g == 0.0:
            return t
        if g < 0.0:
            lo = t
        else:
            hi = t
        t_new = t - g / _horner(dc, t)
        if not min(lo, hi) < t_new < max(lo, hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 4e-16 * t:
            return t_new
        t = t_new
    return t


def _pole_distance(uc: list[float], beta: float, r: float) -> float | None:
    """The distance d to the pole read from the Taylor coefficients of u at r,
    or None while the read is not yet settled.  Near a pole u ~ A (d - t)^{-beta},
    so c_k / c_{k+1} = d (k+1)/(k+beta) (Domb-Sykes); the read at k = 23 counts
    once c_22, c_23 and c_24 are positive, agrees with k = 22 to 1%, and
    d <= _POLE_READ r."""
    c22, c23, c24 = uc[22:25]
    if not (c22 > 0.0 and c23 > 0.0 and c24 > 0.0):
        return None
    d22, d23 = c22 / c23 * (22.0 + beta) / 23.0, c23 / c24 * (23.0 + beta) / 24.0
    return d23 if abs(d22 - d23) <= 0.01 * d23 and d23 <= _POLE_READ * r else None


def taylor_oracle(params: ProblemParams, sgn: float, r: float, u: float, w: float,
                  r_max: float) -> TaylorRun:
    """Order-24 Taylor integration of r w' + (N-1) w = sgn a r^{1+gamma} u^q,
    w = |u'|^{p-2} u', from (r, u, w) to the first of the zero of u (sgn < 0),
    the pole of u (sgn > 0) or r_max.

    Works on omega = sgn w > 0, so r omega' + (N-1) omega = a r^{1+gamma} u^q
    and u' = sgn omega^{1/(p-1)}.  The Taylor coefficients at each node come
    from the power recurrence (for u^q and omega^{1/(p-1)}) and the binomial
    series of (r+h)^{1+gamma}; the step is where the last two coefficients of
    either component fall to _TAYLOR_TOL times its value (Jorba and Zou,
    Experimental Math. 14, 2005).  A zero is the root of the step
    polynomial; the pole, at R = r + d with u ~ A (R - r)^{-beta} and
    beta = p/(q-p+1), is read from the coefficients themselves
    (``_pole_distance``).  Raises PlapError if the coefficients or the state
    leave the float range or the step collapses.
    """
    n, q, a = params.n_dim, params.q, params.amplitude
    m, e = 1.0 / (params.p - 1.0), 1.0 + params.gamma
    beta = params.p / (q - params.p + 1.0)
    rs, us = [r], [u]
    omega = sgn * w
    while r < r_max:
        uc, oc = [u], [omega]
        pq, pm, rp = [u ** q], [omega ** m], [r ** e]
        for k in range(_TAYLOR_ORDER):
            if k:
                pq.append(_power_coefficient(uc, pq, q, k))
                pm.append(_power_coefficient(oc, pm, m, k))
                rp.append(rp[-1] * (e - k + 1.0) / (k * r))
            source = 0.0
            for j in range(k + 1):
                source += rp[j] * pq[k - j]
            oc.append((a * source - (k + n - 1.0) * oc[k]) / ((k + 1.0) * r))
            uc.append(sgn * pm[k] / (k + 1.0))
        if not all(map(math.isfinite, uc + oc)):
            raise PlapError(f"Taylor oracle left the float range at r={r!r}")
        if sgn > 0 and (d := _pole_distance(uc, beta, r)) is not None:
            return TaylorRun(rs + [r + d], us + [math.inf], "blows_up")
        h = r_max - r
        for c in (uc, oc):
            for k in (_TAYLOR_ORDER - 1, _TAYLOR_ORDER):
                if c[k]:
                    h = min(h, (_TAYLOR_TOL * abs(c[0]) / abs(c[k])) ** (1.0 / k))
        if not r + h > r:
            raise PlapError(f"Taylor oracle step collapsed at r={r!r}")
        u_h = _horner(uc, h)
        if sgn < 0 and u_h <= 0.0:
            rs.append(r + _polynomial_root(uc, h))
            us.append(0.0)
            return TaylorRun(rs, us, "crosses_zero")
        r = r_max if h == r_max - r else r + h
        u, omega = u_h, _horner(oc, h)
        rs.append(r)
        us.append(u)
    return TaylorRun(rs, us, "r_max")


def _oracle_radius(spec: IvpSpec, event: str) -> float:
    """The oracle's radius of ``event`` for the shot ``spec``: launched from
    the origin series at the shot's hand-off radius spec.delta0 and integrated
    up to spec.r_max."""
    sgn = float(spec.sign.value)
    start = taylor_launch(spec.params, spec.u0, sgn, spec.delta0)
    run = taylor_oracle(spec.params, sgn, *start, spec.r_max)
    if run.event != event:
        raise PlapError(f"Taylor oracle ended in {run.event} at r={run.r[-1]:.6g}, not {event}")
    return run.r[-1]
