"""Adaptive Dormand-Prince 5(4) with cubic-Hermite dense output and events.

The pair is FSAL: stage 7 of an accepted step is stage 1 of the next, so an
accepted step costs six f evaluations.  Error control is the usual RMS of the
embedded difference against atol + rtol * max(|y0|, |y1|) per component, with
step factor 0.9 * err^(-1/5) clipped to [0.2, 5].

The state is a tuple of floats from y0 to the last node: f and the events
receive one, and f may return any sequence of d numbers.  The stages run on
Python floats, which for the two-component states of radial shooting cost
less than numpy's per-call overhead.  Every sum of floats is a left fold
from 0.0 (``left_sum``), so a step rounds the same on every Python: from
3.12 the builtin ``sum`` of floats is compensated and would not.  Accepted
nodes live in three flat float buffers (t, then y and f with d values per
node), 40 bytes a node for d = 2; the result's node arrays view them
without a copy, and numpy builds only the dense output ``sol``.

Events are scalar functions g(t, y); a sign change over an accepted step is
refined by bisection on the dense interpolant to ~1e-10 relative in t, and
the earliest root ends the integration as its last node.  The integrator
never raises on difficult problems: it reports status "step_collapse" when h
underflows (1e-14 * max(|t|, first_step): near t = 0 the step first tried,
not 1, sets the scale, so a launch at a tiny t0 can step) and "max_steps"
when the step budget (2e6 accepted steps) runs out, and leaves
classification to the caller.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

# Butcher tableau (Dormand & Prince, 1980), stages 1..6: stage 0 is the slope
# at the last node.  The last row of _A is the fifth-order weights b5, so the
# FSAL stage ends the loop: its state is the new node and its slope the next
# step's stage 0.
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[-1] + (0.0,), _B4))  # b5 - b4, per stage

_COLLAPSE_FLOOR = 1e-14
_EVENT_REL_TOL = 1e-10
_EVENT_MAX_ITER = 200
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
_MAX_STEPS = 2_000_000  # accepted steps before status "max_steps"


@dataclass(frozen=True)
class EventSpec:
    """Root of g(t, y) terminates the integration.

    direction > 0 fires only on increasing crossings, < 0 only on decreasing,
    0 on both.  A step that lands exactly on g = 0 crosses in the direction
    it came from.
    """

    fn: Callable[[float, tuple[float, ...]], float]
    direction: int = 0


@dataclass
class IntegrationResult:
    ts: np.ndarray                      # accepted nodes, strictly increasing, shape (n+1,)
    ys: np.ndarray                      # states at nodes, shape (n+1, d)
    fs: np.ndarray                      # f at nodes (FSAL byproduct), shape (n+1, d)
    status: str                         # finished | event | step_collapse | max_steps
    event_index: int | None = None      # the event that fired; its root is ts[-1]
    n_steps: int = 0
    n_rejected: int = 0
    n_fev: int = 0

    def sol(self, t):
        """Dense evaluation at scalar or array t inside [ts[0], ts[-1]].

        Returns shape (m, d) for an array of m points and (d,) for a scalar.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        t_lo, t_hi = self.ts[0], self.ts[-1]
        if np.any(t_arr < t_lo - 1e-12 * max(1.0, abs(t_lo))) or np.any(
            t_arr > t_hi + 1e-12 * max(1.0, abs(t_hi))
        ):
            raise ValueError(
                f"dense output queried outside [{self.ts[0]}, {self.ts[-1]}]"
            )
        if self.ts.size == 1:
            # A step collapse at launch leaves one node, whose f may be inf.
            out = np.repeat(self.ys, t_arr.size, axis=0)
        else:
            i = np.clip(np.searchsorted(self.ts, t_arr, side="right") - 1, 0, self.ts.size - 2)
            out = _hermite(
                self.ts[i, None], self.ts[i + 1, None], self.ys[i], self.ys[i + 1],
                self.fs[i], self.fs[i + 1], t_arr[:, None],
            )
        return out[0] if np.ndim(t) == 0 else out


def left_sum(values) -> float:
    """Sum of floats folded left to right from 0.0, as Python 3.11's builtin sum does."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _hermite(t0, t1, y0, y1, f0, f1, t):
    """Cubic Hermite interpolant of one step; broadcasts over leading axes."""
    h = t1 - t0
    th = (t - t0) / h
    h00 = 2 * th**3 - 3 * th**2 + 1
    h10 = th**3 - 2 * th**2 + th
    h01 = -2 * th**3 + 3 * th**2
    h11 = th**3 - th**2
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def integrate(
    f: Callable[[float, tuple[float, ...]], Sequence[float]],
    t0: float,
    t1: float,
    y0: Sequence[float],
    first_step: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float = math.inf,
    events: Sequence[EventSpec] = (),
) -> IntegrationResult:
    """Integrate y' = f(t, y) forward from t0 to t1 (t1 > t0), trying first_step first."""
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    t, y = t0, tuple(map(float, y0))
    fy = tuple(map(float, f(t, y)))
    n_fev = 1
    h = min(first_step, max_step, t1 - t0)

    ts, ys, fs = array("d", (t,)), array("d", y), array("d", fy)
    g_prev = [ev.fn(t, y) for ev in events]
    n_steps = n_rejected = 0
    status = "finished"
    event_index = None

    while t < t1:
        if h < _COLLAPSE_FLOOR * max(abs(t), first_step):
            status = "step_collapse"
            break
        if n_steps >= _MAX_STEPS:
            status = "max_steps"
            break
        h = min(h, t1 - t)

        ks = [fy]
        for c, row in zip(_C, _A):
            y_new = tuple([yj + h * left_sum(map(mul, row, kj)) for yj, kj in zip(y, zip(*ks))])
            f_new = tuple(map(float, f(t + c * h, y_new)))
            n_fev += 1
            if not all(map(math.isfinite, y_new + f_new)):
                break
            ks.append(f_new)
        if len(ks) < 7:  # a stage state or slope past the float range
            n_rejected += 1
            h *= _MIN_FACTOR
            continue

        # e * e, unlike e ** 2, is inf past the float range, not OverflowError.
        scaled = [h * left_sum(map(mul, _E, kj)) / (atol + rtol * max(abs(yj), abs(nj)))
                  for yj, nj, kj in zip(y, y_new, zip(*ks))]
        err = math.sqrt(left_sum([e * e for e in scaled]) / len(y))

        if err > 1.0:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue

        # Accepted.
        t_new = t + h
        n_steps += 1
        triggered = []
        for ie, ev in enumerate(events):
            g_new = ev.fn(t_new, y_new)
            g_old = g_prev[ie]
            if (ev.direction >= 0 and g_old < 0.0 <= g_new) or (
                ev.direction <= 0 and g_old > 0.0 >= g_new
            ):
                te, ye = _refine_event(
                    ev.fn, t, t_new, y, y_new, fy, f_new, g_old
                )
                triggered.append((te, ie, ye))
            g_prev[ie] = g_new

        if triggered:
            te, ie, ye = min(triggered, key=lambda item: item[0])
            status = "event"
            event_index = ie
            if te > t:  # a root on the last node is not appended twice
                ts.append(te)
                ys.extend(ye)
                fs.extend(map(float, f(te, ye)))
                n_fev += 1
            break

        ts.append(t_new)
        ys.extend(y_new)
        fs.extend(f_new)
        t, y, fy = t_new, y_new, f_new  # FSAL

        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h = min(factor * h, max_step)

    d = len(y)
    return IntegrationResult(
        ts=np.frombuffer(ts),
        ys=np.frombuffer(ys).reshape(-1, d),
        fs=np.frombuffer(fs).reshape(-1, d),
        status=status,
        event_index=event_index,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_fev=n_fev,
    )


def _refine_event(g, t0, t1, y0, y1, f0, f1, g0):
    """Bisect g(t, herm(t)) = 0 inside one accepted step; g0 = g(t0) != 0."""

    def herm(t):
        return tuple([_hermite(t0, t1, *node, t) for node in zip(y0, y1, f0, f1)])

    a, b, ga = t0, t1, g0
    width_tol = _EVENT_REL_TOL * max(abs(t0), abs(t1), 1e-30)
    for _ in range(_EVENT_MAX_ITER):
        if (b - a) <= width_tol:
            break
        mid = 0.5 * (a + b)
        gm = g(mid, herm(mid))
        if gm == 0.0:
            a = b = mid
            break
        if (ga < 0) == (gm < 0):
            a, ga = mid, gm
        else:
            b = mid
    te = 0.5 * (a + b)
    return te, herm(te)
