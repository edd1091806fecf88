"""Adaptive Dormand-Prince 5(4) with cubic-Hermite dense output and a terminal event.

The pair is FSAL: stage 7 of an accepted step is stage 1 of the next, so an
accepted step costs six f evaluations.  Error control is the usual RMS of the
embedded difference against atol + rtol * max(|y0|, |y1|) per component, with
step factor 0.9 * err^(-1/5) clipped to [0.2, 5].

The state is a tuple of floats from y0 to the last node: f and the event
receive one, and f may return any sequence of d numbers.  The stages run on
Python floats, which for the two-component states of radial shooting cost
less than numpy's per-call overhead.  Every sum of floats is a left fold
from 0.0 (``left_sum``), so a step rounds the same on every Python: from
3.12 the builtin ``sum`` of floats is compensated and would not.  Accepted
nodes live in three flat float buffers (t, then y and f with d values per
node), 40 bytes a node for d = 2, and the result's node arrays view them
without a copy.  The dense output ``sol`` fills one more such buffer, d
values per query point, and returns a view of it.

The event is one scalar function g(t, y), read at the accepted nodes.  The
first accepted node where g has fallen from > 0 to <= 0 ends the
integration as its last node: no root is sought inside the step, so the
last state is one the error control accepted.  A node exactly on g = 0 has
crossed, and a rise through zero does not fire.  The integrator never
raises on difficult problems: it reports status "step_collapse" when a
step can no longer advance t, because h is at or below 1e-14 * max(|t|,
first_step) (near t = 0 the step first tried, not 1, sets the scale, so a
launch at a tiny t0 can step; at a subnormal t0 that floor underflows to 0)
or t + h == t, and "max_steps" when the step budget (2e6 accepted steps)
runs out, and leaves classification to the caller.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
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
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9
_MAX_STEPS = 2_000_000  # accepted steps before status "max_steps"


@dataclass
class IntegrationResult:
    ts: np.ndarray                      # accepted nodes, strictly increasing, shape (n+1,)
    ys: np.ndarray                      # states at nodes, shape (n+1, d)
    fs: np.ndarray                      # f at nodes (FSAL byproduct), shape (n+1, d)
    status: str                         # finished | event | step_collapse | max_steps
    n_steps: int = 0
    n_rejected: int = 0
    n_fev: int = 0

    def sol(self, t):
        """Dense evaluation at t inside [ts[0], ts[-1]], with one ``_hermite``
        per point and component on floats.  t is a scalar or an array of any
        shape, read flattened in C order.  A t outside raises ValueError
        naming the end it passes.

        Returns shape (m, d) for an array of m points and (d,) for a scalar:
        a view of one flat float buffer that the points fill in order, d
        values each, so no Python object per point outlives its iteration.
        """
        ts, ys, fs, out = self.ts.tolist(), self.ys.data, self.fs.data, array("d")
        d = self.ys.shape[1]
        for x in np.asarray(t, dtype=float).ravel().data:
            if not ts[0] <= x <= ts[-1]:
                raise ValueError(f"ends at {ts[-1]:.6g} before {x:g}" if x > ts[-1]
                                 else f"starts at {ts[0]:.6g} after {x:g}")
            if len(ts) == 1:
                # A step collapse at launch leaves one node, whose f may be inf.
                out.extend(self.ys[0].tolist())
                continue
            i = min(bisect_right(ts, x), len(ts) - 1) - 1
            out.extend([_hermite(ts[i], ts[i + 1], ys[i, j], ys[i + 1, j], fs[i, j], fs[i + 1, j], x)
                        for j in range(d)])
        out = np.frombuffer(out).reshape(-1, d)
        return out[0] if np.ndim(t) == 0 else out


def left_sum(values) -> float:
    """Sum of floats folded left to right from 0.0, as Python 3.11's builtin sum does."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _hermite(t0, t1, y0, y1, f0, f1, t):
    """Cubic Hermite interpolant of one step at t, on floats."""
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
    event: Callable[[float, tuple[float, ...]], float] | None = None,
) -> IntegrationResult:
    """Integrate y' = f(t, y) forward from t0 to t1 (t1 > t0), trying first_step
    first, and end early at the first accepted node where ``event`` has fallen
    through zero (status "event")."""
    if t1 <= t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    t, y = t0, tuple(map(float, y0))
    fy = tuple(map(float, f(t, y)))
    n_fev = 1
    h = min(first_step, max_step, t1 - t0)

    ts, ys, fs = array("d", (t,)), array("d", y), array("d", fy)
    g_old = None if event is None else event(t, y)
    n_steps = n_rejected = 0
    status = "finished"

    while t < t1:
        if h <= _COLLAPSE_FLOOR * max(abs(t), first_step) or t + h == t:
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
        t, y, fy = t + h, y_new, f_new  # FSAL
        n_steps += 1
        ts.append(t)
        ys.extend(y)
        fs.extend(fy)
        if event is not None:
            g_new = event(t, y)
            if g_old > 0.0 >= g_new:
                status = "event"
                break
            g_old = g_new

        factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
        h = min(factor * h, max_step)

    d = len(y)
    return IntegrationResult(
        ts=np.frombuffer(ts),
        ys=np.frombuffer(ys).reshape(-1, d),
        fs=np.frombuffer(fs).reshape(-1, d),
        status=status,
        n_steps=n_steps,
        n_rejected=n_rejected,
        n_fev=n_fev,
    )
