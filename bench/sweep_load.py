"""The ``sweep`` workload: seeded q-lines of radial shots, as ``plap sweep`` runs them.

One call is one ``shooting.sweep_outcomes(specs)`` with default arguments (the
plain serial path) for one line: fixed (N, p, gamma, u0) and sign, and
POINTS values of q evenly spaced from just above p - 1 to past q_E, at the
CLI default r_max = 1e3.  That is what ``plap sweep --axis q --steps 64``
sends, with the point count of the 64-point q-sweep in the ROADMAP baseline.

Each seed draws ten lines: two minus-sign lines for each N in 3..6 and two
plus-sign lines at N = 3.  The p values are stratified.  For the minus
lines the seed deals the four lower eighths of [1.5, N) to one line of each
N and the four upper eighths to the other, so every seed has exactly one
line in each eighth, the top one included, where the positive-label defect
is worst.  The plus lines take the lower and the upper half of [1.5, 3).
The seed draws p inside its stratum, gamma in [0, 2], u0 in [0.5, 2] and
the phase of each q grid.  So the cost of a deck, and its share of
known-wrong labels, stay about the same from seed to seed.

A plus-sign shot runs to blow-up in 900-2700 steps, against 200-350 for a
minus-sign shot, so one 64-point plus line costs as much as four minus
lines.  At N = 3 its cost stays within 55k-85k steps whatever p is; at
N = 6 it runs from 55k to 171k steps.  N = 3 still shows the plus-sign shots
that come back ``indeterminate`` when p is close to N.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

N_VALUES = (3, 4, 5, 6)
POINTS = 64
R_MAX = 1e3
PLUS_N = 3
# q runs over x = (q - (p-1)) / (q_E - (p-1)) in (0, X_MAX]; x = 1 is q = q_E.
X_MAX = 1.5


@dataclass(frozen=True)
class Point:
    n_dim: int
    p: float
    gamma: float
    u0: float
    q: float
    q_e: float
    sign: int  # -1 minus (-Delta_p u = ...), +1 plus

    def expected(self) -> str:
        """The label the theory gives: crossing below q_E, decay above, blow-up for plus."""
        if self.sign > 0:
            return "blows_up"
        return "crosses_zero" if self.q < self.q_e else "positive_decaying"

    def describe(self) -> str:
        return (f"N={self.n_dim} p={self.p:.6g} gamma={self.gamma:.6g} u0={self.u0:.6g} "
                f"sign={'plus' if self.sign > 0 else 'minus'} q={self.q:.8g} "
                f"q/q_E={self.q / self.q_e:.6g}")


def make_line(rng: random.Random, n: int, p_lo: float, p_hi: float, sign: int,
              q_equation) -> list[Point]:
    """One line: p uniform in [p_lo, p_hi), q on an evenly spaced grid with a seeded phase."""
    p = rng.uniform(p_lo, p_hi)
    gamma = rng.uniform(0.0, 2.0)
    u0 = rng.uniform(0.5, 2.0)
    q_e = q_equation(n, p, gamma)
    phase = 1.0 - rng.random()  # in (0, 1], so every q is above p - 1
    step = (q_e - (p - 1.0)) * X_MAX / POINTS
    return [Point(n, p, gamma, u0, (p - 1.0) + step * (k + phase), q_e, sign)
            for k in range(POINTS)]


def make_deck(seed: int, q_equation) -> list[list[Point]]:
    """The seeded lines; ``q_equation(n, p, gamma)`` is the theory's q_E."""
    rng = random.Random(seed)

    def line(n, k, strata, sign):
        """A line with p in stratum k of ``strata`` equal strata of [1.5, n)."""
        width = (n - 1.5) / strata
        return make_line(rng, n, 1.5 + k * width, 1.5 + (k + 1) * width, sign, q_equation)

    lower, upper = rng.sample(range(4), 4), rng.sample(range(4, 8), 4)
    lines = [line(n, k, 8, -1) for n, lo, hi in zip(N_VALUES, lower, upper) for k in (lo, hi)]
    return lines + [line(PLUS_N, k, 2, +1) for k in (0, 1)]


class SweepLoad:
    """Runs deck lines through the library and grades each label."""

    unit = "points"

    def __init__(self, seed: int, plap):
        self.plap = plap
        shooting, ProblemParams = plap.shooting, plap.ProblemParams

        def q_equation(n, p, gamma):
            return plap.equation_critical(ProblemParams(n, p, p, gamma))

        self.deck = make_deck(seed, q_equation)
        self.specs = [
            [shooting.IvpSpec(
                params=ProblemParams(pt.n_dim, pt.p, pt.q, pt.gamma),
                u0=pt.u0,
                sign=shooting.EquationSign.PLUS if pt.sign > 0 else shooting.EquationSign.MINUS,
                r_max=R_MAX,
            ) for pt in line]
            for line in self.deck
        ]

    def call(self, i: int):
        """The timed operation: classify line i."""
        return self.plap.shooting.sweep_outcomes(self.specs[i])

    def grade(self, i: int, outcomes, exc) -> list[tuple[str, str, tuple]]:
        """(verdict, detail, fingerprint) per point; verdict is ok|wrong|indeterminate|error."""
        line = self.deck[i]
        if exc is not None:
            return [("error", f"{pt.describe()}: raised {exc!r}", ("error",)) for pt in line]
        graded = []
        for pt, out in zip(line, outcomes):
            label = out.kind.value
            r_event = out.r_event
            fingerprint = (label, None if r_event is None else float(r_event))
            if label == pt.expected():
                verdict = "ok"
            elif label == "indeterminate":
                verdict = "indeterminate"
            else:
                verdict = "wrong"
            detail = f"{pt.describe()}: expected {pt.expected()}, got {label}"
            if r_event is not None and math.isfinite(r_event):
                detail += f" (r_event={r_event:.6g})"
            graded.append((verdict, detail, fingerprint))
        return graded
