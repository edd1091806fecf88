"""The Taylor-series oracle behind criteria 5 and 11 (``verify.taylor_oracle``).

At p = 2 it is checked against scipy's DOP853 on the (u, u') system, started
from the same launch, on the criteria's own shots and on seeded draws of both
signs.  At p != 2 it is checked against the weighted bubble

    U = (1 + r^s)^{-(N-p)/(p+gamma)},   s = (p+gamma)/(p-1),

which solves -Delta_p U = K r^gamma U^{q_E} with K = (N+gamma)((N-p)/(p-1))^{p-1},
started from the bubble's own data at r = 1.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from plap import EquationSign, IvpSpec, ProblemParams, equation_critical, verify

MINUS, PLUS = EquationSign.MINUS, EquationSign.PLUS


def dop853_event(spec):
    """DOP853 (rtol 1e-12, atol 1e-14) on (u, u') at p = 2, from the oracle's
    launch: the radius where u reaches 0 (minus) or the blow-up threshold (plus)."""
    pr = spec.params
    n, gamma, q, a = pr.n_dim, pr.gamma, pr.q, pr.amplitude
    sgn = float(spec.sign.value)
    r0, u0, v0 = verify.taylor_launch(pr, spec.u0, sgn, spec.r_max)
    level = spec.blowup_threshold if sgn > 0 else 0.0

    def f(r, y):
        u, v = y
        return [v, -(n - 1.0) / r * v + sgn * a * r ** gamma * math.copysign(abs(u) ** q, u)]

    def event(r, y):
        return y[0] - level

    event.terminal = True
    event.direction = sgn
    sol = solve_ivp(f, (r0, spec.r_max), [u0, v0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=event)
    return float(sol.t_events[0][0])


def seeded_p2_specs(count=12, seed=20261019):
    """Minus shots with q < q_E (they cross) and plus shots (they blow up), alternating."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        base = ProblemParams(int(rng.integers(3, 7)), 2.0, 2.0, float(rng.uniform(0.0, 1.5)))
        q = 1.0 + (equation_critical(base) - 1.0) * float(rng.uniform(0.2, 0.9))
        specs.append(IvpSpec(params=base.replace(q=q), u0=float(rng.uniform(0.5, 2.0)),
                             sign=PLUS if i % 2 else MINUS, r_max=1e4))
    return specs


CRITERIA_SPECS = [
    IvpSpec(params=ProblemParams(3, 2.0, 3.0), u0=u0, r_max=30.0) for u0 in (0.5, 1.0, 2.0)
] + [IvpSpec(params=ProblemParams(3, 2.0, 3.0), u0=1.0, sign=PLUS, r_max=100.0)]


@pytest.mark.parametrize(
    "spec", CRITERIA_SPECS + seeded_p2_specs(),
    ids=[f"criterion-5-u0={u0}" for u0 in (0.5, 1.0, 2.0)] + ["criterion-11"]
    + [f"draw-{i}" for i in range(12)],
)
def test_event_radius_matches_dop853(spec):
    event = "blows_up" if spec.sign is PLUS else "crosses_zero"
    r_taylor = verify._oracle_radius(spec, event)
    r_dop = dop853_event(spec)
    assert abs(r_taylor - r_dop) <= 1e-10 * r_dop


BUBBLES = [(3, 1.5, 0.0), (4, 3.0, 1.0), (5, 1.8, -1.0)]


@pytest.mark.parametrize("n,p,gamma", BUBBLES, ids=[f"N={n},p={p},gamma={g}" for n, p, g in BUBBLES])
def test_weighted_bubble_from_r_one(n, p, gamma):
    # A forward integration cannot keep relative accuracy where U itself falls
    # many decades (U(1e3)/U(1) is 2e-9 at p = 1.5 and 2e-11 at p = 1.8): the
    # relative bound holds where U >= 1e-3 U(1), the absolute one everywhere.
    s, b = (p + gamma) / (p - 1.0), (n - p) / (p + gamma)
    k = (n + gamma) * ((n - p) / (p - 1.0)) ** (p - 1.0)
    params = ProblemParams(n, p, equation_critical(ProblemParams(n, p, p, gamma)), gamma, k)

    def bubble(r):
        return (1.0 + r ** s) ** -b

    du1 = -b * s * 2.0 ** (-b - 1.0)  # U'(1)
    run = verify.taylor_oracle(params, -1.0, 1.0, bubble(1.0), -abs(du1) ** (p - 1.0),
                               1e3, math.inf)
    assert run.event == "r_max" and run.r[0] == 1.0 and run.r[-1] == 1e3
    assert len(run.r) > 20
    exact = [bubble(r) for r in run.r]
    assert max(abs(u - x) for u, x in zip(run.u, exact)) <= 1e-12
    assert max(abs(u / x - 1.0) for u, x in zip(run.u, exact) if x >= 1e-3 * bubble(1.0)) <= 1e-10

