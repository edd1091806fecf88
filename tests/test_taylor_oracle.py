"""The Taylor-series oracle behind criteria 5 and 11 (``verify.taylor_oracle``).

At p = 2 it is checked against scipy's DOP853, started from the same launch,
on the criteria's own shots and on seeded draws of both signs.  At p != 2 it
is checked against the weighted bubble

    U = (1 + r^s)^{-(N-p)/(p+gamma)},   s = (p+gamma)/(p-1),

which solves -Delta_p U = K r^gamma U^{q_E} with K = (N+gamma)((N-p)/(p-1))^{p-1},
started from the bubble's own data at r = 1, and against its plus twin
U = (1 - r^s)^{-(N-p)/(p+gamma)}, which solves Delta_p U = K r^gamma U^{q_E}
and has its pole at r = 1.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from plap import EquationSign, IvpSpec, PlapError, ProblemParams, equation_critical, verify

MINUS, PLUS = EquationSign.MINUS, EquationSign.PLUS


def dop853_event(spec):
    """DOP853 (rtol 1e-12, atol 1e-14) at p = 2, from the oracle's launch: the
    radius where u reaches 0 (minus, on (u, u')) or its pole (plus, on
    (v, v') with v = u^{-1/beta}, beta = 2/(q-1), where the pole is a zero of v:
    v'' = -(N-1) v'/r + ((beta+1) v'^2 - (a/beta) r^gamma)/v)."""
    pr = spec.params
    n, gamma, q, a = pr.n_dim, pr.gamma, pr.q, pr.amplitude
    r0, u0, du0 = verify.taylor_launch(pr, spec.u0, float(spec.sign.value), spec.delta0)
    if spec.sign is MINUS:
        def f(r, y):
            u, du = y
            return [du, -(n - 1.0) / r * du - a * r ** gamma * math.copysign(abs(u) ** q, u)]

        y0 = [u0, du0]
    else:
        beta = 2.0 / (q - 1.0)

        def f(r, y):
            v, dv = y
            return [dv, -(n - 1.0) / r * dv + ((beta + 1.0) * dv * dv - a / beta * r ** gamma) / v]

        y0 = [u0 ** (-1.0 / beta), -u0 ** (-1.0 / beta - 1.0) * du0 / beta]

    def event(r, y):
        return y[0]

    event.terminal = True
    event.direction = -1
    sol = solve_ivp(f, (r0, spec.r_max), y0, method="DOP853", rtol=1e-12, atol=1e-14,
                    events=event)
    if sol.status == -1:  # the step size fell below the spacing of floats at the pole
        assert spec.sign is PLUS, sol.message
        return float(sol.t[-1])
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


def bubble_params(n, p, gamma):
    """(N, p, q_E, gamma, K), for which the weighted bubble and its plus twin are solutions."""
    k = (n + gamma) * ((n - p) / (p - 1.0)) ** (p - 1.0)
    return ProblemParams(n, p, equation_critical(ProblemParams(n, p, p, gamma)), gamma, k)


BUBBLES = [(3, 1.5, 0.0), (4, 3.0, 1.0), (5, 1.8, -1.0)]


@pytest.mark.parametrize("n,p,gamma", BUBBLES, ids=[f"N={n},p={p},gamma={g}" for n, p, g in BUBBLES])
def test_weighted_bubble_from_r_one(n, p, gamma):
    # A forward integration cannot keep relative accuracy where U itself falls
    # many decades (U(1e3)/U(1) is 2e-9 at p = 1.5 and 2e-11 at p = 1.8): the
    # relative bound holds where U >= 1e-3 U(1), the absolute one everywhere.
    s, b = (p + gamma) / (p - 1.0), (n - p) / (p + gamma)

    def bubble(r):
        return (1.0 + r ** s) ** -b

    du1 = -b * s * 2.0 ** (-b - 1.0)  # U'(1)
    run = verify.taylor_oracle(bubble_params(n, p, gamma), -1.0, 1.0, bubble(1.0),
                               -abs(du1) ** (p - 1.0), 1e3)
    assert run.event == "r_max" and run.r[0] == 1.0 and run.r[-1] == 1e3
    assert len(run.r) > 20
    exact = [bubble(r) for r in run.r]
    assert max(abs(u - x) for u, x in zip(run.u, exact)) <= 1e-12
    assert max(abs(u / x - 1.0) for u, x in zip(run.u, exact) if x >= 1e-3 * bubble(1.0)) <= 1e-10


# (N, p, gamma) with s = (p+gamma)/(p-1) >= 0.5; beta = (N-p)/(p+gamma) runs from 0.017 to
# 5.67.  At s = 0.5 the leading-order launch is O(r^{2s}) = O(r) off, so only the shot's own
# hand-off radius, shrunk to 2.5e-13 there, puts the pole within 1e-10.
PLUS_BUBBLES = [(3, 2.0, 0.0), (3, 1.5, 0.0), (4, 3.0, 1.0), (5, 1.8, -1.0), (8, 1.2, 0.0),
                (10, 1.2, 2.0), (3, 2.9, 0.0), (6, 5.5, 0.5), (7, 2.0, 3.0), (6, 5.9, 0.0),
                (3, 2.0, -1.5)]


@pytest.mark.parametrize(
    "n,p,gamma", PLUS_BUBBLES, ids=[f"N={n},p={p},gamma={g}" for n, p, g in PLUS_BUBBLES])
def test_pole_of_the_plus_bubble(n, p, gamma):
    spec = IvpSpec(params=bubble_params(n, p, gamma), u0=1.0, sign=PLUS, r_max=10.0)
    assert abs(verify._oracle_radius(spec, "blows_up") - 1.0) <= 1e-10


def test_pole_past_the_float_range_raises():
    # beta = 27: the coefficients at d <= 1e-6 r pass the float range before
    # the pole can be read, and the oracle says so instead of running on to r_max.
    spec = IvpSpec(params=bubble_params(4, 1.3, -1.2), u0=1.0, sign=PLUS, r_max=10.0)
    with pytest.raises(PlapError, match="Taylor oracle left the float range at r="):
        verify._oracle_radius(spec, "blows_up")
