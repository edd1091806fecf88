"""Self-verification suite: twelve acceptance checks covering exponents,
barriers, shooting, Pohozaev balance, Hadamard bounds, the comparison
principle, the recursion bound, and scaling covariance.

Oracles are independent of the code under test: closed forms evaluated by
hand-derived formulas, finite differences on profile values only, and (for
crossing/blow-up radii) ``taylor_oracle``, an order-24 Taylor-series
integration of (u, |u'|^{p-2}u') in pure Python -- a different method on a
different formulation from the shooting code's Dormand-Prince pair on
(u, r^{N-1}|u'|^{p-2}u') in logs.  Its own check against scipy's DOP853 is in
the test suite; nothing here imports scipy.

Criteria 2, 3, 7, 8, 10, 11 and 12 draw seeded cases from ``_stream``, the
standard library's ``random.Random``, so the board loads no ``numpy.random``
and its cases do not move with the installed numpy.  Python keeps
``random()`` the same for an int seed across releases, and the test suite
pins the first draws.

``run_all`` returns one result per criterion; the cli ``verify`` subcommand
prints them one per line and exits 3 if any fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import barriers, bvp, identities, shooting
from .errors import PlapError
from .exponents import (
    ProblemParams,
    equation_critical,
    lambda_exponent,
    pohozaev_coefficient,
    serrin_critical,
)
from .radial_ops import (
    CutoffBarrier,
    LogBarrier,
    PowerBarrier,
    eval_profile,
    fd_agreement,
    power_transform_residual,
)

_SEED = 20260814


def _stream(k: int) -> random.Random:
    """Criterion k's seeded draws."""
    return random.Random(_SEED + k)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"ACCEPTANCE {self.index:2d} {self.name}: {status} - {self.detail}"


# ---------------------------------------------------------------------------
# Shared fixtures (cached: several criteria reuse the same trajectories)
# ---------------------------------------------------------------------------

def _aubin_talenti_exact(r):
    return 3.0 ** 0.25 * (1.0 + np.asarray(r) ** 2) ** -0.5


@lru_cache(maxsize=None)
def _at_shot(r_max: float):
    return shooting.integrate_ivp(shooting.IvpSpec(
        params=ProblemParams(3, 2.0, 5.0), u0=3.0 ** 0.25, r_max=r_max
    ))


@lru_cache(maxsize=None)
def _subcritical_shot(u0: float):
    return shooting.integrate_ivp(
        shooting.IvpSpec(params=ProblemParams(3, 2.0, 3.0), u0=u0, r_max=30.0))


# ---------------------------------------------------------------------------
# Taylor-series oracle for crossing and blow-up radii
# ---------------------------------------------------------------------------

_TAYLOR_ORDER = 24
_TAYLOR_TOL = 1e-16  # last-coefficient size relative to the state, per component
# The pole is read once it is this close, relative to r: there the profile's O(x) term
# (``shooting._pole``'s c) moves the Domb-Sykes read at order k by about
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


def _oracle_radius(spec: shooting.IvpSpec, event: str) -> float:
    """The oracle's radius of ``event`` for the shot ``spec``: launched from
    the origin series at the shot's hand-off radius spec.delta0 and integrated
    up to spec.r_max."""
    sgn = float(spec.sign.value)
    start = taylor_launch(spec.params, spec.u0, sgn, spec.delta0)
    run = taylor_oracle(spec.params, sgn, *start, spec.r_max)
    if run.event != event:
        raise PlapError(f"Taylor oracle ended in {run.event} at r={run.r[-1]:.6g}, not {event}")
    return run.r[-1]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def _c01_exponent_exactness():
    pr = ProblemParams(3, 2.0, 4.0)
    qs, qe = serrin_critical(pr), equation_critical(pr)
    worst = 0.0
    for n in range(3, 31):
        got = equation_critical(ProblemParams(n, 2.0, 4.0))
        worst = max(worst, abs(got - (n + 2.0) / (n - 2.0)))
    passed = abs(qs - 3.0) <= 1e-12 and abs(qe - 5.0) <= 1e-12 and worst <= 1e-12
    return passed, (
        f"q_S(3,2,0)={qs!r}, q_E(3,2,0)={qe!r}; "
        f"max |q_E - (N+2)/(N-2)| over N=3..30 = {worst:.2e}"
    )


def _c02_counterexample_soundness():
    pr = ProblemParams(3, 2.0, 4.0)
    cx = barriers.build_counterexample(pr)
    e_eps = abs(barriers.counterexample_epsilon(pr) - 1.0 / 3.0)
    e_alp = abs(cx.alpha - 2.0 / 3.0)
    e_c = abs(cx.c - (2.0 / 9.0) ** (1.0 / 3.0))
    if max(e_eps, e_alp, e_c) > 1e-12:
        return False, f"constants off: d_eps={e_eps:.2e} d_alpha={e_alp:.2e} d_c={e_c:.2e}"
    _, res = barriers.counterexample_residual_grid(cx, pr, 1e-3, 1e6, 2000)
    grid_min = float(np.min(res))
    spot = barriers.counterexample_residual(cx, pr, 1.0).residual
    spot_ref = 2.0 ** (-8.0 / 3.0) * (4.0 / 3.0) * cx.c
    spot_err = abs(spot - spot_ref)
    rng = _stream(0)
    worst_random = math.inf
    worst_tag = ""
    for _ in range(100):
        n = rng.randrange(2, 9)
        p = rng.uniform(1.05, min(4.0, n - 0.1))
        gamma = rng.uniform(0.0, 5.0)
        base = ProblemParams(n, p, p, gamma, rng.uniform(0.5, 2.0))
        q = serrin_critical(base) * (1.0 + rng.uniform(0.02, 2.0))
        prr = base.replace(q=q)
        cxr = barriers.build_counterexample(prr)
        _, rs = barriers.counterexample_residual_grid(cxr, prr, 1e-3, 1e6, 400)
        m = float(np.min(rs))
        if m < worst_random:
            worst_random, worst_tag = m, f"(N={n},p={p:.3g},gamma={gamma:.3g},q={q:.4g})"
    passed = grid_min >= 0.0 and spot_err <= 1e-10 and worst_random >= 0.0
    return passed, (
        f"grid min residual {grid_min:.3e}; spot |err| {spot_err:.2e}; "
        f"100 draws min residual {worst_random:.3e} at {worst_tag}"
    )


def _c03_pohozaev_root():
    rng = _stream(1)
    worst = 0.0
    for _ in range(100):
        n = rng.randrange(2, 11)
        p = rng.uniform(1.05, min(6.0, n - 0.05))
        gamma = rng.uniform(-p + 0.2, 4.0)
        base = ProblemParams(n, p, p, gamma)
        qe = equation_critical(base)
        k = pohozaev_coefficient(base.replace(q=qe))
        worst = max(worst, abs(k))
    return worst <= 1e-12, f"max |coefficient at q_E| over 100 draws = {worst:.2e}"


def _c04_shooting_oracle():
    traj = _at_shot(100.0)
    r = np.geomspace(traj.spec.delta0, 100.0, 200)
    u, _ = traj.sample(r)
    rel = float(np.max(np.abs(u - _aubin_talenti_exact(r)) / _aubin_talenti_exact(r)))
    outcome = shooting.classify_outcome(_at_shot(1e4))
    if outcome.kind is not shooting.OutcomeKind.POSITIVE_DECAYING:
        return False, f"r_max=1e4 outcome {outcome.kind.value}: {outcome.reason}"
    passed = rel <= 1e-6
    return passed, (
        f"max rel error vs 3^(1/4)(1+r^2)^(-1/2) on [{traj.spec.delta0:.2g},100] = {rel:.2e}; "
        f"r_max=1e4 outcome {outcome.kind.value} (tail slope {outcome.tail_slope:.4f})"
    )


def _c05_subcritical_crossing():
    details = []
    passed = True
    for u0 in (0.5, 1.0, 2.0):
        traj = _subcritical_shot(u0)
        outcome = shooting.classify_outcome(traj)
        if outcome.kind is not shooting.OutcomeKind.CROSSES_ZERO:
            passed = False
            details.append(f"u0={u0}: outcome {outcome.kind.value}: {outcome.reason}")
            continue
        r_oracle = _oracle_radius(traj.spec, "crosses_zero")
        rel = abs(outcome.r_event - r_oracle) / r_oracle
        passed &= rel <= 1e-4
        details.append(
            f"u0={u0}: r_cross={outcome.r_event:.8g} vs oracle {r_oracle:.8g} (rel {rel:.1e})")
    return passed, "; ".join(details)


def _c06_pohozaev_residual():
    traj_at = _at_shot(100.0)
    worst_crit = 0.0
    for r_eval in (1.0, 5.0, 50.0):
        rep = shooting.pohozaev_residual(traj_at, r_eval, tol=1e-6)
        worst_crit = max(worst_crit, rep.rel_residual())
        if not rep.passed:
            return False, f"critical case fails at r={r_eval}: rel {rep.rel_residual():.2e}"
    worst_sub = 0.0
    traj_sub = _subcritical_shot(1.0)
    for r_eval in (1.0, 3.0, 6.0):
        rep = shooting.pohozaev_residual(traj_sub, r_eval, tol=1e-4)
        worst_sub = max(worst_sub, rep.rel_residual())
    base = ProblemParams(4, 2.5, 2.5, 0.5)
    q_near = equation_critical(base) * 0.98
    pr_deg = base.replace(q=q_near)
    traj_deg = shooting.integrate_ivp(shooting.IvpSpec(params=pr_deg, u0=1.0, r_max=10.0))
    rep_deg = shooting.pohozaev_residual(traj_deg, 0.5, tol=1e-4)
    worst_sub = max(worst_sub, rep_deg.rel_residual())

    # refinement: cap the step so discretization dominates, then halve the cap
    res_levels = []
    for h in (0.2, 0.1, 0.05):
        traj_h = shooting.integrate_ivp(shooting.IvpSpec(
            params=ProblemParams(3, 2.0, 3.0), u0=1.0, r_max=5.0,
            rtol=1.0, max_step=h,
        ))
        rep_h = shooting.pohozaev_residual(traj_h, 2.5, tol=1.0)
        res_levels.append(abs(rep_h.residual) / rep_h.scale)
    orders = [math.log2(res_levels[i] / res_levels[i + 1]) for i in range(2)]
    passed = worst_crit <= 1e-6 and worst_sub <= 1e-4 and min(orders) >= 1.0
    return passed, (
        f"critical max rel {worst_crit:.2e}; subcritical max rel {worst_sub:.2e}; "
        f"refinement residuals {[f'{x:.2e}' for x in res_levels]} orders "
        f"{[f'{o:.2f}' for o in orders]}"
    )


def _c07_hadamard():
    # (a) exactness on fundamental-solution minima
    worst_eq = 0.0
    lam = -1.0
    inp = barriers.HadamardInput(1.0, 4.0, 1.0, 0.25, lam=lam)
    r = np.linspace(1.0, 4.0, 41)
    worst_eq = max(worst_eq, float(np.max(np.abs(barriers.hadamard_lower_bound(inp, r) - r ** lam))))
    c2, c1 = 0.7, 0.3
    inp2 = barriers.HadamardInput(
        0.5, 8.0, c2 * 0.5 ** lam + c1, c2 * 8.0 ** lam + c1, lam=lam
    )
    r2 = np.linspace(0.5, 8.0, 41)
    worst_eq = max(
        worst_eq,
        float(np.max(np.abs(barriers.hadamard_lower_bound(inp2, r2) - (c2 * r2 ** lam + c1)))),
    )
    e2 = math.e ** 2
    inp_log = barriers.HadamardInput(1.0, e2, 1.0, 0.0, lam=0.0)
    r3 = np.linspace(1.0, e2, 41)
    exact_log = 1.0 - np.log(r3) / 2.0
    worst_eq = max(
        worst_eq, float(np.max(np.abs(barriers.hadamard_lower_bound(inp_log, r3) - exact_log)))
    )
    mid = barriers.hadamard_lower_bound(inp_log, math.e)
    worst_eq = max(worst_eq, abs(mid - 0.5))

    # (b) monotonicity of m(r) r^{-lam} along global supersolutions, at fixed radii
    r_mono = np.geomspace(0.05, 100.0, 400)
    traj_sup = shooting.integrate_ivp(
        shooting.IvpSpec(params=ProblemParams(3, 2.0, 6.0), u0=1.0, r_max=100.0))
    rep_at, rep_sup = (barriers.hadamard_monotonicity_check(
        np.column_stack([r_mono, traj.sample(r_mono)[0]]), lam=-1.0)
        for traj in (_at_shot(100.0), traj_sup))

    # (c) bound below BVP supersolution minima on random annuli
    rng = _stream(2)
    worst_margin = math.inf
    for draw in range(10):
        if draw < 2:
            n = rng.randrange(2, 4)
            p = float(n)
        else:
            n = rng.randrange(2, 7)
            p = rng.uniform(1.4, 3.5)
            while abs(p - n) < 0.1:
                p = rng.uniform(1.4, 3.5)
        pr = ProblemParams(n, p, max(p, 2.0))
        r1 = rng.uniform(0.5, 2.0)
        r2 = r1 * rng.uniform(1.8, 4.0)
        b1, b2 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        amp = rng.uniform(0.05, 1.0)
        prob = bvp.AnnulusProblem(
            params=pr, r_inner=r1, r_outer=r2, boundary_inner=b1, boundary_outer=b2,
            rhs=lambda rr, A=amp: A * (1.0 + math.sin(3.0 * rr) ** 2), mesh_size=256,
        )
        sol, _ = bvp.solve_annulus_dirichlet_detailed(prob)
        inp_r = barriers.HadamardInput(
            r1, r2, float(sol.u[0]), float(sol.u[-1]), lam=lambda_exponent(pr)
        )
        bound = barriers.hadamard_lower_bound(inp_r, sol.r)
        worst_margin = min(worst_margin, float(np.min(sol.u - bound)))
    passed = (
        worst_eq <= 1e-10 and rep_at.passed and rep_sup.passed and worst_margin >= -1e-6
    )
    return passed, (
        f"fundamental equality max err {worst_eq:.2e}; monotonicity min increments "
        f"{rep_at.residual:.2e} (critical), {rep_sup.residual:.2e} (supercritical); "
        f"10 annuli min(u - bound) = {worst_margin:.3e}"
    )


def _c08_comparison():
    rng = _stream(3)
    worst = math.inf
    for _ in range(20):
        n = rng.randrange(2, 7)
        p = rng.uniform(1.3, 4.0)
        if abs(p - n) < 0.15:
            p = float(n)
        pr = ProblemParams(n, p, max(p, 2.0))
        r1 = rng.uniform(0.6, 1.5)
        r2 = r1 * rng.uniform(1.6, 3.5)
        c2 = rng.uniform(0.3, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        c1 = rng.uniform(-1.0, 1.0)
        phi = PowerBarrier.fundamental(pr, c2=c2, c1=c1)
        lift1, lift2 = rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.8)
        amp = rng.uniform(0.0, 1.5)
        om = rng.uniform(0.5, 4.0)
        prob = bvp.AnnulusProblem(
            params=pr, r_inner=r1, r_outer=r2,
            boundary_inner=eval_profile(phi, r1).value + lift1,
            boundary_outer=eval_profile(phi, r2).value + lift2,
            rhs=lambda rr, A=amp, w=om: A * (1.0 + math.cos(w * rr) ** 2),
            mesh_size=192,
        )
        rep = bvp.comparison_check(prob, phi)
        worst = min(worst, rep.residual)
    if worst < -1e-8:
        return False, f"comparison margin violated: min(u - phi) = {worst:.3e}"

    closed = [
        (
            bvp.AnnulusProblem(ProblemParams(3, 2.0, 2.0), 1.0, 2.0, 1.0, 0.0, None, 512),
            lambda r: 2.0 / r - 1.0,
            "2/r - 1",
        ),
        (
            bvp.AnnulusProblem(ProblemParams(3, 3.0, 3.0), 1.0, 2.0, 1.0, 0.0, None, 512),
            lambda r: np.log(r / 2.0) / np.log(0.5),
            "log(r/2)/log(1/2)",
        ),
        (
            bvp.AnnulusProblem(ProblemParams(2, 3.0, 3.0), 1.0, 4.0, 0.0, 1.0, None, 512),
            lambda r: np.sqrt(r) - 1.0,
            "sqrt(r) - 1",
        ),
    ]
    errs = []
    for prob, exact, _name in closed:
        sol, _ = bvp.solve_annulus_dirichlet_detailed(prob)
        errs.append(float(np.max(np.abs(sol.u - exact(sol.r)))))
    passed = worst >= -1e-8 and max(errs) <= 1e-6
    return passed, (
        f"20 draws min(u - phi) = {worst:.3e}; closed-form max-norm errors at mesh 512: "
        + ", ".join(f"{e:.2e}" for e in errs)
    )


def _c09_moser():
    worked = [
        (identities.RecursionSpec(2.0, 2.0, 1.0, 3), (11.0 / 8.0) * math.log(2.0), 2.0 * math.log(2.0)),
        (identities.RecursionSpec(1.0, 3.0, 5.0, 10), math.log(5.0), math.log(5.0)),
        (identities.RecursionSpec(3.0, 3.0, 1.0, 2), (5.0 / 9.0) * math.log(3.0), 0.75 * math.log(3.0)),
    ]
    worked_err = 0.0
    for spec, lhs_ref, rhs_ref in worked:
        rep = identities.moser_recursion_bound(spec)
        worked_err = max(worked_err, abs(rep.lhs - lhs_ref), abs(rep.rhs - rhs_ref))
    grid_ok = True
    first_bad = ""
    worst_margin = math.inf
    for c in np.linspace(0.5, 10.0, 10):
        for k in np.linspace(1.1, 5.0, 10):
            for phi0 in np.logspace(-2.0, 2.0, 5):
                rep = identities.moser_recursion_bound(
                    identities.RecursionSpec(float(c), float(k), float(phi0), 30)
                )
                if rep.residual < worst_margin:
                    worst_margin = rep.residual
                if not rep.passed and grid_ok:
                    grid_ok = False
                    first_bad = (
                        f"first violation at c={c:.3g}, k={k:.3g}, phi0={phi0:.3g}: "
                        f"log-margin {rep.residual:.4g}"
                    )
    passed = grid_ok and worked_err <= 1e-12
    detail = f"worked examples max log-space err {worked_err:.2e}; grid min margin {worst_margin:.4g}"
    if not grid_ok:
        detail += (
            f"; {first_bad}. The bound requires c >= 1: for c < 1 the extremal "
            "sequence exceeds it already at n=1, so the grid's c=0.5 rows fail."
        )
    return passed, detail


def _c10_fd_oracle():
    rng = _stream(4)
    draws = []  # (profile, params, r, closed-form Delta_p)

    # fundamental (r^lam, and log r at N = p)
    for _ in range(25):
        n = rng.randrange(2, 7)
        if rng.random() < 0.2:
            p = float(n)
        else:
            p = rng.uniform(1.4, 3.5)
            while p >= n:
                p = rng.uniform(1.4, 3.5)
        pr = ProblemParams(n, p, max(p, 2.0))
        phi = PowerBarrier.fundamental(pr, c2=rng.uniform(0.5, 2.0),
                                       c1=rng.uniform(0.0, 1.0))
        r = float(np.exp(rng.uniform(np.log(0.4), np.log(20.0))))
        draws.append((phi, pr, r, 0.0))  # p-harmonic: Delta_p = 0

    # cutoff: conforming (k, p, N) instances.  Near r1 the operator vanishes
    # like s^{k(p-1)-1} while the profile value stays O(1), so the FD
    # difference loses all its signal there; sample clear of that corner.
    cut_cases = [(3, 2.0, 3), (3, 2.0, 5), (4, 2.0, 5), (3, 1.5, 2)]
    for _ in range(25):
        k, p, n = cut_cases[rng.randrange(0, len(cut_cases))]
        r1 = rng.uniform(0.5, 2.0)
        spec = CutoffBarrier(m1=rng.uniform(0.5, 2.0), r1=r1, r_big=2.0 * r1, k=k)
        pr = ProblemParams(n, p, max(p, 2.0))
        r = rng.uniform(1.3 * r1, 1.98 * r1)
        draws.append((spec, pr, r, -barriers.cutoff_barrier_plap(spec, pr, r)))

    # log-corrected barrier, radii clear of the gradient-degenerate point
    log_cases = [(2.0, 3, 1.0), (3.0, 4, 0.4), (1.7, 3, 1.0)]
    for _ in range(25):
        p, n, beta = log_cases[rng.randrange(0, len(log_cases))]
        pr = ProblemParams(n, p, max(p, 2.0))
        lb = LogBarrier.for_params(pr, gamma1=rng.uniform(0.05, 1.0),
                                   gamma2=rng.uniform(0.0, 0.5), beta=beta)
        r_star = math.exp(beta * (p - 1.0) / (n - p))
        r = float(np.exp(rng.uniform(np.log(1.5), np.log(50.0))))
        while abs(r - r_star) < 0.05 * r_star:
            r = float(np.exp(rng.uniform(np.log(1.5), np.log(50.0))))
        draws.append((lb, pr, r, barriers.log_barrier_plap(lb, pr, r)))

    # counterexample profile
    for _ in range(25):
        n = rng.randrange(2, 8)
        p = rng.uniform(1.2, min(3.5, n - 0.1))
        gamma = rng.uniform(0.0, 3.0)
        base = ProblemParams(n, p, p, gamma)
        q = serrin_critical(base) * (1.0 + rng.uniform(0.05, 1.5))
        pr = base.replace(q=q)
        cx = barriers.build_counterexample(pr)
        r = float(np.exp(rng.uniform(np.log(0.01), np.log(1e3))))
        draws.append((cx, pr, r, barriers.counterexample_plap(cx, pr, r)))

    # fd_agreement judges the expanded form against the FD oracle; each
    # family's own formula must equal that expanded form (the report's lhs).
    worst = 0.0
    worst_alg = 0.0
    for profile, pr, r, closed in draws:
        rep = fd_agreement(profile, r, pr)
        rel = rep.rel_residual()
        alg = abs(closed - rep.lhs) / max(abs(closed), rep.scale)
        worst, worst_alg = max(worst, rel), max(worst_alg, alg)
        if not rep.passed or alg > 1e-12:
            return False, (
                f"{type(profile).__name__} mismatch at r={r:.4g} ({pr}): "
                f"fd rel {rel:.2e}, closed form vs expanded form rel {alg:.2e}"
            )

    # cutoff upper bound on (r1, R), R = 2 r1 (conforming instances)
    bound_ok = True
    extremal_gap = math.inf
    for k, p, n in cut_cases:
        for r1 in (0.5, 1.0, 2.0):
            spec = CutoffBarrier(m1=1.0, r1=r1, r_big=2.0 * r1, k=k)
            pr = ProblemParams(n, p, max(p, 2.0))
            rr = np.linspace(r1 * (1.0 + 1e-9), 2.0 * r1, 2000)
            vals = np.array([-barriers.cutoff_barrier_plap(spec, pr, float(x)) for x in rr])
            bound = barriers.cutoff_plap_bound(spec, pr)
            if float(np.max(vals)) > bound * (1.0 + 1e-12):
                bound_ok = False
            if (k, p, n) == (3, 2.0, 3):
                extremal_gap = min(extremal_gap, bound - float(np.max(vals)))
    return bound_ok, (
        f"{len(draws)} fd points, worst rel {worst:.2e} (product vs radial form {worst_alg:.2e}); "
        f"cutoff bound respected on all conforming instances "
        f"(extremal case gap {extremal_gap:.2e})"
    )


def _c11_blowup_power_transform():
    pr = ProblemParams(3, 2.0, 3.0)
    spec = shooting.IvpSpec(params=pr, u0=1.0, sign=shooting.EquationSign.PLUS, r_max=100.0)
    outcome = shooting.classify_outcome(shooting.integrate_ivp(spec))
    if outcome.kind is not shooting.OutcomeKind.BLOWS_UP:
        return False, f"plus shot outcome {outcome.kind.value}: {outcome.reason}"
    r_blow_oracle = _oracle_radius(spec, "blows_up")
    rel = abs(outcome.r_event - r_blow_oracle) / r_blow_oracle

    # The plus twin of the weighted bubble, U = (1 - r^s)^{-(N-p)/(p+gamma)} with
    # s = (p+gamma)/(p-1), solves Delta_p U = K r^gamma U^{q_E}: its pole is r = 1, and
    # u(r) = u0 U(mu r) with mu = u0^{p/(N-p)} has its pole at 1/mu.  Draws 0 and 2 have
    # p < 2 and gamma < 0, draw 1 p > 2 and gamma < 0.
    rng = _stream(6)
    worst_bubble = 0.0
    for k in range(5):
        n = rng.randrange(3, 9)
        p = rng.uniform(1.1, 2.0) if k % 2 == 0 else rng.uniform(2.0, n - 0.5)
        gamma = p * rng.uniform(-0.6, 0.0 if k < 3 else 1.0)
        u0 = rng.uniform(0.5, 3.0)
        base = ProblemParams(n, p, p, gamma, (n + gamma) * ((n - p) / (p - 1.0)) ** (p - 1.0))
        bubble = shooting.IvpSpec(params=base.replace(q=equation_critical(base)), u0=u0,
                                  sign=shooting.EquationSign.PLUS)
        out = shooting.classify_outcome(shooting.integrate_ivp(bubble))
        if out.kind is not shooting.OutcomeKind.BLOWS_UP:
            return False, f"plus bubble {bubble.params} outcome {out.kind.value}: {out.reason}"
        worst_bubble = max(worst_bubble, abs(out.r_event * u0 ** (p / (n - p)) - 1.0))

    cx = barriers.build_counterexample(ProblemParams(3, 2.0, 4.0))
    profiles = [
        (cx, ProblemParams(3, 2.0, 4.0), (0.1, 30.0)),
        (PowerBarrier(c2=1.0, c1=0.5, lam=-1.0), ProblemParams(3, 2.0, 4.0), (0.2, 20.0)),
        (LogBarrier(gamma1=0.3, gamma2=0.1, beta=1.0, lam=-1.0), ProblemParams(3, 2.0, 4.0), (1.5, 40.0)),
    ]
    worst_pt = 0.0
    for prof, prm, (lo, hi) in profiles:
        for alpha in (1.0, 2.0, 3.0):
            for r in np.geomspace(lo, hi, 10):
                rep = power_transform_residual(prof, alpha, float(r), prm)
                worst_pt = max(worst_pt, rep.rel_residual())
                if not rep.passed:
                    return False, (
                        f"power transform residual {rep.rel_residual():.2e} at "
                        f"r={r:.4g}, alpha={alpha}, profile {type(prof).__name__}"
                    )
    passed = rel <= 1e-8 and worst_bubble <= 1e-8 and worst_pt <= 1e-8
    return passed, (
        f"r_blow={outcome.r_event:.6g} vs oracle {r_blow_oracle:.6g} (rel {rel:.1e}); "
        f"5 plus bubbles max |r_blow mu - 1| = {worst_bubble:.1e}; "
        f"power-transform worst rel residual {worst_pt:.2e}"
    )


def _c12_scaling_covariance():
    rng = _stream(5)
    worst = 0.0
    tags = []
    for kind in ("supercritical", "subcritical"):
        for _ in range(5):
            n = rng.randrange(3, 6)
            p = rng.uniform(1.6, 2.6)
            gamma = rng.uniform(0.0, 1.5)
            base = ProblemParams(n, p, p, gamma)
            qe = equation_critical(base)
            if kind == "supercritical":
                q = qe * rng.uniform(1.1, 1.6)
            else:
                q = (p - 1.0) + (qe - (p - 1.0)) * rng.uniform(0.55, 0.9)
            pr = base.replace(q=q)
            u0 = rng.uniform(0.5, 2.0)
            spec = shooting.IvpSpec(params=pr, u0=u0, r_max=50.0)
            tag = f"{kind} (N={n},p={p:.3g},q={q:.3g})"
            try:
                rep = shooting.scaling_covariance_report(spec)
            except PlapError as exc:
                tags.append(f"{tag}: {exc}")
                continue
            worst = max(worst, rep.residual)
            if not rep.passed:
                tags.append(f"{tag}: rel {rep.residual:.2e}")
    passed = not tags
    detail = f"10 draws (5 supercritical, 5 subcritical), worst rel error {worst:.2e}"
    if tags:
        detail += "; failures: " + "; ".join(tags)
    return passed, detail


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("exponent_exactness", _c01_exponent_exactness),
    ("counterexample_soundness", _c02_counterexample_soundness),
    ("pohozaev_coefficient_root", _c03_pohozaev_root),
    ("shooting_vs_exact_critical", _c04_shooting_oracle),
    ("subcritical_crossing", _c05_subcritical_crossing),
    ("pohozaev_residual", _c06_pohozaev_residual),
    ("hadamard_three_sphere", _c07_hadamard),
    ("comparison_principle", _c08_comparison),
    ("moser_recursion_grid", _c09_moser),
    ("fd_oracle_and_cutoff_bound", _c10_fd_oracle),
    ("plus_blowup_and_power_transform", _c11_blowup_power_transform),
    ("scaling_covariance", _c12_scaling_covariance),
]


def run_one(index: int) -> CriterionResult:
    """Run criterion `index` (1-based)."""
    name, fn = CRITERIA[index - 1]
    try:
        passed, detail = fn()
    except PlapError as exc:  # a failure that names its cause, as the CLI reports one
        passed, detail = False, str(exc)
    except Exception as exc:  # a crash is a failure, not a crash of the suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index=index, name=name, passed=passed, detail=detail)


def run_all(indices=None) -> list[CriterionResult]:
    picks = indices if indices is not None else range(1, len(CRITERIA) + 1)
    return [run_one(i) for i in picks]
