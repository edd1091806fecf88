"""Self-verification suite: twelve acceptance checks covering exponents,
barriers, shooting, Pohozaev balance, Hadamard bounds, the comparison
principle, the recursion bound, and scaling covariance.

Oracles are independent of the code under test: closed forms evaluated by
hand-derived formulas, finite differences on profile values only, and (for
crossing/blow-up radii) a scipy DOP853 integration of the (u, u') system --
a different integrator on a different formulation of the same ODE.

``run_all`` returns one result per criterion; the cli ``verify`` subcommand
prints them one per line and exits 3 if any fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import barriers, bvp, identities, shooting
from .exponents import (
    ProblemParams,
    classify_regime,
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
    operator_scale,
    p_laplacian_fd,
    p_laplacian_radial,
    power_transform_residual,
)

_SEED = 20260814


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
    spec = shooting.IvpSpec(
        params=ProblemParams(3, 2.0, 5.0), u0=3.0 ** 0.25, r_max=r_max
    )
    return spec, shooting.integrate_ivp(spec)


@lru_cache(maxsize=None)
def _subcritical_shot(u0: float, r_max: float = 30.0):
    spec = shooting.IvpSpec(params=ProblemParams(3, 2.0, 3.0), u0=u0, r_max=r_max)
    return spec, shooting.integrate_ivp(spec)


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported on first call: scipy.integrate
    (with the scipy.linalg it loads) costs a cold start about 0.6 s on top of
    numpy (``-X importtime``, 2 cores) that only the oracle needs."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _oracle_p2_events(params: ProblemParams, u0: float, sgn: float, r_max: float,
                      threshold: float):
    """DOP853 on the (u, u') formulation (p = 2 only): independent oracle."""
    n, gamma, q, a = params.n_dim, params.gamma, params.q, params.amplitude
    s = 2.0 + gamma
    ku = a * u0 ** q / ((2.0 + gamma) * (n + gamma))
    delta0 = 1e-6 * min(1.0, r_max)
    y0 = [u0 + sgn * ku * delta0 ** s, sgn * ku * s * delta0 ** (s - 1.0)]

    def f(r, y):
        u, v = y
        return [v, -(n - 1.0) / r * v + sgn * a * r ** gamma * math.copysign(abs(u) ** q, u)]

    def ev_cross(r, y):
        return y[0]

    ev_cross.terminal = True
    ev_cross.direction = -1

    def ev_blow(r, y):
        return y[0] - threshold

    ev_blow.terminal = True
    ev_blow.direction = 1

    return solve_ivp(
        f, (delta0, r_max), y0, method="DOP853", rtol=1e-12, atol=1e-14,
        events=(ev_cross, ev_blow), dense_output=False,
    )


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
    rng = np.random.default_rng(_SEED)
    worst_random = math.inf
    worst_tag = ""
    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(1.05, min(4.0, n - 0.1)))
        gamma = float(rng.uniform(0.0, 5.0))
        base = ProblemParams(n, p, p, gamma, float(rng.uniform(0.5, 2.0)))
        q = serrin_critical(base) * (1.0 + float(rng.uniform(0.02, 2.0)))
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
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(1.05, min(6.0, n - 0.05)))
        gamma = float(rng.uniform(-p + 0.2, 4.0))
        base = ProblemParams(n, p, p, gamma)
        qe = equation_critical(base)
        k = pohozaev_coefficient(base.replace(q=qe))
        worst = max(worst, abs(k))
    return worst <= 1e-12, f"max |coefficient at q_E| over 100 draws = {worst:.2e}"


def _c04_shooting_oracle():
    spec, traj = _at_shot(100.0)
    r = np.geomspace(traj.r[0], 100.0, 200)
    u, _, _ = traj.sample(spec.params, r)
    rel = float(np.max(np.abs(u - _aubin_talenti_exact(r)) / _aubin_talenti_exact(r)))
    spec_far, traj_far = _at_shot(1e4)
    outcome = shooting.classify_outcome(traj_far, spec_far)
    passed = (
        rel <= 1e-6
        and outcome.kind is shooting.OutcomeKind.POSITIVE_DECAYING
        and traj_far.r_cross is None
    )
    return passed, (
        f"max rel error vs 3^(1/4)(1+r^2)^(-1/2) on [{traj.r[0]:.2g},100] = {rel:.2e}; "
        f"r_max=1e4 outcome {outcome.label} (tail slope {outcome.tail_slope:.4f})"
    )


def _c05_subcritical_crossing():
    details = []
    passed = True
    for u0 in (0.5, 1.0, 2.0):
        spec, traj = _subcritical_shot(u0)
        outcome = shooting.classify_outcome(traj, spec)
        sol = _oracle_p2_events(spec.params, u0, -1.0, spec.r_max, spec.blowup_threshold)
        r_oracle = float(sol.t_events[0][0])
        rel = abs(traj.r_cross - r_oracle) / r_oracle if traj.r_cross else math.inf
        ok = outcome.kind is shooting.OutcomeKind.CROSSES_ZERO and rel <= 1e-4
        passed &= ok
        details.append(f"u0={u0}: r_cross={traj.r_cross:.8g} vs oracle {r_oracle:.8g} (rel {rel:.1e})")
    return passed, "; ".join(details)


def _c06_pohozaev_residual():
    spec_at, traj_at = _at_shot(100.0)
    worst_crit = 0.0
    for r_eval in (1.0, 5.0, 50.0):
        rep = shooting.pohozaev_residual(traj_at, spec_at, r_eval, tol=1e-6)
        worst_crit = max(worst_crit, rep.rel_residual())
        if not rep.passed:
            return False, f"critical case fails at r={r_eval}: rel {rep.rel_residual():.2e}"
    worst_sub = 0.0
    spec_sub, traj_sub = _subcritical_shot(1.0)
    for r_eval in (1.0, 3.0, 6.0):
        rep = shooting.pohozaev_residual(traj_sub, spec_sub, r_eval, tol=1e-4)
        worst_sub = max(worst_sub, rep.rel_residual())
    base = ProblemParams(4, 2.5, 2.5, 0.5)
    q_near = equation_critical(base) * 0.98
    pr_deg = base.replace(q=q_near)
    spec_deg = shooting.IvpSpec(params=pr_deg, u0=1.0, r_max=10.0)
    rep_deg = shooting.pohozaev_residual(shooting.integrate_ivp(spec_deg), spec_deg, 0.5, tol=1e-4)
    worst_sub = max(worst_sub, rep_deg.rel_residual())

    # refinement: cap the step so discretization dominates, then halve the cap
    res_levels = []
    for h in (0.2, 0.1, 0.05):
        spec_h = shooting.IvpSpec(
            params=ProblemParams(3, 2.0, 3.0), u0=1.0, r_max=5.0,
            rtol=1.0, atol=1.0, max_step=h,
        )
        traj_h = shooting.integrate_ivp(spec_h)
        rep_h = shooting.pohozaev_residual(traj_h, spec_h, 3.0, tol=1.0)
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

    # (b) monotonicity of m(r) r^{-lam} along global supersolutions
    spec_at, traj_at = _at_shot(100.0)
    mask = traj_at.r >= 0.05
    rep_at = barriers.hadamard_monotonicity_check(
        np.column_stack([traj_at.r[mask], traj_at.u[mask]]), lam=-1.0
    )
    spec_sup = shooting.IvpSpec(params=ProblemParams(3, 2.0, 6.0), u0=1.0, r_max=100.0)
    traj_sup = shooting.integrate_ivp(spec_sup)
    mask2 = traj_sup.r >= 0.05
    rep_sup = barriers.hadamard_monotonicity_check(
        np.column_stack([traj_sup.r[mask2], traj_sup.u[mask2]]), lam=-1.0
    )

    # (c) bound below BVP supersolution minima on random annuli
    rng = np.random.default_rng(_SEED + 2)
    worst_margin = math.inf
    for draw in range(10):
        if draw < 2:
            n = int(rng.integers(2, 4))
            p = float(n)
        else:
            n = int(rng.integers(2, 7))
            p = float(rng.uniform(1.4, 3.5))
            while abs(p - n) < 0.1:
                p = float(rng.uniform(1.4, 3.5))
        pr = ProblemParams(n, p, max(p, 2.0))
        r1 = float(rng.uniform(0.5, 2.0))
        r2 = r1 * float(rng.uniform(1.8, 4.0))
        b1, b2 = float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0))
        amp = float(rng.uniform(0.05, 1.0))
        prob = bvp.AnnulusProblem(
            params=pr, r_inner=r1, r_outer=r2, boundary_inner=b1, boundary_outer=b2,
            rhs=lambda rr, A=amp: A * (1.0 + math.sin(3.0 * rr) ** 2), mesh_size=256,
        )
        sol = bvp.solve_annulus_dirichlet(prob)
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
    rng = np.random.default_rng(_SEED + 3)
    worst = math.inf
    for _ in range(20):
        n = int(rng.integers(2, 7))
        p = float(rng.uniform(1.3, 4.0))
        if abs(p - n) < 0.15:
            p = float(n)
        pr = ProblemParams(n, p, max(p, 2.0))
        r1 = float(rng.uniform(0.6, 1.5))
        r2 = r1 * float(rng.uniform(1.6, 3.5))
        c2 = float(rng.uniform(0.3, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        c1 = float(rng.uniform(-1.0, 1.0))
        phi = PowerBarrier.fundamental(pr, c2=c2, c1=c1)
        lift1, lift2 = float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))
        amp = float(rng.uniform(0.0, 1.5))
        om = float(rng.uniform(0.5, 4.0))
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
        sol = bvp.solve_annulus_dirichlet(prob)
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


def _fd_rel(closed: float, spec, r: float, params: ProblemParams) -> tuple[float, float]:
    """(closed-form vs FD, closed-form vs radial-form) relative residuals.

    Both use the pre-cancellation magnitude of the operator's two terms as
    scale, like fd_agreement: near points where Delta_p vanishes the bare
    values cancel and a naive relative denominator would be meaningless.
    """
    pt = eval_profile(spec, r)
    radial = p_laplacian_radial(pt, params)
    parts = operator_scale(pt, params)
    fd = p_laplacian_fd(spec, r, params)
    scale = max(abs(closed), abs(fd), parts, 1e-300)
    return abs(closed - fd) / scale, abs(closed - radial) / max(abs(closed), abs(radial), parts, 1e-300)


def _c10_fd_oracle():
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    worst_alg = 0.0
    count = 0

    # fundamental (r^lam, and log r at N = p)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        if rng.random() < 0.2:
            p = float(n)
        else:
            p = float(rng.uniform(1.4, 3.5))
            while p >= n:
                p = float(rng.uniform(1.4, 3.5))
        pr = ProblemParams(n, p, max(p, 2.0))
        phi = PowerBarrier.fundamental(pr, c2=float(rng.uniform(0.5, 2.0)),
                                       c1=float(rng.uniform(0.0, 1.0)))
        r = float(np.exp(rng.uniform(np.log(0.4), np.log(20.0))))
        rep = fd_agreement(phi, r, pr)
        worst = max(worst, rep.rel_residual())
        count += 1
        if not rep.passed:
            return False, f"fundamental fd mismatch at r={r:.4g} (N={n}, p={p}): rel {rep.rel_residual():.2e}"

    # cutoff: conforming (k, p, N) instances.  Near r1 the operator vanishes
    # like s^{k(p-1)-1} while the profile value stays O(1), so the FD
    # difference loses all its signal there; sample clear of that corner.
    cut_cases = [(3, 2.0, 3), (3, 2.0, 5), (4, 2.0, 5), (3, 1.5, 2)]
    for _ in range(25):
        k, p, n = cut_cases[int(rng.integers(0, len(cut_cases)))]
        r1 = float(rng.uniform(0.5, 2.0))
        spec = CutoffBarrier(m1=float(rng.uniform(0.5, 2.0)), r1=r1, r_big=2.0 * r1, k=k)
        pr = ProblemParams(n, p, max(p, 2.0))
        r = float(rng.uniform(1.3 * r1, 1.98 * r1))
        rel, alg = _fd_rel(-barriers.cutoff_barrier_plap(spec, pr, r), spec, r, pr)
        worst, worst_alg = max(worst, rel), max(worst_alg, alg)
        count += 1
        if rel > 1e-6:
            return False, f"cutoff fd mismatch at r={r:.4g} (k={k},p={p},N={n}): rel {rel:.2e}"

    # log-corrected barrier, radii clear of the gradient-degenerate point
    log_cases = [(2.0, 3, 1.0), (3.0, 4, 0.4), (1.7, 3, 1.0)]
    for _ in range(25):
        p, n, beta = log_cases[int(rng.integers(0, len(log_cases)))]
        pr = ProblemParams(n, p, max(p, 2.0))
        lb = LogBarrier.for_params(pr, gamma1=float(rng.uniform(0.05, 1.0)),
                                   gamma2=float(rng.uniform(0.0, 0.5)), beta=beta)
        r_star = math.exp(beta * (p - 1.0) / (n - p))
        r = float(np.exp(rng.uniform(np.log(1.5), np.log(50.0))))
        while abs(r - r_star) < 0.05 * r_star:
            r = float(np.exp(rng.uniform(np.log(1.5), np.log(50.0))))
        rel, alg = _fd_rel(barriers.log_barrier_plap(lb, pr, r), lb, r, pr)
        worst, worst_alg = max(worst, rel), max(worst_alg, alg)
        count += 1
        if rel > 1e-6:
            return False, f"log-barrier fd mismatch at r={r:.4g} (p={p},N={n},beta={beta}): rel {rel:.2e}"

    # counterexample profile
    for _ in range(25):
        n = int(rng.integers(2, 8))
        p = float(rng.uniform(1.2, min(3.5, n - 0.1)))
        gamma = float(rng.uniform(0.0, 3.0))
        base = ProblemParams(n, p, p, gamma)
        q = serrin_critical(base) * (1.0 + float(rng.uniform(0.05, 1.5)))
        pr = base.replace(q=q)
        cx = barriers.build_counterexample(pr)
        r = float(np.exp(rng.uniform(np.log(0.01), np.log(1e3))))
        rel, alg = _fd_rel(barriers.counterexample_plap(cx, pr, r), cx, r, pr)
        worst, worst_alg = max(worst, rel), max(worst_alg, alg)
        count += 1
        if rel > 1e-6:
            return False, f"counterexample fd mismatch at r={r:.4g} ({pr}): rel {rel:.2e}"

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
    passed = worst <= 1e-6 and worst_alg <= 1e-12 and bound_ok
    return passed, (
        f"{count} fd points, worst rel {worst:.2e} (product vs radial form {worst_alg:.2e}); "
        f"cutoff bound respected on all conforming instances "
        f"(extremal case gap {extremal_gap:.2e})"
    )


def _c11_blowup_power_transform():
    pr = ProblemParams(3, 2.0, 3.0)
    spec = shooting.IvpSpec(params=pr, u0=1.0, sign=shooting.EquationSign.PLUS, r_max=100.0)
    traj = shooting.integrate_ivp(spec)
    outcome = shooting.classify_outcome(traj, spec)
    sol = _oracle_p2_events(pr, 1.0, +1.0, 100.0, spec.blowup_threshold)
    r_blow_oracle = float(sol.t_events[1][0])
    rel = (
        abs(outcome.r_blow - r_blow_oracle) / r_blow_oracle
        if outcome.kind is shooting.OutcomeKind.BLOWS_UP
        else math.inf
    )

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
    passed = rel <= 1e-3 and worst_pt <= 1e-8
    return passed, (
        f"r_blow={outcome.r_blow:.6g} vs oracle {r_blow_oracle:.6g} (rel {rel:.1e}); "
        f"power-transform worst rel residual {worst_pt:.2e}"
    )


def _c12_scaling_covariance():
    rng = np.random.default_rng(_SEED + 5)
    worst = 0.0
    tags = []
    for kind in ("supercritical", "subcritical"):
        for _ in range(5):
            n = int(rng.integers(3, 6))
            p = float(rng.uniform(1.6, 2.6))
            gamma = float(rng.uniform(0.0, 1.5))
            base = ProblemParams(n, p, p, gamma)
            qe = equation_critical(base)
            if kind == "supercritical":
                q = qe * float(rng.uniform(1.1, 1.6))
            else:
                q = (p - 1.0) + (qe - (p - 1.0)) * float(rng.uniform(0.55, 0.9))
            pr = base.replace(q=q)
            u0 = float(rng.uniform(0.5, 2.0))
            spec = shooting.IvpSpec(params=pr, u0=u0, r_max=50.0)
            rep = shooting.scaling_covariance_report(spec)
            worst = max(worst, rep.residual)
            if not rep.passed:
                tags.append(f"{kind} (N={n},p={p:.3g},q={q:.3g}): rel {rep.residual:.2e}")
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
    except Exception as exc:  # a crash is a failure, not a crash of the suite
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CriterionResult(index=index, name=name, passed=passed, detail=detail)


def run_all(indices=None) -> list[CriterionResult]:
    picks = indices if indices is not None else range(1, len(CRITERIA) + 1)
    return [run_one(i) for i in picks]
