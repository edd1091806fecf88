"""Verify-board criteria 7, 8 and 10: barriers, three-sphere bounds and the
comparison principle, checked on closed-form profiles and annulus solves.

7. Hadamard's three-sphere bound: exact on fundamental solutions, monotone
   along shots, and below computed annulus supersolutions;
8. the comparison principle on seeded annuli, and three closed-form
   annulus solutions;
10. every barrier family against the finite-difference oracle, and the
    cutoff barrier's upper bound.

``verify`` lists them on its board.  Each draws its cases from the board's
one seed through ``verify._stream``, and criterion 7 reads the board's
shared critical shot ``verify._at_shot``; both are imported when a
criterion runs, not when this module loads, since ``verify`` imports this
module.  Criterion 10 calls ``radial_ops.fd_agreement`` through its
module, where the benchmark's tracer wraps it.
"""

from __future__ import annotations

import math

import numpy as np

from . import barriers, bvp, radial_ops, shooting
from .exponents import ProblemParams, lambda_exponent, serrin_critical
from .radial_ops import CutoffBarrier, LogBarrier, PowerBarrier, eval_profile


def _c07_hadamard():
    from .verify import _at_shot, _stream

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
    from .verify import _stream

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


def _c10_fd_oracle():
    from .verify import _stream

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
        rep = radial_ops.fd_agreement(profile, r, pr)
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
