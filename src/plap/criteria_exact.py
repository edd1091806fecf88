"""Verify-board criteria 1, 2, 3 and 9: closed-form statements checked
by hand-derived formulas.

1. the critical exponents q_S and q_E;
2. the supercritical counterexample's constants and residual sign;
3. the Pohozaev coefficient's root at q_E;
9. the Moser recursion bound on a grid.

``verify`` lists them on its board.  Criteria 2 and 3 draw their cases from
the board's one seed through ``verify._stream``, imported when a criterion
runs, not when this module loads, since ``verify`` imports this module.
"""

from __future__ import annotations

import math

import numpy as np

from . import barriers, identities
from .exponents import ProblemParams, equation_critical, pohozaev_coefficient, serrin_critical


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
    from .verify import _stream

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
    from .verify import _stream

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
