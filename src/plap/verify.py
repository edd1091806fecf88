"""Self-verification suite: the twelve-criterion acceptance board, covering
exponents, barriers, shooting, Pohozaev balance, Hadamard bounds, the
comparison principle, the recursion bound, and scaling covariance.

Where the criteria live:

- here, the board (``CRITERIA``, ``run_one``, ``run_all``), its one seed
  ``_SEED`` and the shot criteria 4, 5, 6, 11 and 12, with the shots they
  share (``_at_shot``, ``_subcritical_shot``);
- ``criteria_exact``: the closed-form criteria 1, 2, 3 and 9;
- ``criteria_barriers``: the barrier, three-sphere and comparison criteria
  7, 8 and 10;
- ``taylor``: the Taylor-series oracle behind criteria 5 and 11.

Oracles are independent of the code under test: closed forms evaluated by
hand-derived formulas, finite differences on profile values only, and (for
crossing/blow-up radii) ``taylor.taylor_oracle``, an order-24 Taylor-series
integration of (u, |u'|^{p-2}u') in pure Python -- a different method on a
different formulation from the shooting code's Dormand-Prince pair on
(u, r^{N-1}|u'|^{p-2}u') in logs.  Its own check against scipy's DOP853 is in
the test suite; nothing here imports scipy.

Criteria 2, 3, 7, 8, 10, 11 and 12 draw seeded cases from ``_stream``, the
standard library's ``random.Random``, so the board loads no ``numpy.random``
and its cases do not move with the installed numpy.  Python keeps
``random()`` the same for an int seed across releases, and the test suite
pins the first draws.  The criteria modules read ``_stream`` when a
criterion runs, so setting ``_SEED`` moves every criterion's draws.

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

from . import barriers, shooting
from .criteria_barriers import _c07_hadamard, _c08_comparison, _c10_fd_oracle
from .criteria_exact import (
    _c01_exponent_exactness,
    _c02_counterexample_soundness,
    _c03_pohozaev_root,
    _c09_moser,
)
from .errors import PlapError
from .exponents import ProblemParams, equation_critical
from .radial_ops import (
    LogBarrier,
    PowerBarrier,
    fd_agreement,  # noqa: F401 -- the benchmark reads and probes verify.fd_agreement
    power_transform_residual,
)
from .taylor import _oracle_radius

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
# Criteria
# ---------------------------------------------------------------------------

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
