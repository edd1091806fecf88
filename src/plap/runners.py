"""The numerical subcommands of ``plap`` -- shoot, sweep, counterexample,
hadamard, pohozaev, bvp and verify: their flags, and the runners that
compute and emit their output.

``plap.cli`` imports this module only when it dispatches one of them, so
``classify``, ``--help`` and an unknown subcommand never compile it.  Each
runner imports the numerical modules it uses when it runs.
"""

from __future__ import annotations

import io
import math
import sys

from .cli import (
    _add_out_flag,
    _add_param_flags,
    _emit_json,
    _params_from,
    _Parser,
    _write,
)
from .exponents import (
    ProblemParams,
    classify_regime,
    lambda_exponent,
    pohozaev_coefficient,
    pohozaev_sign,
    serrin_critical,
)


_R_MAX_HELP = ("end of the final decade [r_max/10, r_max] of a minus shot with K >= 0; "
               "a shot with an event (plus, or minus with K < 0) runs to it, past r_max if need be")


def _add_shot_flags(p: _Parser):
    p.add_argument("--u0", type=float, required=True, help="shooting height u(0) > 0")
    p.add_argument("--sign", choices=("minus", "plus"), default="minus",
                   help="equation sign: minus for -Delta_p u = ..., plus for Delta_p u = ...")
    p.add_argument("--r-max", type=float, default=100.0, help=_R_MAX_HELP)
    p.add_argument("--rtol", type=float, default=1e-10,
                   help="tolerance of each step in log u and log|w|, so relative in u and w")


def _sign_from(args):
    from . import shooting
    return shooting.EquationSign.MINUS if args.sign == "minus" else shooting.EquationSign.PLUS


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _emit_csv(out: str | None, header, rows):
    import csv
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(x) for x in row] for row in rows)
    _write(out, buf.getvalue())


def _build_shoot(p: _Parser):
    _add_param_flags(p)
    _add_shot_flags(p)
    p.add_argument("--max-step", type=float, default=None,
                   help="cap on the step size, held up to the event")
    _add_out_flag(p)


def _run_shoot(args) -> int:
    from . import shooting
    traj = shooting.integrate_ivp(shooting.IvpSpec(
        params=_params_from(args), u0=args.u0, sign=_sign_from(args),
        r_max=args.r_max, rtol=args.rtol,
        max_step=args.max_step if args.max_step is not None else math.inf,
    ))
    outcome = shooting.classify_outcome(traj)
    _emit_csv(args.out, ("r", "u", "du", "w"),
              zip(traj.r.tolist(), traj.u.tolist(), traj.du().tolist(), traj.w.tolist()))
    parts = [f"outcome={outcome.kind.value}", f"status={traj.status}", f"nodes={len(traj.r)}"]
    if outcome.r_event is not None:
        parts.append(f"r_event={outcome.r_event!r}")
    if outcome.tail_slope is not None:
        parts.append(f"tail_slope={outcome.tail_slope!r}")
    parts.append(f"reason={outcome.reason}")
    print("  ".join(parts), file=sys.stderr)
    return 2 if traj.status == "step_collapse" else 0


def _build_sweep(p: _Parser):
    p.add_argument("--axis", choices=("q", "u0", "gamma"), required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, default=None,
                   help="base q (required unless --axis q)")
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--u0", type=float, default=1.0)
    p.add_argument("--sign", choices=("minus", "plus"), default="minus")
    p.add_argument("--r-max", type=float, default=1000.0, help=_R_MAX_HELP)
    _add_out_flag(p)


def _run_sweep(args) -> int:
    import numpy as np
    from . import shooting
    if args.q is None and args.axis != "q":
        raise ValueError("--q is required unless --axis q")
    if not args.from_ < args.to:
        raise ValueError(f"need from < to, got {args.from_} >= {args.to}")
    if args.steps < 2:
        raise ValueError(f"steps must be an integer >= 2, got {args.steps!r}")
    sign = _sign_from(args)
    values = [float(v) for v in np.linspace(args.from_, args.to, args.steps)]
    specs = []
    for v in values:
        # the axis value replaces its flag, which is therefore never validated
        point = {"q": args.q, "gamma": args.gamma, "u0": args.u0, args.axis: v}
        params = ProblemParams(n_dim=args.n, p=args.p, q=point["q"],
                               gamma=point["gamma"], amplitude=args.a)
        specs.append(shooting.IvpSpec(params=params, u0=point["u0"], sign=sign,
                                      r_max=args.r_max))
    outcomes = shooting.sweep_outcomes(specs)
    rows = []
    for v, ivp, outc in zip(values, specs, outcomes):
        boundary = pohozaev_sign(ivp.params) == 0
        rows.append((v, outc.kind.value, outc.r_event, outc.tail_slope, boundary))
    _emit_csv(args.out, ("axis_value", "outcome", "r_event", "tail_slope", "boundary_case"), rows)
    return 0


def _build_counterexample(p: _Parser):
    _add_param_flags(p)
    p.add_argument("--r-min", type=float, default=1e-3)
    p.add_argument("--r-max", type=float, default=1e6)
    p.add_argument("--points", type=int, default=2000)
    _add_out_flag(p)


def _run_counterexample(args) -> int:
    import numpy as np
    from . import barriers
    pr = _params_from(args)
    cx = barriers.build_counterexample(pr)
    r, res = barriers.counterexample_residual_grid(
        cx, pr, r_min=args.r_min, r_max=args.r_max, points=args.points)
    i_min = int(np.argmin(res))
    obj = {
        "epsilon": barriers.counterexample_epsilon(pr),
        "alpha": cx.alpha,
        "c": cx.c,
        "q_serrin": serrin_critical(pr),
        "profile": f"{cx.c!r} * (1 + r)^-{cx.alpha!r}",
        "grid": {
            "r_min": args.r_min, "r_max": args.r_max, "points": args.points,
            "min_residual": float(res[i_min]), "argmin_r": float(r[i_min]),
        },
        "residual_nonnegative": bool(np.all(res >= 0.0)),
    }
    _emit_json(args.out, obj)
    return 0


def _build_hadamard(p: _Parser):
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--m1", type=float, required=True)
    p.add_argument("--m2", type=float, required=True)
    p.add_argument("--lam", type=float, default=None,
                   help="interpolation exponent, 0 for log r (the N = p case); "
                        "derived from --n/--p when omitted")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--points", type=int, default=101)
    _add_out_flag(p)


def _run_hadamard(args) -> int:
    import numpy as np
    from . import barriers
    if args.lam is not None:
        lam = args.lam
    elif args.n is not None and args.p is not None:
        lam = lambda_exponent(ProblemParams(n_dim=args.n, p=args.p, q=max(args.p, 2.0)))
    else:
        raise ValueError("hadamard needs --lam or both --n and --p")
    inp = barriers.HadamardInput(args.r1, args.r2, args.m1, args.m2, lam=lam)
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    r = np.linspace(args.r1, args.r2, args.points)
    vals = barriers.hadamard_lower_bound(inp, r)
    _emit_csv(args.out, ("r", "lower_bound"), zip(r.tolist(), np.asarray(vals).tolist()))
    return 0


def _build_pohozaev(p: _Parser):
    _add_param_flags(p)
    _add_shot_flags(p)
    p.add_argument("--r-eval", type=float, required=True,
                   help="radius at which the balance is evaluated")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_out_flag(p)


def _run_pohozaev(args) -> int:
    if args.sign != "minus":
        raise ValueError("the balance identity holds for the minus sign only")
    from . import shooting
    spec = shooting.IvpSpec(
        params=_params_from(args), u0=args.u0, sign=shooting.EquationSign.MINUS,
        r_max=args.r_max, rtol=args.rtol,
    )
    traj = shooting.integrate_ivp(spec)
    rep = shooting.pohozaev_residual(traj, args.r_eval, tol=args.tol)
    obj = rep.as_dict()
    obj["coefficient"] = pohozaev_coefficient(spec.params)
    obj["q_equation"] = classify_regime(spec.params).q_equation
    _emit_json(args.out, obj)
    return 0


def _build_bvp(p: _Parser):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--r-inner", type=float, required=True)
    p.add_argument("--r-outer", type=float, required=True)
    p.add_argument("--b-inner", type=float, required=True, help="value at r_inner")
    p.add_argument("--b-outer", type=float, required=True, help="value at r_outer")
    p.add_argument("--f", type=float, default=0.0, help="constant right-hand side")
    p.add_argument("--mesh-size", type=int, default=256)
    _add_out_flag(p)


def _run_bvp(args) -> int:
    from . import bvp
    pr = ProblemParams(n_dim=args.n, p=args.p, q=max(args.p, 2.0))
    f = args.f
    prob = bvp.AnnulusProblem(
        params=pr, r_inner=args.r_inner, r_outer=args.r_outer,
        boundary_inner=args.b_inner, boundary_outer=args.b_outer,
        rhs=(lambda r: f) if f != 0.0 else None,
        mesh_size=args.mesh_size,
    )
    sol, info = bvp.solve_annulus_dirichlet_detailed(prob)
    _emit_csv(args.out, ("r", "u"), zip(sol.r.tolist(), sol.u.tolist()))
    print(
        f"newton iterations={info.iterations}  residual={info.residual!r}  "
        f"levels={info.levels_done}",
        file=sys.stderr,
    )
    return 0


def _build_verify(p: _Parser):
    p.add_argument("--only", type=str, default=None,
                   help="comma-separated criterion numbers (default: all)")
    _add_out_flag(p)


def _run_verify(args) -> int:
    from . import verify
    indices = None
    if args.only is not None:
        try:
            # dict.fromkeys drops repeated selectors and keeps first-seen order
            indices = list(dict.fromkeys(int(tok) for tok in args.only.split(",") if tok.strip()))
        except ValueError:
            raise ValueError(f"--only expects comma-separated integers, got {args.only!r}")
        if not indices:
            raise ValueError(f"--only selects no criteria: {args.only!r}")
        bad = [i for i in indices if not 1 <= i <= len(verify.CRITERIA)]
        if bad:
            raise ValueError(f"criterion numbers must be in 1..{len(verify.CRITERIA)}: {bad}")
    results = verify.run_all(indices)
    _write(args.out, "".join(res.line() + "\n" for res in results))
    n_fail = sum(1 for res in results if not res.passed)
    if n_fail:
        print(f"{n_fail} of {len(results)} checks failed", file=sys.stderr)
        return 3
    return 0


SUBCOMMANDS = {
    "shoot": (_build_shoot, _run_shoot),
    "sweep": (_build_sweep, _run_sweep),
    "counterexample": (_build_counterexample, _run_counterexample),
    "hadamard": (_build_hadamard, _run_hadamard),
    "pohozaev": (_build_pohozaev, _run_pohozaev),
    "bvp": (_build_bvp, _run_bvp),
    "verify": (_build_verify, _run_verify),
}
