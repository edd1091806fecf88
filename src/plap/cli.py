"""Command-line front end: parameter entry, sweeps, CSV/JSON emission, and
the self-verification suite.

Exit codes: 0 success (``--help`` included), 1 usage error (bad flags,
parameters outside the regime a subcommand needs, or an --out path that
cannot be written), 2 numerical failure (Newton divergence, step collapse,
overflow), 3 verification failure.  --out is opened before anything is
computed; a run that then exits 1 or 2 removes the file if it created it.

Floats are serialized with ``repr`` (shortest round-trip decimals), so CSV
output is byte-identical across runs and reading a column back with
``float`` reproduces the values exactly.

Importing this module loads neither numpy nor the numerical modules; each
subcommand imports what it uses when it is dispatched, so ``classify``,
``--help`` and flag errors run on the standard library alone.  The import
itself loads ``plap``, ``plap.errors``, ``plap.exponents``, ``argparse``
(with ``gettext``) and ``__future__``: no ``dataclasses`` (which pulls in
``inspect``, ``dis`` and ``ast``), and ``json`` or ``csv`` only once a
subcommand emits output.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

from .errors import NewtonDivergence, PlapError
from .exponents import (
    ProblemParams,
    classify_regime,
    lambda_exponent,
    pohozaev_coefficient,
    pohozaev_sign,
    serrin_critical,
)

_USAGE = """plap <subcommand> [flags]

subcommands:
  classify        regime flags and critical exponents         (JSON)
  shoot           integrate one radial shot                   (CSV r,u,du,w)
  sweep           classify outcomes along a parameter axis    (CSV)
  counterexample  explicit supercritical counterexample       (JSON)
  hadamard        three-sphere lower bound on an annulus      (CSV r,lower_bound)
  pohozaev        radial Pohozaev balance for one shot        (JSON)
  bvp             annulus Dirichlet problem                   (CSV r,u)
  verify          run the acceptance suite                    (one line per check)

--n --p --q --gamma --a describe -Delta_p u = a r^gamma u^q (radial).
--config PATH loads key=value defaults; explicit flags override them.
--out PATH writes to a file instead of stdout.
`plap <subcommand> --help` lists the full flag set.
"""

_BOUNDARY_NOTE = "proof uses strict inequality"


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1 + grammar.
    Its other exit, after printing --help, becomes a return of 0."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageExit(message)

    def exit(self, status=0, message=None):  # noqa: D102 - argparse hook
        raise _HelpShown


# ---------------------------------------------------------------------------
# Flag groups
# ---------------------------------------------------------------------------

def _add_param_flags(p: _Parser):
    p.add_argument("--n", type=int, required=True, help="dimension N (integer >= 1)")
    p.add_argument("--p", type=float, required=True, help="p-Laplacian exponent, p > 1")
    p.add_argument("--q", type=float, required=True, help="nonlinearity power, q > p-1")
    p.add_argument("--gamma", type=float, default=0.0, help="weight exponent (default 0)")
    p.add_argument("--a", type=float, default=1.0, help="amplitude a > 0 (default 1)")


def _add_shot_flags(p: _Parser):
    p.add_argument("--u0", type=float, required=True, help="shooting height u(0) > 0")
    p.add_argument("--sign", choices=("minus", "plus"), default="minus",
                   help="equation sign: minus for -Delta_p u = ..., plus for Delta_p u = ...")
    p.add_argument("--r-max", type=float, default=100.0, help="integration endpoint")
    p.add_argument("--rtol", type=float, default=1e-10)
    p.add_argument("--atol", type=float, default=1e-12)


def _add_out_flag(p: _Parser):
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file of flag defaults; explicit flags override")


def _params_from(args) -> ProblemParams:
    return ProblemParams(
        n_dim=args.n, p=args.p, q=args.q, gamma=args.gamma, amplitude=args.a,
    )


def _sign_from(args):
    from . import shooting
    return shooting.EquationSign.MINUS if args.sign == "minus" else shooting.EquationSign.PLUS


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if x is None:
        return ""
    return str(x)


def _open_out(out: str, mode: str):
    try:
        return open(out, mode, newline="")
    except OSError as exc:
        raise _UsageExit(f"cannot write {out!r}: {exc.strerror or exc}")


def _claim_out(out: str | None) -> bool:
    """Check that --out can be written before anything is computed; True if
    this created the file (empty), so a failed run can remove it again."""
    if not out:
        return False
    existed = os.path.exists(out)
    _open_out(out, "a").close()
    return not existed


def _write(out: str | None, text: str):
    if not out:
        sys.stdout.write(text)
        return
    with _open_out(out, "w") as fh:
        fh.write(text)


def _emit_csv(out: str | None, header, rows):
    import csv
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(x) for x in row] for row in rows)
    _write(out, buf.getvalue())


def _emit_json(out: str | None, obj):
    import json
    _write(out, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _build_classify(p: _Parser):
    _add_param_flags(p)
    _add_out_flag(p)


def _run_classify(args) -> int:
    pr = _params_from(args)
    reg = classify_regime(pr)
    obj = {
        "n": pr.n_dim, "p": pr.p, "q": pr.q, "gamma": pr.gamma, "a": pr.amplitude,
        "lambda": reg.lam,
        "q_serrin": reg.q_serrin,
        "q_equation": reg.q_equation,
        "low_dimension": reg.low_dimension,
        "inequality_nonexistence": reg.inequality_nonexistence,
        "counterexample_exists": reg.counterexample_exists,
        "equation_radial_nonexistence": reg.equation_radial_nonexistence,
    }
    if pohozaev_sign(pr) == 0:
        obj["boundary"] = _BOUNDARY_NOTE
    _emit_json(args.out, obj)
    return 0


def _build_shoot(p: _Parser):
    _add_param_flags(p)
    _add_shot_flags(p)
    p.add_argument("--max-step", type=float, default=None, help="cap on the step size")
    _add_out_flag(p)


def _run_shoot(args) -> int:
    from . import shooting
    spec = shooting.IvpSpec(
        params=_params_from(args), u0=args.u0, sign=_sign_from(args),
        r_max=args.r_max, rtol=args.rtol, atol=args.atol,
        max_step=args.max_step if args.max_step is not None else math.inf,
    )
    traj = shooting.integrate_ivp(spec)
    outcome = shooting.classify_outcome(traj, spec)
    du = traj.du(spec.params)
    _emit_csv(args.out, ("r", "u", "du", "w"),
              zip(traj.r.tolist(), traj.u.tolist(), du.tolist(), traj.w.tolist()))
    parts = [f"outcome={outcome.label}", f"status={traj.status}", f"nodes={len(traj.r)}"]
    if outcome.r_event is not None:
        parts.append(f"r_event={outcome.r_event!r}")
    if outcome.tail_slope is not None:
        parts.append(f"tail_slope={outcome.tail_slope!r}")
    parts.append(f"reason={outcome.reason}")
    print("  ".join(parts), file=sys.stderr)
    if traj.step_collapsed and outcome.kind is shooting.OutcomeKind.INDETERMINATE:
        return 2
    return 0


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
    p.add_argument("--r-max", type=float, default=1000.0)
    _add_out_flag(p)


def _run_sweep(args) -> int:
    import numpy as np
    from . import shooting
    if args.q is None:
        if args.axis != "q":
            raise _UsageExit("--q is required unless --axis q")
        base_q = max(args.from_, args.p)  # placeholder; replaced per point
    else:
        base_q = args.q
    base = ProblemParams(n_dim=args.n, p=args.p, q=base_q,
                         gamma=args.gamma, amplitude=args.a)
    if not args.from_ < args.to:
        raise _UsageExit(f"need from < to, got {args.from_} >= {args.to}")
    if args.steps < 2:
        raise _UsageExit(f"steps must be an integer >= 2, got {args.steps!r}")
    sign = _sign_from(args)
    values = [float(v) for v in np.linspace(args.from_, args.to, args.steps)]
    specs = []
    for v in values:
        params, u0 = base, args.u0
        if args.axis == "q":
            params = base.replace(q=v)
        elif args.axis == "gamma":
            params = base.replace(gamma=v)
        else:
            u0 = v
        specs.append(shooting.IvpSpec(params=params, u0=u0, sign=sign, r_max=args.r_max))
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
        raise _UsageExit("hadamard needs --lam or both --n and --p")
    inp = barriers.HadamardInput(args.r1, args.r2, args.m1, args.m2, lam=lam)
    if args.points < 2:
        raise _UsageExit("--points must be >= 2")
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
        raise _UsageExit("the balance identity holds for the minus sign only")
    from . import shooting
    spec = shooting.IvpSpec(
        params=_params_from(args), u0=args.u0, sign=shooting.EquationSign.MINUS,
        r_max=args.r_max, rtol=args.rtol, atol=args.atol,
    )
    traj = shooting.integrate_ivp(spec)
    rep = shooting.pohozaev_residual(traj, spec, args.r_eval, tol=args.tol)
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
        f"flux_eps={info.flux_eps!r}  levels={info.levels_done}",
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
            raise _UsageExit(f"--only expects comma-separated integers, got {args.only!r}")
        if not indices:
            raise _UsageExit(f"--only selects no criteria: {args.only!r}")
        bad = [i for i in indices if not 1 <= i <= len(verify.CRITERIA)]
        if bad:
            raise _UsageExit(f"criterion numbers must be in 1..{len(verify.CRITERIA)}: {bad}")
    results = verify.run_all(indices)
    _write(args.out, "".join(res.line() + "\n" for res in results))
    n_fail = sum(1 for res in results if not res.passed)
    if n_fail:
        print(f"{n_fail} of {len(results)} checks failed", file=sys.stderr)
        return 3
    return 0


_SUBCOMMANDS = {
    "classify": (_build_classify, _run_classify),
    "shoot": (_build_shoot, _run_shoot),
    "sweep": (_build_sweep, _run_sweep),
    "counterexample": (_build_counterexample, _run_counterexample),
    "hadamard": (_build_hadamard, _run_hadamard),
    "pohozaev": (_build_pohozaev, _run_pohozaev),
    "bvp": (_build_bvp, _run_bvp),
    "verify": (_build_verify, _run_verify),
}


# ---------------------------------------------------------------------------
# Config splicing and dispatch
# ---------------------------------------------------------------------------

def _config_tokens(parser: _Parser, path: str) -> list[str]:
    """key=value lines -> flag tokens, spliced ahead of explicit flags."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageExit(f"cannot read config {path!r}: {exc}")
    known = parser._option_string_actions  # noqa: SLF001 - argparse has no public map
    out: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageExit(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = known.get(flag)
        if action is None or action.dest in ("config", "help"):
            raise _UsageExit(f"{path}:{lineno}: unknown key {key!r} for this subcommand")
        out.extend((flag, value))
    return out


def dispatch(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0 if argv else 1
    cmd = argv[0]
    if cmd not in _SUBCOMMANDS:
        print(f"unknown subcommand {cmd!r}\n\n{_USAGE}", file=sys.stderr, end="")
        return 1
    build, run = _SUBCOMMANDS[cmd]
    parser = _Parser(prog=f"plap {cmd}", add_help=True)
    build(parser)
    created = False
    try:
        # argparse finds --config (or a unique prefix of it) wherever it sits,
        # so the file's values go ahead of every explicit flag
        pre = _Parser(prog=f"plap {cmd}", add_help=False)
        pre.add_argument("--config")
        known, tokens = pre.parse_known_args(argv[1:])
        if known.config is not None:
            tokens = _config_tokens(parser, known.config) + tokens
        args = parser.parse_args(tokens)
        created = _claim_out(args.out)
        return run(args)
    except _HelpShown:
        return 0
    except _UsageExit as exc:
        message, code = f"plap {cmd}: {exc}\n\n{_USAGE}", 1
    except (NewtonDivergence, OverflowError) as exc:
        message, code = f"plap {cmd}: numerical failure: {exc}\n", 2
    except (PlapError, ValueError) as exc:
        message, code = f"plap {cmd}: {exc}\n\n{_USAGE}", 1
    if created:
        os.remove(args.out)
    sys.stderr.write(message)
    return code


def main(argv: list[str] | None = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
