"""Command-line front end: parameter entry, sweeps, CSV/JSON emission, and
the self-verification suite.

Exit codes: 0 success (``--help`` included), 1 usage error (bad flags,
parameters outside the regime a subcommand needs, or an --out path that
cannot be written), 2 numerical failure (Newton divergence, step collapse,
overflow), 3 verification failure.  A usage error is a ValueError, or a
PlapError other than NewtonDivergence: the front end raises ValueError for
bad flags, argparse's complaints included, as the library does for bad
parameters, and ``dispatch`` prints the message and the usage text.  --out
is opened before anything is computed; a run that then exits 1 or 2 removes
the file if it created it.

Floats are serialized with ``repr`` (shortest round-trip decimals), so CSV
output is byte-identical across runs and reading a column back with
``float`` reproduces the values exactly.

Importing this module loads neither numpy nor the numerical modules; each
subcommand imports what it uses when it is dispatched, so ``classify``,
``--help`` and flag errors run on the standard library alone.  The flags and
runners of the other seven subcommands live in ``plap.runners``, which
``dispatch`` imports only for them, so ``classify``, ``--help`` and an
unknown subcommand never compile it.  The import
itself loads ``plap``, ``plap.errors``, ``plap.exponents``, ``argparse``
(with ``gettext``) and ``__future__``: no ``dataclasses`` (which pulls in
``inspect``, ``dis`` and ``ast``), and ``json`` only once a subcommand emits
JSON.  ``csv`` is never loaded: CSV rows are joined with commas, since no
field holds a comma, a quote or a newline.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import NewtonDivergence, PlapError
from .exponents import ProblemParams, classify_regime

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

class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1 + grammar.
    Its other exit, after printing --help, becomes a return of 0."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise ValueError(message)

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


def _add_out_flag(p: _Parser):
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--config", type=str, default=None,
                   help="key=value file of flag defaults; explicit flags override")


def _params_from(args) -> ProblemParams:
    return ProblemParams(
        n_dim=args.n, p=args.p, q=args.q, gamma=args.gamma, amplitude=args.a,
    )


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _open_out(out: str, mode: str):
    try:
        return open(out, mode, newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc.strerror or exc}")


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


def _emit_json(out: str | None, obj):
    import json
    _write(out, json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# classify (every other subcommand is in plap.runners)
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
    _emit_json(args.out, obj)
    return 0


# the subcommands of plap.runners, which dispatch imports only for these
_NUMERICAL = ("shoot", "sweep", "counterexample", "hadamard", "pohozaev", "bvp", "verify")


# ---------------------------------------------------------------------------
# Config splicing and dispatch
# ---------------------------------------------------------------------------

def _config_tokens(parser: _Parser, path: str) -> list[str]:
    """key=value lines -> flag tokens, spliced ahead of explicit flags."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}")
    known = parser._option_string_actions  # noqa: SLF001 - argparse has no public map
    out: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (tok.strip() for tok in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        action = known.get(flag)
        if action is None or action.dest in ("config", "help"):
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} for this subcommand")
        out.extend((flag, value))
    return out


def dispatch(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0 if argv else 1
    cmd = argv[0]
    if cmd == "classify":
        build, run = _build_classify, _run_classify
    elif cmd in _NUMERICAL:
        from . import runners
        build, run = runners.SUBCOMMANDS[cmd]
    else:
        print(f"unknown subcommand {cmd!r}\n\n{_USAGE}", file=sys.stderr, end="")
        return 1
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
