"""The start-up contract: what each entry point imports.

``import plap`` and ``import plap.cli`` load neither numpy nor the numerical
modules; the package resolves its exported names on first access, and each
subcommand imports what it uses when it is dispatched.  Nor do they load
``dataclasses`` (with ``inspect``), ``json`` or ``csv``: ``import plap.cli``
adds seven modules to the interpreter's start-up set.  No module imports
scipy, so every subcommand, ``verify`` included, runs without it.  The
annulus solver's Newton systems go through plap's own ``bvp.solve_banded``
and the crossing and blow-up oracles through ``verify.taylor_oracle``; the
benchmark's tracer wraps ``bvp.solve_banded``, so both names are pinned here.
Shooting and the annulus solver load no ``numpy.polynomial`` and name no
LAPACK routine.  The verify board draws its seeded cases from the standard
library's ``random.Random``, so on numpy 2.x, where ``import numpy`` leaves
``numpy.random`` unloaded, the whole board loads none of it."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import plap
from plap import AnnulusProblem, ProblemParams, bvp, solve_annulus_dirichlet_detailed, verify

SRC = Path(__file__).resolve().parents[1] / "src"

CLASSIFY = ["classify", "--n", "3", "--p", "2", "--q", "4"]
SHOOT = ["shoot", "--n", "3", "--p", "2", "--q", "3", "--u0", "1"]
SWEEP = ["sweep", "--axis", "q", "--from", "2", "--to", "6", "--steps", "3",
         "--n", "3", "--p", "2", "--u0", "1"]
BVP = ["bvp", "--n", "3", "--p", "3", "--r-inner", "1", "--r-outer", "3",
       "--b-inner", "1", "--b-outer", "0.2", "--f", "0.5"]
NUMERICAL_MODULES = [f"plap.{m}" for m in (
    "barriers", "bvp", "identities", "radial_ops", "rk45", "shooting", "verify")]

NO_SCIPY_COMMANDS = [
    ["classify", "--n", "3", "--p", "2", "--gamma", "0", "--q", "4"],
    SHOOT,
    SWEEP,
    ["counterexample", "--n", "3", "--p", "2", "--q", "4"],
    ["hadamard", "--r1", "1", "--r2", "4", "--m1", "1", "--m2", "0.5", "--n", "3", "--p", "2"],
    ["pohozaev", "--n", "3", "--p", "2", "--q", "4", "--u0", "1", "--r-eval", "3"],
    BVP,
    ["verify", "--only", "5,11"],  # the criteria that run the Taylor oracle
]

# Runs in a fresh interpreter: after each step, record every module loaded
# beyond the interpreter's start-up set.  The probe itself imports nothing
# that start-up has not loaded: the commands arrive as a repr, read by eval,
# and stdout is swapped by hand.
_CHILD = """
import sys
bare = set(sys.modules)
import io
steps = []
def record(step, code=0):
    steps.append((step, code, sorted(set(sys.modules) - bare)))
import plap
record("import plap")
from plap import cli
record("import plap.cli")
for argv in eval(sys.argv[1]):
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout
    record(argv[0], code)
print(repr(steps))
"""


def fresh_python(code, *args):
    """The literal that a fresh interpreter running ``code`` prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def run_fresh(commands):
    """[(step, exit code, modules loaded beyond start-up)] from a fresh interpreter."""
    return fresh_python(_CHILD, repr(commands))


def added_by(statement):
    """Modules a fresh interpreter loads for ``statement`` beyond its start-up set."""
    return fresh_python(
        f"import sys\nbare = set(sys.modules)\n{statement}\nprint(sorted(set(sys.modules) - bare))")


def added_after_numpy(statements):
    """Modules a fresh interpreter loads for ``statements`` after ``import numpy``."""
    return fresh_python(
        "import contextlib, io, sys\n"
        "import numpy\n"
        "bare = set(sys.modules)\n"
        f"{statements}\n"
        "print(sorted(set(sys.modules) - bare))")


def of(package, loaded):
    return [m for m in loaded if m.split(".")[0] == package]


# What ``import plap.cli`` adds to an interpreter whose start-up has already
# loaded the standard library the light path imports itself.
CLI_IMPORT = ["__future__", "argparse", "gettext",
              "plap", "plap.cli", "plap.errors", "plap.exponents"]
HEAVY_STDLIB = ["csv", "dataclasses", "inspect", "json"]


class TestStartup:
    def test_import_classify_and_help_load_no_numpy(self):
        steps = run_fresh([CLASSIFY, ["--help"]])
        assert [s[0] for s in steps] == ["import plap", "import plap.cli", "classify", "--help"]
        for step, code, loaded in steps:
            assert code == 0, step
            assert of("numpy", loaded) == [], step
            assert not set(NUMERICAL_MODULES) & set(loaded), f"{step} loaded {loaded}"
            assert "plap.runners" not in loaded, step

    def test_import_cli_adds_seven_modules(self):
        # Where start-up has not loaded re (which argparse needs), collections
        # or math, they load here too; subtract them, measured, not listed.
        floor = set(added_by("import argparse, collections, math")) - {"argparse", "gettext"}
        assert sorted(set(added_by("import plap.cli")) - floor) == CLI_IMPORT

    def test_help_loads_no_dataclasses_inspect_json_or_csv(self):
        steps = run_fresh([["--help"], ["classify", "--help"], CLASSIFY])
        for step, code, loaded in steps[:4]:
            assert code == 0, step
            assert not set(HEAVY_STDLIB) & set(loaded), f"{step} loaded {loaded}"
        # classify emits JSON, so json loads then, and nothing else of these.
        (step, code, loaded) = steps[4]
        assert code == 0, step
        assert set(HEAVY_STDLIB) & set(loaded) == {"json"}

    def test_shoot_loads_only_the_shooting_stack(self):
        (_, _, _), (_, _, _), (step, code, loaded) = run_fresh([SHOOT])
        assert code == 0, step
        # Positive control: the probe sees numpy and shooting once they load.
        assert "numpy" in loaded and "plap.shooting" in loaded and "plap.runners" in loaded
        assert "dataclasses" in loaded and "csv" in loaded
        for module in ("plap.bvp", "plap.identities", "plap.verify"):
            assert module not in loaded

    def test_import_and_light_subcommands_never_load_scipy(self):
        steps = run_fresh(NO_SCIPY_COMMANDS)
        assert [s[0] for s in steps] == ["import plap", "import plap.cli"] + [
            argv[0] for argv in NO_SCIPY_COMMANDS
        ]
        for step, code, loaded in steps:
            assert code == 0, step
            assert of("scipy", loaded) == [], f"{step} loaded {of('scipy', loaded)}"

    @pytest.mark.parametrize(
        "argv,module", [(["verify", "--only", "5"], "plap.verify")], ids=["verify-5"]
    )
    def test_probe_sees_what_a_command_loads(self, argv, module):
        # Positive control: the probe above sees a module once a command loads it.
        (_, _, _), (_, _, at_cli), (step, code, loaded) = run_fresh([argv])
        assert module not in at_cli
        assert code == 0, step
        assert module in loaded
        assert of("scipy", loaded) == []

    def test_no_module_imports_scipy(self):
        # Every import statement in src/plap, function bodies included.
        importers = set()
        for path in sorted((SRC / "plap").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(n == "scipy" or n.startswith("scipy.") for n in names):
                    importers.add(path.name)
        assert importers == set()

    def test_no_module_names_a_lapack_routine(self):
        # numpy.polynomial and the numpy.linalg factorisations run LAPACK,
        # whose first call touches ~1 MB of pages.
        lapack = re.compile(r"^(polyfit|polynomial|lstsq|eig\w*|svd|inv)$")
        users = set()
        for path in sorted((SRC / "plap").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    dotted = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                    names = [part for name in dotted for part in name.split(".")]
                else:
                    continue
                if any(lapack.match(n) for n in names):
                    users.add(path.name)
        assert users == set()

    def test_shooting_and_bvp_load_no_numpy_polynomial(self):
        # After import numpy, which loads numpy.polynomial itself on numpy 1.x.
        loaded = added_after_numpy(
            "from plap import cli\n"
            f"for argv in {[SHOOT, SWEEP, BVP]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv")
        assert "plap.shooting" in loaded and "plap.bvp" in loaded
        assert [m for m in loaded if m.startswith("numpy.polynomial")] == []

    def test_verify_board_loads_no_numpy_random(self):
        if "numpy.random" in added_by("import numpy"):
            pytest.skip("import numpy loads numpy.random itself (numpy 1.x)")
        loaded = added_after_numpy(
            "from plap import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify']) == 3")
        assert "plap.verify" in loaded
        assert [m for m in loaded if m.startswith("numpy.random")] == []
        # Positive control: the probe sees numpy.random once default_rng runs.
        assert "numpy.random" in added_after_numpy("numpy.random.default_rng(0)")

    def test_no_module_refers_to_numpy_random(self):
        users = set()
        for path in sorted((SRC / "plap").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Attribute) and node.attr == "random":
                    named = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                elif isinstance(node, ast.Import):
                    named = any(a.name.startswith("numpy.random") for a in node.names)
                elif isinstance(node, ast.ImportFrom):
                    named = (node.module or "").startswith("numpy.random") or (
                        node.module == "numpy" and any(a.name == "random" for a in node.names))
                else:
                    continue
                if named:
                    users.add(path.name)
        assert users == set()


def counting(monkeypatch, owner, name):
    """Replace owner.name by a delegate that counts its calls."""
    original = getattr(owner, name)
    calls = []

    def delegate(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, delegate)
    return calls


class TestTracedEntryPoints:
    """The annulus solve goes through plap's own ``bvp.solve_banded``, the
    crossing and blow-up oracle through ``verify.taylor_oracle``."""

    def test_annulus_solve_goes_through_bvp_solve_banded(self, monkeypatch):
        prob = AnnulusProblem(ProblemParams(3, 3.0, 3.0), 1.0, 3.0, 1.0, 0.2,
                              rhs=lambda r: 0.5)
        ref, ref_info = solve_annulus_dirichlet_detailed(prob)
        calls = counting(monkeypatch, bvp, "solve_banded")
        prof, info = solve_annulus_dirichlet_detailed(prob)
        assert len(calls) >= 1
        assert info == ref_info
        np.testing.assert_array_equal(prof.u, ref.u)

    def test_oracle_goes_through_verify_taylor_oracle(self, monkeypatch):
        ref = verify.run_one(5)
        calls = counting(monkeypatch, verify, "taylor_oracle")
        res = verify.run_one(5)
        assert len(calls) == 3  # one per crossing shot
        assert res == ref
        assert res.passed


# The package's public names, pinned: resolving them on first access must not
# change the set.
EXPORTED = [
    "AnnulusProblem", "Counterexample", "CutoffBarrier",
    "EquationSign", "EvalPoint", "GridProfile", "HadamardInput",
    "IdentityReport", "IvpSpec", "LogBarrier", "NewtonDivergence", "NewtonInfo",
    "Outcome", "OutcomeKind", "PlapError", "PowerBarrier", "ProblemParams",
    "RecursionSpec", "Regime", "SingularGradient",
    "Trajectory", "barriers", "build_counterexample", "bvp",
    "classify_outcome", "classify_regime", "comparison_check",
    "counterexample_epsilon", "counterexample_plap", "counterexample_residual", "counterexample_residual_grid",
    "cutoff_barrier_plap", "cutoff_plap_bound",
    "equation_critical", "errors", "eval_profile", "exponents",
    "extremal_log_sequence", "fd_agreement", "hadamard_lower_bound",
    "hadamard_monotonicity_check", "identities", "integrate_ivp", "lambda_exponent",
    "log_barrier_plap", "moser_recursion_bound", "p_laplacian_fd", "p_laplacian_radial",
    "pohozaev_coefficient", "pohozaev_residual", "power_transform_residual",
    "radial_ops", "recursion_bound_report", "reports", "rescaled_spec", "rk45",
    "scaling_covariance_report", "scaling_exponent", "serrin_critical", "shooting",
    "solve_annulus_dirichlet_detailed", "sweep_outcomes",
]


class TestLazyPackage:
    def test_all_is_the_exported_set(self):
        assert len(EXPORTED) == 62
        assert sorted(plap.__all__) == EXPORTED
        assert set(EXPORTED) <= set(dir(plap))

    def test_names_resolve_to_their_defining_objects(self):
        for name in plap.__all__:
            obj = getattr(plap, name)
            if isinstance(obj, types.ModuleType):
                assert obj is sys.modules[f"plap.{name}"]
            else:
                assert obj.__module__.startswith("plap."), name
                assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_star_import(self):
        ns = {}
        exec("from plap import *", ns)
        assert sorted(set(ns) - {"__builtins__"}) == EXPORTED
        assert ns["ProblemParams"] is ProblemParams

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            plap.no_such_name  # noqa: B018
        assert not hasattr(plap, "no_such_name")
