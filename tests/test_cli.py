"""End-to-end checks of the command-line front end: in-process, except for
the ``python -m plap.cli`` entry point."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import plap.bvp
import plap.rk45
import plap.verify
from plap import cli, shooting
from plap.errors import NewtonDivergence

CLASSIFY_ARGS = ["classify", "--n", "3", "--p", "2", "--gamma", "0", "--q", "4"]


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """One q-sweep written twice."""
    d = tmp_path_factory.mktemp("sweep")
    argv = ["sweep", "--axis", "q", "--from", "2", "--to", "6", "--steps", "9",
            "--n", "3", "--p", "2", "--gamma", "0", "--u0", "1"]
    paths = [d / name for name in ("a.csv", "b.csv")]
    for path in paths:
        assert cli.main(argv + ["--out", str(path)]) == 0
    return paths


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, out, _ = run([], capsys)
        assert code == 1
        assert "subcommands:" in out

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "subcommands:" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "unknown subcommand" in err

    def test_plus_sign_balance_is_rejected(self, capsys):
        code, _, err = run(
            ["pohozaev", "--n", "3", "--p", "2", "--q", "5", "--u0", "1",
             "--sign", "plus", "--r-eval", "1"], capsys)
        assert code == 1
        assert "minus sign" in err

    def test_numerical_failure_exits_two(self, capsys, monkeypatch):
        def blow_up(prob):
            raise NewtonDivergence("stalled at the first continuation level",
                                   last_residual=1.0, flux_eps=1e-2)

        monkeypatch.setattr(plap.bvp, "solve_annulus_dirichlet_detailed", blow_up)
        code, _, err = run(
            ["bvp", "--n", "3", "--p", "2", "--r-inner", "1", "--r-outer", "2",
             "--b-inner", "1", "--b-outer", "0"], capsys)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("existing", [None, "kept\n"])
    def test_numerical_failure_leaves_out_as_it_was(self, capsys, monkeypatch, tmp_path,
                                                    existing):
        def blow_up(prob):
            raise NewtonDivergence("stalled at the first continuation level",
                                   last_residual=1.0, flux_eps=1e-2)

        monkeypatch.setattr(plap.bvp, "solve_annulus_dirichlet_detailed", blow_up)
        dest = tmp_path / "u.csv"
        if existing is not None:
            dest.write_text(existing)
        code, _, err = run(
            ["bvp", "--n", "3", "--p", "2", "--r-inner", "1", "--r-outer", "2",
             "--b-inner", "1", "--b-outer", "0", "--out", str(dest)], capsys)
        assert code == 2
        assert "numerical failure" in err
        # a file the run created is removed again; one that was there is untouched
        assert (dest.read_text() if dest.exists() else None) == existing

    def test_step_collapse_at_launch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(plap.rk45, "_COLLAPSE_FLOOR", 1.0)  # every first step is too small
        code, _, err = run(["shoot", "--n", "3", "--p", "2", "--q", "3", "--u0", "1"], capsys)
        assert code == 2
        assert "outcome=indeterminate  status=step_collapse  nodes=1  " in err
        assert "reason=integrator status step_collapse at r=1e-06 before a crossing" in err

    def test_series_launch_past_float_range_exits_zero(self, capsys):
        # u0^q = 2^1500 is past the float range; the origin series and the
        # rates are formed in logs, so the shot launches and gets its label.
        shot = ["shoot", "--n", "6", "--p", "5.97", "--q", "1500"]
        r_blow = {}
        for u0, sign, label in (("2", "minus", "positive_decaying"), ("2", "plus", "blows_up"),
                                ("1", "plus", "blows_up")):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, err = run(shot + ["--u0", u0, "--sign", sign], capsys)
            assert code == 0, err
            assert f"outcome={label}" in err
            if sign == "plus":
                r_blow[u0] = float(err.split("r_event=")[1].split()[0])
        # u(r; u0) = u0 U_1(mu r) with log mu = (q-p+1)/(p+gamma) log u0
        log_mu = (1500.0 - 5.97 + 1.0) / 5.97 * math.log(2.0)
        assert r_blow["2"] * math.exp(log_mu) == pytest.approx(r_blow["1"], rel=1e-7)

    def test_launch_outside_float_range_exits_zero(self, capsys):
        # w(delta0) = exp(-2109) underflows, but a shot holds log(|w| / (kw r^{N+gamma})),
        # which starts at 0, so it is launched and blows up where the scaling law
        # puts it.
        shot = ["shoot", "--n", "4", "--p", "5.924603387043973", "--q", "1404.4275907914193",
                "--gamma", "1.9043013684303007", "--sign", "plus"]
        r_blow = {}
        for u0 in ("0.23634888595485518", "1"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code, _, err = run(shot + ["--u0", u0], capsys)
            assert code == 0, err
            assert err.startswith("outcome=blows_up  ")
            r_blow[u0] = float(err.split("r_event=")[1].split()[0])
        log_mu = (1404.4275907914193 - 5.924603387043973 + 1.0) / (
            5.924603387043973 + 1.9043013684303007) * math.log(0.23634888595485518)
        assert r_blow["0.23634888595485518"] * math.exp(log_mu) == pytest.approx(
            r_blow["1"], rel=1e-6)
        # At the 1e-300 floor of delta0 the series term of u0 = 100 is exp(0.428) u0:
        # the shot is not launched, and its one CSV row is delta0 with u0.
        code, out, err = run(["shoot", "--n", "8", "--p", "7.2207", "--gamma", "-7.0939",
                              "--q", "20.5385", "--u0", "100"], capsys)
        assert code == 0, err
        assert err.startswith("outcome=indeterminate  status=launch_out_of_range  nodes=1  ")
        assert "outside the float range: series term exp(0.42785) u0" in err
        assert out.splitlines() == ["r,u,du,w", "1e-300,100.0,nan,nan"]
        # The same launch in a sweep, beside one from u0 = 30: the sweep still
        # prints every row.
        code, out, err = run(["sweep", "--axis", "u0", "--from", "30", "--to", "100", "--steps",
                              "2", "--n", "8", "--p", "7.2207", "--gamma", "-7.0939", "--q",
                              "20.5385", "--sign", "plus"], capsys)
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[1] for row in rows] == ["blows_up", "indeterminate"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["hadamard", "--r1", "1", "--r2", "inf", "--m1", "1", "--m2", "0.5",
             "--n", "3", "--p", "2"],
            ["hadamard", "--r1", "1", "--r2", "2", "--m1", "nan", "--m2", "0.5",
             "--n", "3", "--p", "2"],
            ["counterexample", "--n", "3", "--p", "2", "--q", "4", "--r-max", "inf"],
            ["pohozaev", "--n", "3", "--p", "2", "--q", "3", "--u0", "1", "--r-eval", "2",
             "--tol", "nan"],
            ["pohozaev", "--n", "3", "--p", "2", "--q", "3", "--u0", "1", "--r-eval", "2",
             "--tol", "-1"],
        ],
        ids=["hadamard-r2-inf", "hadamard-m1-nan", "counterexample-r-max-inf",
             "pohozaev-tol-nan", "pohozaev-tol-negative"],
    )
    def test_non_finite_barrier_input_is_usage_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "plap <subcommand>" in err

    @pytest.mark.parametrize(
        "argv,first_line",
        [
            (["counterexample", "--n", "3", "--p", "2", "--q", "2"],
             "plap counterexample: need q > q_serrin = 3.0 strictly, got q = 2.0 "
             "(eps would be <= 0)"),
            (["counterexample", "--n", "3", "--p", "2", "--q", "4", "--gamma", "-0.5"],
             "plap counterexample: counterexample construction assumes gamma >= 0, got -0.5"),
            (["counterexample", "--n", "2", "--p", "3", "--q", "4"],
             "plap counterexample: q_serrin undefined for N <= p (N=2, p=3.0); "
             "in that regime every positive supersolution is constant"),
            (["pohozaev", "--n", "3", "--p", "2", "--q", "3", "--u0", "1", "--r-eval", "50"],
             "plap pohozaev: u changes sign at r=6.89685 <= r_eval"),
        ],
        ids=["counterexample-q-at-most-q-serrin", "counterexample-negative-gamma",
             "counterexample-n-at-most-p", "pohozaev-past-crossing"],
    )
    def test_library_error_is_usage_error(self, capsys, argv, first_line):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == first_line

    @pytest.mark.parametrize(
        "argv",
        [
            CLASSIFY_ARGS,
            ["hadamard", "--r1", "1", "--r2", "4", "--m1", "1", "--m2", "2", "--lam", "-1"],
        ],
        ids=["json-writer", "csv-writer"],
    )
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        dest = tmp_path / "missing" / "out.txt"
        code, out, err = run(argv + ["--out", str(dest)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"plap {argv[0]}: cannot write {str(dest)!r}: ")
        assert not dest.exists()

    def test_unwritable_out_is_caught_before_computing(self, capsys, monkeypatch, tmp_path):
        def must_not_run(indices):
            raise AssertionError("the board ran before --out was checked")

        monkeypatch.setattr(plap.verify, "run_all", must_not_run)
        dest = tmp_path / "missing" / "board.txt"
        code, out, err = run(["verify", "--only", "6", "--out", str(dest)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"plap verify: cannot write {str(dest)!r}: ")

    def test_subcommand_help_returns_zero(self, capsys):
        parser = cli._Parser(prog="plap classify")
        cli._build_classify(parser)
        assert run(["classify", "--help"], capsys) == (0, parser.format_help(), "")

    def test_verify_single_green_criterion(self, capsys):
        code, out, err = run(["verify", "--only", "1"], capsys)
        assert code == 0
        assert out.count("\n") == 1 and "PASS" in out
        assert err == ""

    def test_verify_runs_a_repeated_selector_once(self, capsys):
        code, out, err = run(["verify", "--only", "9,1,9,1"], capsys)
        assert code == 3
        assert [line.split()[1] for line in out.splitlines()] == ["9", "1"]
        assert "1 of 2 checks failed" in err

    def test_verify_red_criterion_exits_three(self, capsys):
        # The recursion-grid check is deliberately red (the bound needs c >= 1).
        code, out, err = run(["verify", "--only", "9"], capsys)
        assert code == 3
        assert "FAIL" in out
        assert "1 of 1 checks failed" in err

    def test_verify_rejects_out_of_range_selector(self, capsys):
        # An empty selection would check nothing and still exit 0.
        for only, message in (("13", "criterion numbers"), (",", "selects no criteria"),
                              ("", "selects no criteria")):
            code, out, err = run(["verify", "--only", only], capsys)
            assert (code, out) == (1, "")
            assert message in err


class TestClassify:
    def test_reference_parameters(self, capsys):
        code, out, _ = run(CLASSIFY_ARGS, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["q_serrin"] == 3.0
        assert obj["q_equation"] == 5.0
        assert obj["counterexample_exists"] is True
        assert obj["inequality_nonexistence"] is False
        assert "boundary" not in obj

    def test_boundary_annotation_at_equation_critical(self, capsys):
        # At q = q_E the weighted bubble is a positive solution: K reads 0, as
        # the shot labels read it, so the flag is false and needs no note.
        code, out, _ = run(["classify", "--n", "3", "--p", "2", "--q", "5"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["equation_radial_nonexistence"] is False
        assert "boundary" not in obj

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(CLASSIFY_ARGS, capsys)
        dest = tmp_path / "classify.json"
        assert cli.main(CLASSIFY_ARGS + ["--out", str(dest)]) == 0
        assert dest.read_text() == out


class TestConfigFile:
    def test_config_equals_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# reference parameters\nn = 3\np = 2\ngamma = 0\nq = 4\n")
        _, from_flags, _ = run(CLASSIFY_ARGS, capsys)
        _, from_cfg, _ = run(["classify", "--config", str(cfg)], capsys)
        assert from_cfg == from_flags

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\np = 2\nq = 4\n")
        _, out, _ = run(["classify", f"--config={cfg}", "--q", "5"], capsys)
        obj = json.loads(out)
        assert obj["q"] == 5.0 and obj["equation_radial_nonexistence"] is False

    def test_config_accepts_a_unique_prefix(self, capsys, tmp_path):
        # argparse matches --conf to --config, as it does for every flag; the
        # file's values must then be read, not dropped.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\np = 2\nq = 4\n")
        _, full, _ = run(["classify", "--config", str(cfg)], capsys)
        assert run(["classify", "--conf", str(cfg)], capsys) == (0, full, "")

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\np = 2\nq = 4\nwibble = 7\n")
        code, _, err = run(["classify", "--config", str(cfg)], capsys)
        assert code == 1
        assert "wibble" in err

    @pytest.mark.parametrize("line", ["config = other.cfg", "help = true"])
    def test_config_and_help_keys_are_rejected(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\np = 2\nq = 4\n{line}\n")
        code, out, err = run(["classify", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert f"{cfg}:4: unknown key {line.split()[0]!r}" in err


class TestSweep:
    def test_byte_determinism(self, sweep_files):
        a, b = sweep_files
        assert a.read_bytes() == b.read_bytes()

    def test_boundary_column_flags_equation_critical_only(self, sweep_files):
        rows = list(csv.DictReader(io.StringIO(sweep_files[0].read_text())))
        assert len(rows) == 9
        flagged = [row["axis_value"] for row in rows if row["boundary_case"] == "true"]
        assert flagged == ["5.0"]
        by_q = {float(row["axis_value"]): row["outcome"] for row in rows}
        assert by_q[3.0] == "crosses_zero"
        assert by_q[5.0] == "positive_decaying"
        assert by_q[6.0] == "positive_decaying"


class TestSweepAxes:
    def sweep(self, capsys, axis, lo, hi, steps, *flags):
        code, out, _ = run(["sweep", "--axis", axis, "--from", lo, "--to", hi, "--steps", steps,
                            "--n", "3", "--p", "2", *flags], capsys)
        assert code == 0
        return list(csv.DictReader(io.StringIO(out)))

    def test_u0_axis_crosses_at_a_radius_inverse_to_u0(self, capsys):
        # At p = 2, q = 3 the shot from u0 is u0 U1(u0 r), so r_event u0 is constant.
        rows = self.sweep(capsys, "u0", "0.5", "2", "4", "--q", "3")
        assert [row["outcome"] for row in rows] == ["crosses_zero"] * 4
        scaled = [float(row["r_event"]) * float(row["axis_value"]) for row in rows]
        assert max(scaled) - min(scaled) <= 1e-7 * scaled[0]

    def test_gamma_axis_is_critical_only_at_zero(self, capsys):
        # q_E = 5 + 2 gamma, so q = 5 is critical at gamma = 0 and below q_E after it.
        rows = self.sweep(capsys, "gamma", "0", "2", "5", "--q", "5", "--u0", "1")
        assert [row["axis_value"] for row in rows] == ["0.0", "0.5", "1.0", "1.5", "2.0"]
        assert [row["outcome"] for row in rows] == ["positive_decaying"] + ["crosses_zero"] * 4
        assert [row["boundary_case"] for row in rows] == ["true"] + ["false"] * 4

    @pytest.mark.parametrize(
        "axis,lo,hi,flags",
        [("q", "2", "6", ["--q", "0.5"]), ("gamma", "0", "2", ["--gamma", "-5", "--q", "5"])],
        ids=["q", "gamma"],
    )
    def test_the_flag_the_axis_replaces_is_not_validated(self, capsys, axis, lo, hi, flags):
        # q = 0.5 <= p - 1 and gamma = -5 <= -p would each be rejected,
        # but every point replaces them with its axis value
        rows = self.sweep(capsys, axis, lo, hi, "3", *flags)
        assert [float(row["axis_value"]) for row in rows] == [float(lo), (float(lo) + float(hi)) / 2,
                                                              float(hi)]


class TestShootCsv:
    def test_csv_round_trips_solver_output_exactly(self, capsys, tmp_path):
        dest = tmp_path / "traj.csv"
        argv = ["shoot", "--n", "3", "--p", "2", "--q", "3", "--u0", "1",
                "--out", str(dest)]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err
        assert "outcome=crosses_zero" in err
        assert "reason=crossed at r=6.89685, closed from r=6.83908 (x/r=0.0084, " in err

        spec = shooting.IvpSpec(
            params=cli.ProblemParams(n_dim=3, p=2.0, q=3.0), u0=1.0,
            sign=shooting.EquationSign.MINUS, r_max=1000.0)
        traj = shooting.integrate_ivp(spec)
        rows = list(csv.DictReader(io.StringIO(dest.read_text())))
        assert len(rows) == len(traj.r)
        # repr round-trip: the file carries the solver's floats bit for bit
        for i in (0, len(rows) // 2, -1):
            assert float(rows[i]["r"]) == traj.r[i]
            assert float(rows[i]["u"]) == traj.u[i]
            assert float(rows[i]["w"]) == traj.w[i]


class TestReadmeExamples:
    def test_shoot_and_sweep_print_what_the_readme_shows(self, capsys, tmp_path):
        # Each `$ plap shoot|sweep` example of the README, run with --out under
        # tmp_path, prints every line the README shows under it ("..." elides).
        examples, shown = [], None
        for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
            if line.startswith("$ plap "):
                argv = line.split()[2:]
                shown = [] if argv[0] in ("shoot", "sweep") else None
                if shown is not None:
                    examples.append((argv, shown))
            elif line.startswith("```"):
                shown = None
            elif shown is not None and line and line != "...":
                shown.append(line)
        assert [argv[0] for argv, _ in examples] == ["shoot", "sweep"]
        for argv, shown in examples:
            if "--out" in argv:
                i = argv.index("--out")
                del argv[i:i + 2]
            dest = tmp_path / f"{argv[0]}.csv"
            code, out, err = run(argv + ["--out", str(dest)], capsys)
            assert code == 0
            printed = (out + err + dest.read_text()).splitlines()
            assert shown and [line for line in shown if line not in printed] == []


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv,first_line",
        [
            (["sweep", "--axis", "u0", "--from", "1", "--to", "2", "--steps", "3",
              "--n", "3", "--p", "2"],
             "plap sweep: --q is required unless --axis q"),
            (["verify", "--only", "x"],
             "plap verify: --only expects comma-separated integers, got 'x'"),
        ],
        ids=["sweep-without-q", "verify-only-not-a-number"],
    )
    def test_usage_error_exits_one_with_the_usage_text(self, argv, first_line):
        # python -m runs plap/cli.py as __main__, beside the plap.cli module
        # that plap.runners imports; both copies report usage errors alike
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "plap.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"{first_line}\n\n{cli._USAGE}"


class TestOtherSubcommands:
    def test_counterexample_reference_constants(self, capsys):
        code, out, _ = run(
            ["counterexample", "--n", "3", "--p", "2", "--gamma", "0", "--q", "4"],
            capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["epsilon"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert obj["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert obj["c"] == pytest.approx((2.0 / 9.0) ** (1.0 / 3.0), rel=1e-15)
        assert obj["residual_nonnegative"] is True
        assert obj["grid"]["min_residual"] >= 0.0

    def test_hadamard_endpoints_exact(self, capsys):
        code, out, _ = run(
            ["hadamard", "--r1", "1", "--r2", "4", "--m1", "1", "--m2", "2",
             "--lam", "-1", "--points", "7"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        assert float(rows[0]["lower_bound"]) == 1.0
        assert float(rows[-1]["lower_bound"]) == 2.0

    HADAMARD_ANNULUS = ["hadamard", "--r1", "1", "--r2", "7.389", "--m1", "1", "--m2", "0.2"]

    def test_hadamard_lam_zero_is_the_n_equals_p_case(self, capsys):
        code, by_lam, _ = run(self.HADAMARD_ANNULUS + ["--lam", "0"], capsys)
        assert code == 0
        code, by_np, _ = run(self.HADAMARD_ANNULUS + ["--n", "3", "--p", "3"], capsys)
        assert code == 0
        assert by_lam == by_np
        rows = [(float(row["r"]), float(row["lower_bound"]))
                for row in csv.DictReader(io.StringIO(by_lam))]
        assert rows[0][1] == 1.0 and rows[-1][1] == 0.2
        for r, bound in rows:  # linear in log r
            assert bound == pytest.approx(1.0 - 0.8 * math.log(r) / math.log(7.389), abs=1e-14)

    def test_hadamard_has_no_log_mode_flag(self, capsys):
        code, _, err = run(self.HADAMARD_ANNULUS + ["--log-mode"], capsys)
        assert code == 1
        assert "unrecognized arguments: --log-mode" in err

    @pytest.mark.parametrize("cmd", [["shoot"], ["pohozaev", "--r-eval", "1"]])
    def test_launch_radius_has_no_flag(self, capsys, cmd):
        code, _, err = run(cmd + ["--n", "3", "--p", "2", "--q", "3", "--u0", "1",
                                  "--delta0", "1e-7"], capsys)
        assert code == 1
        assert "unrecognized arguments: --delta0" in err

    def test_pohozaev_balance_at_equation_critical(self, capsys):
        code, out, _ = run(
            ["pohozaev", "--n", "3", "--p", "2", "--q", "5", "--u0", "1",
             "--r-max", "10", "--r-eval", "1"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["q_equation"] == 5.0
        assert abs(obj["coefficient"]) < 1e-12

    def test_pohozaev_balance_at_n_below_p(self, capsys):
        code, out, _ = run(
            ["pohozaev", "--n", "2", "--p", "3", "--q", "4", "--u0", "1",
             "--r-eval", "0.5"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["passed"] is True
        assert obj["coefficient"] == -2.2
        assert obj["q_equation"] is None

    def test_shoot_reason_at_n_below_p_names_the_sign_of_k(self, capsys):
        code, _, err = run(["shoot", "--n", "2", "--p", "3", "--q", "4", "--u0", "1"], capsys)
        assert code == 0
        assert "outcome=crosses_zero" in err and err.rstrip().endswith("K=-2.2<0")

    def test_shoot_max_step_caps_every_node_gap(self, capsys):
        argv = ["shoot", "--n", "3", "--p", "2", "--q", "3", "--u0", "1"]
        largest_gap = {}
        for flags in ([], ["--max-step", "0.05"]):
            code, out, _ = run(argv + flags, capsys)
            assert code == 0
            r = [float(row["r"]) for row in csv.DictReader(io.StringIO(out))]
            largest_gap[bool(flags)] = max(b - a for a, b in zip(r, r[1:]))
        assert largest_gap[True] <= 0.05 * (1.0 + 1e-12) < largest_gap[False]

    def test_shoot_max_step_must_be_positive(self, capsys):
        code, out, err = run(
            ["shoot", "--n", "3", "--p", "2", "--q", "3", "--u0", "1", "--max-step", "0"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("plap shoot: max_step must be positive\n")

    def test_bvp_solves_and_reports_diagnostics(self, capsys):
        code, out, err = run(
            ["bvp", "--n", "3", "--p", "2", "--r-inner", "1", "--r-outer", "2",
             "--b-inner", "1", "--b-outer", "0", "--mesh-size", "64"], capsys)
        assert code == 0
        assert "iterations=" in err
        rows = list(csv.DictReader(io.StringIO(out)))
        mid = rows[len(rows) // 2]
        exact = 2.0 / float(mid["r"]) - 1.0
        assert float(mid["u"]) == pytest.approx(exact, abs=1e-4)
