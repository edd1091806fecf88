"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import plap  # noqa: E402
from plap import barriers, bvp, identities, radial_ops, rk45, shooting, verify  # noqa: E402

import board_load  # noqa: E402
import bvp_load  # noqa: E402
import run  # noqa: E402
import sweep_load  # noqa: E402
from tracing import Tracer, install_layer_probes, layer_metrics  # noqa: E402

MODULES = {"rk45": rk45, "shooting": shooting, "bvp": bvp, "verify": verify,
           "radial_ops": radial_ops, "barriers": barriers, "identities": identities}


@pytest.fixture
def tracer():
    tr = Tracer()
    install_layer_probes(tr, MODULES)
    yield tr
    tr.uninstall()


def test_aubin_talenti_shot_counters(tracer):
    spec = shooting.IvpSpec(params=plap.ProblemParams(3, 2.0, 5.0), u0=3.0 ** 0.25, r_max=1e4)
    shooting.integrate_ivp(spec)
    m = layer_metrics(tracer)
    assert (m["rk45.steps"], m["rk45.rejected"], m["rk45.fev"]) == (322, 1, 1939)
    assert m["rk45.integrate.calls"] == 1


def test_q_sweep_counters(tracer):
    specs = [shooting.IvpSpec(params=plap.ProblemParams(3, 2.0, float(q)), u0=1.0, r_max=1e3)
             for q in np.linspace(2.0, 6.0, 64)]
    shooting.sweep_outcomes(specs)
    m = layer_metrics(tracer)
    assert (m["rk45.steps"], m["rk45.fev"]) == (12882, 78141)
    assert m["rk45.integrate.calls"] == 64
    assert sum(m[f"shooting.outcome.{k}"] for k in ("crosses_zero", "positive_decaying")) == 64


def test_self_time_excludes_probed_children(tracer):
    spec = shooting.IvpSpec(params=plap.ProblemParams(3, 2.0, 3.0), u0=1.0, r_max=30.0)
    shooting.integrate_ivp(spec)
    total = tracer.total_s["shooting.integrate_ivp"]
    assert tracer.self_s["shooting.integrate_ivp"] == pytest.approx(
        total - tracer.total_s["rk45.integrate"])


def test_bvp_counters_and_divergence(tracer):
    prob = bvp.AnnulusProblem(plap.ProblemParams(3, 5.0, 5.0), 1.0, 3.0, 1.0, 0.2,
                              rhs=lambda r: 2.0, mesh_size=8192)
    with pytest.raises(plap.NewtonDivergence):
        bvp.solve_annulus_dirichlet_detailed(prob)
    ok = bvp.AnnulusProblem(plap.ProblemParams(3, 2.0, 2.0), 1.0, 2.0, 1.0, 0.0, None, 256)
    _, info = bvp.solve_annulus_dirichlet_detailed(ok)
    m = layer_metrics(tracer)
    assert m["bvp.solve.calls"] == 2 and m["bvp.diverged"] == 1
    assert m["bvp.newton_iterations"] == info.iterations
    assert m["bvp.banded_solve.calls"] >= 1
    assert m["rk45.integrate.calls"] == 0


def test_absent_target_is_recorded_and_harmless():
    class Owner:
        present = staticmethod(lambda x: x + 1)

    tr = Tracer()
    tr.probe([Owner], "gone", "layer.gone")
    tr.probe([Owner], "present", "layer.present")
    assert Owner.present(1) == 2
    assert tr.absent == {"layer.gone"} and tr.calls["layer.present"] == 1
    tr.uninstall()
    assert not hasattr(Owner, "gone")
    Owner.present(1)
    assert tr.calls["layer.present"] == 1


def test_uninstall_restores_library_names():
    before = (rk45.integrate, bvp.solve_banded, verify.fd_agreement, rk45.IntegrationResult.sol)
    tr = Tracer()
    install_layer_probes(tr, MODULES)
    assert rk45.integrate is not before[0]
    tr.uninstall()
    assert (rk45.integrate, bvp.solve_banded, verify.fd_agreement,
            rk45.IntegrationResult.sol) == before


def _q_e(n, p, gamma):
    return plap.equation_critical(plap.ProblemParams(n, p, p, gamma))


def test_sweep_deck_is_seeded_and_stratified():
    deck = sweep_load.make_deck(7, _q_e)
    assert deck == sweep_load.make_deck(7, _q_e)
    assert deck != sweep_load.make_deck(8, _q_e)
    minus = [line for line in deck if line[0].sign < 0]
    plus = [line for line in deck if line[0].sign > 0]
    assert len(minus) == 8 and len(plus) == 2
    eighths = [int(8 * (line[0].p - 1.5) / (line[0].n_dim - 1.5)) for line in minus]
    assert sorted(eighths) == list(range(8))
    assert [line[0].n_dim for line in minus] == [n for n in sweep_load.N_VALUES for _ in (0, 1)]
    assert all(lo < 4 <= hi for lo, hi in zip(eighths[::2], eighths[1::2]))
    assert [int(2 * (line[0].p - 1.5) / 1.5) for line in plus] == [0, 1]
    assert all(line[0].n_dim == sweep_load.PLUS_N for line in plus)
    for line in deck:
        assert len(line) == sweep_load.POINTS
        assert len({(pt.n_dim, pt.p, pt.gamma, pt.u0, pt.sign) for pt in line}) == 1
        pt = line[0]
        assert 1.5 <= pt.p < pt.n_dim and 0.0 <= pt.gamma <= 2.0 and 0.5 <= pt.u0 <= 2.0
        qs = np.array([pt.q for pt in line])
        assert np.allclose(np.diff(qs), qs[1] - qs[0])
        assert pt.p - 1.0 < qs[0] and qs[-1] > pt.q_e


def test_sweep_oracle_labels():
    below = sweep_load.Point(3, 2.0, 0.0, 1.0, 4.0, 5.0, -1)
    above = sweep_load.Point(3, 2.0, 0.0, 1.0, 6.0, 5.0, -1)
    plus = sweep_load.Point(3, 2.0, 0.0, 1.0, 4.0, 5.0, +1)
    assert (below.expected(), above.expected(), plus.expected()) == (
        "crosses_zero", "positive_decaying", "blows_up")


def test_bvp_deck_holds_the_divergence_grid():
    deck = bvp_load.make_deck(3)
    assert deck == bvp_load.make_deck(3)
    grid = [a for a in deck if (a.n_dim, a.r1, a.r2, a.b1, a.b2) == (3, 1.0, 3.0, 1.0, 0.2)]
    assert len(grid) == 36
    assert {a.p for a in deck} == set(bvp_load.P_VALUES)
    assert {a.mesh for a in deck} == set(bvp_load.MESHES)
    assert all(0.0 <= a.amp <= 2.0 for a in deck)


@pytest.mark.parametrize("n_dim,p", [(3, 2.0), (3, 3.0), (2, 5.0), (5, 1.5)])
def test_bvp_oracle_accepts_the_closed_form(n_dim, p):
    a = bvp_load.Annulus(n_dim, p, 1.0, 2.5, 0.3, 1.7, "zero", 0.0, 1.0, 512)
    phi, _ = bvp_load.p_harmonic(a)
    r = np.linspace(a.r1, a.r2, a.mesh + 1)
    assert phi(a.r1) == pytest.approx(a.b1) and phi(a.r2) == pytest.approx(a.b2)
    assert bvp_load.check(a, r, phi(r))[0]
    assert not bvp_load.check(a, r, phi(r) + 0.1)[0]


def test_board_pattern():
    line = lambda k, ok: ("ok" if ok else "failed", f"criterion {k}", (ok,))  # noqa: E731
    expected = [line(k, k != 9) for k in range(1, 13)]
    assert board_load.pattern_ok(expected)
    assert not board_load.pattern_ok(expected[:11])
    assert not board_load.pattern_ok([line(k, True) for k in range(1, 13)])


def test_tally_counts_the_deck_once():
    rec = {"unit": "solves", "inputs": [{"graded": [("ok", "a", (1,))]},
                                        {"graded": [("diverged", "b", ("diverged",))]}]}
    once, thrice = run.tally_passes("bvp", [rec]), run.tally_passes("bvp", [rec] * 3)
    assert (thrice.attempted, thrice.failed, thrice.correct) == (once.attempted, once.failed,
                                                                 True) == (2, 1, True)
    other = {"unit": "solves", "inputs": [rec["inputs"][0], {"graded": [("ok", "b", (2,))]}]}
    assert not run.tally_passes("bvp", [rec, other]).correct


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 217)])[1] == "p95 of 216"
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, "max of 3")


def test_per_layer_names_match_the_benchmark_file(tracer):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workload_level = {"call.ops_per_s", "call.p50_s", "call.tail_s", "sweep.wrong_labels", "sweep.indeterminate", "bvp.check_failed",
                      "calls.errors", "src.lines", "trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} == set(layer_metrics(tracer)) | workload_level


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
