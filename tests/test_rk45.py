"""Embedded 5(4) integrator: accuracy, dense output, the event, failure modes."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from plap import rk45
from plap.rk45 import _hermite, integrate, left_sum


class TestAccuracy:
    def test_exponential(self):
        res = integrate(lambda t, y: y, 0.0, 2.0, [1.0], rtol=1e-10, atol=1e-12, first_step=1e-3)
        assert res.status == "finished"
        assert res.ys[-1, 0] == pytest.approx(math.e**2, rel=1e-9)

    def test_oscillator_energy(self):
        # y'' = -y as a system; energy drift bounds the global error.
        def f(t, y):
            return np.array([y[1], -y[0]])

        res = integrate(f, 0.0, 20 * math.pi, [1.0, 0.0], rtol=1e-11, atol=1e-13, first_step=1e-3)
        energy = res.ys[:, 0] ** 2 + res.ys[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-8
        assert res.ys[-1, 0] == pytest.approx(1.0, abs=1e-8)

    def test_tolerance_scaling(self):
        # Loosening rtol by 10^4 must not tighten the error; tightening shrinks it.
        def f(t, y):
            return np.array([math.cos(t) * y[0]])

        exact = math.exp(math.sin(3.0))
        errs = []
        for rtol in (1e-6, 1e-10):
            res = integrate(f, 0.0, 3.0, [1.0], rtol=rtol, atol=rtol * 1e-2, first_step=1e-3)
            errs.append(abs(res.ys[-1, 0] - exact))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-9

    def test_rejects_backward_span(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: y, 1.0, 0.0, [1.0], first_step=1e-3)


class TestDenseOutput:
    def test_hermite_matches_exact_solution(self):
        # Dense output is cubic between nodes, so its error is O(h^4) and
        # shrinks with max_step even when the stepper is already exact.
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-12, first_step=1e-3)
        ts = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(res.sol(ts)[:, 0] - np.exp(ts))) < 1e-6
        fine = integrate(
            lambda t, y: y, 0.0, 1.0, [1.0], rtol=1e-10, atol=1e-12, max_step=0.02,
            first_step=1e-3,
        )
        assert np.max(np.abs(fine.sol(ts)[:, 0] - np.exp(ts))) < 2e-9

    def test_scalar_query_shape(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], first_step=1e-3)
        out = res.sol(0.5)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(math.sqrt(math.e), rel=1e-8)

    def test_matches_per_point_hermite(self):
        # Reference: one scalar _hermite call per point, which is how sol
        # evaluates, so the two agree bit for bit.
        res = integrate(
            lambda t, y: np.array([y[1], -y[0]]), 0.0, 3.0, [1.0, 0.0], first_step=1e-3
        )
        ts = np.linspace(0.0, 3.0, 401)
        ref = []
        for t in ts:
            i = min(int(np.searchsorted(res.ts, t, side="right")) - 1, res.ts.size - 2)
            ref.append(_hermite(res.ts[i], res.ts[i + 1], res.ys[i], res.ys[i + 1],
                                res.fs[i], res.fs[i + 1], t))
        assert np.array_equal(res.sol(ts), np.array(ref))

    def test_nodes_reproduced_exactly(self):
        # The negative span checks both ends of the query window when t < 0.
        for f, t0, t1, y0 in (
            (lambda t, y: np.array([y[1], -y[0]]), 0.0, 3.0, [1.0, 0.0]),
            (lambda t, y: y, -2.0, -1.0, [1.0]),
        ):
            res = integrate(f, t0, t1, y0, first_step=1e-3)
            out = res.sol(res.ts)
            assert out.shape == (res.ts.size, len(y0))
            assert np.array_equal(out, res.ys)

    def test_one_node_result_returns_its_state(self):
        # A step collapse at launch leaves one node, with f = inf there: the
        # interpolant must be that node's state, not a 0 * inf = nan blend.
        res = integrate(lambda t, y: np.array([np.inf]), 0.0, 1.0, [1.0], first_step=1e-3)
        assert res.status == "step_collapse"
        assert res.ts.size == 1
        assert np.array_equal(res.sol(0.0), res.ys[0])
        assert np.array_equal(res.sol(np.array([0.0, 0.0])), res.ys[[0, 0]])

    def test_outside_span_raises(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], first_step=1e-3)
        with pytest.raises(ValueError):
            res.sol(1.5)


class TestEvents:
    def test_terminal_root_location(self):
        # 5 - y with y = e^t falls through zero at t = log 5.
        def ev(t, y):
            return 5.0 - y[0]

        res = integrate(lambda t, y: y, 0.0, 3.0, [1.0], event=ev, first_step=1e-3)
        assert res.status == "event"
        # Root accuracy is set by the dense interpolant, not the step tolerance.
        assert res.ts[-1] == pytest.approx(math.log(5.0), rel=1e-7)
        fine = integrate(
            lambda t, y: y, 0.0, 3.0, [1.0], event=ev, max_step=0.02, first_step=1e-3
        )
        assert fine.ts[-1] == pytest.approx(math.log(5.0), rel=1e-10)

    def test_a_rise_through_zero_does_not_fire(self):
        # -sin t rises through zero at pi and falls through it at 2 pi.
        def f(t, y):
            return np.array([math.cos(t)])

        res = integrate(f, 0.1, 8.0, [math.sin(0.1)], event=lambda t, y: -y[0],
                        first_step=1e-3)
        assert res.status == "event"
        assert res.ts[-1] == pytest.approx(2 * math.pi, rel=1e-8)

    @pytest.mark.parametrize("sign,status", [(1, "finished"), (-1, "event")])
    def test_step_landing_on_a_zero_keeps_its_direction(self, sign, status):
        # g = sign (t - 1); the step of 0.25 lands on t = 1 exactly, where only
        # the falling g, 1 - t, has crossed.
        res = integrate(lambda t, y: [1.0], 0.0, 2.0, [0.0], event=lambda t, y: sign * (t - 1.0),
                        first_step=0.25, max_step=0.25)
        assert res.status == status
        if status == "event":
            assert res.ts[-1] == pytest.approx(1.0, rel=1e-9)
        else:
            assert res.ts[-1] == 2.0


    def test_midpoint_on_the_root_ends_the_bisection(self):
        # g = 1 - t is exactly 0 at the first midpoint of the step [0, 2], so
        # the event lands on t = 1.0 itself, as the second node.
        calls = []

        def g(t, y):
            calls.append(t)
            return 1.0 - t

        res = integrate(lambda t, y: [1.0], 0.0, 4.0, [0.0], event=g, first_step=2.0,
                        max_step=2.0)
        assert res.status == "event"
        assert res.ts.tolist() == [0.0, 1.0]
        assert res.ys[-1, 0] == pytest.approx(1.0, rel=1e-15)
        assert calls == [0.0, 2.0, 1.0]


class TestFailureModes:
    def test_step_collapse_at_singularity(self):
        # y' = y^2 from y(0) = 1 blows up at t = 1; steps collapse approaching it.
        def f(t, y):
            return [y[0] * y[0]]

        res = integrate(f, 0.0, 2.0, [1.0], rtol=1e-10, atol=1e-12, first_step=1e-3)
        assert res.status == "step_collapse"
        assert res.ts[-1] == pytest.approx(1.0, abs=1e-3)

    def test_launch_at_a_tiny_radius_steps(self):
        # y' = y / t (y = t / t0) from t0 = 1e-20: a step of 1e-21 is far
        # below 1e-14 but a tenth of t0, so it is no collapse.
        res = integrate(lambda t, y: [y[0] / t], 1e-20, 1e-18, [1.0], first_step=1e-21)
        assert res.status == "finished"
        assert res.ys[-1, 0] == pytest.approx(100.0, rel=1e-8)

    def test_error_estimate_past_the_float_range_rejects_the_step(self):
        # Only the FSAL slope of the first step is huge: every stage state is
        # finite, and the scaled error, ~1e200, squares past the float range.
        calls = []

        def f(t, y):
            calls.append(t)
            return [1e200 if len(calls) == 7 else 0.0]

        res = integrate(f, 0.0, 1.0, [0.0], first_step=1e-3)
        assert res.status == "finished"
        assert res.n_rejected == 1

    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(rk45, "_MAX_STEPS", 100)
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], max_step=1e-5, first_step=1e-3)
        assert res.status == "max_steps"
        assert res.n_steps == 100

    def test_max_step_respected(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], max_step=0.01, first_step=1e-3)
        assert np.max(np.diff(res.ts)) <= 0.01 + 1e-12

    def test_first_step_honored(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], first_step=1e-3)
        assert res.ts[1] - res.ts[0] == pytest.approx(1e-3, rel=1e-12)


class TestBookkeeping:
    def test_fsal_evaluation_count(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], rtol=1e-8, atol=1e-10, first_step=1e-3)
        # One seed evaluation plus six per attempted step.
        assert res.n_fev == 1 + 6 * (res.n_steps + res.n_rejected)

    def test_counts_only_the_evaluations_made(self):
        # The third call (stage 2 of the first step) is not finite, so that
        # attempt stops after two stages and is rejected; stages 3 to 6 are
        # never evaluated and are not counted.
        calls = []

        def f(t, y):
            calls.append(t)
            return [math.inf if len(calls) == 3 else -y[0]]

        res = integrate(f, 0.0, 1.0, [1.0], first_step=1e-3)
        assert res.status == "finished"
        assert res.n_rejected == 1
        assert res.n_fev == len(calls)

    def test_nodes_and_states_align(self):
        res = integrate(lambda t, y: y, 0.0, 1.0, [1.0], first_step=1e-3)
        assert res.ts.shape[0] == res.ys.shape[0] == res.fs.shape[0]
        assert res.ts[0] == 0.0 and res.ts[-1] == pytest.approx(1.0)
        assert np.all(np.diff(res.ts) > 0)
        # A terminal event ends the nodes at the root, still strictly increasing.
        hit = integrate(lambda t, y: y, 0.0, 1.0, [1.0], event=lambda t, y: 2.0 - y[0],
                        first_step=1e-3)
        assert hit.status == "event"
        assert hit.ts.shape[0] == hit.ys.shape[0] == hit.fs.shape[0]
        assert hit.ts[-1] == pytest.approx(math.log(2.0), rel=1e-7)
        assert np.all(np.diff(hit.ts) > 0)


class TestStateContract:
    def test_f_and_events_receive_tuples_of_floats(self):
        seen = []

        def f(t, y):
            seen.append(y)
            return np.array([y[1], -y[0]])

        def g(t, y):
            seen.append(y)
            return y[0] + 0.5

        res = integrate(f, 0.0, 3.0, np.array([1.0, 0.0]), first_step=1e-3, event=g)
        assert res.status == "event"
        assert len(seen) > res.n_fev
        for y in seen:
            assert type(y) is tuple and len(y) == 2
            assert all(type(v) is float for v in y)

    @pytest.mark.parametrize("wrap", [list, tuple, np.array])
    def test_f_may_return_any_sequence(self, wrap):
        res = integrate(lambda t, y: wrap([y[1], -y[0]]), 0.0, 3.0, [1.0, 0.0],
                        first_step=1e-3)
        assert res.status == "finished"
        assert res.ys.shape == res.fs.shape == (res.ts.size, 2)
        assert res.ys[-1, 0] == pytest.approx(math.cos(3.0), abs=1e-9)

    @pytest.mark.parametrize("d", [1, 3])
    def test_state_dimensions(self, d):
        # y_j' = (j + 1) y_j, so y_j(1) = e^{j + 1}.
        res = integrate(lambda t, y: [(j + 1) * v for j, v in enumerate(y)], 0.0, 1.0,
                        [1.0] * d, first_step=1e-3)
        assert res.status == "finished"
        assert res.ys.shape == res.fs.shape == (res.ts.size, d)
        for j in range(d):
            assert res.ys[-1, j] == pytest.approx(math.exp(j + 1), rel=1e-9)


class TestNodeStorage:
    def test_node_arrays_view_the_stepper_buffers(self):
        # The nodes are not copied at return: each array views a flat buffer.
        res = integrate(lambda t, y: (y[1], -y[0]), 0.0, 3.0, [1.0, 0.0], first_step=1e-3)
        for arr in (res.ts, res.ys, res.fs):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous
            assert not arr.flags.owndata
        assert res.ys.shape == res.fs.shape == (res.ts.size, 2)


class TestLeftSum:
    def test_folds_left_to_right(self):
        # A compensated sum (the builtin sum of floats from Python 3.12) gives 1.0.
        assert left_sum((1e16, 1.0, -1e16)) == 0.0
        assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3
        assert left_sum(()) == 0.0

    @pytest.mark.parametrize("module", ["rk45", "shooting"])
    def test_no_builtin_sum_on_the_shooting_path(self, module):
        # The builtin sum rounds differently from Python 3.12 on.
        path = Path(rk45.__file__).with_name(f"{module}.py")
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "sum"]
        assert calls == []
