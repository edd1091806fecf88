"""Radial shooting: outcomes, frozen event radii, invariants, scaling."""

import math
import warnings

import numpy as np
import pytest

from plap import (
    EquationSign,
    IvpSpec,
    Outcome,
    OutcomeKind,
    PlapError,
    ProblemParams,
    Trajectory,
    classify_outcome,
    equation_critical,
    integrate_ivp,
    pohozaev_residual,
    rescaled_spec,
    scaling_covariance_report,
    scaling_exponent,
    sweep_outcomes,
)
from plap import rk45
from plap.shooting import (
    _GL_W,
    _GL_X,
    _continue,
    _fit_slope,
    _log_rates,
    _series_head,
    _weighted_integral,
    series_logs,
    series_state,
)

SUBCRITICAL = ProblemParams(n_dim=3, p=2.0, q=3.0, gamma=0.0)
CRITICAL = ProblemParams(n_dim=3, p=2.0, q=5.0, gamma=0.0)

# Regression radii for the (N, p, q) = (3, 2, 3) family; the acceptance suite
# re-derives these against an independent high-order integration.
R_CROSS = {0.5: 13.793697234347743, 1.0: 6.896848611785547, 2.0: 3.4484243051504864}
R_BLOW = 2.5748367276900237


def shoot(params, u0, r_max=30.0, **kw):
    spec = IvpSpec(params=params, u0=u0, r_max=r_max, **kw)
    return integrate_ivp(spec), spec


class TestOutcomes:
    @pytest.mark.parametrize("u0", [0.5, 1.0, 2.0])
    def test_subcritical_crossing_radii(self, u0):
        traj, spec = shoot(SUBCRITICAL, u0)
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.CROSSES_ZERO
        assert out.r_event == pytest.approx(R_CROSS[u0], rel=1e-8)
        assert out.r_event == traj.r_cross

    def test_crossing_scales_inversely_with_amplitude(self):
        # For q = 3, p = 2 the rescaling u -> lam u maps r -> r / lam exactly.
        assert R_CROSS[0.5] == pytest.approx(2.0 * R_CROSS[1.0], rel=1e-8)
        assert R_CROSS[2.0] == pytest.approx(0.5 * R_CROSS[1.0], rel=1e-8)

    def test_critical_shot_decays(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.POSITIVE_DECAYING
        assert out.tail_slope == pytest.approx(-1.0, abs=5e-3)

    def test_critical_trajectory_matches_exact_solution(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        r = np.geomspace(1e-3, 99.0, 200)
        u, _, _ = traj.sample(r)
        exact = 3**0.25 / np.sqrt(1.0 + r**2)
        assert np.max(np.abs(u / exact - 1.0)) < 1e-6

    def test_forced_growth_blows_up(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=10.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_event == pytest.approx(R_BLOW, rel=1e-8)

    def test_crossing_beyond_r_max_matches_taylor_oracle(self):
        # q = 0.97 q_E < q_E crosses at r ~ 113, past r_max = 100: the shot
        # continues to it rather than being labelled positive_decaying.
        from plap.verify import taylor_launch, taylor_oracle

        params = ProblemParams(n_dim=3, p=2.0, q=4.85, gamma=0.0)
        traj, spec = shoot(params, 1.0, r_max=100.0)
        out = classify_outcome(traj)
        oracle = taylor_oracle(params, -1.0, *taylor_launch(params, 1.0, -1.0, 1e4), 1e4,
                               spec.blowup_threshold)
        assert out.kind is OutcomeKind.CROSSES_ZERO
        assert oracle.event == "crosses_zero"
        assert out.r_event == pytest.approx(oracle.r[-1], rel=1e-6)

    def test_blowup_radius_matches_closed_form(self):
        # u = (1 - r^2/3)^{-1/2} solves Delta u = u^5 in R^3 (the Aubin-Talenti
        # profile with r^2 -> -r^2), and reaches 1e8 at r^2 = 3 (1 - 1e-16).
        traj, spec = shoot(CRITICAL, 1.0, r_max=100.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj)
        assert out.r_event == pytest.approx(math.sqrt(3.0 * (1.0 - 1e-16)), rel=1e-9)

    def test_short_range_growth_blows_up_beyond_r_max(self):
        # Every plus shot blows up at a finite radius, so a shot still finite
        # at r_max continues to its blow-up instead of being judged there.
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=1.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_event == pytest.approx(R_BLOW, rel=1e-8)
        assert "beyond r_max" in out.reason

    def test_large_series_term_shrinks_the_launch(self):
        # At 1e-6 the series term ku r^s (ku ~ 9e12) put u(delta0) at 841 or
        # -838; the default launch radius keeps it within 1e-6 of u0.
        params = ProblemParams(n_dim=3, p=2.971, q=124.7, gamma=0.322)
        for sign in EquationSign:
            spec = IvpSpec(params=params, u0=1.631, r_max=100.0, sign=sign)
            s, log_ku, _ = series_logs(params, spec.u0)
            ku = math.exp(log_ku)
            assert spec.delta0 < 1e-11
            assert ku * spec.delta0**s == pytest.approx(1e-6 * spec.u0, rel=1e-12)
            assert series_state(spec, spec.delta0)[0] == pytest.approx(spec.u0, rel=2e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, spec = shoot(params, 1.631, r_max=100.0, sign=EquationSign.PLUS)
            out = classify_outcome(traj)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert spec.delta0 < out.r_event < spec.r_max

    def test_outcome_field_consistency(self):
        with pytest.raises(ValueError):
            Outcome(OutcomeKind.CROSSES_ZERO, reason="crossed")
        with pytest.raises(ValueError):
            Outcome(OutcomeKind.POSITIVE_DECAYING, reason="decays", tail_slope=0.5)
        with pytest.raises(TypeError):
            Outcome(OutcomeKind.BLOWS_UP, r_event=1.0)  # no reason
        with pytest.raises(ValueError):
            Outcome(OutcomeKind.BLOWS_UP, reason="", r_event=1.0)

    @pytest.mark.parametrize("r_event", [None, 0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("kind", [OutcomeKind.CROSSES_ZERO, OutcomeKind.BLOWS_UP])
    def test_event_radius_must_be_finite_and_positive(self, kind, r_event):
        with pytest.raises(ValueError, match="needs a finite r_event > 0"):
            Outcome(kind, reason="x", r_event=r_event)

    @pytest.mark.parametrize("r_max", [10.0, 100.0])
    def test_no_crossing_at_equation_critical(self, r_max):
        # At q = q_E the Pohozaev coefficient K vanishes, and the identity
        # rules out a first zero; the shot's tail sits at atol, where the
        # integrator's noise crossed zero at r = 5.1328.
        base = ProblemParams(n_dim=10, p=1.2, q=1.2, gamma=2.0)
        params = ProblemParams(n_dim=10, p=1.2, q=equation_critical(base), gamma=2.0)
        traj, spec = shoot(params, 1.0, r_max=r_max)
        out = classify_outcome(traj)
        assert out.kind is not OutcomeKind.CROSSES_ZERO
        assert "Pohozaev" in out.reason and "K=" in out.reason


# One shot per class of sweep defect: each label must not depend on r_max.
R_MAX_CASES = {
    # crossing beyond r_max (q < q_E): labelled positive_decaying at r_max <= 1e3
    "crossing_beyond_r_max": (
        ProblemParams(n_dim=6, p=5.6005, q=53.633745, gamma=0.0429794), 1.75637,
        EquationSign.MINUS, OutcomeKind.CROSSES_ZERO),
    # plus shot whose series term dwarfed u0 at the old launch radius
    "plus_overflowing_launch": (
        ProblemParams(n_dim=3, p=2.97143, q=124.67532, gamma=0.322369), 1.63101,
        EquationSign.PLUS, OutcomeKind.BLOWS_UP),
    # minus shot launched below zero by the same series term
    "minus_overflowing_launch": (
        ProblemParams(n_dim=3, p=2.94697, q=220.23854, gamma=1.08195), 1.32445,
        EquationSign.MINUS, OutcomeKind.CROSSES_ZERO),
    # s = (p+gamma)/(p-1) = 0.059: the series term is 1e-6 of u0 only at the
    # launch r = 7e-121, where r^{-(N-1)} is past the float range
    "minus_small_series_exponent": (
        ProblemParams(n_dim=8, p=5.184, q=4.61653, gamma=-4.937), 0.656,
        EquationSign.MINUS, OutcomeKind.CROSSES_ZERO),
    # crosses at r ~ 8e78, where r^{N-1+gamma} = r^{4.67} overflows a float
    "crossing_past_float_range_of_powers": (
        ProblemParams(n_dim=4, p=3.95089, q=446.17864, gamma=1.67316), 1.93015,
        EquationSign.MINUS, OutcomeKind.CROSSES_ZERO),
    # launched at 7e-127, where r^{-(N-1)} = r^{-5} overflows a float
    "minus_launch_below_power_range": (
        ProblemParams(n_dim=6, p=5.915, q=160.27, gamma=-5.177), 2.414,
        EquationSign.MINUS, OutcomeKind.POSITIVE_DECAYING),
    # u0^q = 2.563^1146 overflows a float; blows up at r ~ 7.827e-73
    "plus_u0_power_past_float_range": (
        ProblemParams(n_dim=7, p=6.904, q=1146.2, gamma=-0.274), 2.563,
        EquationSign.PLUS, OutcomeKind.BLOWS_UP),
    # s = 0.0204: (1e-6 u0/ku)^{1/s} underflows to 0, so the launch sits at 1e-300
    "minus_launch_at_the_floor": (
        ProblemParams(n_dim=8, p=7.2207, q=20.5385, gamma=-7.0939), 0.9131,
        EquationSign.MINUS, OutcomeKind.POSITIVE_DECAYING),
    # the same launch, plus sign: blows up at r ~ 5.536e-96 = r_blow(u0=1) / mu
    "plus_launch_at_the_floor": (
        ProblemParams(n_dim=8, p=7.2207, q=20.5385, gamma=-7.0939), 0.9131,
        EquationSign.PLUS, OutcomeKind.BLOWS_UP),
}


class TestLabelsIndependentOfRMax:
    @pytest.mark.parametrize("r_max", [1e2, 1e3, 1e4, 1e5])
    @pytest.mark.parametrize("case", sorted(R_MAX_CASES))
    def test_label(self, case, r_max):
        params, u0, sign, kind = R_MAX_CASES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, spec = shoot(params, u0, r_max=r_max, sign=sign)
            out = classify_outcome(traj)
        assert out.kind is kind, out.reason
        if kind is not OutcomeKind.POSITIVE_DECAYING:
            assert spec.delta0 < out.r_event < math.inf
        if case == "crossing_beyond_r_max":
            assert out.r_event == pytest.approx(1256.045, rel=1e-6)
        if case == "crossing_past_float_range_of_powers":
            assert out.r_event == pytest.approx(8.3329e78, rel=1e-4)
        if case == "plus_u0_power_past_float_range":
            assert out.r_event == pytest.approx(7.827e-73, rel=1e-4)
        if case == "plus_launch_at_the_floor":
            assert spec.delta0 == 1e-300
            assert out.r_event == pytest.approx(5.536e-96, rel=1e-4)


def direct_rates(params, r, u, w):
    """(u', w') of the plus sign from direct powers: the reference for the logs."""
    n1 = params.n_dim - 1.0
    du = math.copysign((abs(w) * r ** -n1) ** (1.0 / (params.p - 1.0)), w)
    dw = params.amplitude * r ** (n1 + params.gamma) * math.copysign(abs(u) ** params.q, u)
    return du, dw


class TestLogRates:
    def test_matches_direct_powers(self):
        rng = np.random.default_rng(11)
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        checked = 0
        for _ in range(400):
            p = rng.uniform(1.1, 6.0)
            params = ProblemParams(n_dim=int(rng.integers(1, 11)), p=p,
                                   q=rng.uniform(p - 0.99, 40.0),
                                   gamma=rng.uniform(-p + 0.01, 3.0),
                                   amplitude=10.0 ** rng.uniform(-2, 2))
            r = 10.0 ** float(rng.uniform(-30, 30))
            u, w = (float(x) for x in 10.0 ** rng.uniform(-8, 8, 2) * rng.choice([-1.0, 1.0], 2))
            try:
                du, dw = direct_rates(params, r, u, w)
            except OverflowError:
                continue
            if not (tiny < abs(du) < huge and tiny < abs(dw) < huge):
                continue
            log_du, log_dw = _log_rates(params)(math.log(r), math.log(abs(u)), math.log(abs(w)))
            assert math.copysign(math.exp(log_du), w) == pytest.approx(du, rel=1e-12)
            assert math.copysign(math.exp(log_dw), u) == pytest.approx(dw, rel=1e-12)
            checked += 1
        assert checked > 200


class TestTrajectoryInvariants:
    def test_monotone_flux_sign(self):
        # -Delta_p u = source > 0 forces u' < 0; the forced-growth sign flips it.
        traj, _ = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        assert np.all(traj.w[1:] < 0)
        grow, _ = shoot(SUBCRITICAL, 1.0, r_max=2.0, sign=EquationSign.PLUS)
        assert np.all(grow.w[1:] > 0)

    def test_starts_on_series(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        u0, w0 = series_state(spec, traj.r[0])
        assert traj.r[0] == spec.delta0
        assert traj.u[0] == pytest.approx(u0, rel=1e-15)
        assert traj.w[0] == pytest.approx(w0, rel=1e-15)

    def test_trajectory_is_a_view_of_the_integrator_result(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        assert traj.spec is spec
        assert traj.r is traj.result.ts
        assert type(traj.r_cross) is float and traj.r_blow is None
        assert type(classify_outcome(traj).r_event) is float

    def test_continued_shot_keeps_its_spec(self):
        # K < 0 at q = 4.85 < q_E: still positive at r_max = 100, so the
        # shot continues from its last node to its crossing at r ~ 113.
        traj, spec = shoot(ProblemParams(n_dim=3, p=2.0, q=4.85), 1.0, r_max=100.0)
        assert traj.status == "finished"
        far = _continue(traj)
        assert far.spec is spec
        assert far.r_cross > spec.r_max
        assert classify_outcome(traj).r_event == far.r_cross

    def test_series_coefficients_closed_form(self):
        # p = 2, gamma = 0: u = u0 - u0^q r^2/(2N) + ..., w = -u0^q r^N/N + ...
        s, log_ku, log_kw = series_logs(SUBCRITICAL, 2.0)
        assert s == pytest.approx(2.0)
        assert math.exp(log_ku) == pytest.approx(2.0**3 / 6.0, rel=1e-14)
        assert math.exp(log_kw) == pytest.approx(2.0**3 / 3.0, rel=1e-14)

    def test_sample_agrees_with_nodes(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        mid = len(traj.r) // 2
        u, du, w = traj.sample(traj.r[mid])
        assert u[0] == pytest.approx(traj.u[mid], rel=1e-12)
        assert w[0] == pytest.approx(traj.w[mid], rel=1e-12)
        assert du[0] == pytest.approx(traj.du()[mid], rel=1e-12)

    def test_tolerance_convergence_of_crossing(self):
        radii = []
        for rtol in (1e-6, 1e-8, 1e-10):
            traj, spec = shoot(SUBCRITICAL, 1.0, rtol=rtol, atol=rtol * 1e-2)
            radii.append(classify_outcome(traj).r_event)
        d_coarse = abs(radii[0] - radii[2])
        d_fine = abs(radii[1] - radii[2])
        assert d_fine < d_coarse
        assert d_fine < 1e-6 * radii[2]


class TestFitSlope:
    def test_exact_on_an_affine_line(self):
        x = np.log(np.geomspace(1e3, 1e4, 64))
        slope = _fit_slope(x.tolist(), (-2.5 * x + 7.0).tolist())
        assert type(slope) is float
        assert abs(slope + 2.5) <= 4 * 2.5 * np.finfo(float).eps

    @pytest.mark.parametrize("points", [8, 64])
    def test_agrees_with_polyfit_on_a_final_decade(self, points):
        rng = np.random.default_rng(points)
        x = np.log(np.geomspace(10.0, 100.0, points))
        y = -0.4 * x + 0.3 + 0.01 * rng.standard_normal(points)
        ref = np.polyfit(x, y, 1)[0]
        assert abs(_fit_slope(x.tolist(), y.tolist()) - ref) <= 1e-13 * abs(ref)


def final_decade_traj(u, w, r_max=1e3):
    """A finished K >= 0 shot whose nodes on [r_max/10, r_max] carry u and w."""
    r = np.geomspace(r_max / 10.0, r_max, len(u))
    ys = np.column_stack([u, w])
    res = rk45.IntegrationResult(ts=r, ys=ys, fs=np.zeros_like(ys), status="finished")
    return Trajectory(IvpSpec(params=CRITICAL, u0=1.0, r_max=r_max), res)


DECAYING = np.geomspace(1.0, 0.1, 10)  # u = 100/r on the nodes of [100, 1e3]


class TestFinalDecade:
    # The K >= 0 verdict on a positive shot: u > 0 and w < 0 (u' has the sign
    # of w) on the final decade, read from the nodes, or from 64 dense samples
    # where the decade has fewer than 8 nodes.
    @pytest.mark.parametrize("u, w, kind, reason", [
        (DECAYING, [-1.0] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
        # |u'| = |w| / r^2 underflows to 0 here; the sign of w still says decreasing.
        (DECAYING, [-1e-320] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
        (DECAYING, [-1.0] * 4 + [1e-20] + [-1.0] * 5, "indeterminate",
         "u positive but not monotone in final decade"),
        (np.append(DECAYING[:-1], 0.0), [-1.0] * 10, "indeterminate",
         "sign behavior unresolved in final decade"),
    ])
    def test_verdict_on_the_nodes(self, u, w, kind, reason):
        traj = final_decade_traj(u, w)
        out = classify_outcome(traj)
        assert out.label == kind and out.reason.startswith(reason)
        if kind == "positive_decaying":
            assert out.tail_slope == pytest.approx(-1.0, rel=1e-13)

    FLAT_TAIL = IvpSpec(params=ProblemParams(3, 2.917, 220.0, 1.323), u0=0.718, r_max=1e3)

    def test_flat_tail_resamples_its_final_decade(self):
        # 17 nodes, 3 of them in the final decade: the verdict reads 64 Hermite
        # samples, of which 14 give w >= 0 at roundoff size.
        traj = integrate_ivp(self.FLAT_TAIL)
        assert traj.status == "finished"
        assert (traj.r.size, int(np.sum(traj.r >= 100.0))) == (17, 3)
        _, _, w = traj.sample(np.geomspace(100.0, traj.r[-1], 64))
        assert int(np.sum(w >= 0.0)) == 14 and w.max() < 1e-20

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: at u0 = 0.718 the flat K >= 0 tail is indeterminate "
        "('u positive but not monotone in final decade'); at u0 = 1 it is positive_decaying"))
    def test_flat_tail_is_positive_decaying(self):
        out = classify_outcome(integrate_ivp(self.FLAT_TAIL))
        assert out.kind is OutcomeKind.POSITIVE_DECAYING


class TestUnresolved:
    @pytest.mark.parametrize("q, sign, max_steps, what", [
        (3.0, EquationSign.PLUS, 40, "before blow-up"),            # stops in the r phase
        (3.0, EquationSign.PLUS, 150, "before blow-up"),           # stops in the log u phase
        (3.0, EquationSign.MINUS, 40, "before a crossing, although K=-0.5<0 forces one"),
        (5.0, EquationSign.MINUS, 40, "with K=0>=0"),
    ])
    def test_step_budget_runs_out(self, monkeypatch, q, sign, max_steps, what):
        monkeypatch.setattr(rk45, "_MAX_STEPS", max_steps)
        spec = IvpSpec(params=ProblemParams(3, 2.0, q), u0=1.0, sign=sign, r_max=30.0)
        traj = integrate_ivp(spec)
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.INDETERMINATE
        assert out.reason.startswith("integrator status max_steps at r=")
        assert out.reason.endswith(what)
        in_log_u = traj.blowup is not None
        assert in_log_u == (max_steps == 150)
        r_end = traj.blowup.ys[-1, 0] if in_log_u else traj.r[-1]
        assert f"at r={r_end:.6g} " in out.reason


class TestQuadrature:
    def test_rule_is_seven_point_gauss_legendre(self):
        # The reference below reuses _GL_X and _GL_W; pin them to an
        # independent source, bit for bit.
        x, w = np.polynomial.legendre.leggauss(7)
        assert _GL_X.tobytes() == x.tobytes()
        assert _GL_W.tobytes() == w.tobytes()

    def test_matches_per_panel_loop(self):
        # Reference: the series head, then one 7-point Gauss-Legendre panel per
        # node interval below r_end (the last cut at r_end), added in order,
        # with sol queried one point at a time.  r_end on a node, and inside a
        # node interval as pohozaev_residual's r_eval mostly is.
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        power, n = spec.params.q + 1.0, spec.params.n_dim
        k = len(traj.r) // 2
        for r_end in (traj.r[k], 0.5 * (traj.r[k] + traj.r[k + 1])):
            ref = _series_head(spec, power)
            for a, b in zip(traj.r[:-1], traj.r[1:]):
                if a >= r_end:
                    break
                b = min(b, r_end)
                pts = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
                u = np.array([traj.result.sol(t)[0] for t in pts])
                ref += 0.5 * (b - a) * float(_GL_W @ (pts ** (n - 1.0) * np.abs(u) ** power))
            got = _weighted_integral(traj, power, r_end)
            assert type(got) is float
            assert got == pytest.approx(ref, rel=64 * np.finfo(float).eps, abs=0)


class TestPohozaevResidual:
    def test_critical_balance(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        for r_eval in (1.0, 5.0, 50.0):
            rep = pohozaev_residual(traj, r_eval)
            assert rep.passed
            assert rep.rel_residual() <= 1e-6

    def test_subcritical_balance_inside_positivity(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        rep = pohozaev_residual(traj, 5.0, tol=1e-4)
        assert rep.passed
        assert rep.rel_residual() <= 1e-4

    @pytest.mark.parametrize("n,p,q,gamma", [
        (2, 3.0, 4.0, 0.0), (3, 3.0, 5.0, 0.0), (1, 2.0, 3.0, 0.0),
        (2, 2.5, 2.0, 1.0), (3, 4.0, 3.5, 0.5), (1, 1.5, 2.0, -0.5),
    ])
    def test_balance_at_n_at_most_p(self, n, p, q, gamma):
        # At N <= p, K < 0 and every shot crosses; the identity never divides by N - p.
        traj, spec = shoot(ProblemParams(n_dim=n, p=p, q=q, gamma=gamma), 1.0)
        rep = pohozaev_residual(traj, 0.5, tol=1e-6)
        assert rep.passed
        assert rep.lhs < 0
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.CROSSES_ZERO
        assert out.reason.endswith("<0")

    def test_returns_plain_python_scalars(self):
        # An r_eval inside a node interval ends the quadrature on a partial
        # panel, one at the last node on a whole one; both report plain types.
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        for r_eval in (float(0.5 * (traj.r[10] + traj.r[11])), float(traj.r[-1])):
            rep = pohozaev_residual(traj, r_eval)
            assert type(rep.passed) is bool and rep.passed
            assert type(rep.lhs) is float
            assert type(rep.residual) is float and type(rep.scale) is float
            assert rep.rel_residual() <= 1e-6

    def test_rejects_evaluation_at_crossing(self):
        # The terminal crossing is the last node; positivity fails exactly
        # there.  Past it, the sign change is still the cause, not the range end.
        traj, spec = shoot(SUBCRITICAL, 1.0)
        for r_eval in (float(traj.r[-1]), 10.0):
            with pytest.raises(PlapError, match=r"^u changes sign at r=6\.89685 <= r_eval$"):
                pohozaev_residual(traj, r_eval)

    def test_rejects_evaluation_outside_range(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(PlapError, match=r"^r_eval=.* outside integrated range \["):
            pohozaev_residual(traj, 0.5 * float(traj.r[0]))
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        assert traj.r_cross is None
        with pytest.raises(PlapError, match=r"^r_eval=200\.0 outside integrated range \["):
            pohozaev_residual(traj, 200.0)


class TestScaling:
    def test_exponent_value(self):
        assert scaling_exponent(CRITICAL) == pytest.approx(0.5)  # (p+gamma)/(q-p+1)
        assert scaling_exponent(SUBCRITICAL) == pytest.approx(1.0)

    def test_rescaled_spec_fields(self):
        spec = IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=40.0)
        lam = 2.0
        resc = rescaled_spec(spec, lam)
        assert resc.u0 == pytest.approx(lam ** scaling_exponent(SUBCRITICAL) * spec.u0)
        assert resc.r_max == pytest.approx(spec.r_max / lam)

    @pytest.mark.parametrize(
        "params,u0",
        [
            (ProblemParams(n_dim=3, p=2.0, q=6.0, gamma=0.0), 1.0),  # supercritical
            (SUBCRITICAL, 1.0),  # subcritical
        ],
    )
    def test_covariance_of_solution_map(self, params, u0):
        spec = IvpSpec(params=params, u0=u0, r_max=50.0)
        rep = scaling_covariance_report(spec)
        assert rep.passed
        assert rep.residual <= 1e-6


class TestSweep:
    def test_ordering_preserved(self):
        specs = [IvpSpec(params=SUBCRITICAL, u0=u0, r_max=30.0) for u0 in (2.0, 0.5)]
        out = sweep_outcomes(specs)
        assert out[0].r_event < out[1].r_event  # big u0 crosses first


class TestStepperWork:
    # The DP5 work of two reference runs, pinned so that a change to the
    # stage arithmetic that moves the step-size sequence shows here.
    def test_aubin_talenti_shot(self):
        traj, _ = shoot(CRITICAL, 3.0 ** 0.25, r_max=1e4)
        res = traj.result
        assert (res.n_steps, res.n_rejected, res.n_fev) == (322, 1, 1939)

    def test_sixty_four_point_q_sweep(self, monkeypatch):
        work = []
        integrate = rk45.integrate

        def counted(*args, **kwargs):
            res = integrate(*args, **kwargs)
            work.append((res.n_steps, res.n_fev))
            return res

        monkeypatch.setattr(rk45, "integrate", counted)
        specs = [IvpSpec(params=ProblemParams(3, 2.0, float(q)), u0=1.0, r_max=1e3)
                 for q in np.linspace(2.0, 6.0, 64)]
        labels = [out.label for out in sweep_outcomes(specs)]
        assert (labels.count("crosses_zero"), labels.count("positive_decaying")) == (48, 16)
        assert tuple(map(sum, zip(*work))) == (12884, 78161)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(u0=0.0),
            dict(u0=-1.0),
            dict(u0=1.0, r_max=-5.0),
            dict(u0=1.0, atol=0.0),
            dict(u0=1.0, max_step=0.0),
            dict(u0=1.0, rtol=0.0),
            dict(u0=math.inf),
            dict(u0=1.0, r_max=math.inf),
            dict(u0=1.0, rtol=math.inf),
            dict(u0=1.0, atol=math.inf),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            IvpSpec(params=SUBCRITICAL, **kw)

    def test_rejects_nonpositive_series_weight(self):
        # The origin series divides by N + gamma.
        with pytest.raises(ValueError, match="N \\+ gamma > 0"):
            IvpSpec(params=ProblemParams(n_dim=1, p=2.0, q=3.0, gamma=-1.5), u0=1.0)

    def test_defaults_populated(self):
        spec = IvpSpec(params=SUBCRITICAL, u0=2.0)
        assert spec.delta0 == pytest.approx(1e-6)
        assert spec.blowup_threshold == pytest.approx(2e8)
