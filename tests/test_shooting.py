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
from plap import rk45, shooting
from plap.shooting import (
    _GL_W,
    _GL_X,
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
R_BLOW = 2.5748367419372165  # the pole, as the Taylor oracle reads it


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
        u, _ = traj.sample(r)
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
        oracle = taylor_oracle(params, -1.0, *taylor_launch(params, 1.0, -1.0, 1e4), 1e4)
        assert out.kind is OutcomeKind.CROSSES_ZERO
        assert oracle.event == "crosses_zero"
        assert out.r_event == pytest.approx(oracle.r[-1], rel=1e-6)

    def test_blowup_radius_matches_closed_form(self):
        # u = (1 - r^2/3)^{-1/2} solves Delta u = u^5 in R^3 (the Aubin-Talenti
        # profile with r^2 -> -r^2), and has its pole at r^2 = 3.
        traj, spec = shoot(CRITICAL, 1.0, r_max=100.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj)
        assert out.r_event == pytest.approx(math.sqrt(3.0), rel=1e-9)

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

    @pytest.mark.parametrize("case", sorted(case for case, (*_, kind) in R_MAX_CASES.items()
                                            if kind is not OutcomeKind.POSITIVE_DECAYING))
    def test_event_radius(self, case):
        # A shot with an event is one integration to it: r_max enters only
        # through delta0 = 1e-6 min(1, r_max), so the radius is the same float.
        params, u0, sign, _ = R_MAX_CASES[case]
        radii = {classify_outcome(shoot(params, u0, r_max=r_max, sign=sign)[0]).r_event
                 for r_max in (1e2, 1e3, 1e4, 1e5)}
        assert len(radii) == 1, radii


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

    def test_series_coefficients_closed_form(self):
        # p = 2, gamma = 0: u = u0 - u0^q r^2/(2N) + ..., w = -u0^q r^N/N + ...
        s, log_ku, log_kw = series_logs(SUBCRITICAL, 2.0)
        assert s == pytest.approx(2.0)
        assert math.exp(log_ku) == pytest.approx(2.0**3 / 6.0, rel=1e-14)
        assert math.exp(log_kw) == pytest.approx(2.0**3 / 3.0, rel=1e-14)

    def test_sample_agrees_with_nodes(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        mid = len(traj.r) // 2
        (u, w), du = traj.sample(traj.r[mid]), traj.du(traj.r[mid])
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
    """A finished K >= 0 shot whose nodes on [r_max/10, r_max] carry u and w,
    with the exact slopes of u ~ 1/r and of a constant w."""
    r = np.geomspace(r_max / 10.0, r_max, len(u))
    ys = np.column_stack([u, w])
    fs = np.column_stack([-np.asarray(u) / r, np.zeros_like(r)])
    res = rk45.IntegrationResult(ts=r, ys=ys, fs=fs, status="finished")
    return Trajectory(IvpSpec(params=CRITICAL, u0=1.0, r_max=r_max), res)


DECAYING = np.geomspace(1.0, 0.1, 10)  # u = 100/r on the nodes of [100, 1e3]


def fit_gain(r_max):
    """sum |c_i| of the tail fit slope = sum c_i log u(r_i) on 64 log-spaced
    radii of [r_max/10, r_max]: an error e_i in log u moves it by at most
    this times max |e_i|."""
    x = np.log(np.geomspace(r_max / 10.0, r_max, 64))
    xc = x - x.mean()
    return float(np.abs(xc).sum() / (xc @ xc))


class TestFinalDecade:
    # The K >= 0 verdict on a positive shot: u > 0 and w < 0 (u' has the sign
    # of w) at 64 log-spaced samples of the final decade, however many nodes
    # it holds.  The slope is the fit on those samples (TestFitSlope), so it
    # carries the interpolant's error; test_settings_invariance.py holds it
    # under the tolerance.
    @pytest.mark.parametrize("u, w, kind, reason", [
        (DECAYING, [-1.0] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
        # |u'| = |w| / r^2 underflows to 0 here; the sign of w still says decreasing.
        (DECAYING, [-1e-320] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
        # w > 0 only within 1e-10 of the fifth node, which sample 28 of 64 meets (63 = 7 * 9)
        (DECAYING, [-1.0] * 4 + [1e-20] + [-1.0] * 5, "indeterminate",
         "u positive but not monotone in final decade"),
        (np.append(DECAYING[:-1], 0.0), [-1.0] * 10, "indeterminate",
         "sign behavior unresolved in final decade"),
    ])
    def test_verdict_on_the_nodes(self, u, w, kind, reason):
        traj = final_decade_traj(u, w)
        out = classify_outcome(traj)
        assert out.kind.value == kind and out.reason.startswith(reason)
        if kind == "positive_decaying":
            # u = 100/r has |u''''| <= 2400/a^5 on a step [a, a k], k = 10^(1/9),
            # so the cubic Hermite interpolant is within h^4 max|u''''| / 384 =
            # k (k-1)^4 / 16 of u there, relative: log u by at most e / (1 - e).
            k = 10.0 ** (1.0 / 9.0)
            e = k * (k - 1.0) ** 4 / 16.0
            assert abs(out.tail_slope + 1.0) <= fit_gain(1e3) * e / (1.0 - e)

    FLAT_TAIL = IvpSpec(params=ProblemParams(3, 2.917, 220.0, 1.323), u0=0.718, r_max=1e3)

    def test_flat_tail_resamples_its_final_decade(self):
        # 17 nodes, 3 of them in the final decade: of the verdict's 64 Hermite
        # samples, 14 give w >= 0 at roundoff size.
        traj = integrate_ivp(self.FLAT_TAIL)
        assert traj.status == "finished"
        assert (traj.r.size, int(np.sum(traj.r >= 100.0))) == (17, 3)
        _, w = traj.sample(np.geomspace(100.0, traj.r[-1], 64))
        assert int(np.sum(w >= 0.0)) == 14 and w.max() < 1e-20

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: at u0 = 0.718 the flat K >= 0 tail is indeterminate "
        "('u positive but not monotone in final decade'); at u0 = 1 it is positive_decaying"))
    def test_flat_tail_is_positive_decaying(self):
        out = classify_outcome(integrate_ivp(self.FLAT_TAIL))
        assert out.kind is OutcomeKind.POSITIVE_DECAYING


def plus_bubble(n, p, gamma):
    """The params of U = (1 - r^s)^{-(N-p)/(p+gamma)}, s = (p+gamma)/(p-1), which
    solves Delta_p U = K r^gamma U^{q_E} with its pole at r = 1 and
    K = (N+gamma)((N-p)/(p-1))^{p-1}; u0 U(mu r) has its pole at 1/mu, mu = u0^{p/(N-p)}."""
    k = (n + gamma) * ((n - p) / (p - 1.0)) ** (p - 1.0)
    return ProblemParams(n, p, equation_critical(ProblemParams(n, p, p, gamma)), gamma, k)


PLUS_BUBBLES = [(3, 2.0, 0.0), (3, 1.5, 0.0), (4, 3.0, 1.0), (5, 1.8, -1.0), (8, 1.2, 0.0),
                (10, 1.2, 2.0), (3, 2.9, 0.0), (6, 5.5, 0.5), (4, 1.3, -1.2), (7, 2.0, 3.0)]


class TestBlowupClosure:
    # Plus shots at u0 = 1 against the same code at rtol = 1e-13.  An integration
    # in s = log u up to u = 1e8 took 366, 972, 3115, 11405 and 55938 steps at
    # the five q; the last two rows are the pole's, not the 1e8 level's, radii.
    @pytest.mark.parametrize("params, r_blow", [
        (ProblemParams(3, 2.971, 3.0), 4.838761571237067),
        (ProblemParams(3, 2.971, 124.7), 0.16124542463970637),
        (ProblemParams(3, 2.971, 510.0), 0.06269353908002374),
        (ProblemParams(3, 2.971, 2000.0), 0.025260903277248215),
        (ProblemParams(3, 2.971, 1e4), 0.008678647668431854),
        (ProblemParams(10, 1.2, 20.0, 2.0), 2.081237478966106),  # c = 86, p(1+beta) = 1.27
        (ProblemParams(4, 3.0, 2.5, 1.0), 6.571649595870283),  # beta = 6
        (ProblemParams(5, 1.8, 1.5, -1.0), 12.750574747130099),
    ])
    def test_cost_does_not_grow_with_q(self, monkeypatch, params, r_blow):
        steps = []
        integrate = rk45.integrate

        def counted(*args, **kwargs):
            res = integrate(*args, **kwargs)
            steps.append(res.n_steps)
            return res

        monkeypatch.setattr(rk45, "integrate", counted)
        out = classify_outcome(integrate_ivp(IvpSpec(params=params, u0=1.0,
                                                     sign=EquationSign.PLUS)))
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_event == pytest.approx(r_blow, rel=5e-10)
        assert sum(steps) <= 1500

    @pytest.mark.parametrize("params, c", [
        (CRITICAL, 0.5),  # u = (1 - r^2/3)^{-1/2}: beta u/u' = x (1 + x/(2R) + ...)
        (ProblemParams(1, 2.0, 5.0, 3.0), 1.125),  # only r^gamma bends the profile
        (ProblemParams(2, 3.0, 6.0, -1.5), -0.25),
    ])
    def test_closure_misses_by_c_eps_squared(self, monkeypatch, params, c):
        # Closed without its c term from a stop at x = eps r, the pole moves by
        # c eps^2 r (to leading order): c is derived with its sign.
        spec = IvpSpec(params=params, u0=1.0, sign=EquationSign.PLUS)
        assert shooting._pole(spec)[1] == pytest.approx(c, rel=1e-14)
        r_event = classify_outcome(integrate_ivp(spec)).r_event
        pole = shooting._pole
        monkeypatch.setattr(shooting, "_pole", lambda spec: (pole(spec)[0], 0.0))
        traj = integrate_ivp(spec)
        eps = (traj.r_blow - traj.r[-1]) / traj.r[-1]
        assert traj.r_blow - r_event == pytest.approx(c * eps ** 2 * traj.r[-1], rel=0.02)

    @pytest.mark.parametrize("params", [
        CRITICAL,  # c = 0.5
        ProblemParams(1, 2.0, 5.0, 3.0),  # c = 1.125
        ProblemParams(2, 3.0, 6.0, -1.5),  # c = -0.25
        ProblemParams(10, 1.2, 20.0, 2.0),  # c = 86, and the free mode sets the stop
    ])
    def test_tighter_stop_keeps_the_radius(self, monkeypatch, params):
        # The stop bounds the closure's error by rtol: a stop 8 times tighter
        # moves the reported pole by less than rtol.
        spec = IvpSpec(params=params, u0=1.0, sign=EquationSign.PLUS)
        traj = integrate_ivp(spec)
        r_event = classify_outcome(traj).r_event
        closure = shooting._closure

        def tighter(spec):
            def estimate(*logs):
                log_xr, log_err = closure(spec)(*logs)
                return log_xr, log_err + math.log(8.0)
            return estimate

        monkeypatch.setattr(shooting, "_closure", tighter)
        tight = integrate_ivp(spec)
        assert traj.r[-1] < tight.r[-1] < r_event
        assert abs(classify_outcome(tight).r_event - r_event) <= 1e-9 * r_event

    @pytest.mark.parametrize("n, p, gamma", PLUS_BUBBLES)
    def test_pole_of_the_plus_bubble(self, n, p, gamma):
        for u0 in (1.0, 3.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = classify_outcome(integrate_ivp(IvpSpec(
                    params=plus_bubble(n, p, gamma), u0=u0, sign=EquationSign.PLUS)))
            assert out.kind is OutcomeKind.BLOWS_UP
            assert abs(out.r_event * u0 ** (p / (n - p)) - 1.0) <= 1e-8

    def test_values_past_the_float_range_are_inf(self):
        # beta = 570: u, w and u' pass the float range well before the stop,
        # which reads the log state alone.
        params = ProblemParams(3, 2.072164112874803, 1.0758002753686793, 1.5794952749235265)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_ivp(IvpSpec(params=params, u0=1.0306804667624052,
                                         sign=EquationSign.PLUS, r_max=1e3))
            (u, w), du = traj.sample(traj.r[-1]), traj.du(traj.r[-1])
            out = classify_outcome(traj)
            assert np.isinf(traj.u[-1]) and np.isinf(traj.du()[-1]) and np.isinf(traj.w[-1])
        assert np.isinf(u[0]) and np.isinf(du[0]) and np.isinf(w[0])
        assert traj.r.size <= 4000
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_event == pytest.approx(51.7502144, rel=1e-8)


# Minus launches outside the float range: w(delta0) overflows, or it underflows
# and the series term lost before w and w' are normal floats reaches u0.
LAUNCH_FAULTS = {
    "w_overflows": (ProblemParams(2, 7.596, 2237.0, 0.06534), 3.0, EquationSign.MINUS,
                    "w(delta0)=exp(1772.2)"),
    # w' = exp(-2094) at the launch is a normal float only from r = 6e116 on
    "w_and_dw_underflow": (
        ProblemParams(4, 5.924603387043973, 1404.4275907914193, 1.9043013684303007),
        0.23634888595485518, EquationSign.MINUS, "series term exp(16.2994) u0"),
    "series_term_lost": (ProblemParams(4, 1.687, 31.43, -1.443), 15.75, EquationSign.MINUS,
                         "w(delta0)=exp(-899.545), series term exp(12.735) u0"),
}

# The same launches with the plus sign, and w(delta0) = exp(2608) at u0 = 5: a
# plus shot holds log w, so each is launched and blows up where the scaling
# law u(r; u0) = u0 U(mu r), mu = u0^{(q-p+1)/(p+gamma)}, puts it.
PLUS_LAUNCHES = {case: LAUNCH_FAULTS[case][:2] for case in LAUNCH_FAULTS} | {
    "w_overflows_u0_5": (ProblemParams(2, 7.596, 2237.0, 0.06534), 5.0),
}


class TestLaunchOutOfRange:
    @pytest.mark.parametrize("case", sorted(LAUNCH_FAULTS))
    def test_is_indeterminate(self, case):
        params, u0, sign, fault = LAUNCH_FAULTS[case]
        spec = IvpSpec(params=params, u0=u0, sign=sign)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_ivp(spec)
            out = classify_outcome(traj)
        assert traj.status == "launch_out_of_range"
        assert traj.r.tolist() == [spec.delta0] and traj.u.tolist() == [u0]
        assert out.kind is OutcomeKind.INDETERMINATE
        assert out.reason.startswith(f"launch at delta0={spec.delta0:.6g} outside the float range: ")
        assert fault in out.reason

    @pytest.mark.parametrize("case", sorted(PLUS_LAUNCHES))
    def test_plus_launch_follows_the_scaling_law(self, case):
        params, u0 = PLUS_LAUNCHES[case]
        radii = {}
        for height in (1.0, u0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = classify_outcome(integrate_ivp(IvpSpec(params=params, u0=height,
                                                             sign=EquationSign.PLUS)))
            assert out.kind is OutcomeKind.BLOWS_UP, out.reason
            radii[height] = out.r_event
        log_mu = (params.q - params.p + 1.0) / (params.p + params.gamma) * math.log(u0)
        assert radii[u0] * math.exp(log_mu) == pytest.approx(radii[1.0], rel=1e-6)

    def test_one_point_does_not_cost_its_line(self):
        params = LAUNCH_FAULTS["w_overflows"][0]
        outs = sweep_outcomes([IvpSpec(params=params, u0=u0) for u0 in (1.0, 3.0, 5.0)])
        assert [out.kind.value for out in outs] == ["crosses_zero", "indeterminate", "indeterminate"]
        assert outs[0].r_event == pytest.approx(8.80036, rel=1e-6)

    @pytest.mark.parametrize("params, u0, sign", [
        # w(delta0) = -0.0, and the series term lost up to the first normal w
        # is 1.5e-5 u0: the shot runs and crosses.
        R_MAX_CASES["minus_small_series_exponent"][:3],
        # w(delta0) = exp(-905) and w' = exp(-890) underflow, but both are
        # normal floats from r = 1e28 on, far before the blow-up at 7.3e46.
        (ProblemParams(2, 6.375538976868411, 767.6921892956606, 1.3134524640956668),
         0.32709163338828173, EquationSign.PLUS),
    ])
    def test_underflow_the_shot_rebuilds_is_launched(self, params, u0, sign):
        traj = integrate_ivp(IvpSpec(params=params, u0=u0, sign=sign))
        assert abs(series_state(traj.spec, traj.spec.delta0)[1]) < np.finfo(float).tiny
        assert traj.status in ("finished", "event") and traj.r.size > 1


class TestUnresolved:
    @pytest.mark.parametrize("q, sign, max_steps, what", [
        (3.0, EquationSign.PLUS, 40, "before blow-up"),
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
        assert f"at r={traj.r[-1]:.6g} " in out.reason


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
        # The shot's own range check (Trajectory.sample) raises, naming its outcome.
        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(PlapError, match=(
                r"^shot starts at 1e-06 after 5e-07: outcome crosses_zero: crossed at ")):
            pohozaev_residual(traj, 0.5 * float(traj.r[0]))
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        assert traj.r_cross is None
        with pytest.raises(PlapError, match=(
                r"^shot ends at 100 before 200: outcome positive_decaying: positive ")):
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

    def test_rescaled_spec_keeps_the_step_cap_in_rescaled_units(self):
        spec = IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=40.0, max_step=0.1)
        resc = rescaled_spec(spec, 2.0)
        assert resc.max_step == 0.05
        assert (resc.params, resc.sign, resc.rtol, resc.atol) == (
            spec.params, spec.sign, spec.rtol, spec.atol)

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
        labels = [out.kind.value for out in sweep_outcomes(specs)]
        assert (labels.count("crosses_zero"), labels.count("positive_decaying")) == (48, 16)
        assert len(work) == 64  # one integration per point, to its event or to r_max
        assert tuple(map(sum, zip(*work))) == (12884, 78154)


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
