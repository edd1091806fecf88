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
from plap import ivp, rk45
from plap.ivp import _rhs, series_logs
from plap.shooting import _GL_W, _GL_X, _fit_slope, _series_head, _weighted_integral

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
        assert out.r_event == traj.r_event

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
        from plap.taylor import taylor_launch, taylor_oracle

        params = ProblemParams(n_dim=3, p=2.0, q=4.85, gamma=0.0)
        traj, spec = shoot(params, 1.0, r_max=100.0)
        out = classify_outcome(traj)
        oracle = taylor_oracle(params, -1.0, *taylor_launch(params, 1.0, -1.0, spec.delta0), 1e4)
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj, spec = shoot(params, 1.631, r_max=100.0, sign=EquationSign.PLUS)
            out = classify_outcome(traj)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert spec.delta0 < out.r_event < spec.r_max
        assert traj.u[0] == pytest.approx(spec.u0, rel=2e-6)

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
        # rules out a first zero.  The bubble's tail is the p-harmonic profile
        # with no zero, 1 + (1-m) x^/r -> 0 from below; rounding puts it above
        # 0 and the zero closure stops at r = 5.0232.
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
    # the same launch, plus sign: blows up at r ~ 5.536e-96, the pole at u0 = 1 over mu
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
        # The shot's rates in its state y = (log(u/u0), log(|w| / (kw r^{N+gamma}))) are
        # y0' = u'/u and y1' = w'/w - (N+gamma)/r; the difference is compared to the
        # rounding of its two terms.
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
            u0, u, w_abs = (float(x) for x in 10.0 ** rng.uniform(-8, 8, 3))
            sign = EquationSign.MINUS if rng.random() < 0.5 else EquationSign.PLUS
            w = sign.value * w_abs
            try:
                du, dw = direct_rates(params, r, u, w)
            except OverflowError:
                continue
            ng = params.n_dim + params.gamma
            if not (tiny < abs(du) < huge and tiny < abs(dw) < huge) or ng <= 0:
                continue
            dw *= sign.value
            if not max(abs(du / u), abs(dw / w) + ng / r) < huge:  # a rate past the float range
                continue
            spec = IvpSpec(params=params, u0=u0, sign=sign)
            _, _, log_kw = series_logs(params, u0)
            y = (math.log(u / u0), math.log(w_abs) - log_kw - ng * math.log(r))
            dy0, dy1 = _rhs(spec)(r, y)
            assert dy0 == pytest.approx(du / u, rel=1e-12)
            assert dy1 == pytest.approx(dw / w - ng / r, rel=1e-12, abs=1e-12 * (dw / w + ng / r))
            checked += 1
        assert checked > 200


class TestRatesPastTheFloatRange:
    def test_shot_rhs_returns_an_inf_stage(self, monkeypatch):
        # A stage rate past the float range is returned as inf, which rk45
        # rejects, instead of raising OverflowError out of the shot.
        rhs = []
        integrate = rk45.integrate

        def capture(f, *args, **kwargs):
            rhs.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(rk45, "integrate", capture)
        for sign in (EquationSign.MINUS, EquationSign.PLUS):
            integrate_ivp(IvpSpec(params=SUBCRITICAL, u0=1.0, sign=sign))
        minus, plus = rhs
        assert minus(1e-300, (0.0, -1000.0)) == (math.inf, math.inf)  # y1' = 3/r expm1(1000)
        assert plus(1e-300, (0.0, 3000.0)) == (math.inf, math.inf)  # y0' = e^{1617}


class TestTrajectoryInvariants:
    def test_monotone_flux_sign(self):
        # -Delta_p u = source > 0 forces u' < 0; the forced-growth sign flips it.
        traj, _ = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        assert np.all(traj.w < 0) and np.all(traj.du() < 0)
        grow, _ = shoot(SUBCRITICAL, 1.0, r_max=2.0, sign=EquationSign.PLUS)
        assert np.all(grow.w > 0) and np.all(grow.du() > 0)

    def test_starts_on_series(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        s, log_ku, log_kw = series_logs(spec.params, spec.u0)
        assert traj.r[0] == spec.delta0
        assert traj.u[0] == pytest.approx(1.0 - math.exp(log_ku) * spec.delta0 ** s, rel=1e-15)
        assert traj.w[0] == pytest.approx(-math.exp(log_kw) * spec.delta0 ** 3, rel=1e-15)

    def test_trajectory_is_a_view_of_the_integrator_result(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        assert traj.spec is spec
        assert traj.r is traj.result.ts
        # The crossing is closed from the stop, the last node, where the
        # closure's error estimate has fallen to rtol.
        assert type(traj.r_event) is float and traj.r[-1] < traj.r_event
        assert traj._stop()[2] <= math.log(spec.rtol)
        assert classify_outcome(traj).r_event == traj.r_event
        # A K >= 0 shot that finished has no event.
        decay, _ = shoot(CRITICAL, 3**0.25, r_max=100.0)
        assert decay.status == "finished" and decay.r_event is None
        # A K >= 0 shot that crossed keeps its crossing, but its label does not rest on it.
        base = ProblemParams(n_dim=10, p=1.2, q=1.2, gamma=2.0)
        crossed, _ = shoot(base.replace(q=equation_critical(base)), 1.0, r_max=10.0)
        assert type(crossed.r_event) is float and crossed.r_event < 10.0
        out = classify_outcome(crossed)
        assert out.kind is OutcomeKind.INDETERMINATE and out.r_event is None

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

    def test_radii_of_any_shape_are_read_flattened(self):
        # A 2-D array of radii reads as its C-order ravel, for u, w and u'.
        traj, _ = shoot(CRITICAL, 3**0.25, r_max=100.0)
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        flat = grid.ravel()
        for got, want in zip(traj.sample(grid), traj.sample(flat)):
            assert got.shape == (4,) and np.array_equal(got, want)
        assert np.array_equal(traj.du(grid), traj.du(flat))

    def test_tolerance_convergence_of_crossing(self):
        radii = []
        for rtol in (1e-6, 1e-8, 1e-10):
            traj, spec = shoot(SUBCRITICAL, 1.0, rtol=rtol)
            radii.append(classify_outcome(traj).r_event)
        d_coarse = abs(radii[0] - radii[2])
        d_fine = abs(radii[1] - radii[2])
        assert d_fine < d_coarse
        assert d_fine < 1e-6 * radii[2]


class TestFitSlope:
    # The least-squares slope of y on x, summed by parts from dy/dx: a mean of
    # dy/dx with positive weights summing to 1, each difference of y the
    # trapezoid of dy/dx between samples.
    def test_exact_on_an_affine_line(self):
        x = np.log(np.geomspace(1e3, 1e4, 64)).tolist()
        slope = _fit_slope(x, [-2.5] * 64)
        assert type(slope) is float
        # two left-fold sums of 63 terms, each within 63 eps of its value
        assert abs(slope + 2.5) <= 2 * 63 * 2.5 * np.finfo(float).eps

    @pytest.mark.parametrize("points", [8, 64])
    def test_agrees_with_polyfit_on_a_final_decade(self, points):
        # y = -0.4 x + 0.05 sin 3x: a trapezoid over a step h errs by h^3 max|y'''| / 12,
        # max|y'''| = 1.35, so the weighted mean is within h^2 1.35 / 12 of the fit.
        x = np.log(np.geomspace(10.0, 100.0, points))
        y = -0.4 * x + 0.05 * np.sin(3.0 * x) + 0.3
        ref = np.polyfit(x, y, 1)[0]
        h = float(x[1] - x[0])
        slope = _fit_slope(x.tolist(), (-0.4 + 0.15 * np.cos(3.0 * x)).tolist())
        assert abs(slope - ref) <= h * h * 1.35 / 12.0

    def test_has_the_sign_of_a_flat_derivative(self):
        # y flat to rounding: its differences fit 0, its derivative fits < 0.
        x = np.log(np.geomspace(100.0, 1e3, 64)).tolist()
        assert _fit_slope(x, [-1e-300] * 64) < 0.0


def final_decade_traj(u, w, r_max=1e3):
    """A finished K >= 0 shot of CRITICAL from u0 = 1 whose nodes on
    [r_max/10, r_max] carry u and a constant w, in the shot's state, with the
    exact slopes of that state: y0' = u'/u = w/(r^2 u), y1' = -3/r."""
    r = np.geomspace(r_max / 10.0, r_max, len(u))
    u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
    ys = np.column_stack([np.log(u), np.log(3.0 * np.abs(w) / r ** 3)])  # kw = 1/3
    fs = np.column_stack([w / (r * r * u), -3.0 / r])
    res = rk45.IntegrationResult(ts=r, ys=ys, fs=fs, status="finished")
    return Trajectory(IvpSpec(params=CRITICAL, u0=1.0, r_max=r_max), res)


DECAYING = np.geomspace(1.0, 0.1, 10)  # u = 100/r on the nodes of [100, 1e3], w = r^2 u' = -100


class TestFinalDecade:
    # The K >= 0 verdict on a shot that reached r_max: u > 0 and u' < 0 by
    # construction, and the tail slope is d log u / d log r = -1/xi read at 64
    # log-spaced samples of the final decade, however many nodes it holds,
    # fitted by parts (TestFitSlope), so it is < 0.
    # test_settings_invariance.py holds it under the tolerance.
    @pytest.mark.parametrize("u, w, kind, reason", [
        (DECAYING, [-100.0] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
        # u flat to rounding: its differences fit a slope of 0; d log u / d log r = -2e-25/r.
        ([0.5] * 10, [-1e-25] * 10, "positive_decaying", "positive and decreasing on [100, 1000]"),
    ])
    def test_verdict_on_the_nodes(self, u, w, kind, reason):
        traj = final_decade_traj(u, w)
        out = classify_outcome(traj)
        assert out.kind.value == kind and out.reason.startswith(reason)
        if u is DECAYING:
            # log xi = log(u r / |w|) = 0 here.  The cubic Hermite interpolant of
            # y0 - y1 = 2 log r + const is within h^4 max|(2 log r)''''| / 384 =
            # (k-1)^4 / 32 of it on a step [a, a k], k = 10^(1/9), and the slope,
            # a mean of -e^{-log xi}, is -1 to that.
            k = 10.0 ** (1.0 / 9.0)
            assert abs(out.tail_slope + 1.0) <= math.expm1((k - 1.0) ** 4 / 32.0)
        else:
            assert -2e-27 <= out.tail_slope < -2e-28

    # One flat K >= 0 tail from each of the benchmark sweep's seeds 12, 20 and
    # 31: u moves by 4e-11, 3e-9 and 2e-16 relative over the final decade.
    FLAT_TAILS = [
        IvpSpec(params=ProblemParams(3, 2.917, 220.0, 1.323), u0=0.718, r_max=1e3),
        IvpSpec(params=ProblemParams(5, 4.864, 283.3, 0.327), u0=0.677, r_max=1e3),
        IvpSpec(params=ProblemParams(6, 5.885, 487.5, 0.753), u0=0.629, r_max=1e3),
    ]

    def test_flat_tail_resamples_its_final_decade(self):
        # At seed 31's point, 62 of the 63 differences of u between the
        # verdict's samples are >= 0 at rounding size; the slope summed from
        # d log u / d log r at the same samples is < 0.
        traj = integrate_ivp(self.FLAT_TAILS[2])
        assert traj.status == "finished"
        u, w = traj.sample(np.geomspace(100.0, traj.r[-1], 64))
        assert np.all(u > 0.0) and np.all(w < 0.0)
        assert int(np.sum(np.diff(u) >= 0.0)) == 62
        assert classify_outcome(traj).tail_slope < 0.0

    @pytest.mark.parametrize("spec", FLAT_TAILS, ids=("seed12", "seed20", "seed31"))
    def test_flat_tail_is_positive_decaying(self, spec):
        out = classify_outcome(integrate_ivp(spec))
        assert out.kind is OutcomeKind.POSITIVE_DECAYING, out.reason
        assert out.tail_slope < 0.0

    def test_tail_slope_below_the_float_range_is_indeterminate(self):
        # Near the origin d log u / d log r = -s (ku/u0) r^s + ...: at s = 2 the
        # slope of [1e-161, 1e-160] is subnormal, and from r_max = 1e-200 on
        # every sample of it underflows to -0, so its sign is not read.
        supercritical = ProblemParams(3, 2.0, 6.0)
        near, far = (classify_outcome(integrate_ivp(IvpSpec(params=supercritical, u0=1.0,
                                                            r_max=r_max)))
                     for r_max in (1e-160, 1e-200))
        assert near.kind is OutcomeKind.POSITIVE_DECAYING
        assert -1e-321 < near.tail_slope < 0.0
        assert far.kind is OutcomeKind.INDETERMINATE
        assert far.reason == "tail slope underflows to 0 on [1e-201, 1e-200], K=0.143>=0"
        # At s = 61 (p = 1.05, gamma = 2) u is flat to 1e-366 on [1e-7, 1e-6]:
        # each point of the line is labelled, and none ends the sweep.
        outs = sweep_outcomes([IvpSpec(params=ProblemParams(3, 1.05, q, 2.0), u0=1.0, r_max=1e-6)
                               for q in (150.0, 175.0, 200.0)])
        assert [out.kind for out in outs] == [OutcomeKind.INDETERMINATE] * 3
        assert all("underflows to 0" in out.reason for out in outs)


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
        traj = integrate_ivp(IvpSpec(params=params, u0=1.0, sign=EquationSign.PLUS))
        out = classify_outcome(traj)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_event == pytest.approx(r_blow, rel=5e-10)
        assert sum(steps) <= 1500 and traj.r.size <= 1500

    @pytest.mark.parametrize("params, c", [
        (CRITICAL, 0.5),  # u = (1 - r^2/3)^{-1/2}: beta u/u' = x (1 + x/(2R) + ...)
        (ProblemParams(1, 2.0, 5.0, 3.0), 1.125),  # only r^gamma bends the profile
        (ProblemParams(2, 3.0, 6.0, -1.5), -0.25),
    ])
    def test_closure_misses_by_c_eps_squared(self, monkeypatch, params, c):
        # Closed without its c term from a stop at x = eps r, the pole moves by
        # c eps^2 r (to leading order): c is derived with its sign.
        spec = IvpSpec(params=params, u0=1.0, sign=EquationSign.PLUS)
        assert ivp._pole(spec)[1] == pytest.approx(c, rel=1e-14)
        r_event = classify_outcome(integrate_ivp(spec)).r_event
        pole = ivp._pole
        monkeypatch.setattr(ivp, "_pole", lambda spec: (pole(spec)[0], 0.0))
        traj = integrate_ivp(spec)
        eps = (traj.r_event - traj.r[-1]) / traj.r[-1]
        assert traj.r_event - r_event == pytest.approx(c * eps ** 2 * traj.r[-1], rel=0.02)

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
        closure = ivp._closure

        def tighter(spec):
            def estimate(*logs):
                log_xr, log_err = closure(spec)(*logs)
                return log_xr, log_err + math.log(8.0)
            return estimate

        monkeypatch.setattr(ivp, "_closure", tighter)
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


# Minus launches that were outside the float range while a minus shot held w
# itself: w(delta0) overflowed, or it underflowed and the series term lost
# before w and w' were normal floats reached u0.  Every shot now holds
# log(|w| / (kw r^{N+gamma})), which starts at 0, so each is launched and
# gets the label K gives it.
MINUS_LAUNCHES = {
    # w(delta0) = exp(1772.2)
    "w_overflows": (ProblemParams(2, 7.596, 2237.0, 0.06534), 3.0, OutcomeKind.CROSSES_ZERO),
    # w' = exp(-2094) at the launch was a normal float only from r = 6e116 on
    "w_and_dw_underflow": (
        ProblemParams(4, 5.924603387043973, 1404.4275907914193, 1.9043013684303007),
        0.23634888595485518, OutcomeKind.CROSSES_ZERO),
    # w(delta0) = exp(-899.545); K = 2.18 > 0
    "series_term_lost": (ProblemParams(4, 1.687, 31.43, -1.443), 15.75,
                         OutcomeKind.POSITIVE_DECAYING),
}

# The same launches with the plus sign, and w(delta0) = exp(2608) at u0 = 5:
# each blows up where the scaling law u(r; u0) = u0 U(mu r),
# mu = u0^{(q-p+1)/(p+gamma)}, puts it.
PLUS_LAUNCHES = {case: MINUS_LAUNCHES[case][:2] for case in MINUS_LAUNCHES} | {
    "w_overflows_u0_5": (ProblemParams(2, 7.596, 2237.0, 0.06534), 5.0),
}

# At the 1e-300 floor of delta0 (s = 0.0204), u0 = 100 leaves the series term
# at exp(0.428) u0: the launch state is outside the float range, either sign.
FLOOR = ProblemParams(n_dim=8, p=7.2207, q=20.5385, gamma=-7.0939)


def event_radius_by_scaling_law(params, u0, sign):
    """(r_event(u0) mu, r_event(1)): equal by the scaling law."""
    radii = {}
    for height in (1.0, u0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = classify_outcome(integrate_ivp(IvpSpec(params=params, u0=height, sign=sign)))
        assert out.kind is (OutcomeKind.BLOWS_UP if sign is EquationSign.PLUS
                            else OutcomeKind.CROSSES_ZERO), out.reason
        radii[height] = out.r_event
    log_mu = (params.q - params.p + 1.0) / (params.p + params.gamma) * math.log(u0)
    return radii[u0] * math.exp(log_mu), radii[1.0]


class TestLaunchOutOfRange:
    @pytest.mark.parametrize("sign", list(EquationSign), ids=lambda sign: sign.name.lower())
    def test_is_indeterminate(self, sign):
        spec = IvpSpec(params=FLOOR, u0=100.0, sign=sign)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_ivp(spec)
            out = classify_outcome(traj)
            assert traj.r.tolist() == [1e-300] and traj.u.tolist() == [100.0]
            assert np.isnan(traj.w[0]) and np.isnan(traj.du()[0])
        assert traj.status == "launch_out_of_range"
        assert out.kind is OutcomeKind.INDETERMINATE
        assert out.reason == ("launch at delta0=1e-300 outside the float range: "
                              "series term exp(0.42785) u0")

    @pytest.mark.parametrize("case", sorted(MINUS_LAUNCHES))
    def test_minus_launch_is_labelled(self, case):
        params, u0, kind = MINUS_LAUNCHES[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = classify_outcome(integrate_ivp(IvpSpec(params=params, u0=u0)))
        assert out.kind is kind, out.reason
        if kind is OutcomeKind.CROSSES_ZERO:
            scaled, unit = event_radius_by_scaling_law(params, u0, EquationSign.MINUS)
            assert scaled == pytest.approx(unit, rel=1e-6)

    @pytest.mark.parametrize("case", sorted(PLUS_LAUNCHES))
    def test_plus_launch_follows_the_scaling_law(self, case):
        params, u0 = PLUS_LAUNCHES[case]
        scaled, unit = event_radius_by_scaling_law(params, u0, EquationSign.PLUS)
        assert scaled == pytest.approx(unit, rel=1e-6)

    def test_one_point_does_not_cost_its_line(self):
        outs = sweep_outcomes([IvpSpec(params=FLOOR, u0=u0, sign=EquationSign.PLUS)
                               for u0 in (30.0, 100.0)])
        assert [out.kind.value for out in outs] == ["blows_up", "indeterminate"]
        assert outs[0].r_event == pytest.approx(1.37652e-266, rel=1e-5)

    @pytest.mark.parametrize("params, u0, sign", [
        # w(delta0) = -0.0: the shot runs and crosses.
        R_MAX_CASES["minus_small_series_exponent"][:3],
        # w(delta0) = exp(-905) and w' = exp(-890) underflow; the blow-up is at 7.3e46.
        (ProblemParams(2, 6.375538976868411, 767.6921892956606, 1.3134524640956668),
         0.32709163338828173, EquationSign.PLUS),
    ])
    def test_underflow_the_shot_rebuilds_is_launched(self, params, u0, sign):
        traj = integrate_ivp(IvpSpec(params=params, u0=u0, sign=sign))
        assert abs(traj.w[0]) < np.finfo(float).tiny
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
            ref = _series_head(spec)
            for a, b in zip(traj.r[:-1], traj.r[1:]):
                if a >= r_end:
                    break
                b = min(b, r_end)
                pts = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
                u = np.array([traj.sample(t)[0][0] for t in pts])
                ref += 0.5 * (b - a) * float(_GL_W @ (pts ** (n - 1.0) * u ** power))
            got = _weighted_integral(traj, r_end)
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

    def test_rejects_a_plus_shot(self):
        traj = integrate_ivp(IvpSpec(params=SUBCRITICAL, u0=1.0, sign=EquationSign.PLUS))
        with pytest.raises(PlapError, match="^Pohozaev identity is stated for the minus equation$"):
            pohozaev_residual(traj, 1.0)

    def test_rejects_evaluation_at_crossing(self):
        # The crossing is closed from the last node, where u > 0; positivity
        # fails exactly at the crossing.  Past it, the sign change is still the
        # cause, not the range end; between the last node and it, the range end.
        traj, spec = shoot(SUBCRITICAL, 1.0)
        assert pohozaev_residual(traj, float(traj.r[-1]), tol=1e-4).passed
        for r_eval in (traj.r_event, 10.0):
            with pytest.raises(PlapError, match=r"^u changes sign at r=6\.89685 <= r_eval$"):
                pohozaev_residual(traj, r_eval)
        with pytest.raises(PlapError, match=r"^shot ends at 6\.83908 before 6\.85: outcome "):
            pohozaev_residual(traj, 6.85)

    def test_rejects_evaluation_outside_range(self):
        # The shot's own range check (Trajectory.sample) raises, naming its outcome.
        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(PlapError, match=(
                r"^shot starts at 1e-06 after 5e-07: outcome crosses_zero: crossed at ")):
            pohozaev_residual(traj, 0.5 * float(traj.r[0]))
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        assert traj.r_event is None
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
        assert (resc.params, resc.sign, resc.rtol) == (spec.params, spec.sign, spec.rtol)

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

    def test_rescaling_names_the_floor_of_the_callers_r_max(self):
        # At s = 2 the rescaled shot's r_max is r_max/2, which needs r_max >= 2e-294
        # for the 1e-294 floor of IvpSpec; the error names the caller's r_max.
        spec = IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=1.5e-294)
        msg = r"^need r_max >= 2e-294 \(s 1e-294 at s=2\) to rescale, got 1\.5e-294$"
        with pytest.raises(ValueError, match=msg):
            scaling_covariance_report(spec)
        with pytest.raises(ValueError, match=msg):
            rescaled_spec(spec, 2.0)
        assert scaling_covariance_report(IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=2e-294)).passed


class TestSweep:
    def test_ordering_preserved(self):
        specs = [IvpSpec(params=SUBCRITICAL, u0=u0, r_max=30.0) for u0 in (2.0, 0.5)]
        out = sweep_outcomes(specs)
        assert out[0].r_event < out[1].r_event  # big u0 crosses first


class TestStepperWork:
    # The DP5 work of two reference runs, pinned so that a change to the
    # stage arithmetic that moves the step-size sequence shows here.  The
    # bubble's tail u ~ 1/r is held to rtol relative out to r = 1e4, and each
    # crossing of the sweep is approached in log u until its closure is
    # within rtol.
    def test_aubin_talenti_shot(self):
        traj, _ = shoot(CRITICAL, 3.0 ** 0.25, r_max=1e4)
        res = traj.result
        assert (res.n_steps, res.n_rejected, res.n_fev) == (439, 1, 2641)

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
        assert tuple(map(sum, zip(*work))) == (16811, 101266)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(u0=0.0),
            dict(u0=-1.0),
            dict(u0=1.0, r_max=-5.0),
            dict(u0=1.0, rtol=-1e-10),
            dict(u0=1.0, max_step=0.0),
            dict(u0=1.0, rtol=0.0),
            dict(u0=math.inf),
            dict(u0=1.0, r_max=math.inf),
            dict(u0=1.0, rtol=math.inf),
            dict(u0=1.0, rtol=math.nan),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            IvpSpec(params=SUBCRITICAL, **kw)

    @pytest.mark.parametrize("r_max", [1e-295, 1e-310, 1e-320])
    def test_rejects_an_r_max_below_the_launch_floor(self, r_max):
        # delta0 = 1e-6 r_max would fall below 1e-300: subnormal at 1e-310, where
        # no step advances r, and 0 at 1e-320.
        with pytest.raises(ValueError, match=rf"^need finite r_max >= 1e-294, got {r_max}: "):
            IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=r_max)
        spec = IvpSpec(params=SUBCRITICAL, u0=1.0, r_max=1e-294)
        assert spec.delta0 == 1e-300
        assert classify_outcome(integrate_ivp(spec)).r_event == pytest.approx(R_CROSS[1.0],
                                                                              rel=1e-8)

    def test_rejects_nonpositive_series_weight(self):
        # The origin series divides by N + gamma.
        with pytest.raises(ValueError, match="N \\+ gamma > 0"):
            IvpSpec(params=ProblemParams(n_dim=1, p=2.0, q=3.0, gamma=-1.5), u0=1.0)

    def test_has_no_absolute_tolerance(self):
        # Every tolerance is relative: rtol bounds each step's error in log u and log|w|.
        with pytest.raises(TypeError, match="atol"):
            IvpSpec(params=SUBCRITICAL, u0=1.0, atol=1e-12)

    def test_defaults_populated(self):
        spec = IvpSpec(params=SUBCRITICAL, u0=2.0)
        assert spec.delta0 == pytest.approx(1e-6)
