"""Radial shooting: outcomes, frozen event radii, invariants, scaling."""

import math

import numpy as np
import pytest

from plap import (
    CrossedZero,
    EquationSign,
    IvpSpec,
    NotDecaying,
    Outcome,
    OutcomeKind,
    ProblemParams,
    classify_outcome,
    conservation_report,
    decay_slope_report,
    integrate_ivp,
    pohozaev_residual,
    rescaled_spec,
    scaling_covariance_report,
    scaling_exponent,
    sweep_outcomes,
)
from plap.shooting import (
    _GL_W,
    _GL_X,
    _cumulative_integral,
    _series_head,
    series_coefficients,
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
        out = classify_outcome(traj, spec)
        assert out.kind is OutcomeKind.CROSSES_ZERO
        assert out.r_cross == pytest.approx(R_CROSS[u0], rel=1e-8)
        assert out.r_event == out.r_cross

    def test_crossing_scales_inversely_with_amplitude(self):
        # For q = 3, p = 2 the rescaling u -> lam u maps r -> r / lam exactly.
        assert R_CROSS[0.5] == pytest.approx(2.0 * R_CROSS[1.0], rel=1e-8)
        assert R_CROSS[2.0] == pytest.approx(0.5 * R_CROSS[1.0], rel=1e-8)

    def test_critical_shot_decays(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        out = classify_outcome(traj, spec)
        assert out.kind is OutcomeKind.POSITIVE_DECAYING
        assert out.tail_slope == pytest.approx(-1.0, abs=5e-3)

    def test_critical_trajectory_matches_exact_solution(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        r = np.geomspace(1e-3, 99.0, 200)
        u, _, _ = traj.sample(spec.params, r)
        exact = 3**0.25 / np.sqrt(1.0 + r**2)
        assert np.max(np.abs(u / exact - 1.0)) < 1e-6

    def test_forced_growth_blows_up(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=10.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj, spec)
        assert out.kind is OutcomeKind.BLOWS_UP
        assert out.r_blow == pytest.approx(R_BLOW, rel=1e-8)

    def test_short_range_growth_is_indeterminate(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=1.0, sign=EquationSign.PLUS)
        out = classify_outcome(traj, spec)
        assert out.kind is OutcomeKind.INDETERMINATE
        assert "not monotone" in out.reason

    def test_outcome_field_consistency(self):
        with pytest.raises(ValueError):
            Outcome(OutcomeKind.CROSSES_ZERO)
        with pytest.raises(ValueError):
            Outcome(OutcomeKind.POSITIVE_DECAYING, tail_slope=0.5)


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
        assert traj.r is traj.result.ts
        assert type(traj.r_cross) is float and traj.r_blow is None
        assert type(classify_outcome(traj, spec).r_cross) is float

    def test_series_coefficients_closed_form(self):
        # p = 2, gamma = 0: u = u0 - u0^q r^2/(2N) + ...
        ku, s = series_coefficients(IvpSpec(params=SUBCRITICAL, u0=2.0))
        assert s == pytest.approx(2.0)
        assert ku == pytest.approx(2.0**3 / 6.0, rel=1e-14)

    def test_sample_agrees_with_nodes(self):
        traj, spec = shoot(SUBCRITICAL, 1.0, r_max=5.0)
        mid = len(traj.r) // 2
        u, du, w = traj.sample(spec.params, traj.r[mid])
        assert u[0] == pytest.approx(traj.u[mid], rel=1e-12)
        assert w[0] == pytest.approx(traj.w[mid], rel=1e-12)
        assert du[0] == pytest.approx(traj.du(spec.params)[mid], rel=1e-12)

    @pytest.mark.parametrize(
        "params,u0,r_max",
        [
            (CRITICAL, 3**0.25, 100.0),
            (SUBCRITICAL, 1.0, 30.0),
            (ProblemParams(n_dim=4, p=1.5, q=2.0, gamma=0.5), 1.0, 10.0),
            (ProblemParams(n_dim=5, p=3.0, q=4.0, gamma=1.0), 2.0, 20.0),
        ],
    )
    def test_conservation(self, params, u0, r_max):
        traj, spec = shoot(params, u0, r_max=r_max)
        rep = conservation_report(traj, spec)
        assert rep.passed, rep.note

    def test_tolerance_convergence_of_crossing(self):
        radii = []
        for rtol in (1e-6, 1e-8, 1e-10):
            traj, spec = shoot(SUBCRITICAL, 1.0, rtol=rtol, atol=rtol * 1e-2)
            radii.append(classify_outcome(traj, spec).r_cross)
        d_coarse = abs(radii[0] - radii[2])
        d_fine = abs(radii[1] - radii[2])
        assert d_fine < d_coarse
        assert d_fine < 1e-6 * radii[2]


class TestDecayReport:
    def test_critical_slopes(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        rep = decay_slope_report(traj, spec)
        assert rep.passed
        assert rep.lhs == pytest.approx(-1.0, abs=5e-3)  # u-slope
        assert rep.rhs == pytest.approx(-2.0, abs=2e-2)  # u'-slope

    def test_supercritical_slow_decay(self):
        pr = ProblemParams(n_dim=3, p=2.0, q=6.0, gamma=0.0)
        traj, spec = shoot(pr, 1.0, r_max=1e4)
        rep = decay_slope_report(traj, spec)
        assert rep.passed, rep.note
        # target slope (gamma+p)/(p-1-q) = -0.4; measured settles just below
        assert rep.lhs <= -0.4 + rep.tol

    def test_crossing_trajectory_rejected(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(NotDecaying):
            decay_slope_report(traj, spec)


class TestQuadrature:
    def test_matches_per_panel_loop(self):
        # Reference: one 7-point Gauss-Legendre panel per node interval, added
        # in order to the series head, with sol queried one point at a time.
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        q, n = spec.params.q, spec.params.n_dim
        ref = [_series_head(spec, q)]
        for a, b in zip(traj.r[:-1], traj.r[1:]):
            pts = 0.5 * (a + b) + 0.5 * (b - a) * _GL_X
            u = np.array([traj.result.sol(t)[0] for t in pts])
            ref.append(ref[-1] + 0.5 * (b - a) * float(_GL_W @ (pts ** (n - 1.0) * u**q)))
        got = _cumulative_integral(traj, spec, q, signed=True, edges=traj.r)
        np.testing.assert_allclose(got, ref, rtol=64 * np.finfo(float).eps, atol=0)


class TestPohozaevResidual:
    def test_critical_balance(self):
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        for r_eval in (1.0, 5.0, 50.0):
            rep = pohozaev_residual(traj, spec, r_eval)
            assert rep.passed
            assert rep.rel_residual() <= 1e-6

    def test_subcritical_balance_inside_positivity(self):
        traj, spec = shoot(SUBCRITICAL, 1.0)
        rep = pohozaev_residual(traj, spec, 5.0, tol=1e-4)
        assert rep.passed
        assert rep.rel_residual() <= 1e-4

    def test_returns_plain_python_scalars(self):
        # An r_eval inside a node interval ends the quadrature on a partial
        # panel, one at the last node on a whole one; both report plain types.
        traj, spec = shoot(CRITICAL, 3**0.25, r_max=100.0)
        for r_eval in (float(0.5 * (traj.r[10] + traj.r[11])), float(traj.r[-1])):
            rep = pohozaev_residual(traj, spec, r_eval)
            assert type(rep.passed) is bool and rep.passed
            assert type(rep.lhs) is float
            assert type(rep.residual) is float and type(rep.scale) is float
            assert rep.rel_residual() <= 1e-6

    def test_rejects_evaluation_at_crossing(self):
        # The terminal crossing is the last node; positivity fails exactly there.
        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(CrossedZero):
            pohozaev_residual(traj, spec, float(traj.r[-1]))

    def test_rejects_evaluation_outside_range(self):
        from plap import RangeError

        traj, spec = shoot(SUBCRITICAL, 1.0)
        with pytest.raises(RangeError):
            pohozaev_residual(traj, spec, 10.0)


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
        rep = scaling_covariance_report(spec, lam=2.0)
        assert rep.passed
        assert rep.residual <= 1e-6


class TestSweep:
    def test_ordering_preserved(self):
        specs = [IvpSpec(params=SUBCRITICAL, u0=u0, r_max=30.0) for u0 in (2.0, 0.5)]
        out = sweep_outcomes(specs)
        assert out[0].r_cross < out[1].r_cross  # big u0 crosses first


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(u0=0.0),
            dict(u0=-1.0),
            dict(u0=1.0, r_max=-5.0),
            dict(u0=1.0, delta0=50.0),  # not << r_max
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

    def test_defaults_populated(self):
        spec = IvpSpec(params=SUBCRITICAL, u0=2.0)
        assert spec.delta0 == pytest.approx(1e-6)
        assert spec.blowup_threshold == pytest.approx(2e8)
