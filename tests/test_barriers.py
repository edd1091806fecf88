"""Explicit barrier profiles: supercritical counterexample, cutoff and
log-corrected supersolutions, and the three-sphere lower bound."""

import math

import numpy as np
import pytest

from plap import (
    CutoffBarrier,
    HadamardInput,
    LogBarrier,
    PlapError,
    ProblemParams,
    SingularGradient,
    build_counterexample,
    counterexample_epsilon,
    counterexample_plap,
    counterexample_residual,
    counterexample_residual_grid,
    cutoff_barrier_plap,
    cutoff_bracket_report,
    cutoff_plap_bound,
    hadamard_lower_bound,
    hadamard_monotonicity_check,
    log_barrier_plap,
)


def params(n=3, p=2.0, q=4.0, gamma=0.0, a=1.0):
    return ProblemParams(n_dim=n, p=p, q=q, gamma=gamma, amplitude=a)


class TestCounterexample:
    def test_reference_constants(self):
        # (N, p, gamma, q) = (3, 2, 0, 4): eps = 1/3, alpha = 2/3, c = (2/9)^{1/3}.
        consts = build_counterexample(params())
        assert counterexample_epsilon(params()) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert consts.alpha == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert consts.c == pytest.approx((2.0 / 9.0) ** (1.0 / 3.0), abs=1e-15)

    def test_residual_value_at_unit_radius(self):
        # Hand algebra: residual(1) = (4/3) 2^{-8/3} c for the reference draw.
        pr = params()
        consts = build_counterexample(pr)
        rep = counterexample_residual(consts, pr, 1.0)
        assert rep.passed
        expected = (4.0 / 3.0) * 2.0 ** (-8.0 / 3.0) * consts.c
        assert rep.residual == pytest.approx(expected, rel=1e-12)

    def test_residual_nonnegative_on_standard_grid(self):
        pr = params()
        consts = build_counterexample(pr)
        r, res = counterexample_residual_grid(consts, pr)
        assert len(r) == 2000
        assert np.min(res) >= 0.0

    def test_random_supercritical_draws(self):
        from plap import serrin_critical

        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = float(rng.uniform(1.1, min(4.0, n - 0.1)))
            if n <= p:
                continue
            g = float(rng.uniform(0.0, 4.0))
            q_s = serrin_critical(params(n=n, p=p, q=max(p, 2.0), gamma=g))
            q = q_s * float(rng.uniform(1.05, 2.5))
            pr = params(n=n, p=p, q=q, gamma=g)
            consts = build_counterexample(pr)
            assert counterexample_epsilon(pr) > 0 and consts.alpha > 0 and consts.c > 0
            _, res = counterexample_residual_grid(consts, pr, points=400)
            assert np.min(res) >= 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(r_max=math.inf),
            dict(r_min=math.nan),
            dict(r_max=math.nan),
            dict(r_min=2.0, r_max=1.0),
            dict(r_min=0.0),
            dict(r_min=-2.0, r_max=-1.0),
            dict(points=1),  # one point would pass the nonnegativity sweep
            dict(points=0),
        ],
    )
    def test_grid_rejects_bad_range(self, kw):
        pr = params()
        with pytest.raises(ValueError):
            counterexample_residual_grid(build_counterexample(pr), pr, **kw)

    def test_origin_is_singular_for_the_closed_form(self):
        consts = build_counterexample(params())
        with pytest.raises(PlapError, match=r"^closed form carries an \(N-1\)/r term; at r = 0 "):
            counterexample_plap(consts, params(), 0.0)

    def test_rejects_subcritical_and_critical(self):
        with pytest.raises(PlapError, match=r"^need q > q_serrin = 3\.0 strictly, got q = 3\.0 "):
            build_counterexample(params(q=3.0))  # q = q_S exactly
        with pytest.raises(PlapError, match=r"^need q > q_serrin = 3\.0 strictly, got q = 2\.5 "):
            build_counterexample(params(q=2.5))

    def test_rejects_negative_weight(self):
        with pytest.raises(
            PlapError, match=r"^counterexample construction assumes gamma >= 0, got -0\.25$"
        ):
            build_counterexample(params(q=4.0, gamma=-0.25))

    def test_rejects_low_dimension(self):
        with pytest.raises(PlapError, match=r"^q_serrin undefined for N <= p \(N=2, p=2\.5\); "):
            build_counterexample(params(n=2, p=2.5, q=6.0))

    def test_rejects_a_profile_that_rounds_to_zero(self):
        # at q = 1e17, eps rounds to N - p, so alpha = 0 and Gamma = 0
        with pytest.raises(ValueError, match="c and alpha must be positive"):
            build_counterexample(params(q=1e17))


class TestCutoffBarrier:
    def test_operator_vanishes_on_plateau(self):
        spec = CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3)
        assert cutoff_barrier_plap(spec, params(), 0.7) == 0.0
        assert cutoff_barrier_plap(spec, params(), 1.0) == 0.0

    def test_matches_fd_oracle(self):
        spec = CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3)
        for p, r in [(2.0, 1.5), (2.0, 1.9), (1.5, 1.6), (3.0, 1.4)]:
            rep = cutoff_bracket_report(spec, params(p=p, q=max(p, 2.0)), r)
            assert rep.passed, (p, r, rep.residual, rep.scale)

    def test_printed_bracket_constant_disagrees(self):
        # The k(p-1) chain-rule factor is 3 for k = 3, p = 2; forcing 2(p-1) = 2
        # must visibly break the oracle comparison away from the outer edge.
        spec = CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3)
        rep = cutoff_bracket_report(spec, params(), 1.3, printed_bracket=True)
        assert not rep.passed
        assert "2(p-1)" in rep.note

    def test_sup_bound_on_conforming_instance(self):
        # k(p-1) = 3 = 2(p-1) + (N-1) r1/R at N = 3, p = 2, R = 2 r1: the
        # boundary case of the bound's validity condition.
        spec = CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3)
        pr = params()
        bound = cutoff_plap_bound(spec, pr)
        rs = np.linspace(1.0 + 1e-9, 2.0 - 1e-9, 500)
        vals = np.array([cutoff_barrier_plap(spec, pr, float(r)) for r in rs])
        assert np.max(vals) <= bound * (1.0 + 1e-12)

    def test_bound_formula(self):
        spec = CutoffBarrier(m1=2.0, r1=1.0, r_big=3.0, k=4)
        pr = params(n=5, p=2.5, q=3.0)
        expected = 5.0**1.5 * (5 + 2 * 2.5 - 3) * 2.0**1.5 * 2.0 ** (-2.5)
        assert cutoff_plap_bound(spec, pr) == pytest.approx(expected, rel=1e-14)


class TestLogBarrier:
    def test_plain_log_correction_is_a_supersolution(self):
        # beta = 1: Delta_p psi = -(N-p) gamma1^{p-1} r^{-N} < 0 for all r > 1.
        spec = LogBarrier(gamma1=0.5, gamma2=0.1, beta=1.0, lam=-1.0)
        pr = params()
        for r in (1.5, 3.0, 20.0):
            val = log_barrier_plap(spec, pr, r)
            assert val == pytest.approx(-0.5 * r**-3.0, rel=1e-13)

    def test_sign_change_at_log_threshold(self):
        # beta = 2, N = 3, p = 2: the bracket 2 - 2 log r flips sign at r = e.
        spec = LogBarrier(gamma1=1.0, gamma2=0.0, beta=2.0, lam=-1.0)
        pr = params()
        assert log_barrier_plap(spec, pr, math.e * 0.9) > 0
        assert log_barrier_plap(spec, pr, math.e * 1.1) < 0

    def test_degenerate_gradient_raises_below_two(self):
        # |psi'| vanishes where lam log r + beta = 0; p < 2 is singular there.
        pr = params(p=1.5, q=2.0)
        spec = LogBarrier(gamma1=1.0, gamma2=0.0, beta=1.0, lam=-3.0)
        with pytest.raises(SingularGradient):
            log_barrier_plap(spec, pr, math.exp(1.0 / 3.0))

    def test_domain_guards(self):
        spec = LogBarrier(gamma1=1.0, gamma2=0.0, beta=1.0, lam=-1.0)
        with pytest.raises(PlapError, match=r"^log barrier needs r > 1, got r=0\.8$"):
            log_barrier_plap(spec, params(), 0.8)
        with pytest.raises(
            PlapError, match=r"^log-corrected barrier is stated for N > p \(N=2, p=3\.0\)$"
        ):
            log_barrier_plap(spec, params(n=2, p=3.0, q=3.0), 2.0)


class TestHadamardBound:
    def test_endpoint_values(self):
        inp = HadamardInput(r1=1.0, r2=4.0, m1=1.0, m2=0.3, lam=-1.0)
        assert hadamard_lower_bound(inp, 1.0) == pytest.approx(1.0, abs=1e-14)
        assert hadamard_lower_bound(inp, 4.0) == pytest.approx(0.3, abs=1e-14)

    def test_midpoint_closed_form(self):
        inp = HadamardInput(r1=1.0, r2=4.0, m1=1.0, m2=0.3, lam=-1.0)
        assert hadamard_lower_bound(inp, 2.5) == pytest.approx(0.44, abs=1e-14)

    def test_equality_on_pure_power_profile(self):
        # m(r) = c r^lam interpolates itself: the bound is sharp.
        lam = -1.5
        m = lambda r: 0.7 * r**lam
        inp = HadamardInput(r1=0.5, r2=8.0, m1=m(0.5), m2=m(8.0), lam=lam)
        r = np.geomspace(0.5, 8.0, 101)
        assert np.max(np.abs(hadamard_lower_bound(inp, r) - m(r))) < 1e-14

    def test_log_mode_equality_on_log_profile(self):
        # lam = 0 (N = p) interpolates linearly in log r
        m = lambda r: 2.0 - 0.5 * np.log(r)
        inp = HadamardInput(r1=1.0, r2=10.0, m1=m(1.0), m2=float(m(10.0)), lam=0.0)
        r = np.geomspace(1.0, 10.0, 64)
        assert np.max(np.abs(hadamard_lower_bound(inp, r) - m(r))) < 1e-13

    def test_lam_is_required(self):
        with pytest.raises(TypeError):
            HadamardInput(1.0, 2.0, 1.0, 1.0)

    def test_range_guard(self):
        inp = HadamardInput(r1=1.0, r2=4.0, m1=1.0, m2=0.3, lam=-1.0)
        with pytest.raises(PlapError, match=r"^r must lie in \[1\.0, 4\.0\]$"):
            hadamard_lower_bound(inp, 0.5)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(r1=2.0, r2=1.0, m1=1.0, m2=1.0, lam=-1.0),
            dict(r1=1.0, r2=2.0, m1=-0.1, m2=1.0, lam=-1.0),
            dict(r1=1.0, r2=2.0, m1=1.0, m2=1.0),  # lam missing: a required field
            dict(r1=1.0, r2=math.inf, m1=1.0, m2=0.5, lam=-1.0),
            dict(r1=math.nan, r2=2.0, m1=1.0, m2=0.5, lam=-1.0),
            dict(r1=1.0, r2=2.0, m1=math.nan, m2=0.5, lam=-1.0),
            dict(r1=1.0, r2=2.0, m1=1.0, m2=math.inf, lam=-1.0),
            dict(r1=1.0, r2=2.0, m1=1.0, m2=0.5, lam=math.nan),
            dict(r1=1.0, r2=2.0, m1=1.0, m2=0.5, lam=-math.inf),
        ],
    )
    def test_input_validation(self, kw):
        with pytest.raises(ValueError if "lam" in kw else TypeError):
            HadamardInput(**kw)


class TestHadamardMonotonicity:
    def test_passes_on_growing_normalization(self):
        r = np.linspace(1.0, 10.0, 50)
        m = 1.0 / r  # m r^{-lam} = const for lam = -1: boundary case
        rep = hadamard_monotonicity_check(np.column_stack([r, m]), lam=-1.0)
        assert rep.passed

    def test_fails_on_shrinking_normalization(self):
        r = np.linspace(1.0, 10.0, 50)
        m = 1.0 / r**2  # m r^{1} = 1/r decreasing
        rep = hadamard_monotonicity_check(np.column_stack([r, m]), lam=-1.0)
        assert not rep.passed

    def test_requires_negative_lambda(self):
        samples = np.array([[1.0, 1.0], [2.0, 1.0]])
        with pytest.raises(
            PlapError, match=r"^monotonicity of m\(r\) r\^\(-lam\) needs lam < 0, got 0\.5$"
        ):
            hadamard_monotonicity_check(samples, lam=0.5)

    def test_requires_sorted_radii(self):
        samples = np.array([[2.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            hadamard_monotonicity_check(samples, lam=-1.0)
