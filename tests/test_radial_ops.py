"""Profile evaluation, the radial p-Laplacian, and its finite-difference oracle."""

import math

import numpy as np
import pytest

from plap import (
    Counterexample,
    CutoffBarrier,
    EvalPoint,
    GridProfile,
    LogBarrier,
    PlapError,
    PowerBarrier,
    ProblemParams,
    SingularGradient,
    eval_profile,
    fd_agreement,
    p_laplacian_fd,
    p_laplacian_radial,
    power_transform_residual,
)
from plap.radial_ops import fd_step_default


def params(n=3, p=2.0, q=3.0, gamma=0.0):
    return ProblemParams(n_dim=n, p=p, q=q, gamma=gamma)


class TestEvalProfile:
    def test_inverse_radius_point(self):
        # u = 1/r at r = 2: value 1/2, d1 -1/4, d2 1/4.
        pt = eval_profile(PowerBarrier(c2=1.0, c1=0.0, lam=-1.0), 2.0)
        assert pt.value == pytest.approx(0.5, abs=1e-15)
        assert pt.d1 == pytest.approx(-0.25, abs=1e-15)
        assert pt.d2 == pytest.approx(0.25, abs=1e-15)

    def test_cutoff_flat_inside_plateau(self):
        pt = eval_profile(CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3), 1.0)
        assert (pt.value, pt.d1, pt.d2) == (1.0, 0.0, 0.0)
        assert eval_profile(CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3), 0.5).value == 1.0

    def test_cutoff_vanishes_at_outer_radius(self):
        spec = CutoffBarrier(m1=2.0, r1=1.0, r_big=3.0, k=4)
        assert eval_profile(spec, 3.0).value == pytest.approx(0.0, abs=1e-15)

    def test_counterexample_at_origin(self):
        pt = eval_profile(Counterexample(c=1.0, alpha=2.0 / 3.0), 0.0)
        assert pt.value == pytest.approx(1.0, abs=1e-15)
        assert pt.d1 == pytest.approx(-2.0 / 3.0, abs=1e-15)

    def test_power_barrier_rejects_origin(self):
        with pytest.raises(PlapError, match=r"^power barrier needs r > 0, got r=0\.0$"):
            eval_profile(PowerBarrier(c2=1.0, c1=0.0, lam=-1.0), 0.0)

    def test_fundamental_constructor_matches_lambda(self):
        pr = params(n=4, p=2.5)
        spec = PowerBarrier.fundamental(pr, c2=2.0, c1=1.0)
        lam = (pr.p - pr.n_dim) / (pr.p - 1.0)
        pt = eval_profile(spec, 3.0)
        assert pt.value == pytest.approx(2.0 * 3.0 ** lam + 1.0, rel=1e-14)

    def test_fundamental_log_branch_when_n_equals_p(self):
        spec = PowerBarrier.fundamental(params(n=3, p=3.0), c2=1.0, c1=0.0)
        assert spec.lam == 0.0
        assert eval_profile(spec, math.e).value == pytest.approx(1.0, rel=1e-14)

    def test_power_barrier_needs_lam(self):
        with pytest.raises(TypeError):
            PowerBarrier(c2=1.0, c1=0.0)

    def test_derivatives_against_central_differences(self):
        specs = [
            PowerBarrier(c2=1.3, c1=0.2, lam=-1.5),
            LogBarrier(gamma1=0.7, gamma2=0.1, beta=1.3, lam=-0.5),
            CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3),
            Counterexample(c=0.8, alpha=1.7),
        ]
        h = 1e-5
        for spec in specs:
            for r in (1.3, 1.55, 1.8):
                pt = eval_profile(spec, r)
                vm, v0, vp = (eval_profile(spec, x).value for x in (r - h, r, r + h))
                assert pt.d1 == pytest.approx((vp - vm) / (2 * h), rel=1e-7, abs=1e-9)
                assert pt.d2 == pytest.approx((vp - 2 * v0 + vm) / h**2, rel=1e-4, abs=1e-6)


class TestGridProfile:
    def test_recovers_quadratic_exactly(self):
        # Local quadratic least squares is exact on quadratics.
        r = np.linspace(1.0, 5.0, 40)
        u = 2.0 * r**2 - 3.0 * r + 0.5
        prof = GridProfile(r=r, u=u)
        pt = eval_profile(prof, 2.37)
        assert pt.value == pytest.approx(2 * 2.37**2 - 3 * 2.37 + 0.5, rel=1e-12)
        assert pt.d1 == pytest.approx(4 * 2.37 - 3, rel=1e-10)
        assert pt.d2 == pytest.approx(4.0, rel=1e-9)

    def test_out_of_range_query(self):
        prof = GridProfile(r=np.linspace(1, 2, 8), u=np.ones(8))
        with pytest.raises(PlapError, match=r"^query r=0\.5 outside sampled range \[1\.0, 2\.0\]$"):
            eval_profile(prof, 0.5)
        with pytest.raises(PlapError, match=r"^query r=2\.5 outside sampled range \[1\.0, 2\.0\]$"):
            eval_profile(prof, 2.5)

    @pytest.mark.parametrize(
        "r,u",
        [
            (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])),  # too short
            (np.array([1.0, 2.0, 2.0, 3.0]), np.zeros(4)),  # not increasing
            (np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4)),  # r[0] = 0
            (np.linspace(1, 2, 5), np.zeros(4)),  # length mismatch
        ],
    )
    def test_rejects_bad_grids(self, r, u):
        with pytest.raises(ValueError):
            GridProfile(r=r, u=u)


class TestPLaplacianRadial:
    def test_harmonic_kernel_is_annihilated(self):
        # 1/r is harmonic in three dimensions away from the origin.
        for r in (0.5, 1.0, 7.0):
            pt = eval_profile(PowerBarrier(c2=1.0, c1=0.0, lam=-1.0), r)
            assert p_laplacian_radial(pt, params()) == pytest.approx(0.0, abs=1e-15)

    def test_p_harmonic_kernel_general_p(self):
        # r^lam with lam = (p-N)/(p-1) lies in the kernel for every admissible pair.
        for n, p in [(3, 1.5), (4, 2.5), (5, 3.5), (2, 1.7)]:
            pr = params(n=n, p=p, q=max(p, 2.0))
            spec = PowerBarrier.fundamental(pr, c2=1.0, c1=0.0)
            for r in (0.8, 2.0, 11.0):
                pt = eval_profile(spec, r)
                val = p_laplacian_radial(pt, pr)
                parts = abs(pt.d1) ** (p - 2.0) * (
                    (p - 1.0) * abs(pt.d2) + (n - 1.0) / r * abs(pt.d1)
                )
                assert abs(val) <= 1e-12 * parts

    def test_singular_gradient_raises_below_two(self):
        flat = eval_profile(CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3), 0.9)
        with pytest.raises(SingularGradient):
            p_laplacian_radial(flat, params(p=1.5))

    def test_degenerate_gradient_is_zero_at_or_above_two(self):
        flat = eval_profile(CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3), 0.9)
        assert p_laplacian_radial(flat, params(p=2.0)) == 0.0
        assert p_laplacian_radial(flat, params(p=3.0, q=3.0)) == 0.0

    def test_critical_point_at_two_gives_p_minus_one_times_curvature(self):
        # On V' = 0 the formula leaves (p-1)V'' at p = 2: Delta (r-1)^2 = 2 at r = 1.
        assert p_laplacian_radial(EvalPoint(1.0, 0.0, 0.0, 2.0), params()) == 2.0
        r = np.linspace(0.5, 1.5, 101)
        rep = fd_agreement(GridProfile(r=r, u=(r - 1.0) ** 2), 1.0, params())
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)

    def test_small_gradient_above_two_keeps_its_factor(self):
        pr = params(p=2.1)
        pt = EvalPoint(1.0, 0.0, 1e-13, 2.0)
        core = 1.1 * 2.0 + 2.0 * 1e-13
        assert p_laplacian_radial(pt, pr) == pytest.approx(1e-13 ** 0.1 * core, rel=1e-14)
        assert p_laplacian_radial(pt, pr) == pytest.approx(0.110, abs=5e-4)

    def test_laplacian_of_square(self):
        # u = r^2: Delta u = 2N.
        r = np.linspace(0.5, 3.0, 30)
        prof = GridProfile(r=r, u=r**2)
        pt = eval_profile(prof, 1.5)
        assert p_laplacian_radial(pt, params(n=5)) == pytest.approx(10.0, rel=1e-9)


class TestFdOracle:
    def test_matches_closed_form_across_families(self):
        cases = [
            (Counterexample(c=0.7, alpha=1.2), params(n=4, p=2.5), 3.0),
            (PowerBarrier(c2=1.0, c1=0.4, lam=-2.0), params(n=5, p=2.0), 1.7),
            (LogBarrier(gamma1=0.5, gamma2=0.2, beta=2.0, lam=-0.75), params(n=4, p=2.2), 5.0),
        ]
        for spec, pr, r in cases:
            rep = fd_agreement(spec, r, pr)
            assert rep.passed, rep.note
            assert rep.rel_residual() <= 1e-6

    def test_requires_room_for_the_stencil(self):
        with pytest.raises(PlapError, match=r"^need r > 2h \(r=1e-05, h="):
            p_laplacian_fd(Counterexample(c=1.0, alpha=1.0), 1e-5, params())

    def test_step_default_shape(self):
        assert fd_step_default(0.01) == 1e-4
        assert fd_step_default(10.0) == pytest.approx(1e-3)

    def test_second_order_in_step(self):
        spec = Counterexample(c=1.0, alpha=1.5)
        pr = params(n=3, p=2.0)
        pt = eval_profile(spec, 2.0)
        exact = p_laplacian_radial(pt, pr)
        errs = [abs(p_laplacian_fd(spec, 2.0, pr, h=h) - exact) for h in (1e-2, 5e-3)]
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.8


class TestPowerTransform:
    def test_identity_at_alpha_one(self):
        rep = power_transform_residual(Counterexample(c=1.0, alpha=1.0), 1.0, 2.0, params())
        assert rep.passed
        assert abs(rep.residual) <= 1e-14 * rep.scale

    def test_exact_across_alpha_and_p(self):
        spec = Counterexample(c=0.9, alpha=0.8)
        for p in (1.5, 2.0, 3.0):
            pr = params(n=4, p=p, q=max(p, 2.0))
            for alpha in (1.0, 2.0, 3.5):
                rep = power_transform_residual(spec, alpha, 1.3, pr)
                assert rep.passed
                assert abs(rep.residual) <= 1e-12 * rep.scale

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ValueError):
            power_transform_residual(Counterexample(c=1.0, alpha=1.0), 0.5, 2.0, params())

    def test_rejects_nonpositive_values(self):
        sinking = PowerBarrier(c2=1.0, c1=-10.0, lam=-1.0)
        with pytest.raises(PlapError, match=r"^u\(1\.0\) = -9\.0 <= 0$"):
            power_transform_residual(sinking, 2.0, 1.0, params())


class TestBarrierValidation:
    def test_cutoff_needs_steep_enough_exponent(self):
        spec = CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3)
        spec.check_admissible(2.0)
        with pytest.raises(ValueError):
            spec.check_admissible(1.2)  # 1/k = 1/3 >= p - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m1=0.0, r1=1.0, r_big=2.0, k=3),
            dict(m1=1.0, r1=2.0, r_big=1.0, k=3),
            dict(m1=1.0, r1=1.0, r_big=2.0, k=2),
        ],
    )
    def test_cutoff_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            CutoffBarrier(**kwargs)

    def test_log_barrier_validation(self):
        with pytest.raises(ValueError):
            LogBarrier(gamma1=0.0, gamma2=0.0, beta=1.0, lam=-1.0)
        with pytest.raises(ValueError):
            LogBarrier(gamma1=1.0, gamma2=-0.1, beta=1.0, lam=-1.0)

    def test_counterexample_validation(self):
        with pytest.raises(ValueError):
            Counterexample(c=-1.0, alpha=1.0)
