"""Annulus Dirichlet solver: closed-form accuracy, convergence, comparison."""

import math

import numpy as np
import pytest

from plap import (
    AnnulusProblem,
    BoundaryDominanceViolated,
    GridProfile,
    NotPHarmonic,
    PowerBarrier,
    ProblemParams,
    comparison_check,
    eval_profile,
    solve_annulus_dirichlet,
    solve_annulus_dirichlet_detailed,
)


def params(n=3, p=2.0):
    return ProblemParams(n_dim=n, p=p, q=max(p, 2.0), gamma=0.0)


def max_err(prob, exact):
    prof = solve_annulus_dirichlet(prob)
    return float(np.max(np.abs(prof.u - exact(prof.r))))


CLOSED_FORMS = [
    # (params, r_in, r_out, b_in, b_out, exact): p-harmonic Dirichlet solutions.
    (params(3, 2.0), 1.0, 2.0, 1.0, 0.0, lambda r: 2.0 / r - 1.0),
    (params(3, 3.0), 1.0, 2.0, 1.0, 0.0, lambda r: np.log(r / 2.0) / np.log(0.5)),
    (params(2, 3.0), 1.0, 4.0, 0.0, 1.0, lambda r: np.sqrt(r) - 1.0),
]


class TestClosedForms:
    @pytest.mark.parametrize("pr,r1,r2,b1,b2,exact", CLOSED_FORMS)
    def test_max_norm_error_at_fine_mesh(self, pr, r1, r2, b1, b2, exact):
        prob = AnnulusProblem(
            params=pr, r_inner=r1, r_outer=r2,
            boundary_inner=b1, boundary_outer=b2, mesh_size=512,
        )
        assert max_err(prob, exact) <= 1e-6

    @pytest.mark.parametrize("pr,r1,r2,b1,b2,exact", CLOSED_FORMS)
    def test_second_order_mesh_convergence(self, pr, r1, r2, b1, b2, exact):
        errs = []
        for mesh in (128, 256):
            prob = AnnulusProblem(
                params=pr, r_inner=r1, r_outer=r2,
                boundary_inner=b1, boundary_outer=b2, mesh_size=mesh,
            )
            errs.append(max_err(prob, exact))
        factor = errs[0] / errs[1]
        assert factor >= (3.0 if pr.p == 2.0 else 1.8)


class TestSolverDiagnostics:
    def test_linear_case_needs_no_continuation(self):
        prob = AnnulusProblem(
            params=params(3, 2.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        _, info = solve_annulus_dirichlet_detailed(prob)
        assert info.flux_eps == 0.0
        assert info.levels_done == 1
        assert info.iterations == 1
        assert info.residual < 1e-12

    def test_degenerate_case_reaches_final_level(self):
        prob = AnnulusProblem(
            params=params(3, 3.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        _, info = solve_annulus_dirichlet_detailed(prob)
        assert info.flux_eps == pytest.approx(1e-10)
        assert info.levels_done == 9

    def test_boundary_values_imposed_exactly(self):
        prob = AnnulusProblem(
            params=params(4, 2.5), r_inner=0.5, r_outer=3.0,
            boundary_inner=2.0, boundary_outer=0.25,
            rhs=lambda r: 1.0 + r, mesh_size=32,
        )
        prof = solve_annulus_dirichlet(prob)
        assert prof.u[0] == 2.0 and prof.u[-1] == 0.25


class TestStructure:
    def test_zero_load_solution_between_boundary_values(self):
        prob = AnnulusProblem(
            params=params(4, 1.6), r_inner=1.0, r_outer=3.0,
            boundary_inner=2.0, boundary_outer=0.5, mesh_size=64,
        )
        prof = solve_annulus_dirichlet(prob)
        assert np.all(prof.u <= 2.0 + 1e-12) and np.all(prof.u >= 0.5 - 1e-12)
        assert np.all(np.diff(prof.u) < 0)  # monotone between boundary data

    def test_nonnegative_load_lifts_above_zero_load(self):
        base = dict(
            params=params(3, 2.5), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        plain = solve_annulus_dirichlet(AnnulusProblem(**base))
        loaded = solve_annulus_dirichlet(AnnulusProblem(**base, rhs=lambda r: 2.0))
        assert np.all(loaded.u >= plain.u - 1e-10)

    def test_grid_profile_rhs_matches_callable(self):
        r = np.linspace(1.0, 2.0, 200)
        f = 1.0 + 0.5 * np.sin(3.0 * r) ** 2
        base = dict(
            params=params(3, 2.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        via_grid = solve_annulus_dirichlet(
            AnnulusProblem(**base, rhs=GridProfile(r=r, u=f))
        )
        via_call = solve_annulus_dirichlet(
            AnnulusProblem(**base, rhs=lambda s: 1.0 + 0.5 * math.sin(3.0 * s) ** 2)
        )
        # Same data up to the linear interpolation of the sampled rhs.
        assert np.max(np.abs(via_grid.u - via_call.u)) < 1e-5


class TestComparison:
    def test_equal_boundary_data_is_the_tight_case(self):
        # u and phi share boundary values; u - phi is pure discretization error.
        pr = params(3, 2.0)
        phi = PowerBarrier.fundamental(pr, c2=2.0, c1=-1.0)  # 2/r - 1
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=512,
        )
        rep = comparison_check(prob, phi, comparison_tol=1e-6)
        assert rep.passed
        assert abs(rep.residual) < 1e-6

    def test_strict_domination_with_load(self):
        pr = params(3, 2.0)
        phi = PowerBarrier.fundamental(pr, c2=2.0, c1=-1.0)
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=1.25, boundary_outer=0.1,
            rhs=lambda r: 1.0, mesh_size=128,
        )
        rep = comparison_check(prob, phi)
        assert rep.passed
        assert rep.residual > 0.05  # clear margin, not a borderline pass

    def test_rejects_non_dominating_boundary(self):
        pr = params(3, 2.0)
        phi = PowerBarrier.fundamental(pr, c2=2.0, c1=-1.0)
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=0.5, boundary_outer=0.0, mesh_size=64,
        )
        with pytest.raises(BoundaryDominanceViolated):
            comparison_check(prob, phi)

    def test_rejects_non_harmonic_profile(self):
        pr = params(3, 2.0)
        bent = PowerBarrier(c2=1.0, c1=0.0, lam=-2.0)  # r^-2 is not harmonic in 3d
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=2.0, boundary_outer=1.0, mesh_size=64,
        )
        with pytest.raises(NotPHarmonic):
            comparison_check(prob, bent)


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(r_inner=2.0, r_outer=1.0),
            dict(r_inner=0.0, r_outer=1.0),
            dict(mesh_size=8),
            dict(mesh_size=64.0),
            dict(rhs=lambda r: -1.0),
            dict(r_outer=math.inf),
            dict(boundary_inner=math.nan),
            dict(boundary_outer=math.inf),
            dict(rhs=lambda r: math.inf),
            dict(rhs=lambda r: math.nan),
        ],
    )
    def test_rejects_bad_problems(self, kw):
        base = dict(
            params=params(), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=32,
        )
        base.update(kw)
        with pytest.raises(ValueError):
            AnnulusProblem(**base)
