"""Annulus Dirichlet solver: closed-form accuracy, convergence, comparison."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from plap import (
    AnnulusProblem,
    CutoffBarrier,
    LogBarrier,
    NewtonDivergence,
    PlapError,
    PowerBarrier,
    ProblemParams,
    comparison_check,
    solve_annulus_dirichlet_detailed,
)
import plap.bvp
from plap.bvp import solve_banded


def params(n=3, p=2.0):
    return ProblemParams(n_dim=n, p=p, q=max(p, 2.0), gamma=0.0)


def max_err(prob, exact):
    prof, _ = solve_annulus_dirichlet_detailed(prob)
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
        assert info.levels_done == 1
        assert info.iterations == 1
        assert info.residual < 1e-12

    def test_degenerate_case_reaches_final_level(self):
        prob = AnnulusProblem(
            params=params(3, 3.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        _, info = solve_annulus_dirichlet_detailed(prob)
        assert info.levels_done == 9

    def test_stall_at_a_later_level_raises(self, monkeypatch):
        # Newton fails at the fourth level only; the solve raises and names
        # that eps, as a stall at the first level does, and returns no
        # partially continued solution.
        flux_and_dflux = plap.bvp._flux_and_dflux

        def nan_weights_at_1e5(D, p, eps):
            flux, dflux = flux_and_dflux(D, p, eps)
            return flux, dflux * math.nan if eps == 1e-5 else dflux

        monkeypatch.setattr(plap.bvp, "_flux_and_dflux", nan_weights_at_1e5)
        prob = AnnulusProblem(
            params=params(3, 3.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        with pytest.raises(NewtonDivergence) as err:
            solve_annulus_dirichlet_detailed(prob)
        assert err.value.flux_eps == 1e-5

    @pytest.mark.parametrize("p, r_outer, b_inner, load, eps", [
        (2.0, 2.0, 1e160, None, 1e-10),       # D * D overflows in the flux and the norm
        (3.0, 300.0, 1.0, 1e308, 1e-2),       # the load term dr r^2 f overflows
    ], ids=["boundary-1e160", "load-1e308"])
    def test_overflow_is_newton_divergence_without_warnings(self, p, r_outer, b_inner, load, eps):
        # No numpy RuntimeWarning reaches the caller, and an infinite load
        # term does not pass the stopping test with a NaN residual.
        prob = AnnulusProblem(
            params=params(3, p), r_inner=1.0, r_outer=r_outer,
            boundary_inner=b_inner, boundary_outer=0.0, mesh_size=64,
            rhs=None if load is None else lambda r: load,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NewtonDivergence, match=rf"level eps={eps:g}$") as err:
                solve_annulus_dirichlet_detailed(prob)
        assert err.value.flux_eps == eps

    def test_boundary_values_imposed_exactly(self):
        prob = AnnulusProblem(
            params=params(4, 2.5), r_inner=0.5, r_outer=3.0,
            boundary_inner=2.0, boundary_outer=0.25,
            rhs=lambda r: 1.0 + r, mesh_size=32,
        )
        prof, _ = solve_annulus_dirichlet_detailed(prob)
        assert prof.u[0] == 2.0 and prof.u[-1] == 0.25


def newton_matrix(c):
    """Dense tridiag(c_{i-1}, -(c_{i-1} + c_i), c_i) for the n + 1 weights c."""
    inner = c[1:-1]
    return np.diag(-(c[:-1] + c[1:])) + np.diag(inner, 1) + np.diag(inner, -1)


def assert_matches_dense_solve(c, b):
    J = newton_matrix(c)
    x = solve_banded(c, b)
    assert np.linalg.norm(J @ x - b) / np.linalg.norm(b) <= 1e-10
    dense = np.linalg.solve(J, b)
    assert np.max(np.abs(x - dense)) <= 1e-10 * np.max(np.abs(dense))


def two_sweep_solve(c, b):
    """solve_banded's formula written as two full prefix sums and np.where:
    the reference its result must match bit for bit.  Also returns the split
    index k, the number of nodes summed from the inner end."""
    with np.errstate(all="ignore"):
        inv_c = 1.0 / c
        flux = np.concatenate(([0.0], np.cumsum(b)))
        flux -= (flux @ inv_c) / np.sum(inv_c)
        w = flux * inv_c
        from_inner = np.cumsum(w)[:-1]
        from_outer = -np.cumsum(w[::-1])[::-1][1:]
        acc = np.cumsum(np.abs(w))[:-1]
        inner = acc <= np.sum(np.abs(w)) - acc
        return np.where(inner, from_inner, from_outer), int(np.count_nonzero(inner))


def assert_matches_two_sweep_solve(c, b):
    """The split index k of the reference, after checking solve_banded against it."""
    ref, k = two_sweep_solve(c, b)
    x = solve_banded(c, b)
    assert np.array_equal(x, ref)
    assert x.tobytes() == ref.tobytes()  # signed zeros too
    return k


class TestNewtonSolve:
    @pytest.mark.parametrize("n", [1, 5, 1024])
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
    def test_matches_dense_solve(self, n, scale):
        rng = np.random.default_rng(n)
        assert_matches_dense_solve(scale * rng.uniform(0.5, 2.0, n + 1),
                                   scale * rng.standard_normal(n))

    def test_weights_spanning_twelve_decades(self):
        # c dips from 1e12 to 1 mid-mesh, as where a load makes the gradient
        # vanish; summing x from one end only left a scaled residual of 1e-2
        s = np.linspace(0.0, 1.0, 1025)
        assert_matches_dense_solve(10.0 ** (12.0 * np.abs(2.0 * s - 1.0)),
                                   np.random.default_rng(1024).standard_normal(1024))

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_bit_identical_to_two_sweeps(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            assert_matches_two_sweep_solve(10.0 ** rng.uniform(-6.0, 6.0, n + 1),
                                           rng.standard_normal(n))

    @pytest.mark.parametrize("n", [1, 5, 1024])
    def test_bit_identical_with_the_split_at_either_end(self, n):
        # A load at one end node alone: the increments past it share one sign
        # and balance it exactly, so rounding puts the split at that end (k = 0
        # or k = n) in about half of these draws.
        rng = np.random.default_rng(n)
        splits = set()
        for end in (0, n - 1):
            for _ in range(20):
                b = np.zeros(n)
                b[end] = rng.uniform(0.5, 2.0)
                c = 10.0 ** rng.uniform(-6.0, 6.0, n + 1)
                splits.add(assert_matches_two_sweep_solve(c, b))
        assert {0, n} <= splits

    def test_zero_weight_gives_non_finite_without_warning(self):
        c = np.ones(6)
        c[2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = solve_banded(c, np.ones(5))
        assert not np.all(np.isfinite(x))

    def test_vanishing_jacobian_is_newton_divergence(self):
        # p < 2 and a slope near 1e150: phi'(D) underflows to 0 on every
        # midpoint, so the first Newton system is singular.
        prob = AnnulusProblem(
            params=params(3, 1.5), r_inner=1.0, r_outer=2.0,
            boundary_inner=1e148, boundary_outer=0.0, mesh_size=32,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonDivergence):
                solve_annulus_dirichlet_detailed(prob)


class TestWorkingSet:
    # The nodes, load, iterate, midpoint weights r^{N-1} and load terms live
    # through the solve; a Newton iteration adds at most six arrays.
    MESH = 8192

    def solve_and_trace_peak(self, p):
        """(levels_done, heap peak in bytes) of a mesh-8192 solve at p."""
        prob = AnnulusProblem(
            params=params(5, p), r_inner=1.0, r_outer=3.0,
            boundary_inner=1.0, boundary_outer=0.2, rhs=lambda r: 0.5, mesh_size=self.MESH,
        )
        solve_annulus_dirichlet_detailed(  # first-call imports stay out of the peak
            AnnulusProblem(params(5, p), 1.0, 3.0, 1.0, 0.2, rhs=lambda r: 0.5))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _, info = solve_annulus_dirichlet_detailed(prob)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return info.levels_done, peak

    def test_nonlinear_solve_peaks_below_thirteen_mesh_arrays(self):
        levels, peak = self.solve_and_trace_peak(3.0)
        assert levels == 9
        assert peak < 13 * 8 * (self.MESH + 1)

    def test_linear_solve_peaks_below_thirteen_mesh_arrays(self):
        levels, peak = self.solve_and_trace_peak(2.0)
        assert levels == 1
        assert peak < 13 * 8 * (self.MESH + 1)


def p_harmonic(n, p, r1, r2, b1, b2):
    """(phi, max |phi'''| on [r1, r2]) for the p-harmonic phi with phi(r1) = b1,
    phi(r2) = b2: c1 + c2 r^lam, or c1 + c2 log r at p = N."""
    if p == n:
        base, d3 = np.log, lambda r: 2.0 / r ** 3
    else:
        lam = (p - n) / (p - 1.0)
        base = lambda r: r ** lam  # noqa: E731
        d3 = lambda r: abs(lam * (lam - 1.0) * (lam - 2.0)) * r ** (lam - 3.0)  # noqa: E731
    c2 = (b2 - b1) / (base(r2) - base(r1))
    c1 = b1 - c2 * base(r1)
    return (lambda r: c1 + c2 * base(r)), abs(c2) * max(d3(r1), d3(r2))


class TestConvergence:
    # N = 3 on [1, 3], boundary values (1, 0.2), constant load: backtracking on
    # the RMS residual diverged in 16 of these 36 cases and took up to 98
    # iterations in the others.
    @pytest.mark.parametrize("f", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("mesh", [1024, 2048, 4096, 8192])
    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_grid_converges_above_the_p_harmonic_profile(self, p, mesh, f):
        prob = AnnulusProblem(
            params=params(3, p), r_inner=1.0, r_outer=3.0,
            boundary_inner=1.0, boundary_outer=0.2, rhs=lambda r: f, mesh_size=mesh,
        )
        sol, info = solve_annulus_dirichlet_detailed(prob)
        assert info.levels_done == 9
        # one bound for every mesh, coarse-mesh iterations included
        assert info.iterations <= 50
        phi, d3max = p_harmonic(3, p, 1.0, 3.0, 1.0, 0.2)
        h = 2.0 / mesh
        # comparison principle, up to the midpoint-flux discretization bound
        assert np.min(sol.u - phi(sol.r)) >= -(2.0 * h * h * d3max + 1e-6)

    def test_small_fluxes_still_converge(self):
        # Fluxes near 1e-8: a residual scale floored at 1 stopped Newton after
        # 5 iterations, 4e-5 away from the closed form.
        n, p, r1, r2, b1, b2 = 6, 4.0, 0.892976, 3.04348, 1.13862, 1.1381
        prob = AnnulusProblem(
            params=params(n, p), r_inner=r1, r_outer=r2,
            boundary_inner=b1, boundary_outer=b2, mesh_size=256,
        )
        sol, _ = solve_annulus_dirichlet_detailed(prob)
        phi, _ = p_harmonic(n, p, r1, r2, b1, b2)
        assert np.max(np.abs(sol.u - phi(sol.r))) <= 1e-8

    def test_weights_spanning_decades_converge_at_second_order(self):
        # c = r^{N-1} phi'(D)/dr spans many decades here, largest where |u| is
        # smallest; a stopping floor of max(c) max|u| stopped Newton after 11
        # iterations, about 31% away from the closed form at every mesh.
        n, p, r1, r2, b1, b2 = 7, 1.569, 0.69, 61.1, 954.0, 0.0
        phi, _ = p_harmonic(n, p, r1, r2, b1, b2)
        errs = []
        for mesh in (1024, 4096):
            prob = AnnulusProblem(
                params=params(n, p), r_inner=r1, r_outer=r2,
                boundary_inner=b1, boundary_outer=b2, mesh_size=mesh,
            )
            sol, info = solve_annulus_dirichlet_detailed(prob)
            assert info.residual <= 1e-11
            errs.append(float(np.max(np.abs(sol.u - phi(sol.r)))))
        assert errs[0] >= 10.0 * errs[1]

    def test_weights_spanning_tens_of_decades_converge_with_the_mesh(self):
        # lambda = -22.3: c spans tens of decades, and one roundoff floor for
        # the whole mesh exceeded every far-field flux, so Newton stopped far
        # from the solution, 38% of max|u| off at mesh 1024 and growing with
        # the mesh.  Judged node by node, the error falls with the mesh.
        n, p, r1, r2, b1, b2 = 8, 1.3, 0.2, 6.0, 2.0, -4.0
        phi, _ = p_harmonic(n, p, r1, r2, b1, b2)
        errs = []
        for mesh in (1024, 4096):
            prob = AnnulusProblem(
                params=params(n, p), r_inner=r1, r_outer=r2,
                boundary_inner=b1, boundary_outer=b2, mesh_size=mesh,
            )
            sol, _ = solve_annulus_dirichlet_detailed(prob)
            errs.append(float(np.max(np.abs(sol.u - phi(sol.r)))) / max(abs(b1), abs(b2)))
        assert max(errs) <= 1e-3
        assert errs[0] >= 8.0 * errs[1]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the continuation's eps (1e-2 down to 1e-10) is absolute: below slopes of "
        "about 1e-10 the flux is the regularized linear one, eps^(p-2) D"))
    def test_small_boundary_data_scale_with_the_solution(self):
        # u -> b u solves the same homogeneous problem, so max|u - phi|/b must
        # not depend on b; it is 1.3e-7 (p = 3) and 1.3e-6 (p = 1.5) at b = 1
        # and 1e-6, but 0.135 and 0.23 at b = 1e-12, after 5 iterations.
        for p in (3.0, 1.5):
            for b in (1.0, 1e-6, 1e-12):
                prob = AnnulusProblem(
                    params=params(3, p), r_inner=1.0, r_outer=3.0,
                    boundary_inner=b, boundary_outer=0.0, mesh_size=512,
                )
                sol, _ = solve_annulus_dirichlet_detailed(prob)
                phi, _ = p_harmonic(3, p, 1.0, 3.0, b, 0.0)
                assert np.max(np.abs(sol.u - phi(sol.r))) / b <= 1e-5, (p, b)

    @pytest.mark.xfail(strict=True, raises=NewtonDivergence, reason=(
        "flat start at p = 8: the first Newton step is about eps^(2-p) long, "
        "and _MAX_HALVINGS = 40 halvings cannot shorten it enough"))
    @pytest.mark.parametrize("mesh", [64, 1024])
    def test_flat_start_with_a_load_converges_at_large_p(self, mesh):
        # Zero boundary data and f = 1: the start is the zero line, where
        # phi'(D) = eps^(p-2) is tiny; p = 7 converges in about 20 iterations.
        prob = AnnulusProblem(
            params=params(3, 8.0), r_inner=1.0, r_outer=3.0,
            boundary_inner=0.0, boundary_outer=0.0, rhs=lambda r: 1.0, mesh_size=mesh,
        )
        _, info = solve_annulus_dirichlet_detailed(prob)
        assert info.levels_done == 9

    @pytest.mark.parametrize("mesh", [64, 1024])
    def test_constant_data_without_load_returns_at_once(self, mesh):
        prob = AnnulusProblem(
            params=params(3, 4.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=0.7, boundary_outer=0.7, mesh_size=mesh,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, info = solve_annulus_dirichlet_detailed(prob)
        assert np.all(sol.u == 0.7)
        assert (info.iterations, info.residual, info.levels_done) == (0, 0.0, 9)


class TestLinearCase:
    # At p = 2 the last eps level runs through the general flux and energy
    # formulas, where (D^2 + eps^2)^0 D is D: one Newton step solves it.
    @pytest.mark.parametrize("mesh", [64, 1024, 8192])
    def test_constant_data_without_load_returns_at_once(self, mesh):
        # every midpoint slope is D = 0, where an eps of zero would divide by zero
        prob = AnnulusProblem(
            params=params(3, 2.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=0.7, boundary_outer=0.7, mesh_size=mesh,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, info = solve_annulus_dirichlet_detailed(prob)
        assert np.all(sol.u == 0.7)
        assert (info.iterations, info.residual, info.levels_done) == (0, 0.0, 1)

    @pytest.mark.parametrize("mesh", [64, 1024, 8192])
    @pytest.mark.parametrize("b_inner,rhs,exact,c", [
        (1.0, None, lambda r: 2.0 / r - 1.0, 0.03),
        # zero boundary values and f = 1: u peaks inside, so D changes sign there
        (0.0, lambda r: 1.0, lambda r: 7.0 / 6.0 - r ** 2 / 6.0 - 1.0 / r, 0.02),
    ], ids=["unloaded", "interior-maximum"])
    def test_one_step_to_the_discretization_error(self, mesh, b_inner, rhs, exact, c):
        prob = AnnulusProblem(
            params=params(3, 2.0), r_inner=1.0, r_outer=2.0,
            boundary_inner=b_inner, boundary_outer=0.0, rhs=rhs, mesh_size=mesh,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, info = solve_annulus_dirichlet_detailed(prob)
        assert (info.iterations, info.levels_done) == (1, 1)
        # the midpoint flux error is c h^2 on h = 1 / mesh, with c 0.0235 and
        # 0.0166 for the two cases
        assert np.max(np.abs(sol.u - exact(sol.r))) <= c / mesh ** 2


class TestStructure:
    def test_zero_load_solution_between_boundary_values(self):
        prob = AnnulusProblem(
            params=params(4, 1.6), r_inner=1.0, r_outer=3.0,
            boundary_inner=2.0, boundary_outer=0.5, mesh_size=64,
        )
        prof, _ = solve_annulus_dirichlet_detailed(prob)
        assert np.all(prof.u <= 2.0 + 1e-12) and np.all(prof.u >= 0.5 - 1e-12)
        assert np.all(np.diff(prof.u) < 0)  # monotone between boundary data

    def test_nonnegative_load_lifts_above_zero_load(self):
        base = dict(
            params=params(3, 2.5), r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=64,
        )
        plain, _ = solve_annulus_dirichlet_detailed(AnnulusProblem(**base))
        loaded, _ = solve_annulus_dirichlet_detailed(AnnulusProblem(**base, rhs=lambda r: 2.0))
        assert np.all(loaded.u >= plain.u - 1e-10)


class TestComparison:
    def test_equal_boundary_data_is_the_tight_case(self):
        # u and phi share boundary values; u - phi is pure discretization error.
        pr = params(3, 2.0)
        phi = PowerBarrier.fundamental(pr, c2=2.0, c1=-1.0)  # 2/r - 1
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=1.0, boundary_outer=0.0, mesh_size=512,
        )
        rep = comparison_check(prob, phi)
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

    def test_verdict_is_scale_free(self):
        # Boundary data and phi scaled by S, f by S^(p-1): at p = 2 the solve is
        # linear, so the margin and its scale move by S exactly.
        pr = params(3, 2.0)
        reports = []
        for size in (1.0, 1e-12):
            prob = AnnulusProblem(
                params=pr, r_inner=1.0, r_outer=2.0, boundary_inner=1.25 * size,
                boundary_outer=0.1 * size, rhs=lambda r, f=size: f, mesh_size=128,
            )
            reports.append(comparison_check(prob, PowerBarrier.fundamental(
                pr, c2=2.0 * size, c1=-size)))  # S (2/r - 1)
        big, small = reports
        assert big.passed and small.passed
        assert small.scale == pytest.approx(1e-12 * big.scale, rel=1e-9)
        assert small.residual == pytest.approx(1e-12 * big.residual, rel=1e-6)

    @pytest.mark.parametrize("size", [1.0, 1e-12])
    def test_domination_is_judged_at_the_data_scale(self, size):
        # Inner data 0.5 S below phi's boundary value: with a slack floored at
        # 1e-12 absolute, S = 1e-12 passed the domination test and then its
        # margin of -5e-13 passed the 1e-8 comparison tolerance.
        pr = params(3, 2.0)
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=0.5 * size, boundary_outer=0.0, mesh_size=64,
        )
        with pytest.raises(PlapError, match=r"^boundary data .* does not dominate"):
            comparison_check(prob, PowerBarrier.fundamental(pr, c2=2.0 * size, c1=-size))

    def test_rejects_non_dominating_boundary(self):
        pr = params(3, 2.0)
        phi = PowerBarrier.fundamental(pr, c2=2.0, c1=-1.0)
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=0.5, boundary_outer=0.0, mesh_size=64,
        )
        with pytest.raises(
            PlapError,
            match=r"^boundary data \(0\.5, 0\.0\) does not dominate phi's boundary values ",
        ):
            comparison_check(prob, phi)

    def test_rejects_non_harmonic_profile(self):
        pr = params(3, 2.0)
        bent = PowerBarrier(c2=1.0, c1=0.0, lam=-2.0)  # r^-2 is not harmonic in 3d
        prob = AnnulusProblem(
            params=pr, r_inner=1.0, r_outer=2.0,
            boundary_inner=2.0, boundary_outer=1.0, mesh_size=64,
        )
        with pytest.raises(
            PlapError,
            match=r"^Delta_p V = .* exceeds 1e-08 x scale; profile is not p-harmonic on \[1, 2\]$",
        ):
            comparison_check(prob, bent)

    def test_rejects_degenerate_gradient_below_p_two(self):
        # r^-3 (log r)^3 has a true critical point where -3 log r + 3 = 0, at
        # r = e, the first scan radius; at p < 2 the singular |V'|^{p-2} there
        # is reported as a PlapError naming it.
        pr = params(3, 1.5)
        prob = AnnulusProblem(
            params=pr, r_inner=math.e, r_outer=2.0 * math.e,
            boundary_inner=1.0, boundary_outer=1.0, mesh_size=64,
        )
        with pytest.raises(
            PlapError, match=r"^profile gradient degenerates at r=2\.71828 with p=1\.5 < 2$"
        ) as info:
            comparison_check(prob, LogBarrier.for_params(pr, gamma1=1.0, gamma2=0.0, beta=3.0))
        assert type(info.value) is PlapError

    def test_small_gradient_past_a_cutoff_kink_is_not_degenerate(self):
        # 1e-6 past r1, |V'| / (|V''| r) ~ 3e-7: far above the gradient floor,
        # so the cutoff is rejected for what it is, a profile that is not p-harmonic.
        prob = AnnulusProblem(
            params=params(3, 1.5), r_inner=1.0, r_outer=3.0,
            boundary_inner=1.0, boundary_outer=5.0, mesh_size=64,
        )
        with pytest.raises(PlapError, match=r"^Delta_p V = .* at r=1\.25 .* not p-harmonic"):
            comparison_check(prob, CutoffBarrier(m1=1.0, r1=1.25 - 1e-6, r_big=4.0, k=3))


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
        if "rhs" not in kw:
            with pytest.raises(ValueError):
                AnnulusProblem(**base)
            return
        prob = AnnulusProblem(**base)  # the load is checked when it is sampled
        with pytest.raises(ValueError, match="rhs must be finite and >= 0"):
            solve_annulus_dirichlet_detailed(prob)
