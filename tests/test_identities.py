"""Recursion bound for iterated power sequences."""

import math

import numpy as np
import pytest

from plap import (
    RecursionSpec,
    extremal_log_sequence,
    moser_recursion_bound,
    recursion_bound_report,
)

LOG2, LOG3, LOG5 = math.log(2.0), math.log(3.0), math.log(5.0)


class TestExtremalSequence:
    def test_small_case_by_hand(self):
        # phi_n = 2^n phi_{n-1}^2 from phi_0 = 1: 1, 2, 2^4, 2^11.
        seq = extremal_log_sequence(RecursionSpec(c=2.0, k=2.0, phi0=1.0, n_max=3))
        assert seq == pytest.approx([0.0, LOG2, 4 * LOG2, 11 * LOG2], rel=1e-14)

    def test_unit_c_is_pure_powering(self):
        seq = extremal_log_sequence(RecursionSpec(c=1.0, k=3.0, phi0=5.0, n_max=6))
        assert seq == pytest.approx([3.0**n * LOG5 for n in range(7)], rel=1e-14)


class TestRecursionBound:
    def test_worked_example_dyadic(self):
        rep = moser_recursion_bound(RecursionSpec(c=2.0, k=2.0, phi0=1.0, n_max=3))
        assert rep.passed
        assert rep.lhs == pytest.approx(11.0 / 8.0 * LOG2, rel=1e-12)
        assert rep.rhs == pytest.approx(2.0 * LOG2, rel=1e-12)

    def test_worked_example_equality_case(self):
        # c = 1 makes the bound sharp: sup_n phi_n^{k^{-n}} = phi0.
        rep = moser_recursion_bound(RecursionSpec(c=1.0, k=3.0, phi0=5.0, n_max=10))
        assert rep.passed
        assert rep.lhs == pytest.approx(LOG5, rel=1e-12)
        assert rep.rhs == pytest.approx(LOG5, rel=1e-12)
        assert abs(rep.residual) <= 1e-12 * rep.scale

    def test_worked_example_ternary(self):
        rep = moser_recursion_bound(RecursionSpec(c=3.0, k=3.0, phi0=1.0, n_max=2))
        assert rep.passed
        assert rep.lhs == pytest.approx(5.0 / 9.0 * LOG3, rel=1e-12)
        assert rep.rhs == pytest.approx(0.75 * LOG3, rel=1e-12)

    def test_margin_invariant_under_phi0_scaling(self):
        # Rescaling phi0 shifts both sides by log t: the margin is unchanged.
        base = moser_recursion_bound(RecursionSpec(c=2.5, k=1.7, phi0=0.3, n_max=20))
        shifted = moser_recursion_bound(RecursionSpec(c=2.5, k=1.7, phi0=30.0, n_max=20))
        assert shifted.residual == pytest.approx(base.residual, abs=1e-12)

    def test_holds_on_grid_with_growth_constant_at_least_one(self):
        # The bound genuinely requires c >= 1; this is the green sub-grid.
        for c in np.linspace(1.0, 10.0, 10):
            for k in np.linspace(1.1, 5.0, 10):
                for phi0 in np.logspace(-2, 2, 5):
                    rep = moser_recursion_bound(
                        RecursionSpec(c=float(c), k=float(k), phi0=float(phi0), n_max=30)
                    )
                    assert rep.passed, (c, k, phi0, rep.residual)

    def test_violated_below_unit_growth_constant(self):
        # For c < 1 the extremal sequence overshoots the bound already at n = 1:
        # the bound is simply false there, and the check must say so.
        rep = moser_recursion_bound(RecursionSpec(c=0.5, k=1.1, phi0=0.01, n_max=30))
        assert not rep.passed
        assert rep.residual < -1.0  # gross violation, not a tolerance artifact

    def test_perturbed_sequences_inherit_the_bound(self):
        # Any sequence below the extremal recursion satisfies the same bound.
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = float(rng.uniform(1.0, 8.0))
            k = float(rng.uniform(1.2, 4.0))
            phi0 = float(rng.uniform(0.05, 20.0))
            spec = RecursionSpec(c=c, k=k, phi0=phi0, n_max=25)
            log_phi = np.empty(26)
            log_phi[0] = math.log(phi0)
            for n in range(1, 26):
                slack = math.log(float(rng.uniform(0.2, 1.0)))
                log_phi[n] = n * math.log(c) + k * log_phi[n - 1] + slack
            rep = recursion_bound_report(spec, log_phi)
            assert rep.passed

    @pytest.mark.parametrize(
        "kw",
        [
            dict(c=0.0, k=2.0, phi0=1.0, n_max=3),
            dict(c=2.0, k=1.0, phi0=1.0, n_max=3),
            dict(c=2.0, k=2.0, phi0=0.0, n_max=3),
            dict(c=2.0, k=2.0, phi0=1.0, n_max=0),
        ],
    )
    def test_spec_validation(self, kw):
        with pytest.raises(ValueError):
            RecursionSpec(**kw)

