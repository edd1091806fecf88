"""Each report with a fixed tolerance records that tolerance in its ``tol``
field, so a caller can re-judge ``residual`` against ``scale`` at any
threshold it likes.  These pin the fixed values."""

import numpy as np
import pytest

from plap import exponents, rk45, shooting
from plap import (
    AnnulusProblem,
    Counterexample,
    CutoffBarrier,
    IvpSpec,
    PowerBarrier,
    ProblemParams,
    RecursionSpec,
    build_counterexample,
    comparison_check,
    conservation_report,
    counterexample_residual,
    cutoff_bracket_report,
    decay_slope_report,
    fd_agreement,
    hadamard_monotonicity_check,
    integrate_ivp,
    moser_recursion_bound,
    power_transform_residual,
    scaling_covariance_report,
)

P3 = ProblemParams(n_dim=3, p=2.0, q=4.0, gamma=0.0)
CRITICAL_SHOT = IvpSpec(params=ProblemParams(n_dim=3, p=2.0, q=5.0), u0=3**0.25)


def _hadamard():
    r = np.linspace(1.0, 10.0, 50)
    return hadamard_monotonicity_check(np.column_stack([r, 1.0 / r]), lam=-1.0)


def _comparison():
    prob = AnnulusProblem(params=P3, r_inner=1.0, r_outer=2.0,
                          boundary_inner=1.0, boundary_outer=0.0, mesh_size=64)
    return comparison_check(prob, PowerBarrier.fundamental(P3, c2=2.0, c1=-1.0))


CASES = {
    "fd_agreement": (lambda: fd_agreement(PowerBarrier.fundamental(P3), 2.0, P3), 1e-6),
    "power_transform_residual": (
        lambda: power_transform_residual(Counterexample(c=1.0, alpha=1.0), 2.0, 2.0, P3), 1e-8),
    "conservation_report": (
        lambda: conservation_report(integrate_ivp(CRITICAL_SHOT), CRITICAL_SHOT),
        10 * CRITICAL_SHOT.rtol**0.8),
    "decay_slope_report": (
        lambda: decay_slope_report(integrate_ivp(CRITICAL_SHOT), CRITICAL_SHOT), 0.05),
    "scaling_covariance_report": (lambda: scaling_covariance_report(CRITICAL_SHOT), 1e-6),
    "counterexample_residual": (
        lambda: counterexample_residual(build_counterexample(P3), P3, 1.0), 0.0),
    "cutoff_bracket_report": (
        lambda: cutoff_bracket_report(CutoffBarrier(m1=1.0, r1=1.0, r_big=2.0, k=3), P3, 1.5),
        1e-6),
    "hadamard_monotonicity_check": (_hadamard, 1e-8),
    "moser_recursion_bound": (
        lambda: moser_recursion_bound(RecursionSpec(c=2.0, k=2.0, phi0=1.0, n_max=3)), 1e-12),
    "comparison_check": (_comparison, 1e-8),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_tolerance_is_recorded(name):
    build, tol = CASES[name]
    rep = build()
    assert rep.tol == tol
    assert rep.passed
    if name == "scaling_covariance_report":
        assert "s=2.0" in rep.note and "40 overlap samples" in rep.note


def test_fixed_settings_are_pinned():
    assert shooting._SCALING_FACTOR == 2.0  # u_s(r) = s^kappa u(s r) at s = 2
    assert rk45._MAX_STEPS == 2_000_000
    assert exponents._K_ROUNDING == 1e-12  # |K| read as 0, relative to (gamma+N)p/(q+1)
