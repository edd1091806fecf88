"""Numerical laboratory for radial p-Laplacian Liouville problems.

Critical exponents and regime classification, explicit barrier profiles and
the supercritical counterexample, degenerate radial shooting with outcome
classification, annulus boundary-value problems with a comparison principle,
three-sphere lower bounds, and directly checkable identity cores -- each
backed by an independent oracle in the verification suite.

Importing the package loads none of its modules (nor numpy): each exported
name is imported from its module on first access (PEP 562).
"""

import importlib

# module -> the names the package re-exports from it
_EXPORTS = {
    "barriers": (
        "HadamardInput", "build_counterexample", "counterexample_epsilon",
        "counterexample_plap", "counterexample_residual",
        "counterexample_residual_grid", "cutoff_barrier_plap",
        "cutoff_plap_bound", "hadamard_lower_bound",
        "hadamard_monotonicity_check", "log_barrier_plap",
    ),
    "bvp": (
        "AnnulusProblem", "GridProfile", "NewtonInfo", "comparison_check",
        "solve_annulus_dirichlet_detailed",
    ),
    "errors": ("NewtonDivergence", "PlapError", "SingularGradient"),
    "exponents": (
        "ProblemParams", "Regime", "classify_regime", "equation_critical",
        "lambda_exponent", "pohozaev_coefficient", "serrin_critical",
    ),
    "identities": (
        "RecursionSpec", "extremal_log_sequence", "moser_recursion_bound",
        "recursion_bound_report",
    ),
    "ivp": ("EquationSign", "IvpSpec", "Trajectory", "integrate_ivp"),
    "radial_ops": (
        "Counterexample", "CutoffBarrier", "EvalPoint", "LogBarrier",
        "PowerBarrier", "eval_profile", "fd_agreement",
        "p_laplacian_fd", "p_laplacian_radial", "power_transform_residual",
    ),
    "reports": ("IdentityReport",),
    "rk45": (),
    "shooting": (
        "Outcome", "OutcomeKind", "classify_outcome", "pohozaev_residual",
        "rescaled_spec", "scaling_covariance_report", "scaling_exponent",
        "sweep_outcomes",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
