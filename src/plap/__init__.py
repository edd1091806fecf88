"""Numerical laboratory for radial p-Laplacian Liouville problems.

Critical exponents and regime classification, explicit barrier profiles and
the supercritical counterexample, degenerate radial shooting with outcome
classification, annulus boundary-value problems with a comparison principle,
three-sphere lower bounds, and directly checkable identity cores -- each
backed by an independent oracle in the verification suite.
"""

from .barriers import (
    CounterexampleConstants,
    HadamardInput,
    build_counterexample,
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
from .bvp import (
    AnnulusProblem,
    NewtonInfo,
    comparison_check,
    solve_annulus_dirichlet,
    solve_annulus_dirichlet_detailed,
)
from .errors import (
    BoundaryDominanceViolated,
    CrossedZero,
    DimensionRegime,
    DomainError,
    InterpolationError,
    NegativeWeightExponent,
    NewtonDivergence,
    NonPositiveValue,
    NotDecaying,
    NotPHarmonic,
    NotSupercritical,
    OriginSingularity,
    PlapError,
    RangeError,
    RegimeError,
    SingularGradient,
)
from .exponents import (
    ProblemParams,
    Regime,
    classify_regime,
    equation_critical,
    lambda_exponent,
    pohozaev_coefficient,
    serrin_critical,
)
from .identities import (
    RadialCutoff,
    RecursionSpec,
    caccioppoli_check,
    extremal_log_sequence,
    moser_recursion_bound,
    recursion_bound_report,
)
from .radial_ops import (
    Counterexample,
    CutoffBarrier,
    EvalPoint,
    GridProfile,
    LogBarrier,
    PowerBarrier,
    eval_profile,
    fd_agreement,
    p_laplacian_fd,
    p_laplacian_radial,
    power_transform_residual,
)
from .reports import IdentityReport
from .shooting import (
    EquationSign,
    IvpSpec,
    Outcome,
    OutcomeKind,
    Trajectory,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
