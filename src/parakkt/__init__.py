"""Solver and diagnostics for parabolic optimal control with mixed
pointwise constraints on state and control."""

from .catalog import builtin_audit_box, builtin_problem, catalog_names
from .exceptions import (
    AssemblyError,
    AuditError,
    CatalogError,
    ConfigError,
    FieldIOError,
    GrammarError,
    HypothesisViolationError,
    OracleError,
    ParakktError,
    ProblemIOError,
    SolveError,
)
from .expressions import parse_expression
from .field_io import read_field, write_field
from .grids import (
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    assemble_operator,
    objective_weights,
    quadrature_weights,
)
from .kkt import (
    KKTPoint,
    ResidualReport,
    constraint_boundary,
    constraint_boundary_field,
    control_update_field,
    h_potential_audit,
    kkt_residuals,
    pointwise_control_update,
    recover_multiplier_division,
    recover_multiplier_max,
    strongly_active,
)
from .optimizer import (
    OptimizerOptions,
    SolveTrace,
    discrete_objective,
    recompute_certificate,
    reduced_gradient,
    solve_ocp,
)
from .oracle import (
    MultiplierComparison,
    NLPInstance,
    NLPSolution,
    compare_multipliers,
    discretize_to_nlp,
    pack_point,
    solve_nlp_active_set,
    unpack_solution,
)
from .parabolic import (
    SolverOptions,
    StateSolveReport,
    sample_initial_state,
    solve_adjoint,
    solve_linear_parabolic,
    solve_state,
)
from .problem import (
    HypothesisReport,
    Nonlinearity,
    ProblemSpec,
    ScalarMap2,
    validate_hypotheses,
)
from .problem_io import dumps, load_problem, loads
from .regularity import (
    ContinuityReport,
    HolderFit,
    active_boundary_jump,
    estimate_holder,
    multiplier_continuity_report,
)
from .soc import (
    CriticalDirection,
    GrowthProbe,
    legendre_min,
    quadratic_form,
    quadratic_growth_probe,
    sample_critical_direction,
)

__version__ = "0.1.0"
