"""Outer solver: fixed-point control updates safeguarded by a line search.

Each sweep solves the state forward, the adjoint backward, and then the
pointwise constrained minimization at every node, which yields both a
candidate control and a candidate multiplier.  The line search descends the
merit M(u) = J(u) + sum w e g(y(u), u), the pointwise Lagrangian with the
multiplier e of the sweep frozen: the sweep's adjoint carries e g_y, so its
gradient L_u - phi + e g_u is the derivative of M, not of J alone, whenever
g depends on y.  The move toward the candidate is a strict descent direction
for M (strong convexity in u guarantees it), so an Armijo backtracking step
keeps the sweep globally convergent; near the solution the full step is
accepted and the iteration inherits the contraction of the fixed point.  The
trace reports J.

The objective, the duality pairing, and the directional derivative all use
the uniform objective weights, under which the backward sweep is the exact
transpose of the forward one; the reported gradient is therefore the exact
derivative of the reported objective, not an approximation of it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigError, SolveError
from .grids import SpaceTimeField, SpatialGrid, TimeGrid, objective_weights
from .kkt import (
    FEASIBILITY_SLACK,
    KKTPoint,
    _boundary_rows,
    _multiplier_max,
    _pointwise_residuals,
    control_update_field,
    kkt_residuals,
)
from .parabolic import SolverOptions, _march_states, solve_adjoint, step_scope
from .problem import ProblemSpec, eval_scalar_map

__all__ = [
    "OptimizerOptions",
    "SolveTrace",
    "discrete_objective",
    "reduced_gradient",
    "recompute_certificate",
    "solve_ocp",
]

TRACE_HEADER = "iter,J,step,stat_res,comp_res,feas_viol,active_count"

_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 30
MAX_CERTIFICATE_SWEEPS = 100


@dataclass(frozen=True)
class OptimizerOptions:
    max_outer: int = 200
    tol_kkt: float = 1e-8
    u_init: float = 0.0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if not 0 < self.tol_kkt < np.inf:
            raise ConfigError(f"tol_kkt must be finite and positive: {self.tol_kkt!r}")
        if self.max_outer < 0:
            raise ConfigError(f"max_outer must be at least 0: {self.max_outer!r}")
        if not np.isfinite(self.u_init):
            raise ConfigError(f"u_init must be finite: {self.u_init!r}")


@dataclass
class SolveTrace:
    rows: list = field(default_factory=list)
    converged: bool = False
    message: str = ""

    def append(self, it, objective, step, stat, comp, feas, active):
        self.rows.append((it, objective, step, stat, comp, feas, active))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(TRACE_HEADER + "\n")
        for it, objective, step, stat, comp, feas, active in self.rows:
            out.write(
                "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
                % (it, objective, step, stat, comp, feas, active)
            )
        return out.getvalue()


def discrete_objective(spec: ProblemSpec, state: SpaceTimeField,
                       control: SpaceTimeField) -> float:
    """The weighted running cost over the cylinder (initial level excluded)."""
    w = objective_weights(state.grid, state.timegrid)
    lvals = eval_scalar_map(spec.cost.eval, state.grid, state.timegrid,
                            state.values, control.values)
    return float(np.sum(w.values * lvals))


def reduced_gradient(spec: ProblemSpec, state: SpaceTimeField,
                     control: SpaceTimeField,
                     adjoint: SpaceTimeField) -> SpaceTimeField:
    """Derivative of the reduced objective with respect to the control.

    Equal to L_u - phi nodewise.  On the levels the objective weights see
    this is the exact discrete derivative; the value it also assigns to the
    initial level is the same formula used as a diagnostic, since that level
    carries no weight.
    """
    l_u = eval_scalar_map(spec.cost.du, state.grid, state.timegrid,
                          state.values, control.values)
    return SpaceTimeField(l_u - adjoint.values, state.grid, state.timegrid)


def _merit(spec, weights, state, control, objective, multiplier):
    """J + sum w e g(y, u) at a point whose objective J is known."""
    g = eval_scalar_map(spec.constraint.eval, state.grid, state.timegrid,
                        state.values, control.values)
    return objective + float(np.sum(weights.values * multiplier * g))


def _merit_gradient(spec, state, control, adjoint, multiplier):
    """L_u - phi + e g_u, the derivative of the merit for an adjoint solved with e."""
    g_u = eval_scalar_map(spec.constraint.du, state.grid, state.timegrid,
                          state.values, control.values)
    return reduced_gradient(spec, state, control, adjoint).values + multiplier * g_u


def _sweep_reads_multiplier(spec, state, control) -> bool:
    """Whether the pair's adjoint sweep reads its multiplier e.

    The sweep source is -(L_y + e g_y).  Where g_y is 0 at every node (a
    constraint on u alone), e g_y is a signed zero for every finite e, so
    sweeps with any two finite multipliers give the same adjoint.
    """
    return bool(np.any(eval_scalar_map(spec.constraint.dy, state.grid, state.timegrid,
                                       state.values, control.values)))


@step_scope()
def recompute_certificate(spec: ProblemSpec, state: SpaceTimeField,
                          control: SpaceTimeField,
                          solver: SolverOptions | None = None):
    """Rebuild (adjoint, multiplier) from a frozen state/control pair.

    Sweeps the backward solve and the boundary-based multiplier formula until
    the multiplier stops moving; ``SolveError`` reports the last change if
    it still moves after ``MAX_CERTIFICATE_SWEEPS`` sweeps, or if a
    multiplier is not finite.  Where the sweep does not read the multiplier
    (g_y = 0 at every node), the first sweep's pair is returned: a second
    sweep would give its adjoint again, the formula its multiplier again,
    and the loop would stop there with the same pair.  The result depends only on the inputs, so two calls on the
    same pair agree to rounding regardless of when or where the pair was
    produced.
    """
    solver = solver or SolverOptions()
    grid, timegrid = state.grid, state.timegrid
    e = SpaceTimeField.zeros(grid, timegrid)
    multiplier_of = _multiplier_max(spec, state)
    gap = np.inf
    for sweep in range(MAX_CERTIFICATE_SWEEPS):
        adjoint = solve_adjoint(spec, state, control, e, solver)
        e_next = multiplier_of(adjoint)
        # The gap is finite exactly when both multipliers are.
        gap = float(np.max(np.abs(e_next.values - e.values)))
        e = e_next
        if np.isfinite(gap) and (
                gap <= 1e-14 * (1.0 + float(np.max(np.abs(e.values))))
                or (sweep == 0 and not _sweep_reads_multiplier(spec, state, control))):
            return adjoint, e
    raise SolveError(
        f"certificate sweeps did not settle in {MAX_CERTIFICATE_SWEEPS} sweeps: last "
        f"multiplier change {gap:.3e}"
    )


def _restored_trial(spec, grid, timegrid, u, solver):
    """State solves plus feasibility restoration of a stack of controls.

    ``u`` holds B controls level by level, (n_levels, B, n_interior), and is
    restored in place: one stacked march (``parabolic._march_states``), a
    projection onto the constraint, and one march of the rows it moved, at
    most twice; a row moved by both passes must end feasible.  Returns ``(u,
    states, objectives, boundary)``, each row what restoring it alone gives.
    For a stack of one, ``boundary`` is the constraint boundary its last
    projection used, or ``None`` if that projection moved it; a larger stack
    returns ``None`` rather than hold one more field per row.  Each pass
    roots its boundaries by ``kkt._boundary_rows``, once in a step scope where
    they read no state.  A failure raises ``SolveError``.
    """
    n_rows = u.shape[1]
    states = _march_states(spec, grid, timegrid, u, solver)[0]
    boundary = None
    rows = slice(None)      # every row, as a view; then the rows the last pass moved
    for _ in range(2):
        ids = np.arange(n_rows)[rows]
        bounds = _boundary_rows(spec, grid, timegrid, [states[:, r] for r in ids])
        moved = []
        for r, b in zip(ids, bounds):
            if np.any(u[:, r] > b):
                np.minimum(u[:, r], b, out=u[:, r])
                moved.append(r)
            elif n_rows == 1:
                boundary = b
        if not moved:
            break
        rows = moved if len(moved) < n_rows else slice(None)
        states[:, rows] = _march_states(spec, grid, timegrid, u[:, rows], solver)[0]
    else:
        for r in moved:
            worst = float(np.max(eval_scalar_map(spec.constraint.eval, grid, timegrid,
                                                 states[:, r], u[:, r])))
            if worst > FEASIBILITY_SLACK:
                raise SolveError(f"feasibility restoration left the constraint "
                                 f"violated by {worst:.3e} after 2 projections")
    w = objective_weights(grid, timegrid).values
    return u, states, [float(np.sum(w * eval_scalar_map(spec.cost.eval, grid, timegrid,
                                                        states[:, r], u[:, r])))
                       for r in range(n_rows)], boundary


@step_scope()
def solve_ocp(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid,
              options: OptimizerOptions | None = None):
    """Solve the control problem on the given grids.

    Returns ``(point, trace, report)`` where the point is the best quadruple
    found, the trace logs one row per outer iteration, and the report holds
    the recomputed residuals of the returned point.  Non-convergence is not
    an exception: the trace says so and the report shows how far it got.
    """
    options = options or OptimizerOptions()
    solver = options.solver
    w = objective_weights(grid, timegrid)
    trace = SolveTrace()

    u_values = np.full((timegrid.n_levels, grid.n_interior),
                       float(options.u_init))

    def restored(u):
        """(control, state, objective, boundary) of ``u`` restored, a stack of one."""
        u, states, [objective], boundary = _restored_trial(spec, grid, timegrid, u[:, None],
                                                           solver)
        return (SpaceTimeField(u[:, 0], grid, timegrid),
                SpaceTimeField(states[:, 0], grid, timegrid), objective, boundary)

    control, state, objective, boundary = restored(u_values)
    e_values = np.zeros_like(control.values)

    adjoint = None
    e_new = e_values
    for it in range(1, options.max_outer + 1):
        adjoint = solve_adjoint(spec, state, control,
                                SpaceTimeField(e_values, grid, timegrid),
                                solver)
        u_new, e_new, boundary, constrained = control_update_field(
            spec, grid, timegrid, state.values, adjoint.values,
            boundary=boundary,
        )
        active = int(np.count_nonzero(constrained))

        stat, comp, sign, feas = _pointwise_residuals(
            spec, grid, timegrid, state.values, control.values,
            adjoint.values, e_new
        )
        if max(stat, comp, feas, sign) <= options.tol_kkt:
            trace.append(it, objective, 0.0, stat, comp, feas, active)
            # Refresh the adjoint with the candidate multiplier before
            # certifying, so the recursion the report checks is the one that
            # produced the returned fields.  A sweep that does not read the
            # multiplier would give the adjoint in hand again, and the update
            # of that adjoint e_new again, so both are kept (a field holds
            # finite values only, so a non-finite e_new fails either way).
            e_cert = e_new
            if _sweep_reads_multiplier(spec, state, control):
                adjoint = solve_adjoint(spec, state, control,
                                        SpaceTimeField(e_new, grid, timegrid),
                                        solver)
                _, e_cert, _, _ = control_update_field(
                    spec, grid, timegrid, state.values, adjoint.values,
                    boundary=boundary,
                )
            point = KKTPoint(state, control, adjoint,
                             SpaceTimeField(e_cert, grid, timegrid), objective)
            report = kkt_residuals(spec, point)
            if report.kkt_error <= options.tol_kkt:
                trace.converged = True
                trace.message = f"converged in {it} iterations"
                return point, trace, report
            e_values = e_cert
            continue

        direction = u_new - control.values
        gradient = _merit_gradient(spec, state, control, adjoint, e_values)
        slope = float(np.sum(w.values * gradient * direction))
        merit = _merit(spec, w, state, control, objective, e_values)
        step = 1.0
        accepted = None
        fallback = None
        for _ in range(_MAX_BACKTRACKS + 1):
            try:
                trial = restored(control.values + step * direction)
            except SolveError:
                # A trial whose state solve fails is a rejected step.
                step *= _BACKTRACK_FACTOR
                continue
            trial_merit = _merit(spec, w, trial[1], trial[0], trial[2], e_values)
            if slope < 0 and trial_merit <= merit + _ARMIJO_C1 * step * slope:
                accepted = (step, trial)
                break
            if fallback is None and trial_merit <= merit + 1e-14 * (1 + abs(merit)):
                fallback = (step, trial)
            step *= _BACKTRACK_FACTOR
        if accepted is None:
            accepted = fallback
        if accepted is None:
            trace.append(it, objective, 0.0, stat, comp, feas, active)
            trace.message = (
                f"line search failed at iteration {it}; no step reduced the "
                "merit"
            )
            break
        step, (control, state, objective, boundary) = accepted
        e_values = e_new
        trace.append(it, objective, step, stat, comp, feas, active)
    else:
        trace.message = f"stopped after {options.max_outer} iterations"

    if adjoint is None:
        adjoint = solve_adjoint(spec, state, control,
                                SpaceTimeField(e_values, grid, timegrid),
                                solver)
    point = KKTPoint(state, control, adjoint,
                     SpaceTimeField(e_new, grid, timegrid), objective)
    report = kkt_residuals(spec, point)
    return point, trace, report
