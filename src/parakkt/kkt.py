"""Pointwise KKT machinery: control updates, multiplier recovery, residuals.

Everything here operates node by node: because the running cost is strongly
convex in u and the constraint is strictly increasing in u, the minimizer of
the pointwise Lagrangian and the constraint boundary are well-defined roots
of scalar monotone functions, which we compute vectorized over the whole
space-time cylinder: one Newton step from the start at every node, then a
bracketed Newton iteration, safeguarded by bisection, for the nodes left.
Both stop a node once its residual is exactly zero or its next Newton step,
by the declared derivative, is at most 4 eps (1 + |u|); a map affine in u
is settled by the first step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError, HypothesisViolationError, SolveError
from .grids import SpaceTimeField, SpatialGrid, TimeGrid
from .parabolic import _held, forward_residual, sample_initial_state, step_operator, step_scope
from .problem import ProblemSpec, cylinder_env, eval_broadcast, eval_scalar_map

__all__ = [
    "KKTPoint",
    "ResidualReport",
    "HPotentialAudit",
    "constraint_boundary",
    "constraint_boundary_field",
    "pointwise_control_update",
    "control_update_field",
    "recover_multiplier_division",
    "recover_multiplier_max",
    "h_potential_audit",
    "kkt_residuals",
    "strongly_active",
    "active_threshold",
]

_MAX_BRACKET_DOUBLINGS = 60
_MAX_ROOT_ITER = 200
# A root holds ~9 temporaries of its size: 7.4 MB for 50 states of 33 x 65
# rooted at once, 0.6 MB for a chunk of 2**13 nodes (4 such states).
_ROOT_CHUNK_NODES = 2**13       # nodes per root of a stack of states

FEASIBILITY_SLACK = 1e-8
# The state and adjoint recursions must hold to this times their scale
# (``ResidualReport``), in the max norm: a hundred times the default
# newton_tol, at which the state Newton stops on the same scale, while the
# adjoint sweep solves to rounding.  The certified catalog points read at
# most 1.4e-10 and 3e-11.
RECURSION_TOL = 1e-8


def _point_env(spec: ProblemSpec, x, t: float) -> dict:
    """A 1x1 cylinder at one point, on which the scalar wrappers run."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.size != spec.dim:
        raise ConfigError(
            f"need {spec.dim} spatial coordinate(s) in {spec.dim} dimension(s), "
            f"got {xs.size}"
        )
    env = {f"x{k + 1}": np.array([[xs[k]]]) for k in range(spec.dim)}
    env["t"] = np.array([[float(t)]])
    return env


def _monotone_root(fn, dfn, u0: np.ndarray, what: str) -> np.ndarray:
    """Roots of a per-point strictly increasing function, vectorized.

    Every node first takes one Newton step from its start value u0, to u1,
    and evaluates there: it is done if fn(u1) is exactly zero, or if the
    next step s = fn(u1) / dfn(u1) is finite and at most 4 eps (1 + |u1|)
    long, and then returns u1 - s; a map affine in u is done so everywhere,
    in two evaluations of fn.  A Newton point or step that is not finite
    just leaves its node to what follows.  The nodes left bracket the root
    between u0 and u1 if fn changes sign there, else by doubling steps away
    from u0 on the side the sign says; Newton steps then refine it, with
    bisection whenever they leave the bracket, until the residual is exactly
    zero, the bracket is at most 4 eps (1 + |u|) wide, or a step inside it
    passes the test above, which the node then takes.  Both step tests read
    the declared ``dfn`` alike: a slope k times too steep lets a node stop up
    to k times the tolerance from its root.  A step that rounds onto a
    bracket end tries the next float inside (``np.nextafter``) instead.
    Done nodes keep their value while the others go on.  ``fn`` and ``dfn``
    return arrays of the shape of ``u0``.
    """
    u = np.array(u0, dtype=float)
    v = fn(u)
    if not np.all(np.isfinite(v)):
        raise HypothesisViolationError(f"{what}: non-finite evaluation at start")
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        u1 = u - v / dfn(u)
        u1 = np.where(np.isfinite(u1), u1, u)
        v1 = fn(u1)
        s = v1 / dfn(u1)
        settled = (v1 == 0) | (np.abs(s) <= 4.0 * eps * (1.0 + np.abs(u1)))
        root = np.where(v1 == 0, u1, u1 - s)
    if settled.all():
        return root
    u = np.where(settled, root, u)     # on its root, with a zero residual
    v = np.where(settled, 0.0, v)
    down = (v > 0) & (v1 < 0) & (u1 < u)
    up = (v < 0) & (v1 > 0) & (u1 > u)
    lo, vlo = np.where(down, u1, u), np.where(down, v1, v)
    hi, vhi = np.where(up, u1, u), np.where(up, v1, v)
    step = 1.0          # every node doubles in lockstep
    need_lo = vlo > 0
    need_hi = vhi < 0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if not (need_lo.any() or need_hi.any()):
            break
        if need_lo.any():
            lo = np.where(need_lo, lo - step, lo)
            vlo = np.where(need_lo, fn(lo), vlo)
        if need_hi.any():
            hi = np.where(need_hi, hi + step, hi)
            vhi = np.where(need_hi, fn(hi), vhi)
        if not (np.all(np.isfinite(vlo)) and np.all(np.isfinite(vhi))):
            raise HypothesisViolationError(f"{what}: non-finite evaluation while bracketing")
        need_lo = vlo > 0
        need_hi = vhi < 0
        step *= 2.0
    if need_lo.any() or need_hi.any():
        raise HypothesisViolationError(
            f"{what}: no sign change within {_MAX_BRACKET_DOUBLINGS} bracket doublings; "
            "the monotonicity assumption in u looks violated"
        )
    # A bracket end may already be a root, which no Newton step would enter.
    u = np.where(vlo == 0, lo, np.where(vhi == 0, hi, 0.5 * (lo + hi)))
    done = settled
    for _ in range(_MAX_ROOT_ITER):
        v = fn(u)
        lo = np.where(v <= 0, u, lo)
        hi = np.where(v > 0, u, hi)
        tol = 4.0 * eps * (1.0 + np.abs(u))
        landed = done | (v == 0) | ((hi - lo) <= tol)
        if landed.all():
            break
        live = ~landed
        d = dfn(u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trial = u - v / d
        at_lo = live & (trial == lo)
        at_hi = live & (trial == hi)
        trial[at_lo] = np.nextafter(lo[at_lo], hi[at_lo])
        trial[at_hi] = np.nextafter(hi[at_hi], lo[at_hi])
        ok = np.isfinite(d) & np.isfinite(trial) & (trial > lo) & (trial < hi)
        small_step = ok & (np.abs(trial - u) <= tol)
        np.copyto(u, trial, where=live & ok)
        bisect = live & ~ok
        u[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        done = landed | small_step
        if done.all():
            break
    else:
        raise SolveError(f"{what}: root refinement did not converge")
    return u


def _check_gu(spec: ProblemSpec, g_u: np.ndarray, where: str) -> None:
    """Refuse a (level, node) field of g_u that drops below gamma2 / 2
    anywhere; the floor is signed, so a negative g_u is refused too."""
    if np.any(g_u < 0.5 * spec.gamma2):
        k = np.unravel_index(int(np.argmin(g_u)), g_u.shape)
        raise HypothesisViolationError(
            f"g_u = {g_u[k]:.3e} {where} at level {k[0]}, node {k[1]} is below "
            f"half the declared bound gamma2 = {spec.gamma2:g}"
        )


def _boundary(spec: ProblemSpec, env: dict, y: np.ndarray) -> np.ndarray:
    g = spec.constraint
    return _monotone_root(
        lambda u: eval_broadcast(g.eval, y.shape, y=y, u=u, **env),
        lambda u: eval_broadcast(g.du, y.shape, y=y, u=u, **env),
        np.zeros(y.shape), "constraint boundary",
    )


def _boundary_reads_state(spec: ProblemSpec) -> bool:
    """Whether the constraint boundary can depend on y: its root reads g
    and g_u alone.  A map that is not a compiled expression (no
    ``variables``) counts as reading y."""
    g = spec.constraint
    return any("y" in getattr(fn, "variables", {"y"}) for fn in (g.eval, g.du))


def _control_update(spec: ProblemSpec, env: dict, y: np.ndarray,
                    phi: np.ndarray, boundary: np.ndarray):
    cost, g = spec.cost, spec.constraint

    def at(fn, u):
        return eval_broadcast(fn, y.shape, y=y, u=u, **env)

    u_free = _monotone_root(lambda u: at(cost.du, u) - phi,
                            lambda u: at(cost.duu, u),
                            boundary.copy(), "control stationarity")
    constrained = at(g.eval, u_free) > 0.0
    u = np.where(constrained, boundary, u_free)
    lu_b = at(cost.du, boundary)
    gu_b = at(g.du, boundary)
    _check_gu(spec, gu_b, "on the constraint boundary")
    e = np.where(constrained, (phi - lu_b) / gu_b, 0.0)
    return u, e, boundary, constrained


def _boundary_rows(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid, y_rows):
    """An iterator over the constraint boundary of each state of a stack or
    sequence, in order, rooted in chunks of at most ``_ROOT_CHUNK_NODES``
    nodes (one state at least); the root is per node.  A boundary that reads
    no state is one field for every row, rooted at y = 0 once per call or,
    read-only, once per open step scope."""
    env = cylinder_env(grid, timegrid)
    shape = (timegrid.n_levels, grid.n_interior)
    if not _boundary_reads_state(spec):
        held = _held(("boundary", shape[0], timegrid.horizon), spec, grid,
                     lambda: _boundary(spec, env, np.zeros(shape)))
        return iter([held] * len(y_rows))
    rows = max(1, _ROOT_CHUNK_NODES // (shape[0] * shape[1]))
    return (b for i in range(0, len(y_rows), rows)
            for b in _boundary(spec, env, np.asarray(y_rows[i:i + rows])))


def constraint_boundary_field(spec: ProblemSpec, grid: SpatialGrid,
                              timegrid: TimeGrid,
                              y_values: np.ndarray) -> np.ndarray:
    """Per-node root of u -> g(x, t, y, u), the feasible set being u <= root,
    for one state or a stack of them, by ``_boundary_rows`` (read-only where
    a step scope holds it)."""
    if y_values.ndim == 2:
        return next(_boundary_rows(spec, grid, timegrid, y_values[None]))
    return np.array(list(_boundary_rows(spec, grid, timegrid, y_values)))


def constraint_boundary(spec: ProblemSpec, x, t: float, y: float) -> float:
    """Scalar wrapper: the field version on a 1x1 cylinder at (x, t)."""
    boundary = _boundary(spec, _point_env(spec, x, t), np.array([[float(y)]]))
    return float(boundary[0, 0])


def control_update_field(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid,
                         y_values: np.ndarray, phi_values: np.ndarray, *,
                         boundary: np.ndarray | None = None):
    """Pointwise minimizer of the constrained control problem at every node.

    Returns ``(u, e, boundary, constrained)``: the new control, the matching
    multiplier (zero off the active set), the constraint boundary in u, and
    the mask of nodes where the constraint decided the value.  ``boundary``
    is ``constraint_boundary_field`` of ``y_values``, solved for unless given.
    """
    if boundary is None:
        boundary = constraint_boundary_field(spec, grid, timegrid, y_values)
    return _control_update(spec, cylinder_env(grid, timegrid), y_values,
                           phi_values, boundary)


def pointwise_control_update(spec: ProblemSpec, x, t: float, y: float,
                             phi: float):
    """Scalar (u, e) update: the field version on a 1x1 cylinder at (x, t)."""
    env, y = _point_env(spec, x, t), np.array([[float(y)]])
    u, e, _, _ = _control_update(spec, env, y, np.array([[float(phi)]]),
                                 _boundary(spec, env, y))
    return float(u[0, 0]), float(e[0, 0])


def recover_multiplier_division(spec: ProblemSpec, state: SpaceTimeField,
                                control: SpaceTimeField,
                                adjoint: SpaceTimeField) -> SpaceTimeField:
    """Multiplier from pointwise stationarity: e = (phi - L_u) / g_u.

    Evaluated at the given control; exact at a stationary point, and off a
    stationary point it reports the stationarity defect scaled by 1/g_u.
    """
    grid, timegrid = state.grid, state.timegrid
    l_u = eval_scalar_map(spec.cost.du, grid, timegrid, state.values,
                          control.values)
    g_u = eval_scalar_map(spec.constraint.du, grid, timegrid, state.values,
                          control.values)
    _check_gu(spec, g_u, "at the control")
    return SpaceTimeField((adjoint.values - l_u) / g_u, grid, timegrid)


def recover_multiplier_max(spec: ProblemSpec, state: SpaceTimeField,
                           adjoint: SpaceTimeField) -> SpaceTimeField:
    """Multiplier from the state and adjoint alone, via the constraint boundary.

    The control never enters: with ``b`` the constraint boundary in u, the
    multiplier is max{0, phi - L_u(x, t, y, b)} / g_u(x, t, y, b).  This is
    the formula that certifies the sign condition by construction.
    """
    return _multiplier_max(spec, state)(adjoint)


def _multiplier_max(spec: ProblemSpec, state: SpaceTimeField):
    """``recover_multiplier_max`` with the state frozen: adjoint -> multiplier.

    The constraint boundary and L_u, g_u on it depend on the state alone, so
    they are solved and checked once, however many adjoints follow.
    """
    grid, timegrid = state.grid, state.timegrid
    y = state.values
    boundary = constraint_boundary_field(spec, grid, timegrid, y)
    lu_b = eval_scalar_map(spec.cost.du, grid, timegrid, y, boundary)
    gu_b = eval_scalar_map(spec.constraint.du, grid, timegrid, y, boundary)
    _check_gu(spec, gu_b, "on the constraint boundary")
    return lambda adjoint: SpaceTimeField(
        np.maximum(0.0, adjoint.values - lu_b) / gu_b, grid, timegrid)


@dataclass(frozen=True)
class HPotentialAudit:
    field: SpaceTimeField
    lower: float
    upper: float


def h_potential_audit(spec: ProblemSpec, state: SpaceTimeField,
                      control: SpaceTimeField) -> HPotentialAudit:
    """The zero-order coefficient f'(y) + g_y/g_u of the reduced dynamics.

    Its boundedness is what the continuity theory of the multiplier rests
    on, so the audit reports the extremes over the grid.
    """
    grid, timegrid = state.grid, state.timegrid
    fp = eval_broadcast(spec.nonlinearity.df, state.values.shape, y=state.values)
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, state.values,
                          control.values)
    g_u = eval_scalar_map(spec.constraint.du, grid, timegrid, state.values,
                          control.values)
    _check_gu(spec, g_u, "at the control")
    vals = fp + g_y / g_u
    field = SpaceTimeField(vals, grid, timegrid)
    return HPotentialAudit(field, float(np.min(vals)), float(np.max(vals)))


@dataclass
class KKTPoint:
    """A candidate stationary quadruple with its objective value."""

    state: SpaceTimeField
    control: SpaceTimeField
    adjoint: SpaceTimeField
    multiplier: SpaceTimeField
    objective: float


@dataclass(frozen=True)
class ResidualReport:
    """The first-order residuals of a point, with the sizes its two
    recursions are gated against: ``state_scale`` = 1 + max |y| + max |u|,
    the scale of the state march's tolerance, and ``adjoint_scale`` =
    1 + max |phi| + max |L_y + e g_y|, the same for the adjoint equation."""

    stat_res: float
    comp_res: float
    sign_viol: float
    feas_viol: float
    adjoint_res: float
    state_res: float
    state_scale: float
    adjoint_scale: float

    @property
    def kkt_error(self) -> float:
        return max(self.stat_res, self.comp_res, self.sign_viol, self.feas_viol)

    def refusal(self, tol: float, recursion_tol: float = RECURSION_TOL) -> str | None:
        """Why the point is not certified at ``tol``, or None: the pointwise
        residuals must meet ``tol`` and each recursion ``recursion_tol``
        times its scale."""
        if not self.kkt_error <= tol:
            return f"KKT error {self.kkt_error:.3e} exceeds tolerance {tol:g}"
        for name, res, scale in (("state", self.state_res, self.state_scale),
                                 ("adjoint", self.adjoint_res, self.adjoint_scale)):
            if not res <= recursion_tol * scale:
                return (f"{name} recursion residual {res:.3e} exceeds "
                        f"{recursion_tol:g} x {scale:.4g}")
        return None


def active_threshold(multiplier: SpaceTimeField) -> float:
    return 1e-6 * (1.0 + float(np.max(np.abs(multiplier.values))))


def strongly_active(multiplier: SpaceTimeField) -> np.ndarray:
    """Mask of nodes whose multiplier clearly certifies an active constraint."""
    return multiplier.values > active_threshold(multiplier)


def _pointwise_residuals(spec: ProblemSpec, grid: SpatialGrid,
                         timegrid: TimeGrid, y, u, phi, e):
    """Largest (stationarity, complementarity, sign, feasibility) defects."""
    l_u = eval_scalar_map(spec.cost.du, grid, timegrid, y, u)
    g_u = eval_scalar_map(spec.constraint.du, grid, timegrid, y, u)
    g = eval_scalar_map(spec.constraint.eval, grid, timegrid, y, u)
    stat = float(np.max(np.abs(l_u - phi + e * g_u)))
    comp = float(np.max(np.abs(e * g)))
    sign = max(0.0, -float(np.min(e)))
    feas = max(0.0, float(np.max(g)))
    return stat, comp, sign, feas


@step_scope()
def kkt_residuals(spec: ProblemSpec, point: KKTPoint) -> ResidualReport:
    """Recompute all first-order residuals of a quadruple from scratch."""
    state, control = point.state, point.control
    phi, e = point.adjoint.values, point.multiplier.values
    grid, timegrid = state.grid, state.timegrid
    tau = timegrid.tau
    y, u = state.values, control.values
    stat, comp, sign, feas = _pointwise_residuals(spec, grid, timegrid, y, u,
                                                  phi, e)

    A = step_operator(spec, grid)
    f_y = eval_broadcast(spec.nonlinearity.f, y.shape, y=y)
    state_res = forward_residual(A, tau, y, f_y, u,
                                 sample_initial_state(spec, grid))

    # Backward recursion from a virtual zero beyond the last level.
    l_y = eval_scalar_map(spec.cost.dy, grid, timegrid, y, u)
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, y, u)
    fp = eval_broadcast(spec.nonlinearity.df, y.shape, y=y)
    ahead = np.vstack([phi[1:], np.zeros((1, grid.n_interior))])
    a_t = step_operator(spec, grid, transposed=True)
    source = l_y + e * g_y
    r = phi / tau + (a_t @ phi.T).T + fp * phi - ahead / tau + source
    adj_res = float(np.max(np.abs(r)))
    state_scale = 1.0 + float(np.max(np.abs(y))) + float(np.max(np.abs(u)))
    adjoint_scale = 1.0 + float(np.max(np.abs(phi))) + float(np.max(np.abs(source)))
    return ResidualReport(stat, comp, sign, feas, adj_res, state_res,
                          state_scale, adjoint_scale)
