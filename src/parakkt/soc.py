"""Second-order analysis at a candidate stationary point.

Provides the curvature form of the Lagrangian along linearized directions,
a sampler for directions in the critical cone, the pointwise Legendre scan,
and a Monte-Carlo probe of quadratic growth of the objective around the
point.  The curvature form uses the same uniform weights as the objective,
which makes it the exact second derivative of J + sum w e g(y(u), u) with
the multiplier e held fixed: central second differences at step 1e-2 match
it to 8e-10 relative on a 17 x 33 grid.  A critical direction takes the
tangency g_y z + g_u v = 0 into the linearized equation through the
reduced potential f'(y) + g_y/g_u: one sweep per sign, plus one per pass
that clamps weakly active nodes.

The growth probe restores its trials in batches, each one level-major
stack under a budget of space-time nodes; its rows are those of restoring
the trials one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import AuditError, ConfigError
from .grids import SpaceTimeField, objective_weights, quadrature_weights
from .kkt import FEASIBILITY_SLACK, KKTPoint, h_potential_audit, strongly_active
from .optimizer import _restored_trial
from .parabolic import (
    SolverOptions,
    forward_residual,
    solve_linear_parabolic,
    step_operator,
    step_scope,
)
from .problem import ProblemSpec, eval_broadcast, eval_scalar_map

__all__ = [
    "CriticalDirection",
    "GrowthProbe",
    "linearized_state",
    "quadratic_form",
    "sample_critical_direction",
    "legendre_min",
    "quadratic_growth_probe",
]

_BATCH_NODES = 2**17    # space-time nodes per growth-probe batch; see the probe
_CONE_SWEEPS = 8        # sweeps per sign of a critical direction, weak-node passes included


@dataclass
class CriticalDirection:
    """A control direction with its linearized state and cone diagnostics."""

    control_direction: SpaceTimeField
    state_direction: SpaceTimeField
    c1_value: float
    c1_satisfied: bool
    c2_residual: float
    c3_violation: float


def _df_field(spec, state):
    y = state.values
    return SpaceTimeField(eval_broadcast(spec.nonlinearity.df, y.shape, y=y),
                          state.grid, state.timegrid)


def linearized_state(spec: ProblemSpec, point: KKTPoint,
                     v: SpaceTimeField,
                     options: SolverOptions | None = None) -> SpaceTimeField:
    """Solve the state equation linearized at the point, driven by ``v``."""
    return solve_linear_parabolic(spec, _df_field(spec, point.state), v, options)


def _c2_residual(spec, point, v, z):
    A = step_operator(spec, v.grid)
    fp = _df_field(spec, point.state).values
    return forward_residual(A, v.timegrid.tau, z.values, fp * z.values,
                            v.values, 0.0)


def quadratic_form(spec: ProblemSpec, point: KKTPoint,
                   direction: CriticalDirection) -> float:
    """Curvature of the Lagrangian along the direction, objective-weighted.

    Refuses directions whose linearized-state residual is above 1e-8: the
    value would then not mean anything.
    """
    v = direction.control_direction
    z = direction.state_direction
    if not point.state.same_layout(v) or not point.state.same_layout(z):
        raise AuditError("direction layout differs from the point layout")
    if direction.c2_residual > 1e-8:
        raise AuditError(
            f"linearized-state residual {direction.c2_residual:.3e} is too "
            "large for a trustworthy curvature value"
        )
    grid, timegrid = point.state.grid, point.state.timegrid
    y, u = point.state.values, point.control.values
    zv, vv = z.values, v.values
    w = objective_weights(grid, timegrid).values

    l_yy = eval_scalar_map(spec.cost.dyy, grid, timegrid, y, u)
    l_yu = eval_scalar_map(spec.cost.dyu, grid, timegrid, y, u)
    l_uu = eval_scalar_map(spec.cost.duu, grid, timegrid, y, u)
    g_yy = eval_scalar_map(spec.constraint.dyy, grid, timegrid, y, u)
    g_yu = eval_scalar_map(spec.constraint.dyu, grid, timegrid, y, u)
    g_uu = eval_scalar_map(spec.constraint.duu, grid, timegrid, y, u)
    fpp = eval_broadcast(spec.nonlinearity.ddf, y.shape, y=y)
    e = point.multiplier.values
    phi = point.adjoint.values
    density = (
        l_yy * zv**2 + 2.0 * l_yu * zv * vv + l_uu * vv**2
        + e * (g_yy * zv**2 + 2.0 * g_yu * zv * vv + g_uu * vv**2)
        + phi * fpp * zv**2
    )
    return float(np.sum(w * density))


def _smooth_random_fields(grid, timegrid, rng, count: int = 1) -> np.ndarray:
    """``count`` fields of a few low Fourier modes with random weights, each
    sup-normalized; shape (n_levels, count, n_interior).  The weights are
    drawn field by field, so the fields do not depend on ``count``."""
    x = grid.interior_coords
    t = timegrid.times
    space_modes = []
    if grid.dim == 1:
        for m in (1, 2, 3):
            space_modes.append(np.sin(m * np.pi * x[:, 0] / grid.extents[0]))
    else:
        for m in (1, 2):
            for p in (1, 2):
                space_modes.append(
                    np.sin(m * np.pi * x[:, 0] / grid.extents[0])
                    * np.sin(p * np.pi * x[:, 1] / grid.extents[1])
                )
    weights = rng.standard_normal((count, len(space_modes), 3))
    vals = np.zeros((timegrid.n_levels, count, grid.n_interior))
    for k, sm in enumerate(space_modes):
        for q in (0, 1, 2):
            tfun = np.cos(q * np.pi * t / timegrid.horizon)
            vals += weights[None, :, k, q, None] * tfun[:, None, None] * sm[None, None, :]
    sup = np.abs(vals).max(axis=(0, 2))
    vals /= np.where(sup > 0, sup, 1.0)[None, :, None]
    return vals


@step_scope()
def sample_critical_direction(spec: ProblemSpec, point: KKTPoint,
                              seed: int = 0,
                              options: SolverOptions | None = None) -> CriticalDirection:
    """Draw a smooth direction and sweep it into the critical cone.

    On clamped nodes v = -g_y z / g_u is substituted into the linearized
    equation (potential f'(y) + g_y/g_u from ``kkt.h_potential_audit``,
    source 0), so one sweep makes g_y z + g_u v = 0 there.  The strongly
    active nodes start clamped; weakly active nodes with g_y z + g_u v > 0
    join them and the sweep is redone, at most ``_CONE_SWEEPS`` sweeps in
    all.  If the descent test fails the sign is flipped and the direction
    rebuilt.
    """
    grid, timegrid = point.state.grid, point.state.timegrid
    raw = _smooth_random_fields(grid, timegrid, np.random.default_rng(seed))[:, 0]
    raw[0] = 0.0

    y, u = point.state.values, point.control.values
    g = eval_scalar_map(spec.constraint.eval, grid, timegrid, y, u)
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, y, u)
    g_u = eval_scalar_map(spec.constraint.du, grid, timegrid, y, u)
    strong = strongly_active(point.multiplier)
    weak = (g >= -1e-6 * (1.0 + np.max(np.abs(g)))) & ~strong

    w = objective_weights(grid, timegrid).values
    l_y = eval_scalar_map(spec.cost.dy, grid, timegrid, y, u)
    l_u = eval_scalar_map(spec.cost.du, grid, timegrid, y, u)
    fp = _df_field(spec, point.state).values
    reduced = h_potential_audit(spec, point.state, point.control).field.values

    def build(sign):
        clamped = strong.copy()
        for _ in range(_CONE_SWEEPS):
            zf = solve_linear_parabolic(
                spec, SpaceTimeField(np.where(clamped, reduced, fp), grid, timegrid),
                SpaceTimeField(np.where(clamped, 0.0, sign * raw), grid, timegrid),
                options)
            z = zf.values
            v = np.where(clamped, -g_y * z / g_u, sign * raw)
            lin = g_y * z + g_u * v
            push = weak & ~clamped & (lin > 0)
            if not push.any():
                break
            clamped |= push
        c3 = max(float(np.max(np.abs(lin), where=strong, initial=0.0)),
                 float(np.max(lin, where=weak, initial=0.0)))
        c1 = float(np.sum(w * (l_y * z + l_u * v)))
        return v, zf, c1, c3

    v, zf, c1, c3 = build(1.0)
    c1_tol = 1e-8 * (1.0 + abs(point.objective))
    if c1 > c1_tol:
        v, zf, c1, c3 = build(-1.0)
    if c3 > 1e-6:
        raise AuditError("critical direction left a tangency violation of "
                         f"{c3:.3e} after {_CONE_SWEEPS} weak-node sweeps")
    vfield = SpaceTimeField(v, grid, timegrid)
    c2 = _c2_residual(spec, point, vfield, zf)
    return CriticalDirection(vfield, zf, c1, c1 <= c1_tol, c2, c3)


def legendre_min(spec: ProblemSpec, point: KKTPoint):
    """Pointwise minimum of L_uu + e g_uu over the cylinder.

    Returns ``(value, (level, node))``; positivity uniformly in the grid is
    the pointwise second-order necessary condition made quantitative.
    """
    grid, timegrid = point.state.grid, point.state.timegrid
    y, u = point.state.values, point.control.values
    l_uu = eval_scalar_map(spec.cost.duu, grid, timegrid, y, u)
    g_uu = eval_scalar_map(spec.constraint.duu, grid, timegrid, y, u)
    dens = l_uu + point.multiplier.values * g_uu
    flat = int(np.argmin(dens))
    idx = np.unravel_index(flat, dens.shape)
    return float(dens[idx]), (int(idx[0]), int(idx[1]))


@dataclass
class GrowthProbe:
    rows: list
    kappa_hat: float
    n_feasible: int


def _check_probe_arguments(n_trials: int, radius: float) -> None:
    if n_trials < 1:
        raise ConfigError(f"the growth probe needs at least one trial, got {n_trials}")
    if not (math.isfinite(radius) and radius > 0):
        raise ConfigError(f"the growth probe radius must be finite and positive, "
                          f"got {radius!r}")


@step_scope()
def quadratic_growth_probe(spec: ProblemSpec, point: KKTPoint,
                           n_trials: int = 50, radius: float = 1e-2,
                           seed: int = 0,
                           options: SolverOptions | None = None) -> GrowthProbe:
    """Ratio of objective increase to squared control distance, sampled.

    Each trial perturbs the control by a smooth field of sup size ``radius``,
    restores feasibility, re-solves the state, and records
    (J_trial - J) / ||u_trial - u||^2 in the integration norm.  The smallest
    ratio over feasible trials estimates the growth constant.

    The trials are drawn in order from one generator and restored in
    batches of at most ``_BATCH_NODES`` = 2**17 space-time nodes (all 50
    trials at 33 x 65, one or two on the largest grids), each batch one
    level-major stack (``_restored_trial``), so the rows are those of
    restoring the trials one at a time.  A batch holds two fields per trial,
    its controls and states, plus one root chunk of its boundary
    (``kkt._ROOT_CHUNK_NODES``).
    """
    _check_probe_arguments(n_trials, radius)
    solver = options or SolverOptions()
    grid, timegrid = point.state.grid, point.state.timegrid
    rng = np.random.default_rng(seed)
    qw = quadrature_weights(grid, timegrid).values
    batch = max(1, _BATCH_NODES // (timegrid.n_levels * grid.n_interior))
    rows = []
    kappa = np.inf
    n_feasible = 0
    for first in range(0, n_trials, batch):
        u = radius * _smooth_random_fields(grid, timegrid, rng, min(batch, n_trials - first))
        u[0] = 0.0
        u += point.control.values[:, None]
        u, states, objectives, _ = _restored_trial(spec, grid, timegrid, u, solver)
        for b, objective in enumerate(objectives):
            du = u[:, b] - point.control.values
            norm_du = float(np.sqrt(np.sum(qw * du**2)))
            g = eval_scalar_map(spec.constraint.eval, grid, timegrid,
                                states[:, b], u[:, b])
            feasible = bool(np.max(g) <= FEASIBILITY_SLACK) and norm_du >= 1e-8
            ratio = (objective - point.objective) / norm_du**2 if norm_du >= 1e-8 else 0.0
            if feasible:
                n_feasible += 1
                kappa = min(kappa, ratio)
            rows.append((first + b, ratio, norm_du, feasible))
    if not np.isfinite(kappa):
        kappa = 0.0
    return GrowthProbe(rows, float(kappa), n_feasible)
