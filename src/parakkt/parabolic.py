"""Implicit time stepping for the state, linearized, and adjoint equations.

All three solvers march the same one-step systems

    (I/tau + A + diag(c)) v_new = v_old / tau + data,

differing only in the direction of the sweep, the operator (``A`` or its
transpose), and where the zero-order coefficient comes from.  The adjoint
sweep is the exact transpose of the forward linearized sweep, which is what
makes the reduced gradient exact in the discrete duality pairing.  Each
step system goes straight to LAPACK ``gtsv`` when the matrix is tridiagonal
(every 1-D grid); otherwise one SuperLU factorization serves a whole sweep,
each solve refined against it to rounding (see ``_StepSolver``).

The adjoint field is stored on all time levels.  Its last stored level is
the solution of the first backward step started from a virtual zero beyond
the horizon, so it is of size O(tau) rather than literally zero; writing the
literal zero instead would break the exactness of the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import ConfigError, SolveError
from .grids import (
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    assemble_operator,
    quadrature_weights,
)
from .problem import ProblemSpec, eval_broadcast, eval_scalar_map

__all__ = [
    "SolverOptions",
    "StateSolveReport",
    "sample_initial_state",
    "solve_state",
    "solve_linear_parabolic",
    "solve_adjoint",
]

_STALL_LIMIT = 5


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    linear_solver: str = "auto"

    def __post_init__(self):
        if self.linear_solver not in ("auto", "banded", "splu", "dense"):
            raise ConfigError(f"unknown linear solver {self.linear_solver!r}")


@dataclass(frozen=True)
class StateSolveReport:
    max_newton_iterations: int
    step_residuals: np.ndarray
    bound_ratio: float


class _StepSolver:
    """Solves (M + diag(d)) x = b repeatedly for a fixed sparse M.

    ``"banded"`` takes the three diagonals of M once and passes each system
    to LAPACK ``gtsv`` (a 1x1 system is a division); it needs bandwidth at
    most 1, and ``"auto"`` picks it then, as on every 1-D grid.  ``"splu"``
    holds one SuperLU factorization (``spla.splu``) of M + diag(d0), d0 being
    the first solve's d.  At d = d0 a solve is the LU solve; at any other d
    it is refined with the residual r of M + diag(d) to a componentwise
    backward error max |r| / (|M||x| + |d x| + |b|) (LAPACK ``xGERFS``) of at
    most 2 eps, and M + diag(d) is factored and held instead once a
    correction fails to halve that error or it is not finite.  ``"dense"``
    (``np.linalg.solve``) stays as an independent backend for cross-checks.
    """

    def __init__(self, matrix: sp.spmatrix, mode: str):
        coo = matrix.tocoo()
        bw = int(np.abs(coo.row - coo.col).max())
        self.mode = mode if mode != "auto" else ("banded" if bw <= 1 else "splu")
        if self.mode == "banded":
            if bw > 1:
                raise ConfigError(f"linear solver 'banded' needs a tridiagonal "
                                  f"step matrix; this one has bandwidth {bw}")
            self.dl, self.d, self.du = (matrix.diagonal(k) for k in (-1, 0, 1))
            self.gtsv = scipy.linalg.get_lapack_funcs("gtsv", (self.d,))
        elif self.mode == "splu":
            self.base = matrix.tocsc()
            self.base.sort_indices()
            cols = np.repeat(np.arange(self.base.shape[1]), np.diff(self.base.indptr))
            self.diag_pos = np.flatnonzero(self.base.indices == cols)
            self.abs_base = abs(self.base)
            self.lu = self.lu_diag = None
        else:
            self.base = matrix.toarray()

    def solve(self, diag_add: np.ndarray, rhs: np.ndarray, step: int) -> np.ndarray:
        info = 0
        try:
            if self.mode == "banded" and self.d.size == 1:
                x = rhs / (self.d + diag_add)
            elif self.mode == "banded":
                x, info = self.gtsv(self.dl, self.d + diag_add, self.du, rhs,
                                    overwrite_d=True)[3:]
            elif self.mode == "splu":
                x = self._refined_solve(diag_add, rhs)
            else:
                x = np.linalg.solve(self.base + np.diag(diag_add), rhs)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise SolveError(
                f"singular step matrix at step {step}; reduce the time step"
            ) from exc
        if info != 0 or not np.isfinite(x).all():
            raise SolveError(
                f"singular step matrix at step {step}; reduce the time step"
            )
        return x

    def _refined_solve(self, diag_add: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.lu is None:
            data = self.base.data.copy()
            data[self.diag_pos] += diag_add
            self.lu = spla.splu(sp.csc_matrix((data, self.base.indices, self.base.indptr),
                                              shape=self.base.shape))
            self.lu_diag = diag_add.copy()
        x = self.lu.solve(rhs)
        if np.array_equal(diag_add, self.lu_diag):
            return x
        last = np.inf
        while True:
            r = rhs - (self.base @ x + diag_add * x)
            scale = self.abs_base @ np.abs(x) + np.abs(diag_add * x) + np.abs(rhs)
            err = float(np.max(np.abs(r) / np.maximum(scale, np.finfo(float).tiny)))
            if err <= 2.0 * np.finfo(float).eps:
                return x
            if not np.isfinite(err) or err > last / 2.0:
                self.lu = None
                return self._refined_solve(diag_add, rhs)
            last = err
            x = x + self.lu.solve(r)


def _step_machinery(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid,
                    options: SolverOptions, adjoint: bool):
    op = assemble_operator(spec, grid, adjoint=adjoint)
    base = (sp.identity(grid.n_interior, format="csr") / timegrid.tau
            + op.matrix).tocsr()
    return op, _StepSolver(base, options.linear_solver)


def sample_initial_state(spec: ProblemSpec, grid: SpatialGrid) -> np.ndarray:
    vals = eval_broadcast(spec.initial_state, (grid.n_interior,),
                          **grid.spatial_env())
    if not np.all(np.isfinite(vals)):
        raise ConfigError("initial state evaluates non-finite on the grid")
    return vals


def solve_state(spec: ProblemSpec, control: SpaceTimeField,
                options: SolverOptions | None = None):
    """March the semilinear state equation driven by the given control.

    Returns the state field together with a report carrying the worst Newton
    iteration count, the final residual of every step, and the ratio of the
    state sup norm to the natural size of the data.
    """
    options = options or SolverOptions()
    grid, timegrid = control.grid, control.timegrid
    tau = timegrid.tau
    f, df = spec.nonlinearity.f, spec.nonlinearity.df
    op, stepper = _step_machinery(spec, grid, timegrid, options, adjoint=False)
    A = op.matrix

    values = np.empty((timegrid.n_levels, grid.n_interior))
    values[0] = sample_initial_state(spec, grid)
    max_newton = 0
    step_res = np.zeros(timegrid.n_levels - 1)
    for j in range(timegrid.n_levels - 1):
        y_prev = values[j]
        u_lvl = control.values[j + 1]
        scale = 1.0 + np.abs(y_prev).max() + np.abs(u_lvl).max()
        tol = options.newton_tol * scale
        y = y_prev.copy()
        best = np.inf
        stall = 0
        n_solves = 0
        while True:
            fy = np.asarray(f(y=y), dtype=float)
            res = (y - y_prev) / tau + A @ y + fy - u_lvl
            rnorm = float(np.abs(res).max())
            if not np.isfinite(rnorm):
                raise SolveError(
                    f"state Newton produced non-finite residual at step {j + 1}"
                )
            if rnorm <= tol:
                break
            if n_solves >= options.newton_max_iter:
                raise SolveError(
                    f"state Newton did not converge at step {j + 1}: residual "
                    f"{rnorm:.3e} after {n_solves} iterations"
                )
            if rnorm >= best:
                stall += 1
                if stall >= _STALL_LIMIT:
                    raise SolveError(
                        f"state Newton stalled at step {j + 1}: residual "
                        f"{rnorm:.3e} after {n_solves} iterations"
                    )
            else:
                best = rnorm
                stall = 0
            fp = eval_broadcast(df, y.shape, y=y)
            y = y - stepper.solve(fp, res, j + 1)
            n_solves += 1
        max_newton = max(max_newton, n_solves)
        step_res[j] = rnorm
        values[j + 1] = y

    state = SpaceTimeField(values, grid, timegrid)
    qw = quadrature_weights(grid, timegrid)
    data_size = float(np.sqrt(np.sum(qw.values * control.values**2)))
    data_size += float(np.max(np.abs(values[0])))
    sup = float(np.max(np.abs(values)))
    if sup == 0.0:
        ratio = 0.0
    elif data_size == 0.0:
        ratio = float("inf")
    else:
        ratio = sup / data_size
    return state, StateSolveReport(max_newton, step_res, ratio)


def solve_linear_parabolic(spec: ProblemSpec, potential: SpaceTimeField,
                           rhs: SpaceTimeField, initial_values: np.ndarray,
                           use_adjoint_operator: bool = False,
                           options: SolverOptions | None = None) -> SpaceTimeField:
    """March the linearized equation z' + A z + c z = r forward in time.

    The zero-order coefficient ``c`` and the source ``r`` are read at the
    target level of each step.  With ``use_adjoint_operator`` the transpose
    operator is used in place of ``A``.
    """
    options = options or SolverOptions()
    if not potential.same_layout(rhs):
        raise ConfigError("potential and rhs live on different grids")
    grid, timegrid = potential.grid, potential.timegrid
    tau = timegrid.tau
    initial_values = np.broadcast_to(
        np.asarray(initial_values, dtype=float), (grid.n_interior,)
    )
    _, stepper = _step_machinery(spec, grid, timegrid, options,
                                 adjoint=use_adjoint_operator)
    values = np.empty((timegrid.n_levels, grid.n_interior))
    values[0] = initial_values
    for j in range(timegrid.n_levels - 1):
        b = values[j] / tau + rhs.values[j + 1]
        values[j + 1] = stepper.solve(potential.values[j + 1], b, j + 1)
    return SpaceTimeField(values, grid, timegrid)


def solve_adjoint(spec: ProblemSpec, state: SpaceTimeField,
                  control: SpaceTimeField, multiplier: SpaceTimeField,
                  options: SolverOptions | None = None) -> SpaceTimeField:
    """Sweep the adjoint equation backward from a virtual zero at the horizon.

    Every stored level m solves

        (I/tau + A^T + diag(f'(y_m))) phi_m = phi_{m+1}/tau - (L_y + e g_y)|_m

    down to and including level 0, with phi beyond the last level taken as
    zero.  The transpose operator makes this sweep the exact adjoint of the
    forward linearized sweep under the uniform objective weights.
    """
    options = options or SolverOptions()
    if not (state.same_layout(control) and state.same_layout(multiplier)):
        raise ConfigError("state, control, and multiplier layouts differ")
    grid, timegrid = state.grid, state.timegrid
    tau = timegrid.tau
    _, stepper = _step_machinery(spec, grid, timegrid, options, adjoint=True)

    l_y = eval_scalar_map(spec.cost.dy, grid, timegrid, state.values,
                          control.values)
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, state.values,
                          control.values)
    source = -(l_y + multiplier.values * g_y)
    fp = eval_broadcast(spec.nonlinearity.df, state.values.shape,
                        y=state.values)

    values = np.empty((timegrid.n_levels, grid.n_interior))
    ahead = np.zeros(grid.n_interior)
    for m in range(timegrid.n_levels - 1, -1, -1):
        values[m] = stepper.solve(fp[m], ahead / tau + source[m], m)
        ahead = values[m]
    return SpaceTimeField(values, grid, timegrid)


def forward_residual(A, tau: float, values: np.ndarray, reaction: np.ndarray,
                     source: np.ndarray, initial) -> float:
    """Largest defect of a forward sweep, initial level included.

    Checks v_0 = initial and (v_{j+1} - v_j)/tau + A v_{j+1} + c_{j+1} =
    r_{j+1} on every step, with the reaction c = f(y) for the state equation
    and c = f'(y) z for the linearized one.
    """
    steps = (values[1:] - values[:-1]) / tau + (A @ values[1:].T).T \
        + reaction[1:] - source[1:]
    return max(float(np.max(np.abs(values[0] - initial))),
               float(np.max(np.abs(steps))))
