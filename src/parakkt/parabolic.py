"""Implicit time stepping for the state, linearized, and adjoint equations.

All three solvers march the same one-step systems

    (I/tau + A + diag(c)) v_new = v_old / tau + data,

differing only in the direction of the sweep, the operator (``A`` or its
transpose), and where the zero-order coefficient comes from.  The adjoint
sweep is the exact transpose of the forward linearized sweep, which is what
makes the reduced gradient exact in the discrete duality pairing.  The
step matrix picks its backend when its ``_StepSolver`` is built: LAPACK
``gtsv`` when it is tridiagonal (every 1-D grid), else a SuperLU
factorization of the transposed step matrix, taken at a sweep's first solve
under a minimum-degree ordering of its symmetrized pattern, solved with
``trans="T"`` and released at the sweep's end; the linearized and adjoint
sweeps refine each solve against it to a backward error of 2 eps.
``"dense"`` is the independent reference.  The linearized and adjoint
sweeps are one recursion (``_StepSolver.sweep``), run forward or backward;
on ``gtsv`` it checks finiteness once per sweep, not once per level, and
the state march checks a Newton step only through its next residual.
Every product with A, M or |M| is one call of the CSR kernel of ``@``.

The solvers and audits that make many short sweeps (``solve_ocp``,
``recompute_certificate``, ``kkt_residuals`` and the sweeping ``soc``
entry points) run inside a ``step_scope``: the operator A of a (spec, grid)
is assembled once in it, and each direction (A, and A^T for the adjoint)
gets one ``_StepSolver`` per (tau, linear solver), its tiling grown to the
largest stack asked for; a constraint boundary that reads no state is
rooted once in it (``kkt._boundary_rows``).  Nested calls use the open
scope, released when the outermost call returns or raises.  A call outside
any scope builds its own, and the two give the same fields bit for bit.

The state sweep marches a stack of controls, each row bit for bit its own
march (``_march_states``), in one Newton loop (``_newton_march``): exact
Newton on a tridiagonal step matrix, otherwise a chord Newton on the
sweep's held factor; all rows at once on ``gtsv``, otherwise row after row.
A row's Newton stops when its residual meets the tolerance; the march fails
when a residual is not finite or a row reaches ``NEWTON_MAX_ITER`` steps,
and a stack fails at the first such row it meets.
``solve_state`` marches a stack of one; the restoration of ``optimizer``
marches its trials.

The adjoint field is stored on all time levels.  Its last stored level is
the solution of the first backward step started from a virtual zero beyond
the horizon, so it is of size O(tau) rather than literally zero; writing the
literal zero instead would break the exactness of the gradient.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

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

_local = threading.local()     # .held: this thread's open step scope, or None

NEWTON_MAX_ITER = 30
CONTRACTION = 0.1     # a chord step must cut the residual by this, or refactor
_TINY, _EPS = np.finfo(float).tiny, np.finfo(float).eps


@dataclass(frozen=True)
class SolverOptions:
    newton_tol: float = 1e-10
    linear_solver: str = "auto"

    def __post_init__(self):
        if self.linear_solver not in ("auto", "dense"):
            raise ConfigError(f"unknown linear solver {self.linear_solver!r}")
        if not 0 < self.newton_tol < math.inf:
            raise ConfigError(f"newton_tol must be finite and positive: {self.newton_tol!r}")


@dataclass(frozen=True)
class StateSolveReport:
    max_newton_iterations: int
    bound_ratio: float


class _StepSolver:
    """Solves (I/tau + A + diag(d)) x = b repeatedly for a fixed sparse A.

    The step matrix M = I/tau + A picks the backend (``mode``) from its
    bandwidth, once, when the solver is built; a scope builds one solver per
    direction and serves every sweep of that direction with it (see
    ``step_scope``).  At bandwidth at most 1 (every 1-D grid) each system
    goes to LAPACK ``gtsv`` on the three diagonals of M, taken once (a 1x1
    system is a division); a ``sweep`` there solves its levels unchecked
    and tests finiteness once, replaying a failed sweep checked to name the
    step.  Otherwise one SuperLU factorization
    (``spla.splu``) of M + diag(d0) is held, d0 being the first solve's d.
    A ``held`` solve (a chord step of the state march) is the LU solve with
    M + diag(d), factored afresh, and held, when d is not the held factor's
    diagonal.  Any other solve is the LU solve at that diagonal, and at any
    other d it is refined with the residual r of M + diag(d) to a
    componentwise backward error max |r| / (|M||x| + |d x| + |b|) (LAPACK
    ``xGERFS``) of at most 2 eps, and M + diag(d) is factored and held
    instead once a correction fails to halve that error or it is not
    finite.  So a refined solve may return a
    solution of a singular but consistent system: its backward error is at
    most 2 eps, so it does solve that system, where ``gtsv`` and
    ``np.linalg.solve`` refuse the matrix.  The backends differ only there.
    A sweep uses the solver as a context manager, whose exit releases the
    factor: each sweep factors at its own first solve, as a solver of its
    own would, and no factor outlives its sweep.  ``linear_solver="dense"``
    (``np.linalg.solve``) is the independent backend for cross-checks.

    The held factor is of the transpose: the sorted CSR arrays of
    M + diag(d0), read as CSC without a copy, are (M + diag(d0))^T, and
    every triangular solve is made with ``trans="T"``.  The columns are
    ordered by minimum degree on the pattern of M^T + M
    (``permc_spec="MMD_AT_PLUS_A"``; George and Liu, SIAM Rev. 31, 1989),
    which fills less than SuperLU's default COLAMD on the 2-D step matrices.

    On ``gtsv`` a solver made for ``rows`` > 1 also solves a stack of up to
    that many systems, given as flat vectors d and b of k * n entries
    (k <= rows; d may also be a scalar): one call on the block-diagonal
    matrix, its diagonals tiled with zero joins, which eliminates each block
    exactly as a call of its own would.  The other backends solve one system
    per call.  ``product`` gives A y, on ``gtsv`` for a stack of k <= rows
    blocks through the CSR arrays of the block-diagonal stack of A, each
    block the bits ``A @ y`` gives it alone (no zero joins, so a non-finite
    block reaches no other).
    """

    def __init__(self, operator: sp.csr_matrix, tau: float,
                 linear_solver: str = "auto", rows: int = 1):
        self.rows, self.tau, self.n = rows, tau, operator.shape[0]
        self.lu = self.lu_diag = None
        matrix = (sp.identity(self.n, format="csr") / tau + operator).tocsr()
        row_of = np.repeat(np.arange(self.n), np.diff(matrix.indptr))
        self.tridiagonal = np.abs(matrix.indices - row_of).max() <= 1
        # The CSR arrays of A, or on gtsv of a stack of k <= rows copies of A, by its size.
        self.stacks = {self.n: (operator.indptr, operator.indices, operator.data)}
        if linear_solver == "dense":
            self.mode = "dense"
            self.base = matrix.toarray()
        elif self.tridiagonal:
            self.mode = "banded"
            self.stacks = _stacked_csr(operator, rows)
            dl, self.d, du = _tiled_diagonals(matrix, rows)
            # The three diagonals of a stack of k <= rows systems, by its size.
            self.bands = {m: (dl[:m - 1], self.d[:m], du[:m - 1])
                          for m in range(self.n, rows * self.n + 1, self.n)}
            self.gtsv = scipy.linalg.get_lapack_funcs("gtsv", (self.d,))
        else:
            self.mode = "splu"
            self.base = matrix
            self.base.sort_indices()
            self.diag_pos = np.flatnonzero(self.base.indices == row_of)
            self.abs_data = np.abs(self.base.data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.lu = self.lu_diag = None

    def product(self, y: np.ndarray) -> np.ndarray:
        return _matvec(*self.stacks[y.size], y)

    def sweep(self, reaction: np.ndarray, source: np.ndarray, levels) -> np.ndarray:
        """The recursion v_m = solve(reaction[m], v_prev / tau + source[m], m)
        over the levels m of ``levels`` in that order, v_prev being the level
        solved before (zero before the first); zero on the levels not swept.

        On ``gtsv`` the levels are solved unchecked and the sweep tested for
        finiteness once; a sweep that fails is made again checked, which
        raises at the step, and with the message, of the failure.
        """
        values = np.zeros(source.shape)
        if self.mode == "banded":
            with np.errstate(all="ignore"):
                self._recur(reaction, source, levels, values, checked=False)
            if np.logical_and.reduce(np.isfinite(values), axis=None):
                return values
        self._recur(reaction, source, levels, values)
        return values

    def _recur(self, reaction, source, levels, values, checked=True):
        solve, tau, ahead = self.solve, self.tau, np.zeros(self.n)
        for m in levels:
            values[m] = ahead = solve(reaction[m], ahead / tau + source[m], m, checked=checked)

    def solve(self, diag_add: np.ndarray, rhs: np.ndarray, step: int,
              held: bool = False, checked: bool = True) -> np.ndarray:
        """x with (M + diag(diag_add)) x = rhs; a failed solve raises a
        ``SolveError`` naming ``step``.  Unchecked, a solve that ``gtsv``
        refuses returns NaN and a non-finite x is returned as it is, for a
        caller that tests finiteness itself and replays a failure checked."""
        info = 0
        m = rhs.size
        try:
            if self.mode == "banded":
                dl, d, du = self.bands[m]
                if self.n == 1:
                    x = rhs / (d + diag_add)
                else:
                    x, info = self.gtsv(dl, d + diag_add, du, rhs, overwrite_d=True)[3:]
            elif self.mode == "splu":
                x = (self._held_solve if held else self._refined_solve)(diag_add, rhs)
            else:
                x = np.linalg.solve(self.base + np.diag(np.broadcast_to(diag_add, m)), rhs)
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise SolveError(
                f"singular step matrix at step {step}; reduce the time step"
            ) from exc
        if not checked:
            return x if info == 0 else np.full(m, np.nan)
        if info != 0 or not np.logical_and.reduce(np.isfinite(x)):
            # Only a failed solve pays for looking at its right-hand side.
            if not np.logical_and.reduce(np.isfinite(rhs)):
                raise SolveError(f"non-finite right-hand side at step {step}")
            raise SolveError(
                f"singular step matrix at step {step}; reduce the time step"
            )
        return x

    def _factor(self, diag_add: np.ndarray):
        data = self.base.data.copy()
        data[self.diag_pos] += diag_add
        # The CSR arrays of M + diag(d), read as CSC, are its transpose.
        self.lu = spla.splu(sp.csc_matrix((data, self.base.indices, self.base.indptr),
                                          shape=self.base.shape),
                            permc_spec="MMD_AT_PLUS_A")
        self.lu_diag = diag_add.copy()

    def _held_solve(self, diag_add: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.lu is None or not np.array_equal(diag_add, self.lu_diag):
            self._factor(diag_add)
        return self.lu.solve(rhs, trans="T")

    def _refined_solve(self, diag_add: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        if self.lu is None:
            self._factor(diag_add)
        x = self.lu.solve(rhs, trans="T")
        if np.array_equal(diag_add, self.lu_diag):
            return x
        indptr, indices, data = self.base.indptr, self.base.indices, self.base.data
        abs_rhs, last = np.abs(rhs), math.inf
        while True:
            dx = diag_add * x
            r = rhs - (_matvec(indptr, indices, data, x) + dx)
            scale = _matvec(indptr, indices, self.abs_data, np.abs(x)) + np.abs(dx) + abs_rhs
            err = float(np.max(np.abs(r) / np.maximum(scale, _TINY)))
            if err <= 2.0 * _EPS:
                return x
            if not math.isfinite(err) or err > last / 2.0:
                self.lu = None
                return self._refined_solve(diag_add, rhs)
            last = err
            x = x + self.lu.solve(r, trans="T")


def _matvec(indptr, indices, data, y: np.ndarray) -> np.ndarray:
    """The CSR matrix (indptr, indices, data) times y: the kernel ``@`` calls,
    which adds each row's terms in CSR order to its output, here zeros."""
    out = np.zeros(len(indptr) - 1)
    csr_matvec(out.size, y.size, indptr, indices, data, y, out)
    return out


def _stacked_csr(matrix: sp.csr_matrix, rows: int) -> dict:
    """CSR arrays of the block-diagonal stack of k = 1..rows copies, by its size k n."""
    n, nnz, k = matrix.shape[0], matrix.nnz, np.arange(rows)[:, None]
    indptr = np.append(0, (matrix.indptr[1:] + nnz * k).ravel())
    indices, data = (matrix.indices + n * k).ravel(), np.tile(matrix.data, rows)
    return {j * n: (indptr[:j * n + 1], indices[:j * nnz], data[:j * nnz])
            for j in range(1, rows + 1)}


def _tiled_diagonals(matrix: sp.spmatrix, rows: int):
    """Sub-, main and superdiagonal of the block-diagonal stack of ``rows``
    copies of a tridiagonal matrix, with zeros where two blocks join."""
    def off(k):
        return np.tile(np.append(matrix.diagonal(k), 0.0), rows)[:-1]
    return off(-1), np.tile(matrix.diagonal(), rows), off(1)


@contextlib.contextmanager
def step_scope():
    """Hold what the calls made inside build (``_held``) until the outermost
    scope closes; an inner scope uses the open one.  Also a decorator."""
    if getattr(_local, "held", None) is not None:
        yield
        return
    _local.held = {}
    try:
        yield
    finally:
        _local.held = None


def _held(key, spec, grid, make, usable=lambda value: True):
    """``make()``, or what the open scope holds under ``key`` for (spec, grid),
    made again when it is not ``usable``.  An array is held read-only.

    The entry keeps spec and grid alive, so their ids name them while it
    lives."""
    held = getattr(_local, "held", None)
    if held is None:
        return make()
    key = (id(spec), id(grid)) + key
    entry = held.get(key)
    if entry is None or not usable(entry[2]):
        entry = held[key] = (spec, grid, make())
        if isinstance(entry[2], np.ndarray):
            entry[2].flags.writeable = False
    return entry[2]


def step_operator(spec: ProblemSpec, grid: SpatialGrid,
                  transposed: bool = False) -> sp.csr_matrix:
    """A of (spec, grid), or A^T as CSR; assembled once in a scope."""
    if transposed:
        return _held(("A^T",), spec, grid,
                     lambda: step_operator(spec, grid).T.tocsr())
    return _held(("A",), spec, grid, lambda: assemble_operator(spec, grid))


def _step_solver(spec, grid, tau, linear_solver, rows=1, transposed=False):
    """The ``_StepSolver`` of one direction; in a scope, the one it holds,
    built again for ``rows`` if it was built for fewer."""
    return _held(("step", transposed, tau, linear_solver), spec, grid,
                 lambda: _StepSolver(step_operator(spec, grid, transposed), tau,
                                     linear_solver, rows),
                 lambda stepper: stepper.rows >= rows)


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
    iteration count (on a step matrix that is not tridiagonal, the count of
    chord steps) and the ratio of the state sup norm to the natural size of
    the data.  The march is that of a stack of one (``_march_states``);
    ``forward_residual`` recomputes the defect of the returned state.
    """
    options = options or SolverOptions()
    grid, timegrid = control.grid, control.timegrid
    values, max_newton = _march_states(spec, grid, timegrid,
                                       control.values[:, None], options)
    state = SpaceTimeField(values[:, 0], grid, timegrid)
    qw = quadrature_weights(grid, timegrid)
    data_size = float(np.sqrt(np.sum(qw.values * control.values**2)))
    data_size += float(np.max(np.abs(state.values[0])))
    sup = float(np.max(np.abs(state.values)))
    ratio = 0.0 if sup == 0.0 else sup / data_size if data_size != 0.0 else math.inf
    return state, StateSolveReport(max_newton[0], ratio)


def _march_states(spec: ProblemSpec, grid: SpatialGrid, timegrid: TimeGrid,
                  u: np.ndarray, options: SolverOptions):
    """Implicit Euler with Newton per step for a stack of B controls.

    ``u`` has shape (n_levels, B, n_interior); the march takes the step
    solver of its grid for B rows (``_step_solver``).  On ``gtsv`` all rows
    march as one block, each iteration one stacked solve; on the other
    backends each row is a block of its own (``_newton_march``).  The first
    row met that fails fails the whole stack with its ``SolveError``.

    Returns the (n_levels, B, n_interior) states and each row's worst Newton
    (or chord) count.
    """
    n_rows = u.shape[1]
    with _step_solver(spec, grid, timegrid.tau, options.linear_solver, n_rows) as stepper:
        y0 = sample_initial_state(spec, grid)
        if stepper.mode == "banded":
            return _newton_march(stepper, spec, y0, u, options.newton_tol)
        marches = [_newton_march(stepper, spec, y0, u[:, row:row + 1], options.newton_tol)
                   for row in range(n_rows)]
    return (np.concatenate([states for states, _ in marches], axis=1),
            [count for _, (count,) in marches])


def _newton_march(stepper: _StepSolver, spec: ProblemSpec, y0: np.ndarray,
                  u: np.ndarray, newton_tol: float):
    """The march from ``y0`` of a block of B controls ``u`` (n_levels, B,
    n_interior), every iteration of a level one residual over the flat block
    (A y from ``_StepSolver.product``, one CSR kernel call) and one
    ``stepper.solve``.

    On a tridiagonal step matrix each step is exact Newton, with f' at the
    iterate.  Otherwise it is a chord step (Kelley, *Iterative Methods for
    Linear and Nonlinear Equations*, SIAM 1995, 5.4): the LU solve with
    M + diag(d_held), the factor ``stepper`` holds, with no refinement, d_held
    being f' at the march's first iterate, taken again at the current iterate
    only when a step fails to cut the residual by ``CONTRACTION``.  A factor
    depends on d_held alone, so a block of one row is bit for bit its own
    march.

    Each row has its own tolerance, in a Python float.  A row is frozen the
    moment it converges while others of its level march on: its right-hand
    side is zeroed, so its step is zero.  A step is solved unchecked; one
    after which a residual is not finite is replayed checked to name it.  A
    row fails on a residual that is not finite or one still above its
    tolerance after ``NEWTON_MAX_ITER`` steps.  A level starts from the
    iterate the level before ended on, so its first residual reuses the f(y)
    and A y computed there.

    Returns the (n_levels, B, n_interior) states and each row's worst count.
    """
    n_levels, n_rows, n = u.shape
    tau = stepper.tau
    f, df = spec.nonlinearity.f, spec.nonlinearity.df
    chord = not stepper.tridiagonal
    starts = np.arange(0, n_rows * n, n)

    def row_max(v):
        return np.maximum.reduceat(np.abs(v), starts).tolist()

    u_max = np.abs(u).max(axis=2).tolist()
    u = u.reshape(n_levels, -1)
    values = np.empty((n_levels, n_rows * n))     # level by level, rows flat
    values[0] = np.tile(y0, n_rows)
    max_newton = [0] * n_rows
    fy = ay = d = None                # f(y) and A y at the current iterate; f' of the step
    # Steps are unchecked: a step that is not finite shows in the next
    # residual, on the way to which numpy is not to warn.
    with np.errstate(all="ignore"):
        for j in range(n_levels - 1):
            y = y_prev = values[j]
            u_lvl = u[j + 1]
            tol = [newton_tol * (1.0 + a + b)
                   for a, b in zip(row_max(y_prev), u_max[j + 1])]
            live = list(range(n_rows))
            frozen = None                 # 0 on converged rows, once some share a level
            n_solves = 0
            last = math.inf               # the largest residual one step back
            while True:
                if fy is None:
                    fy, ay = np.asarray(f(y=y), dtype=float), stepper.product(y)
                res = (y - y_prev) / tau + ay + fy - u_lvl
                rnorms = row_max(res)
                if n_solves and not all(map(math.isfinite, rnorms)):
                    stepper.solve(d, rhs, j + 1, held=chord)     # raises if the last step failed
                still, settled = [], []
                for i in live:
                    rnorm = rnorms[i]
                    if not math.isfinite(rnorm):
                        raise SolveError(
                            f"state Newton produced non-finite residual at step {j + 1}")
                    if rnorm <= tol[i]:
                        max_newton[i] = max(max_newton[i], n_solves)
                        settled.append(i)
                    elif n_solves >= NEWTON_MAX_ITER:
                        raise SolveError(
                            f"state Newton did not converge at step {j + 1}: "
                            f"residual {rnorm:.3e} after {n_solves} iterations")
                    else:
                        still.append(i)
                live = still
                if not live:
                    break
                # A converged row solves for a zero step, which leaves it as it is.
                if settled and frozen is None:
                    frozen = np.ones(y.size)
                for i in settled:
                    frozen[i * n:(i + 1) * n] = 0.0
                rhs = res if frozen is None else res * frozen
                rnorm = max(rnorms)
                if not chord or d is None or rnorm > CONTRACTION * last:
                    d = np.asarray(df(y=y), dtype=float)
                last = rnorm
                y = y - stepper.solve(d, rhs, j + 1, held=chord, checked=False)
                fy = None
                n_solves += 1
            values[j + 1] = y
    return values.reshape(n_levels, n_rows, n), max_newton


def solve_linear_parabolic(spec: ProblemSpec, potential: SpaceTimeField,
                           rhs: SpaceTimeField,
                           options: SolverOptions | None = None) -> SpaceTimeField:
    """March the linearized equation z' + A z + c z = r forward in time
    from z = 0.

    The zero-order coefficient ``c`` and the source ``r`` are read at the
    target level of each step.
    """
    options = options or SolverOptions()
    if not potential.same_layout(rhs):
        raise ConfigError("potential and rhs live on different grids")
    grid, timegrid = potential.grid, potential.timegrid
    with _step_solver(spec, grid, timegrid.tau, options.linear_solver) as stepper:
        values = stepper.sweep(potential.values, rhs.values,
                               range(1, timegrid.n_levels))
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
    l_y = eval_scalar_map(spec.cost.dy, grid, timegrid, state.values,
                          control.values)
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, state.values,
                          control.values)
    source = -(l_y + multiplier.values * g_y)
    fp = eval_broadcast(spec.nonlinearity.df, state.values.shape,
                        y=state.values)

    with _step_solver(spec, grid, timegrid.tau, options.linear_solver,
                      transposed=True) as stepper:
        values = stepper.sweep(fp, source, range(timegrid.n_levels - 1, -1, -1))
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
