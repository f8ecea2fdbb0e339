"""Independent verification: the discretized problem as a finite NLP.

The time-stepped control problem on a coarse grid is written out as a plain
nonlinear program in the stacked variables (all state levels, all control
levels past the initial one) and solved by a primal-dual active-set method
that knows nothing about parabolic structure: each exchange of its working
set drops one row with a negative multiplier or, when there is none, adds
every violated row at once.  Its multipliers, rescaled by
the objective weight of a single node, must then agree with the adjoint and
multiplier fields of the PDE-side solver; that agreement is the strongest
correctness check the package has.  Only the spatial operator and the initial
state are taken from the PDE side; the stepping is restated here.  Each
instance builds its equality Jacobian once and refreshes only its values,
and the solver does the same with the KKT matrix of each working set.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import ConfigError, OracleError
from .grids import SpatialGrid, TimeGrid, assemble_operator
from .kkt import KKTPoint
from .parabolic import sample_initial_state
from .problem import ProblemSpec

__all__ = [
    "NLPInstance",
    "NLPSolution",
    "MultiplierComparison",
    "discretize_to_nlp",
    "pack_point",
    "unpack_solution",
    "solve_nlp_active_set",
    "compare_multipliers",
]

MAX_VARS = 2000
MAX_SET_CHANGES = 500
MAX_NEWTON = 100
NEWTON_TOL = 1e-11
STATIONARITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-10


@dataclass
class NLPInstance:
    """A smooth NLP: min f(z) s.t. F(z) = 0, G(z) <= 0.

    ``hessian`` is the Hessian of the Lagrangian f + lam.F + mu.G.  All
    slots are plain callables so toy instances can be built by hand.
    """

    n_vars: int
    objective: object
    gradient: object
    hessian: object
    eq: object
    eq_jac: object
    ineq: object
    ineq_jac: object
    meta: dict = field(default_factory=dict)


@dataclass
class NLPSolution:
    z: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    objective: float
    working_set: np.ndarray
    n_set_changes: int
    stationarity_inf: float
    feas_eq_inf: float
    feas_ineq: float
    complementarity: float

    def validate(self) -> None:
        if float(np.min(self.mu, initial=0.0)) < 0.0:
            raise OracleError("inequality multiplier went negative")
        if self.complementarity > COMPLEMENTARITY_TOL:
            raise OracleError(
                f"complementarity {self.complementarity:.3e} exceeds "
                f"{COMPLEMENTARITY_TOL:g}"
            )
        if self.stationarity_inf > STATIONARITY_TOL:
            raise OracleError(
                f"stationarity {self.stationarity_inf:.3e} exceeds "
                f"{STATIONARITY_TOL:g}"
            )


def _level_env(spec, grid, times_tail):
    env = {k: v[None, :] for k, v in grid.spatial_env().items()}
    env["t"] = times_tail[:, None]
    return env


def _bcast(val, shape):
    return np.broadcast_to(np.asarray(val, dtype=float), shape)


def _diag_pair_csr(left, right, m):
    """CSR with left[r] at column r mod m and right[r] at r mod m + m: the
    ``sp.diags`` blocks side by side, exact zeros left out as ``sp.diags`` does."""
    vals = np.stack([left, right], axis=1)
    col = np.arange(left.size) % m
    keep = vals != 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    return sp.csr_matrix((vals[keep], np.stack([col, col + m], axis=1)[keep], indptr),
                         shape=(left.size, 2 * m))


def discretize_to_nlp(spec: ProblemSpec, grid: SpatialGrid,
                      timegrid: TimeGrid) -> NLPInstance:
    """Stack the stepped problem into an NLP over (y, u) at levels 1..K.

    The objective carries the uniform node weight tau * h^d, the stepping
    residuals and the constraint rows are unweighted.  The equality
    Jacobian, with its blocks I/tau + A and -I/tau, and the positions of its
    y-block diagonal are built once; each call copies the values and adds
    f'(y) there.  The constraint Jacobian and the Hessian are diagonal pairs
    assembled straight into CSR.  On construction the analytic gradient and
    Jacobians are spot-checked against central finite differences at a seeded
    point; a mismatch is a construction bug and raises immediately.
    """
    n = grid.n_interior
    big_k = timegrid.n_levels - 1
    n_vars = 2 * n * big_k
    if n_vars > MAX_VARS:
        raise OracleError(
            f"NLP would have {n_vars} variables, above the {MAX_VARS} guard; "
            "use a coarser grid for oracle comparisons"
        )
    tau = timegrid.tau
    omega = tau * float(np.prod(grid.spacing))
    A = assemble_operator(spec, grid)
    y0 = sample_initial_state(spec, grid)
    env = _level_env(spec, grid, timegrid.times[1:])
    shape = (big_k, n)
    nl = spec.nonlinearity
    cost, con = spec.cost, spec.constraint
    step = sp.identity(n) / tau + A
    lower = -sp.identity(n) / tau
    jac0 = sp.hstack([
        sp.bmat([[step if i == j else lower if i == j + 1 else None
                  for j in range(big_k)] for i in range(big_k)], format="csr"),
        -sp.identity(big_k * n, format="csr"),
    ], format="csr")
    rows = np.repeat(np.arange(big_k * n), np.diff(jac0.indptr))
    diag_pos = np.flatnonzero(jac0.indices == rows)

    def split(z):
        y = z[: big_k * n].reshape(big_k, n)
        u = z[big_k * n:].reshape(big_k, n)
        return y, u

    def objective(z):
        y, u = split(z)
        lvals = _bcast(cost.eval(y=y, u=u, **env), shape)
        return float(omega * np.sum(lvals))

    def gradient(z):
        y, u = split(z)
        gy = _bcast(cost.dy(y=y, u=u, **env), shape)
        gu = _bcast(cost.du(y=y, u=u, **env), shape)
        return omega * np.concatenate([gy.ravel(), gu.ravel()])

    def eq(z):
        y, u = split(z)
        prev = np.vstack([y0, y[:-1]])
        return ((y - prev) / tau + (A @ y.T).T + _bcast(nl.f(y=y), shape) - u).ravel()

    def eq_jac(z):
        y, _ = split(z)
        data = jac0.data.copy()
        data[diag_pos] += _bcast(nl.df(y=y), shape).ravel()
        return sp.csr_matrix((data, jac0.indices.copy(), jac0.indptr.copy()),
                             shape=jac0.shape)

    def ineq(z):
        y, u = split(z)
        return _bcast(con.eval(y=y, u=u, **env), shape).ravel()

    def ineq_jac(z):
        y, u = split(z)
        gy = _bcast(con.dy(y=y, u=u, **env), shape).ravel()
        gu = _bcast(con.du(y=y, u=u, **env), shape).ravel()
        return _diag_pair_csr(gy, gu, big_k * n)

    def hessian(z, lam, mu):
        y, u = split(z)
        lam2 = lam.reshape(big_k, n)
        mu2 = mu.reshape(big_k, n)
        l_yy = _bcast(cost.dyy(y=y, u=u, **env), shape)
        l_yu = _bcast(cost.dyu(y=y, u=u, **env), shape)
        l_uu = _bcast(cost.duu(y=y, u=u, **env), shape)
        g_yy = _bcast(con.dyy(y=y, u=u, **env), shape)
        g_yu = _bcast(con.dyu(y=y, u=u, **env), shape)
        g_uu = _bcast(con.duu(y=y, u=u, **env), shape)
        fpp = _bcast(nl.ddf(y=y), shape)
        d_yy = (omega * l_yy + lam2 * fpp + mu2 * g_yy).ravel()
        d_yu = (omega * l_yu + mu2 * g_yu).ravel()
        d_uu = (omega * l_uu + mu2 * g_uu).ravel()
        return _diag_pair_csr(np.concatenate([d_yy, d_yu]),
                              np.concatenate([d_yu, d_uu]), big_k * n)

    instance = NLPInstance(
        n_vars=n_vars,
        objective=objective,
        gradient=gradient,
        hessian=hessian,
        eq=eq,
        eq_jac=eq_jac,
        ineq=ineq,
        ineq_jac=ineq_jac,
        meta={
            "grid": grid,
            "timegrid": timegrid,
            "omega": omega,
            "n_interior": n,
            "n_steps": big_k,
            "problem": spec.name,
        },
    )
    _self_check(instance)
    return instance


def _self_check(instance: NLPInstance, seed: int = 0) -> None:
    rng = np.random.default_rng(seed)
    z = 0.1 * rng.standard_normal(instance.n_vars)
    eps = 1e-6
    grad = instance.gradient(z)
    for i in rng.choice(instance.n_vars, size=min(8, instance.n_vars),
                        replace=False):
        step = np.zeros(instance.n_vars)
        step[i] = eps
        fd = (instance.objective(z + step) - instance.objective(z - step)) / (2 * eps)
        if abs(fd - grad[i]) > 1e-6 * (1.0 + abs(fd)):
            raise OracleError(
                f"gradient self-check failed at component {i}: analytic "
                f"{grad[i]:.12g} vs finite difference {fd:.12g}"
            )
    for name, fun, jac in (("equality", instance.eq, instance.eq_jac),
                           ("inequality", instance.ineq, instance.ineq_jac)):
        jmat = jac(z)
        for _ in range(3):
            d = rng.standard_normal(instance.n_vars)
            d /= np.linalg.norm(d)
            fd = (fun(z + eps * d) - fun(z - eps * d)) / (2 * eps)
            an = jmat @ d
            err = float(np.max(np.abs(fd - an)))
            if err > 1e-6 * (1.0 + float(np.max(np.abs(fd)))):
                raise OracleError(
                    f"{name} Jacobian self-check failed: max deviation {err:.3e}"
                )


def pack_point(instance: NLPInstance, point: KKTPoint) -> np.ndarray:
    """Stack a quadruple's state and control into the NLP variable vector."""
    big_k = instance.meta["n_steps"]
    n = instance.meta["n_interior"]
    y = point.state.values[1:].reshape(big_k * n)
    u = point.control.values[1:].reshape(big_k * n)
    return np.concatenate([y, u])


def unpack_solution(instance: NLPInstance, sol: NLPSolution):
    """NLP solution as space-time arrays (levels 1..K) in PDE scaling.

    Returns ``(y, u, phi, e)`` where phi and e are the equality and
    inequality multipliers divided by the objective node weight.
    """
    big_k = instance.meta["n_steps"]
    n = instance.meta["n_interior"]
    omega = instance.meta["omega"]
    y = sol.z[: big_k * n].reshape(big_k, n)
    u = sol.z[big_k * n:].reshape(big_k, n)
    phi = sol.lam.reshape(big_k, n) / omega
    e = sol.mu.reshape(big_k, n) / omega
    return y, u, phi, e


def _kkt_residual(instance, z, lam, mu, working):
    grad = instance.gradient(z)
    jf = instance.eq_jac(z)
    jg = instance.ineq_jac(z)
    stat = grad + jf.T @ lam + jg.T @ mu
    feq = instance.eq(z)
    gin = instance.ineq(z)
    parts = [stat, feq]
    if working.size:
        parts.append(gin[working])
    res = np.concatenate(parts) if len(parts) > 1 else stat
    return res, stat, feq, gin, grad, jf, jg


def _complementarity(mu, gin):
    return float(np.max(np.abs(mu * gin), initial=0.0))


class _WorkingSetKKT:
    """The KKT matrix [[H, J^T], [J, 0]] of one working set W, J = [F'; G'[W]],
    entry for entry the CSC matrix ``sp.bmat`` builds.  Its pattern, and
    where each entry of H, F' and G' goes in it, come from one ``sp.bmat``
    call on the blocks numbered entry by entry; they are found again only
    when a block's pattern changes, and every other call gathers values."""

    def __init__(self, working: np.ndarray):
        self.working, self.patterns = working, None

    def __call__(self, h, jf, jg) -> sp.csc_matrix:
        blocks = [sp.csr_matrix(b) for b in (h, jf, jg)]
        for b in blocks:
            b.sum_duplicates()      # one number per entry
        patterns = [a for b in blocks for a in (b.indptr, b.indices)]
        if self.patterns is None or not all(map(np.array_equal, patterns, self.patterns)):
            ends = np.cumsum([b.nnz for b in blocks])
            h, jf, jg = (sp.csr_matrix((np.arange(end - b.nnz, end) + 1.0, b.indices, b.indptr),
                                       shape=b.shape) for b, end in zip(blocks, ends))
            jall = sp.vstack([jf, jg[self.working]], format="csr")
            self.patterns = patterns
            self.numbered = sp.bmat([[h, jall.T], [jall, None]], format="csc")
            self.take = self.numbered.data.astype(np.intp) - 1
        values = np.concatenate([b.data for b in blocks])[self.take]
        return sp.csc_matrix((values, self.numbered.indices, self.numbered.indptr),
                             shape=self.numbered.shape)


def solve_nlp_active_set(instance: NLPInstance,
                         z0: np.ndarray | None = None) -> NLPSolution:
    """Primal-dual active set with damped Newton inner solves.

    Maintains a working set of inequality rows treated as equalities and
    solves each working-set problem to tight stationarity.  Then one
    exchange follows: the row with the most negative multiplier leaves, or,
    when no multiplier is negative, every violated row outside the set
    enters with a zero multiplier.  ``n_set_changes`` counts exchanges, and
    more than ``MAX_SET_CHANGES`` of them is an ``OracleError``, as is a
    working set whose Newton does not reach tolerance in ``MAX_NEWTON``
    iterations.  The residual of the accepted damping trial is the next
    Newton iterate's.  A ``z0`` of the wrong size or not finite is a
    ``ConfigError``.
    """
    n = instance.n_vars
    z = np.zeros(n) if z0 is None else np.array(z0, dtype=float)
    if z.shape != (n,) or not np.all(np.isfinite(z)):
        raise ConfigError(f"z0 must hold {n} finite values: shape {z.shape}, "
                          f"{np.count_nonzero(~np.isfinite(z))} not finite")
    n_eq = instance.eq(z).size
    lam = np.zeros(n_eq)
    working = np.zeros(0, dtype=int)
    n_ineq = instance.ineq(z).size
    mu_w = np.zeros(0)
    changes = 0

    while True:
        # Newton on the working-set KKT system.
        kkt_matrix = _WorkingSetKKT(working)
        mu = np.zeros(n_ineq)
        mu[working] = mu_w
        current = _kkt_residual(instance, z, lam, mu, working)
        for _ in range(MAX_NEWTON):
            res, stat, feq, gin, grad, jf, jg = current
            scale = 1.0 + float(np.max(np.abs(grad)))
            rnorm = float(np.max(np.abs(res)))
            if not np.isfinite(rnorm):
                raise OracleError("oracle Newton produced a non-finite residual")
            if rnorm <= NEWTON_TOL * scale:
                break
            kkt = kkt_matrix(instance.hessian(z, lam, mu), jf, jg)
            rhs = np.concatenate([-stat, -feq, -gin[working]])
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", spla.MatrixRankWarning)
                    delta = np.atleast_1d(spla.spsolve(kkt, rhs))
            except RuntimeError as exc:
                raise OracleError(
                    f"singular working-set KKT system (|W| = {working.size}, "
                    f"rows {working.tolist()})"
                ) from exc
            if not np.all(np.isfinite(delta)):
                raise OracleError(
                    f"singular working-set KKT system (|W| = {working.size}, "
                    f"rows {working.tolist()})"
                )
            dz = delta[:n]
            dlam = delta[n: n + n_eq]
            dmu = delta[n + n_eq:]
            alpha = 1.0
            for _ in range(30):
                z_t = z + alpha * dz
                lam_t = lam + alpha * dlam
                mu_t = mu_w + alpha * dmu
                mu_full = np.zeros(n_ineq)
                mu_full[working] = mu_t
                trial = _kkt_residual(instance, z_t, lam_t, mu_full, working)
                if float(np.max(np.abs(trial[0]))) <= (1.0 - 1e-4 * alpha) * rnorm:
                    break
                alpha *= 0.5
            else:
                raise OracleError(
                    "oracle Newton stalled; no damping step reduced the residual"
                )
            z, lam, mu_w, mu, current = z_t, lam_t, mu_t, mu_full, trial
        else:
            raise OracleError(
                f"oracle Newton did not reach tolerance in {MAX_NEWTON} "
                "iterations"
            )

        feas_tol = NEWTON_TOL * (1.0 + float(np.max(np.abs(gin))))
        outside = np.setdiff1d(np.arange(n_ineq), working, assume_unique=False)
        violated = outside[gin[outside] > feas_tol] if outside.size else outside
        negative = np.where(mu_w < -NEWTON_TOL)[0] if working.size else np.empty(0, int)

        if violated.size == 0 and negative.size == 0:
            break
        if changes >= MAX_SET_CHANGES:
            raise OracleError(
                f"active-set iteration exceeded {MAX_SET_CHANGES} working-set "
                "exchanges; the instance is cycling"
            )
        if negative.size:
            worst = negative[np.argmin(mu_w[negative])]
            keep = np.ones(working.size, dtype=bool)
            keep[worst] = False
            working = working[keep]
            mu_w = mu_w[keep]
        else:
            working = np.append(working, violated)
            mu_w = np.append(mu_w, np.zeros(violated.size))
        changes += 1

    mu = np.zeros(n_ineq)
    mu[working] = np.maximum(mu_w, 0.0)
    _, stat, feq, gin, *_ = _kkt_residual(instance, z, lam, mu, working)
    sol = NLPSolution(
        z=z,
        lam=lam,
        mu=mu,
        objective=instance.objective(z),
        working_set=np.sort(working.copy()),
        n_set_changes=changes,
        stationarity_inf=float(np.max(np.abs(stat))),
        feas_eq_inf=float(np.max(np.abs(feq), initial=0.0)),
        feas_ineq=max(0.0, float(np.max(gin, initial=0.0))),
        complementarity=_complementarity(mu, gin),
    )
    sol.validate()
    return sol


@dataclass
class MultiplierComparison:
    adjoint_inf: float
    adjoint_l2: float
    multiplier_inf: float
    multiplier_l2: float
    objective_gap: float

    def to_text(self) -> str:
        return "\n".join([
            "adjoint_inf %.17g" % self.adjoint_inf,
            "adjoint_l2 %.17g" % self.adjoint_l2,
            "multiplier_inf %.17g" % self.multiplier_inf,
            "multiplier_l2 %.17g" % self.multiplier_l2,
            "objective_gap %.17g" % self.objective_gap,
        ])


def compare_multipliers(instance: NLPInstance, sol: NLPSolution,
                        point: KKTPoint) -> MultiplierComparison:
    """Agreement between the NLP multipliers, divided by the objective node
    weight (``unpack_solution``), and the PDE-side fields.

    The comparison covers the weighted levels (everything past the initial
    one).  A point on other grids than the instance's is a ``ConfigError``.
    """
    grid, timegrid = instance.meta["grid"], instance.meta["timegrid"]
    for f in (point.adjoint, point.multiplier):
        if not (f.grid.matches(grid) and f.timegrid.matches(timegrid)):
            raise ConfigError(f"point on {f.grid!r}, {f.timegrid!r}; the instance "
                              f"is on {grid!r}, {timegrid!r}")
    _, _, phi_or, e_or = unpack_solution(instance, sol)
    d_phi = point.adjoint.values[1:] - phi_or
    d_e = point.multiplier.values[1:] - e_or
    cell = instance.meta["omega"]
    return MultiplierComparison(
        adjoint_inf=float(np.max(np.abs(d_phi))),
        adjoint_l2=float(np.sqrt(cell * np.sum(d_phi**2))),
        multiplier_inf=float(np.max(np.abs(d_e))),
        multiplier_l2=float(np.sqrt(cell * np.sum(d_e**2))),
        objective_gap=float(point.objective - sol.objective),
    )
