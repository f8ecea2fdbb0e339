"""Problem data: coefficients, running cost, constraint, and their audits.

A problem consists of the reaction term f(y), the running cost
L(x, t, y, u), the mixed constraint g(x, t, y, u) <= 0, an optional
diffusion matrix a(x), the initial state, and two positive constants:
``gamma1`` bounding L_uu from below and ``gamma2`` bounding g_u from below.
Those bounds are what the whole method leans on (well-posed pointwise
control updates, invertible multiplier recovery), so they are not taken on
faith; ``validate_hypotheses`` samples them over a stated box and fails
loudly when the data does not deliver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AuditError, ConfigError

__all__ = [
    "ScalarMap2",
    "Nonlinearity",
    "ProblemSpec",
    "HypothesisReport",
    "eval_scalar_map",
    "validate_hypotheses",
]


@dataclass(frozen=True)
class ScalarMap2:
    """A scalar function of (x, t, y, u) with first and second derivatives.

    Every slot is a callable taking keyword arguments ``x1`` (and ``x2`` in
    two dimensions), ``t``, ``y``, ``u`` and broadcasting over arrays.
    """

    eval: object
    dy: object
    du: object
    dyy: object
    dyu: object
    duu: object


@dataclass(frozen=True)
class Nonlinearity:
    """Reaction term f(y) with f(0) = 0 and f' bounded below."""

    f: object
    df: object
    ddf: object
    lower_slope: float = 0.0


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    dim: int
    extents: tuple
    horizon: float
    nonlinearity: Nonlinearity
    cost: ScalarMap2
    constraint: ScalarMap2
    initial_state: object
    gamma1: float
    gamma2: float
    diffusion: tuple | None = None

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError("problem dimension must be 1 or 2")
        if len(self.extents) != self.dim:
            raise ConfigError("extents do not match the problem dimension")
        if not all(0 < e < np.inf for e in self.extents):
            raise ConfigError("extents must be positive and finite")
        if not 0 < self.horizon < np.inf:
            raise ConfigError("time horizon must be positive and finite")
        if not (0 < self.gamma1 < np.inf and 0 < self.gamma2 < np.inf):
            raise ConfigError("gamma1 and gamma2 must be positive and finite")
        if not np.isfinite(self.nonlinearity.lower_slope):
            raise ConfigError("the reaction slope bound C_f must be finite")


def cylinder_env(grid, timegrid) -> dict:
    """Keyword environment of the whole space-time cylinder.

    Coordinates come as (1, n_interior) rows and ``t`` as an (n_levels, 1)
    column, so one call of a map with (n_levels, n_interior) fields ``y`` and
    ``u`` covers every node on every level.
    """
    env = {k: v[None, :] for k, v in grid.spatial_env().items()}
    env["t"] = timegrid.times[:, None]
    return env


def eval_broadcast(fn, shape, **args) -> np.ndarray:
    """One call ``fn(**args)``, broadcast into a fresh float array of ``shape``.

    The copy matters: a map may return one of its own arguments.
    """
    out = np.empty(shape)
    out[...] = fn(**args)
    return out


def eval_scalar_map(fn, grid, timegrid, y, u):
    """Evaluate a keyword map on every interior node and level.

    ``y`` and ``u`` are (n_levels, n_interior) arrays; the result is a fresh
    array of the same shape, with scalars broadcast.
    """
    return eval_broadcast(fn, (timegrid.n_levels, grid.n_interior), y=y, u=u,
                          **cylinder_env(grid, timegrid))


@dataclass(frozen=True)
class HypothesisReport:
    ellipticity_min: float
    slope_min: float
    f_zero_ok: bool
    min_gu: float
    min_luu: float
    pass_ellipticity: bool
    pass_reaction: bool
    pass_strong_convexity: bool
    sample_count: int
    argmin_gu: tuple
    argmin_luu: tuple

    @property
    def all_passed(self) -> bool:
        return self.pass_ellipticity and self.pass_reaction and self.pass_strong_convexity


def _fmt_point(pt):
    return "(" + ", ".join(f"{v:.4g}" for v in pt) + ")"


def _sample_box(dim, extents, horizon, y_range, u_range, n_samples):
    # Deterministic low-discrepancy samples plus every corner of the box.
    lows = np.array([0.0] * dim + [0.0, y_range[0], u_range[0]])
    highs = np.array(list(extents) + [horizon, y_range[1], u_range[1]])
    d = len(lows)
    # The first n points of the unscrambled Halton sequence (Halton, Numer.
    # Math. 2, 1960): the radical inverse of 0, 1, ..., n - 1 in the k-th
    # prime base.  Digits are added in scipy.stats.qmc's order, so the points
    # equal scipy's bit for bit (adding 0.0 leaves a finished point as is).
    unit = np.zeros((n_samples, d))
    for k, base in enumerate((2, 3, 5, 7, 11)[:d]):
        q = np.arange(n_samples)
        b2r = 1.0 / base
        while q.any():
            q, r = np.divmod(q, base)
            unit[:, k] += r * b2r
            b2r /= base
    pts = unit * (highs - lows) + lows
    corners = np.array(
        [[lo if (m >> k) & 1 == 0 else hi for k, (lo, hi) in enumerate(zip(lows, highs))]
         for m in range(2**d)]
    )
    return np.vstack([pts, corners])


def _map_env(dim, pts):
    env = {"x1": pts[:, 0]}
    col = 1
    if dim == 2:
        env["x2"] = pts[:, 1]
        col = 2
    env["t"] = pts[:, col]
    env["y"] = pts[:, col + 1]
    env["u"] = pts[:, col + 2]
    return env


def _sampled(fn, what, pts, **env):
    """``fn`` on the sample points; a value that is not finite is an
    ``AuditError`` naming the map and the first such point."""
    vals = eval_broadcast(fn, (len(pts),), **env)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise AuditError(f"{what} evaluated non-finite at "
                         f"{_fmt_point(tuple(pts[int(np.argmax(bad))]))}")
    return vals


def validate_hypotheses(spec: ProblemSpec, y_range, u_range) -> HypothesisReport:
    """Audit the structural assumptions over a sampling box.

    Checks, on 2048 Halton points of (x, t, y, u) augmented with the box
    corners: the diffusion matrix is symmetric with minimum eigenvalue
    bounded away from zero, f(0) = 0 with f' bounded below by the declared
    slope, L_uu >= gamma1, and g_u >= gamma2.  Every map, the initial state
    y0 included, is evaluated there; a value that is not finite raises
    ``AuditError`` naming the map and the sample point.
    """
    y_range = (float(y_range[0]), float(y_range[1]))
    u_range = (float(u_range[0]), float(u_range[1]))
    if y_range[0] > y_range[1] or u_range[0] > u_range[1]:
        raise ConfigError("audit ranges must be nondecreasing intervals")
    pts = _sample_box(spec.dim, spec.extents, spec.horizon, y_range, u_range, 2048)
    env = _map_env(spec.dim, pts)
    x_env = {k: env[k] for k in env if k.startswith("x")}

    if spec.diffusion is None:
        ell_min = 1.0
    else:
        a11 = _sampled(spec.diffusion[0][0], "a11", pts, **x_env)
        if spec.dim == 1:
            ell_min = float(np.min(a11))
        else:
            a22 = _sampled(spec.diffusion[1][1], "a22", pts, **x_env)
            a12 = (0.0 if spec.diffusion[0][1] is None
                   else _sampled(spec.diffusion[0][1], "a12", pts, **x_env))
            # Smallest eigenvalue of a symmetric 2x2 matrix, in closed form.
            half_tr = 0.5 * (a11 + a22)
            disc = np.sqrt(0.25 * (a11 - a22) ** 2 + a12**2)
            ell_min = float(np.min(half_tr - disc))
    pass_ellipticity = bool(ell_min > 0.0)
    _sampled(spec.initial_state, "y0", pts, **x_env)

    y_only = env["y"]
    f0 = float(np.asarray(spec.nonlinearity.f(y=np.zeros(1)), dtype=float).ravel()[0])
    fp = _sampled(spec.nonlinearity.df, "f'", pts, y=y_only)
    _sampled(spec.nonlinearity.f, "f", pts, y=y_only)
    slope_min = float(np.min(fp))
    f_zero_ok = abs(f0) <= 1e-14
    pass_reaction = f_zero_ok and slope_min >= spec.nonlinearity.lower_slope - 1e-12

    luu = _sampled(spec.cost.duu, "L_uu", pts, **env)
    gu = _sampled(spec.constraint.du, "g_u", pts, **env)
    _sampled(spec.cost.eval, "L", pts, **env)
    _sampled(spec.constraint.eval, "g", pts, **env)
    i_luu = int(np.argmin(luu))
    i_gu = int(np.argmin(gu))
    min_luu = float(luu[i_luu])
    min_gu = float(gu[i_gu])
    pass_strong = (min_luu >= spec.gamma1) and (min_gu >= spec.gamma2)

    return HypothesisReport(
        ellipticity_min=ell_min,
        slope_min=slope_min,
        f_zero_ok=f_zero_ok,
        min_gu=min_gu,
        min_luu=min_luu,
        pass_ellipticity=pass_ellipticity,
        pass_reaction=pass_reaction,
        pass_strong_convexity=pass_strong,
        sample_count=len(pts),
        argmin_gu=tuple(pts[i_gu]),
        argmin_luu=tuple(pts[i_luu]),
    )
