"""Empirical smoothness diagnostics for space-time fields.

The central tool fits a Hölder exponent: sample pairs of grid points at
log-uniformly distributed space-time distances, record the largest increment
per distance bin, and regress log(increment) on log(distance).  The fitted
pair (alpha, H) certifies the sampled increments: |v(p) - v(q)| stays below
H d(p, q)^alpha with five percent slack on every sampled pair, by
construction of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .grids import SpaceTimeField
from .kkt import KKTPoint, strongly_active
from .problem import ProblemSpec, eval_scalar_map

__all__ = [
    "HolderFit",
    "ContinuityReport",
    "estimate_holder",
    "active_boundary_jump",
    "multiplier_continuity_report",
]

N_BINS = 16
MIN_PAIRS = 1000
MIN_BIN_COUNT = 10


@dataclass
class HolderFit:
    alpha_hat: float
    h_hat: float
    n_pairs: int
    fit_residual: float
    bins: list
    constant_field: bool
    distances: np.ndarray
    increments: np.ndarray


def _point_cloud(field: SpaceTimeField):
    grid, tg = field.grid, field.timegrid
    coords = np.empty((tg.n_levels * grid.n_interior, grid.dim + 1))
    coords[:, : grid.dim] = np.tile(grid.interior_coords, (tg.n_levels, 1))
    coords[:, grid.dim] = np.repeat(tg.times, grid.n_interior)
    return coords, field.values.ravel()


def _check_pairs(n_pairs: int) -> None:
    if n_pairs < MIN_PAIRS:
        raise ConfigError(f"need at least {MIN_PAIRS} pairs, got {n_pairs}")


def estimate_holder(field: SpaceTimeField, n_pairs: int = 4096,
                    seed: int = 0) -> HolderFit:
    """Fit |v(p) - v(q)| <= H d(p, q)^alpha on sampled grid-point pairs.

    The metric is Euclidean on (x, t) jointly.  Pair targets are drawn at
    log-uniform distances from a uniform anchor and snapped to the grid, so
    every distance decade gets comparable coverage and the small-distance
    bins are not starved.
    """
    _check_pairs(n_pairs)
    grid, tg = field.grid, field.timegrid
    rng = np.random.default_rng(seed)
    coords, values = _point_cloud(field)

    vspread = float(np.max(values) - np.min(values)) if values.size else 0.0
    if vspread <= 1e-15 * (1.0 + float(np.max(np.abs(values)))):
        return HolderFit(1.0, 0.0, 0, 0.0, [], True,
                         np.empty(0), np.empty(0))

    # Increments over distances of a few grid cells carry the mesh's own
    # interpolation scale, not the field's modulus of continuity, and they
    # bias the fitted exponent upward; start sampling above that scale.
    d_ax = list(grid.spacing) + [tg.tau]
    d_max = float(np.sqrt(sum(e**2 for e in grid.extents) + tg.horizon**2))
    d_min = min(6.0 * min(d_ax), d_max / 16.0)

    n_cloud = coords.shape[0]
    anchors = rng.integers(0, n_cloud, size=n_pairs)
    rho = np.exp(rng.uniform(np.log(d_min), np.log(d_max), size=n_pairs))
    direction = rng.standard_normal((n_pairs, grid.dim + 1))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    targets_xt = coords[anchors] + rho[:, None] * direction

    # Snap to the nearest interior node and level, clamping to the box.
    idx_cols = []
    for ax in range(grid.dim):
        h = grid.spacing[ax]
        i = np.rint(targets_xt[:, ax] / h).astype(int)
        idx_cols.append(np.clip(i, 1, grid.shape[ax] - 2) - 1)
    k = np.clip(np.rint(targets_xt[:, grid.dim] / tg.tau).astype(int),
                0, tg.n_levels - 1)
    if grid.dim == 1:
        node = idx_cols[0]
    else:
        node = idx_cols[0] * (grid.shape[1] - 2) + idx_cols[1]
    targets = k * grid.n_interior + node

    keep = targets != anchors
    anchors, targets = anchors[keep], targets[keep]
    dvec = coords[anchors] - coords[targets]
    distances = np.sqrt(np.sum(dvec**2, axis=1))
    increments = np.abs(values[anchors] - values[targets])
    keep = distances >= d_min
    distances, increments = distances[keep], increments[keep]
    anchors = anchors[keep]

    lo, hi = float(np.min(distances)), float(np.max(distances))
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), N_BINS + 1))
    edges[-1] *= 1.0 + 1e-12
    which = np.clip(np.searchsorted(edges, distances, side="right") - 1,
                    0, N_BINS - 1)
    bins = []
    xs, ys = [], []
    for b in range(N_BINS):
        mask = which == b
        n = int(np.count_nonzero(mask))
        inc = float(np.max(increments[mask])) if n else 0.0
        bins.append((float(edges[b]), float(edges[b + 1]), n, inc))
        if n >= MIN_BIN_COUNT and inc > 0.0:
            xs.append(0.5 * (np.log(edges[b]) + np.log(edges[b + 1])))
            ys.append(np.log(inc))
    if len(xs) < 2:
        raise ConfigError(
            "not enough populated distance bins to fit an exponent; "
            "increase n_pairs"
        )
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    alpha = float(min(max(slope, 1e-6), 1.0))
    h_hat = float(np.max(increments / distances**alpha))
    return HolderFit(alpha, h_hat, int(anchors.size), resid, bins, False,
                     distances, increments)


def active_boundary_jump(spec: ProblemSpec, point: KKTPoint) -> float:
    """Largest multiplier increment across the strongly-active set boundary.

    Scans grid-adjacent node pairs (spatial neighbors on a level, temporal
    neighbors at a node) where exactly one side carries a certifying
    multiplier, and reports the largest |e difference| over those pairs.
    Zero when the active boundary is empty.
    """
    grid, tg = point.state.grid, point.state.timegrid
    e = point.multiplier.values
    strong = strongly_active(point.multiplier)
    jump = 0.0
    id_grid = grid.interior_id_grid
    # Spatial neighbors, per axis.
    for ax in range(grid.dim):
        nb = grid.interior_multi.copy()
        nb[:, ax] += 1
        nb_id = id_grid[tuple(nb.T)]
        ok = nb_id >= 0
        a = np.arange(grid.n_interior)[ok]
        b = nb_id[ok]
        cross = strong[:, a] != strong[:, b]
        if cross.any():
            jump = max(jump, float(np.max(np.abs(e[:, a] - e[:, b])[cross])))
    # Temporal neighbors.
    cross = strong[1:] != strong[:-1]
    if cross.any():
        jump = max(jump, float(np.max(np.abs(e[1:] - e[:-1])[cross])))
    return jump


@dataclass
class ContinuityReport:
    fits: dict
    e_jump: float


def multiplier_continuity_report(spec: ProblemSpec, point: KKTPoint,
                                 n_pairs: int = 4096,
                                 seed: int = 0) -> ContinuityReport:
    """Hölder fits for the whole quadruple plus the active-boundary jump.

    Also fits the slack-weighted multiplier g_u * e, the quantity whose
    continuity survives even where g_u degenerates.
    """
    grid, tg = point.state.grid, point.state.timegrid
    g_u = eval_scalar_map(spec.constraint.du, grid, tg, point.state.values,
                          point.control.values)
    weighted = SpaceTimeField(g_u * point.multiplier.values, grid, tg)
    fields = {
        "state": point.state,
        "control": point.control,
        "adjoint": point.adjoint,
        "multiplier": point.multiplier,
        "weighted_multiplier": weighted,
    }
    fits = {
        name: estimate_holder(f, n_pairs=n_pairs, seed=seed)
        for name, f in fields.items()
    }
    return ContinuityReport(fits, active_boundary_jump(spec, point))
