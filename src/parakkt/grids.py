"""Tensor grids, space-time fields, and discrete elliptic operators.

The domain is an axis-aligned box in one or two dimensions with homogeneous
Dirichlet boundary conditions.  Fields store interior node values only; the
boundary values are implicit zeros.  Interior nodes are ordered
lexicographically by multi-index (first axis slowest), time levels are
stored first-to-last.

Two weight fields are provided and they are deliberately different objects:

``quadrature_weights``
    Integration weights for norms and reported integrals.  Tensor trapezoid
    with the boundary mass folded onto the adjacent interior nodes, so the
    weights sum exactly to ``|Omega| * T`` even though only interior nodes
    are stored, and constants integrate exactly.

``objective_weights``
    The weights defining the discrete objective and the duality pairing of
    the gradient machinery: uniform cell weight per interior node in space,
    right-endpoint rectangle rule in time (the initial level carries zero
    weight, matching the fact that the initial state is data and the initial
    control level never enters the time stepping).  Uniformity is what makes
    the transposed time stepper the exact adjoint of the forward one, so
    gradients and oracle multipliers come out exact rather than first-order
    accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import AssemblyError, ConfigError

__all__ = [
    "SpatialGrid",
    "TimeGrid",
    "SpaceTimeField",
    "assemble_operator",
    "quadrature_weights",
    "objective_weights",
]


class SpatialGrid:
    """Uniform tensor grid on an axis-aligned box with Dirichlet boundary.

    Parameters
    ----------
    extents : sequence of float
        Box edge lengths, one per axis (length 1 or 2).
    nodes : sequence of int
        Node count per axis including the two boundary nodes, each >= 3.
    """

    def __init__(self, extents, nodes):
        extents = tuple(float(e) for e in extents)
        nodes = tuple(int(n) for n in nodes)
        if len(extents) not in (1, 2) or len(extents) != len(nodes):
            raise ConfigError("grid dimension must be 1 or 2 with matching extents")
        if not all(0 < e < np.inf for e in extents):
            raise ConfigError("grid extents must be positive and finite")
        if any(n < 3 for n in nodes):
            raise ConfigError("need at least 3 nodes per axis (one interior node)")
        self.dim = len(extents)
        self.extents = extents
        self.shape = nodes
        self.spacing = tuple(e / (n - 1) for e, n in zip(extents, nodes))
        self.axis_coords = tuple(
            np.linspace(0.0, e, n) for e, n in zip(extents, nodes)
        )
        interior_axes = [np.arange(1, n - 1) for n in nodes]
        mesh = np.meshgrid(*interior_axes, indexing="ij")
        multi = np.stack([m.ravel() for m in mesh], axis=1)
        self.interior_multi = multi
        self.n_interior = multi.shape[0]
        coords = np.stack(
            [self.axis_coords[k][multi[:, k]] for k in range(self.dim)], axis=1
        )
        self.interior_coords = coords
        id_grid = -np.ones(nodes, dtype=np.int64)
        id_grid[tuple(multi.T)] = np.arange(self.n_interior)
        self.interior_id_grid = id_grid
        for arr in (self.interior_multi, self.interior_coords, self.interior_id_grid):
            arr.setflags(write=False)

    def spatial_env(self) -> dict:
        """Keyword environment with the interior coordinate arrays."""
        env = {"x1": self.interior_coords[:, 0]}
        if self.dim == 2:
            env["x2"] = self.interior_coords[:, 1]
        return env

    def matches(self, other: "SpatialGrid") -> bool:
        return (
            self.dim == other.dim
            and self.shape == other.shape
            and self.extents == other.extents
        )

    def __repr__(self):
        return f"SpatialGrid(extents={self.extents}, nodes={self.shape})"


class TimeGrid:
    """Uniform time levels 0 = t_0 < ... < t_{n-1} = T."""

    def __init__(self, n_levels, horizon):
        n_levels = int(n_levels)
        horizon = float(horizon)
        if n_levels < 2:
            raise ConfigError("need at least 2 time levels")
        if not 0 < horizon < np.inf:
            raise ConfigError("time horizon must be positive and finite")
        self.n_levels = n_levels
        self.horizon = horizon
        self.tau = horizon / (n_levels - 1)
        self.times = np.linspace(0.0, horizon, n_levels)
        self.times.setflags(write=False)

    def matches(self, other: "TimeGrid") -> bool:
        return self.n_levels == other.n_levels and self.horizon == other.horizon

    def __repr__(self):
        return f"TimeGrid(n_levels={self.n_levels}, horizon={self.horizon})"


@dataclass
class SpaceTimeField:
    """Interior node values at every time level, shape (n_levels, n_interior)."""

    values: np.ndarray
    grid: SpatialGrid
    timegrid: TimeGrid

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        expected = (self.timegrid.n_levels, self.grid.n_interior)
        if vals.shape != expected:
            raise ConfigError(
                f"field shape {vals.shape} does not match grid layout {expected}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError("field contains non-finite entries")
        self.values = vals

    @classmethod
    def zeros(cls, grid, timegrid):
        return cls(np.zeros((timegrid.n_levels, grid.n_interior)), grid, timegrid)

    @classmethod
    def from_function(cls, grid, timegrid, fn):
        """Sample ``fn(x1=..., x2=..., t=...)`` at every node and level."""
        env = grid.spatial_env()
        vals = np.empty((timegrid.n_levels, grid.n_interior))
        for k, t in enumerate(timegrid.times):
            vals[k] = np.broadcast_to(
                np.asarray(fn(t=t, **env), dtype=float), (grid.n_interior,)
            )
        return cls(vals, grid, timegrid)

    def copy(self) -> "SpaceTimeField":
        return SpaceTimeField(self.values.copy(), self.grid, self.timegrid)

    def same_layout(self, other: "SpaceTimeField") -> bool:
        return self.grid.matches(other.grid) and self.timegrid.matches(other.timegrid)


def _eval_coeff(fn, coords, dim, what):
    env = {"x1": coords[:, 0]}
    if dim == 2:
        env["x2"] = coords[:, 1]
    vals = np.broadcast_to(
        np.asarray(fn(**env), dtype=float), (coords.shape[0],)
    )
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise AssemblyError(
            f"non-finite diffusion coefficient {what} at x={tuple(coords[bad])}"
        )
    return vals


def assemble_operator(spec, grid: SpatialGrid) -> sp.csr_matrix:
    """Assemble the divergence-form diffusion operator on interior nodes.

    The axis-aligned terms use a conservative flux stencil with the face
    coefficient taken as the arithmetic mean of the two nodal values, which
    gives the familiar (-1, 2, -1)/h^2 row for unit coefficients.  A
    cross-diffusion coefficient (two dimensions) is assembled per grid cell
    from the bilinear cell-center derivatives, which keeps the matrix exactly
    symmetric for symmetric coefficient data.  Dirichlet rows and columns are
    eliminated; boundary neighbors contribute only to the diagonal.  The
    result is the CSR matrix A; its transpose is the discrete adjoint.
    """
    if spec.dim != grid.dim:
        raise ConfigError(
            f"problem dimension {spec.dim} does not match grid dimension {grid.dim}"
        )
    n = grid.n_interior
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    coeff = spec.diffusion
    for k in range(grid.dim):
        h = grid.spacing[k]
        for side in (-1, 1):
            nb_multi = grid.interior_multi.copy()
            nb_multi[:, k] += side
            nb_coords = np.stack(
                [grid.axis_coords[a][nb_multi[:, a]] for a in range(grid.dim)],
                axis=1,
            )
            if coeff is None:
                a_face = np.ones(n)
            else:
                a_here = _eval_coeff(
                    coeff[k][k], grid.interior_coords, grid.dim, f"a{k + 1}{k + 1}"
                )
                a_there = _eval_coeff(
                    coeff[k][k], nb_coords, grid.dim, f"a{k + 1}{k + 1}"
                )
                a_face = 0.5 * (a_here + a_there)
            w = a_face / (h * h)
            diag += w
            nb_id = grid.interior_id_grid[tuple(nb_multi.T)]
            inside = nb_id >= 0
            rows.append(np.arange(n)[inside])
            cols.append(nb_id[inside])
            vals.append(-w[inside])
    if grid.dim == 2 and coeff is not None and coeff[0][1] is not None:
        _assemble_cross_term(grid, coeff[0][1], rows, cols, vals)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _assemble_cross_term(grid, a12_fn, rows, cols, vals):
    # Cell-based assembly of the mixed derivative pair: per cell the bilinear
    # interpolant has constant cross-derivative structure, and the symmetric
    # combination a12 * (dx . dy' + dy . dx') is sampled at the cell center.
    n1, n2 = grid.shape
    h1, h2 = grid.spacing
    i = np.arange(n1 - 1)
    j = np.arange(n2 - 1)
    ii, jj = np.meshgrid(i, j, indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    centers = np.stack(
        [
            grid.axis_coords[0][ii] + 0.5 * h1,
            grid.axis_coords[1][jj] + 0.5 * h2,
        ],
        axis=1,
    )
    a_c = _eval_coeff(a12_fn, centers, 2, "a12")
    area = h1 * h2
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    gx = {c: (2 * c[0] - 1) / (2.0 * h1) for c in corners}
    gy = {c: (2 * c[1] - 1) / (2.0 * h2) for c in corners}
    ids = {
        c: grid.interior_id_grid[ii + c[0], jj + c[1]] for c in corners
    }
    for s in corners:
        for r in corners:
            coupling = area * (gx[s] * gy[r] + gy[s] * gx[r])
            if coupling == 0.0:
                continue
            ok = (ids[s] >= 0) & (ids[r] >= 0)
            rows.append(ids[s][ok])
            cols.append(ids[r][ok])
            vals.append(coupling * a_c[ok])


def _folded_axis_weights(extent: float, n: int) -> np.ndarray:
    # Trapezoid weights with the two boundary half-cells folded onto the
    # adjacent interior nodes; sums exactly to the extent.
    h = extent / (n - 1)
    w = np.full(n - 2, h)
    w[0] += 0.5 * h
    w[-1] += 0.5 * h
    return w


def quadrature_weights(grid: SpatialGrid, timegrid: TimeGrid) -> SpaceTimeField:
    """Integration weights over the cylinder; they sum to ``|Omega| * T``."""
    wx = _folded_axis_weights(grid.extents[0], grid.shape[0])
    if grid.dim == 2:
        wy = _folded_axis_weights(grid.extents[1], grid.shape[1])
        wx = np.outer(wx, wy).ravel()
    wt = np.full(timegrid.n_levels, timegrid.tau)
    wt[0] = 0.5 * timegrid.tau
    wt[-1] = 0.5 * timegrid.tau
    return SpaceTimeField(np.outer(wt, wx), grid, timegrid)


def objective_weights(grid: SpatialGrid, timegrid: TimeGrid) -> SpaceTimeField:
    """Weights of the discrete objective and of the duality pairing.

    Uniform in space (one cell volume per interior node) and right-endpoint
    rectangle rule in time, so the initial level has weight zero.
    """
    cell = float(np.prod(grid.spacing))
    wt = np.full(timegrid.n_levels, timegrid.tau)
    wt[0] = 0.0
    return SpaceTimeField(
        np.outer(wt, np.full(grid.n_interior, cell)), grid, timegrid
    )
