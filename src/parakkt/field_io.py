"""Plain-text space-time field files.

Format, one item per line:

    PARAKKT-FIELD v1
    <dim> <n1> [<n2>] <nt>
    <extent1> [<extent2>] <T>
    <value>          # interior values, level 0, lexicographic node order
    ...              # then level 1, and so on

Values are written with 17 significant digits so a write/read round trip
reproduces every float bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import ConfigError, FieldIOError
from .grids import SpaceTimeField, SpatialGrid, TimeGrid

__all__ = ["write_field", "read_field", "MAGIC"]

MAGIC = "PARAKKT-FIELD v1"


def write_field(path, field: SpaceTimeField) -> None:
    grid, tg = field.grid, field.timegrid
    lines = [MAGIC]
    lines.append(" ".join(str(n) for n in (grid.dim, *grid.shape, tg.n_levels)))
    lines.append(" ".join("%.17g" % v for v in (*grid.extents, tg.horizon)))
    flat = field.values.ravel()
    lines.extend("%.17g" % v for v in flat)
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FieldIOError(f"cannot write field file {path}: {exc}") from exc


def read_field(path, grid: SpatialGrid | None = None,
               timegrid: TimeGrid | None = None) -> SpaceTimeField:
    """Read a field file; optionally verify it matches an expected layout."""
    if not os.path.exists(path):
        raise FieldIOError(f"field file not found: {path}")
    try:
        with open(path) as fh:
            raw = fh.read().split("\n")
    except OSError as exc:
        raise FieldIOError(f"cannot read field file {path}: {exc}") from exc
    lines = [ln.strip() for ln in raw]
    while lines and not lines[-1]:
        lines.pop()
    if not lines or lines[0] != MAGIC:
        raise FieldIOError(f"{path}: missing or wrong magic line (expected {MAGIC!r})")
    if len(lines) < 3:
        raise FieldIOError(f"{path}: truncated header")
    try:
        dims = [int(tok) for tok in lines[1].split()]
    except ValueError:
        raise FieldIOError(f"{path}: malformed size line {lines[1]!r}") from None
    if len(dims) < 3 or dims[0] not in (1, 2) or len(dims) != dims[0] + 2:
        raise FieldIOError(f"{path}: malformed size line {lines[1]!r}")
    dim, *shape, nt = dims
    try:
        geom = [float(tok) for tok in lines[2].split()]
    except ValueError:
        raise FieldIOError(f"{path}: malformed geometry line {lines[2]!r}") from None
    if len(geom) != dim + 1:
        raise FieldIOError(f"{path}: malformed geometry line {lines[2]!r}")
    *extents, horizon = geom
    try:
        file_grid = SpatialGrid(extents, shape)
        file_tg = TimeGrid(nt, horizon)
    except ConfigError as exc:
        raise FieldIOError(f"{path}: invalid header: {exc}") from None
    if grid is not None and not grid.matches(file_grid):
        raise FieldIOError(
            f"{path}: grid in file ({file_grid!r}) does not match expected ({grid!r})"
        )
    if timegrid is not None and not timegrid.matches(file_tg):
        raise FieldIOError(
            f"{path}: time grid in file ({file_tg!r}) does not match expected "
            f"({timegrid!r})"
        )
    body = lines[3:]
    expected = file_tg.n_levels * file_grid.n_interior
    if len(body) != expected:
        raise FieldIOError(
            f"{path}: expected {expected} value lines, found {len(body)}"
        )
    try:
        flat = np.array([float(tok) for tok in body])
    except ValueError:
        raise FieldIOError(f"{path}: non-numeric value line") from None
    if not np.all(np.isfinite(flat)):
        raise FieldIOError(f"{path}: field contains non-finite values")
    values = flat.reshape(file_tg.n_levels, file_grid.n_interior)
    return SpaceTimeField(values, file_grid, file_tg)
