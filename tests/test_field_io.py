"""Field files: a ``FieldIOError`` for every fault of a file or its path."""

import numpy as np
import pytest

from parakkt import SpaceTimeField, SpatialGrid, TimeGrid, read_field, write_field
from parakkt.exceptions import FieldIOError

GRID = SpatialGrid(extents=(1.0,), nodes=(5,))
TIMEGRID = TimeGrid(n_levels=3, horizon=1.0)


@pytest.fixture()
def lines(tmp_path):
    """The lines of a written 3-level field on 3 interior nodes: the magic
    line, "1 5 3", "1 1" and nine values."""
    field = SpaceTimeField(np.arange(9.0).reshape(3, 3) / 7.0, GRID, TIMEGRID)
    write_field(tmp_path / "f.field", field)
    return (tmp_path / "f.field").read_text().splitlines()


@pytest.mark.parametrize("edit, match", [
    (lambda ls: ["PARAKKT-FIELD v2"] + ls[1:], "missing or wrong magic line"),
    (lambda ls: ls[:2], "truncated header"),
    (lambda ls: [ls[0], "1 5 three"] + ls[2:], "malformed size line '1 5 three'"),
    (lambda ls: [ls[0], "1 5 5 3"] + ls[2:], "malformed size line '1 5 5 3'"),
    (lambda ls: ls[:2] + ["1 one"] + ls[3:], "malformed geometry line '1 one'"),
    (lambda ls: ls[:2] + ["1 1 1"] + ls[3:], "malformed geometry line '1 1 1'"),
    (lambda ls: ls[:-1], "expected 9 value lines, found 8"),
    (lambda ls: ls[:-1] + ["0.5x"], "non-numeric value line"),
    (lambda ls: ls[:-1] + ["inf"], "field contains non-finite values"),
], ids=["magic", "truncated", "size-not-int", "size-count", "geometry-not-float",
        "geometry-count", "value-count", "value-not-numeric", "value-not-finite"])
def test_a_broken_file_is_refused(tmp_path, lines, edit, match):
    path = tmp_path / "broken.field"
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(FieldIOError, match=match) as err:
        read_field(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("grid, timegrid, match", [
    (SpatialGrid(extents=(1.0,), nodes=(9,)), TIMEGRID, "grid in file"),
    (GRID, TimeGrid(n_levels=3, horizon=2.0), "time grid in file"),
])
def test_a_field_on_other_grids_than_expected_is_refused(tmp_path, lines, grid, timegrid,
                                                         match):
    with pytest.raises(FieldIOError, match=match):
        read_field(tmp_path / "f.field", grid, timegrid)


def test_a_directory_is_not_a_field_file(tmp_path):
    with pytest.raises(FieldIOError, match="cannot read field file"):
        read_field(tmp_path)


def test_a_missing_directory_cannot_be_written_into(tmp_path):
    with pytest.raises(FieldIOError, match="cannot write field file"):
        write_field(tmp_path / "absent" / "f.field", SpaceTimeField.zeros(GRID, TIMEGRID))
