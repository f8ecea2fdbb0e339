"""Grids, fields, weights, and the discrete elliptic operator."""

import numpy as np
import pytest

import parakkt
from parakkt import (
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    assemble_operator,
    objective_weights,
    quadrature_weights,
)
from parakkt.exceptions import ConfigError


@pytest.fixture()
def grid1d():
    return SpatialGrid(extents=(1.0,), nodes=(5,))


@pytest.fixture()
def tg():
    return TimeGrid(n_levels=3, horizon=1.0)


class TestSpatialGrid:
    def test_basic_geometry(self, grid1d):
        assert grid1d.dim == 1
        assert grid1d.spacing == (0.25,)
        assert grid1d.n_interior == 3
        np.testing.assert_allclose(
            grid1d.interior_coords, [[0.25], [0.5], [0.75]]
        )
        np.testing.assert_allclose(
            grid1d.axis_coords[0], [0.0, 0.25, 0.5, 0.75, 1.0]
        )

    def test_two_dimensional(self):
        g = SpatialGrid(extents=(1.0, 2.0), nodes=(5, 9))
        assert g.dim == 2
        assert g.spacing == (0.25, 0.25)
        assert g.n_interior == 3 * 7
        assert g.interior_coords.shape == (21, 2)
        assert sorted(g.spatial_env().keys()) == ["x1", "x2"]

    def test_matches(self, grid1d):
        assert grid1d.matches(SpatialGrid((1.0,), (5,)))
        assert not grid1d.matches(SpatialGrid((1.0,), (7,)))
        assert not grid1d.matches(SpatialGrid((2.0,), (5,)))

    @pytest.mark.parametrize(
        "extents,nodes,msg",
        [
            ((-1.0,), (5,), "extents must be positive"),
            ((1.0,), (2,), "at least 3 nodes"),
            ((1.0, 1.0), (5,), "matching extents"),
            ((np.nan,), (5,), "extents must be positive and finite"),
            ((np.inf,), (5,), "extents must be positive and finite"),
            ((1.0, np.nan), (5, 5), "extents must be positive and finite"),
        ],
    )
    def test_rejects_bad_construction(self, extents, nodes, msg):
        with pytest.raises(ConfigError, match=msg):
            SpatialGrid(extents=extents, nodes=nodes)


class TestTimeGrid:
    def test_tau_and_times(self, tg):
        assert tg.tau == 0.5
        np.testing.assert_allclose(tg.times, [0.0, 0.5, 1.0])

    def test_matches(self, tg):
        assert tg.matches(TimeGrid(3, 1.0))
        assert not tg.matches(TimeGrid(5, 1.0))

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigError, match="at least 2 time levels"):
            TimeGrid(n_levels=1, horizon=1.0)
        with pytest.raises(ConfigError, match="horizon must be positive"):
            TimeGrid(n_levels=5, horizon=-1.0)
        for horizon in (np.inf, np.nan):
            with pytest.raises(ConfigError, match="horizon must be positive and finite"):
                TimeGrid(n_levels=5, horizon=horizon)


class TestSpaceTimeField:
    def test_zeros_and_copy(self, grid1d, tg):
        z = SpaceTimeField.zeros(grid1d, tg)
        assert z.values.shape == (3, 3)
        c = z.copy()
        c.values[0, 0] = 5.0
        assert z.values[0, 0] == 0.0

    def test_from_function(self, grid1d, tg):
        f = SpaceTimeField.from_function(grid1d, tg, lambda x1, t: x1 * t)
        xs = grid1d.interior_coords[:, 0]
        for m, t in enumerate(tg.times):
            np.testing.assert_allclose(f.values[m], xs * t)

    def test_same_layout(self, grid1d, tg):
        a = SpaceTimeField.zeros(grid1d, tg)
        b = SpaceTimeField.zeros(grid1d, tg)
        assert a.same_layout(b)
        other = SpaceTimeField.zeros(SpatialGrid((1.0,), (7,)), tg)
        assert not a.same_layout(other)

    def test_rejects_wrong_shape(self, grid1d, tg):
        with pytest.raises(ConfigError):
            SpaceTimeField(np.zeros((3, 4)), grid1d, tg)

    def test_rejects_non_finite(self, grid1d, tg):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ConfigError):
            SpaceTimeField(bad, grid1d, tg)


class TestWeights:
    def test_quadrature_weights_sum_to_volume(self, grid1d, tg):
        w = quadrature_weights(grid1d, tg)
        assert float(np.sum(w.values)) == 1.0

    def test_quadrature_weights_sum_2d(self):
        g = SpatialGrid(extents=(1.0, 2.0), nodes=(5, 9))
        t = TimeGrid(5, 3.0)
        w = quadrature_weights(g, t)
        assert float(np.sum(w.values)) == pytest.approx(1.0 * 2.0 * 3.0, rel=1e-14)

    def test_objective_weights_skip_level_zero(self, grid1d, tg):
        w = objective_weights(grid1d, tg)
        assert np.all(w.values[0] == 0.0)
        cell = tg.tau * grid1d.spacing[0]
        np.testing.assert_allclose(w.values[1:], cell, rtol=0, atol=0)


class TestOperator:
    def test_laplacian_stencil_1d(self, grid1d):
        spec = parakkt.builtin_problem("tracking_box_1d")
        m = assemble_operator(spec, grid1d).toarray()
        expect = np.array(
            [[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]]
        )
        np.testing.assert_allclose(m, expect, rtol=0, atol=0)

    def test_operator_is_positive_definite(self, grid1d):
        spec = parakkt.builtin_problem("tracking_box_1d")
        m = assemble_operator(spec, grid1d).toarray()
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert np.min(eigs) > 0.0
