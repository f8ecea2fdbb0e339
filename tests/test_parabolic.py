"""Forward state solves, linearized solves, and failure modes."""

import warnings

import numpy as np
import pytest

import parakkt
from parakkt import (
    SolverOptions,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    loads,
    solve_linear_parabolic,
    solve_state,
)
from parakkt.exceptions import ConfigError, SolveError


def exact_decay(grid, timegrid):
    """y(x, t) = exp(-t) sin(pi x) sampled on interior nodes."""
    xs = grid.interior_coords[:, 0]
    vals = np.empty((timegrid.n_levels, grid.n_interior))
    for m, t in enumerate(timegrid.times):
        vals[m] = np.exp(-t) * np.sin(np.pi * xs)
    return SpaceTimeField(vals, grid, timegrid)


def manufactured_forcing(grid, timegrid):
    """Source that makes exact_decay solve the cubic-reaction equation."""

    def fn(x1, t):
        y = np.exp(-t) * np.sin(np.pi * x1)
        return -y + np.pi**2 * y + y**3

    return SpaceTimeField.from_function(grid, timegrid, fn)


@pytest.fixture(scope="module")
def mms_spec():
    return parakkt.builtin_problem("mms_cubic_1d")


class TestStateSolve:
    def test_zero_data_gives_zero_state(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(9, 1.0)
        y, rep = solve_state(spec, SpaceTimeField.zeros(g, tg))
        assert np.all(y.values == 0.0)
        assert rep.max_newton_iterations == 0
        assert rep.bound_ratio == 0.0

    def test_report_shape(self, mms_spec):
        g = SpatialGrid(extents=(1.0,), nodes=(17,))
        tg = TimeGrid(9, 1.0)
        y, rep = solve_state(mms_spec, manufactured_forcing(g, tg))
        assert len(rep.step_residuals) == tg.n_levels - 1
        assert np.all(np.isfinite(rep.step_residuals))
        assert rep.max_newton_iterations <= 6
        assert 0.0 <= rep.bound_ratio

    def test_manufactured_error_shrinks_in_space(self, mms_spec):
        tg = TimeGrid(1025, 1.0)
        errs = []
        for n in (5, 9):
            g = SpatialGrid(extents=(1.0,), nodes=(n,))
            y, _ = solve_state(mms_spec, manufactured_forcing(g, tg))
            errs.append(float(np.max(np.abs(y.values - exact_decay(g, tg).values))))
        assert errs[1] < 0.30 * errs[0]

    def test_solvers_agree(self, mms_spec):
        g = SpatialGrid(extents=(1.0,), nodes=(17,))
        tg = TimeGrid(17, 1.0)
        u = manufactured_forcing(g, tg)
        results = {}
        for ls in ("banded", "splu", "dense"):
            y, _ = solve_state(mms_spec, u, SolverOptions(linear_solver=ls))
            results[ls] = y.values
        for ls in ("splu", "dense"):
            np.testing.assert_allclose(results[ls], results["banded"], atol=1e-12)

    def test_two_dimensional_solve(self):
        spec = parakkt.builtin_problem("tracking_box_2d")
        g = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        tg = TimeGrid(9, spec.horizon)
        u = SpaceTimeField(np.ones((9, g.n_interior)), g, tg)
        y, rep = solve_state(spec, u)
        assert np.all(np.isfinite(y.values))
        assert float(np.max(np.abs(y.values))) > 0.0


class TestLinearizedSolve:
    def test_matches_nonlinear_solve_for_zero_potential(self, mms_spec):
        """With the reaction frozen at zero state the linear path agrees."""
        g = SpatialGrid(extents=(1.0,), nodes=(17,))
        tg = TimeGrid(17, 1.0)
        rhs = SpaceTimeField.from_function(g, tg, lambda x1, t: np.sin(np.pi * x1))
        pot = SpaceTimeField.zeros(g, tg)
        lin = solve_linear_parabolic(
            mms_spec, pot, rhs, np.zeros(g.n_interior)
        )
        text = parakkt.catalog.builtin_problem_text("mms_cubic_1d").replace(
            "expr = y^3\ndf = 3*y^2\nddf = 6*y", "expr = 0\ndf = 0\nddf = 0"
        ).replace("expr = sin(pi*x1)", "expr = 0")
        linear_spec = loads(text)
        y, _ = solve_state(linear_spec, rhs)
        np.testing.assert_allclose(lin.values, y.values, atol=1e-12)

    def test_adjoint_operator_transposes_propagation(self, mms_spec):
        """Forward and adjoint one-step maps are transposes of each other."""
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(2, 0.1)
        n = g.n_interior
        pot = SpaceTimeField.zeros(g, tg)
        fwd = np.empty((n, n))
        adj = np.empty((n, n))
        for j in range(n):
            e = np.zeros((2, n))
            e[1, j] = 1.0
            rhs = SpaceTimeField(e.copy(), g, tg)
            fwd[:, j] = solve_linear_parabolic(
                mms_spec, pot, rhs, np.zeros(n)
            ).values[1]
            adj[:, j] = solve_linear_parabolic(
                mms_spec, pot, rhs, np.zeros(n), use_adjoint_operator=True
            ).values[1]
        np.testing.assert_allclose(adj, fwd.T, atol=1e-13)


class TestFailureModes:
    def make_singular(self):
        """Reaction slope -9 cancels 1/tau + A exactly on a 3-node grid."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "expr = y^3\ndf = 3*y^2\nddf = 6*y\nC_f = 0",
            "expr = 0 - 9*y\ndf = -9\nddf = 0\nC_f = -9",
        )
        spec = loads(text)
        g = SpatialGrid(extents=(1.0,), nodes=(3,))
        tg = TimeGrid(2, 1.0)
        return spec, SpaceTimeField(np.ones((2, 1)), g, tg)

    @pytest.mark.parametrize("ls", ["banded", "splu", "dense"])
    def test_singular_step_matrix(self, ls):
        spec, u = self.make_singular()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="singular step matrix"):
                solve_state(spec, u, SolverOptions(linear_solver=ls))

    def test_newton_exhaustion(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(3, 1.0)
        u = SpaceTimeField(np.full((3, 7), 5.0), g, tg)
        with pytest.raises(SolveError, match="did not converge"):
            solve_state(spec, u, SolverOptions(newton_max_iter=1))

    def test_non_finite_blowup(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(3, 1.0)
        u = SpaceTimeField(np.full((3, 7), 1e200), g, tg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="non-finite"):
                solve_state(spec, u)

    def test_option_validation(self):
        with pytest.raises(ConfigError, match="unknown linear solver"):
            SolverOptions(linear_solver="qr")
