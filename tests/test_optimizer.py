"""Outer solve loop: convergence, traces, and option handling."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parakkt
from parakkt import (
    OptimizerOptions,
    SolverOptions,
    SpatialGrid,
    TimeGrid,
    cli,
    loads,
    recompute_certificate,
    solve_ocp,
    strongly_active,
)
from parakkt.exceptions import ConfigError, ParakktError, SolveError
from parakkt.grids import SpaceTimeField, objective_weights
from parakkt.kkt import FEASIBILITY_SLACK, constraint_boundary_field, recover_multiplier_max
from parakkt.optimizer import (TRACE_HEADER, _merit, _merit_gradient, _restored_trial,
                               discrete_objective, reduced_gradient)
from parakkt.parabolic import solve_adjoint, solve_state

from conftest import tracking_with_constraint


# g = u + 0.25 y^3 - 0.4 reads y: its boundary moves with the state and its
# multiplier enters the adjoint through e g_y.
MIXED = loads(tracking_with_constraint("u + 0.25*y^3 - 0.4"))


def solve(problem, nodes, n_levels, **kw):
    """Solve a catalog problem, named, or a ``ProblemSpec``."""
    spec = parakkt.builtin_problem(problem) if isinstance(problem, str) else problem
    grid = SpatialGrid(extents=spec.extents, nodes=nodes)
    timegrid = TimeGrid(n_levels=n_levels, horizon=spec.horizon)
    return spec, solve_ocp(spec, grid, timegrid, OptimizerOptions(**kw))


class TestUnconstrainedBaseline:
    def test_inactive_constraint_certifies_clean(self, feasible_bundle):
        spec, point, trace, report = feasible_bundle
        assert trace.converged
        assert report.kkt_error <= 1e-10
        assert np.all(point.multiplier.values == 0.0)
        assert report.comp_res == 0.0

    def test_control_stays_well_inside_the_bound(self, feasible_bundle):
        _, point, _, _ = feasible_bundle
        assert float(np.max(point.control.values)) < 1.0
        assert float(np.min(point.control.values[1:])) > 0.0


class TestConstrainedSolve:
    def test_converges_tightly(self, tracking_bundle):
        spec, point, trace, report = tracking_bundle
        assert trace.converged
        assert "converged in" in trace.message
        assert report.kkt_error <= 1e-10

    def test_constraint_respected_and_active(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        u = point.control.values
        assert float(np.max(u)) <= 0.4 + FEASIBILITY_SLACK
        mask = strongly_active(point.multiplier)
        assert np.any(mask)
        np.testing.assert_allclose(u[mask], 0.4, rtol=0, atol=1e-12)

    def test_active_set_is_an_interior_band(self, tracking_bundle):
        """The bound bites strictly inside the domain, not at its edges."""
        _, point, _, _ = tracking_bundle
        mask = strongly_active(point.multiplier)
        mid = mask[mask.shape[0] // 2]
        assert not mid[0] and not mid[-1]
        assert np.any(mid)

    def test_trace_rows_are_consistent(self, tracking_bundle):
        _, point, trace, _ = tracking_bundle
        assert trace.rows[0][0] == 1
        its = [r[0] for r in trace.rows]
        assert its == list(range(1, len(its) + 1))
        objectives = [r[1] for r in trace.rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        assert trace.rows[-1][1] == pytest.approx(point.objective, rel=1e-12)

    def test_trace_csv_layout(self, tracking_bundle):
        _, _, trace, _ = tracking_bundle
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == len(trace.rows) + 1
        assert len(lines[1].split(",")) == 7


class TestOptions:
    def test_iteration_budget_is_respected(self):
        _, (point, trace, report) = solve(
            "tracking_box_1d", (17,), 33, tol_kkt=1e-12, max_outer=1
        )
        assert not trace.converged
        assert trace.message == "stopped after 1 iterations"
        assert len(trace.rows) == 1

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol_kkt": float("nan")}, "tol_kkt must be finite and positive"),
        ({"tol_kkt": float("inf")}, "tol_kkt must be finite and positive"),
        ({"tol_kkt": 0.0}, "tol_kkt must be finite and positive"),
        ({"tol_kkt": -1.0}, "tol_kkt must be finite and positive"),
        ({"max_outer": -3}, "max_outer must be at least 0"),
        ({"u_init": float("nan")}, "u_init must be finite"),
        ({"u_init": float("inf")}, "u_init must be finite"),
        ({"u_init": -float("inf")}, "u_init must be finite"),
    ])
    def test_an_option_that_can_never_be_met_is_refused(self, kwargs, match):
        """Such a solve ran to the iteration cap and read as non-convergence."""
        with pytest.raises(ConfigError, match=match):
            OptimizerOptions(**kwargs)

    def test_no_iteration_is_a_budget(self):
        assert OptimizerOptions(max_outer=0).max_outer == 0

    def test_warm_initial_control(self):
        _, (p_cold, t_cold, _) = solve("tracking_box_1d", (17,), 17, tol_kkt=1e-9)
        _, (p_warm, t_warm, _) = solve(
            "tracking_box_1d", (17,), 17, tol_kkt=1e-9, u_init=0.2
        )
        assert t_cold.converged and t_warm.converged
        assert p_warm.objective == pytest.approx(p_cold.objective, rel=1e-8)

    def test_linear_solver_choice_does_not_change_the_answer(self):
        _, (a, ta, _) = solve("tracking_box_1d", (17,), 17, tol_kkt=1e-10)
        _, (b, tb, _) = solve(
            "tracking_box_1d",
            (17,),
            17,
            tol_kkt=1e-10,
            solver=SolverOptions(linear_solver="dense"),
        )
        assert ta.converged and tb.converged
        assert a.objective == pytest.approx(b.objective, rel=1e-12)

    def test_tight_tolerance_on_a_coarse_grid(self):
        """The line search near the solution converges at tol 1e-11 on 9x9."""
        _, (_, trace, report) = solve("tracking_box_1d", (9,), 9, tol_kkt=1e-11)
        assert trace.converged
        assert len(trace.rows) <= 12
        assert report.kkt_error <= 1e-11

    def test_determinism(self):
        _, (a, _, ra) = solve("strictly_feasible_1d", (9,), 9, tol_kkt=1e-9)
        _, (b, _, rb) = solve("strictly_feasible_1d", (9,), 9, tol_kkt=1e-9)
        assert a.objective == b.objective
        assert ra == rb


class TestTwoDimensions:
    def test_constrained_2d_solve(self):
        _, (point, trace, report) = solve("tracking_box_2d", (9, 9), 9, tol_kkt=1e-8)
        assert trace.converged
        assert report.kkt_error <= 1e-8
        assert float(np.max(point.control.values)) <= 0.5 + FEASIBILITY_SLACK

    def test_linear_solver_choice_does_not_change_the_answer(self):
        _, (a, ta, _) = solve("tracking_box_2d", (9, 9), 9, tol_kkt=1e-10)
        _, (b, tb, _) = solve("tracking_box_2d", (9, 9), 9, tol_kkt=1e-10,
                              solver=SolverOptions(linear_solver="dense"))
        assert ta.converged and tb.converged
        assert a.objective == pytest.approx(b.objective, rel=1e-12)

    def test_certificate_does_not_depend_on_the_linear_solver(self):
        spec, (point, trace, _) = solve("tracking_box_2d", (9, 9), 9, tol_kkt=1e-10)
        assert trace.converged
        runs = [recompute_certificate(spec, point.state, point.control,
                                      SolverOptions(linear_solver=ls))
                for ls in ("auto", "dense")]
        for auto_field, dense_field in zip(*runs):
            assert float(np.max(np.abs(auto_field.values - dense_field.values))) <= 1e-10


    @pytest.mark.parametrize("a_section", [
        pytest.param("", id="laplacian"),
        pytest.param("\n[a]\na11 = 1 + 0.5*x1\na12 = 0.3*x1*x2\na22 = 1 + x2^2\n",
                     id="cross_diffusion"),
    ])
    def test_fields_and_certificate_do_not_depend_on_the_linear_solver(self, a_section):
        spec = loads(parakkt.catalog.builtin_problem_text("tracking_box_2d") + a_section)
        grid = SpatialGrid(extents=spec.extents, nodes=(17, 17))
        timegrid = TimeGrid(n_levels=17, horizon=spec.horizon)
        points = {}
        for ls in ("auto", "dense"):
            point, trace, _ = solve_ocp(spec, grid, timegrid, OptimizerOptions(
                solver=SolverOptions(linear_solver=ls)))
            assert trace.converged
            points[ls] = point
        for name in ("state", "control", "adjoint", "multiplier"):
            gap = np.abs(getattr(points["auto"], name).values
                         - getattr(points["dense"], name).values)
            assert float(np.max(gap)) <= 1e-12, name
        point = points["auto"]
        runs = [recompute_certificate(spec, point.state, point.control,
                                      SolverOptions(linear_solver=ls))
                for ls in ("auto", "dense")]
        for auto_field, dense_field in zip(*runs):
            assert float(np.max(np.abs(auto_field.values - dense_field.values))) <= 1e-10


class TestCertificateRecomputation:
    @pytest.fixture(scope="class")
    def mixed_point(self):
        """Tracking cost under the mixed constraint u + 0.25 y^3 - 0.4 <= 0."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "expr = u - 0.4", "expr = u + 0.25*y^3 - 0.4"
        )
        spec = loads(text)
        grid = SpatialGrid(extents=spec.extents, nodes=(33,))
        timegrid = TimeGrid(n_levels=65, horizon=spec.horizon)
        point, trace, _ = solve_ocp(spec, grid, timegrid,
                                    OptimizerOptions(tol_kkt=1e-8))
        assert trace.converged
        return spec, point

    def test_default_sweeps_reproduce_the_solver_pair(self, mixed_point):
        spec, point = mixed_point
        adjoint, e = recompute_certificate(spec, point.state, point.control)
        np.testing.assert_allclose(adjoint.values, point.adjoint.values,
                                   rtol=0, atol=1e-10)
        np.testing.assert_allclose(e.values, point.multiplier.values,
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("max_sweeps", [1, 2, 3])
    def test_exhausted_sweeps_raise(self, mixed_point, max_sweeps, monkeypatch):
        from parakkt import optimizer

        spec, point = mixed_point
        monkeypatch.setattr(optimizer, "MAX_CERTIFICATE_SWEEPS", max_sweeps)
        with pytest.raises(SolveError, match=f"did not settle in {max_sweeps} sweeps"):
            recompute_certificate(spec, point.state, point.control)


class TestMerit:
    """The line search descends M = J + sum w e g with the multiplier frozen."""

    def test_slope_is_the_derivative_of_the_merit(self):
        spec = loads(tracking_with_constraint("u + 0.25*y^3 - 0.4"))
        grid = SpatialGrid(extents=spec.extents, nodes=(9,))
        timegrid = TimeGrid(n_levels=9, horizon=spec.horizon)
        w = objective_weights(grid, timegrid)
        rng = np.random.default_rng(3)
        shape = (timegrid.n_levels, grid.n_interior)
        u = SpaceTimeField(1.5 + rng.normal(size=shape), grid, timegrid)
        e = rng.uniform(0.0, 0.5, size=shape)
        direction = rng.normal(size=shape)

        def merit(step):
            v = SpaceTimeField(u.values + step * direction, grid, timegrid)
            y = solve_state(spec, v)[0]
            return _merit(spec, w, y, v, discrete_objective(spec, y, v), e)

        y = solve_state(spec, u)[0]
        adjoint = solve_adjoint(spec, y, u, SpaceTimeField(e, grid, timegrid))
        gradient = _merit_gradient(spec, y, u, adjoint, e)
        slope = float(np.sum(w.values * gradient * direction))
        h = 1e-6
        fd = (merit(h) - merit(-h)) / (2 * h)
        assert slope == pytest.approx(fd, rel=1e-7)
        # The gradient of J alone misses e g_u and is not the merit's slope.
        j_slope = float(np.sum(w.values * reduced_gradient(spec, y, u, adjoint).values
                               * direction))
        assert abs(j_slope - fd) > 1e-2 * abs(fd)

    @pytest.mark.parametrize("a, c, b, nodes, levels, cap", [
        (0.81, 0.25, 0.39, 33, 65, 10),
        (0.77, 0.36, 0.36, 33, 65, 10),
        (0.8, 0.4, 0.4, 33, 65, 10),
        (0.8, 0.25, 0.4, 5, 5, 15),
    ])
    def test_mixed_constraints_converge_without_stalling(self, a, c, b, nodes, levels, cap):
        text = tracking_with_constraint(f"u + {c}*y^3 - {b}").replace(
            "0.8*sin(pi*x1)", f"{a}*sin(pi*x1)")
        spec = loads(text)
        grid = SpatialGrid(extents=spec.extents, nodes=(nodes,))
        timegrid = TimeGrid(n_levels=levels, horizon=spec.horizon)
        _, trace, report = solve_ocp(spec, grid, timegrid, OptimizerOptions(tol_kkt=1e-8))
        assert trace.converged and report.kkt_error <= 1e-8
        assert len(trace.rows) <= cap


class TestLineSearchFailures:
    """A trial whose state solve fails is a rejected step, not a crash."""

    @staticmethod
    def failing_state_solve(monkeypatch, fail_at):
        """Patches the stacked state march to raise on its ``fail_at``-th call
        (0: never)."""
        from parakkt import optimizer

        original = optimizer._march_states
        calls = []

        def patched(*args, **kwargs):
            calls.append(None)
            if len(calls) == fail_at:
                raise SolveError("state Newton did not converge (injected)")
            return original(*args, **kwargs)

        monkeypatch.setattr(optimizer, "_march_states", patched)
        return calls

    def test_failed_trial_shrinks_the_step(self, monkeypatch):
        _, (_, clean, _) = solve("tracking_box_1d", (17,), 33, tol_kkt=1e-9)
        assert clean.rows[0][2] == 1.0
        restore = self.failing_state_solve(monkeypatch, fail_at=0)
        solve("tracking_box_1d", (17,), 33, tol_kkt=1e-9, max_outer=0)
        self.failing_state_solve(monkeypatch, fail_at=len(restore) + 1)
        _, (_, trace, report) = solve("tracking_box_1d", (17,), 33, tol_kkt=1e-9)
        assert trace.converged and report.kkt_error <= 1e-9
        assert trace.rows[0][2] == 0.5

    def test_failed_initial_restore_still_raises(self, monkeypatch):
        self.failing_state_solve(monkeypatch, fail_at=1)
        with pytest.raises(SolveError, match="injected"):
            solve("tracking_box_1d", (17,), 33, tol_kkt=1e-9)


class TestRestorationCheck:
    """Two projection passes that both move u must end feasible."""

    @staticmethod
    def shifted_boundary(monkeypatch, shifts):
        """Raises the constraint boundary by ``shifts[k]`` on its k-th call."""
        from parakkt import kkt

        original = kkt._boundary
        calls = []

        def patched(spec, env, y):
            shift = shifts[len(calls)] if len(calls) < len(shifts) else 0.0
            calls.append(shift)
            return original(spec, env, y) + shift

        monkeypatch.setattr(kkt, "_boundary", patched)
        return calls

    def test_infeasible_initial_restore_raises(self, monkeypatch):
        # The boundary of a constraint that reads y is solved in every pass.
        # u_init 1 lies above it (about 0.4); both passes move u, and the
        # second leaves it 1e-6 above the boundary.
        self.shifted_boundary(monkeypatch, [2e-6, 1e-6])
        with pytest.raises(SolveError, match="restoration left the constraint "
                                             "violated by 1.000e-06"):
            solve(MIXED, (17,), 33, tol_kkt=1e-9, u_init=1.0)

    def test_infeasible_trial_is_a_rejected_step(self, monkeypatch):
        # Calls: initial restore, whose boundary the first control update
        # reuses, then the first trial's two passes.  The update's candidate
        # then lies above the boundary, and the trial's two passes both move
        # it and leave it infeasible.
        calls = self.shifted_boundary(monkeypatch, [3e-6, 2e-6, 1e-6])
        _, (_, trace, report) = solve(MIXED, (17,), 33, tol_kkt=1e-9)
        assert len(calls) > 3
        assert trace.converged and report.kkt_error <= 1e-9
        assert trace.rows[0][2] == 0.5

    def test_a_row_the_last_pass_moved_returns_no_boundary(self, monkeypatch):
        # u = 1 is projected onto 0.4 + 1e-9, then onto 0.4 and solved again.
        spec = parakkt.builtin_problem("tracking_box_1d")
        grid = SpatialGrid(extents=spec.extents, nodes=(17,))
        timegrid = TimeGrid(n_levels=33, horizon=spec.horizon)
        calls = self.shifted_boundary(monkeypatch, [1e-9])
        control, _, _, boundary = _restored_trial(
            spec, grid, timegrid, np.ones((33, 1, 15)), SolverOptions())
        assert len(calls) == 2
        assert boundary is None
        assert float(np.max(control)) == 0.4


class TestBoundaryReuse:
    """Each state's constraint boundary is solved for once, in its projection."""

    @staticmethod
    def recorded_calls(monkeypatch, module, name):
        """Patches ``module.name`` to record the positional arguments of each call."""
        original = getattr(module, name)
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    def test_control_updates_solve_no_boundary(self, monkeypatch):
        from parakkt import kkt, optimizer

        roots = self.recorded_calls(monkeypatch, kkt, "_boundary")
        passes = self.recorded_calls(monkeypatch, optimizer, "_boundary_rows")
        updates = self.recorded_calls(monkeypatch, optimizer, "control_update_field")
        _, (_, trace, _) = solve(MIXED, (17,), 33, tol_kkt=1e-9)
        assert trace.converged
        assert len(updates) > len(trace.rows) > 1
        assert len(roots) == len(passes) > 0

    def test_a_restored_control_carries_the_boundary_of_its_state(self, monkeypatch):
        from parakkt import optimizer

        spec = MIXED
        grid = SpatialGrid(extents=spec.extents, nodes=(17,))
        timegrid = TimeGrid(n_levels=33, horizon=spec.horizon)
        passes = self.recorded_calls(monkeypatch, optimizer, "_boundary_rows")
        u_values = np.stack([np.zeros((33, 15)), np.ones((33, 15))], axis=1)
        u, states, _, boundary = _restored_trial(spec, grid, timegrid, u_values.copy(),
                                                 SolverOptions())
        # The first pass leaves u = 0 and moves u = 1; the second leaves it.
        assert [len(y_rows) for *_, y_rows in passes] == [2, 1]
        assert np.array_equal(u[:, 0], u_values[:, 0])
        assert not np.array_equal(u[:, 1], u_values[:, 1])
        assert boundary is None         # a stack of two holds none
        for row in range(2):
            alone, state, _, boundary = _restored_trial(
                spec, grid, timegrid, u_values[:, row:row + 1].copy(), SolverOptions())
            assert np.array_equal(alone, u[:, row:row + 1])
            assert np.array_equal(
                boundary, constraint_boundary_field(spec, grid, timegrid, state[:, 0]))

    def test_certificate_solves_one_boundary_for_all_its_sweeps(self, monkeypatch):
        from parakkt import kkt, optimizer

        spec, (point, trace, _) = solve(MIXED, (33,), 65)
        assert trace.converged
        roots = self.recorded_calls(monkeypatch, kkt, "_boundary")
        sweeps = self.recorded_calls(monkeypatch, optimizer, "solve_adjoint")
        recompute_certificate(spec, point.state, point.control)
        assert len(sweeps) > 1
        assert len(roots) == 1


class TestConstraintOnUAlone:
    """A constraint that reads no y: one adjoint sweep per certificate and
    per converged solve, one boundary per solve, and the same fields."""

    recorded_calls = staticmethod(TestBoundaryReuse.recorded_calls)

    @pytest.fixture(scope="class")
    def box_point(self):
        spec, (point, trace, _) = solve("tracking_box_1d", (33,), 65)
        assert trace.converged
        return spec, point

    def test_the_certificate_sweeps_once_and_gives_the_two_sweep_pair(self, box_point,
                                                                       monkeypatch):
        from parakkt import optimizer

        spec, point = box_point
        state, control = point.state, point.control
        e = SpaceTimeField.zeros(state.grid, state.timegrid)
        for _ in range(2):
            adjoint = solve_adjoint(spec, state, control, e)
            e = recover_multiplier_max(spec, state, adjoint)
        sweeps = self.recorded_calls(monkeypatch, optimizer, "solve_adjoint")
        cert_adjoint, cert_e = recompute_certificate(spec, state, control)
        assert len(sweeps) == 1
        assert np.array_equal(cert_adjoint.values, adjoint.values)
        assert np.array_equal(cert_e.values, e.values)

    @pytest.mark.parametrize("problem, nodes, levels", [
        ("tracking_box_1d", (17,), 33),
        ("tracking_box_2d", (9, 9), 9),
    ])
    def test_a_solve_sweeps_once_per_iteration_and_roots_one_boundary(
            self, monkeypatch, problem, nodes, levels):
        from parakkt import kkt, optimizer

        sweeps = self.recorded_calls(monkeypatch, optimizer, "solve_adjoint")
        roots = self.recorded_calls(monkeypatch, kkt, "_boundary")
        spec, (point, trace, report) = solve(problem, nodes, levels, tol_kkt=1e-9)
        assert trace.converged and report.kkt_error <= 1e-9
        assert len(trace.rows) > 1
        assert len(sweeps) == len(trace.rows)
        assert len(roots) == 1
        monkeypatch.undo()
        again = solve_adjoint(spec, point.state, point.control, point.multiplier)
        assert again.values.tobytes() == point.adjoint.values.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_multiplier_is_not_a_certificate(self, box_point, monkeypatch, bad):
        # inf g_y or nan g_y is not a signed zero: the one sweep settles nothing.
        from parakkt import optimizer

        spec, point = box_point

        def non_finite(spec, state):
            def multiplier_of(adjoint):
                e = SpaceTimeField.zeros(state.grid, state.timegrid)
                e.values[3, 5] = bad      # past the constructor's finiteness check
                return e
            return multiplier_of

        monkeypatch.setattr(optimizer, "_multiplier_max", non_finite)
        monkeypatch.setattr(optimizer, "MAX_CERTIFICATE_SWEEPS", 1)
        with pytest.raises(SolveError, match="did not settle in 1 sweeps"):
            recompute_certificate(spec, point.state, point.control)

    def test_a_zero_g_y_is_read_from_the_map_values(self, monkeypatch):
        # g = u + 0*y - 0.4 reads y, so every projection roots its boundary;
        # its g_y evaluates to 0, so the certificate sweeps once.
        from parakkt import kkt, optimizer

        spec = loads(tracking_with_constraint("u + 0*y - 0.4"))
        passes = self.recorded_calls(monkeypatch, optimizer, "_boundary_rows")
        roots = self.recorded_calls(monkeypatch, kkt, "_boundary")
        _, (point, trace, _) = solve(spec, (17,), 33, tol_kkt=1e-9)
        assert trace.converged
        assert len(roots) == len(passes) > 1
        sweeps = self.recorded_calls(monkeypatch, optimizer, "solve_adjoint")
        recompute_certificate(spec, point.state, point.control)
        assert len(sweeps) == 1

    def test_a_map_without_variables_counts_as_reading_y(self, monkeypatch):
        from dataclasses import replace

        from parakkt import kkt

        box = parakkt.builtin_problem("tracking_box_1d")
        g = box.constraint
        spec = replace(box, constraint=replace(g, eval=lambda **env: g.eval(**env)))
        roots = self.recorded_calls(monkeypatch, kkt, "_boundary")
        _, (_, trace, _) = solve(spec, (17,), 33, tol_kkt=1e-9)
        assert trace.converged
        assert len(roots) > 1


class TestMixedConstraintSweeps:
    """A constraint that reads y keeps every sweep; its certificate's two or
    more are checked in ``TestBoundaryReuse``."""

    recorded_calls = staticmethod(TestBoundaryReuse.recorded_calls)

    def test_a_converged_solve_sweeps_again_with_its_multiplier(self, monkeypatch):
        from parakkt import optimizer

        sweeps = self.recorded_calls(monkeypatch, optimizer, "solve_adjoint")
        _, (_, trace, _) = solve(MIXED, (17,), 33, tol_kkt=1e-9)
        assert trace.converged
        assert len(sweeps) == len(trace.rows) + 1


class TestExtremeInitialControls:
    """The state equation is monotone, so a large initial control is a legal
    input: a solve from it certifies a point or fails with a typed error."""

    @pytest.mark.parametrize("u_init", [1e4, -1e4])
    @pytest.mark.parametrize("problem", parakkt.catalog_names())
    def test_a_catalog_problem_converges_from_a_large_control(self, problem, u_init):
        dim = parakkt.builtin_problem(problem).dim
        nodes, levels = ((17, 17), 17) if dim == 2 else ((33,), 65)
        _, (_, trace, report) = solve(problem, nodes, levels, tol_kkt=1e-8, u_init=u_init)
        assert trace.converged and report.kkt_error <= 1e-8

    @staticmethod
    @st.composite
    def problems(draw):
        """A catalog problem, or tracking_box_1d under g = u + c y^k - b."""
        name = draw(st.sampled_from(parakkt.catalog_names() + ("mixed",)))
        if name != "mixed":
            return parakkt.builtin_problem(name)
        c, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.1, 0.8))
        k = draw(st.integers(1, 3))
        return loads(tracking_with_constraint(f"u + {c!r}*y^{k} - {b!r}"))

    @given(spec=problems(), nx=st.sampled_from([3, 5, 9, 17]),
           levels=st.sampled_from([2, 3, 5, 9, 17]), u_init=st.floats(-1e6, 1e6))
    def test_every_draw_certifies_or_fails_typed(self, spec, nx, levels, u_init):
        """A solve that stops unconverged fails as the CLI fails it (exit 4)."""
        nodes = (nx,) if spec.dim == 1 else (min(nx, 9),) * 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                _, (_, trace, report) = solve(spec, nodes, levels, tol_kkt=1e-8,
                                              u_init=u_init)
                cli._require_converged(trace)
            except ParakktError:
                return
        assert report.kkt_error <= 1e-8
