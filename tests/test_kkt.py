"""Residual checks, the pointwise control update, and multiplier recovery."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import parakkt
from parakkt import (
    KKTPoint,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    constraint_boundary,
    constraint_boundary_field,
    control_update_field,
    discrete_objective,
    h_potential_audit,
    kkt_residuals,
    loads,
    pointwise_control_update,
    recover_multiplier_division,
    recover_multiplier_max,
    strongly_active,
)
from parakkt.exceptions import ConfigError, HypothesisViolationError
from parakkt.kkt import (
    _MAX_BRACKET_DOUBLINGS,
    _MAX_ROOT_ITER,
    FEASIBILITY_SLACK,
    _boundary,
    _monotone_root,
    active_threshold,
)
from parakkt.parabolic import step_scope
from parakkt.problem import cylinder_env, eval_scalar_map

EPS = np.finfo(float).eps


def hand_spec():
    """Linear-reaction variant small enough to solve with pencil and paper."""
    text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
    text = text.replace("expr = y^3", "expr = 0")
    text = text.replace(
        "expr = 0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2",
        "expr = 0.5*(y - 1)^2 + 0.05*u^2",
    )
    text = text.replace("expr = u - 0.4", "expr = u - 10")
    return loads(text)


def hand_point(spec):
    """Exact stationary quadruple on one interior node and one time step.

    With h = 1/2 the interior operator is the scalar 8, the step is tau = 1,
    and the optimality system reduces to rational arithmetic.
    """
    g = SpatialGrid(extents=(1.0,), nodes=(3,))
    tg = TimeGrid(n_levels=2, horizon=1.0)
    y = SpaceTimeField(np.array([[0.0], [10.0 / 91.0]]), g, tg)
    u = SpaceTimeField(np.array([[1000.0 / 819.0], [90.0 / 91.0]]), g, tg)
    phi = SpaceTimeField(np.array([[100.0 / 819.0], [9.0 / 91.0]]), g, tg)
    e = SpaceTimeField.zeros(g, tg)
    return KKTPoint(
        state=y,
        control=u,
        adjoint=phi,
        multiplier=e,
        objective=discrete_objective(spec, y, u),
    )


class TestResiduals:
    def test_hand_built_point_is_stationary(self):
        spec = hand_spec()
        rep = kkt_residuals(spec, hand_point(spec))
        for name in (
            "stat_res",
            "comp_res",
            "sign_viol",
            "feas_viol",
            "adjoint_res",
            "state_res",
        ):
            assert getattr(rep, name) <= 1e-13, name

    def test_control_perturbation_moves_the_right_residuals(self):
        spec = hand_spec()
        point = hand_point(spec)
        delta = 1e-3
        bumped = point.control.copy()
        bumped.values[1, 0] += delta
        moved = KKTPoint(
            state=point.state,
            control=bumped,
            adjoint=point.adjoint,
            multiplier=point.multiplier,
            objective=point.objective,
        )
        rep = kkt_residuals(spec, moved)
        assert rep.stat_res == pytest.approx(0.1 * delta, rel=1e-9)
        assert rep.state_res == pytest.approx(delta, rel=1e-9)
        assert rep.comp_res <= 1e-13

    def test_negative_multiplier_is_flagged(self):
        spec = hand_spec()
        point = hand_point(spec)
        e = point.multiplier.copy()
        e.values[1, 0] = -1e-6
        moved = KKTPoint(point.state, point.control, point.adjoint, e, point.objective)
        rep = kkt_residuals(spec, moved)
        assert rep.sign_viol == pytest.approx(1e-6, rel=1e-12)

    def test_an_infeasible_control_is_flagged(self):
        spec = hand_spec()
        point = hand_point(spec)
        u = point.control.copy()
        u.values[1, 0] = 10.5                 # g = u - 10 = 0.5 at an e = 0 node
        moved = KKTPoint(point.state, u, point.adjoint, point.multiplier, point.objective)
        rep = kkt_residuals(spec, moved)
        assert rep.feas_viol == 0.5
        assert rep.comp_res == 0.0

    def test_a_multiplier_off_the_active_set_is_flagged(self):
        """e > 0 where g < 0 makes e g negative: complementarity is |e g|."""
        spec = hand_spec()
        point = hand_point(spec)
        e = point.multiplier.copy()
        e.values[1, 0] = 1e-3
        moved = KKTPoint(point.state, point.control, point.adjoint, e, point.objective)
        rep = kkt_residuals(spec, moved)
        assert rep.comp_res == pytest.approx(1e-3 * (10.0 - 90.0 / 91.0), rel=1e-12)
        assert rep.feas_viol == 0.0

    @pytest.mark.parametrize("bundle", ["sloped_bundle", "cubic_bundle"])
    def test_the_adjoint_residual_carries_the_multiplier_term(self, bundle, request):
        """At these points e g_y is far from zero, so a wrong sign on it in the
        adjoint residual could not stay below the recursion tolerance."""
        spec, point, trace, report = request.getfixturevalue(bundle)
        assert trace.converged
        state, control = point.state, point.control
        g_y = eval_scalar_map(spec.constraint.dy, state.grid, state.timegrid,
                              state.values, control.values)
        assert np.max(np.abs(point.multiplier.values * g_y)) > 1e-5
        assert report.adjoint_res <= 1e-10
        assert kkt_residuals(spec, point).adjoint_res == report.adjoint_res

    def test_recompute_matches_solver_report(self, tracking_bundle):
        spec, point, trace, report = tracking_bundle
        again = kkt_residuals(spec, point)
        for name in (
            "stat_res",
            "comp_res",
            "sign_viol",
            "feas_viol",
            "adjoint_res",
            "state_res",
        ):
            assert getattr(again, name) == getattr(report, name), name


class TestControlUpdate:
    def test_inactive_branch_worked_example(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        u, e = pointwise_control_update(spec, (0.5,), 0.5, 0.0, 0.02)
        assert u == pytest.approx(0.2, abs=1e-14)
        assert e == 0.0

    def test_active_branch_worked_example(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        u, e = pointwise_control_update(spec, (0.5,), 0.5, 0.0, 0.06)
        assert u == pytest.approx(0.4, abs=1e-12)
        assert e == pytest.approx(0.02, abs=1e-12)

    def test_cubic_constraint_worked_examples(self):
        spec = parakkt.builtin_problem("example31_poly")
        u, e = pointwise_control_update(spec, (0.5,), 0.5, 1.0, -0.1)
        assert u == pytest.approx(-1.0, abs=1e-12)
        assert e == 0.0
        u, e = pointwise_control_update(spec, (0.5,), 0.5, 1.0, 0.1)
        assert u == pytest.approx(0.0, abs=1e-12)
        assert e == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("name", ["tracking_box_1d", "example31_poly"])
    @given(
        phi=st.floats(-5.0, 5.0, allow_nan=False),
        y=st.floats(-2.0, 2.0, allow_nan=False),
        x=st.floats(0.05, 0.95, allow_nan=False),
        t=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_update_satisfies_first_order_conditions(self, name, phi, y, x, t):
        spec = parakkt.builtin_problem(name)
        u, e = pointwise_control_update(spec, (x,), t, y, phi)
        g = float(spec.constraint.eval(x1=x, t=t, y=y, u=u))
        gu = float(spec.constraint.du(x1=x, t=t, y=y, u=u))
        lu = float(spec.cost.du(x1=x, t=t, y=y, u=u))
        assert e >= 0.0
        assert g <= FEASIBILITY_SLACK
        assert abs(e * g) <= 1e-10 * (1.0 + abs(e))
        assert abs(lu - phi + e * gu) <= 1e-9 * (1.0 + abs(phi))

    def test_field_update_matches_pointwise(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        grid = point.state.grid
        timegrid = point.state.timegrid
        u_f, e_f, bound, constrained = control_update_field(
            spec, grid, timegrid, point.state.values, point.adjoint.values
        )
        xs = grid.interior_coords
        for m in (0, len(timegrid.times) // 2, len(timegrid.times) - 1):
            t = timegrid.times[m]
            for i in range(0, grid.n_interior, 7):
                u_p, e_p = pointwise_control_update(
                    spec, tuple(xs[i]), t, point.state.values[m, i],
                    point.adjoint.values[m, i],
                )
                assert u_f[m, i] == pytest.approx(u_p, abs=1e-12)
                assert e_f[m, i] == pytest.approx(e_p, abs=1e-12)
        assert constrained.dtype == bool
        np.testing.assert_allclose(
            u_f[constrained], bound[constrained], rtol=0, atol=1e-12
        )
        assert np.all(e_f[~constrained] == 0.0)

    def test_boundary_field_matches_pointwise(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        grid = point.state.grid
        b = constraint_boundary_field(
            spec, grid, point.state.timegrid, point.state.values
        )
        x0 = tuple(grid.interior_coords[3])
        direct = constraint_boundary(spec, x0, 0.5, point.state.values[32, 3])
        assert b[32, 3] == pytest.approx(direct, abs=1e-12)
        np.testing.assert_allclose(b, 0.4, atol=1e-9)

    def test_a_boundary_that_reads_no_state_is_held_read_only_in_a_scope(
            self, tracking_bundle):
        """u <= 0.4: one field, rooted at y = 0, serves every state; a scope
        holds it read-only until it closes, and a call outside roots its own."""
        spec, point, _, _ = tracking_bundle
        grid, timegrid = point.state.grid, point.state.timegrid
        y = point.state.values
        with step_scope():
            held = constraint_boundary_field(spec, grid, timegrid, y)
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 0.0
            assert constraint_boundary_field(spec, grid, timegrid, 2.0 * y) is held
        assert getattr(parakkt.parabolic._local, "held", None) is None
        assert held.tobytes() == _boundary(spec, cylinder_env(grid, timegrid), y).tobytes()
        fresh = [constraint_boundary_field(spec, grid, timegrid, y) for _ in range(2)]
        assert fresh[0] is not fresh[1] and fresh[0] is not held
        assert all(b.flags.writeable for b in fresh)
        assert fresh[0].tobytes() == held.tobytes()
        stack = constraint_boundary_field(spec, grid, timegrid, np.stack([y, -y]))
        assert stack.flags.writeable
        assert stack.tobytes() == np.stack([held, held]).tobytes()

    def test_a_stack_is_rooted_in_chunks_that_give_each_row_its_own_root(
            self, cubic_bundle, monkeypatch):
        from parakkt import kkt

        spec, point, _, _ = cubic_bundle
        grid, timegrid = point.state.grid, point.state.timegrid
        rng = np.random.default_rng(7)
        y = point.state.values
        stack = y + 0.3 * rng.standard_normal((17,) + y.shape)
        alone = [constraint_boundary_field(spec, grid, timegrid, y) for y in stack]
        chunks, root = [], kkt._boundary

        def recorded(spec, env, y):
            chunks.append(len(y))
            return root(spec, env, y)

        monkeypatch.setattr(kkt, "_boundary", recorded)
        stacked = constraint_boundary_field(spec, grid, timegrid, stack)
        assert stacked.tobytes() == np.array(alone).tobytes()
        # 2**13 // (65 * 31) = 4 rows a chunk.
        assert chunks == [4, 4, 4, 4, 1]


    @pytest.mark.parametrize(
        "helper",
        [lambda spec: pointwise_control_update(spec, (0.5,), 0.5, 0.0, 0.1),
         lambda spec: constraint_boundary(spec, (0.5,), 0.5, 0.0)],
        ids=["control_update", "boundary"],
    )
    def test_scalar_helpers_check_the_coordinate_count(self, helper):
        with pytest.raises(ConfigError, match="spatial coordinate"):
            helper(parakkt.builtin_problem("tracking_box_2d"))

    def test_field_update_matches_pointwise_in_two_dimensions(self):
        spec = parakkt.builtin_problem("tracking_box_2d")
        grid = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        timegrid = TimeGrid(n_levels=9, horizon=spec.horizon)
        rng = np.random.default_rng(5)
        shape = (timegrid.n_levels, grid.n_interior)
        y = rng.uniform(-2.0, 2.0, shape)
        phi = rng.uniform(-0.2, 0.2, shape)
        u_f, e_f, bound, constrained = control_update_field(
            spec, grid, timegrid, y, phi
        )
        assert constrained.any() and not constrained.all()
        xs = grid.interior_coords
        for m in (0, 4, 8):
            t = timegrid.times[m]
            for i in range(0, grid.n_interior, 5):
                u_p, e_p = pointwise_control_update(
                    spec, tuple(xs[i]), t, y[m, i], phi[m, i]
                )
                assert u_f[m, i] == pytest.approx(u_p, abs=1e-12)
                assert e_f[m, i] == pytest.approx(e_p, abs=1e-12)
                b_p = constraint_boundary(spec, tuple(xs[i]), t, y[m, i])
                assert bound[m, i] == pytest.approx(b_p, abs=1e-12)


class TestMultiplierRecovery:
    def test_max_form_reproduces_solver_multiplier(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        rec = recover_multiplier_max(spec, point.state, point.adjoint)
        np.testing.assert_allclose(
            rec.values, point.multiplier.values, rtol=0, atol=1e-13
        )

    def test_division_form_agrees_on_strong_set(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        div = recover_multiplier_division(
            spec, point.state, point.control, point.adjoint
        )
        mask = strongly_active(point.multiplier)
        assert np.any(mask)
        diff = np.abs(div.values - point.multiplier.values)[mask]
        assert float(np.max(diff)) <= 1e-8

    def test_strongly_active_uses_threshold(self, tracking_bundle):
        _, point, _, _ = tracking_bundle
        thr = active_threshold(point.multiplier)
        assert thr > 0.0
        mask = strongly_active(point.multiplier)
        np.testing.assert_array_equal(mask, point.multiplier.values > thr)


class TestPotentialAudit:
    def test_field_is_reaction_slope_along_state(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        audit = h_potential_audit(spec, point.state, point.control)
        np.testing.assert_allclose(
            audit.field.values, 3.0 * point.state.values**2, rtol=1e-12, atol=1e-15
        )
        assert audit.lower == float(np.min(audit.field.values))
        assert audit.upper == float(np.max(audit.field.values))

    def test_a_negative_g_u_is_refused(self):
        """g = u - 0.5 u^2 - 0.4 at u = 3: g_u = -2 is below gamma2 / 2, however
        large its size, so both audits that divide by g_u refuse it."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "expr = u - 0.4", "expr = u - 0.5*u^2 - 0.4")
        spec = loads(text)
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(n_levels=5, horizon=1.0)
        zero = SpaceTimeField.zeros(g, tg)
        control = SpaceTimeField(np.full((5, 7), 3.0), g, tg)
        with pytest.raises(HypothesisViolationError, match="g_u = -2.000e"):
            recover_multiplier_division(spec, zero, control, zero)
        with pytest.raises(HypothesisViolationError, match="g_u = -2.000e"):
            h_potential_audit(spec, zero, control)


def bracket_width_root(fn, dfn, u0):
    """Reference: the bracket-width-only loop, stopping at 4 eps (1 + |u|)."""
    u = np.array(u0, dtype=float)
    v = fn(u)
    lo, hi, vlo, vhi = u.copy(), u.copy(), v.copy(), v.copy()
    step = np.ones(u.shape)
    need_lo, need_hi = vlo > 0, vhi < 0
    while need_lo.any() or need_hi.any():
        lo = np.where(need_lo, lo - step, lo)
        hi = np.where(need_hi, hi + step, hi)
        vlo = np.where(need_lo, fn(lo), vlo)
        vhi = np.where(need_hi, fn(hi), vhi)
        need_lo, need_hi = vlo > 0, vhi < 0
        step *= 2.0
    u = 0.5 * (lo + hi)
    while True:
        v = fn(u)
        lo = np.where(v <= 0, u, lo)
        hi = np.where(v > 0, u, hi)
        if np.all((hi - lo) <= 4.0 * EPS * (1.0 + np.abs(u))):
            return u
        with np.errstate(divide="ignore", invalid="ignore"):
            trial = u - v / dfn(u)
        ok = np.isfinite(trial) & (trial > lo) & (trial < hi)
        u = np.where(ok, trial, 0.5 * (lo + hi))


def every_node_root(fn, dfn, u0):
    """Reference: the iteration of ``_monotone_root`` with every step computed
    on every node, settled, landed or not, and an array-valued bracket step.
    The solver must agree with it bit for bit."""
    shape = u0.shape
    u = np.array(u0, dtype=float)
    v = fn(u)
    with np.errstate(all="ignore"):
        u1 = u - v / dfn(u)
        u1 = np.where(np.isfinite(u1), u1, u)
        v1 = fn(u1)
        s = v1 / dfn(u1)
        root = np.where(v1 == 0, u1, u1 - s)
    settled = (v1 == 0) | (np.isfinite(s)
                           & (np.abs(s) <= 4.0 * EPS * (1.0 + np.abs(u1))))
    down = ~settled & (v > 0) & (v1 < 0) & (u1 < u)
    up = ~settled & (v < 0) & (v1 > 0) & (u1 > u)
    lo, vlo = np.where(down, u1, u), np.where(down, v1, v)
    hi, vhi = np.where(up, u1, u), np.where(up, v1, v)
    step = np.ones(shape)
    need_lo, need_hi = ~settled & (vlo > 0), ~settled & (vhi < 0)
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if not (need_lo.any() or need_hi.any()):
            break
        if need_lo.any():
            lo = np.where(need_lo, lo - step, lo)
            vlo = np.where(need_lo, fn(lo), vlo)
        if need_hi.any():
            hi = np.where(need_hi, hi + step, hi)
            vhi = np.where(need_hi, fn(hi), vhi)
        need_lo, need_hi = ~settled & (vlo > 0), ~settled & (vhi < 0)
        step *= 2.0
    u = np.where(vlo == 0, lo, np.where(vhi == 0, hi, 0.5 * (lo + hi)))
    done = settled
    for _ in range(_MAX_ROOT_ITER):
        v = fn(u)
        lo = np.where(v <= 0, u, lo)
        hi = np.where(v > 0, u, hi)
        tol = 4.0 * EPS * (1.0 + np.abs(u))
        d = dfn(u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trial = u - v / d
        trial = np.where(trial == lo, np.nextafter(lo, hi),
                         np.where(trial == hi, np.nextafter(hi, lo), trial))
        ok = np.isfinite(d) & np.isfinite(trial) & (trial > lo) & (trial < hi)
        landed = done | (v == 0) | ((hi - lo) <= tol)
        small_step = ok & (np.abs(trial - u) <= tol)
        u = np.where(landed, u, np.where(ok, trial, 0.5 * (lo + hi)))
        done = landed | small_step
        if done.all():
            return np.where(settled, root, u)
    raise AssertionError("reference refinement did not converge")


def counted(fn):
    """``fn`` with a call counter, the way a tracer counts root evaluations."""
    def wrapped(u):
        wrapped.calls += 1
        return fn(u)
    wrapped.calls = 0
    return wrapped


def linear_map(a, b, c, y):
    return lambda u: a * u - b, lambda u: a + 0.0 * u


def cubic_map(a, b, c, y):
    return lambda u: a * u + c * u**3 - b, lambda u: a + 3.0 * c * u**2


def poly_map(a, b, c, y):
    """The example31_poly constraint y^4 u^3 + (y^2 + 1) u, shifted by b."""
    return (lambda u: y**4 * u**3 + (y**2 + 1.0) * u - b,
            lambda u: 3.0 * y**4 * u**2 + y**2 + 1.0)


node_param = st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0),
                       st.floats(0.0, 5.0), st.floats(-2.0, 2.0))
node_params = st.lists(node_param, min_size=1, max_size=6)


class TestMonotoneRoot:
    @pytest.mark.parametrize("family", [linear_map, cubic_map, poly_map],
                             ids=["linear", "cubic", "example31_poly"])
    @given(params=node_params,
           start=st.floats(-3.0, 3.0, allow_nan=False))
    def test_matches_bracket_width_reference(self, family, params, start):
        a, b, c, y = (np.array(col) for col in zip(*params))
        fn, dfn = family(a, b, c, y)
        u0 = np.full(a.shape, start)
        u = _monotone_root(fn, dfn, u0, "test")
        ref = bracket_width_root(fn, dfn, u0)
        # Each rule stops about 4 eps (1 + |u|) from the root at most, the
        # reference by bracket width and this one by Newton step length.
        assert np.all(np.abs(u - ref) <= 8.0 * EPS * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("family", [linear_map, cubic_map, poly_map],
                             ids=["linear", "cubic", "example31_poly"])
    @given(params=st.lists(node_param, min_size=1, max_size=12),
           start=st.floats(-3.0, 3.0, allow_nan=False),
           shape=st.sampled_from([None, (2, 3, 4), (3, 1, 5)]))
    def test_matches_every_node_reference_bitwise(self, family, params, start,
                                                  shape):
        # A shape stacks the nodes, cycled to fill it, as (B, L, n).
        a, b, c, y = (np.array(col) if shape is None else np.resize(col, shape)
                      for col in zip(*params))
        fn, dfn = family(a, b, c, y)
        u0 = np.full(a.shape, start)
        u = _monotone_root(fn, dfn, u0, "test")
        assert u.shape == u0.shape
        assert np.array_equal(u, every_node_root(fn, dfn, u0))

    @staticmethod
    def nextafter_calls(monkeypatch):
        """Records (x, toward) of every non-empty ``np.nextafter`` call."""
        calls = []
        original = np.nextafter

        def recorded(x, toward):
            if np.size(x):
                calls.append((np.copy(x), np.copy(toward)))
            return original(x, toward)

        monkeypatch.setattr(np, "nextafter", recorded)
        return calls

    # A slope of 4 at u0 = 0 (the true slope 1 elsewhere) stops the Newton
    # pass short of the root on the start's side, so the bracket is [0, 1]
    # and the first iterate 0.5; a slope of 0.5 there puts the next Newton
    # step exactly on a bracket end.  The third node starts on its root, so
    # the pass settles it and it is left out.
    @pytest.mark.parametrize("root, end", [(0.25, 0.0), (0.75, 1.0)],
                             ids=["lo", "hi"])
    def test_a_step_onto_a_bracket_end_moves_one_float_inside(self, monkeypatch,
                                                              root, end):
        def fn(u):
            return u - root

        def dfn(u):
            return np.where(u == 0.5, 0.5, np.where(u == 0.0, 4.0, 1.0))

        u0 = np.array([0.0, 0.0, root])
        calls = self.nextafter_calls(monkeypatch)
        u = _monotone_root(fn, dfn, u0, "test")
        monkeypatch.undo()
        x, toward = calls[0]
        assert np.array_equal(x, [end, end]) and np.array_equal(toward, [0.5, 0.5])
        assert np.array_equal(u, every_node_root(fn, dfn, u0))
        np.testing.assert_allclose(u, root, rtol=0, atol=8.0 * EPS)

    def test_a_step_out_of_the_bracket_bisects(self):
        # The slope 0.01 throws each Newton step far past the root.  From
        # u0 = 0 the Newton pass lands at 20, which brackets the root with 0;
        # from the midpoint 10 the next step goes to -970, so the iterate
        # after it is the midpoint 5 of the bracket [0, 10].  The other
        # starts give bracket ends that are not dyadic.
        seen = []

        def fn(u):
            seen.append(u.copy())
            return u - 0.2

        def dfn(u):
            return np.full(u.shape, 0.01)

        u0 = np.array([0.0, 0.1, -0.3, 1.7]).reshape(2, 1, 2)
        u = _monotone_root(fn, dfn, u0, "test")
        assert [s.flat[0] for s in seen[:4]] == [0.0, 20.0, 10.0, 5.0]
        assert np.array_equal(u, every_node_root(fn, dfn, u0))
        np.testing.assert_allclose(u, 0.2, rtol=0, atol=8.0 * EPS)

    @given(params=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(-10.0, 10.0),
                                     st.sampled_from([0.0, 1.0, 5.0])),
                           min_size=2, max_size=8),
           start=st.floats(-3.0, 3.0, allow_nan=False))
    def test_nodes_settled_and_not_give_what_each_gives_alone(self, params, start):
        # c = 0 makes a node's map affine, which the Newton pass settles in
        # two evaluations of fn; a cubic term sends the node on.
        a, b, c = (np.array(col) for col in zip(*params))
        alone, calls = [], []
        for k in range(a.size):
            fn = counted(lambda u, k=k: a[k] * u + c[k] * u**3 - b[k])
            alone.append(_monotone_root(fn, lambda u, k=k: a[k] + 3.0 * c[k] * u**2,
                                        np.array([start]), "test")[0])
            calls.append(fn.calls)
        assume(min(calls) == 2 < max(calls))
        u = _monotone_root(lambda u: a * u + c * u**3 - b,
                           lambda u: a + 3.0 * c * u**2, np.full(a.shape, start),
                           "test")
        assert np.array_equal(u, alone)

    @given(a=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=6),
           b=st.floats(-1.0, 1.0))
    def test_linear_maps_take_few_evaluations(self, a, b):
        a = np.array(a)
        fn = counted(lambda u: a * u - b)
        u = _monotone_root(fn, lambda u: a + 0.0 * u, np.zeros(a.shape), "test")
        assert fn.calls == 2
        np.testing.assert_allclose(u, b / a, rtol=4.0 * EPS, atol=4.0 * EPS)

    def test_bracket_grows_only_on_the_needed_side(self):
        # The slope of u^3 is zero at the start, so the Newton point is not
        # finite and every node brackets from u0 = 0, without a warning.
        seen = []

        def fn(u):
            seen.append(u.copy())
            return u**3 - 1e6

        u = _monotone_root(fn, lambda u: 3.0 * u**2, np.zeros(3), "test")
        np.testing.assert_array_equal(u, 100.0)
        assert all(np.all(s >= 0.0) for s in seen)
        assert any(np.all(s == 127.0) for s in seen)

    def test_a_non_finite_newton_point_goes_on_to_the_bracket(self):
        # The Newton point 10 is where the map is nan: the node brackets
        # from u0 = 0 and finds the root 1 as a bracket end.
        fn = counted(lambda u: np.where(u > 2.0, np.nan, u - 1.0))
        u = _monotone_root(fn, lambda u: np.full(u.shape, 0.1), np.zeros(2), "test")
        np.testing.assert_array_equal(u, 1.0)
        assert fn.calls == 4

    def test_exact_zero_at_the_start_stops_at_once(self):
        fn = counted(lambda u: u - 0.25)
        u = _monotone_root(fn, lambda u: np.ones_like(u), np.full(4, 0.25), "test")
        np.testing.assert_array_equal(u, 0.25)
        assert fn.calls == 2

    def test_non_finite_start_raises(self):
        with pytest.raises(HypothesisViolationError, match="at start"):
            _monotone_root(lambda u: np.where(u > 0.0, u - 1.0, np.inf),
                           lambda u: np.ones_like(u), np.array([1.0, -1.0]),
                           "test")

    def test_non_finite_bracket_raises(self):
        with pytest.raises(HypothesisViolationError, match="while bracketing"):
            _monotone_root(lambda u: np.where(u > 2.0, np.nan, u - 5.0),
                           lambda u: np.ones_like(u), np.zeros(2), "test")

    def test_no_sign_change_raises(self):
        with pytest.raises(HypothesisViolationError, match="no sign change"):
            _monotone_root(lambda u: np.arctan(u) - 2.0,
                           lambda u: 1.0 / (1.0 + u**2), np.zeros(2), "test")
