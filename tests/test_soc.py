"""Second-order diagnostics: critical directions, curvature, growth."""

import dataclasses

import numpy as np
import pytest

from parakkt import (
    legendre_min,
    linearized_state,
    quadratic_form,
    quadratic_growth_probe,
    sample_critical_direction,
    strongly_active,
)
from parakkt import KKTPoint, builtin_problem, loads, soc
from parakkt.exceptions import AuditError, ConfigError, HypothesisViolationError
from parakkt.grids import (SpaceTimeField, SpatialGrid, TimeGrid, objective_weights,
                           quadrature_weights)
from parakkt.optimizer import _restored_trial, discrete_objective
from parakkt.parabolic import SolverOptions, solve_state
from parakkt.problem import eval_scalar_map
from parakkt.soc import CriticalDirection, _c2_residual, _smooth_random_fields

from conftest import (CUBIC_TEXT, SLOPED_TEXT, solve_builtin, solve_spec, traced_peak,
                      tracking_with_constraint)


def one_trial_at_a_time(spec, point, n_trials, radius=1e-2, seed=0):
    """The growth probe as it was before batching: each trial drawn, restored
    and recorded alone.  Returns (rows, kappa_hat, n_feasible)."""
    grid, timegrid = point.state.grid, point.state.timegrid
    rng = np.random.default_rng(seed)
    qw = quadrature_weights(grid, timegrid).values
    rows, kappa, n_feasible = [], np.inf, 0
    for trial in range(n_trials):
        delta = radius * _smooth_random_fields(grid, timegrid, rng)[:, 0]
        delta[0] = 0.0
        u_try = point.control.values + delta
        control, state, [objective], _ = _restored_trial(spec, grid, timegrid,
                                                         u_try[:, None], SolverOptions())
        du = control[:, 0] - point.control.values
        norm_du = float(np.sqrt(np.sum(qw * du**2)))
        g = eval_scalar_map(spec.constraint.eval, grid, timegrid,
                            state[:, 0], control[:, 0])
        feasible = bool(np.max(g) <= 1e-8) and norm_du >= 1e-8
        ratio = (objective - point.objective) / norm_du**2 if norm_du >= 1e-8 else 0.0
        if feasible:
            n_feasible += 1
            kappa = min(kappa, ratio)
        rows.append((trial, ratio, norm_du, feasible))
    return rows, float(kappa) if np.isfinite(kappa) else 0.0, n_feasible


class TestCriticalDirection:
    def test_direction_satisfies_cone_conditions(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        assert d.c1_satisfied
        assert abs(d.c1_value) <= 1e-10
        assert d.c2_residual <= 1e-11
        assert d.c3_violation == 0.0

    def test_direction_vanishes_on_strong_set(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        mask = strongly_active(point.multiplier)
        assert np.all(d.control_direction.values[mask] == 0.0)
        assert float(np.max(np.abs(d.control_direction.values))) > 0.0

    def test_state_direction_solves_linearized_equation(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        again = linearized_state(spec, point, d.control_direction)
        np.testing.assert_allclose(
            again.values, d.state_direction.values, rtol=0, atol=1e-12
        )

    def test_seed_controls_the_sample(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        a = sample_critical_direction(spec, point, seed=0)
        b = sample_critical_direction(spec, point, seed=0)
        c = sample_critical_direction(spec, point, seed=1)
        np.testing.assert_array_equal(
            a.control_direction.values, b.control_direction.values
        )
        assert not np.array_equal(
            a.control_direction.values, c.control_direction.values
        )


def tangency(spec, point, d):
    """g_y z + g_u v along the direction, at the point."""
    grid, timegrid = point.state.grid, point.state.timegrid
    y, u = point.state.values, point.control.values
    g_y = eval_scalar_map(spec.constraint.dy, grid, timegrid, y, u)
    g_u = eval_scalar_map(spec.constraint.du, grid, timegrid, y, u)
    return g_y * d.state_direction.values + g_u * d.control_direction.values


def with_weak_nodes(point):
    """The point with its multiplier zeroed on every other strongly active
    node, which leaves those nodes active but only weakly."""
    strong = strongly_active(point.multiplier)
    e = point.multiplier.copy()
    e.values.ravel()[np.flatnonzero(strong)[::2]] = 0.0
    return dataclasses.replace(point, multiplier=e), strong & ~strongly_active(e)


def counting_sweeps(monkeypatch):
    """Record each linearized sweep the direction sampler makes."""
    calls, sweep = [], soc.solve_linear_parabolic

    def counted(*args, **kwargs):
        calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(soc, "solve_linear_parabolic", counted)
    return calls


class TestSlopedConstraint:
    """g = u + 0.5 y - 0.4: the tangency couples v to the state direction."""

    @pytest.mark.parametrize("seed", range(4))
    def test_direction_is_exactly_tangent(self, sloped_bundle, seed):
        spec, point, trace, _ = sloped_bundle
        assert trace.converged
        d = sample_critical_direction(spec, point, seed=seed)
        assert d.c3_violation <= 1e-12
        assert d.c2_residual <= 1e-11
        assert d.c1_satisfied
        strong = strongly_active(point.multiplier)
        assert strong.any()
        assert float(np.max(np.abs(tangency(spec, point, d)[strong]))) <= 1e-12


class TestWeakNodes:
    @pytest.mark.parametrize("bundle", ["tracking_bundle", "sloped_bundle"])
    def test_weak_nodes_are_clamped_one_sidedly(self, bundle, request,
                                                monkeypatch):
        spec, point, _, _ = request.getfixturevalue(bundle)
        forced, weak = with_weak_nodes(point)
        strong = strongly_active(forced.multiplier)
        assert weak.any() and strong.any()
        sweeps = counting_sweeps(monkeypatch)
        d = sample_critical_direction(spec, forced, seed=0)
        lin = tangency(spec, forced, d)
        assert float(np.max(lin[weak])) <= 1e-12
        assert float(np.max(np.abs(lin[strong]))) <= 1e-12
        # The descent test fails on both signs here, so the sign flip ran:
        # two sweeps per sign, the second clamping the weak nodes.
        assert not d.c1_satisfied
        assert len(sweeps) == 4

    def test_box_direction_costs_one_sweep(self, tracking_bundle, monkeypatch):
        spec, point, _, _ = tracking_bundle
        sweeps = counting_sweeps(monkeypatch)
        assert sample_critical_direction(spec, point, seed=0).c1_satisfied
        assert len(sweeps) == 1


def test_constraint_slope_below_the_bound_is_refused(tracking_bundle):
    """g_u = 1 < gamma2 / 2: the reduced potential is not trustworthy."""
    spec, point, _, _ = tracking_bundle
    with pytest.raises(HypothesisViolationError):
        sample_critical_direction(dataclasses.replace(spec, gamma2=3.0), point)


class TestQuadraticForm:
    def test_curvature_dominates_control_mass(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        q = quadratic_form(spec, point, d)
        w = objective_weights(point.control.grid, point.control.timegrid)
        mass = float(np.sum(w.values * d.control_direction.values**2))
        assert q >= 0.5 * spec.gamma1 * mass
        assert q > 0.0

    def test_zero_direction_gives_zero(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        zeroed = type(d)(
            control_direction=d.control_direction.copy(),
            state_direction=d.state_direction.copy(),
            c1_value=0.0,
            c1_satisfied=True,
            c2_residual=0.0,
            c3_violation=0.0,
        )
        zeroed.control_direction.values[:] = 0.0
        zeroed.state_direction.values[:] = 0.0
        assert quadratic_form(spec, point, zeroed) == 0.0

    def test_a_direction_on_another_layout_is_refused(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        other = SpaceTimeField.zeros(d.state_direction.grid, TimeGrid(9, spec.horizon))
        with pytest.raises(AuditError, match="direction layout differs"):
            quadratic_form(spec, point, dataclasses.replace(d, state_direction=other))

    def test_a_direction_off_the_linearized_equation_is_refused(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        d = sample_critical_direction(spec, point, seed=0)
        with pytest.raises(AuditError, match="linearized-state residual 2.000e-08"):
            quadratic_form(spec, point, dataclasses.replace(d, c2_residual=2e-8))

    @pytest.mark.parametrize("g, share", [
        (None, 0.0), ("u + 0.5*y - 0.4", 0.0), ("u + 0.1*u^3 + 0.2*y*u - 0.4", 0.02),
    ], ids=["box", "sloped", "curved"])
    def test_the_form_is_the_second_difference_of_the_lagrangian(self, g, share):
        """Q(v) is d^2/ds^2 of l(u + s v) at s = 0, where l(u) = J(y(u), u) +
        sum w e g(y(u), u) holds the multiplier e of the point fixed.  The
        gaps read 7.7e-10 to 8.3e-10 of Q.  On the curved constraint the
        terms e (g_yy z^2 + 2 g_yu z v + g_uu v^2) are 3.1% of Q (the g_yu
        part 0.26%), so a dropped or wrong g_yu or g_uu term fails."""
        spec = loads(tracking_with_constraint(g)) if g else builtin_problem("tracking_box_1d")
        spec, point, _, _ = solve_spec(spec, (17,), 33, 1e-10)
        grid, timegrid = point.state.grid, point.state.timegrid
        options = SolverOptions(newton_tol=1e-13)
        w = objective_weights(grid, timegrid).values
        e = point.multiplier.values

        def lagrangian(u):
            control = SpaceTimeField(u, grid, timegrid)
            y = solve_state(spec, control, options)[0]
            g_values = eval_scalar_map(spec.constraint.eval, grid, timegrid, y.values, u)
            return discrete_objective(spec, y, control) + float(np.sum(w * e * g_values))

        v = _smooth_random_fields(grid, timegrid, np.random.default_rng(5))[:, 0]
        v[0] = 0.0
        v = SpaceTimeField(v, grid, timegrid)
        z = linearized_state(spec, point, v, options)
        q = quadratic_form(spec, point, CriticalDirection(
            v, z, 0.0, True, _c2_residual(spec, point, v, z), 0.0))
        s, u = 1e-2, point.control.values
        second = (lagrangian(u + s * v.values) - 2.0 * lagrangian(u)
                  + lagrangian(u - s * v.values)) / s**2
        assert abs(second - q) <= 1e-8 * abs(q)

        def at(key):
            return eval_scalar_map(getattr(spec.constraint, key), grid, timegrid,
                                   point.state.values, u)

        zv, vv = z.values, v.values
        g_terms = e * (at("dyy") * zv**2 + 2.0 * at("dyu") * zv * vv + at("duu") * vv**2)
        assert abs(float(np.sum(w * g_terms))) >= share * abs(q)


class TestSmallestEigenvalue:
    def test_tracking_floor_is_the_control_weight(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        value, location = legendre_min(spec, point)
        assert value == pytest.approx(0.1, abs=1e-12)
        level, node = location
        assert 0 <= level < point.control.values.shape[0]
        assert 0 <= node < point.control.values.shape[1]

    def test_feasible_problem_floor(self, feasible_bundle):
        spec, point, _, _ = feasible_bundle
        value, _ = legendre_min(spec, point)
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_the_floor_is_the_least_density_and_where_it_sits(self):
        # example31_poly has L_uu = 0.1 and g_uu = 6 y^4 u, so with e > 0 the
        # density L_uu + e g_uu varies over the cylinder.
        spec = builtin_problem("example31_poly")
        grid = SpatialGrid(extents=spec.extents, nodes=(9,))
        timegrid = TimeGrid(n_levels=5, horizon=spec.horizon)
        rng = np.random.default_rng(0)
        y, u, e = (SpaceTimeField(rng.uniform(lo, 1.0, (5, 7)), grid, timegrid)
                   for lo in (-1.0, 0.0, 0.0))
        point = KKTPoint(y, u, SpaceTimeField.zeros(grid, timegrid), e, 0.0)
        dens = 0.1 + 6.0 * e.values * y.values**4 * u.values
        assert dens.max() > 2.0 * dens.min()
        value, location = legendre_min(spec, point)
        assert value == pytest.approx(dens.min(), rel=1e-12)
        assert location == np.unravel_index(np.argmin(dens), dens.shape)


class TestGrowthProbe:
    def test_every_trial_sees_quadratic_growth(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        probe = quadratic_growth_probe(spec, point, n_trials=50, radius=0.01, seed=0)
        assert len(probe.rows) == 50
        assert probe.n_feasible == 50
        ratios = [row[1] for row in probe.rows]
        assert min(ratios) >= 0.0
        assert probe.kappa_hat >= 0.04

    def test_probe_is_deterministic(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        a = quadratic_growth_probe(spec, point, n_trials=8, radius=0.01, seed=3)
        b = quadratic_growth_probe(spec, point, n_trials=8, radius=0.01, seed=3)
        assert a.kappa_hat == b.kappa_hat
        assert a.rows == b.rows

    def test_radius_controls_perturbation_size(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        small = quadratic_growth_probe(spec, point, n_trials=5, radius=1e-3, seed=0)
        large = quadratic_growth_probe(spec, point, n_trials=5, radius=1e-2, seed=0)
        assert max(r[2] for r in small.rows) < max(r[2] for r in large.rows)

    @pytest.mark.parametrize("name, nodes, levels", [
        ("tracking_box_1d", (33,), 65), ("example31_poly", (33,), 33),
    ])
    def test_batches_match_one_trial_at_a_time(self, name, nodes, levels):
        """17 trials cross a batch boundary on both grids (8 and 16 per batch)."""
        spec, point, _, _ = solve_builtin(name, nodes, levels, 1e-10)
        probe = quadratic_growth_probe(spec, point, n_trials=17, seed=4)
        rows, kappa, n_feasible = one_trial_at_a_time(spec, point, 17, seed=4)
        assert probe.rows == rows
        assert (probe.kappa_hat, probe.n_feasible) == (kappa, n_feasible)

    def test_batches_match_one_trial_at_a_time_in_2d(self):
        spec, point, _, _ = solve_builtin("tracking_box_2d", (9, 9), 9, 1e-10)
        probe = quadratic_growth_probe(spec, point, n_trials=17, seed=4)
        rows, kappa, n_feasible = one_trial_at_a_time(spec, point, 17, seed=4)
        assert [(r[0], r[3]) for r in probe.rows] == [(r[0], r[3]) for r in rows]
        np.testing.assert_allclose([r[1:3] for r in probe.rows], [r[1:3] for r in rows],
                                   rtol=0, atol=1e-12)
        assert probe.n_feasible == n_feasible
        assert abs(probe.kappa_hat - kappa) <= 1e-12

    @pytest.mark.parametrize("text", [SLOPED_TEXT, CUBIC_TEXT], ids=["sloped", "cubic"])
    def test_mixed_batches_match_one_trial_at_a_time(self, text, monkeypatch):
        """Every trial is projected and marched again: stacks of 50, then 50."""
        from parakkt import optimizer

        spec, point, _, _ = solve_spec(loads(text), (33,), 65, 1e-10)
        marches, march = [], optimizer._march_states

        def recorded(spec, grid, timegrid, u, solver):
            marches.append(u.shape[1])
            return march(spec, grid, timegrid, u, solver)

        monkeypatch.setattr(optimizer, "_march_states", recorded)
        probe = quadratic_growth_probe(spec, point, n_trials=50, seed=4)
        assert marches == [50, 50]
        monkeypatch.undo()
        rows, kappa, n_feasible = one_trial_at_a_time(spec, point, 50, seed=4)
        assert probe.rows == rows
        assert (probe.kappa_hat, probe.n_feasible) == (kappa, n_feasible)

    @pytest.mark.parametrize("nodes, trials, batches, chunk", [
        (33, 50, [50], 4 * 65 * 31),          # 2**17 // (65 * 31) = 65; 2**13 // (65 * 31) = 4
        (129, 16, [15, 1], 65 * 127),         # 2**17 // (65 * 127) = 15; a row is 8,255 nodes
    ])
    def test_batches_and_roots_hold_at_most_their_node_budgets(self, nodes, trials,
                                                               batches, chunk, monkeypatch):
        from parakkt import kkt

        spec, point, _, _ = solve_spec(loads(CUBIC_TEXT), (nodes,), 65, 1e-8)
        sizes, roots, root = [], [], kkt._boundary

        def restored(spec, grid, timegrid, u, solver):
            sizes.append(u.shape[1])
            return _restored_trial(spec, grid, timegrid, u, solver)

        def rooted(spec, env, y):
            roots.append(y.size)
            return root(spec, env, y)

        monkeypatch.setattr(soc, "_restored_trial", restored)
        monkeypatch.setattr(kkt, "_boundary", rooted)
        quadratic_growth_probe(spec, point, n_trials=trials)
        assert sizes == batches
        assert max(roots) == chunk

    @pytest.mark.parametrize("nodes", [33, 129])
    def test_a_box_boundary_is_rooted_once_per_probe(self, nodes, monkeypatch):
        """u <= 0.4 reads no state: the probe's scope roots it once for every
        trial and pass, where chunks of trials took 26 roots at 33 x 65 and
        100 at 129 x 65; the scope holds nothing once the probe returns."""
        from parakkt import kkt, parabolic

        spec, point, _, _ = solve_builtin("tracking_box_1d", (nodes,), 65, 1e-8)
        roots, root = [], kkt._boundary

        def rooted(spec, env, y):
            roots.append(y.shape)
            return root(spec, env, y)

        monkeypatch.setattr(kkt, "_boundary", rooted)
        probe = quadratic_growth_probe(spec, point, n_trials=50)
        assert roots == [(65, nodes - 2)]
        assert probe.n_feasible == 50
        assert getattr(parabolic._local, "held", None) is None

    def test_fifty_trials_peak_below_the_batches_of_eight(self, cubic_bundle):
        """Batches of 8 (2**14 nodes) peaked at 3.22 MB traced (x86-64, numpy 2.4.6)."""
        spec, point, _, _ = cubic_bundle
        assert traced_peak(quadratic_growth_probe, spec, point, n_trials=50) <= 3.1e6

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_trials": 0}, "at least one trial"),
        ({"n_trials": -2}, "at least one trial"),
        ({"radius": 0.0}, "finite and positive"),
        ({"radius": -1e-2}, "finite and positive"),
        ({"radius": float("inf")}, "finite and positive"),
        ({"radius": float("nan")}, "finite and positive"),
    ])
    def test_bad_trial_count_or_radius_is_a_config_error(self, tracking_bundle,
                                                         kwargs, match):
        spec, point, _, _ = tracking_bundle
        with pytest.raises(ConfigError, match=match):
            quadratic_growth_probe(spec, point, **kwargs)
