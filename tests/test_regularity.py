"""Pathwise smoothness estimation on space-time fields."""

import numpy as np
import pytest

import parakkt
from parakkt import (
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    active_boundary_jump,
    estimate_holder,
    multiplier_continuity_report,
)
from parakkt.exceptions import ConfigError
from parakkt.regularity import MIN_PAIRS, N_BINS


def model_field(fn, nodes=257, n_levels=9):
    g = SpatialGrid(extents=(1.0,), nodes=(nodes,))
    tg = TimeGrid(n_levels=n_levels, horizon=1.0)
    return SpaceTimeField.from_function(g, tg, lambda x1, t: fn(x1))


class TestModelExponents:
    def test_linear_profile_reads_as_lipschitz(self):
        fit = estimate_holder(model_field(lambda x: x), n_pairs=20000, seed=0)
        assert 0.9 <= fit.alpha_hat <= 1.0
        assert not fit.constant_field

    def test_square_root_profile_reads_as_half(self):
        fit = estimate_holder(model_field(np.sqrt), n_pairs=20000, seed=0)
        assert 0.40 <= fit.alpha_hat <= 0.65

    @pytest.mark.parametrize("fn, low, high", [
        (lambda x: x, 0.9, 1.0), (np.sqrt, 0.40, 0.65),
    ], ids=["linear", "square-root"])
    def test_a_two_dimensional_profile_reads_the_same_along_either_axis(self, fn, low,
                                                                         high):
        """The two-dimensional snap of the pair targets: on a 65x65x9 grid
        v = x1 and v = x2 read 0.944, sqrt(x1) 0.572 and sqrt(x2) 0.571."""
        g = SpatialGrid(extents=(1.0, 1.0), nodes=(65, 65))
        tg = TimeGrid(n_levels=9, horizon=1.0)
        alphas = [estimate_holder(SpaceTimeField.from_function(g, tg, lambda **env: fn(env[x])),
                                  n_pairs=20000, seed=0).alpha_hat
                  for x in ("x1", "x2")]
        assert all(low <= a <= high for a in alphas)
        assert abs(alphas[0] - alphas[1]) <= 0.01

    @pytest.mark.parametrize("nodes", [(33, 9), (9, 33)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_targets_snap_to_the_nearest_node_on_a_non_square_grid(self, nodes, seed):
        """Pair distances are drawn log-uniform on [d_min, d_max], and clamping
        to the box only shortens them, so the median sampled distance stays
        below sqrt(d_min d_max) (0.433 here): 0.337 when each target snaps to
        its nearest node, 0.53-0.55 when the two axes are read swapped."""
        g = SpatialGrid(extents=(1.0, 1.0), nodes=nodes)
        tg = TimeGrid(n_levels=9, horizon=1.0)
        fit = estimate_holder(SpaceTimeField.from_function(g, tg, lambda x2, **_: x2),
                              n_pairs=4096, seed=seed)
        d_max = np.sqrt(3.0)            # the diameter of the unit cylinder
        d_min = d_max / 16.0            # below six cells of 1/32
        assert np.median(fit.distances) <= np.sqrt(d_min * d_max)

    def test_curved_smooth_profile_stays_in_range(self):
        """x^2 flattens at wide separations, so it reads below the linear
        profile but still lands well inside (0, 1]."""
        fit = estimate_holder(model_field(lambda x: x**2), n_pairs=20000, seed=0)
        assert 0.7 <= fit.alpha_hat <= 1.0

    def test_white_noise_stays_in_range(self):
        g = SpatialGrid(extents=(1.0,), nodes=(65,))
        tg = TimeGrid(9, 1.0)
        rng = np.random.default_rng(5)
        f = SpaceTimeField(rng.normal(size=(9, 63)), g, tg)
        fit = estimate_holder(f, n_pairs=5000, seed=0)
        assert 0.0 < fit.alpha_hat <= 1.0


class TestFitContract:
    def test_fit_fields_are_populated(self):
        fit = estimate_holder(model_field(lambda x: x), n_pairs=2000, seed=0)
        assert 0 < fit.n_pairs <= 2000
        assert len(fit.bins) == N_BINS
        assert len(fit.distances) == fit.n_pairs
        assert len(fit.increments) == fit.n_pairs
        assert fit.h_hat > 0.0
        assert fit.fit_residual >= 0.0

    def test_bound_actually_bounds_the_samples(self):
        fit = estimate_holder(model_field(lambda x: x), n_pairs=2000, seed=0)
        d = np.asarray(fit.distances)
        inc = np.asarray(fit.increments)
        assert np.all(inc <= fit.h_hat * d**fit.alpha_hat + 1e-12)

    def test_deterministic_under_seed(self):
        a = estimate_holder(model_field(np.sqrt), n_pairs=2000, seed=7)
        b = estimate_holder(model_field(np.sqrt), n_pairs=2000, seed=7)
        assert a.alpha_hat == b.alpha_hat
        assert a.h_hat == b.h_hat

    def test_constant_field_short_circuits(self):
        g = SpatialGrid(extents=(1.0,), nodes=(257,))
        tg = TimeGrid(9, 1.0)
        f = SpaceTimeField(np.full((9, 255), 3.5), g, tg)
        fit = estimate_holder(f, n_pairs=2000, seed=0)
        assert fit.constant_field
        assert fit.alpha_hat == 1.0
        assert fit.h_hat == 0.0
        assert fit.n_pairs == 0

    def test_single_spike_cannot_be_fit(self):
        g = SpatialGrid(extents=(1.0,), nodes=(257,))
        tg = TimeGrid(9, 1.0)
        vals = np.full((9, 255), 1.0)
        vals[4, 100] = 1.0 + 1e-9
        f = SpaceTimeField(vals, g, tg)
        with pytest.raises(ConfigError, match="not enough populated distance bins"):
            estimate_holder(f, n_pairs=2000, seed=0)

    def test_pair_budget_floor(self):
        with pytest.raises(ConfigError, match=f"at least {MIN_PAIRS} pairs"):
            estimate_holder(model_field(lambda x: x), n_pairs=10)


class TestSolutionReport:
    def test_report_covers_all_solution_fields(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        rep = multiplier_continuity_report(spec, point, n_pairs=4096, seed=0)
        assert set(rep.fits.keys()) == {
            "state",
            "control",
            "adjoint",
            "multiplier",
            "weighted_multiplier",
        }
        for name, fit in rep.fits.items():
            assert 0.0 < fit.alpha_hat <= 1.0, name
        assert rep.e_jump >= 0.0

    def test_jump_matches_direct_evaluation(self, tracking_bundle):
        spec, point, _, _ = tracking_bundle
        rep = multiplier_continuity_report(spec, point, n_pairs=4096, seed=0)
        assert rep.e_jump == active_boundary_jump(spec, point)
