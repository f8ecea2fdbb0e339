"""Stacked sparse NLP used as an independent cross-check."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parakkt
from parakkt import (
    OptimizerOptions,
    SpatialGrid,
    TimeGrid,
    compare_multipliers,
    discretize_to_nlp,
    pack_point,
    solve_nlp_active_set,
    solve_ocp,
    unpack_solution,
)
from parakkt import oracle
from parakkt.exceptions import ConfigError, OracleError
from parakkt.grids import SpaceTimeField, assemble_operator
from parakkt.kkt import KKTPoint
from parakkt.oracle import STATIONARITY_TOL, NLPInstance, NLPSolution
from parakkt.parabolic import sample_initial_state

from conftest import CUBIC_TEXT, tracking_with_constraint


@pytest.fixture(scope="module")
def small_tracking():
    spec = parakkt.builtin_problem("tracking_box_1d")
    grid = SpatialGrid(extents=spec.extents, nodes=(5,))
    timegrid = TimeGrid(n_levels=5, horizon=spec.horizon)
    instance = discretize_to_nlp(spec, grid, timegrid)
    point, trace, _ = solve_ocp(spec, grid, timegrid, OptimizerOptions(tol_kkt=1e-11))
    assert trace.converged
    sol = solve_nlp_active_set(instance)
    return spec, grid, timegrid, instance, point, sol


class TestInstance:
    def test_dimensions_and_meta(self, small_tracking):
        _, grid, timegrid, instance, _, _ = small_tracking
        n_steps = timegrid.n_levels - 1
        assert instance.n_vars == 2 * grid.n_interior * n_steps
        assert instance.meta["n_interior"] == grid.n_interior
        assert instance.meta["n_steps"] == n_steps
        assert instance.meta["omega"] == pytest.approx(
            timegrid.tau * grid.spacing[0], rel=1e-15
        )

    def test_size_guard(self):
        spec = parakkt.builtin_problem("tracking_box_1d")
        grid = SpatialGrid(extents=spec.extents, nodes=(33,))
        timegrid = TimeGrid(n_levels=65, horizon=spec.horizon)
        with pytest.raises(OracleError, match="above the 2000 guard"):
            discretize_to_nlp(spec, grid, timegrid)

    def test_objective_matches_solver_objective(self, small_tracking):
        _, _, _, instance, point, _ = small_tracking
        z = pack_point(instance, point)
        assert instance.objective(z) == pytest.approx(point.objective, rel=1e-12)


class TestActiveSetSolve:
    def test_converges_to_certified_tolerances(self, small_tracking):
        _, _, _, _, _, sol = small_tracking
        assert sol.stationarity_inf <= STATIONARITY_TOL
        assert sol.feas_eq_inf <= 1e-9
        assert sol.feas_ineq <= 1e-9
        assert sol.complementarity <= 1e-10
        assert np.all(sol.mu >= 0.0)

    def test_solution_matches_solver_point(self, small_tracking):
        _, _, _, instance, point, sol = small_tracking
        y, u, phi, e = unpack_solution(instance, sol)
        assert y.shape == u.shape == (4, 3)
        np.testing.assert_allclose(y, point.state.values[1:], atol=1e-7)
        np.testing.assert_allclose(u, point.control.values[1:], atol=1e-7)

    def test_warm_start_from_solver_point(self, small_tracking):
        _, _, _, instance, point, cold = small_tracking
        warm = solve_nlp_active_set(instance, z0=pack_point(instance, point))
        assert warm.n_set_changes <= cold.n_set_changes
        assert warm.objective == pytest.approx(cold.objective, rel=1e-10)

    def test_deterministic(self, small_tracking):
        _, _, _, instance, _, _ = small_tracking
        a = solve_nlp_active_set(instance)
        b = solve_nlp_active_set(instance)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.working_set, b.working_set)

    def test_inactive_problem_has_empty_working_set(self):
        spec = parakkt.builtin_problem("strictly_feasible_1d")
        grid = SpatialGrid(extents=spec.extents, nodes=(5,))
        timegrid = TimeGrid(n_levels=5, horizon=spec.horizon)
        sol = solve_nlp_active_set(discretize_to_nlp(spec, grid, timegrid))
        assert len(sol.working_set) == 0
        assert np.all(sol.mu == 0.0)


def _gaps_to_the_solver(spec, nodes, levels, **options):
    """Oracle solution and its gaps to ``solve_ocp`` on one grid."""
    grid = SpatialGrid(extents=spec.extents, nodes=nodes)
    timegrid = TimeGrid(n_levels=levels, horizon=spec.horizon)
    point, trace, _ = solve_ocp(spec, grid, timegrid, OptimizerOptions(**options))
    instance = discretize_to_nlp(spec, grid, timegrid)
    sol = solve_nlp_active_set(instance)
    return trace, sol, compare_multipliers(instance, sol, point)


class TestExchanges:
    """Each exchange adds every violated row at once or drops one row."""

    @staticmethod
    def _two_rows():
        """min 1/2 |z - (2, 2)|^2 s.t. z1 + z2 <= 2, z1 <= 1.5, no equalities."""
        return NLPInstance(
            n_vars=2,
            objective=lambda z: 0.5 * float((z - 2.0) @ (z - 2.0)),
            gradient=lambda z: z - 2.0,
            hessian=lambda z, lam, mu: sp.identity(2, format="csr"),
            eq=lambda z: np.zeros(0),
            eq_jac=lambda z: sp.csr_matrix((0, 2)),
            ineq=lambda z: np.array([z[0] + z[1] - 2.0, z[0] - 1.5]),
            ineq_jac=lambda z: sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]])),
        )

    def test_both_violated_rows_enter_and_the_negative_one_leaves(self):
        """From z = (2, 2) both rows enter; on both, mu = (1.5, -1), so the
        second leaves, and z = (1, 1) with mu = (1, 0) ends it."""
        sol = solve_nlp_active_set(self._two_rows())
        np.testing.assert_allclose(sol.z, [1.0, 1.0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(sol.mu, [1.0, 0.0], rtol=0, atol=1e-14)
        assert sol.working_set.tolist() == [0]
        assert sol.n_set_changes == 2

    def test_the_exchange_cap_raises(self, small_tracking, monkeypatch):
        instance = small_tracking[3]
        monkeypatch.setattr(oracle, "MAX_SET_CHANGES", 0)
        with pytest.raises(OracleError, match="exceeded 0 working-set exchanges"):
            solve_nlp_active_set(instance)

    def test_the_newton_cap_raises(self, small_tracking, monkeypatch):
        instance = small_tracking[3]
        monkeypatch.setattr(oracle, "MAX_NEWTON", 1)
        with pytest.raises(OracleError, match="did not reach tolerance in 1 iterations"):
            solve_nlp_active_set(instance)

    @pytest.mark.parametrize("text", [None, CUBIC_TEXT], ids=["box", "cubic"])
    def test_a_17x17_instance_takes_few_exchanges(self, text):
        spec = parakkt.builtin_problem("tracking_box_1d") if text is None else parakkt.loads(text)
        trace, sol, cmp = _gaps_to_the_solver(spec, (17,), 17, tol_kkt=1e-11)
        assert trace.converged
        assert sol.working_set.size > 100
        assert sol.n_set_changes <= 3
        assert cmp.adjoint_inf <= 1e-9
        assert cmp.multiplier_inf <= 1e-9

    @settings(max_examples=25)
    @given(c=st.floats(0.0, 1.0), b=st.floats(0.1, 0.8), k=st.integers(1, 3),
           nx=st.integers(5, 9), levels=st.integers(5, 9))
    def test_the_mixed_family_matches_the_solver(self, c, b, k, nx, levels):
        """C4 on g = u + c y^k - b.  Solves that stop unconverged, as the
        merit line search still does on some of this family, are left out;
        the outer cap keeps them cheap."""
        spec = parakkt.loads(tracking_with_constraint(f"u + {c!r}*y^{k} - {b!r}"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace, sol, cmp = _gaps_to_the_solver(spec, (nx,), levels, tol_kkt=1e-10,
                                                  max_outer=30)
        assume(trace.converged)
        assert cmp.adjoint_inf <= 1e-8
        assert cmp.multiplier_inf <= 1e-8


class TestRefusals:
    """Bad arguments are a ConfigError before any evaluation."""

    @staticmethod
    def _untouchable(instance):
        def boom(*args):
            raise AssertionError("the instance was evaluated")
        return dataclasses.replace(instance, eq=boom, ineq=boom, gradient=boom)

    @pytest.mark.parametrize("kwargs, match", [
        ({"z0": np.zeros(23)}, r"24 finite values: shape \(23,\)"),
        ({"z0": np.zeros((4, 6))}, r"shape \(4, 6\)"),
        ({"z0": np.full(24, np.nan)}, "24 not finite"),
        ({"z0": np.r_[np.zeros(23), np.inf]}, "1 not finite"),
    ])
    def test_solve_refuses(self, small_tracking, kwargs, match):
        instance = self._untouchable(small_tracking[3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=match):
                solve_nlp_active_set(instance, **kwargs)

    @pytest.mark.parametrize("nodes, levels, horizon", [(7, 5, 1), (5, 6, 1), (5, 5, 2)])
    def test_compare_refuses_a_point_on_other_grids(self, small_tracking, nodes, levels,
                                                    horizon):
        spec, _, _, instance, _, sol = small_tracking
        grid = SpatialGrid(extents=spec.extents, nodes=(nodes,))
        timegrid = TimeGrid(n_levels=levels, horizon=horizon * spec.horizon)
        zero = SpaceTimeField.zeros(grid, timegrid)
        point = KKTPoint(zero, zero, zero, zero, 0.0)
        with pytest.raises(ConfigError, match="the instance is on"):
            compare_multipliers(instance, sol, point)


class TestMultiplierCorrespondence:
    def test_scaled_multipliers_agree(self, small_tracking):
        spec, _, _, instance, point, sol = small_tracking
        cmp = compare_multipliers(instance, sol, point)
        assert cmp.adjoint_inf <= 1e-6
        assert cmp.multiplier_inf <= 1e-6
        assert abs(cmp.objective_gap) <= 1e-9

    def test_raw_multipliers_differ_by_the_cell_volume(self, small_tracking):
        """Without the volume rescale the two conventions must not agree."""
        spec, _, _, instance, point, sol = small_tracking
        raw = sol.lam.reshape(instance.meta["n_steps"], instance.meta["n_interior"])
        assert float(np.max(np.abs(point.adjoint.values[1:] - raw))) > 1e-2

    def test_l2_distances_carry_the_cell_volume(self, small_tracking):
        """A gap of 0.01 on every node of levels 1..4 of the 5x5 grid:
        sqrt(h tau * 4 * 3) * 0.01 with h = tau = 1/4."""
        spec, grid, timegrid, instance, point, sol = small_tracking
        _, _, phi_or, e_or = unpack_solution(instance, sol)
        phi, e = point.adjoint.copy(), point.multiplier.copy()
        phi.values[1:] = phi_or + 0.01
        e.values[1:] = e_or - 0.01
        shifted = KKTPoint(point.state, point.control, phi, e, point.objective)
        cmp = compare_multipliers(instance, sol, shifted)
        assert cmp.adjoint_l2 == pytest.approx(0.01 * np.sqrt(0.75), rel=1e-12)
        assert cmp.multiplier_l2 == pytest.approx(0.01 * np.sqrt(0.75), rel=1e-12)
        assert cmp.adjoint_inf == pytest.approx(0.01, rel=1e-12)

    def test_l2_distances_are_also_small(self, small_tracking):
        spec, _, _, instance, point, sol = small_tracking
        cmp = compare_multipliers(instance, sol, point)
        assert cmp.adjoint_l2 <= 1e-6
        assert cmp.multiplier_l2 <= 1e-6


def _reference_instance(spec, grid, timegrid):
    """The instance next to one whose stepping residual loops over levels and
    whose matrices are built from scratch by scipy's constructors on every
    call: the reference for the built-once assembly."""
    new = discretize_to_nlp(spec, grid, timegrid)
    n = grid.n_interior
    big_k = timegrid.n_levels - 1
    tau = timegrid.tau
    omega = new.meta["omega"]
    A = assemble_operator(spec, grid)
    y0 = sample_initial_state(spec, grid)
    env = oracle._level_env(spec, grid, timegrid.times[1:])
    shape = (big_k, n)
    nl, cost, con = spec.nonlinearity, spec.cost, spec.constraint
    bcast = oracle._bcast

    def split(z):
        return z[: big_k * n].reshape(shape), z[big_k * n:].reshape(shape)

    def eq(z):
        y, u = split(z)
        out = np.empty(shape)
        prev = y0
        for j in range(big_k):
            out[j] = (y[j] - prev) / tau + A @ y[j] \
                + np.asarray(nl.f(y=y[j]), dtype=float) - u[j]
            prev = y[j]
        return out.ravel()

    def eq_jac(z):
        y, _ = split(z)
        blocks_y = []
        for j in range(big_k):
            fp = bcast(nl.df(y=y[j]), (n,))
            row = [None] * big_k
            row[j] = sp.identity(n) / tau + A + sp.diags(fp)
            if j > 0:
                row[j - 1] = -sp.identity(n) / tau
            blocks_y.append(row)
        jy = sp.bmat(blocks_y, format="csr")
        ju = -sp.identity(big_k * n, format="csr")
        return sp.hstack([jy, ju], format="csr")

    def ineq_jac(z):
        y, u = split(z)
        gy = bcast(con.dy(y=y, u=u, **env), shape).ravel()
        gu = bcast(con.du(y=y, u=u, **env), shape).ravel()
        return sp.hstack([sp.diags(gy), sp.diags(gu)], format="csr")

    def hessian(z, lam, mu):
        y, u = split(z)
        lam2 = lam.reshape(shape)
        mu2 = mu.reshape(shape)
        l_yy = bcast(cost.dyy(y=y, u=u, **env), shape)
        l_yu = bcast(cost.dyu(y=y, u=u, **env), shape)
        l_uu = bcast(cost.duu(y=y, u=u, **env), shape)
        g_yy = bcast(con.dyy(y=y, u=u, **env), shape)
        g_yu = bcast(con.dyu(y=y, u=u, **env), shape)
        g_uu = bcast(con.duu(y=y, u=u, **env), shape)
        fpp = np.empty(shape)
        for j in range(big_k):
            fpp[j] = bcast(nl.ddf(y=y[j]), (n,))
        d_yy = (omega * l_yy + lam2 * fpp + mu2 * g_yy).ravel()
        d_yu = (omega * l_yu + mu2 * g_yu).ravel()
        d_uu = (omega * l_uu + mu2 * g_uu).ravel()
        return sp.bmat(
            [[sp.diags(d_yy), sp.diags(d_yu)],
             [sp.diags(d_yu), sp.diags(d_uu)]],
            format="csr",
        )

    ref = dataclasses.replace(new, eq=eq, eq_jac=eq_jac, ineq_jac=ineq_jac,
                              hessian=hessian)
    return new, ref


def _instances(name, nodes, levels):
    spec = parakkt.builtin_problem(name)
    grid = SpatialGrid(extents=spec.extents, nodes=nodes)
    timegrid = TimeGrid(n_levels=levels, horizon=spec.horizon)
    return _reference_instance(spec, grid, timegrid)


def _assert_same_csr(a, b):
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


ASSEMBLY_CASES = [
    ("tracking_box_1d", (5,), 5),
    ("example31_poly", (7,), 6),
    ("tracking_box_2d", (5, 5), 5),
]


class TestBuiltOnceAssembly:
    @pytest.mark.parametrize("name, nodes, levels", ASSEMBLY_CASES)
    def test_matrices_equal_the_scipy_constructors(self, name, nodes, levels):
        new, ref = _instances(name, nodes, levels)
        m = new.n_vars // 2
        rng = np.random.default_rng(3)
        for draw in range(40):
            z = rng.standard_normal(new.n_vars)
            lam = rng.standard_normal(m)
            mu = np.abs(rng.standard_normal(m))
            if draw % 2:        # exact zeros, so that sp.diags drops entries
                z[::3] = 0.0
                mu[::2] = 0.0
            np.testing.assert_array_equal(new.eq(z), ref.eq(z))
            _assert_same_csr(new.eq_jac(z), ref.eq_jac(z))
            _assert_same_csr(new.ineq_jac(z), ref.ineq_jac(z))
            _assert_same_csr(new.hessian(z, lam, mu), ref.hessian(z, lam, mu))
        gy_block = new.ineq_jac(z)[:, :m]
        if name == "example31_poly":
            assert gy_block.nnz > 0
            assert new.ineq_jac(z).nnz < 2 * m       # the zeros of the last z
            assert new.hessian(z, lam, mu).nnz < 4 * m
        else:
            assert gy_block.nnz == 0

    @pytest.mark.parametrize("name, nodes, levels", ASSEMBLY_CASES)
    def test_the_working_set_kkt_matrix_is_the_bmat_one(self, name, nodes, levels):
        """Entry for entry, explicit zeros and pattern included, while the
        blocks' patterns change under exact zeros in z and mu."""
        new, _ = _instances(name, nodes, levels)
        m = new.n_vars // 2
        rng = np.random.default_rng(9)
        for working in (np.zeros(0, dtype=int), np.array([m - 1, 0, m // 2])):
            kkt = oracle._WorkingSetKKT(working)
            for draw in range(12):
                z = rng.standard_normal(new.n_vars)
                lam, mu = rng.standard_normal(m), np.abs(rng.standard_normal(m))
                if draw % 3 == 1:
                    z[::3] = 0.0
                    mu[::2] = 0.0
                h, jf, jg = new.hessian(z, lam, mu), new.eq_jac(z), new.ineq_jac(z)
                jall = sp.vstack([jf, jg[working]], format="csr")
                expected = sp.bmat([[h, jall.T], [jall, None]], format="csc")
                _assert_same_csr(kkt(h, jf, jg), expected)
        no_rows = sp.csr_matrix((0, new.n_vars))
        _assert_same_csr(oracle._WorkingSetKKT(np.zeros(0, dtype=int))(h, no_rows, jg),
                         sp.csc_matrix(h))

    def test_eq_jac_returns_fresh_arrays(self):
        new, _ = _instances("example31_poly", (7,), 6)
        rng = np.random.default_rng(5)
        z1, z2 = rng.standard_normal((2, new.n_vars))
        first = new.eq_jac(z1)
        assert (new.eq_jac(z2) != first).nnz > 0
        again = new.eq_jac(z1)
        _assert_same_csr(again, first)
        again.data[:] = np.nan
        again.indices[:] = 0
        again.indptr[:] = 0
        _assert_same_csr(new.eq_jac(z1), first)

    def test_solution_is_bitwise_the_reference_solution(self):
        new, ref = _instances("tracking_box_1d", (5,), 5)
        a, b = solve_nlp_active_set(new), solve_nlp_active_set(ref)
        for f in dataclasses.fields(NLPSolution):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
        assert a.n_set_changes == 1


class TestChecks:
    def test_complementarity_is_the_largest_product(self):
        new, _ = _instances("example31_poly", (7,), 6)
        sol = solve_nlp_active_set(new)
        products = sol.mu * new.ineq(sol.z)
        assert np.count_nonzero(products) > 1
        assert sol.complementarity == float(np.max(np.abs(products)))

    def test_complementarity_terms_cannot_cancel(self):
        mu = np.array([1.0, 1.0])
        comp = oracle._complementarity(mu, np.array([1e-6, -1e-6]))
        assert comp == 1e-6
        sol = NLPSolution(z=np.zeros(2), lam=np.zeros(0), mu=mu, objective=0.0,
                          working_set=np.arange(2), n_set_changes=2,
                          stationarity_inf=0.0, feas_eq_inf=0.0, feas_ineq=0.0,
                          complementarity=comp)
        with pytest.raises(OracleError, match="complementarity"):
            sol.validate()

    @staticmethod
    def _toy(jac_error):
        def eq_jac(z):
            jac = np.array([[2.0 * z[0], 1.0, -1.0], [0.0, np.cos(z[1]), 0.0]])
            jac[1, 2] += jac_error
            return sp.csr_matrix(jac)

        return NLPInstance(
            n_vars=3,
            objective=lambda z: 0.5 * float(z @ z),
            gradient=lambda z: z.copy(),
            hessian=lambda z, lam, mu: sp.identity(3, format="csr"),
            eq=lambda z: np.array([z[0] ** 2 + z[1] - z[2], np.sin(z[1])]),
            eq_jac=eq_jac,
            ineq=lambda z: z[:1] - 1.0,
            ineq_jac=lambda z: sp.csr_matrix(np.array([[1.0, 0.0, 0.0]])),
        )

    def test_self_check_passes_an_exact_toy(self):
        oracle._self_check(self._toy(0.0))

    def test_self_check_catches_a_wrong_jacobian_entry(self):
        with pytest.raises(OracleError, match="equality Jacobian self-check"):
            oracle._self_check(self._toy(1e-3))

    def test_self_check_covers_the_built_once_jacobian(self, small_tracking):
        _, _, _, instance, _, _ = small_tracking
        shape = (instance.n_vars // 2, instance.n_vars)
        bump = sp.csr_matrix(([1e-3], ([2], [5])), shape=shape)
        wrong = dataclasses.replace(instance,
                                    eq_jac=lambda z: instance.eq_jac(z) + bump)
        with pytest.raises(OracleError, match="equality Jacobian self-check"):
            oracle._self_check(wrong)
