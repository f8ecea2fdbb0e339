"""Forward state solves, linearized solves, and failure modes."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

import parakkt
from parakkt import (
    OptimizerOptions,
    SolverOptions,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    loads,
    solve_adjoint,
    solve_linear_parabolic,
    solve_state,
)
from parakkt.exceptions import ConfigError, SolveError
from parakkt.grids import assemble_operator
from parakkt.parabolic import (_march_states, _StepSolver, forward_residual,
                               sample_initial_state, step_scope)
from parakkt.problem import eval_broadcast


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


def operator(spec, nodes):
    return assemble_operator(spec, SpatialGrid(extents=spec.extents, nodes=nodes))


def step_matrix(A, tau):
    """I/tau + A, built as the step solver builds it."""
    return (sp.identity(A.shape[0], format="csr") / tau + A).tocsr()


def unit_step_solver(matrix, linear_solver="auto", rows=1):
    """The step solver whose step matrix I/tau + A is the given small-integer
    matrix, at tau = 1."""
    a = np.asarray(matrix, dtype=float)
    return _StepSolver(sp.csr_matrix(a - np.eye(len(a))), 1.0, linear_solver, rows)


def non_symmetric_operator(rng):
    """The 2-D operator at 9 x 9 nodes with its upper triangle rescaled and
    entries added above the second diagonal: not symmetric in pattern or in
    values, and of bandwidth > 1."""
    A = operator(parakkt.builtin_problem("tracking_box_2d"), (9, 9))
    upper = sp.triu(A, k=1)
    upper.data *= rng.uniform(0.2, 1.0, upper.nnz)
    extra = sp.triu(sp.random(A.shape[0], A.shape[0], density=0.03, rng=rng), k=2)
    return (A + upper + 30.0 * extra).tocsr()


CROSS_DIFFUSION = "\n[a]\na11 = 1 + 0.5*x1\na12 = 0.3*x1*x2\na22 = 1 + x2^2\n"


def duality_spec(name, a_section=""):
    """The built-in ``name`` with f = y^3/3, L = u^2/2 and g = u + y - 0.4.

    Then f'(y) = y^2 and the adjoint source -(L_y + e g_y) is -e, so
    ``solve_adjoint`` at state y and multiplier -s sweeps the source s under
    the potential y^2.
    """
    maps = ("[f]\nexpr = y^3/3\nC_f = 0\n\n"
            "[L]\nexpr = 0.5*u^2\n\n"
            "[g]\nexpr = u + y - 0.4\n\n")
    text = parakkt.catalog.builtin_problem_text(name)
    start, end = text.index("[f]"), text.index("[constants]")
    return loads(text[:start] + maps + text[end:] + a_section)


def state_defect(spec, state, control):
    """Largest defect of the state equation at ``state`` (``forward_residual``),
    over the Newton tolerance scale 1 + max |y| + max |u|."""
    grid, y = state.grid, state.values
    defect = forward_residual(assemble_operator(spec, grid), state.timegrid.tau, y,
                              eval_broadcast(spec.nonlinearity.f, y.shape, y=y),
                              control.values, sample_initial_state(spec, grid))
    return defect / (1.0 + np.max(np.abs(y)) + np.max(np.abs(control.values)))


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
        u = manufactured_forcing(g, tg)
        y, rep = solve_state(mms_spec, u)
        assert state_defect(mms_spec, y, u) <= SolverOptions().newton_tol
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
        auto, dense = (solve_state(mms_spec, u, SolverOptions(linear_solver=ls))[0].values
                       for ls in ("auto", "dense"))
        np.testing.assert_allclose(dense, auto, atol=1e-12)

    def test_two_dimensional_solve(self):
        spec = parakkt.builtin_problem("tracking_box_2d")
        g = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        tg = TimeGrid(9, spec.horizon)
        u = SpaceTimeField(np.ones((9, g.n_interior)), g, tg)
        y, rep = solve_state(spec, u)
        assert np.all(np.isfinite(y.values))
        assert float(np.max(np.abs(y.values))) > 0.0


class TestStackedStateSolve:
    """A stack of controls marches as one (``_march_states``); each row is bit
    for bit what ``solve_state`` gives its control alone."""

    @staticmethod
    def controls(*levels):
        spec = parakkt.builtin_problem("tracking_box_1d")
        g = SpatialGrid(extents=spec.extents, nodes=(17,))
        tg = TimeGrid(33, spec.horizon)
        return spec, [SpaceTimeField(np.full((33, 15), c), g, tg) for c in levels]

    @staticmethod
    def march(spec, controls, options=SolverOptions()):
        """(states, worst Newton counts) of the stacked controls."""
        grid, timegrid = controls[0].grid, controls[0].timegrid
        u = np.stack([c.values for c in controls], axis=1)
        return _march_states(spec, grid, timegrid, u, options)

    @pytest.mark.parametrize("ls", ["auto", "dense"])
    def test_rows_with_different_newton_counts_match_single_solves(self, ls):
        spec, controls = self.controls(0.0, 1.0, 30.0, -30.0)
        options = SolverOptions(linear_solver=ls)
        states, max_newton = self.march(spec, controls, options)
        assert max_newton == [0, 2, 4, 4]
        for row, control in enumerate(controls):
            alone, rep_alone = solve_state(spec, control, options)
            assert rep_alone.max_newton_iterations == max_newton[row]
            assert states[:, row].tobytes() == alone.values.tobytes()
            assert state_defect(spec, alone, control) <= options.newton_tol

    def test_a_failing_row_raises_its_own_error(self):
        spec, (good, bad, other) = self.controls(1.0, 1e200, 30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError) as alone:
                solve_state(spec, bad)
            assert "non-finite residual at step 1" in str(alone.value)
            with pytest.raises(SolveError) as stacked:
                self.march(spec, [good, bad, other])
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("failing, max_iter, match", [
        pytest.param(1e200, 30, "non-finite", id="non-finite"),
        pytest.param(30.0, 1, "did not converge at step 1", id="iteration-cap"),
    ])
    def test_a_failing_row_fails_the_stack_in_either_place(self, failing, max_iter, match,
                                                           monkeypatch):
        monkeypatch.setattr(parakkt.parabolic, "NEWTON_MAX_ITER", max_iter)
        spec, (good, bad) = self.controls(0.0, failing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stack in ([good, bad], [bad, good]):
                with pytest.raises(SolveError, match=match):
                    self.march(spec, stack)


class TestLinearizedSolve:
    def test_matches_nonlinear_solve_for_zero_potential(self, mms_spec):
        """With the reaction frozen at zero state the linear path agrees."""
        g = SpatialGrid(extents=(1.0,), nodes=(17,))
        tg = TimeGrid(17, 1.0)
        rhs = SpaceTimeField.from_function(g, tg, lambda x1, t: np.sin(np.pi * x1))
        pot = SpaceTimeField.zeros(g, tg)
        lin = solve_linear_parabolic(mms_spec, pot, rhs)
        text = parakkt.catalog.builtin_problem_text("mms_cubic_1d").replace(
            "expr = y^3", "expr = 0"
        ).replace("expr = sin(pi*x1)", "expr = 0")
        linear_spec = loads(text)
        y, _ = solve_state(linear_spec, rhs)
        np.testing.assert_allclose(lin.values, y.values, atol=1e-12)

    def test_adjoint_operator_transposes_propagation(self):
        """The one-step maps of the forward sweep and of ``solve_adjoint``
        are transposes of each other."""
        spec = duality_spec("mms_cubic_1d")
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(2, 0.1)
        n = g.n_interior
        zero = SpaceTimeField.zeros(g, tg)
        fwd = np.empty((n, n))
        adj = np.empty((n, n))
        for j in range(n):
            e = np.zeros((2, n))
            e[1, j] = 1.0
            fwd[:, j] = solve_linear_parabolic(spec, zero, SpaceTimeField(e, g, tg)).values[1]
            adj[:, j] = solve_adjoint(
                spec, zero, zero, SpaceTimeField(-e, g, tg)
            ).values[1]
        np.testing.assert_allclose(adj, fwd.T, atol=1e-13)


    @pytest.mark.parametrize("a_section", ["", CROSS_DIFFUSION])
    def test_adjoint_sweep_transposes_the_forward_sweep_in_2d(self, a_section):
        """<S r, s> = <r, S* s> for the forward sweep S and the adjoint sweep
        S* of ``solve_adjoint``, with a potential that differs on every level."""
        spec = duality_spec("tracking_box_2d", a_section)
        g = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        tg = TimeGrid(9, spec.horizon)
        rng = np.random.default_rng(11)
        y = np.sqrt(rng.uniform(0.0, 3.0, (tg.n_levels, g.n_interior)))
        pot = spec.nonlinearity.df(y=y)
        r, s = rng.normal(size=(2, tg.n_levels, g.n_interior))

        def field(values):
            return SpaceTimeField(values, g, tg)

        z = solve_linear_parabolic(spec, field(pot), field(r)).values
        p = solve_adjoint(spec, field(y), SpaceTimeField.zeros(g, tg), field(-s)).values
        lhs, rhs = np.sum(z[1:] * s[1:]), np.sum(r[1:] * p[1:])
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(z[1:] * s[1:]))


class TestStepSolver:
    """The step matrix picks the backend, and each backend returns what the
    library call it replaces returns: bit for bit, and a refined ``splu`` solve
    to the accuracy of a fresh factorization."""

    @given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_banded_matches_solve_banded(self, n, seed):
        rng = np.random.default_rng(seed)
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.uniform(1.5, 3.0, n)
        tau = rng.uniform(0.25, 1.0)
        A = sp.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n), format="csr")
        d, b = rng.uniform(0.0, 3.0, n), rng.normal(size=n)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = upper, diag + 1 / tau + d, lower
        stepper = _StepSolver(A, tau)
        assert stepper.mode == "banded"
        x = stepper.solve(d, b, 1)
        assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))

    @given(rows=st.integers(1, 9), spare=st.integers(0, 3), n=st.integers(1, 130),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_banded_solve_matches_one_solve_per_row(self, rows, spare, n, seed):
        """One ``gtsv`` call on ``rows`` stacked systems, from a solver made for
        up to ``rows + spare``, returns each row's own solve bit for bit."""
        rng = np.random.default_rng(seed)
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = rng.uniform(0.5, 2.0, n)
        A = sp.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n), format="csr")
        d, b = rng.uniform(0.0, 3.0, rows * n), rng.normal(size=rows * n)
        stacked = _StepSolver(A, 0.5, rows=rows + spare).solve(d, b, 1)
        alone = _StepSolver(A, 0.5)
        expected = np.concatenate([alone.solve(d[i:i + n], b[i:i + n], 1)
                                   for i in range(0, rows * n, n)])
        assert stacked.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n, linear_solver, mode", [
        pytest.param(2, "auto", "banded", id="banded"),
        pytest.param(3, "auto", "splu", id="splu"),
        pytest.param(2, "dense", "dense", id="dense"),
        pytest.param(3, "dense", "dense", id="dense-wide"),
    ])
    def test_a_singular_row_of_a_stack_raises(self, n, linear_solver, mode):
        """The step matrix is all ones: tridiagonal at n = 2, bandwidth 2 at n = 3."""
        stepper = unit_step_solver(np.ones((n, n)), linear_solver, 3)
        assert stepper.mode == mode
        first = np.arange(1.0, n + 1)
        d = np.concatenate([np.ones(n), np.zeros(n), np.ones(n)])
        b = np.concatenate([first, np.eye(n)[0], first])    # the middle row has no solution
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="singular step matrix at step 6"):
                stepper.solve(d, b, 6)

    @pytest.mark.parametrize("a_section", ["", CROSS_DIFFUSION])
    def test_splu_matches_a_fresh_factorization(self, a_section):
        text = parakkt.catalog.builtin_problem_text("tracking_box_2d") + a_section
        A = operator(loads(text), (9, 9))
        matrix = step_matrix(A, 1.0 / 16)
        rng = np.random.default_rng(3)
        d, b = rng.uniform(0.0, 3.0, matrix.shape[0]), rng.normal(size=matrix.shape[0])
        d[::4] = 0.0
        stepper = _StepSolver(A, 1.0 / 16)
        assert stepper.mode == "splu"
        expected = spla.splu((matrix + sp.diags(d)).T.tocsc(),
                             permc_spec="MMD_AT_PLUS_A").solve(b, trans="T")
        assert np.array_equal(stepper.solve(d, b, 1), expected)

    @staticmethod
    def backward_error(matrix, d, x, b):
        """Componentwise (Oettli-Prager) backward error of x for (M + diag(d)) x = b."""
        r = b - (matrix @ x + d * x)
        return np.max(np.abs(r) / (abs(matrix) @ np.abs(x) + np.abs(d * x) + np.abs(b)))

    @pytest.mark.parametrize("a_section", ["", CROSS_DIFFUSION])
    @given(steps=st.lists(st.tuples(st.sampled_from([0.0, 0.01, 1.0, 50.0, 1e3]),
                                    st.integers(0, 2**32 - 1)), min_size=1, max_size=6))
    def test_splu_refines_to_a_fresh_factorization(self, a_section, steps):
        """Every solve of a diagonal sequence is as accurate as a fresh LU."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_2d") + a_section
        A = operator(loads(text), (9, 9))
        matrix = step_matrix(A, 1.0 / 16)
        stepper = _StepSolver(A, 1.0 / 16)
        eps = np.finfo(float).eps
        for size, seed in steps:
            rng = np.random.default_rng(seed)
            d = rng.uniform(0.0, size, matrix.shape[0])
            b = rng.normal(size=matrix.shape[0])
            x = stepper.solve(d, b, 1)
            fresh = spla.splu((matrix.tocsc() + sp.diags(d).tocsc()).tocsc()).solve(b)
            assert np.max(np.abs(x - fresh)) <= 1e-13 * np.max(np.abs(fresh))
            assert self.backward_error(matrix, d, x, b) <= max(
                2 * eps, self.backward_error(matrix, d, fresh, b))

    @staticmethod
    def counted_splu(monkeypatch):
        original, calls = spla.splu, []

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counted)
        return original, calls

    def test_a_diagonal_jump_refactors_once(self, monkeypatch):
        A = operator(parakkt.builtin_problem("tracking_box_2d"), (9, 9))
        matrix = step_matrix(A, 1.0 / 16)
        original, calls = self.counted_splu(monkeypatch)
        rng = np.random.default_rng(7)
        d, b = rng.uniform(0.0, 0.1, matrix.shape[0]), rng.normal(size=matrix.shape[0])
        stepper = _StepSolver(A, 1.0 / 16)
        stepper.solve(d, b, 1)
        stepper.solve(d * 1.01, b, 2)
        assert len(calls) == 1
        x = stepper.solve(d + 1e4, b, 3)
        assert len(calls) == 2
        expected = original((matrix + sp.diags(d + 1e4)).T.tocsc(),
                            permc_spec="MMD_AT_PLUS_A").solve(b, trans="T")
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("transpose", [False, True], ids=["A", "A.T"])
    def test_a_non_symmetric_operator_is_not_mistaken_for_its_transpose(
            self, monkeypatch, transpose):
        """The held factor is of the transposed step matrix, so a symmetric A
        cannot tell a solve with M from one with M^T; this A is not symmetric
        in pattern or in values, and has bandwidth > 1."""
        rng = np.random.default_rng(13)
        A = non_symmetric_operator(rng)
        A = A.T.tocsr() if transpose else A
        assert abs(A - A.T).max() > 1.0
        _, calls = self.counted_splu(monkeypatch)
        stepper, dense = _StepSolver(A, 1.0 / 16), _StepSolver(A, 1.0 / 16, "dense")
        assert stepper.mode == "splu"
        matrix = step_matrix(A, 1.0 / 16)
        d0 = rng.uniform(0.0, 1.0, A.shape[0])
        for step, d in enumerate([d0, d0 * 1.01, d0 + 1e4, d0 * 1.01 + 1e4], start=1):
            b = rng.normal(size=A.shape[0])
            x, expected = stepper.solve(d, b, step), dense.solve(d, b, step)
            assert self.backward_error(matrix, d, x, b) <= 2 * np.finfo(float).eps
            assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert len(calls) == 2      # d0 + 1e4 forced the one refactor

    @pytest.mark.parametrize("shift", [0.0, 0.5])
    def test_non_finite_right_hand_side_raises(self, shift):
        A = operator(parakkt.builtin_problem("tracking_box_2d"), (9, 9))
        d, b = np.zeros(A.shape[0]), np.ones(A.shape[0])
        stepper = _StepSolver(A, 0.1)
        assert stepper.mode == "splu"
        stepper.solve(d, b, 1)
        b[3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="non-finite right-hand side at step 2"):
                stepper.solve(d + shift, b, 2)

    def test_adjoint_sweep_at_a_converged_state_factors_once(self, monkeypatch):
        spec = parakkt.builtin_problem("tracking_box_2d")
        grid = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        point, trace, _ = parakkt.solve_ocp(spec, grid, TimeGrid(17, spec.horizon))
        assert trace.converged
        _, calls = self.counted_splu(monkeypatch)
        solve_adjoint(spec, point.state, point.control, point.multiplier)
        assert len(calls) == 1

    def test_adjoint_sweeps_in_a_scope_each_factor_once(self, monkeypatch):
        """The scope holds the solver, not its factor: every sweep takes its
        own at its first solve."""
        spec = parakkt.builtin_problem("tracking_box_2d")
        grid = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        point, trace, _ = parakkt.solve_ocp(spec, grid, TimeGrid(17, spec.horizon))
        assert trace.converged
        _, calls = self.counted_splu(monkeypatch)
        with step_scope():
            for sweeps in (1, 2, 3):
                solve_adjoint(spec, point.state, point.control, point.multiplier)
                assert len(calls) == sweeps

    @pytest.mark.parametrize("mode, nodes", [
        ("banded", (17,)), ("splu", (9, 9)), ("dense", (9, 9)),
    ])
    def test_repeated_solves_leave_the_stepper_unchanged(self, mode, nodes):
        name = "tracking_box_1d" if len(nodes) == 1 else "tracking_box_2d"
        A = operator(parakkt.builtin_problem(name), nodes)
        rng = np.random.default_rng(5)
        d, b = rng.uniform(0.0, 3.0, A.shape[0]), rng.normal(size=A.shape[0])
        d_in, b_in = d.copy(), b.copy()
        stepper = _StepSolver(A, 0.1, "dense" if mode == "dense" else "auto")
        assert stepper.mode == mode
        first = stepper.solve(d, b, 1)
        assert np.array_equal(stepper.solve(d, b, 2), first)
        assert np.array_equal(d, d_in) and np.array_equal(b, b_in)

    @pytest.mark.parametrize("matrix, d, linear_solver, mode", [
        pytest.param(matrix, d, ls, mode, id=f"matrix{i}-d{i}-{mode}")
        for i, (matrix, d, auto_mode) in enumerate([
            ([[1.0]], [-1.0], "banded"),
            (np.ones((2, 2)), [0.0, 0.0], "banded"),
            (np.ones((3, 3)), [0.0, 0.0, 0.0], "splu"),     # bandwidth 2
        ])
        for ls, mode in (("auto", auto_mode), ("dense", "dense"))
    ])
    def test_singular_systems_raise(self, matrix, d, linear_solver, mode):
        stepper = unit_step_solver(matrix, linear_solver)
        assert stepper.mode == mode
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="singular step matrix at step 4"):
                stepper.solve(np.array(d), np.ones(len(d)), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("matrix, linear_solver, mode", [
        ([[2.0, 1.0], [1.0, 2.0]], "auto", "banded"),
        ([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]], "auto", "splu"),
        ([[3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [1.0, 1.0, 3.0]], "dense", "dense"),
    ])
    def test_a_non_finite_right_hand_side_is_named(self, matrix, linear_solver, mode, bad):
        """A regular step matrix: the fault is b, not the matrix or the step."""
        stepper = unit_step_solver(matrix, linear_solver)
        assert stepper.mode == mode
        b = np.ones(len(matrix))
        b[1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="non-finite right-hand side at step 7"):
                stepper.solve(np.zeros(len(matrix)), b, 7)

    def test_a_refined_solve_may_solve_a_singular_consistent_system(self):
        """Where the backends differ: the second row's matrix is all ones, and
        b = (1, 1, 1) lies in its range.  Refinement against the first row's
        factor returns a solution of that system; dense refuses the matrix."""
        d = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 3.0, 1.0, 1.0, 1.0])
        refined = unit_step_solver(np.ones((3, 3)), rows=2)
        assert refined.mode == "splu"
        x = refined.solve(d, b, 1)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(x[3:], 1.0 / 3.0, rtol=0, atol=4 * eps)
        assert self.backward_error(np.ones((3, 3)), 0.0, x[3:], b[3:]) <= 2 * eps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="singular step matrix at step 1"):
                unit_step_solver(np.ones((3, 3)), "dense", rows=2).solve(d, b, 1)

    @pytest.mark.parametrize("nodes, mode", [((17,), "banded"), ((9, 3), "banded"),
                                             ((9, 9), "splu")])
    def test_the_step_matrix_picks_the_backend(self, nodes, mode):
        """Tridiagonal on every 1-D grid and on 2-D grids one interior node wide."""
        name = "tracking_box_1d" if len(nodes) == 1 else "tracking_box_2d"
        A = operator(parakkt.builtin_problem(name), nodes)
        assert _StepSolver(A, 0.1).mode == mode
        assert _StepSolver(A, 0.1, "dense").mode == "dense"


class TestStepScope:
    """Sweeps in a ``step_scope`` share one operator and one step solver per
    direction, and give the fields sweeps outside any scope give, bit for
    bit; the scope holds nothing once its outermost call has returned."""

    @staticmethod
    def held():
        return getattr(parakkt.parabolic._local, "held", None)

    @pytest.mark.parametrize("ls", ["auto", "dense"])
    def test_a_stacked_state_sweep_in_1d(self, ls):
        spec, controls = TestStackedStateSolve.controls(0.0, 1.0, 30.0)
        march = TestStackedStateSolve.march
        options = SolverOptions(linear_solver=ls)
        alone, alone_newton = march(spec, controls, options)
        with step_scope():
            march(spec, controls[:1], options)          # held for one row, then grown
            stacked, stacked_newton = march(spec, controls, options)
            fewer, fewer_newton = march(spec, controls[1:], options)
        assert self.held() is None
        assert stacked.tobytes() == alone.tobytes()
        assert stacked_newton == alone_newton
        assert fewer.tobytes() == alone[:, 1:].tobytes()
        assert fewer_newton == alone_newton[1:]
        for row, control in enumerate(controls):
            state = SpaceTimeField(stacked[:, row], control.grid, control.timegrid)
            assert state_defect(spec, state, control) <= options.newton_tol

    @pytest.mark.parametrize("ls", ["auto", "dense"])
    def test_adjoint_and_linear_sweeps_on_a_non_symmetric_operator(self, monkeypatch, ls):
        """A mixed-up direction would break the duality <S r, s> = <r, S* s>."""
        A = non_symmetric_operator(np.random.default_rng(13))
        monkeypatch.setattr(parakkt.parabolic, "assemble_operator", lambda spec, grid: A)
        spec = duality_spec("tracking_box_2d")
        g = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        tg = TimeGrid(9, spec.horizon)
        rng = np.random.default_rng(11)
        y = np.sqrt(rng.uniform(0.0, 3.0, (tg.n_levels, g.n_interior)))
        r, s = rng.normal(size=(2, tg.n_levels, g.n_interior))
        options = SolverOptions(linear_solver=ls)

        def field(values):
            return SpaceTimeField(values, g, tg)

        def sweeps():
            z = solve_linear_parabolic(spec, field(y**2), field(r), options)
            p = solve_adjoint(spec, field(y), SpaceTimeField.zeros(g, tg), field(-s),
                              options)
            return z.values, p.values

        z, p = sweeps()
        lhs, rhs = np.sum(z[1:] * s[1:]), np.sum(r[1:] * p[1:])
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(z[1:] * s[1:]))
        with step_scope():
            held = [sweeps(), sweeps()]
        for got in held:
            assert got[0].tobytes() == z.tobytes() and got[1].tobytes() == p.tobytes()

    def test_solve_ocp_assembles_once_and_releases_on_return_and_raise(self, monkeypatch):
        spec = parakkt.builtin_problem("tracking_box_2d")
        grid = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        tg = TimeGrid(17, spec.horizon)
        calls = []
        original = parakkt.parabolic.assemble_operator

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(parakkt.parabolic, "assemble_operator", counted)
        _, trace, _ = parakkt.solve_ocp(spec, grid, tg)
        assert trace.converged
        assert len(calls) == 1 and self.held() is None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="non-finite"):
                parakkt.solve_ocp(spec, grid, tg, OptimizerOptions(u_init=1e200))
        assert len(calls) == 2 and self.held() is None

    def test_each_thread_holds_its_own(self):
        """Solves on one 2-D grid in four threads at once: a shared factor
        would be refined against or released by another thread's sweep."""
        spec = parakkt.builtin_problem("tracking_box_2d")
        grid = SpatialGrid(extents=spec.extents, nodes=(9, 9))
        grids = [(grid, TimeGrid(m, spec.horizon)) for m in (9, 13, 17, 9, 13, 17)]

        def solve(grids):
            return parakkt.solve_ocp(spec, *grids)[0].adjoint.values.tobytes()

        alone = [solve(g) for g in grids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(solve, grids, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == alone


class TestFailureModes:
    @staticmethod
    def make_singular(dim):
        """In 1-D, reaction slope -9 cancels 1/tau + A exactly on a 3-node grid.
        In 2-D, on 4 x 4 nodes with h = 1/2 and tau = 1/2, slope -18 leaves
        A - 16 I, whose rows repeat in pairs; its bandwidth is 2."""
        name, slope, nodes = {1: ("tracking_box_1d", 9, (3,)),
                              2: ("tracking_box_2d", 18, (4, 4))}[dim]
        text = parakkt.catalog.builtin_problem_text(name).replace(
            "expr = y^3\nC_f = 0", f"expr = 0 - {slope}*y\nC_f = -{slope}",
        ).replace("extent1 = 1\nextent2 = 1", "extent1 = 1.5\nextent2 = 1.5")
        spec = loads(text)
        g = SpatialGrid(extents=spec.extents, nodes=nodes)
        tg = TimeGrid(2, spec.horizon)
        return spec, SpaceTimeField(np.ones((2, g.n_interior)), g, tg)

    @pytest.mark.parametrize("dim, ls", [
        pytest.param(1, "auto", id="banded"),
        pytest.param(2, "auto", id="splu"),
        pytest.param(1, "dense", id="dense"),
        pytest.param(2, "dense", id="dense-2d"),
    ])
    def test_singular_step_matrix(self, dim, ls):
        spec, u = self.make_singular(dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SolveError, match="singular step matrix"):
                solve_state(spec, u, SolverOptions(linear_solver=ls))

    def test_newton_exhaustion(self, monkeypatch):
        monkeypatch.setattr(parakkt.parabolic, "NEWTON_MAX_ITER", 1)
        spec = parakkt.builtin_problem("tracking_box_1d")
        g = SpatialGrid(extents=(1.0,), nodes=(9,))
        tg = TimeGrid(3, 1.0)
        u = SpaceTimeField(np.full((3, 7), 5.0), g, tg)
        with pytest.raises(SolveError, match="did not converge"):
            solve_state(spec, u)

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
        for removed in ("banded", "splu", "qr"):
            with pytest.raises(ConfigError, match="unknown linear solver"):
                SolverOptions(linear_solver=removed)

    @pytest.mark.parametrize("kwargs, match", [
        ({"newton_tol": float("nan")}, "newton_tol must be finite and positive"),
        ({"newton_tol": float("inf")}, "newton_tol must be finite and positive"),
        ({"newton_tol": 0.0}, "newton_tol must be finite and positive"),
        ({"newton_tol": -1e-10}, "newton_tol must be finite and positive"),
    ])
    def test_a_newton_option_that_can_never_be_met_is_refused(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            SolverOptions(**kwargs)
