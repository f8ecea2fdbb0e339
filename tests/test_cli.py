"""Command-line entry points, exercised in process."""

import collections
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import parakkt
from parakkt import SpaceTimeField, SpatialGrid, TimeGrid, cli, read_field, write_field
from parakkt.cli import TRACE_HEADER
from parakkt.parabolic import _StepSolver

from conftest import SLOPED_TEXT, tracking_with_constraint


def run(*argv):
    return cli.main([str(a) for a in argv])


def run_fresh(code):
    """``code`` in a fresh interpreter, so what numpy or scipy print on their
    first use, and which modules they load, are this run's alone."""
    src = os.path.dirname(os.path.dirname(parakkt.__file__))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          text=True, capture_output=True, timeout=120)


def run_main_fresh(*argv):
    return run_fresh("import sys, parakkt.cli\n"
                     f"sys.exit(parakkt.cli.main({[str(a) for a in argv]!r}))\n")


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("solved")
    rc = run(
        "solve", "--problem", "tracking_box_1d",
        "--nx", 17, "--nt", 17, "--tol", "1e-9", "--out", out,
    )
    assert rc == 0
    return out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_verb(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()

    def test_no_problem_selected(self, tmp_path, capsys):
        assert run("validate", "--out", tmp_path) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, reason", [
        (("--nx", 9, "--nt", 9), "the following arguments are required: --out"),
        (("--nx", "nine", "--nt", 9, "--out"), "argument --nx: invalid int value"),
    ])
    def test_argparse_refusals_are_config_errors(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "out"
        tail = (out,) if argv[-1] == "--out" else ()
        assert run("solve", "--problem", "tracking_box_1d", *argv, *tail) == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=parakkt solve: ")
        assert reason in first
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert run("solve", "-h") == 0
        assert capsys.readouterr().out.startswith("usage: parakkt solve")

    @pytest.mark.parametrize("verb, flag, value", [
        ("validate", "--seed", 0), ("validate", "--linear-solver", "auto"),
        ("check-kkt", "--seed", 0), ("check-kkt", "--linear-solver", "auto"),
        ("solve", "--seed", 0), ("oracle-compare", "--seed", 0),
        ("export-fields", "--seed", 0), ("export-fields", "--tol", "1e-3"),
        ("export-fields", "--max-outer", 5), ("export-fields", "--u-init", 7),
    ])
    def test_a_verb_refuses_a_flag_it_does_not_read(self, tmp_path, capsys,
                                                    verb, flag, value):
        out = tmp_path / "out"
        point = ("--point", tmp_path) if verb == "check-kkt" else ()
        rc = run(verb, "--problem", "tracking_box_1d", *point, flag, value, "--out", out)
        assert rc == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=")
        assert f"unrecognized arguments: {flag}" in first
        assert not out.exists()

    def test_a_problem_is_named_one_way(self, tmp_path, capsys):
        problem = tmp_path / "tracking.ini"
        problem.write_text(parakkt.catalog.builtin_problem_text("tracking_box_1d"))
        out = tmp_path / "out"
        rc = run("validate", "--problem", "example31_poly", "--problem-file", problem,
                 "--out", out)
        assert rc == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=")
        assert "not allowed with argument --problem" in first
        assert not out.exists()

    def test_broken_problem_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nname = x\n")
        assert run("validate", "--problem-file", bad, "--out", tmp_path) == 2
        capsys.readouterr()


class TestSolve:
    def test_outputs(self, solved_dir):
        for name in ("trace.csv", "report.txt", "y.field", "u.field",
                     "phi.field", "e.field"):
            assert (solved_dir / name).exists(), name
        trace = (solved_dir / "trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        report = (solved_dir / "report.txt").read_text()
        assert "OBJECTIVE" in report
        assert "stat_res" in report

    def test_fields_reload(self, solved_dir):
        u = read_field(solved_dir / "u.field")
        assert u.grid.shape == (17,)
        assert u.timegrid.n_levels == 17

    def test_two_dimensional(self, tmp_path):
        rc = run(
            "solve", "--problem", "tracking_box_2d",
            "--nx", 9, "--ny", 9, "--nt", 9, "--tol", "1e-7", "--out", tmp_path,
        )
        assert rc == 0

    def test_dense_linear_solver_reproduces_the_objective(self, tmp_path):
        objectives = []
        for ls in ("auto", "dense"):
            out = tmp_path / ls
            rc = run(
                "solve", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
                "--linear-solver", ls, "--out", out,
            )
            assert rc == 0
            lines = (out / "report.txt").read_text().splitlines()
            objectives.append(float(lines[lines.index("== SECTION OBJECTIVE ==") + 1]))
        assert objectives[1] == pytest.approx(objectives[0], rel=1e-12)

    @pytest.mark.parametrize("removed", ["banded", "splu"])
    def test_removed_linear_solvers_are_usage_errors(self, tmp_path, capsys, removed):
        out = tmp_path / "out"
        rc = run(
            "solve", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
            "--linear-solver", removed, "--out", out,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error kind=config exit=2 msg=")
        assert "invalid choice" in err.splitlines()[0]
        assert not out.exists()

    @pytest.mark.parametrize("option, value, reason", [
        ("--tol", "nan", "tol_kkt must be finite and positive"),
        ("--tol", -1, "tol_kkt must be finite and positive"),
        ("--max-outer", -3, "max_outer must be at least 0"),
        ("--u-init", "nan", "u_init must be finite"),
        ("--u-init", "inf", "u_init must be finite"),
    ])
    def test_an_option_that_can_never_be_met_is_refused(self, tmp_path, capsys,
                                                        option, value, reason):
        """Refused before the solve, not run to the cap: no output directory."""
        out = tmp_path / "out"
        rc = run("solve", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
                 option, value, "--out", out)
        assert rc == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=")
        assert reason in first
        assert not out.exists()

    @pytest.mark.parametrize("old, new, rc", [
        ("gamma2 = 1", "gamma2 = 1", 3), ("gamma2 = 1", "gamma2 = nan", 2),
        ("gamma2 = 1", "gamma2 = inf", 2), ("gamma1 = 0.1", "gamma1 = nan", 2),
        ("C_f = 0", "C_f = nan", 2),
    ])
    def test_a_non_finite_bound_is_refused(self, tmp_path, capsys, old, new, rc):
        """g_u = 0.01 is below the floor gamma2 / 2; a nan gamma2 hid that."""
        text = tracking_with_constraint("0.01*u - 0.004")
        assert old in text
        problem = tmp_path / "slow.ini"
        problem.write_text(text.replace(old, new))
        assert run("solve", "--problem-file", problem, "--nx", 9, "--nt", 9,
                   "--out", tmp_path / "out") == rc
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith(f"error kind={'audit' if rc == 3 else 'config'} exit={rc}")

    def test_a_negative_number_may_carry_an_exponent(self, tmp_path, capsys):
        """argparse alone reads -1e4 as an option and refuses the value."""
        assert run("solve", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
                   "--u-init", "-1e4", "--out", tmp_path / "solved") == 0
        out = tmp_path / "soc"
        assert run("soc", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
                   "--radius", "-1e-2", "--out", out) == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=")
        assert "radius must be finite and positive, got -0.01" in first
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["solve", "soc"])
    def test_a_cost_with_a_pole_is_refused_not_unconverged(self, tmp_path, capsys, verb):
        """L = 1/(x1 - 0.5) + ... is infinite at node 3 of the grid: an audit
        refusal (exit 3), not a line search that found no descent (exit 4)."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "expr = 0.5*(y - 0.8*sin(pi*x1))^2",
            "expr = 1/(x1 - 0.5) + 0.5*(y - 0.8*sin(pi*x1))^2")
        bad = tmp_path / "pole.ini"
        bad.write_text(text)
        assert run(verb, "--problem-file", bad, "--nx", 9, "--nt", 9,
                   "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.splitlines() == [
            "error kind=audit exit=3 msg=running cost L evaluated non-finite at level 0, node 3"]

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        rc = run(
            "solve", "--problem", "tracking_box_1d",
            "--nx", 17, "--nt", 33, "--tol", "1e-13", "--max-outer", 1,
            "--out", tmp_path,
        )
        assert rc == 4
        assert (tmp_path / "trace.csv").exists()
        capsys.readouterr()


    @pytest.mark.parametrize("nx, nt", [(5, 5), (33, 65)])
    def test_a_doubled_cost_derivative_is_refused(self, tmp_path, capsys, nx, nt):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "expr = 0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2\n",
            "expr = 0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2\ndy = 2*(y - 0.8*sin(pi*x1))\n")
        bad = tmp_path / "doubled.ini"
        bad.write_text(text)
        out = tmp_path / "out"
        rc = run("solve", "--problem-file", bad, "--nx", nx, "--nt", nt, "--out", out)
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error kind=config exit=2 msg=")
        assert "[L] dy is not the derivative of [L] expr" in err[-1]
        assert not out.exists()


class TestCheckKKT:
    def test_roundtrip(self, solved_dir, tmp_path):
        rc = run(
            "check-kkt", "--problem", "tracking_box_1d",
            "--point", solved_dir, "--out", tmp_path,
        )
        assert rc == 0
        assert (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_a_tolerance_that_can_never_be_met_is_refused(self, solved_dir, tmp_path,
                                                          capsys, tol):
        """Refused before the audit: no output directory."""
        out = tmp_path / "out"
        rc = run("check-kkt", "--problem", "tracking_box_1d", "--point", solved_dir,
                 "--tol", tol, "--out", out)
        assert rc == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=config exit=2 msg=")
        assert "--tol must be finite and positive" in first
        assert not out.exists()

    def test_missing_point_directory(self, tmp_path, capsys):
        rc = run(
            "check-kkt", "--problem", "tracking_box_1d",
            "--point", tmp_path / "absent", "--out", tmp_path,
        )
        assert rc == 5
        capsys.readouterr()

    def test_tampered_fields_are_rejected(self, solved_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("y", "u", "phi", "e"):
            fld = read_field(solved_dir / f"{name}.field")
            if name == "u":
                fld.values[:] = fld.values * 2.0 + 0.05
            write_field(broken / f"{name}.field", fld)
        rc = run(
            "check-kkt", "--problem", "tracking_box_1d",
            "--point", broken, "--out", tmp_path,
        )
        assert rc == 3
        capsys.readouterr()

    @staticmethod
    def raise_state(fields):
        fields["y"].values[5, 4] += 1.0

    @staticmethod
    def raise_adjoint_and_multiplier(fields):
        at = np.unravel_index(np.argmax(fields["e"].values), fields["e"].values.shape)
        fields["phi"].values[at] += 0.01
        fields["e"].values[at] += 0.01

    @pytest.mark.parametrize("edit, residual", [
        (raise_state, "state_res"), (raise_adjoint_and_multiplier, "adjoint_res"),
    ], ids=["state", "adjoint"])
    def test_a_broken_recursion_is_refused(self, solved_dir, tmp_path, capsys, edit,
                                           residual):
        """Each edit leaves the four pointwise residuals within the tolerance
        and breaks one recursion."""
        fields = {name: read_field(solved_dir / f"{name}.field")
                  for name in ("y", "u", "phi", "e")}
        edit.__func__(fields)
        broken = tmp_path / "broken"
        broken.mkdir()
        for name, fld in fields.items():
            write_field(broken / f"{name}.field", fld)
        out = tmp_path / "out"
        rc = run("check-kkt", "--problem", "tracking_box_1d", "--point", broken, "--out", out)
        assert rc == 3
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith(
            f"error kind=audit exit=3 msg={residual.split('_')[0]} recursion residual")
        report = (out / "report.txt").read_text()
        assert "FAIL" in report
        values = dict(parts for parts in map(str.split, report.splitlines())
                      if len(parts) == 2)
        assert max(float(values[k])
                   for k in ("stat_res", "comp_res", "sign_viol", "feas_viol")) <= 1e-8
        assert float(values[residual]) > 1.0

    def test_a_control_on_another_grid_is_a_file_error(self, solved_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("y", "phi", "e"):
            (broken / f"{name}.field").write_text((solved_dir / f"{name}.field").read_text())
        grid = SpatialGrid(extents=(1.0,), nodes=(9,))
        write_field(broken / "u.field", SpaceTimeField.zeros(grid, TimeGrid(17, 1.0)))
        out = tmp_path / "out"
        rc = run("check-kkt", "--problem", "tracking_box_1d", "--point", broken, "--out", out)
        assert rc == 5
        assert capsys.readouterr().err.splitlines()[0] == (
            "error kind=io exit=5 msg=u.field layout differs from y.field")
        assert not out.exists()

    @pytest.mark.parametrize("line, text", [(1, "1 2 2"), (2, "-1 1")],
                             ids=["two-nodes", "negative-extent"])
    def test_a_broken_field_header_is_a_file_error(self, solved_dir, tmp_path, capsys,
                                                   line, text):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("y", "u", "phi", "e"):
            lines = (solved_dir / f"{name}.field").read_text().splitlines()
            if name == "y":
                lines[line] = text
            (broken / f"{name}.field").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = run(
            "check-kkt", "--problem", "tracking_box_1d",
            "--point", broken, "--out", out,
        )
        assert rc == 5
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=io exit=5 msg=")
        assert str(broken / "y.field") in first
        assert not out.exists()


    def test_a_nan_geometry_line_names_the_real_fault(self, solved_dir, tmp_path, capsys):
        """All four files agree on the broken line, so no layout differs."""
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("y", "u", "phi", "e"):
            lines = (solved_dir / f"{name}.field").read_text().splitlines()
            lines[2] = "nan 1"
            (broken / f"{name}.field").write_text("\n".join(lines) + "\n")
        rc = run("check-kkt", "--problem", "tracking_box_1d",
                 "--point", broken, "--out", tmp_path / "out")
        assert rc == 5
        first = capsys.readouterr().err.splitlines()[0]
        assert first.startswith("error kind=io exit=5 msg=")
        assert "extents must be positive and finite" in first
        assert "layout differs" not in first


class TestValidate:
    def test_catalog_problem_passes(self, tmp_path):
        rc = run("validate", "--problem", "tracking_box_1d", "--out", tmp_path)
        assert rc == 0
        assert "PASS" in (tmp_path / "report.txt").read_text()

    def test_degenerate_problem_fails(self, tmp_path, capsys):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "0.05*u^2", "0*u^2"
        )
        bad = tmp_path / "flat.ini"
        bad.write_text(text)
        rc = run(
            "validate", "--problem-file", bad,
            "--y-range", -1, 1, "--u-range", -1, 1, "--out", tmp_path,
        )
        assert rc == 3
        assert "FAIL" in (tmp_path / "report.txt").read_text()
        capsys.readouterr()

    def test_an_indefinite_diffusion_fails_the_audit(self, tmp_path, capsys):
        bad = tmp_path / "saddle.ini"
        bad.write_text(parakkt.catalog.builtin_problem_text("tracking_box_2d")
                       + "\n[a]\na11 = 1\na12 = 2\na22 = 1\n")
        assert run("validate", "--problem-file", bad, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.startswith("error kind=audit exit=3 msg=")
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "ellipticity_min -1 FAIL" in report

    def test_a_reversed_range_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run("validate", "--problem", "tracking_box_1d", "--y-range", 1, -1, "--out", out)
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error kind=config exit=2 msg=audit ranges must be nondecreasing intervals"]
        assert not out.exists()

    def test_an_expression_that_does_not_parse_is_a_config_error(self, tmp_path, capsys):
        # GrammarError is neither a ConfigError nor an I/O fault: the catch-all.
        bad = tmp_path / "grammar.ini"
        bad.write_text(tracking_with_constraint("u +* 0.4"))
        assert run("validate", "--problem-file", bad, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [
            "error kind=config exit=2 msg=[g] expr: unexpected token '*' in 'u +* 0.4'"]

    def test_a_constant_division_by_zero_is_a_typed_refusal(self, tmp_path, capsys):
        """1/0 evaluates to inf, so g is nan everywhere and the audit refuses it
        as non-finite, with its exit code and no traceback."""
        bad = tmp_path / "zero.ini"
        bad.write_text(tracking_with_constraint("u - 0.4 + 0*(1/0)"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run("validate", "--problem-file", bad, "--out", tmp_path / "out")
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error kind=audit exit=3 msg=g evaluated non-finite")
        assert "Traceback" not in err

    def test_the_typed_refusal_is_the_first_line_of_stderr(self, tmp_path):
        bad = tmp_path / "zero.ini"
        bad.write_text(tracking_with_constraint("u - 0.4 + 0*(1/0)"))
        done = run_main_fresh("validate", "--problem-file", bad, "--out", tmp_path / "out")
        assert done.returncode == 3
        assert done.stderr.splitlines()[0].startswith(
            "error kind=audit exit=3 msg=g evaluated non-finite")

    @pytest.mark.parametrize("verb, rc, first", [
        (("solve", "--nx", 9, "--nt", 9), 2,
         "error kind=config exit=2 msg=non-finite diffusion coefficient a11 at x=(0.5,)"),
        (("validate",), 3,
         "error kind=audit exit=3 msg=a11 evaluated non-finite at (0.5, 0.3333, -3, -3.571)"),
    ], ids=["solve", "validate"])
    def test_a_pole_met_at_run_time_is_refused_on_the_first_line(self, tmp_path, verb, rc,
                                                                  first):
        """a11 = 1/(x1 - 0.5) divides by zero at a node of the grid and at a
        sample point of the audit; numpy's warning of it is not printed."""
        bad = tmp_path / "pole.ini"
        bad.write_text(parakkt.catalog.builtin_problem_text("tracking_box_1d")
                       + "\n[a]\na11 = 1/(x1 - 0.5)\n")
        done = run_main_fresh(verb[0], "--problem-file", bad, *verb[1:], "--out", tmp_path / "out")
        assert done.returncode == rc
        assert done.stderr.splitlines() == [first]

    def test_an_initial_state_with_a_pole_fails_the_audit(self, tmp_path, capsys):
        """y0 = 1/(x1 - 0.5) is sampled with the other maps, so ``validate``
        refuses what ``solve`` would refuse on the grid."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
        bad = tmp_path / "y0.ini"
        bad.write_text(text.replace("[y0]\nexpr = 0\n", "[y0]\nexpr = 1/(x1 - 0.5)\n"))
        assert run("validate", "--problem-file", bad, "--out", tmp_path / "out") == 3
        assert capsys.readouterr().err.splitlines() == [
            "error kind=audit exit=3 msg=y0 evaluated non-finite at (0.5, 0.3333, -3, -3.571)"]

    def test_loads_no_scipy_subpackage_beyond_linalg_and_sparse(self, tmp_path):
        # A fresh interpreter: this one has loaded scipy.stats for the tests.
        code = (
            "import sys\n"
            "import parakkt, parakkt.cli\n"
            "rc = parakkt.cli.main(['validate', '--problem', 'tracking_box_1d',"
            f" '--out', {str(tmp_path)!r}])\n"
            "print(rc, *sorted({m.split('.')[1] for m in sys.modules"
            " if m.startswith('scipy.') and not m.split('.')[1].startswith('_')}))\n"
        )
        done = run_fresh(code)
        assert done.returncode == 0, done.stderr
        rc, *loaded = done.stdout.split()
        assert rc == "0"
        assert set(loaded) <= {"linalg", "sparse", "version"}


class TestDiagnostics:
    def test_soc_writes_growth_table(self, tmp_path):
        rc = run(
            "soc", "--problem", "tracking_box_1d",
            "--nx", 9, "--nt", 17, "--tol", "1e-9",
            "--trials", 5, "--radius", "1e-2", "--out", tmp_path,
        )
        assert rc == 0
        lines = (tmp_path / "growth.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,ratio,norm_du,feasible"
        assert len(lines) == 6

    def test_soc_runs_every_sweep_on_the_chosen_linear_solver(self, tmp_path,
                                                               monkeypatch):
        """The solve, the critical direction and the growth probe all step
        with ``--linear-solver``."""
        seen = collections.Counter()
        init = _StepSolver.__init__

        def spy(self, operator, tau, linear_solver="auto", rows=1):
            seen[linear_solver] += 1
            init(self, operator, tau, linear_solver, rows)

        monkeypatch.setattr(_StepSolver, "__init__", spy)
        rc = run(
            "soc", "--problem", "tracking_box_1d", "--nx", 9, "--nt", 9,
            "--trials", 2, "--linear-solver", "dense", "--out", tmp_path,
        )
        assert rc == 0
        assert set(seen) == {"dense"}

    def test_soc_certifies_a_sloped_constraint(self, tmp_path):
        """g = u + 0.5 y - 0.4: the critical direction is exactly tangent."""
        problem = tmp_path / "sloped.ini"
        problem.write_text(SLOPED_TEXT)
        out = tmp_path / "out"
        rc = run(
            "soc", "--problem-file", problem,
            "--nx", 33, "--nt", 65, "--tol", "1e-10", "--out", out,
        )
        assert rc == 0
        assert "\nc3_violation 0\n" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("option, value", [
        ("--trials", 0), ("--trials", -2), ("--radius", 0), ("--radius", "nan"),
    ])
    def test_soc_refuses_a_bad_trial_count_or_radius(self, tmp_path, capsys,
                                                     option, value):
        """Refused before the solve: no output directory, no field file."""
        out = tmp_path / "out"
        rc = run(
            "soc", "--problem", "tracking_box_1d",
            "--nx", 9, "--nt", 9, "--tol", "1e-9", option, value, "--out", out,
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error kind=config exit=2")
        assert not out.exists()

    def test_holder_refuses_too_few_pairs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(
            "holder", "--problem", "tracking_box_1d",
            "--nx", 9, "--nt", 9, "--pairs", 10, "--out", out,
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error kind=config exit=2")
        assert "need at least 1000 pairs" in err
        assert not out.exists()

    def test_holder_writes_bin_tables(self, tmp_path):
        rc = run(
            "holder", "--problem", "tracking_box_1d",
            "--nx", 17, "--nt", 33, "--tol", "1e-9",
            "--pairs", 2000, "--out", tmp_path,
        )
        assert rc == 0
        table = (tmp_path / "holder_state.csv").read_text().splitlines()
        assert table[0] == "bin_lo,bin_hi,n,max_increment"
        assert len(table) > 1

    def test_oracle_compare_small_grid(self, tmp_path):
        rc = run(
            "oracle-compare", "--problem", "tracking_box_1d",
            "--nx", 5, "--nt", 5, "--tol", "1e-10", "--out", tmp_path,
        )
        assert rc == 0
        assert "adjoint" in (tmp_path / "report.txt").read_text()

    def test_oracle_compare_guards_large_grids(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run(
            "oracle-compare", "--problem", "tracking_box_1d",
            "--nx", 33, "--nt", 65, "--out", out,
        )
        assert rc == 3
        capsys.readouterr()
        assert not out.exists()


PROBLEM_KEYS = ["problem", "dim", "extents", "horizon", "nodes", "levels"]
RESIDUAL_KEYS = ["stat_res", "comp_res", "sign_viol", "feas_viol", "adjoint_res", "state_res"]
INTEGER_KEYS = {"level", "node", "c1_satisfied", "n_feasible", "trials", "working_set_size",
                "set_changes", "max_newton_iterations"}

# Per verb: the report's sections in order, each with its line keys in order.
# OBJECTIVE is one bare number and STATUS one message, so they carry none.
LAYOUTS = {
    "solve": {"PROBLEM": PROBLEM_KEYS, "OBJECTIVE": None, "RESIDUALS": RESIDUAL_KEYS,
              "STATUS": None},
    "soc": {"PROBLEM": PROBLEM_KEYS, "RESIDUALS": RESIDUAL_KEYS,
            "LEGENDRE": ["legendre_min", "level", "node"],
            "CRITICAL_DIRECTION": ["quadratic_form", "c1_value", "c1_satisfied",
                                   "c2_residual", "c3_violation"],
            "GROWTH": ["kappa_hat", "n_feasible", "trials"]},
    "holder": {"PROBLEM": PROBLEM_KEYS, "RESIDUALS": RESIDUAL_KEYS,
               "HOLDER": ["state", "control", "adjoint", "multiplier", "weighted_multiplier",
                          "active_boundary_jump"]},
    "oracle-compare": {"PROBLEM": PROBLEM_KEYS, "RESIDUALS": RESIDUAL_KEYS,
                       "ORACLE": ["adjoint_inf", "adjoint_l2", "multiplier_inf",
                                  "multiplier_l2", "objective_gap", "nlp_objective",
                                  "working_set_size", "set_changes"]},
    "export-fields": {"PROBLEM": PROBLEM_KEYS,
                      "STATE": ["max_newton_iterations", "bound_ratio", "sup"]},
}

VERB_ARGS = {
    "solve": ("--problem", "tracking_box_1d", "--nx", 9, "--nt", 9),
    "soc": ("--problem", "tracking_box_1d", "--nx", 9, "--nt", 9, "--trials", 5),
    # Its multiplier is zero: two fits take the constant line and write no table.
    "holder": ("--problem", "strictly_feasible_1d", "--nx", 17, "--nt", 17,
               "--pairs", 2000),
    "oracle-compare": ("--problem", "tracking_box_1d", "--nx", 5, "--nt", 5),
    "export-fields": ("--problem", "mms_cubic_1d", "--nx", 9, "--nt", 9),
}


def report_sections(out):
    """``report.txt`` under ``out`` as {section: [line, ...]}, in file order."""
    sections = {}
    for line in (out / "report.txt").read_text().splitlines():
        if line.startswith("== SECTION "):
            body = sections[line.removeprefix("== SECTION ").removesuffix(" ==")] = []
        else:
            body.append(line)
    return sections


@pytest.fixture(scope="module")
def verb_outputs(tmp_path_factory):
    """Each verb of ``VERB_ARGS`` run once into its own directory."""
    outs = {}
    for verb, args in VERB_ARGS.items():
        outs[verb] = tmp_path_factory.mktemp(verb)
        assert run(verb, *args, "--out", outs[verb]) == 0
    return outs


class TestReportFormats:
    @pytest.mark.parametrize("verb", list(LAYOUTS))
    def test_sections_and_keys_keep_their_order(self, verb_outputs, verb):
        sections = report_sections(verb_outputs[verb])
        assert list(sections) == list(LAYOUTS[verb])
        for name, keys in LAYOUTS[verb].items():
            lines = sections[name]
            if keys is None:
                assert len(lines) == 1, name
                continue
            assert [line.split()[0] for line in lines] == keys, name
            for line in lines:
                key, value = line.split(maxsplit=1)
                if key in INTEGER_KEYS:
                    assert value.isdigit(), line

    def test_a_constant_field_gets_a_line_and_no_table(self, verb_outputs):
        out = verb_outputs["holder"]
        lines = report_sections(out)["HOLDER"]
        assert "multiplier constant alpha 1 H 0" in lines
        assert "weighted_multiplier constant alpha 1 H 0" in lines
        tables = sorted(p.name for p in out.glob("holder_*.csv"))
        assert tables == ["holder_adjoint.csv", "holder_control.csv", "holder_state.csv"]

    def test_check_kkt_prints_every_digit_of_the_residuals(self, solved_dir, tmp_path):
        """The RESIDUALS lines read back through ``float`` are the residuals of
        the saved point, bit for bit."""
        assert run("check-kkt", "--problem", "tracking_box_1d", "--point", solved_dir,
                   "--out", tmp_path) == 0
        spec = parakkt.builtin_problem("tracking_box_1d")
        point, _, _ = cli._read_point(spec, str(solved_dir))
        report = parakkt.kkt_residuals(spec, point)
        lines = report_sections(tmp_path)["RESIDUALS"]
        assert [float(line.split()[1]).hex() for line in lines] == [
            float(getattr(report, key)).hex() for key in RESIDUAL_KEYS]

    @pytest.mark.parametrize("verb", ["solve", "soc"])
    def test_a_rerun_writes_the_same_bytes(self, verb_outputs, tmp_path, verb):
        assert run(verb, *VERB_ARGS[verb], "--out", tmp_path) == 0
        first = sorted(p.name for p in verb_outputs[verb].iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == first
        for name in first:
            assert (tmp_path / name).read_bytes() == \
                (verb_outputs[verb] / name).read_bytes(), name


class TestExportFields:
    def test_zero_control_export(self, tmp_path):
        rc = run(
            "export-fields", "--problem", "mms_cubic_1d",
            "--nx", 9, "--nt", 9, "--out", tmp_path,
        )
        assert rc == 0
        y = read_field(tmp_path / "y.field")
        assert np.all(np.isfinite(y.values))
        assert (tmp_path / "weights.field").exists()

    def test_supplied_control_export(self, solved_dir, tmp_path):
        rc = run(
            "export-fields", "--problem", "tracking_box_1d",
            "--nx", 17, "--nt", 17,
            "--control", solved_dir / "u.field", "--out", tmp_path,
        )
        assert rc == 0
        y = read_field(tmp_path / "y.field")
        assert float(np.max(np.abs(y.values))) > 0.0
