"""Command-line entry points, exercised in process."""

import os
import subprocess
import sys

import numpy as np
import pytest

import parakkt
from parakkt import cli, read_field, write_field
from parakkt.optimizer import TRACE_HEADER

from conftest import SLOPED_TEXT


def run(*argv):
    return cli.main([str(a) for a in argv])


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

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        rc = run(
            "solve", "--problem", "tracking_box_1d",
            "--nx", 17, "--nt", 33, "--tol", "1e-13", "--max-outer", 1,
            "--out", tmp_path,
        )
        assert rc == 4
        assert (tmp_path / "trace.csv").exists()
        capsys.readouterr()


class TestCheckKKT:
    def test_roundtrip(self, solved_dir, tmp_path):
        rc = run(
            "check-kkt", "--problem", "tracking_box_1d",
            "--point", solved_dir, "--out", tmp_path,
        )
        assert rc == 0
        assert (tmp_path / "report.txt").exists()

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


class TestValidate:
    def test_catalog_problem_passes(self, tmp_path):
        rc = run("validate", "--problem", "tracking_box_1d", "--out", tmp_path)
        assert rc == 0
        assert "PASS" in (tmp_path / "report.txt").read_text()

    def test_degenerate_problem_fails(self, tmp_path, capsys):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "duu = 0.1", "duu = 0"
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
        src = os.path.dirname(os.path.dirname(parakkt.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                              capture_output=True, timeout=120, check=True)
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
        rc = run(
            "oracle-compare", "--problem", "tracking_box_1d",
            "--nx", 33, "--nt", 65, "--out", tmp_path,
        )
        assert rc == 3
        capsys.readouterr()


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
