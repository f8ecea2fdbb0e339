"""Command line front end.

Verbs: validate, solve, check-kkt, soc, holder, oracle-compare,
export-fields.  Every run writes its outputs under ``--out`` and keeps the
content deterministic (no timestamps, nothing machine-specific), so reruns
with the same inputs and seed produce byte-identical files.

This module alone formats the reports and CSV files (``field_io`` writes
the field files): numeric ``key value`` sections through ``_keyed`` and
CSV rows through ``_write_csv``, both printing every number as ``%.17g``,
which keeps every digit of a float and prints an int or a bool as ``%d``
would.

On failure the first line on stderr is machine parsable:

    error kind=<config|audit|non-convergence|io> exit=<code> msg=<text>

with exit codes 2 (bad configuration), 3 (an audit refused the data or the
result), 4 (an iteration did not converge), 5 (file I/O).  A verb runs
without numpy's floating-point warnings: a value that is not finite ends in
such a refusal, and a warning would only print ahead of it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import field_io, problem_io
from .catalog import builtin_audit_box, builtin_problem, catalog_names
from .exceptions import (
    AuditError,
    ConfigError,
    FieldIOError,
    HypothesisViolationError,
    OracleError,
    ParakktError,
    SolveError,
)
from .grids import SpaceTimeField, SpatialGrid, TimeGrid, quadrature_weights
from .kkt import KKTPoint, kkt_residuals
from .optimizer import OptimizerOptions, discrete_objective, solve_ocp
from .oracle import compare_multipliers, discretize_to_nlp, solve_nlp_active_set
from .parabolic import SolverOptions, solve_state
from .problem import _fmt_point, validate_hypotheses
from .regularity import _check_pairs, multiplier_continuity_report
from .soc import (
    _check_probe_arguments,
    legendre_min,
    quadratic_form,
    quadratic_growth_probe,
    sample_critical_direction,
)

__all__ = ["main"]

TRACE_HEADER = "iter,J,step,stat_res,comp_res,feas_viol,active_count"


def _fail(kind: str, code: int, msg: str) -> int:
    flat = " ".join(str(msg).split())
    sys.stderr.write(f"error kind={kind} exit={code} msg={flat}\n")
    return code


def _load_spec(args):
    if args.problem is not None:
        return builtin_problem(args.problem)
    return problem_io.load_problem(args.problem_file)


def _grids(spec, args):
    nodes = [args.nx]
    if spec.dim == 2:
        if args.ny is None:
            raise ConfigError("two-dimensional problems need --ny")
        nodes.append(args.ny)
    elif args.ny is not None:
        raise ConfigError("--ny is only valid for two-dimensional problems")
    grid = SpatialGrid(spec.extents, nodes)
    timegrid = TimeGrid(args.nt, spec.horizon)
    return grid, timegrid


def _ensure_out(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_report(out_dir: str, sections) -> None:
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        for name, body in sections:
            fh.write(f"== SECTION {name} ==\n{body}\n")


def _keyed(**values) -> str:
    """One ``key value`` line per keyword, in order, each value as ``%.17g``."""
    return "\n".join("%s %.17g" % kv for kv in values.items())


def _residuals(report) -> str:
    """The RESIDUALS section: the six residuals of a ``ResidualReport``,
    without the scales its recursions are gated against."""
    return _keyed(**{name: getattr(report, name) for name in (
        "stat_res", "comp_res", "sign_viol", "feas_viol", "adjoint_res", "state_res")})


def _write_csv(path: str, header: str, rows) -> None:
    """``header`` and one line per row, each value printed as ``%.17g``."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _hypotheses_text(report) -> str:
    lines = [
        f"samples {report.sample_count}",
        f"ellipticity_min {report.ellipticity_min:.6g} "
        f"{'PASS' if report.pass_ellipticity else 'FAIL'}",
        f"reaction slope_min {report.slope_min:.6g} f(0)="
        f"{'0' if report.f_zero_ok else 'NONZERO'} "
        f"{'PASS' if report.pass_reaction else 'FAIL'}",
        f"min_Luu {report.min_luu:.6g} at {_fmt_point(report.argmin_luu)}",
        f"min_gu {report.min_gu:.6g} at {_fmt_point(report.argmin_gu)}",
        f"strong convexity/monotonicity "
        f"{'PASS' if report.pass_strong_convexity else 'FAIL'}",
    ]
    return "\n".join(lines)


def _holder_text(cont) -> str:
    lines = []
    for name, fit in cont.fits.items():
        if fit.constant_field:
            lines.append(f"{name} constant alpha 1 H 0")
        else:
            lines.append(
                "%s alpha %.6g H %.6g pairs %d fit_residual %.3g"
                % (name, fit.alpha_hat, fit.h_hat, fit.n_pairs,
                   fit.fit_residual)
            )
    lines.append("active_boundary_jump %.17g" % cont.e_jump)
    return "\n".join(lines)


def _problem_summary(spec, grid=None, timegrid=None) -> str:
    lines = [f"problem {spec.name}", f"dim {spec.dim}",
             "extents " + " ".join("%.17g" % e for e in spec.extents),
             "horizon %.17g" % spec.horizon]
    if grid is not None:
        lines.append("nodes " + " ".join(str(n) for n in grid.shape))
    if timegrid is not None:
        lines.append(f"levels {timegrid.n_levels}")
    return "\n".join(lines)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(linear_solver=args.linear_solver)


def _cmd_validate(args) -> int:
    spec = _load_spec(args)
    y_box, u_box = (builtin_audit_box(args.problem) if args.problem is not None
                    else ((-5.0, 5.0), (-5.0, 5.0)))
    report = validate_hypotheses(spec, args.y_range or y_box, args.u_range or u_box)
    out = _ensure_out(args)
    _write_report(out, [
        ("PROBLEM", _problem_summary(spec)),
        ("HYPOTHESES", _hypotheses_text(report)),
        ("STATUS", "PASS" if report.all_passed else "FAIL"),
    ])
    if not report.all_passed:
        raise AuditError(
            "structural hypotheses failed; see " + os.path.join(out, "report.txt")
        )
    return 0


def _solve_run(args, precheck=None):
    """Load, build the options and run ``precheck(spec, grid, timegrid)``
    before ``--out`` exists, solve, and write ``trace.csv`` and the four
    field files.  Returns ``(spec, out, head, point, trace, report,
    checked)``, ``head`` being the PROBLEM section and ``checked`` what the
    pre-check returned."""
    spec = _load_spec(args)
    grid, timegrid = _grids(spec, args)
    options = OptimizerOptions(max_outer=args.max_outer, tol_kkt=args.tol,
                               u_init=args.u_init, solver=_solver_options(args))
    checked = precheck(spec, grid, timegrid) if precheck else None
    out = _ensure_out(args)
    point, trace, report = solve_ocp(spec, grid, timegrid, options)
    _write_csv(os.path.join(out, "trace.csv"), TRACE_HEADER, trace.rows)
    for name, fld in (("y", point.state), ("u", point.control),
                      ("phi", point.adjoint), ("e", point.multiplier)):
        field_io.write_field(os.path.join(out, f"{name}.field"), fld)
    head = _problem_summary(spec, grid, timegrid)
    return spec, out, head, point, trace, report, checked


def _require_converged(trace) -> None:
    if not trace.converged:
        raise SolveError(trace.message or "outer iteration did not converge")


def _cmd_solve(args) -> int:
    _, out, head, point, trace, report, _ = _solve_run(args)
    _write_report(out, [
        ("PROBLEM", head),
        ("OBJECTIVE", "%.17g" % point.objective),
        ("RESIDUALS", _residuals(report)),
        ("STATUS", trace.message or "done"),
    ])
    _require_converged(trace)
    return 0


def _read_point(spec, point_dir):
    y, u, phi, e = (field_io.read_field(os.path.join(point_dir, f"{name}.field"))
                    for name in ("y", "u", "phi", "e"))
    for name, fld in (("u", u), ("phi", phi), ("e", e)):
        if not y.same_layout(fld):
            raise FieldIOError(f"{name}.field layout differs from y.field")
    return KKTPoint(y, u, phi, e, discrete_objective(spec, y, u)), y.grid, y.timegrid


def _cmd_check_kkt(args) -> int:
    if not 0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be finite and positive: {args.tol!r}")
    spec = _load_spec(args)
    point, grid, timegrid = _read_point(spec, args.point)
    report = kkt_residuals(spec, point)
    out = _ensure_out(args)
    refusal = report.refusal(args.tol)
    _write_report(out, [
        ("PROBLEM", _problem_summary(spec, grid, timegrid)),
        ("OBJECTIVE", "%.17g" % point.objective),
        ("RESIDUALS", _residuals(report)),
        ("STATUS", "FAIL" if refusal else "PASS"),
    ])
    if refusal:
        raise AuditError(refusal)
    return 0


def _cmd_soc(args) -> int:
    spec, out, head, point, trace, report, _ = _solve_run(
        args, lambda *_: _check_probe_arguments(args.trials, args.radius))
    _require_converged(trace)
    solver = _solver_options(args)
    value, where = legendre_min(spec, point)
    direction = sample_critical_direction(spec, point, seed=args.seed,
                                          options=solver)
    q = quadratic_form(spec, point, direction)
    probe = quadratic_growth_probe(spec, point, n_trials=args.trials,
                                   radius=args.radius, seed=args.seed,
                                   options=solver)
    _write_csv(os.path.join(out, "growth.csv"), "trial,ratio,norm_du,feasible",
               probe.rows)
    _write_report(out, [
        ("PROBLEM", head),
        ("RESIDUALS", _residuals(report)),
        ("LEGENDRE", _keyed(legendre_min=value, level=where[0], node=where[1])),
        ("CRITICAL_DIRECTION", _keyed(
            quadratic_form=q, c1_value=direction.c1_value,
            c1_satisfied=direction.c1_satisfied, c2_residual=direction.c2_residual,
            c3_violation=direction.c3_violation)),
        ("GROWTH", _keyed(kappa_hat=probe.kappa_hat, n_feasible=probe.n_feasible,
                          trials=args.trials)),
    ])
    return 0


def _cmd_holder(args) -> int:
    spec, out, head, point, trace, report, _ = _solve_run(
        args, lambda *_: _check_pairs(args.pairs))
    _require_converged(trace)
    cont = multiplier_continuity_report(spec, point, n_pairs=args.pairs,
                                        seed=args.seed)
    for name, fit in cont.fits.items():
        if not fit.constant_field:
            _write_csv(os.path.join(out, f"holder_{name}.csv"),
                       "bin_lo,bin_hi,n,max_increment", fit.bins)
    _write_report(out, [
        ("PROBLEM", head),
        ("RESIDUALS", _residuals(report)),
        ("HOLDER", _holder_text(cont)),
    ])
    return 0


def _cmd_oracle_compare(args) -> int:
    _, out, head, point, trace, report, instance = _solve_run(args, discretize_to_nlp)
    _require_converged(trace)
    sol = solve_nlp_active_set(instance)
    comparison = compare_multipliers(instance, sol, point)
    _write_report(out, [
        ("PROBLEM", head),
        ("RESIDUALS", _residuals(report)),
        ("ORACLE", _keyed(**asdict(comparison), nlp_objective=sol.objective,
                          working_set_size=sol.working_set.size,
                          set_changes=sol.n_set_changes)),
    ])
    return 0


def _cmd_export_fields(args) -> int:
    spec = _load_spec(args)
    grid, timegrid = _grids(spec, args)
    out = _ensure_out(args)
    if args.control:
        control = field_io.read_field(args.control, grid, timegrid)
    else:
        control = SpaceTimeField.zeros(grid, timegrid)
    state, rep = solve_state(spec, control, _solver_options(args))
    field_io.write_field(os.path.join(out, "y.field"), state)
    field_io.write_field(os.path.join(out, "weights.field"),
                         quadrature_weights(grid, timegrid))
    _write_report(out, [
        ("PROBLEM", _problem_summary(spec, grid, timegrid)),
        ("STATE", _keyed(max_newton_iterations=rep.max_newton_iterations,
                         bound_ratio=rep.bound_ratio, sup=float(np.max(np.abs(state.values))))),
    ])
    return 0


def _add_problem(p):
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--problem", choices=catalog_names(),
                       help="built-in problem name")
    which.add_argument("--problem-file", help="problem file path")
    p.add_argument("--out", required=True, help="output directory")


def _add_grid(p):
    p.add_argument("--nx", type=int, default=33,
                   help="nodes along the first axis, boundary included")
    p.add_argument("--ny", type=int, default=None,
                   help="nodes along the second axis (two dimensions)")
    p.add_argument("--nt", type=int, default=65, help="time levels")
    p.add_argument("--linear-solver", default="auto",
                   choices=("auto", "dense"),
                   help="step solver; auto: the step matrix picks LAPACK gtsv when "
                   "it is tridiagonal (every 1-D grid), else one SuperLU "
                   "factorization per sweep, refined to rounding; dense: "
                   "numpy.linalg.solve, an independent reference for cross-checks, "
                   "slow unless OPENBLAS_NUM_THREADS=1")


def _add_solve(p):
    _add_grid(p)
    p.add_argument("--tol", type=float, default=1e-8,
                   help="outer KKT tolerance")
    p.add_argument("--max-outer", type=int, default=200)
    p.add_argument("--u-init", type=float, default=0.0)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0,
                   help="seed for every randomized piece of this run")


class _Parser(argparse.ArgumentParser):
    """Refuses an argument with ``ConfigError``, so the refusal is reported
    like every other failure, and reads a value such as ``-1e4`` as a
    negative number, not as an option; subparsers are made of this class
    too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="parakkt",
        description="Constrained parabolic optimal control: solve and audit",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="audit the structural hypotheses")
    _add_problem(p)
    p.add_argument("--y-range", type=float, nargs=2, default=None)
    p.add_argument("--u-range", type=float, nargs=2, default=None)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("solve", help="solve the control problem")
    _add_problem(p)
    _add_solve(p)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("check-kkt", help="recompute residuals of saved fields")
    _add_problem(p)
    p.add_argument("--point", required=True,
                   help="directory holding y/u/phi/e field files")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(run=_cmd_check_kkt)

    p = sub.add_parser("soc", help="second-order diagnostics at the solution")
    _add_problem(p)
    _add_solve(p)
    _add_seed(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--radius", type=float, default=1e-2)
    p.set_defaults(run=_cmd_soc)

    p = sub.add_parser("holder", help="smoothness diagnostics at the solution")
    _add_problem(p)
    _add_solve(p)
    _add_seed(p)
    p.add_argument("--pairs", type=int, default=4096)
    p.set_defaults(run=_cmd_holder)

    p = sub.add_parser("oracle-compare",
                       help="cross-check multipliers against a stacked NLP")
    _add_problem(p)
    _add_solve(p)
    p.set_defaults(run=_cmd_oracle_compare)

    p = sub.add_parser("export-fields",
                       help="solve the state equation and export the fields")
    _add_problem(p)
    _add_grid(p)
    p.add_argument("--control", default=None,
                   help="control field file (defaults to zero control)")
    p.set_defaults(run=_cmd_export_fields)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.run(args)
    except SystemExit as exc:
        # Only -h gets here, after argparse printed the help.
        return 0 if exc.code in (0, None) else 2
    except (ConfigError,) as exc:
        return _fail("config", 2, str(exc))
    except (AuditError, HypothesisViolationError, OracleError) as exc:
        return _fail("audit", 3, str(exc))
    except SolveError as exc:
        return _fail("non-convergence", 4, str(exc))
    except (FieldIOError, OSError) as exc:
        return _fail("io", 5, str(exc))
    except ParakktError as exc:
        return _fail("config", 2, str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
