"""Mutation check of parakkt's audit code, state march and pointwise roots.

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py --only kkt-comp-abs chord-never-refreshes
    python3 tools/mutants.py --list

Run from the root of a source checkout.  Each mutant is one edit to one
function of ``src/parakkt``: an expression or statement, given as source, is
replaced by another wherever it occurs in that function, on the syntax tree
(stdlib ``ast``), and the module is written back with ``ast.unparse``.  The
edited copy lives in a temporary directory with ``tests``, ``bench`` and
``pyproject.toml``, and the tier-1 suite runs on it with ``-x``; a mutant is
killed when the suite fails (or runs past ``TIMEOUT`` seconds).  An unedited copy
runs first and must pass, or no verdict means anything.  The run prints one
line per mutant, then a table of the verdicts with the first test each
mutant failed, and exits 1 if any mutant survived.

The technique: DeMillo, Lipton and Sayward, IEEE Computer 11(4), 1978; Jia
and Harman, IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 900.0         # seconds per suite run; the unedited suite takes about 20


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str         # file under src/parakkt
    function: str       # the function (or Class.method) the edit is confined to
    old: str            # source of the expression or statement replaced
    new: str
    what: str


MUTANTS = (
    # The audit mutants: residuals, multipliers, second order, Hölder, oracle.
    Mutant("kkt-adjoint-eg-sign", "kkt.py", "kkt_residuals",
           "l_y + e * g_y", "l_y - e * g_y",
           "adjoint residual with - e g_y"),
    Mutant("kkt-adjoint-terminal", "kkt.py", "kkt_residuals",
           "np.zeros((1, grid.n_interior))", "phi[-1:]",
           "adjoint residual with phi_{N+1} = phi_N in place of zero"),
    Mutant("kkt-feas-zero", "kkt.py", "_pointwise_residuals",
           "max(0.0, float(np.max(g)))", "0.0",
           "feasibility violation always 0"),
    Mutant("kkt-comp-abs", "kkt.py", "_pointwise_residuals",
           "float(np.max(np.abs(e * g)))", "float(np.max(e * g))",
           "complementarity max(e g) without the abs"),
    Mutant("kkt-sign-zero", "kkt.py", "_pointwise_residuals",
           "max(0.0, -float(np.min(e)))", "0.0",
           "sign violation always 0"),
    Mutant("kkt-active-threshold", "kkt.py", "active_threshold",
           "1e-06 * (1.0 + float(np.max(np.abs(multiplier.values))))",
           "0.01 * (1.0 + float(np.max(np.abs(multiplier.values))))",
           "strongly-active threshold 1e-2 in place of 1e-6"),
    Mutant("kkt-h-potential-sign", "kkt.py", "h_potential_audit",
           "fp + g_y / g_u", "fp - g_y / g_u",
           "h potential f' - g_y/g_u"),
    Mutant("soc-qf-adjoint-sign", "soc.py", "quadratic_form",
           "phi * fpp * zv ** 2", "-phi * fpp * zv ** 2",
           "quadratic form with - phi f'' z^2"),
    Mutant("soc-qf-unweighted", "soc.py", "quadratic_form",
           "np.sum(w * density)", "np.sum(density)",
           "quadratic form without the objective weights"),
    Mutant("oracle-multiplier-error", "oracle.py", "unpack_solution",
           "sol.mu.reshape(big_k, n) / omega", "sol.mu.reshape(big_k, n) / omega * 1.001",
           "oracle multiplier 0.1% off"),
    Mutant("oracle-l2-cell", "oracle.py", "compare_multipliers",
           "np.sqrt(cell * np.sum(d_phi ** 2))", "np.sqrt(np.sum(d_phi ** 2))",
           "adjoint L2 gap without the cell volume"),
    Mutant("holder-snap-axes", "regularity.py", "estimate_holder",
           "idx_cols[0] * (grid.shape[1] - 2) + idx_cols[1]",
           "idx_cols[1] * (grid.shape[0] - 2) + idx_cols[0]",
           "2-D snap of the pair targets with the axes swapped"),
    Mutant("holder-floor-one-cell", "regularity.py", "estimate_holder",
           "6.0 * min(d_ax)", "1.0 * min(d_ax)",
           "Hölder sampling floor at one cell in place of six"),
    Mutant("kkt-division-lu-sign", "kkt.py", "recover_multiplier_division",
           "(adjoint.values - l_u) / g_u", "(adjoint.values + l_u) / g_u",
           "division multiplier (phi + L_u) / g_u"),
    Mutant("soc-legendre-max", "soc.py", "legendre_min",
           "np.argmin(dens)", "np.argmax(dens)",
           "Legendre density at its maximum in place of its minimum"),
    Mutant("soc-c2-no-reaction", "soc.py", "_c2_residual",
           "fp * z.values", "np.zeros_like(z.values)",
           "linearized-state residual without its reaction term f'(y) z"),
    # The certificate's recursion gate.
    Mutant("certificate-skips-recursions", "kkt.py", "ResidualReport.refusal",
           "res <= recursion_tol * scale", "True",
           "certificate ignores the state and adjoint recursions"),
    Mutant("certificate-unscaled", "kkt.py", "ResidualReport.refusal",
           "recursion_tol * scale", "recursion_tol",
           "recursions gated at 1e-8 whatever their scale"),
    Mutant("certificate-ignores-newton-tol", "optimizer.py", "solve_ocp",
           "max(RECURSION_TOL, 100.0 * solver.newton_tol)", "RECURSION_TOL",
           "solve_ocp gates the recursions at 1e-8 whatever newton_tol"),
    # Descent for the mixed family.
    Mutant("descent-no-refreeze", "optimizer.py", "solve_ocp",
           "_line_search(spec, w, state, control, objective, adjoint, e_new, direction, restored)",
           "None",
           "no second line search on the merit frozen at e_new"),
    Mutant("certificate-no-adjoint-retry", "optimizer.py", "solve_ocp",
           "last_adjoint_res > report.adjoint_res > gate * report.adjoint_scale", "False",
           "a shrinking adjoint recursion above its gate ends the solve"),
    # The pointwise root's Newton pass.
    Mutant("root-pass-any-step", "kkt.py", "_monotone_root",
           "(v1 == 0) | (np.abs(s) <= 4.0 * eps * (1.0 + np.abs(u1)))",
           "(v1 == 0) | np.isfinite(s)",
           "Newton pass settles a node on any finite step"),
    Mutant("root-pass-tol-4e-8", "kkt.py", "_monotone_root",
           "np.abs(s) <= 4.0 * eps * (1.0 + np.abs(u1))",
           "np.abs(s) <= 4e-08 * (1.0 + np.abs(u1))",
           "Newton pass tolerance 4e-8 in place of 4 eps"),
    Mutant("root-pass-settles-none", "kkt.py", "_monotone_root",
           "settled = (v1 == 0) | (np.abs(s) <= 4.0 * eps * (1.0 + np.abs(u1)))",
           "settled = np.zeros(u.shape, dtype=bool)",
           "every node the pass settled re-enters the bracket phase"),
    # The state march: chord off the tridiagonal, stacks on gtsv only.
    Mutant("chord-never-refreshes", "parabolic.py", "_newton_march",
           "not chord or d is None or rnorm > CONTRACTION * last", "not chord or d is None",
           "chord keeps the sweep's first factor"),
    Mutant("chord-refreshes-every-step", "parabolic.py", "_newton_march",
           "rnorm > CONTRACTION * last", "True",
           "chord factors at every step (exact Newton)"),
    Mutant("chord-on-tridiagonal", "parabolic.py", "_newton_march",
           "not stepper.tridiagonal", "True",
           "chord also on tridiagonal step matrices"),
    Mutant("stack-on-every-backend", "parabolic.py", "_march_states",
           "stepper.mode == 'banded'", "True",
           "a stack marches as one block on splu and dense too"),
    # A gtsv sweep and the march solve unchecked and replay a failure checked.
    Mutant("sweep-skips-finiteness", "parabolic.py", "_StepSolver.sweep",
           "np.logical_and.reduce(np.isfinite(values), axis=None)", "True",
           "a gtsv sweep never tests its result for finiteness"),
    Mutant("sweep-unchecked-rerun", "parabolic.py", "_StepSolver.sweep",
           "self._recur(reaction, source, levels, values)",
           "self._recur(reaction, source, levels, values, checked=self.mode != 'banded')",
           "a failed gtsv sweep is made again unchecked and returns its levels"),
    Mutant("sweep-without-reaction", "parabolic.py", "_StepSolver._recur",
           "reaction[m]", "0.0",
           "sweep levels on diag(I/tau + A) without the reaction"),
    Mutant("unchecked-ignores-info", "parabolic.py", "_StepSolver.solve",
           "x if info == 0 else np.full(m, np.nan)", "x",
           "an unchecked gtsv solve returns what gtsv refused as a solution"),
    Mutant("march-no-step-replay", "parabolic.py", "_newton_march",
           "n_solves and (not all(map(math.isfinite, rnorms)))", "False",
           "a march step that is not finite is named as a non-finite residual"),
    # Products with A, M and |M| through the CSR kernel.
    Mutant("product-untiled", "parabolic.py", "_StepSolver.product",
           "self.stacks[y.size]", "self.stacks[self.n]",
           "a stack's product through the untiled A"),
    Mutant("stack-shares-columns", "parabolic.py", "_stacked_csr",
           "matrix.indices + n * k", "matrix.indices + 0 * k",
           "every block of a stack multiplies the first block's y"),
    Mutant("refine-scale-signed", "parabolic.py", "_StepSolver._refined_solve",
           "self.abs_data", "data",
           "refinement scale through M in place of abs(M)"),
    Mutant("refine-residual-without-d", "parabolic.py", "_StepSolver._refined_solve",
           "_matvec(indptr, indices, data, x) + dx", "_matvec(indptr, indices, data, x)",
           "refinement residual of M in place of M + diag(d)"),
)


class _Replace(ast.NodeTransformer):
    def __init__(self, old: ast.AST, new: ast.AST):
        self.old, self.new, self.hits = ast.dump(old), new, 0

    def visit(self, node):
        if ast.dump(node) == self.old:
            self.hits += 1
            return copy.deepcopy(self.new)
        return super().visit(node)


def _parse_piece(source: str) -> ast.AST:
    body = ast.parse(source).body
    if len(body) != 1:
        raise ValueError(f"not one expression or statement: {source!r}")
    return body[0].value if isinstance(body[0], ast.Expr) else body[0]


def _find(tree: ast.Module, qualname: str):
    scope = tree
    for part in qualname.split("."):
        scope = next((node for node in scope.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and node.name == part), None)
        if scope is None:
            raise ValueError(f"no {qualname} in the module")
    return scope


def mutate(source: str, mutant: Mutant) -> str:
    """The module source with the mutant applied; refuses an edit that
    matches nothing in its function."""
    tree = ast.parse(source)
    target = _find(tree, mutant.function)
    edit = _Replace(_parse_piece(mutant.old), _parse_piece(mutant.new))
    edit.visit(target)
    if edit.hits == 0:
        raise ValueError(f"{mutant.name}: {mutant.old!r} not found in {mutant.function}")
    return ast.unparse(ast.fix_missing_locations(tree))


def _copy_checkout(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
    for name in ("src", "tests", "bench"):       # tests read bench/spans.py
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def failure_id(line: str) -> str:
    """The test id of pytest's ``FAILED <id> - <message>`` line.  A
    parametrized id may hold " - " itself, so it runs to its closing "]"."""
    rest = line.split(" ", 1)[1]
    name = rest.split(" - ")[0]
    if "[" not in name:
        return name
    close = rest.find("] - ", rest.index("["))
    return rest[:close + 1] if close >= 0 else rest.rstrip()


def run_suite(checkout: str) -> tuple[int, float, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        code = proc.returncode
        first = next((failure_id(line) for line in proc.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))), "")
    except subprocess.TimeoutExpired:
        code, first = -1, "timeout"
    return code, time.perf_counter() - t0, first


def check(mutant: Mutant | None) -> tuple[int, float, str]:
    """(exit code, seconds, first failing test) of the suite on a copy of
    the checkout, with ``mutant`` applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="parakkt-mutant-") as tmp:
        _copy_checkout(tmp)
        if mutant is not None:
            path = os.path.join(tmp, "src", "parakkt", mutant.module)
            with open(path) as fh:
                text = mutate(fh.read(), mutant)
            with open(path, "w") as fh:
                fh.write(text)
        return run_suite(tmp)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants only")
    p.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = p.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.only and len(chosen) != len(set(args.only)):
        known = {m.name for m in MUTANTS}
        p.error(f"unknown mutant: {', '.join(sorted(set(args.only) - known))}")
    if args.list:
        for m in chosen:
            print(f"{m.name:30s} {m.module}:{m.function}  {m.what}")
        return 0

    for m in chosen:                    # every edit must apply before anything runs
        with open(os.path.join(ROOT, "src", "parakkt", m.module)) as fh:
            mutate(fh.read(), m)
    code, seconds, _ = check(None)
    print(f"control (unedited): exit {code} in {seconds:.1f} s", flush=True)
    if code != 0:
        print("error: the unedited suite does not pass; no verdict", file=sys.stderr)
        return 2
    rows = []
    for m in chosen:
        code, seconds, first = check(m)
        verdict = "killed" if code != 0 else "survived"
        rows.append((m, verdict, first))
        print(f"{m.name}: {verdict} (exit {code}, {seconds:.1f} s) {first}", flush=True)
    print("\n| mutant | edit | verdict | first failure |\n|---|---|---|---|")
    for m, verdict, first in rows:
        print(f"| `{m.name}` | {m.what} | {verdict} | {first} |")
    return 1 if any(verdict == "survived" for _, verdict, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
