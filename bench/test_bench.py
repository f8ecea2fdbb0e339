"""Tests of the benchmark itself: its checks, its tracing and its exits.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q

Each independent check is shown to pass on a real output and to reject a
copy of that output corrupted where the check looks (negative controls).
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from checks import check_outcome
from operations import build, execute
from workloads import ALPHA, Operation, Problem, round_operations, warmup_operations

pk = run.import_parakkt()

SMALL = {
    "box_1d": Operation("certify", Problem(1, 0.9, 0.33), 17, 33),
    "box_2d": Operation("certify", Problem(2, 3.0, 0.43), 9, 9),
    "mixed": Operation("second_order", Problem(1, 0.8, 0.4, 0.25), 17, 17, (1, 2, 3, 4, 5)),
    "oracle": Operation("oracle", Problem(1, 0.8, 0.4), 5, 5),
}


@pytest.fixture(scope="module")
def outcomes():
    return {name: execute(pk, build(pk, op)).outputs for name, op in SMALL.items()}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_outputs_pass(outcomes, name):
    assert check_outcome(SMALL[name], outcomes[name]) == []


def _strongest_active(e):
    return np.unravel_index(int(np.argmax(e)), e.shape)


def flip_multiplier_sign(out):
    e = out["point"].multiplier.values
    e[_strongest_active(e)] *= -1.0


def push_control_above_bound(out):
    u = out["point"].control.values
    k, i = _strongest_active(out["point"].multiplier.values)
    u[k, i] += 1e-3


def shift_adjoint_level(out):
    phi = out["point"].adjoint.values
    phi[phi.shape[0] // 2] += 1e-6


def perturb_state_node(out):
    y = out["point"].state.values
    y[y.shape[0] // 2, y.shape[1] // 2] += 1e-6


def unconverge(out):
    out["trace"].converged = False


def shift_objective(out):
    out["point"].objective += 1e-6


def inflate_reported_error(out):
    out["report"] = dataclasses.replace(out["report"], stat_res=1e-6)


def inflate_residual_report(out):
    out["residuals"] = dataclasses.replace(out["residuals"], adjoint_res=1e-6)


def perturb_certificate(out):
    phi, e = out["certificate"]
    e = e.copy()
    e[_strongest_active(e)] += 1e-9
    out["certificate"] = (phi, e)


def perturb_division_recovery(out):
    out["e_div"] = out["e_div"].copy()
    out["e_div"][1, 1] += 1e-7


def perturb_max_recovery(out):
    out["e_max"] = out["e_max"].copy()
    out["e_max"][1, 1] += 1e-9


def perturb_h_potential(out):
    h = out["h_potential"]
    h.field.values[2, 2] += 1e-6


def perturb_h_extreme(out):
    out["h_potential"] = dataclasses.replace(out["h_potential"],
                                             upper=out["h_potential"].upper + 1e-6)


def raise_mixed_control(out):
    # Raising u where the constraint is active makes g > 0.
    push_control_above_bound(out)


def make_multiplier_negative(out):
    e = out["point"].multiplier.values
    e[1, 1] = -1e-6


def shift_legendre(out):
    out["legendre"] = ALPHA + 1e-10


def negate_quadratic_form(out):
    direction, q = out["directions"][0]
    out["directions"][0] = (direction, -q)


def perturb_direction_state(out):
    z = out["directions"][1][0].state_direction.values
    z[z.shape[0] // 2, 3] += 1e-6


def negative_growth_ratio(out):
    rows = out["growth"].rows
    trial, _, norm, feasible = rows[7]
    rows[7] = (trial, -1e-3, norm, feasible)


def infeasible_growth_trial(out):
    rows = out["growth"].rows
    trial, ratio, norm, _ = rows[3]
    rows[3] = (trial, ratio, norm, False)


def shrink_holder_constant(out):
    fit = out["holder"].fits["multiplier"]
    fit.h_hat *= 0.9


def holder_exponent_above_one(out):
    out["holder"].fits["state"].alpha_hat = 1.2


def perturb_oracle_adjoint(out):
    sol = out["nlp_solution"]
    sol.lam[len(sol.lam) // 2] *= 1.5


def perturb_oracle_multiplier(out):
    sol = out["nlp_solution"]
    k = int(np.argmax(sol.mu))
    sol.mu[k] *= 1.5


def shift_oracle_objective(out):
    out["nlp_solution"].objective += 1e-6


NEGATIVE_CONTROLS = [
    ("box_1d", flip_multiplier_sign, "box_closed_form"),
    ("box_1d", push_control_above_bound, "box_closed_form"),
    ("box_1d", shift_adjoint_level, "adjoint_recursion"),
    ("box_2d", shift_adjoint_level, "adjoint_recursion"),
    ("box_1d", perturb_state_node, "state_recursion"),
    ("box_2d", perturb_state_node, "state_recursion"),
    ("box_1d", unconverge, "solve"),
    ("box_1d", shift_objective, "solve"),
    ("box_1d", inflate_reported_error, "solve"),
    ("box_1d", inflate_residual_report, "residual_report"),
    ("box_1d", perturb_certificate, "certificate"),
    ("box_1d", perturb_division_recovery, "recovery"),
    ("box_1d", perturb_max_recovery, "recovery"),
    ("box_1d", perturb_h_potential, "h_potential"),
    ("box_1d", perturb_h_extreme, "h_potential"),
    ("mixed", raise_mixed_control, "mixed_pointwise"),
    ("mixed", make_multiplier_negative, "mixed_pointwise"),
    ("mixed", shift_adjoint_level, "adjoint_recursion"),
    ("mixed", shift_legendre, "legendre"),
    ("mixed", negate_quadratic_form, "critical_direction"),
    ("mixed", perturb_direction_state, "linearized_recursion"),
    ("mixed", negative_growth_ratio, "growth"),
    ("mixed", infeasible_growth_trial, "growth"),
    ("mixed", shrink_holder_constant, "holder"),
    ("mixed", holder_exponent_above_one, "holder"),
    ("oracle", perturb_oracle_adjoint, "oracle"),
    ("oracle", perturb_oracle_multiplier, "oracle"),
    ("oracle", shift_oracle_objective, "oracle"),
]


@pytest.mark.parametrize("name, corrupt, check", NEGATIVE_CONTROLS,
                         ids=[f"{n}-{c.__name__}" for n, c, _ in NEGATIVE_CONTROLS])
def test_negative_control(outcomes, name, corrupt, check):
    out = copy.deepcopy(outcomes[name])
    corrupt(out)
    failures = check_outcome(SMALL[name], out)
    assert any(f.startswith(check + ":") for f in failures), failures


def test_rounds_come_from_the_seed():
    for workload in ("certify_1d", "certify_2d", "mixed_audit_1d"):
        assert round_operations(workload, 5) == round_operations(workload, 5)
        assert warmup_operations(workload, 5)
    assert round_operations("certify_1d", 5) != round_operations("certify_1d", 6)


def test_missing_boundary_is_reported_absent():
    from spans import BOUNDARIES, Tracer, per_layer_metrics

    renamed = tuple((n, m, "_renamed_root" if a == "_monotone_root" else a)
                    for n, m, a in BOUNDARIES)
    originals = (pk.solve_ocp, pk.kkt._monotone_root, pk.parabolic._StepSolver.solve)
    tracer = Tracer(boundaries=renamed).install()
    try:
        assert pk.solve_ocp is not originals[0]
        tracer.op = 0
        execute(pk, build(pk, SMALL["oracle"]))
    finally:
        tracer.uninstall()
    assert (pk.solve_ocp, pk.kkt._monotone_root, pk.parabolic._StepSolver.solve) == originals
    metrics, absent, _ = per_layer_metrics(tracer, [0])
    assert tracer.missing == ["kkt.root"]
    assert {"kkt.roots", "kkt.root_evals", "kkt.root_s"} <= set(absent)
    assert metrics["optimizer.outer_iterations"]["value"] > 0
    assert metrics["parabolic.step_solves"]["value"] > 0


def _run_bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_counts_repeat_exactly():
    args = ["--workload", "mixed_audit_1d", "--seed", "3", "--seconds", "0", "--trace", "1"]
    counts = []
    for _ in range(2):
        proc = _run_bench(args)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "1"})
    assert counts[0] == counts[1]
    assert counts[0]["kkt.roots"] > 0 and counts[0]["optimizer.line_search_trials"] > 0


def test_bare_directory_fails_without_result():
    bare = os.path.join(run.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__", "test_*.py"))
    manifest = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(manifest):
        shutil.copy(manifest, bare)
    try:
        proc = _run_bench(["--workload", "certify_1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_is_fixed_work():
    from reference import Reference

    for dim in (1, 2):
        ref = Reference(dim)
        assert ref.run() == Reference(dim).run()
        assert ref.time() > 0.0


def test_untraced_run_reports_the_manifest_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    proc = _run_bench(["--workload", "mixed_audit_1d", "--seed", "3", "--seconds", "0",
                       "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
