"""Running an operation: build its problem, solve it, audit it, time both.

Only calls into parakkt's public API are timed.  Every call goes through
the package namespace at call time, so the traced run's wrappers, which
replace those names, see the benchmark's own calls as root spans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from workloads import CRITICAL_SEEDS, GROWTH_TRIALS, TOL


@dataclass
class Built:
    """An operation with the parakkt objects made for it during set-up."""

    op: object
    spec: object
    grid: object
    timegrid: object


def build(pk, op) -> Built:
    spec = pk.loads(op.problem.text(), source=f"<bench {op.label}>")
    grid = pk.SpatialGrid(extents=spec.extents, nodes=(op.nodes,) * spec.dim)
    timegrid = pk.TimeGrid(n_levels=op.levels, horizon=spec.horizon)
    return Built(op, spec, grid, timegrid)


@dataclass
class Outcome:
    solve_s: float = 0.0
    audit_s: float = 0.0
    outputs: dict = field(default_factory=dict)


class _Timer:
    def __init__(self):
        self.total = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.total += time.perf_counter() - t0
        return result


def _audit_certify(pk, b, point, call, out):
    spec = b.spec
    out["residuals"] = call(pk.kkt_residuals, spec, point)
    out["certificate"] = tuple(
        f.values for f in call(pk.recompute_certificate, spec, point.state, point.control))
    out["e_div"] = call(pk.recover_multiplier_division, spec, point.state,
                        point.control, point.adjoint).values
    out["e_max"] = call(pk.recover_multiplier_max, spec, point.state, point.adjoint).values
    out["h_potential"] = call(pk.h_potential_audit, spec, point.state, point.control)


def _audit_second_order(pk, b, point, call, out):
    spec, seeds = b.spec, b.op.seeds
    out["legendre"] = call(pk.legendre_min, spec, point)[0]
    out["directions"] = []
    for s in seeds[:CRITICAL_SEEDS]:
        direction = call(pk.sample_critical_direction, spec, point, seed=s)
        out["directions"].append((direction, call(pk.quadratic_form, spec, point, direction)))
    out["growth"] = call(pk.quadratic_growth_probe, spec, point,
                         n_trials=GROWTH_TRIALS, seed=seeds[CRITICAL_SEEDS])
    out["holder"] = call(pk.multiplier_continuity_report, spec, point,
                         seed=seeds[CRITICAL_SEEDS + 1])


def _audit_oracle(pk, b, point, call, out):
    instance = call(pk.discretize_to_nlp, b.spec, b.grid, b.timegrid)
    out["nlp_solution"] = call(pk.solve_nlp_active_set, instance)
    out["comparison"] = call(pk.compare_multipliers, instance, out["nlp_solution"], point)


AUDITS = {
    "certify": _audit_certify,
    "second_order": _audit_second_order,
    "oracle": _audit_oracle,
}


def execute(pk, b: Built) -> Outcome:
    """Solve, then audit; an exception propagates to the caller."""
    result = Outcome()
    solve_timer, audit_timer = _Timer(), _Timer()
    point, trace, report = solve_timer(pk.solve_ocp, b.spec, b.grid, b.timegrid,
                                       pk.OptimizerOptions(tol_kkt=TOL))
    result.solve_s = solve_timer.total
    result.outputs.update(point=point, trace=trace, report=report)
    AUDITS[b.op.kind](pk, b, point, audit_timer, result.outputs)
    result.audit_s = audit_timer.total
    return result
