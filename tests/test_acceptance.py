"""Acceptance criteria, one test per criterion, one printed line each.

Each test states its measured numbers in the recorded line so a reader can
audit margins without rerunning.  Tolerances and grid sizes are part of the
public contract of the package and are asserted exactly as stated.
"""

import time

import numpy as np

import parakkt
from parakkt import (
    OptimizerOptions,
    SolverOptions,
    SpaceTimeField,
    SpatialGrid,
    TimeGrid,
    active_boundary_jump,
    compare_multipliers,
    discrete_objective,
    discretize_to_nlp,
    estimate_holder,
    legendre_min,
    multiplier_continuity_report,
    pointwise_control_update,
    quadratic_growth_probe,
    recompute_certificate,
    recover_multiplier_division,
    recover_multiplier_max,
    reduced_gradient,
    solve_adjoint,
    solve_nlp_active_set,
    solve_ocp,
    solve_state,
)
from parakkt.grids import objective_weights

from conftest import tracking_with_constraint


def record(log, cid, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {cid}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


def exact_decay(grid, timegrid):
    xs = grid.interior_coords[:, 0]
    out = np.empty((timegrid.n_levels, grid.n_interior))
    for m, t in enumerate(timegrid.times):
        out[m] = np.exp(-t) * np.sin(np.pi * xs)
    return out


def manufactured_forcing(grid, timegrid):
    def fn(x1, t):
        y = np.exp(-t) * np.sin(np.pi * x1)
        return -y + np.pi**2 * y + y**3

    return SpaceTimeField.from_function(grid, timegrid, fn)


def max_error(spec, nodes, n_levels):
    g = SpatialGrid(extents=(1.0,), nodes=(nodes,))
    tg = TimeGrid(n_levels=n_levels, horizon=1.0)
    y, _ = solve_state(spec, manufactured_forcing(g, tg))
    return float(np.max(np.abs(y.values - exact_decay(g, tg))))


def fitted_order(xs, errs):
    return float(np.polyfit(np.log(xs), np.log(errs), 1)[0])


def test_c1_manufactured_solution_orders(acceptance_log):
    start = time.monotonic()
    spec = parakkt.builtin_problem("mms_cubic_1d")
    h_errs = [max_error(spec, n, 4097) for n in (5, 9, 17)]
    order_h = fitted_order([1.0 / (n - 1) for n in (5, 9, 17)], h_errs)
    t_errs = [max_error(spec, 129, nt) for nt in (9, 17, 33)]
    order_t = fitted_order([1.0 / (nt - 1) for nt in (9, 17, 33)], t_errs)
    elapsed = time.monotonic() - start
    record(
        acceptance_log,
        "C1 state-solver convergence orders",
        order_h >= 1.9 and order_t >= 0.9 and elapsed < 30.0,
        f"order in h {order_h:.3f} (>= 1.9), order in tau {order_t:.3f} "
        f"(>= 0.9), {elapsed:.1f}s < 30s",
    )


def test_c2_adjoint_gradient_exactness(acceptance_log):
    start = time.monotonic()
    spec = parakkt.builtin_problem("mms_cubic_1d")
    g = SpatialGrid(extents=(1.0,), nodes=(9,))
    tg = TimeGrid(n_levels=9, horizon=1.0)
    solver = SolverOptions(newton_tol=1e-13)
    u0 = SpaceTimeField.from_function(
        g, tg, lambda x1, t: np.sin(np.pi * x1) * (1.0 + t)
    )
    y0, _ = solve_state(spec, u0, solver)
    zero_mult = SpaceTimeField.zeros(g, tg)
    phi = solve_adjoint(spec, y0, u0, zero_mult, solver)
    grad = reduced_gradient(spec, y0, u0, phi)
    w = objective_weights(g, tg)
    rng = np.random.default_rng(0)
    eps = 1e-5
    worst = 0.0
    for _ in range(10):
        v = rng.normal(size=u0.values.shape)
        up = SpaceTimeField(u0.values + eps * v, g, tg)
        um = SpaceTimeField(u0.values - eps * v, g, tg)
        jp = discrete_objective(spec, solve_state(spec, up, solver)[0], up)
        jm = discrete_objective(spec, solve_state(spec, um, solver)[0], um)
        fd = (jp - jm) / (2.0 * eps)
        ip = float(np.sum(w.values * grad.values * v))
        worst = max(worst, abs(fd - ip) / max(abs(fd), abs(ip)))
    elapsed = time.monotonic() - start
    record(
        acceptance_log,
        "C2 adjoint gradient vs finite differences",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst relative error {worst:.2e} <= 1e-6 over 10 directions, "
        f"{elapsed:.1f}s < 10s",
    )


def test_c3_kkt_certification(acceptance_log, tracking_bundle):
    start = time.monotonic()
    spec, point, trace, report = tracking_bundle
    residuals = {
        "stat": report.stat_res,
        "comp": report.comp_res,
        "sign": report.sign_viol,
        "feas": report.feas_viol,
    }
    elapsed = time.monotonic() - start
    ok = trace.converged and all(v <= 1e-8 for v in residuals.values())
    record(
        acceptance_log,
        "C3 certified solve on the 33x65 tracking problem",
        ok and elapsed < 60.0,
        "residuals "
        + ", ".join(f"{k} {v:.2e}" for k, v in residuals.items())
        + f" all <= 1e-8, {elapsed:.1f}s < 60s",
    )


def test_c4_oracle_multiplier_equivalence(acceptance_log):
    start = time.monotonic()
    spec = parakkt.builtin_problem("tracking_box_1d")
    g = SpatialGrid(extents=spec.extents, nodes=(5,))
    tg = TimeGrid(n_levels=5, horizon=spec.horizon)
    point, trace, _ = solve_ocp(spec, g, tg, OptimizerOptions(tol_kkt=1e-11))
    instance = discretize_to_nlp(spec, g, tg)
    sol = solve_nlp_active_set(instance)
    cmp = compare_multipliers(instance, sol, point)
    elapsed = time.monotonic() - start
    ok = (
        trace.converged
        and cmp.adjoint_inf <= 1e-6
        and cmp.multiplier_inf <= 1e-6
    )
    record(
        acceptance_log,
        "C4 stacked-NLP multipliers match the adjoint pair",
        ok and elapsed < 20.0,
        f"adjoint gap {cmp.adjoint_inf:.2e}, multiplier gap "
        f"{cmp.multiplier_inf:.2e}, both <= 1e-6 after cell-volume scaling, "
        f"{elapsed:.1f}s < 20s",
    )


def test_oracle_on_the_mixed_constraint():
    """C4's cross-check on g = u + 0.25 y^3 - 0.4 (g_y != 0).

    The 5x5 solve takes 12 outer iterations at tol 1e-12 (the line search
    descends the frozen-multiplier merit); the gaps measure about 3.7e-15.
    """
    spec = parakkt.loads(tracking_with_constraint("u + 0.25*y^3 - 0.4"))
    g = SpatialGrid(extents=spec.extents, nodes=(5,))
    tg = TimeGrid(n_levels=5, horizon=spec.horizon)
    point, trace, _ = solve_ocp(spec, g, tg, OptimizerOptions(tol_kkt=1e-12))
    instance = discretize_to_nlp(spec, g, tg)
    sol = solve_nlp_active_set(instance)
    cmp = compare_multipliers(instance, sol, point)
    assert trace.converged
    assert cmp.adjoint_inf <= 1e-10
    assert cmp.multiplier_inf <= 1e-10


def test_c5_multiplier_formula_equivalence(acceptance_log, tracking_bundle,
                                           feasible_bundle):
    worst = 0.0
    for spec, point, _, _ in (tracking_bundle, feasible_bundle):
        div = recover_multiplier_division(
            spec, point.state, point.control, point.adjoint
        )
        mx = recover_multiplier_max(spec, point.state, point.adjoint)
        worst = max(worst, float(np.max(np.abs(div.values - mx.values))))
    record(
        acceptance_log,
        "C5 division and max recovery formulas agree",
        worst <= 1e-8,
        f"largest pointwise gap {worst:.2e} <= 1e-8 across two certified "
        "points",
    )


def test_c6_update_invariants(acceptance_log):
    names = ("tracking_box_1d", "example31_poly", "strictly_feasible_1d")
    specs = [parakkt.builtin_problem(n) for n in names]
    rng = np.random.default_rng(0)
    min_e = np.inf
    worst_comp = 0.0
    n_samples = 10_000
    for k in range(n_samples):
        spec = specs[k % len(specs)]
        x = float(rng.uniform(0.01, 0.99))
        t = float(rng.uniform(0.0, 1.0))
        y = float(rng.uniform(-2.0, 2.0))
        phi = float(rng.uniform(-3.0, 3.0))
        u, e = pointwise_control_update(spec, (x,), t, y, phi)
        g = float(spec.constraint.eval(x1=x, t=t, y=y, u=u))
        min_e = min(min_e, e)
        worst_comp = max(worst_comp, abs(e * g) / (1.0 + abs(e)))
    ok = min_e >= -1e-12 and worst_comp <= 1e-10
    record(
        acceptance_log,
        "C6 sign and complementarity invariants of the control update",
        ok,
        f"min e {min_e:.1e} >= -1e-12, worst |e*g|/(1+|e|) {worst_comp:.2e} "
        f"<= 1e-10 over {n_samples} samples",
    )


def test_c7_legendre_floor(acceptance_log, tracking_bundle):
    spec, point, _, _ = tracking_bundle
    value, _ = legendre_min(spec, point)
    record(
        acceptance_log,
        "C7 pointwise curvature floor equals the control weight",
        abs(value - 0.1) <= 1e-12,
        f"smallest control-block curvature {value!r}, within 1e-12 of 0.1",
    )


def test_c8_quadratic_growth(acceptance_log, tracking_bundle):
    start = time.monotonic()
    spec, point, _, _ = tracking_bundle
    probe = quadratic_growth_probe(spec, point, n_trials=50, radius=1e-2, seed=0)
    ratios = [row[1] for row in probe.rows]
    elapsed = time.monotonic() - start
    ok = (
        probe.n_feasible == 50
        and min(ratios) >= 0.0
        and probe.kappa_hat >= 0.4 * spec.gamma1
    )
    record(
        acceptance_log,
        "C8 objective grows quadratically around the certified point",
        ok and elapsed < 60.0,
        f"50/50 feasible trials, min ratio {min(ratios):.2e} >= 0, "
        f"kappa {probe.kappa_hat:.3f} >= {0.4 * spec.gamma1:.3f}, "
        f"{elapsed:.1f}s < 60s",
    )


def test_c9_holder_diagnostics(acceptance_log):
    spec = parakkt.builtin_problem("tracking_box_1d")

    def model(fn):
        g = SpatialGrid(extents=(1.0,), nodes=(257,))
        tg = TimeGrid(n_levels=9, horizon=1.0)
        f = SpaceTimeField.from_function(g, tg, lambda x1, t: fn(x1))
        return estimate_holder(f, n_pairs=50_000, seed=0).alpha_hat

    a_lin = model(lambda x: x)
    a_sqrt = model(np.sqrt)
    model_ok = 0.95 <= a_lin <= 1.0 and 0.45 <= a_sqrt <= 0.60

    grid = SpatialGrid(extents=spec.extents, nodes=(33,))
    timegrid = TimeGrid(n_levels=2049, horizon=spec.horizon)
    point, trace, _ = solve_ocp(spec, grid, timegrid, OptimizerOptions(tol_kkt=1e-10))
    assert trace.converged
    rep = multiplier_continuity_report(spec, point, n_pairs=50_000, seed=0)
    alphas = {k: f.alpha_hat for k, f in rep.fits.items()}
    fields_ok = all(a >= 0.4 for a in alphas.values())

    jumps = []
    for nx, nt in ((17, 33), (33, 65), (65, 129)):
        g = SpatialGrid(extents=spec.extents, nodes=(nx,))
        tg = TimeGrid(n_levels=nt, horizon=spec.horizon)
        p, tr, _ = solve_ocp(spec, g, tg, OptimizerOptions(tol_kkt=1e-10))
        assert tr.converged
        jumps.append(active_boundary_jump(spec, p))
    jumps_ok = jumps[0] > jumps[1] > jumps[2]

    record(
        acceptance_log,
        "C9 smoothness exponents and active-boundary jump decay",
        model_ok and fields_ok and jumps_ok,
        f"model fields: linear {a_lin:.3f} in [0.95, 1.0], square root "
        f"{a_sqrt:.3f} in [0.45, 0.60]; solution exponents "
        + ", ".join(f"{k} {v:.2f}" for k, v in sorted(alphas.items()))
        + " all >= 0.4 on the 33x2049 grid; jump "
        + " > ".join(f"{j:.2e}" for j in jumps),
    )


def test_c10_certificate_recomputation(acceptance_log, tracking_bundle):
    spec, point, _, _ = tracking_bundle
    runs = {}
    for ls in ("auto", "dense"):
        runs[ls] = recompute_certificate(
            spec, point.state, point.control, SolverOptions(linear_solver=ls)
        )
    gap_phi = float(
        np.max(np.abs(runs["auto"][0].values - runs["dense"][0].values))
    )
    gap_e = float(
        np.max(np.abs(runs["auto"][1].values - runs["dense"][1].values))
    )
    gap_point = max(
        float(np.max(np.abs(runs["auto"][0].values - point.adjoint.values))),
        float(np.max(np.abs(runs["auto"][1].values - point.multiplier.values))),
    )
    ok = gap_phi <= 1e-10 and gap_e <= 1e-10 and gap_point <= 1e-10
    record(
        acceptance_log,
        "C10 certificate pair is reproducible from the primal pair",
        ok,
        f"auto vs dense: adjoint {gap_phi:.2e}, multiplier {gap_e:.2e}; "
        f"vs solver point {gap_point:.2e}; all <= 1e-10",
    )


def test_certificate_on_a_sloped_constraint(sloped_bundle):
    """C10's reproduction on g = u + 0.5 y - 0.4 (g_y != 0), with its gates."""
    spec, point, trace, _ = sloped_bundle
    assert trace.converged
    (phi_a, e_a), (phi_d, e_d) = (
        recompute_certificate(spec, point.state, point.control,
                              SolverOptions(linear_solver=ls))
        for ls in ("auto", "dense")
    )
    assert float(np.max(np.abs(phi_a.values - phi_d.values))) <= 1e-10
    assert float(np.max(np.abs(e_a.values - e_d.values))) <= 1e-10
    assert float(np.max(np.abs(phi_a.values - point.adjoint.values))) <= 1e-10
    assert float(np.max(np.abs(e_a.values - point.multiplier.values))) <= 1e-10
    assert float(np.max(point.multiplier.values)) > 0.0
