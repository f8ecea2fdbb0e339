"""Output checks computed apart from the solver, in plain numpy.

Nothing here calls parakkt: the Laplacian, the recursions, the pointwise
optimality conditions and the objective are written out again from the
problem data of ``workloads.Problem``.  Each check returns a list of failure
strings that start with the check's name; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from workloads import ALPHA, GROWTH_TRIALS, TOL

RECURSION_GATE = 1e-8     # max-norm residual of the state/adjoint/linearized steps
CERTIFICATE_GATE = 1e-10  # recompute_certificate against the solver's (phi, e)
ORACLE_GATE = 1e-6        # oracle multipliers against the adjoint pair
LEGENDRE_GATE = 1e-12     # legendre_min against ALPHA (g_uu = 0 everywhere)
ROUNDING = 1e-12          # relative slack for quantities equal up to rounding


class Layout:
    """The benchmark's own description of an operation's grid."""

    def __init__(self, op):
        self.dim = op.problem.dim
        self.n = op.nodes - 2                      # interior nodes per axis
        self.h = 1.0 / (op.nodes - 1)              # unit extents on every axis
        self.levels = op.levels
        self.tau = op.problem.horizon / (op.levels - 1)
        x = np.arange(1, op.nodes - 1) * self.h
        if self.dim == 1:
            self.shape = np.sin(np.pi * x)
        else:                                      # first axis slowest
            self.shape = np.outer(np.sin(np.pi * x), np.sin(np.pi * x)).ravel()
        self.weights = np.full((self.levels, 1), self.tau * self.h**self.dim)
        self.weights[0] = 0.0                      # the initial level is data

    def laplacian(self, v):
        """Centered-difference -Laplacian with zero Dirichlet data, per level."""
        if self.dim == 1:
            out = 2.0 * v
            out[:, 1:] -= v[:, :-1]
            out[:, :-1] -= v[:, 1:]
            return out / self.h**2
        w = v.reshape(v.shape[0], self.n, self.n)
        out = 4.0 * w
        out[:, 1:, :] -= w[:, :-1, :]
        out[:, :-1, :] -= w[:, 1:, :]
        out[:, :, 1:] -= w[:, :, :-1]
        out[:, :, :-1] -= w[:, :, 1:]
        return out.reshape(v.shape) / self.h**2


def _fail(name, value, gate, what):
    return [f"{name}: {what} {value:.3e} exceeds {gate:.1e}"] if not value <= gate else []


def _maxabs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def state_recursion(lay, y, u):
    """(y_j+1 - y_j)/tau + A y_j+1 + y_j+1^3 = u_j+1 from y_0 = 0."""
    r = (y[1:] - y[:-1]) / lay.tau + lay.laplacian(y[1:]) + y[1:] ** 3 - u[1:]
    worst = max(_maxabs(y[0]), _maxabs(r))
    return _fail("state_recursion", worst, RECURSION_GATE, "residual")


def adjoint_recursion(lay, prob, y, e, phi):
    """phi_m/tau + A phi_m + 3 y_m^2 phi_m = phi_m+1/tau - (L_y + e g_y)_m."""
    source = (y - prob.a * lay.shape) + e * (3.0 * prob.c * y**2)
    ahead = np.vstack([phi[1:], np.zeros((1, phi.shape[1]))])
    r = (phi - ahead) / lay.tau + lay.laplacian(phi) + 3.0 * y**2 * phi + source
    return _fail("adjoint_recursion", _maxabs(r), RECURSION_GATE, "residual")


def linearized_recursion(lay, y, v, z):
    """(z_j+1 - z_j)/tau + A z_j+1 + 3 y_j+1^2 z_j+1 = v_j+1 from z_0 = 0."""
    r = (z[1:] - z[:-1]) / lay.tau + lay.laplacian(z[1:]) + 3.0 * y[1:] ** 2 * z[1:] - v[1:]
    worst = max(_maxabs(z[0]), _maxabs(r))
    return _fail("linearized_recursion", worst, RECURSION_GATE, "residual")


def box_closed_form(prob, u, e, phi):
    """u = min(b, phi/ALPHA) and e = max(0, phi - ALPHA b) at every node."""
    # A stationarity defect of TOL moves u by TOL/ALPHA and e by TOL.
    out = _fail("box_closed_form", _maxabs(u - np.minimum(prob.b, phi / ALPHA)),
                2 * TOL / ALPHA, "control gap")
    out += _fail("box_closed_form", _maxabs(e - np.maximum(0.0, phi - ALPHA * prob.b)),
                 2 * TOL, "multiplier gap")
    return out


def mixed_pointwise(prob, y, u, e, phi):
    """g <= 0, e >= 0, e g = 0 and L_u - phi + e g_u = 0, each within TOL."""
    g = u + prob.c * y**3 - prob.b
    out = _fail("mixed_pointwise", float(np.max(g)), TOL, "constraint violation")
    out += _fail("mixed_pointwise", -float(np.min(e)), TOL, "negative multiplier")
    out += _fail("mixed_pointwise", _maxabs(e * g), TOL, "complementarity")
    out += _fail("mixed_pointwise", _maxabs(ALPHA * u - phi + e), TOL, "stationarity")
    return out


def objective(lay, prob, y, u):
    """The discrete cost with uniform node weights, initial level excluded."""
    dens = 0.5 * (y - prob.a * lay.shape) ** 2 + 0.5 * ALPHA * u**2
    return float(np.sum(lay.weights * dens))


def solve_result(lay, prob, trace, report, point):
    out = [] if trace.converged else [f"solve: not converged ({trace.message})"]
    out += _fail("solve", report.kkt_error, TOL, "reported KKT error")
    j = objective(lay, prob, point.state.values, point.control.values)
    out += _fail("solve", abs(j - point.objective), ROUNDING * (1 + abs(j)),
                 "objective gap to own recomputation")
    return out


def point_checks(lay, prob, point):
    y, u = point.state.values, point.control.values
    phi, e = point.adjoint.values, point.multiplier.values
    out = state_recursion(lay, y, u) + adjoint_recursion(lay, prob, y, e, phi)
    if prob.c:
        return out + mixed_pointwise(prob, y, u, e, phi)
    return out + box_closed_form(prob, u, e, phi)


def certificate(point, phi_cert, e_cert):
    gap = max(_maxabs(phi_cert - point.adjoint.values),
              _maxabs(e_cert - point.multiplier.values))
    return _fail("certificate", gap, CERTIFICATE_GATE, "gap to the solver's (phi, e)")


def recoveries(prob, point, e_div, e_max):
    """Both recovery formulas, each against its own closed form and each other."""
    phi, u = point.adjoint.values, point.control.values
    scale = ROUNDING * (1.0 + _maxabs(phi))
    out = _fail("recovery", _maxabs(e_div - (phi - ALPHA * u)), scale, "division gap")
    out += _fail("recovery", _maxabs(e_max - np.maximum(0.0, phi - ALPHA * prob.b)),
                 scale, "max gap")
    # Off the active set both read the stationarity defect, at most TOL each.
    out += _fail("recovery", _maxabs(e_div - e_max), 2 * TOL, "cross-check gap")
    return out


def h_potential(point, audit):
    """f'(y) + g_y/g_u = 3 y^2 for the box family, with its extremes."""
    own = 3.0 * point.state.values**2
    vals = audit.field.values
    scale = ROUNDING * (1.0 + _maxabs(own))
    out = _fail("h_potential", _maxabs(vals - own), scale, "field gap")
    out += _fail("h_potential", max(abs(audit.lower - own.min()), abs(audit.upper - own.max())),
                 scale, "extreme gap")
    return out


def residual_report(report):
    out = _fail("residual_report", report.kkt_error, TOL, "KKT error")
    return out + _fail("residual_report", max(report.state_res, report.adjoint_res),
                       RECURSION_GATE, "recursion residual")


def legendre(value):
    return _fail("legendre", abs(value - ALPHA), LEGENDRE_GATE, "gap to ALPHA")


def critical_direction(lay, prob, point, direction, q):
    """The direction's state solves the linearized recursion, and q >= 0.

    The quadratic form is recomputed from the problem's second derivatives:
    L_yy = 1, L_uu = ALPHA, g_yy = 6 c y, f'' = 6 y, the rest zero.
    """
    y = point.state.values
    v, z = direction.control_direction.values, direction.state_direction.values
    out = linearized_recursion(lay, y, v, z)
    e, phi = point.multiplier.values, point.adjoint.values
    dens = z**2 + ALPHA * v**2 + (e * 6.0 * prob.c * y + phi * 6.0 * y) * z**2
    own = float(np.sum(lay.weights * dens))
    out += _fail("critical_direction", abs(own - q), 1e-9 * (1 + abs(own)),
                 "quadratic form gap to own recomputation")
    return out + _fail("critical_direction", -q, TOL, "negative curvature")


def growth(probe):
    rows = probe.rows
    out = []
    if len(rows) != GROWTH_TRIALS:
        out.append(f"growth: {len(rows)} of {GROWTH_TRIALS} trials")
    infeasible = [r[0] for r in rows if not r[3]]
    if infeasible:
        out.append(f"growth: infeasible trials {infeasible[:5]}")
    worst = min((r[1] for r in rows), default=0.0)
    return out + _fail("growth", -worst, 0.0, "negative growth ratio")


def holder(point, report):
    """0 < alpha <= 1, and H d^alpha bounds every sampled increment."""
    fields = {"state": point.state.values, "control": point.control.values,
              "adjoint": point.adjoint.values, "multiplier": point.multiplier.values,
              "weighted_multiplier": point.multiplier.values}    # g_u = 1
    out = []
    for name, fit in report.fits.items():
        if fit.constant_field:
            continue
        if not 0.0 < fit.alpha_hat <= 1.0:
            out.append(f"holder: {name} exponent {fit.alpha_hat} outside (0, 1]")
        excess = fit.increments - fit.h_hat * fit.distances**fit.alpha_hat
        out += _fail("holder", float(np.max(excess, initial=0.0)),
                     ROUNDING * (1.0 + fit.h_hat), f"{name} increment above H d^alpha by")
        if name in fields:
            spread = float(np.ptp(fields[name]))
            out += _fail("holder", float(np.max(fit.increments, initial=0.0)) - spread,
                         ROUNDING * (1.0 + spread), f"{name} increment above field spread by")
    return out


def oracle(lay, prob, point, sol):
    """Multipliers scaled by the node weight tau h^d match (phi, e)."""
    omega = lay.tau * lay.h**lay.dim
    k, n = lay.levels - 1, point.state.values.shape[1]
    gap_phi = _maxabs(sol.lam.reshape(k, n) / omega - point.adjoint.values[1:])
    gap_e = _maxabs(sol.mu.reshape(k, n) / omega - point.multiplier.values[1:])
    out = _fail("oracle", gap_phi, ORACLE_GATE, "adjoint gap")
    out += _fail("oracle", gap_e, ORACLE_GATE, "multiplier gap")
    j = point.objective
    return out + _fail("oracle", abs(sol.objective - j), TOL * (1 + abs(j)), "objective gap")


def check_outcome(op, out) -> list:
    """Every check that applies to the operation's kind."""
    lay, prob = Layout(op), op.problem
    point = out["point"]
    fails = solve_result(lay, prob, out["trace"], out["report"], point)
    fails += point_checks(lay, prob, point)
    if op.kind == "certify":
        fails += residual_report(out["residuals"])
        fails += certificate(point, *out["certificate"])
        fails += recoveries(prob, point, out["e_div"], out["e_max"])
        fails += h_potential(point, out["h_potential"])
    elif op.kind == "second_order":
        fails += legendre(out["legendre"])
        for direction, q in out["directions"]:
            fails += critical_direction(lay, prob, point, direction, q)
        fails += growth(out["growth"])
        fails += holder(point, out["holder"])
    elif op.kind == "oracle":
        fails += oracle(lay, prob, point, out["nlp_solution"])
    return fails
