"""Problem files, the built-in catalog, and hypothesis validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import parakkt
from parakkt import (
    SpatialGrid,
    TimeGrid,
    builtin_audit_box,
    builtin_problem,
    catalog_names,
    dumps,
    load_problem,
    loads,
    validate_hypotheses,
)
from parakkt.catalog import builtin_problem_text
from parakkt.exceptions import AuditError, ConfigError, GrammarError, ProblemIOError
from parakkt.expressions import SPACE_TIME_VARS, parse_expression
from parakkt.problem import _sample_box, eval_broadcast, eval_scalar_map

# The three layouts of [a]: a11 in one dimension; a11, a22 and optionally
# a12 in two.
DIFFUSION_LAYOUTS = [
    ("tracking_box_1d", "a11 = 1 + x1"),
    ("tracking_box_2d", "a11 = 2 + x1\na22 = 1.5"),
    ("tracking_box_2d", "a11 = 2\na12 = 0.5\na22 = 1"),
]


def with_diffusion(name, body):
    return builtin_problem_text(name) + f"\n[a]\n{body}\n"


CATALOG = (
    "example31_poly",
    "mms_cubic_1d",
    "strictly_feasible_1d",
    "tracking_box_1d",
    "tracking_box_2d",
)


class TestCatalog:
    def test_names(self):
        assert catalog_names() == CATALOG

    @pytest.mark.parametrize("name", CATALOG)
    def test_every_entry_loads(self, name):
        spec = builtin_problem(name)
        assert spec.name == name
        assert spec.dim in (1, 2)
        assert spec.gamma1 > 0 and spec.gamma2 > 0

    def test_unknown_name(self):
        with pytest.raises(Exception, match="unknown built-in problem"):
            builtin_problem("nope")

    @pytest.mark.parametrize("name", CATALOG)
    def test_audit_box_brackets_origin(self, name):
        (y_lo, y_hi), (u_lo, u_hi) = builtin_audit_box(name)
        assert y_lo < 0.0 < y_hi
        assert u_lo < 0.0 < u_hi

    def test_tracking_cost_is_shifted_quadratic(self):
        spec = builtin_problem("tracking_box_1d")
        yd = 0.8 * np.sin(np.pi * 0.5)
        val = spec.cost.eval(x1=0.5, t=0.3, y=yd, u=2.0)
        assert val == pytest.approx(0.05 * 4.0, rel=1e-14)

    def test_constraint_is_control_bound(self):
        spec = builtin_problem("tracking_box_1d")
        g = spec.constraint.eval(x1=0.25, t=0.0, y=1.0, u=0.4)
        assert g == pytest.approx(0.0, abs=1e-15)


class TestRoundTrip:
    def test_dumps_loads_fixpoint(self):
        for name in CATALOG:
            text = dumps(builtin_problem(name))
            assert dumps(loads(text)) == text

    def test_save_load_file(self, tmp_path):
        spec = builtin_problem("tracking_box_1d")
        path = tmp_path / "prob.ini"
        path.write_text(dumps(spec))
        back = load_problem(path)
        assert back.name == spec.name
        assert back.extents == spec.extents
        assert back.horizon == spec.horizon
        assert dumps(back) == dumps(spec)

    @pytest.mark.parametrize("name, body", DIFFUSION_LAYOUTS, ids=["1d", "2d", "2d-cross"])
    def test_every_diffusion_layout_round_trips(self, name, body):
        text = dumps(loads(with_diffusion(name, body)))
        assert f"\n[a]\n{body}\n\n" in text
        assert dumps(loads(text)) == text

    def test_loaded_maps_evaluate_identically(self):
        spec = builtin_problem("tracking_box_1d")
        back = loads(dumps(spec))
        x = np.linspace(0.1, 0.9, 7)
        y = np.sin(3.0 * x)
        u = np.cos(2.0 * x)
        a = spec.cost.eval(x1=x, t=0.4, y=y, u=u)
        b = back.cost.eval(x1=x, t=0.4, y=y, u=u)
        np.testing.assert_array_equal(a, b)


def with_keys(name, keys):
    """The catalog text of ``name`` with derivative keys written after the
    ``expr`` line of each section in ``keys`` ({section: "key = ...\n..."})."""
    text = builtin_problem_text(name)
    for section, lines in keys.items():
        head = text.index(f"[{section}]\n")
        end = text.index("\n", text.index("expr = ", head)) + 1
        text = text[:end] + lines + text[end:]
    return text


TRACKING_KEYS = {
    "f": "df = 3*y^2\nddf = 6*y\n",
    "L": "dy = y - 0.8*sin(pi*x1)\ndu = 0.1*u\ndyy = 1\ndyu = 0\nduu = 0.1\n",
    "g": "dy = 0\ndu = 1\ndyy = 0\ndyu = 0\nduu = 0\n",
}
EXAMPLE31_KEYS = {
    "g": ("dy = 4*y^3*u^3 + 2*y*u\ndu = 3*y^4*u^2 + y^2 + 1\n"
          "dyy = 12*y^2*u^3 + 2*u\ndyu = 12*y^3*u^2 + 2*y\nduu = 6*y^4*u\n"),
}
SLOTS = ("eval", "dy", "du", "dyy", "dyu", "duu")


class TestDerivedMaps:
    """Derivatives come from ``expr``; a stated key is checked, not used."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_carries_no_derivative_key(self, name):
        keys = {line.split(" = ")[0] for line in builtin_problem_text(name).splitlines()}
        assert not keys & {"df", "ddf", "dy", "du", "dyy", "dyu", "duu"}

    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_text_round_trips(self, name):
        text = builtin_problem_text(name)
        assert dumps(loads(text)) == text

    @pytest.mark.parametrize("name, keys", [("tracking_box_1d", TRACKING_KEYS),
                                            ("example31_poly", EXAMPLE31_KEYS)])
    def test_correct_keys_load_to_the_same_problem(self, name, keys):
        keyed, plain = loads(with_keys(name, keys)), builtin_problem(name)
        for a, b in ((keyed.cost, plain.cost), (keyed.constraint, plain.constraint)):
            assert [getattr(a, k).tree for k in SLOTS] == [getattr(b, k).tree for k in SLOTS]
        assert keyed.nonlinearity.ddf.tree == plain.nonlinearity.ddf.tree
        assert dumps(keyed) == dumps(plain)
        grid, timegrid = SpatialGrid(keyed.extents, (9,)), TimeGrid(9, keyed.horizon)
        fields = [parakkt.solve_ocp(spec, grid, timegrid)[0] for spec in (keyed, plain)]
        for k in ("state", "control", "adjoint", "multiplier"):
            np.testing.assert_array_equal(*(getattr(p, k).values for p in fields))

    @pytest.mark.parametrize("section, line", [
        ("L", "dy = 2*(y - 0.8*sin(pi*x1))"),
        ("L", "duu = 0.2"),
        ("f", "ddf = 6*y + 1e-6"),
        ("g", "du = 1 + 0*u + 1e-3*y"),
        ("g", "dyu = 1"),
    ])
    def test_a_wrong_key_is_refused_by_name(self, section, line):
        key = line.split(" = ")[0]
        text = with_keys("tracking_box_1d", {section: line + "\n"})
        with pytest.raises(ProblemIOError, match=rf"\[{section}\] {key} is not the derivative"):
            loads(text)

    @pytest.mark.parametrize("old, new", [("extent1 = 1", "extent1 = nan"),
                                          ("T = 1", "T = inf"), ("T = 1", "T = nan")])
    def test_a_non_finite_domain_is_refused_before_the_key_check(self, old, new):
        text = with_keys("tracking_box_1d", TRACKING_KEYS).replace(old, new)
        with pytest.raises(ConfigError, match="must be positive and finite"):
            loads(text)

    @pytest.mark.parametrize("field, value", [("extents", (float("nan"),)),
                                              ("extents", (float("inf"),)),
                                              ("horizon", float("inf")),
                                              ("horizon", float("nan"))])
    def test_problem_spec_refuses_non_finite_geometry(self, field, value):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            dataclasses.replace(builtin_problem("tracking_box_1d"), **{field: value})

    @pytest.mark.parametrize("old, new, match", [
        ("gamma1 = 0.1", "gamma1 = nan", "gamma1 and gamma2 must be positive and finite"),
        ("gamma1 = 0.1", "gamma1 = inf", "gamma1 and gamma2 must be positive and finite"),
        ("gamma2 = 1", "gamma2 = nan", "gamma1 and gamma2 must be positive and finite"),
        ("gamma2 = 1", "gamma2 = inf", "gamma1 and gamma2 must be positive and finite"),
        ("gamma2 = 1", "gamma2 = 0", "gamma1 and gamma2 must be positive and finite"),
        ("C_f = 0", "C_f = nan", "C_f must be finite"),
        ("C_f = 0", "C_f = -inf", "C_f must be finite"),
    ])
    def test_a_non_finite_bound_is_refused(self, old, new, match):
        """A nan gamma2 turned the g_u floor off: g_u < nan is never true."""
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
        assert old in text
        with pytest.raises(ConfigError, match=match):
            loads(text.replace(old, new))

    @pytest.mark.parametrize("field, value", [("gamma1", float("nan")),
                                              ("gamma2", float("nan")),
                                              ("gamma2", float("inf"))])
    def test_problem_spec_refuses_a_non_finite_gamma(self, field, value):
        with pytest.raises(ConfigError, match="gamma1 and gamma2 must be positive"):
            dataclasses.replace(builtin_problem("tracking_box_1d"), **{field: value})

    def test_problem_spec_refuses_a_non_finite_reaction_slope(self):
        spec = builtin_problem("tracking_box_1d")
        bad = dataclasses.replace(spec.nonlinearity, lower_slope=float("nan"))
        with pytest.raises(ConfigError, match="C_f must be finite"):
            dataclasses.replace(spec, nonlinearity=bad)


class TestParsingErrors:
    def test_missing_section(self):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
        with pytest.raises(ProblemIOError, match=r"missing section \[domain\]"):
            loads(text.replace("[domain]", "[dominion]"))

    def test_truncated_expression(self):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
        with pytest.raises(GrammarError, match="unexpected token"):
            loads(text.replace("expr = u - 0.4", "expr = u -"))

    def test_incomplete_diffusion_block(self):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d")
        with pytest.raises(ProblemIOError, match=r"missing key 'a11'"):
            loads(text + "\n[a]\na12 = 1\n")

    def test_a_cross_term_in_one_dimension_is_refused(self):
        with pytest.raises(ProblemIOError, match="key 'a12' in \\[a\\] is not valid in one"):
            loads(with_diffusion("tracking_box_1d", "a11 = 1\na12 = 0.5"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemIOError):
            load_problem(tmp_path / "absent.ini")


class TestDerivativeConsistency:
    """The derived derivative fields must match the value expressions."""

    @pytest.mark.parametrize("name", CATALOG)
    @given(
        y=st.floats(-2.0, 2.0, allow_nan=False),
        u=st.floats(-2.0, 2.0, allow_nan=False),
    )
    def test_cost_gradient_fd(self, name, y, u):
        spec = builtin_problem(name)
        env = {f"x{i + 1}": 0.37 for i in range(spec.dim)}
        eps = 1e-6

        def val(yy, uu):
            return float(spec.cost.eval(t=0.3, y=yy, u=uu, **env))

        dy = float(spec.cost.dy(t=0.3, y=y, u=u, **env))
        du = float(spec.cost.du(t=0.3, y=y, u=u, **env))
        fd_y = (val(y + eps, u) - val(y - eps, u)) / (2 * eps)
        fd_u = (val(y, u + eps) - val(y, u - eps)) / (2 * eps)
        assert dy == pytest.approx(fd_y, rel=1e-5, abs=1e-5)
        assert du == pytest.approx(fd_u, rel=1e-5, abs=1e-5)

    @given(y=st.floats(-2.0, 2.0, allow_nan=False))
    def test_reaction_derivative_fd(self, y):
        spec = builtin_problem("tracking_box_1d")
        eps = 1e-6
        fd = (spec.nonlinearity.f(y=y + eps) - spec.nonlinearity.f(y=y - eps)) / (
            2 * eps
        )
        assert spec.nonlinearity.df(y=y) == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestHypothesisValidation:
    def test_catalog_problems_pass(self):
        for name in CATALOG:
            spec = builtin_problem(name)
            box = builtin_audit_box(name)
            rep = validate_hypotheses(spec, box[0], box[1])
            assert rep.pass_ellipticity, name
            assert rep.pass_reaction, name
            assert rep.pass_strong_convexity, name
            assert rep.sample_count == 2048 + 2 ** (spec.dim + 3)

    @pytest.mark.parametrize("name, body, smallest", [
        (*DIFFUSION_LAYOUTS[0], 1.0),
        (*DIFFUSION_LAYOUTS[1], 1.5),
        (*DIFFUSION_LAYOUTS[2], (3.0 - np.sqrt(2.0)) / 2.0),
        ("tracking_box_2d", "a11 = 1\na12 = 2\na22 = 1", -1.0),
    ], ids=["1d", "2d", "2d-cross", "2d-indefinite"])
    def test_ellipticity_is_the_smallest_eigenvalue_over_the_sample(self, name, body,
                                                                    smallest):
        """The corner x = 0 of the sample holds the minimum of a11 = 1 + x1
        and of 2 + x1 against 1.5; [[2, 0.5], [0.5, 1]] has the eigenvalues
        (3 -+ sqrt 2)/2 and [[1, 2], [2, 1]] has -1 and 3."""
        rep = validate_hypotheses(loads(with_diffusion(name, body)), (-1, 1), (-1, 1))
        assert rep.ellipticity_min == smallest
        assert rep.pass_ellipticity == (smallest > 0)
        assert rep.all_passed == (smallest > 0)

    @pytest.mark.parametrize("name", ["tracking_box_1d", "tracking_box_2d"])
    def test_an_initial_state_with_a_pole_is_refused(self, name):
        """The sample's point 1 has x1 = 0.5, where y0 = 1/(x1 - 0.5) divides
        by zero."""
        text = builtin_problem_text(name)
        assert "[y0]\nexpr = 0\n" in text
        spec = loads(text.replace("[y0]\nexpr = 0\n", "[y0]\nexpr = 1/(x1 - 0.5)\n"))
        with np.errstate(divide="ignore"):
            with pytest.raises(AuditError, match=r"^y0 evaluated non-finite at \(0\.5, "):
                validate_hypotheses(spec, (-1, 1), (-1, 1))

    def test_flat_control_cost_fails_convexity(self):
        text = parakkt.catalog.builtin_problem_text("tracking_box_1d").replace(
            "0.05*u^2", "0*u^2"
        )
        rep = validate_hypotheses(loads(text), (-1, 1), (-1, 1))
        assert not rep.pass_strong_convexity
        assert rep.min_luu == 0.0

    def test_report_extremes_are_recorded(self):
        spec = builtin_problem("tracking_box_1d")
        rep = validate_hypotheses(spec, (-2, 2), (-2, 2))
        assert rep.min_gu > 0.0
        assert rep.min_luu == pytest.approx(0.1, rel=1e-12)
        assert len(rep.argmin_luu) == 4

    @pytest.mark.parametrize("n", [1, 2, 7, 128, 2048])
    @pytest.mark.parametrize("dim, extents", [(1, (1.5,)), (2, (1.0, 2.5))])
    def test_sample_is_scipys_unscrambled_halton(self, dim, extents, n):
        from scipy.stats import qmc

        y_range, u_range = (-0.75, 2.0), (-3.0, 0.5)
        lows = [0.0] * dim + [0.0, y_range[0], u_range[0]]
        highs = list(extents) + [0.8, y_range[1], u_range[1]]
        d = dim + 3
        halton = qmc.scale(qmc.Halton(d=d, scramble=False).random(n), lows, highs)
        corners = [[highs[k] if (m >> k) & 1 else lows[k] for k in range(d)]
                   for m in range(2**d)]
        got = _sample_box(dim, extents, 0.8, y_range, u_range, n)
        assert np.array_equal(got, np.vstack([halton, corners]))


def level_loop(fn, grid, timegrid, y, u):
    """Reference evaluation: one map call per time level."""
    env = grid.spatial_env()
    out = np.empty((timegrid.n_levels, grid.n_interior))
    for k, t in enumerate(timegrid.times):
        out[k] = np.broadcast_to(
            np.asarray(fn(t=t, y=y[k], u=u[k], **env), dtype=float),
            (grid.n_interior,),
        )
    return out


def cylinder(dim, seed=0):
    if dim == 1:
        grid, timegrid = SpatialGrid((1.0,), (33,)), TimeGrid(65, 1.0)
    else:
        grid, timegrid = SpatialGrid((1.0, 1.0), (9, 9)), TimeGrid(17, 0.5)
    rng = np.random.default_rng(seed)
    shape = (timegrid.n_levels, grid.n_interior)
    return grid, timegrid, rng.normal(size=shape), rng.normal(size=shape)


class TestCylinderEvaluation:
    """The one broadcast call must reproduce the per-level loop bit for bit."""

    @pytest.mark.parametrize("name", CATALOG)
    def test_every_slot_matches_level_loop(self, name):
        spec = builtin_problem(name)
        grid, timegrid, y, u = cylinder(spec.dim)
        for smap in (spec.cost, spec.constraint):
            for slot in ("eval", "dy", "du", "dyy", "dyu", "duu"):
                fn = getattr(smap, slot)
                np.testing.assert_array_equal(
                    eval_scalar_map(fn, grid, timegrid, y, u),
                    level_loop(fn, grid, timegrid, y, u),
                )

    @pytest.mark.parametrize("name", CATALOG)
    def test_nonlinearity_fields_match_level_loop(self, name):
        spec = builtin_problem(name)
        grid, timegrid, y, _ = cylinder(spec.dim)
        nl = spec.nonlinearity
        for fn in (nl.f, nl.df, nl.ddf):
            ref = np.array([
                np.broadcast_to(np.asarray(fn(y=row), dtype=float), row.shape)
                for row in y
            ])
            np.testing.assert_array_equal(eval_broadcast(fn, y.shape, y=y), ref)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_time_inside_transcendentals(self, dim):
        fn = parse_expression(
            "sin(pi*t)*exp(-t*x1)*y + u^2*exp(0.5*t) - cos(3*t)*x1*u",
            SPACE_TIME_VARS(dim),
        )
        grid, timegrid, y, u = cylinder(dim, seed=1)
        np.testing.assert_array_equal(
            eval_scalar_map(fn, grid, timegrid, y, u),
            level_loop(fn, grid, timegrid, y, u),
        )

    def test_result_is_a_fresh_writable_array(self):
        grid, timegrid, y, u = cylinder(1)
        out = eval_scalar_map(parse_expression("u", SPACE_TIME_VARS(1)),
                              grid, timegrid, y, u)
        assert not np.shares_memory(out, u)
        out[0, 0] = 123.0
        assert u[0, 0] != 123.0
        const = eval_scalar_map(parse_expression("2", SPACE_TIME_VARS(1)),
                                grid, timegrid, y, u)
        assert const.shape == u.shape and const.flags.writeable
        np.testing.assert_array_equal(const, 2.0)
