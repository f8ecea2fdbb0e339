"""Expression grammar: parsing, evaluation, and error reporting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parakkt import parse_expression
from parakkt.expressions import derivative
from parakkt.exceptions import GrammarError


def ev(source, allowed=(), **env):
    return parse_expression(source, allowed)(**env)


class TestArithmetic:
    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14.0
        assert ev("(2 + 3) * 4") == 20.0
        assert ev("7 / 2") == 3.5
        assert ev("2 - 3 - 1") == -2.0

    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2") == -4.0
        assert ev("(-2)^2") == 4.0

    def test_unary_minus(self):
        assert ev("-3 + 5") == 2.0
        assert ev("2 * -3") == -6.0

    def test_pi_constant(self):
        assert ev("pi") == pytest.approx(math.pi, abs=0.0)
        assert ev("sin(pi)") == pytest.approx(0.0, abs=1e-15)

    def test_builtin_functions(self):
        assert ev("sin(pi/2)") == pytest.approx(1.0)
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e)
        assert ev("abs(-3)") == 3.0

    def test_min_max_two_args(self):
        assert ev("min(2, 5)") == 2.0
        assert ev("max(2, 5)") == 5.0
        assert ev("min(1 + 1, 1)") == 1.0

    def test_numbers_follow_numpy_semantics(self):
        """A constant division by zero is inf and 0*inf is nan, as for arrays,
        instead of a ``ZeroDivisionError``."""
        with np.errstate(all="ignore"):
            assert ev("1/0") == np.inf
            assert np.isnan(ev("u - 0.4 + 0*(1/0)", ("u",), u=1.0))
            assert np.isnan(ev("(-8)^(1/3)"))      # not a complex number

    def test_constant_subtrees_are_taken_once_at_compile_time(self):
        """A subtree without variables is computed when the expression is
        compiled, with the same float64 operations and without a warning;
        an operation on a variable still warns at the call."""
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = parse_expression("u - 0.4 + 0*(1/0)", ("u",))
            assert np.isnan(fn(u=1.0))
            assert np.isnan(ev("(-8)^(1/3)"))
            scaled = parse_expression("sin(0.7)*exp(1.3)/3 - max(2, -pi)^0.5*u", ("u",))
            with pytest.raises(RuntimeWarning):
                ev("u/0", ("u",), u=np.float64(1.0))
        c, half, u = np.float64(0.7), np.float64(0.5), np.float64(0.3)
        expected = (np.sin(c) * np.exp(np.float64(1.3)) / np.float64(3)
                    - np.maximum(np.float64(2), -np.float64(np.pi)) ** half * u)
        assert scaled(u=u).tobytes() == expected.tobytes()


class TestVariables:
    def test_scalar_env(self):
        assert ev("x1 * t", ("x1", "t"), x1=2.0, t=3.0) == 6.0

    def test_vectorized_env(self):
        xs = np.array([1.0, 2.0, 4.0])
        out = ev("x1^2 + t", ("x1", "t"), x1=xs, t=1.0)
        np.testing.assert_allclose(out, xs**2 + 1.0)

    def test_free_variables_recorded(self):
        fn = parse_expression("y + u * t", ("y", "u", "t", "x1"))
        assert fn.variables == frozenset({"y", "u", "t"})

    def test_extra_keywords_ignored(self):
        fn = parse_expression("y + 1", ("y",))
        assert fn(y=1.0, unused=99.0) == 2.0


class TestErrors:
    def test_out_of_scope_name(self):
        with pytest.raises(GrammarError, match=r"name 'y' is not in scope"):
            parse_expression("y + 1", ("t", "x1"), name="q")

    def test_error_carries_label_and_source(self):
        with pytest.raises(GrammarError, match=r"q:.*'y \+ 1'"):
            parse_expression("y + 1", ("t", "x1"), name="q")

    def test_min_arity(self):
        with pytest.raises(GrammarError, match="min takes two arguments"):
            parse_expression("min(1, 2, 3)", ())

    def test_unknown_function(self):
        with pytest.raises(GrammarError, match="unknown function 'frob'"):
            parse_expression("frob(1)", ())

    def test_truncated_input(self):
        with pytest.raises(GrammarError, match="unexpected token"):
            parse_expression("u -", ("u",))

    def test_empty_input(self):
        with pytest.raises(GrammarError, match="empty expression"):
            parse_expression("   ", ())

    def test_unbalanced_parens(self):
        with pytest.raises(GrammarError):
            parse_expression("(1 + 2", ())


@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
)
def test_matches_python_arithmetic(a, b):
    fn = parse_expression("a*b + a - b + abs(a)", ("a", "b"))
    assert fn(a=a, b=b) == pytest.approx(a * b + a - b + abs(a), rel=1e-12, abs=1e-12)


@given(x=st.floats(0.1, 3.0, allow_nan=False))
def test_power_matches_python(x):
    fn = parse_expression("x1^3", ("x1",))
    assert fn(x1=x) == pytest.approx(x**3, rel=1e-14)


def tree(source, allowed=("x1", "t", "y", "u")):
    return parse_expression(source, allowed).tree


def d(source, var, allowed=("x1", "t", "y", "u")):
    return derivative(parse_expression(source, allowed), var)


def central(fn, env, var, h=1e-6):
    up, down = dict(env), dict(env)
    up[var] += h
    down[var] -= h
    return (fn(**up) - fn(**down)) / (2 * h)


class TestDerivative:
    def test_a_box_constraint_has_the_literal_zero_y_derivative(self):
        dg = d("u - 0.4", "y")
        assert dg.tree == ("num", 0.0)
        assert math.copysign(1.0, dg.tree[1]) == 1.0
        assert d("u - 0.4", "u").tree == ("num", 1.0)

    @pytest.mark.parametrize("source, var, expected", [
        ("y^3", "y", "3*y^2"),
        ("0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2", "y", "y - 0.8*sin(pi*x1)"),
        ("0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2", "u", "0.1*u"),
        ("u + 0.25*y^3 - 0.4", "y", "0.75*y^2"),
    ])
    def test_folded_trees_equal_the_hand_written_ones(self, source, var, expected):
        assert d(source, var).tree == tree(expected)

    def test_negation_folds_into_the_constant_factor(self):
        assert d("-u", "u").tree == ("num", -1.0)
        assert d("-(y^2) + u", "y").tree == ("bin", "*", ("num", -2.0), ("var", "y"))

    def test_second_derivatives_fold_to_constants(self):
        dy = d("0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2", "y")
        assert derivative(dy, "y").tree == ("num", 1.0)
        assert derivative(dy, "u").tree == ("num", 0.0)
        assert derivative(d("y^3", "y"), "y").tree == tree("6*y")

    @pytest.mark.parametrize("source, y, u", [
        ("abs(y)", 0.7, 0.0), ("abs(y)", -0.7, 0.0), ("abs(y*u - 1)", 0.3, 0.9),
        ("min(y, u)", 0.3, 0.5), ("min(y, u)", 0.5, 0.3),
        ("max(y, u^2)", 0.3, 0.9), ("max(y, u^2)", 0.9, 0.3),
        ("y^u", 1.3, 0.7), ("2^(y*u)", 0.4, -1.1), ("(1 + y^2)^sin(u)", -0.6, 0.8),
    ])
    def test_kinked_and_variable_exponent_maps_away_from_kinks(self, source, y, u):
        fn = parse_expression(source, ("y", "u"))
        env = {"y": y, "u": u}
        for var in ("y", "u"):
            assert float(derivative(fn, var)(**env)) == pytest.approx(
                central(fn, env, var), rel=1e-7, abs=1e-9)

    def test_at_a_kink_the_first_argument_wins(self):
        env = {"y": 0.5, "u": 0.5}
        assert float(d("abs(y - u)", "y")(**env)) == 0.0
        for name in ("min", "max"):
            assert float(d(f"{name}(y, u)", "y")(**env)) == 1.0
            assert float(d(f"{name}(y, u)", "u")(**env)) == 0.0

    @pytest.mark.parametrize("name", ["sign", "log"])
    def test_internal_nodes_are_not_in_the_grammar(self, name):
        with pytest.raises(GrammarError, match=f"unknown function '{name}'"):
            parse_expression(f"{name}(y)", ("y",))


def _grammar():
    leaves = st.one_of(
        st.sampled_from(["y", "u"]),
        st.floats(-2.0, 2.0, allow_nan=False).map(lambda c: f"({c!r})"),
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            # The denominator stays at least 1, so the quotient rule is
            # exercised with a varying divisor but no pole.
            st.tuples(inner, inner).map(lambda t: f"({t[0]} / (1 + ({t[1]})^2))"),
            st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@given(source=_grammar(), y=st.floats(-1.0, 1.0), u=st.floats(-1.0, 1.0))
def test_derivatives_match_central_differences(source, y, u):
    """First derivatives in y and u, and the mixed second derivative."""
    fn = parse_expression(source, ("y", "u"))
    env = {"y": y, "u": u}
    for first in ("y", "u"):
        dfn = derivative(fn, first)
        for target, var in ((fn, first), (dfn, "u")):
            assert float(derivative(target, var)(**env)) == pytest.approx(
                central(target, env, var), rel=1e-6, abs=1e-6)
