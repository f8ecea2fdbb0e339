"""Closed-form expression mini-language for problem data.

Problem definitions carry their data maps as infix expression strings.  The
grammar is small on purpose: it is the exchange format for problem files and
must stay readable and round-trippable.

::

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := ("+" | "-") unary | power
    power  := atom ("^" unary)?          right associative
    atom   := NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Functions: ``sin``, ``cos``, ``exp``, ``abs`` (one argument) and ``min``,
``max`` (two arguments).  The constant ``pi`` is predefined.  Which variable
names are in scope depends on the role of the expression: data maps over the
space-time cylinder see ``x1`` (plus ``x2`` in two dimensions), ``t``, ``y``
and ``u``; nonlinearities see only ``y``; initial data and diffusion
coefficients see only the spatial variables.

Compiled expressions evaluate with numpy semantics, so any argument may be a
scalar or an array and broadcasting applies.  The original source text is
kept on the compiled object; serializing a compiled expression reproduces
that text verbatim, which is what makes problem files round-trip exactly.

:func:`derivative` differentiates the parse tree.  It folds constant operands
and drops the identities 0 and 1 as it builds, so d(u - 0.4)/dy is the literal
0 and d(0.05*u^2)/du is 0.1*u.  Its trees may hold three nodes the grammar
does not accept: ``sign`` and ``log`` calls and a selector ("le", a, b, x, z),
which is x where a <= b and z elsewhere.
"""

from __future__ import annotations

import operator
import re

import numpy as np

from .exceptions import GrammarError

__all__ = ["ExprFunc", "derivative", "parse_expression", "SPACE_TIME_VARS"]

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)|,)"
    r")"
)

_UNARY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}
_BINARY_FUNCS = {"min": np.minimum, "max": np.maximum}
_EVAL1 = {**_UNARY_FUNCS, "sign": np.sign, "log": np.log}
_EVAL2 = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv, "^": operator.pow, **_BINARY_FUNCS}
_CONSTANTS = {"pi": np.pi}


def SPACE_TIME_VARS(dim: int) -> tuple:
    """Variable names legal in a space-time data map of the given dimension."""
    if dim == 1:
        return ("x1", "t", "y", "u")
    return ("x1", "x2", "t", "y", "u")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            tail = source[pos:].strip()
            if not tail:
                break
            raise GrammarError(
                f"unrecognized input at position {pos}: {tail[:12]!r}"
            )
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, allowed, source):
        self.tokens = tokens
        self.k = 0
        self.allowed = frozenset(allowed)
        self.source = source

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise GrammarError(f"expected {op!r} in {self.source!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        kind, val = self.peek()
        if kind != "end":
            raise GrammarError(f"trailing input {val!r} in {self.source!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = ("bin", op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = ("bin", op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.unary())
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return ("bin", "^", base, self.unary())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if self.peek() == ("op", "("):
                return self.call(val)
            if val in _CONSTANTS:
                return ("num", _CONSTANTS[val])
            if val not in self.allowed:
                raise GrammarError(
                    f"name {val!r} is not in scope here (allowed: "
                    f"{', '.join(sorted(self.allowed))}) in {self.source!r}"
                )
            return ("var", val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise GrammarError(f"unexpected token {val!r} in {self.source!r}")

    def call(self, fname):
        self.expect_op("(")
        args = [self.expr()]
        while self.peek() == ("op", ","):
            self.take()
            args.append(self.expr())
        self.expect_op(")")
        if fname in _UNARY_FUNCS:
            if len(args) != 1:
                raise GrammarError(f"{fname} takes one argument in {self.source!r}")
            return ("call1", fname, args[0])
        if fname in _BINARY_FUNCS:
            if len(args) != 2:
                raise GrammarError(f"{fname} takes two arguments in {self.source!r}")
            return ("call2", fname, args[0], args[1])
        raise GrammarError(f"unknown function {fname!r} in {self.source!r}")


def _free_vars(node, out):
    if node[0] == "var":
        out.add(node[1])
    for child in node[1:]:
        if isinstance(child, tuple):
            _free_vars(child, out)
    return out


def _compile(node):
    tag = node[0]
    if tag == "num":
        v = np.float64(node[1])   # 1/0 gives inf where a Python float raises
        return lambda env: v
    if tag == "var":
        n = node[1]
        return lambda env: env[n]
    args = [_compile(arg) for arg in node[1:] if isinstance(arg, tuple)]
    if tag == "neg":
        a, = args
        compiled = lambda env: -a(env)
    elif tag == "le":
        a, b, x, z = args
        compiled = lambda env: np.where(a(env) <= b(env), x(env), z(env))
    elif tag == "call1":
        fn, (a,) = _EVAL1[node[1]], args
        compiled = lambda env: fn(a(env))
    else:
        fn, (a, b) = _EVAL2[node[1]], args
        compiled = lambda env: fn(a(env), b(env))
    if _free_vars(node, set()):
        return compiled
    # A subtree without variables is the same float64 operation on every
    # call: it is taken once, here, where an inf or nan it makes warns no one.
    with np.errstate(all="ignore"):
        v = compiled({})
    return lambda env: v


class ExprFunc:
    """A compiled expression and its parse tree.

    Call with keyword arguments naming the variables, e.g.
    ``f(x1=xs, t=0.5, y=ys, u=us)``.  Extra keywords are ignored, missing
    ones raise ``KeyError`` only if the expression actually references them.
    """

    __slots__ = ("source", "tree", "variables", "_fn")

    def __init__(self, source: str, tree: tuple):
        self.source = source
        self.tree = tree
        self.variables = frozenset(_free_vars(tree, set()))
        self._fn = _compile(tree)

    def __call__(self, **env):
        return self._fn(env)

    def __repr__(self):
        return f"ExprFunc({self.source!r})"


ZERO, ONE = ("num", 0.0), ("num", 1.0)


def _fold(fn, *values):
    # numpy scalars give inf or nan where floats raise; + 0.0 turns -0.0 to 0.0.
    with np.errstate(all="ignore"):
        return ("num", float(fn(*map(np.float64, values))) + 0.0)


def _bin(op, a, b):
    if a[0] == "num" and b[0] == "num":
        return _fold(_EVAL2[op], a[1], b[1])
    if op == "*" and b[0] == "num":
        a, b = b, a  # IEEE products commute; keep the constant on the left
    if (op == "+" and a == ZERO) or (op == "*" and a == ONE):
        return b
    if (op in "+-" and b == ZERO) or (op in "/^" and b == ONE):
        return a
    if op == "-" and a == ZERO:
        return _bin("*", ("num", -1.0), b)
    if op in "*/" and a == ZERO:
        return ZERO
    if op == "^" and b == ZERO:
        return ONE
    if op == "*" and a[0] == "num" and b[:2] == ("bin", "*") and b[2][0] == "num":
        return _bin("*", _bin("*", a, b[2]), b[3])
    return ("bin", op, a, b)


def _d(node, var):
    if var not in _free_vars(node, set()):
        return ZERO
    tag = node[0]
    if tag == "var":
        return ONE
    if tag == "neg":
        return _bin("-", ZERO, _d(node[1], var))
    if tag == "call2":  # min(a, b) selects a where a <= b, max where b <= a
        _, name, a, b = node
        node = ("le", a, b, a, b) if name == "min" else ("le", b, a, a, b)
    if node[0] == "le":
        x, z = _d(node[3], var), _d(node[4], var)
        return x if x == z else ("le", node[1], node[2], x, z)
    if tag == "call1":
        _, name, a = node
        outer = {"sin": ("call1", "cos", a), "cos": ("neg", ("call1", "sin", a)),
                 "exp": node, "abs": ("call1", "sign", a),
                 "log": ("bin", "/", ONE, a), "sign": ZERO}[name]
        return _bin("*", outer, _d(a, var))
    _, op, a, b = node
    da, db = _d(a, var), _d(b, var)
    if op in "+-":
        return _bin(op, da, db)
    if op == "*":
        return _bin("+", _bin("*", da, b), _bin("*", a, db))
    if op == "/":
        return _bin("-", _bin("/", da, b), _bin("/", _bin("*", a, db), _bin("*", b, b)))
    # d(a^b) = b a^(b-1) da + a^b log(a) db; a constant b drops the log term.
    return _bin("+", _bin("*", _bin("*", b, _bin("^", a, _bin("-", b, ONE))), da),
                _bin("*", _bin("*", node, ("call1", "log", a)), db))


def derivative(fn: ExprFunc, var: str) -> ExprFunc:
    """The partial derivative d fn / d ``var``, differentiated on the tree.

    At a kink ``abs`` takes the derivative 0, and ``min`` and ``max`` take
    the derivative of their first argument.
    """
    return ExprFunc(f"d({fn.source})/d{var}", _d(fn.tree, var))


def parse_expression(source: str, allowed, name: str = "expression") -> ExprFunc:
    """Compile ``source`` against the variable scope ``allowed``.

    Raises :class:`GrammarError` on malformed input or out-of-scope names.
    ``name`` is used only to improve error messages.
    """
    if not isinstance(source, str) or not source.strip():
        raise GrammarError(f"{name}: empty expression")
    try:
        tokens = _tokenize(source)
        node = _Parser(tokens, allowed, source).parse()
    except GrammarError as err:
        raise GrammarError(f"{name}: {err}") from None
    return ExprFunc(source.strip(), node)
