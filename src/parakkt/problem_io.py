"""Problem files: an INI dialect read with configparser.

Sections: ``[problem]`` (name), ``[domain]`` (dim, extent1[, extent2], T),
``[y0]`` (expr), ``[f]`` (expr, C_f), ``[L]`` and ``[g]`` (expr), optional
``[a]`` (a11[, a12, a22]), and ``[constants]`` (gamma1, gamma2).  All scalar
maps are expressions in the mini-language of :mod:`parakkt.expressions`.
The derivatives f', f'' and the first and second derivatives of L and g in
(y, u) are derived from ``expr``; a key that still states one (``[f] df``,
``[L] dyu``, ...) must match it on a fixed Halton sample of the cylinder.
Saving a loaded problem emits one ``expr`` per map, verbatim, so files
survive a round trip unchanged once they are in canonical form.
"""

from __future__ import annotations

import configparser
import io

import numpy as np

from .exceptions import ProblemIOError
from .expressions import SPACE_TIME_VARS, derivative, parse_expression
from .problem import (Nonlinearity, ProblemSpec, ScalarMap2, _fmt_point,
                      _map_env, _sample_box, eval_broadcast)

__all__ = ["load_problem", "loads", "dumps"]


def _parser():
    cp = configparser.ConfigParser(strict=True, interpolation=None)
    cp.optionxform = str
    return cp


def _need(cp, section, key, path):
    if not cp.has_option(section, key):
        raise ProblemIOError(f"{path}: missing key {key!r} in section [{section}]")
    return cp.get(section, key)


def _float(cp, section, key, path):
    raw = _need(cp, section, key, path)
    try:
        return float(raw)
    except ValueError:
        raise ProblemIOError(
            f"{path}: key {key!r} in [{section}] is not a number: {raw!r}"
        ) from None


def loads(text: str, source: str = "<string>") -> ProblemSpec:
    cp = _parser()
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ProblemIOError(f"{source}: {exc}") from exc
    for section in ("problem", "domain", "y0", "f", "L", "g", "constants"):
        if not cp.has_section(section):
            raise ProblemIOError(f"{source}: missing section [{section}]")
    name = _need(cp, "problem", "name", source).strip()
    if not name:
        raise ProblemIOError(f"{source}: empty problem name")
    try:
        dim = int(_need(cp, "domain", "dim", source))
    except ValueError:
        raise ProblemIOError(f"{source}: dim is not an integer") from None
    if dim not in (1, 2):
        raise ProblemIOError(f"{source}: dim must be 1 or 2, got {dim}")
    extents = [_float(cp, "domain", "extent1", source)]
    if dim == 2:
        extents.append(_float(cp, "domain", "extent2", source))
    horizon = _float(cp, "domain", "T", source)

    x_vars = ("x1",) if dim == 1 else ("x1", "x2")
    full_vars = SPACE_TIME_VARS(dim)

    def expr(section, key, allowed):
        return parse_expression(
            _need(cp, section, key, source), allowed, name=f"[{section}] {key}"
        )

    initial_state = expr("y0", "expr", x_vars)
    f = expr("f", "expr", ("y",))
    df = derivative(f, "y")
    nonlin = Nonlinearity(f=f, df=df, ddf=derivative(df, "y"),
                          lower_slope=_float(cp, "f", "C_f", source))

    def scalar_map(section):
        val = expr(section, "expr", full_vars)
        dy, du = derivative(val, "y"), derivative(val, "u")
        return ScalarMap2(eval=val, dy=dy, du=du, dyy=derivative(dy, "y"),
                          dyu=derivative(dy, "u"), duu=derivative(du, "u"))

    cost = scalar_map("L")
    constraint = scalar_map("g")

    diffusion = None
    if cp.has_section("a"):
        if dim == 1:
            diffusion = ((expr("a", "a11", x_vars),),)
            for stray in ("a12", "a22"):
                if cp.has_option("a", stray):
                    raise ProblemIOError(
                        f"{source}: key {stray!r} in [a] is not valid in one dimension"
                    )
        else:
            a11 = expr("a", "a11", x_vars)
            a22 = expr("a", "a22", x_vars)
            a12 = expr("a", "a12", x_vars) if cp.has_option("a", "a12") else None
            diffusion = ((a11, a12), (a12, a22))

    gamma1 = _float(cp, "constants", "gamma1", source)
    gamma2 = _float(cp, "constants", "gamma2", source)
    # ProblemSpec refuses bad numbers: gamma1, gamma2, C_f, extents and T.
    spec = ProblemSpec(
        name=name,
        dim=dim,
        extents=tuple(extents),
        horizon=horizon,
        nonlinearity=nonlin,
        cost=cost,
        constraint=constraint,
        initial_state=initial_state,
        gamma1=gamma1,
        gamma2=gamma2,
        diffusion=diffusion,
    )
    # A stated derivative key is outside input: it must equal the derived map
    # on a fixed sample, up to the rounding of an equal but reordered formula.
    pts = _sample_box(dim, spec.extents, spec.horizon, (-2.0, 2.0), (-2.0, 2.0), 64)
    env = _map_env(dim, pts)
    for section, key, derived in [("f", "df", df), ("f", "ddf", nonlin.ddf)] + [
            (section, key, getattr(m, key)) for section, m in (("L", cost), ("g", constraint))
            for key in ("dy", "du", "dyy", "dyu", "duu")]:
        if cp.has_option(section, key):
            with np.errstate(all="ignore"):
                a, b = (eval_broadcast(fn, (len(pts),), **env)
                        for fn in (expr(section, key, full_vars), derived))
            off = ~np.isclose(a, b, rtol=1e-9, atol=1e-9, equal_nan=True)
            if off.any():
                i = int(np.argmax(off))
                raise ProblemIOError(
                    f"{source}: [{section}] {key} is not the derivative of [{section}] "
                    f"expr: {a[i]:.6g} against {b[i]:.6g} at {_fmt_point(pts[i])}")
    return spec


def load_problem(path) -> ProblemSpec:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemIOError(f"cannot read problem file {path}: {exc}") from exc
    return loads(text, source=str(path))


def _source_of(fn, what):
    src = getattr(fn, "source", None)
    if src is None:
        raise ProblemIOError(
            f"cannot serialize {what}: it was not built from an expression"
        )
    return src


def _num(value):
    # The shortest text that reads back as the same float: 0.1, not 0.1...01.
    return repr(float(value)).removesuffix(".0")


def dumps(spec: ProblemSpec) -> str:
    """Canonical text form of a problem; inverse of :func:`loads`."""
    out = io.StringIO()

    def section(title, pairs):
        out.write(f"[{title}]\n")
        for key, val in pairs:
            out.write(f"{key} = {val}\n")
        out.write("\n")

    section("problem", [("name", spec.name)])
    dom = [("dim", spec.dim), ("extent1", _num(spec.extents[0]))]
    if spec.dim == 2:
        dom.append(("extent2", _num(spec.extents[1])))
    dom.append(("T", _num(spec.horizon)))
    section("domain", dom)
    section("y0", [("expr", _source_of(spec.initial_state, "y0"))])
    section("f", [
        ("expr", _source_of(spec.nonlinearity.f, "f")),
        ("C_f", _num(spec.nonlinearity.lower_slope)),
    ])
    section("L", [("expr", _source_of(spec.cost.eval, "L"))])
    section("g", [("expr", _source_of(spec.constraint.eval, "g"))])
    if spec.diffusion is not None:
        pairs = [("a11", _source_of(spec.diffusion[0][0], "a11"))]
        if spec.dim == 2:
            if spec.diffusion[0][1] is not None:
                pairs.append(("a12", _source_of(spec.diffusion[0][1], "a12")))
            pairs.append(("a22", _source_of(spec.diffusion[1][1], "a22")))
        section("a", pairs)
    section("constants", [
        ("gamma1", _num(spec.gamma1)),
        ("gamma2", _num(spec.gamma2)),
    ])
    return out.getvalue().rstrip("\n") + "\n"
