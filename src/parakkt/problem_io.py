"""Problem files: an INI dialect read with configparser.

Sections: ``[problem]`` (name), ``[domain]`` (dim, extent1[, extent2], T),
``[y0]`` (expr), ``[f]`` (expr, df, ddf, C_f), ``[L]`` and ``[g]`` (expr,
dy, du, dyy, dyu, duu), optional ``[a]`` (a11[, a12, a22]), and
``[constants]`` (gamma1, gamma2).  All scalar maps are expressions in the
mini-language of :mod:`parakkt.expressions`; saving a loaded problem emits
the expression sources verbatim, so files survive a round trip unchanged
once they are in canonical section order.
"""

from __future__ import annotations

import configparser
import io

from .exceptions import ProblemIOError
from .expressions import SPACE_TIME_VARS, parse_expression
from .problem import Nonlinearity, ProblemSpec, ScalarMap2

__all__ = ["load_problem", "loads", "dumps"]

_MAP_KEYS = ("expr", "dy", "du", "dyy", "dyu", "duu")


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
    nonlin = Nonlinearity(
        f=expr("f", "expr", ("y",)),
        df=expr("f", "df", ("y",)),
        ddf=expr("f", "ddf", ("y",)),
        lower_slope=_float(cp, "f", "C_f", source),
    )

    def scalar_map(section):
        keys = dict(zip(_MAP_KEYS, ("eval", "dy", "du", "dyy", "dyu", "duu")))
        return ScalarMap2(**{
            slot: expr(section, key, full_vars) for key, slot in keys.items()
        })

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
    if gamma1 <= 0 or gamma2 <= 0:
        raise ProblemIOError(f"{source}: gamma1 and gamma2 must be positive")

    return ProblemSpec(
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


def dumps(spec: ProblemSpec) -> str:
    """Canonical text form of a problem; inverse of :func:`loads`."""
    out = io.StringIO()

    def section(title, pairs):
        out.write(f"[{title}]\n")
        for key, val in pairs:
            out.write(f"{key} = {val}\n")
        out.write("\n")

    section("problem", [("name", spec.name)])
    dom = [("dim", spec.dim), ("extent1", "%.17g" % spec.extents[0])]
    if spec.dim == 2:
        dom.append(("extent2", "%.17g" % spec.extents[1]))
    dom.append(("T", "%.17g" % spec.horizon))
    section("domain", dom)
    section("y0", [("expr", _source_of(spec.initial_state, "y0"))])
    section("f", [
        ("expr", _source_of(spec.nonlinearity.f, "f")),
        ("df", _source_of(spec.nonlinearity.df, "f.df")),
        ("ddf", _source_of(spec.nonlinearity.ddf, "f.ddf")),
        ("C_f", "%.17g" % spec.nonlinearity.lower_slope),
    ])
    for title, m in (("L", spec.cost), ("g", spec.constraint)):
        slots = ("eval", "dy", "du", "dyy", "dyu", "duu")
        section(title, [
            (key, _source_of(getattr(m, slot), f"{title}.{key}"))
            for key, slot in zip(_MAP_KEYS, slots)
        ])
    if spec.diffusion is not None:
        pairs = [("a11", _source_of(spec.diffusion[0][0], "a11"))]
        if spec.dim == 2:
            if spec.diffusion[0][1] is not None:
                pairs.append(("a12", _source_of(spec.diffusion[0][1], "a12")))
            pairs.append(("a22", _source_of(spec.diffusion[1][1], "a22")))
        section("a", pairs)
    section("constants", [
        ("gamma1", "%.17g" % spec.gamma1),
        ("gamma2", "%.17g" % spec.gamma2),
    ])
    return out.getvalue().rstrip("\n") + "\n"
