"""Built-in problems, stored as problem-file text.

Keeping the catalog in the file format (rather than as hand-assembled
objects) means every built-in can be exported, edited, and reloaded with the
same code path users exercise, and the loader never rots.
"""

from __future__ import annotations

from functools import lru_cache

from .exceptions import CatalogError
from .problem import ProblemSpec
from . import problem_io

__all__ = ["catalog_names", "builtin_problem", "builtin_problem_text",
           "builtin_audit_box"]

_TRACKING_BOX_1D = """\
[problem]
name = tracking_box_1d

[domain]
dim = 1
extent1 = 1
T = 1

[y0]
expr = 0

[f]
expr = y^3
C_f = 0

[L]
expr = 0.5*(y - 0.8*sin(pi*x1))^2 + 0.05*u^2

[g]
expr = u - 0.4

[constants]
gamma1 = 0.1
gamma2 = 1
"""

_TRACKING_BOX_2D = """\
[problem]
name = tracking_box_2d

[domain]
dim = 2
extent1 = 1
extent2 = 1
T = 0.5

[y0]
expr = 0

[f]
expr = y^3
C_f = 0

[L]
expr = 0.5*(y - 3*sin(pi*x1)*sin(pi*x2))^2 + 0.05*u^2

[g]
expr = u - 0.5

[constants]
gamma1 = 0.1
gamma2 = 1
"""

_EXAMPLE31_POLY = """\
[problem]
name = example31_poly

[domain]
dim = 1
extent1 = 1
T = 1

[y0]
expr = 0

[f]
expr = y^3
C_f = 0

[L]
expr = 0.5*(y - sin(pi*x1)*(1 + t))^2 + 0.05*u^2

[g]
expr = y^4*u^3 + (y^2 + 1)*u

[constants]
gamma1 = 0.1
gamma2 = 1
"""

_MMS_CUBIC_1D = """\
[problem]
name = mms_cubic_1d

[domain]
dim = 1
extent1 = 1
T = 1

[y0]
expr = sin(pi*x1)

[f]
expr = y^3
C_f = 0

[L]
expr = 0.5*y^2 + 0.05*u^2

[g]
expr = u - 100

[constants]
gamma1 = 0.1
gamma2 = 1
"""

_STRICTLY_FEASIBLE_1D = """\
[problem]
name = strictly_feasible_1d

[domain]
dim = 1
extent1 = 1
T = 1

[y0]
expr = 0

[f]
expr = y
C_f = 1

[L]
expr = 0.5*(y - 0.5*sin(pi*x1))^2 + 0.05*u^2

[g]
expr = u - 10

[constants]
gamma1 = 0.1
gamma2 = 1
"""

_TEXTS = {
    "tracking_box_1d": _TRACKING_BOX_1D,
    "tracking_box_2d": _TRACKING_BOX_2D,
    "example31_poly": _EXAMPLE31_POLY,
    "mms_cubic_1d": _MMS_CUBIC_1D,
    "strictly_feasible_1d": _STRICTLY_FEASIBLE_1D,
}

# (y_range, u_range) boxes over which the structural audits sample.
_AUDIT_BOXES = {
    "tracking_box_1d": ((-6.0, 6.0), (-6.0, 6.0)),
    "tracking_box_2d": ((-6.0, 6.0), (-6.0, 6.0)),
    "example31_poly": ((-2.0, 2.0), (-2.0, 2.0)),
    "mms_cubic_1d": ((-4.0, 4.0), (-20.0, 20.0)),
    "strictly_feasible_1d": ((-4.0, 4.0), (-12.0, 12.0)),
}


def catalog_names() -> tuple:
    return tuple(sorted(_TEXTS))


def builtin_problem_text(name: str) -> str:
    if name not in _TEXTS:
        raise CatalogError(
            f"unknown built-in problem {name!r}; available: "
            + ", ".join(catalog_names())
        )
    return _TEXTS[name]


@lru_cache(maxsize=None)
def builtin_problem(name: str) -> ProblemSpec:
    return problem_io.loads(builtin_problem_text(name), source=f"<builtin:{name}>")


def builtin_audit_box(name: str):
    if name not in _AUDIT_BOXES:
        raise CatalogError(
            f"unknown built-in problem {name!r}; available: "
            + ", ".join(catalog_names())
        )
    return _AUDIT_BOXES[name]
