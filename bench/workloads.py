"""Workloads of the benchmark: generated problems, grids and operations.

An operation is one generated problem on one grid: ``solve_ocp`` followed by
the audit its kind names.  A round is one pass over a workload's operations
in a fixed order.  Problems are written as problem-file text and built with
``parakkt.loads``; every number in them comes from the run's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TOL = 1e-8        # the one KKT tolerance of every solve in the benchmark
ALPHA = 0.1       # control weight: L = 0.5 (y - a s(x))^2 + 0.5 ALPHA u^2
CRITICAL_SEEDS = 3
GROWTH_TRIALS = 50


@dataclass(frozen=True)
class Problem:
    """Tracking problem with target a s(x) and constraint u + c y^3 - b <= 0.

    s(x) is sin(pi x1) in one dimension and sin(pi x1) sin(pi x2) in two;
    c = 0 gives the box family u <= b.
    """

    dim: int
    a: float
    b: float
    c: float = 0.0

    @property
    def horizon(self) -> float:
        return 1.0 if self.dim == 1 else 0.5

    @property
    def name(self) -> str:
        family = "mixed_cubic" if self.c else "tracking_box"
        return f"{family}_{self.dim}d"

    def text(self) -> str:
        shape = "sin(pi*x1)" if self.dim == 1 else "sin(pi*x1)*sin(pi*x2)"
        extents = "extent1 = 1\n" if self.dim == 1 else "extent1 = 1\nextent2 = 1\n"
        if self.c:
            g = (f"expr = u + {self.c!r}*y^3 - {self.b!r}\n"
                 f"dy = 3*{self.c!r}*y^2\ndu = 1\n"
                 f"dyy = 6*{self.c!r}*y\ndyu = 0\nduu = 0\n")
        else:
            g = f"expr = u - {self.b!r}\ndy = 0\ndu = 1\ndyy = 0\ndyu = 0\nduu = 0\n"
        target = f"{self.a!r}*{shape}"
        return (
            f"[problem]\nname = {self.name}\n\n"
            f"[domain]\ndim = {self.dim}\n{extents}T = {self.horizon!r}\n\n"
            "[y0]\nexpr = 0\n\n"
            "[f]\nexpr = y^3\ndf = 3*y^2\nddf = 6*y\nC_f = 0\n\n"
            f"[L]\nexpr = 0.5*(y - {target})^2 + {0.5 * ALPHA!r}*u^2\n"
            f"dy = y - {target}\ndu = {ALPHA!r}*u\ndyy = 1\ndyu = 0\n"
            f"duu = {ALPHA!r}\n\n"
            f"[g]\n{g}\n"
            "[constants]\ngamma1 = 0.1\ngamma2 = 1\n"
        )


@dataclass(frozen=True)
class Operation:
    """One problem on one grid, and the audit that follows its solve.

    ``kind`` is ``certify`` (first-order audit), ``second_order`` (the audits
    of the soc and holder verbs) or ``oracle`` (stacked-NLP cross-check).
    """

    kind: str
    problem: Problem
    nodes: int          # nodes per axis, the two boundary nodes included
    levels: int
    seeds: tuple = field(default=())

    @property
    def label(self) -> str:
        space = f"{self.nodes}" if self.problem.dim == 1 else f"{self.nodes}^2"
        return f"{self.kind}:{self.problem.name}:{space}x{self.levels}"

    @property
    def space_time_nodes(self) -> int:
        return self.levels * (self.nodes - 2) ** self.problem.dim


def _draw(rng, lo, hi):
    # Four decimals, so the problem text holds the drawn value exactly.
    return round(float(rng.uniform(lo, hi)), 4)


def _certify(dim, grids, a_band, b_band):
    def build(rng):
        return [
            Operation("certify", Problem(dim, _draw(rng, *a_band), _draw(rng, *b_band)),
                      nodes, levels)
            for nodes, levels in grids
        ]
    return build


def _mixed_audit(rng):
    seeds = tuple(int(s) for s in rng.integers(0, 2**31 - 1, size=CRITICAL_SEEDS + 2))
    return [
        Operation("second_order", Problem(1, 0.8, 0.4, 0.25), 33, 65, seeds),
        Operation("oracle", Problem(1, 0.8, 0.4), 5, 5),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object          # rng -> list of Operation, one round
    warmup_grid: tuple     # (nodes, levels) of the untimed warm-up operation


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify_1d",
            "1-D box problems with many time levels over few nodes: pointwise "
            "roots, per-level map calls and banded step solves dominate",
            _certify(1, ((33, 2049), (129, 513)), (0.85, 1.0), (0.30, 0.36)),
            (17, 33),
        ),
        Workload(
            "certify_2d",
            "2-D box problems: a fresh sparse LU per Newton iteration and per "
            "adjoint level dominates; roots and level loops are a small share",
            _certify(2, ((33, 33), (41, 33)), (2.6, 3.4), (0.40, 0.46)),
            (9, 9),
        ),
        Workload(
            "mixed_audit_1d",
            "mixed constraint u + c y^3 <= b, then soc, Holder and oracle audits: "
            "over a hundred short sweeps where per-call set-up is a large share",
            _mixed_audit,
            (17, 17),
        ),
    )
}


def round_operations(workload: str, seed: int):
    """The operations of one round, drawn from the seed."""
    return WORKLOADS[workload].build(np.random.default_rng(seed))


def warmup_operations(workload: str, seed: int):
    """One untimed operation of each kind in the round, on a small grid."""
    nodes, levels = WORKLOADS[workload].warmup_grid
    out = []
    for op in round_operations(workload, seed):
        if all(w.kind != op.kind for w in out):
            small = (nodes, levels) if op.kind != "oracle" else (op.nodes, op.levels)
            out.append(Operation(op.kind, op.problem, small[0], small[1], op.seeds))
    return out
