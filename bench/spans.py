"""Traced runs: wrappers at parakkt's layer boundaries, spans kept in memory.

Each wrapped call records one span: its name, start, end, parent span and
the operation it ran for.  A span's self time is its duration minus the
durations of its child spans (one thread, so children never overlap).  The
wrappers replace the boundary in every parakkt module that holds it by
name, and are removed again by ``Tracer.uninstall``.  A boundary that no
longer exists is skipped; the metrics that rest on it are reported absent.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import time
from collections import defaultdict

# span name, module, attribute (a dotted path reaches a method)
BOUNDARIES = (
    ("optimizer.solve", "parakkt.optimizer", "solve_ocp"),
    ("optimizer.trial", "parakkt.optimizer", "_restored_trial"),
    ("optimizer.certificate", "parakkt.optimizer", "recompute_certificate"),
    ("kkt.root", "parakkt.kkt", "_monotone_root"),
    ("kkt.control_update", "parakkt.kkt", "control_update_field"),
    ("kkt.residuals", "parakkt.kkt", "kkt_residuals"),
    ("kkt.recovery", "parakkt.kkt", "recover_multiplier_division"),
    ("kkt.recovery", "parakkt.kkt", "recover_multiplier_max"),
    ("kkt.h_potential", "parakkt.kkt", "h_potential_audit"),
    ("problem.map", "parakkt.problem", "eval_scalar_map"),
    ("parabolic.state", "parakkt.parabolic", "solve_state"),
    ("parabolic.adjoint", "parakkt.parabolic", "solve_adjoint"),
    ("parabolic.linear_sweep", "parakkt.parabolic", "solve_linear_parabolic"),
    ("parabolic.step_solve", "parakkt.parabolic", "_StepSolver.solve"),
    ("grids.assemble", "parakkt.grids", "assemble_operator"),
    ("soc.legendre", "parakkt.soc", "legendre_min"),
    ("soc.critical_direction", "parakkt.soc", "sample_critical_direction"),
    ("soc.quadratic_form", "parakkt.soc", "quadratic_form"),
    ("soc.growth_probe", "parakkt.soc", "quadratic_growth_probe"),
    ("regularity.holder", "parakkt.regularity", "multiplier_continuity_report"),
    ("oracle.nlp_build", "parakkt.oracle", "discretize_to_nlp"),
    ("oracle.nlp_solve", "parakkt.oracle", "solve_nlp_active_set"),
    ("oracle.compare", "parakkt.oracle", "compare_multipliers"),
)
# Sparse LU factorizations are counted on the span that makes them, no span.
FACTORIZATION = ("parabolic.factorization", "scipy.sparse.linalg", "splu")


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "child", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = self.child = 0.0
        self.info = None

    @property
    def self_s(self):
        return self.end - self.start - self.child

    def add(self, key, n=1):
        if self.info is None:
            self.info = {}
        self.info[key] = self.info.get(key, 0) + n


class Tracer:
    def __init__(self, boundaries=BOUNDARIES):
        self.spans = []
        self.stack = []
        self.op = -1                 # index of the operation being run
        self.missing = []            # span names whose boundary was not found
        self._boundaries = boundaries
        self._restore = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child += span.end - span.start
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def _count_factorization(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]].add("factorizations")
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------
    def install(self):
        for name, module, attr in self._boundaries:
            if not self._patch(module, attr, lambda fn, n=name: self._wrap(n, fn)):
                self.missing.append(name)
        name, module, attr = FACTORIZATION
        if not self._patch(module, attr, self._count_factorization):
            self.missing.append(name)
        return self

    def _patch(self, module_name, attr, make):
        module = sys.modules.get(module_name)
        owner_path, _, leaf = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if not callable(original):
            return False
        wrapper = make(original)
        if owner_path:                       # a method: patch the class only
            holders = [(owner, leaf)]
        else:                                # every module holding the name
            holders = [(m, key) for m in _parakkt_modules() + [module]
                       for key, val in list(vars(m).items()) if val is original]
        for holder, key in dict.fromkeys(holders):
            self._restore.append((holder, key, getattr(holder, key)))
            setattr(holder, key, wrapper)
        return True

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path, op_labels):
        """All spans as gzipped CSV: name, op, parent, start, end, self time."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,op,parent,start_s,end_s,self_s\n")
            for i, s in enumerate(self.spans):
                op = op_labels[s.op] if 0 <= s.op < len(op_labels) else ""
                fh.write(f"{i},{s.name},{op},{s.parent},{s.start!r},{s.end!r},{s.self_s!r}\n")


def _parakkt_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "parakkt" or k.startswith("parakkt."))]


def _count_root_evals(span, args, kwargs):
    """Counts the map evaluations made inside ``_monotone_root``, by root kind."""
    if args and callable(args[0]):
        fn = args[0]
        what = args[3] if len(args) > 3 else kwargs.get("what", "")
        span.add(f"roots[{what}]")

        def counted(*a, **k):
            span.add("evals")
            span.add(f"evals[{what}]")
            return fn(*a, **k)

        args = (counted,) + tuple(args[1:])
    return args, kwargs


_BEFORE = {"kkt.root": _count_root_evals}
_AFTER = {
    "optimizer.solve": lambda span, result: span.add("iterations", len(result[1].rows)),
    "oracle.nlp_solve": lambda span, result: span.add("set_changes", result.n_set_changes),
}


def round_stats(spans, all_spans):
    """Counts and self times of one round's spans, plus derived quantities."""
    count, self_s, info = defaultdict(int), defaultdict(float), defaultdict(int)
    first_trial = set()
    for s in spans:                      # spans are stored in start order
        count[s.name] += 1
        self_s[s.name] += s.self_s
        for key, n in (s.info or {}).items():
            info[key] += n
        parent = all_spans[s.parent] if s.parent >= 0 else None
        if s.name == "optimizer.trial" and parent and parent.name == "optimizer.solve":
            if s.parent in first_trial:      # the first one is the initial restore
                info["line_search_trials"] += 1
                self_s["line_search"] += s.self_s
            first_trial.add(s.parent)
        if s.name == "parabolic.adjoint" and parent and parent.name == "optimizer.certificate":
            info["certificate_sweeps"] += 1
    return count, self_s, info


def _count(name):
    return lambda count, self_s, info: count[name]


def _self(name):
    return lambda count, self_s, info: self_s[name]


def _info(key):
    return lambda count, self_s, info: info[key]


def _evals_per_root(count, self_s, info):
    return info["evals"] / count["kkt.root"] if count["kkt.root"] else 0.0


# metric name, unit, span names it rests on, value from one round's stats
PER_LAYER = (
    ("kkt.roots", "1", ("kkt.root",), _count("kkt.root")),
    ("kkt.root_evals", "1", ("kkt.root",), _info("evals")),
    ("kkt.root_evals_per_root", "1", ("kkt.root",), _evals_per_root),
    ("kkt.root_s", "s", ("kkt.root",), _self("kkt.root")),
    ("kkt.control_update_s", "s", ("kkt.control_update",), _self("kkt.control_update")),
    ("kkt.residuals_s", "s", ("kkt.residuals",), _self("kkt.residuals")),
    ("kkt.recovery_s", "s", ("kkt.recovery",), _self("kkt.recovery")),
    ("problem.map_evals", "1", ("problem.map",), _count("problem.map")),
    ("problem.map_s", "s", ("problem.map",), _self("problem.map")),
    ("parabolic.state_solves", "1", ("parabolic.state",), _count("parabolic.state")),
    ("parabolic.state_s", "s", ("parabolic.state",), _self("parabolic.state")),
    ("parabolic.adjoint_solves", "1", ("parabolic.adjoint",), _count("parabolic.adjoint")),
    ("parabolic.adjoint_s", "s", ("parabolic.adjoint",), _self("parabolic.adjoint")),
    ("parabolic.linear_sweeps", "1", ("parabolic.linear_sweep",),
     _count("parabolic.linear_sweep")),
    ("parabolic.linear_sweep_s", "s", ("parabolic.linear_sweep",),
     _self("parabolic.linear_sweep")),
    ("parabolic.step_solves", "1", ("parabolic.step_solve",), _count("parabolic.step_solve")),
    ("parabolic.step_solve_s", "s", ("parabolic.step_solve",), _self("parabolic.step_solve")),
    ("parabolic.factorizations", "1", ("parabolic.step_solve", "parabolic.factorization"),
     _info("factorizations")),
    ("grids.operator_assemblies", "1", ("grids.assemble",), _count("grids.assemble")),
    ("grids.assemble_s", "s", ("grids.assemble",), _self("grids.assemble")),
    ("optimizer.outer_iterations", "1", ("optimizer.solve",), _info("iterations")),
    ("optimizer.line_search_trials", "1", ("optimizer.solve", "optimizer.trial"),
     _info("line_search_trials")),
    ("optimizer.line_search_s", "s", ("optimizer.solve", "optimizer.trial"),
     _self("line_search")),
    ("optimizer.certificate_sweeps", "1", ("optimizer.certificate", "parabolic.adjoint"),
     _info("certificate_sweeps")),
    ("optimizer.certificate_s", "s", ("optimizer.certificate",),
     _self("optimizer.certificate")),
    ("soc.growth_probe_s", "s", ("soc.growth_probe",), _self("soc.growth_probe")),
    ("soc.critical_direction_s", "s", ("soc.critical_direction",),
     _self("soc.critical_direction")),
    ("soc.quadratic_form_s", "s", ("soc.quadratic_form",), _self("soc.quadratic_form")),
    ("regularity.holder_s", "s", ("regularity.holder",), _self("regularity.holder")),
    ("oracle.nlp_build_s", "s", ("oracle.nlp_build",), _self("oracle.nlp_build")),
    ("oracle.nlp_solve_s", "s", ("oracle.nlp_solve",), _self("oracle.nlp_solve")),
    ("oracle.set_changes", "1", ("oracle.nlp_solve",), _info("set_changes")),
)


def per_round(tracer, op_round):
    """Per-round stats; ``op_round`` maps an operation index to its round or None."""
    by_round = defaultdict(list)
    for s in tracer.spans:
        if s.op >= 0 and op_round[s.op] is not None:
            by_round[op_round[s.op]].append(s)
    return [round_stats(by_round[r], tracer.spans) for r in sorted(by_round)]


def per_layer_metrics(tracer, op_round):
    """Median over rounds of every per-layer metric whose boundaries exist.

    Returns ``(metrics, absent, counts_by_round)``; the last holds each
    round's count metrics, so a caller can see whether rounds agree.
    """
    rounds = per_round(tracer, op_round)
    metrics, absent, counts = {}, [], []
    for name, unit, needs, value in PER_LAYER:
        if any(n in tracer.missing for n in needs):
            absent.append(name)
            continue
        median = statistics.median(value(*r) for r in rounds)
        if unit == "1" and float(median).is_integer():
            median = int(median)
        metrics[name] = {"value": median, "unit": unit}
    for r in rounds:
        counts.append({name: value(*r) for name, unit, needs, value in PER_LAYER
                       if unit == "1" and name not in absent})
    return metrics, absent, counts


def self_time_breakdown(tracer, op_round):
    """Median per round of every span's count and self time, and of each counter."""
    rounds = per_round(tracer, op_round)
    names = sorted({n for c, _, _ in rounds for n in c})
    keys = sorted({k for _, _, i in rounds for k in i})
    spans = {n: {"count": statistics.median([c[n] for c, _, _ in rounds]),
                 "self_s": statistics.median([s[n] for _, s, _ in rounds])}
             for n in names}
    return spans, {k: statistics.median([i[k] for _, _, i in rounds]) for k in keys}
