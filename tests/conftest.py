"""Shared fixtures: solved reference points reused across the suite."""

import os
import tracemalloc

# One BLAS thread, set before numpy loads, as the benchmark runs: the dense
# reference backend solves systems of a few hundred unknowns, where threaded
# LAPACK on a small shared host spends far longer handing off than computing.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
from hypothesis import settings

import parakkt
from parakkt.catalog import builtin_problem_text

settings.register_profile("suite", deadline=None, max_examples=50, derandomize=True)
settings.load_profile("suite")

ACCEPTANCE_LINES = []


def tracking_with_constraint(expr):
    """tracking_box_1d with the constraint g = ``expr`` in place of u - 0.4."""
    box = "expr = u - 0.4\n"
    text = builtin_problem_text("tracking_box_1d")
    assert box in text
    return text.replace(box, f"expr = {expr}\n")


# g_y = 0.5: the mixed constraint whose critical directions need the reduced
# potential f'(y) + g_y/g_u to be exactly tangent.
SLOPED_TEXT = tracking_with_constraint("u + 0.5*y - 0.4")

# The mixed constraint of the benchmark's second-order workload.
CUBIC_TEXT = tracking_with_constraint("u + 0.25*y^3 - 0.4")


def traced_peak(fn, *args, **kwargs):
    """The peak of the memory ``tracemalloc`` traces while ``fn(*args,
    **kwargs)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def solve_builtin(name, nodes, n_levels, tol):
    return solve_spec(parakkt.builtin_problem(name), nodes, n_levels, tol)


def solve_spec(spec, nodes, n_levels, tol):
    grid = parakkt.SpatialGrid(extents=spec.extents, nodes=nodes)
    timegrid = parakkt.TimeGrid(n_levels=n_levels, horizon=spec.horizon)
    options = parakkt.OptimizerOptions(tol_kkt=tol)
    point, trace, report = parakkt.solve_ocp(spec, grid, timegrid, options)
    return spec, point, trace, report


@pytest.fixture(scope="session")
def tracking_bundle():
    """Box-constrained tracking problem solved tightly on a 33x65 grid."""
    return solve_builtin("tracking_box_1d", (33,), 65, 1e-10)


@pytest.fixture(scope="session")
def sloped_bundle():
    """The g = u + 0.5 y - 0.4 problem solved tightly on a 33x65 grid."""
    return solve_spec(parakkt.loads(SLOPED_TEXT), (33,), 65, 1e-10)


@pytest.fixture(scope="session")
def cubic_bundle():
    """The g = u + 0.25 y^3 - 0.4 problem solved tightly on a 33x65 grid."""
    return solve_spec(parakkt.loads(CUBIC_TEXT), (33,), 65, 1e-10)


@pytest.fixture(scope="session")
def feasible_bundle():
    """Problem whose constraint never activates, solved on a 17x17 grid."""
    return solve_builtin("strictly_feasible_1d", (17,), 17, 1e-10)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
