"""The reference computation that the benchmark's times are expressed in.

The host this benchmark was built on changes speed by up to a factor of two
for minutes at a time, so a wall time in seconds says as much about the
host as about parakkt.  Each operation of a run is therefore flanked by two
timings of a fixed computation written here in plain numpy/scipy, without
parakkt, and its solve and audit times are reported as multiples of their
mean.  The computation does the kinds of work parakkt does, in the
operation's space dimension: an implicit-Euler sweep of the semilinear heat
equation y' - Laplace y + y^3 = s with a Newton solve per level (banded in
one dimension, a fresh sparse LU per iteration in two), and a pointwise
bisection per level.  Its size never depends on the seed, so its time
depends only on the host.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NEWTON_TOL = 1e-10
BISECTIONS = 40


class Reference:
    """A fixed sweep in ``dim`` space dimensions; ``time()`` runs and times it."""

    def __init__(self, dim: int):
        self.dim = dim
        nodes, self.levels = (129, 257) if dim == 1 else (33, 17)
        n = nodes - 2
        h = 1.0 / (nodes - 1)
        self.tau = 1.0 / (self.levels - 1)
        x = np.arange(1, nodes - 1) * h
        lap = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                       [-1, 0, 1]) / h**2
        s = np.sin(np.pi * x)
        if dim == 2:
            lap = sp.kronsum(lap, lap)
            s = np.outer(s, s).ravel()
        self.base = (sp.identity(lap.shape[0]) / self.tau + lap).tocsc()
        self.source = 4.0 * s
        self.ab = np.zeros((3, n))
        self.ab[0, 1:] = -1.0 / h**2
        self.ab[1, :] = 2.0 / h**2 + 1.0 / self.tau
        self.ab[2, :-1] = -1.0 / h**2

    def _step_solve(self, diag_add, rhs):
        if self.dim == 1:
            ab = self.ab.copy()
            ab[1, :] += diag_add
            return scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)
        return spla.splu((self.base + sp.diags(diag_add)).tocsc()).solve(rhs)

    def _bisect(self, target):
        """The root of u + 0.25 u^3 = target at every node, by bisection."""
        lo = np.full_like(target, -10.0)
        hi = np.full_like(target, 10.0)
        for _ in range(BISECTIONS):
            mid = 0.5 * (lo + hi)
            above = mid + 0.25 * mid**3 > target
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        return 0.5 * (lo + hi)

    def run(self) -> float:
        y = np.zeros_like(self.source)
        total = 0.0
        for _ in range(1, self.levels):
            old = y
            for _ in range(30):
                residual = ((y - old) / self.tau + self.base @ y - y / self.tau
                            + y**3 - self.source)
                if np.max(np.abs(residual)) <= NEWTON_TOL:
                    break
                y = y - self._step_solve(3.0 * y**2, residual)
            total += float(np.sum(self._bisect(y)))
        return total

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
