"""Host speed gauge.

The host is shared: other tenants slow every kernel by up to 2x, in bursts
from seconds to minutes, while the process keeps its whole CPU (process
time tracks wall time).  A fixed kernel in the benchmark's own code, read
before and after every request, measures how fast the host runs at that
moment.  It spends about equal time on the three kinds of work the program
does: a dense rank-1 elimination on a matrix as large as the operators it
factors (a working set in the shared cache, which neighbours contend for),
back-substitution loops of small numpy calls like its per-signal solves,
and an interpreter-bound loop like its per-cell generators.  Each kind
slows by its own factor under contention, so the mix matters.
"""

from __future__ import annotations

import time

import numpy as np

SIZE = 700          # matrix order, between the 20^2 (380) and 30^2 (870) operators
STEPS = 1           # elimination steps per kernel run
BACKSUB = 60        # order of the triangular back-substitution
SOLVES = 10         # back-substitutions per kernel run
LOOP = 16000        # interpreter-bound iterations per kernel run
REPEATS = 3         # a reading is the fastest of this many kernel runs

# The gauge reading of a quiet 2-core Intel Xeon host (numpy 2.4, OpenBLAS
# 0.3.31, one thread).  Request times scaled by REFERENCE / reading are
# seconds on that host.
REFERENCE = 0.0068


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((SIZE, SIZE)) + SIZE * np.eye(SIZE)
        # preallocated, so that a reading does not depend on the state of
        # the allocator, which the program's own allocations change
        self._lu = np.empty_like(self._a)
        self._outer = np.empty_like(self._a)
        self._t = np.triu(self._a[:BACKSUB, :BACKSUB])
        self._w = np.zeros(BACKSUB)

    def _kernel(self):
        lu = self._lu
        np.copyto(lu, self._a)
        for k in range(STEPS):
            lu[k + 1:, k] /= lu[k, k]
            outer = self._outer[k + 1:, k + 1:]
            np.multiply(lu[k + 1:, k, None], lu[k, None, k + 1:], out=outer)
            lu[k + 1:, k + 1:] -= outer
        t, w = self._t, self._w
        for _ in range(SOLVES):
            for i in range(BACKSUB - 1, -1, -1):
                w[i] = (1.0 - t[i, i + 1:] @ w[i + 1:]) / t[i, i]
        acc = 0.0
        for i in range(LOOP):
            acc += (i % 7) * 0.5
        return acc

    def read(self):
        """Seconds one kernel run takes now (fastest of REPEATS)."""
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best
