"""Fixed reference kernel that the benchmark times between solves.

On a shared host the speed of one vCPU swings by up to 1.7x over seconds to
minutes, and every kind of work slows together: LAPACK, small numpy calls
and interpreted Python alike.  A solve's wall time divided by the time of a
fixed kernel run just before and just after it cancels most of that common
factor.  The kernel mixes the three kinds of work a solve does: one dense
complex QZ, many small SVDs and a Python loop over a dict.  It uses numpy
and scipy only, never the program, so no change to the program moves it.
"""

import time

import numpy as np
import scipy.linalg

QZ_SIDE = 96
SVD_CALLS = 300
SVD_SIDE = 6
PY_STEPS = 60000


class Reference:
    """The kernel's inputs are built once; `time()` runs it and returns its wall time."""

    def __init__(self):
        rng = np.random.default_rng(20250328)
        side = (QZ_SIDE, QZ_SIDE)
        self.a = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        self.b = rng.standard_normal(side) + 1j * rng.standard_normal(side)
        self.small = [rng.standard_normal((SVD_SIDE, SVD_SIDE)) for _ in range(8)]

    def run(self):
        scipy.linalg.eig(self.a, self.b, right=False)
        for i in range(SVD_CALLS):
            np.linalg.svd(self.small[i % 8], compute_uv=False)
        acc, table = 0, {}
        for i in range(PY_STEPS):
            acc += i * i % 7
            table[i % 97] = acc
        return acc

    def time(self):
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start
