"""Machine-speed calibration: a fixed loop, timed inside every run.

The shared machines this benchmark runs on change speed by tens of percent
over minutes, for all code alike (CPU time tracks wall time; there is no
steal).  Raw seconds from two sets of runs an hour apart therefore differ
by more than any useful regression bound.  Each untraced run times this
loop between its passes and reports its times scaled to a machine on which
the loop takes ``REFERENCE_S``; the raw seconds are reported beside them.

The loop is the benchmark's own code and calls nothing in pepbound, so a
change to the program moves the scaled times exactly as much as the raw
ones.  It mixes what the program spends its time on -- small numpy
column operations as in one-sided Jacobi, and scalar error-free float
transformations as in double-double arithmetic -- and runs on one thread
per CPU, as the program's default pool does.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Seconds the loop takes on the reference machine (2 vCPU Xeon, 2.0 GHz,
#: Python 3.11, numpy 2.4 -- the machine the bounds were set on).
REFERENCE_S = 0.2
_CHUNKS = 8


def _columns(G: np.ndarray, sweeps: int) -> None:
    n = G.shape[1]
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = G[:, p]
                gq = G[:, q]
                app = np.real(np.sum(gp * np.conj(gp)))
                aqq = np.real(np.sum(gq * np.conj(gq)))
                az = abs(np.sum(np.conj(gp) * gq))
                c = 1.0 / (1.0 + (az / (app + aqq)) ** 2) ** 0.5
                s = (1.0 - c * c) ** 0.5
                gpc = gp.copy()
                G[:, p] = c * gpc - s * gq
                G[:, q] = s * gpc + c * gq


def _two_sums(n: int) -> float:
    s = e = 0.0
    for i in range(n):
        x = 1.0000001 * (i + 1)
        t = s + x
        bp = t - s
        e += (s - (t - bp)) + (x - bp)
        s = t
    return s + e


def _chunk(seed: int) -> None:
    rng = np.random.default_rng(seed)
    _columns(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)), 3)
    _two_sums(40000)


def calibrate() -> float:
    """Seconds for one run of the calibration loop."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as ex:
        list(ex.map(_chunk, range(_CHUNKS)))
    return time.perf_counter() - t0
