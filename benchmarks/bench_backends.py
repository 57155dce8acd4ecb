#!/usr/bin/env python3
"""Time the hot numerical kernels under both backends.

The package compiles its kernels with numba when available and falls back to
plain Python over numpy arrays otherwise; the backend is fixed at import time
by the ``PEPBOUND_BACKEND`` environment variable.  This script launches one
fresh interpreter per backend (the choice cannot change inside a process),
runs the same timed workloads in each, and prints a side-by-side table.
Only backends that can run here are timed: numba where it is importable,
numpy always.  The speedup column appears when both ran.

Usage:
    python3 benchmarks/bench_backends.py [--repeats K] [--scale S]

``--scale`` multiplies the problem sizes (1 = desk scale, a few seconds per
backend).  The first numba run includes JIT compilation; a warm-up pass per
workload keeps that out of the timings.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys

WORKER = r"""
import json
import sys
import time

import numpy as np

from pepbound._accel import BACKEND
from pepbound.bench import ExperimentConfig, run_experiment
from pepbound.denseig import generalized_schur, singular_values
from pepbound.oracle import reference_spectrum
from pepbound.polyval import PolySpec, random_polynomial
from pepbound.rng import SplitMix64

repeats, scale = json.loads(sys.stdin.read())


def timed(fn, *args):
    fn(*args)  # warm-up (includes JIT compilation under numba)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


gen = SplitMix64(2024)
nqz = 30 * scale
A = gen.complex_normal_matrix(nqz, nqz)
B = gen.complex_normal_matrix(nqz, nqz)
nsv = 60 * scale
G = gen.complex_normal_matrix(nsv, nsv)
P = random_polynomial(PolySpec(kind="p1", n=4 * scale, d=4, seed=9))
cfg = ExperimentConfig(
    poly=PolySpec(kind="p1", n=5 * scale, d=4, seed=9),
    linearization="l2",
)

results = {
    "backend": BACKEND,
    "qz %dx%d" % (nqz, nqz): timed(generalized_schur, A, B),
    "svd %dx%d" % (nsv, nsv): timed(singular_values, G),
    "dd refine d=4 n=%d" % (4 * scale): timed(reference_spectrum, P, "l1"),
    "experiment d=4 n=%d" % (5 * scale): timed(run_experiment, cfg),
}
print(json.dumps(results))
"""


def run_backend(backend: str, repeats: int, scale: int) -> dict:
    env = dict(os.environ)
    env["PEPBOUND_BACKEND"] = backend
    proc = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps([repeats, scale]),
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(1)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per workload (best is kept)")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier")
    args = parser.parse_args()

    backends = ["numpy"]
    if importlib.util.find_spec("numba") is not None:
        backends.insert(0, "numba")
    else:
        print("numba is not importable; timing the numpy backend only")

    rows = {}
    for backend in backends:
        print("running %s backend ..." % backend, flush=True)
        res = run_backend(backend, args.repeats, args.scale)
        assert res.pop("backend") == backend
        for name, secs in res.items():
            rows.setdefault(name, {})[backend] = secs

    both = len(backends) == 2
    width = max(len(name) for name in rows)
    print()
    header = "%-*s" % (width, "workload")
    for backend in backends:
        header += "  %12s" % ("%s [s]" % backend)
    print(header + ("  %8s" % "speedup" if both else ""))
    for name, r in rows.items():
        line = "%-*s" % (width, name)
        for backend in backends:
            line += "  %12.4f" % r[backend]
        if both:
            line += "  %7.1fx" % (r["numpy"] / r["numba"])
        print(line)


if __name__ == "__main__":
    main()
