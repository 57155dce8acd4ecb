#!/usr/bin/env python3
"""Time the hot numerical kernels and one whole experiment.

Runs four workloads in this process: a dense QZ, a Jacobi SVD, a
double-double reference spectrum and a full experiment.  Each workload runs
once untimed, then ``--repeats`` times; the best time is printed.

Usage (from a checkout):
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats K] [--scale S]

``--scale`` multiplies the problem sizes (1 = desk scale, a few seconds).
"""

import argparse
import time

from pepbound.bench import ExperimentConfig, run_experiment
from pepbound.denseig import generalized_schur, singular_values
from pepbound.oracle import reference_spectrum
from pepbound.polyval import PolySpec, random_polynomial
from pepbound.rng import SplitMix64


def timed(repeats: int, fn, *args) -> float:
    fn(*args)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per workload (best is kept)")
    parser.add_argument("--scale", type=int, default=1,
                        help="problem-size multiplier")
    args = parser.parse_args()
    repeats, scale = args.repeats, args.scale

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

    workloads = [
        ("qz %dx%d" % (nqz, nqz), generalized_schur, (A, B)),
        ("svd %dx%d" % (nsv, nsv), singular_values, (G,)),
        ("reference spectrum d=4 n=%d" % (4 * scale), reference_spectrum, (P, "l1")),
        ("experiment d=4 n=%d" % (5 * scale), run_experiment, (cfg,)),
    ]
    width = max(len(name) for name, _, _ in workloads)
    print("%-*s  %10s" % (width, "workload", "best [s]"))
    for name, fn, fargs in workloads:
        print("%-*s  %10.4f" % (width, name, timed(repeats, fn, *fargs)),
              flush=True)


if __name__ == "__main__":
    main()
