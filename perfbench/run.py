#!/usr/bin/env python3
"""pepbound benchmark: certified eigenpairs end to end, and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {certify,oracle,sweep}
        [--seed N] [--seconds S] [--trace {0,1}]
    python3 perfbench/run.py --workload W --record-parity

The benchmark imports pepbound from ``src/`` with its default configuration
(``PEPBOUND_BACKEND`` and ``PEPBOUND_THREADS`` unset) and drives the public
API in a closed loop: one process, one operation after the other, passes
over the workload's operations until ``--seconds`` is spent (to within
half a pass).  Every operation goes through the correctness gate
(``gate.py``) outside the timed region.  The last line of stdout is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``); the lines before it print every metric with its
unit, the sample counts and the provenance.  End-to-end times are scaled
to a reference machine speed measured in the same run (``calibrate.py``);
the raw times are printed and stored beside them.  Full results and, when
traced, all spans are written under ``.bench_build/perfbench/``.  The exit
status is 1 when any operation fails.

``--record-parity`` runs one pass at the default seed and stores its rows
under ``parity/``; later runs at that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass

import env

env.bootstrap()  # before pepbound is imported anywhere: the backend is fixed then

import numpy as np  # noqa: E402

import pepbound  # noqa: E402
from pepbound._accel import BACKEND, thread_count  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
#: Set-up measurements before each untraced pass; spreading them over the
#: run keeps one slow stretch of the machine from moving their median.
SETUP_PER_PASS = 2
#: Calibration loops before each untraced pass and after the last one.
CAL_PER_PASS = 3
PARITY_DIR = env.ROOT / "perfbench" / "parity"

#: name -> unit.  Declared in BENCHMARK.json and printed in the JSON line.
END_TO_END = {"wall_s": "s", "pairs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
#: Printed with the others, but not declared: both are 0 when all is well.
#: failed_frac is also carried by the "attempted"/"failed" fields.
END_TO_END_EXTRA = {"failed_frac": "fraction", "flagged_frac": "fraction"}

_LAYER_TIMES = ("denseig.separation", "denseig.singular_values",
                "kernels.jacobi_singular_values", "oracle.reference_spectrum",
                "oracle.refine_eigenpair", "kernels.dd_newton_refine",
                "denseig.generalized_schur", "kernels.hessenberg_triangular",
                "kernels.qz_iterate", "denseig.inverse_iteration_vector",
                "polyval.random_polynomial", "kronlin.assemble",
                "kronlin.recover_eigenvector", "bounds", "bench.run_experiment",
                "bench.emit_csv", "bench.emit_plot")
_LAYER_SELF = ("bench.run_experiment", "oracle.reference_spectrum",
               "oracle.refine_eigenpair", "denseig.separation")
_LAYER_COUNTS = ("denseig.separation.calls", "denseig.singular_values.calls",
                 "kernels.jacobi_singular_values.sweeps",
                 "kernels.jacobi_singular_values.rotations",
                 "oracle.reference_spectrum.calls", "oracle.refine_eigenpair.calls",
                 "oracle.refine_eigenpair.unconverged", "denseig.spectral_norm.calls",
                 "kernels.dd_newton_refine.iterations",
                 "denseig.generalized_schur.calls",
                 "denseig.inverse_iteration_vector.calls", "kernels.lu_factor.calls",
                 "kernels.lu_factor.failed", "kronlin.assemble.calls",
                 "kronlin.recover_eigenvector.calls", "kronlin.right_factor.calls",
                 "bench.run_experiment.calls")
_LAYER_BYTES = ("bench.emit_csv.bytes", "bench.emit_plot.bytes")

#: name -> unit.  Declared in BENCHMARK.json; printed with --trace 1.
PER_LAYER = {
    **{name + ".s": "s" for name in _LAYER_TIMES},
    **{name + ".self_s": "s" for name in _LAYER_SELF},
    **{name: "count" for name in _LAYER_COUNTS},
    **{name: "bytes" for name in _LAYER_BYTES},
    "trace.overhead_s": "s",
}

SETUP_CODE = """\
import pepbound
spec = pepbound.PolySpec(kind="p1", n=2, d=2, seed=%d)
%s
"""
SETUP_CALL = {
    "experiment": 'pepbound.run_experiment(pepbound.ExperimentConfig(poly=spec, '
                  'linearization="l1"))',
    "reference": "pepbound.reference_spectrum(pepbound.random_polynomial(spec))",
}


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summarize(samples: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (None when there are too few samples), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "pct": None, "pct_value": None}
    for p in _PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            out["pct"] = p
            out["pct_value"] = float(np.percentile(samples, p))
            break
    return out


def _fmt_summary(s: dict, unit: str) -> str:
    text = "median %.6g %s over %d samples" % (s["median"], unit, s["n"])
    if s["pct"] is None:
        return text + " (too few samples for a tail percentile)"
    return text + ", p%g %.6g %s" % (s["pct"], s["pct_value"], unit)


# --------------------------------------------------------------------------
# provenance and set-up
# --------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((env.SRC / "pepbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (env.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "backend": BACKEND,
        "workers": thread_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(op: workloads.Op, seed32: int) -> list[float]:
    """Seconds for a fresh interpreter to import pepbound and make its
    first call on a d=2, n=2 input, repeated ``SETUP_PER_PASS`` times."""
    kind = "reference" if op.linearization is None else "experiment"
    code = SETUP_CODE % (seed32, SETUP_CALL[kind])
    times = []
    for _ in range(SETUP_PER_PASS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env.child_env(),
                              cwd=env.ROOT, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("perfbench: set-up interpreter exited with %d" % proc.returncode)
    return times


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def run_pass(ops, outdir: str, tracer: tracing.Tracer | None = None):
    """One timed pass; returns ``(wall, results)``.

    An operation that raises yields its exception as the result; the gate
    counts it as failed.
    """
    results = []
    t_pass = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        try:
            res = workloads.run_op(op, outdir, k)
        except Exception as exc:  # recorded and counted as a failed operation
            res = exc
        results.append(res)
    return time.perf_counter() - t_pass, results


def judge(ops, results, parity: dict | None) -> list[tuple[int, list[str]]]:
    """Gate every result; returns ``(op index, problems)`` for failures."""
    failures = []
    for k, (op, res) in enumerate(zip(ops, results)):
        if isinstance(res, Exception):
            problems = ["raised " + "".join(traceback.format_exception_only(res)).strip()]
        else:
            problems = gate.check(op, res)
            if parity is not None:
                stored = parity["ops"][k]
                if stored["label"] != op.label:
                    problems.append(f"stored parity rows are for {stored['label']}")
                else:
                    problems += gate.check_parity(gate.parity_rows(res), stored["rows"])
        if problems:
            failures.append((k, problems))
    return failures


def record_parity(workload: str) -> int:
    ops = workloads.operations(workload, DEFAULT_SEED)
    outdir = tempfile.mkdtemp(dir=env.OUT)
    try:
        _, results = run_pass(ops, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failures = judge(ops, results, None)
    if failures:
        for k, problems in failures:
            print("op %d %s: %s" % (k, ops[k].label, "; ".join(problems)), file=sys.stderr)
        return 1
    doc = {"seed": DEFAULT_SEED, "workload": workload,
           "ops": [{"label": op.label, "rows": gate.parity_rows(res)}
                   for op, res in zip(ops, results)]}
    PARITY_DIR.mkdir(exist_ok=True)
    path = PARITY_DIR / (workload + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % path)
    return 0


@dataclass
class Pass:
    traced: bool
    wall_s: float
    rows: int
    certified: int
    flagged: int
    failed: int


def measure(args, ops, parity):
    """Passes until ``args.seconds`` is spent; returns ``(passes, set-up
    seconds, calibration seconds, failures, per-layer dict per traced pass,
    tracer)``.

    Untraced runs measure set-up and the calibration loop before each pass
    and the calibration loop after the last; traced runs alternate untraced
    and traced passes, starting untraced.
    """
    passes: list[Pass] = []
    setup_times: list[float] = []
    cal_times: list[float] = []
    failures = []
    layer_per_pass = []
    tracer = tracing.Tracer() if args.trace else None
    seed32 = args.seed & 0xFFFFFFFF
    outdir = tempfile.mkdtemp(dir=env.OUT)
    try:
        # Warm-up on the set-up input: lazy imports and first-call costs are
        # set-up, measured in fresh interpreters, not part of a pass.
        warm = workloads.Op(pepbound.PolySpec(kind="p1", n=2, d=2, seed=seed32),
                            ops[0].linearization)
        workloads.run_op(warm, outdir, -1)

        t_start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if not args.trace:
                t0 = time.perf_counter()
                setup_times += measure_setup(ops[0], seed32)
                cal_times += [calibrate.calibrate() for _ in range(CAL_PER_PASS)]
                t_start += time.perf_counter() - t0
            if traced:
                first_span = len(tracer.spans)
                tracer.install()
            try:
                wall, results = run_pass(ops, outdir, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layer_per_pass.append(tracing.aggregate(tracer.spans[first_span:]))
            bad = judge(ops, results, parity)
            failures += [(len(passes), k, p) for k, p in bad]
            tallies = [workloads.tally(r) for r in results if not isinstance(r, Exception)]
            rows, certified, flagged = (sum(t[i] for t in tallies) for i in range(3))
            passes.append(Pass(traced, wall, rows, certified, flagged, len(bad)))
            elapsed = time.perf_counter() - t_start
            # Stop when another pass would end more than half a pass late,
            # so that the pass count is stable against small speed changes.
            typical = statistics.median(p.wall_s for p in passes)
            if len(passes) >= (2 if args.trace else 1) and \
                    elapsed + typical / 2 > args.seconds:
                break
        if not args.trace:
            cal_times += [calibrate.calibrate() for _ in range(CAL_PER_PASS)]
        return passes, setup_times, cal_times, failures, layer_per_pass, tracer
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def print_layers(layer: dict, traced_wall: float) -> None:
    """Layers by self time first, then the inner spans by time."""
    names = sorted({k.rsplit(".", 1)[0] for k in layer if k.endswith(".s")},
                   key=lambda n: (n + ".self_s" not in layer,
                                  -layer.get(n + ".self_s", layer[n + ".s"])))
    for name in names:
        self_s = layer.get(name + ".self_s")
        print("  %-34s s %-10.4g self %-10s share %5.1f%%  calls %d" % (
            name, layer[name + ".s"], "-" if self_s is None else "%.4g" % self_s,
            100.0 * layer[name + ".s"] / traced_wall, layer[name + ".calls"]))
    for key, unit in PER_LAYER.items():
        print("%-45s %.6g %s" % (key, layer.get(key, 0), unit))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time, to within half a pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-parity", action="store_true",
                        help="store the default seed's rows under parity/ and exit")
    args = parser.parse_args()

    env.OUT.mkdir(parents=True, exist_ok=True)
    if args.record_parity:
        return record_parity(args.workload)

    prov = provenance(args.seed)
    ops = workloads.operations(args.workload, args.seed)
    parity = None
    if args.seed == DEFAULT_SEED:
        parity = json.loads((PARITY_DIR / (args.workload + ".json")).read_text())
    passes, setup_times, cal_times, failures, layer_per_pass, tracer = measure(
        args, ops, parity)

    untraced = [p for p in passes if not p.traced]
    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    rows = sum(p.rows for p in passes)
    flagged = sum(p.flagged for p in passes)
    wall = summarize([p.wall_s for p in untraced])
    raw = {
        "wall_s": wall["median"],
        "pairs_per_s": statistics.median(p.certified / p.wall_s for p in untraced),
        "setup_s": statistics.median(setup_times) if setup_times else None,
    }
    # Times at reference machine speed (see calibrate.py); raw when traced.
    speed = calibrate.REFERENCE_S / statistics.median(cal_times) if cal_times else 1.0
    values = {
        "wall_s": raw["wall_s"] * speed,
        "pairs_per_s": raw["pairs_per_s"] / speed,
        "setup_s": raw["setup_s"] * speed if setup_times else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        "flagged_frac": flagged / rows if rows else 0.0,
    }

    head = "perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace)
    print(head + " " + " ".join("%s=%s" % kv for kv in prov.items()))
    if cal_times:
        print("calibration   %s; times below are scaled by %.6g to the reference "
              "%.3g s" % (_fmt_summary(summarize(cal_times), "s"), speed,
                          calibrate.REFERENCE_S))
    else:
        print("calibration   not run in traced runs; times below are raw")
    u = {**END_TO_END, **END_TO_END_EXTRA}
    print("wall_s        %.6g %s (raw %s; one pass = %d operations)"
          % (values["wall_s"], u["wall_s"], _fmt_summary(wall, "s"), len(ops)))
    print("pairs_per_s   %.6g %s (raw %.6g; %d certified pairs per pass)"
          % (values["pairs_per_s"], u["pairs_per_s"], raw["pairs_per_s"],
             untraced[0].certified))
    if setup_times:
        print("setup_s       %.6g %s (raw %s)" % (values["setup_s"], u["setup_s"],
                                                 _fmt_summary(summarize(setup_times), "s")))
    else:
        print("setup_s       not measured in traced runs")
    print("peak_rss_mb   %.6g %s" % (values["peak_rss_mb"], u["peak_rss_mb"]))
    print("failed_frac   %.6g %s (%d of %d operations)"
          % (values["failed_frac"], u["failed_frac"], failed, attempted))
    print("flagged_frac  %.6g %s (%d of %d rows)"
          % (values["flagged_frac"], u["flagged_frac"], flagged, rows))
    for npass, k, problems in failures:
        print("FAILED pass %d op %d %s: %s" % (npass, k, ops[k].label, "; ".join(problems)))

    result = {"workload": args.workload, "trace": args.trace, "provenance": prov,
              "end_to_end": values, "raw": raw, "speed": speed, "wall": wall,
              "setup_samples": setup_times,
              "calibration_samples": cal_times, "passes": [asdict(p) for p in passes]}
    if args.trace:
        layer = {key: statistics.median(lp.get(key, 0) for lp in layer_per_pass)
                 for key in sorted(set().union(*layer_per_pass))}
        traced_wall = statistics.median(p.wall_s for p in passes if p.traced)
        layer["trace.overhead_s"] = traced_wall - wall["median"]
        print("traced wall %.6g s, untraced %.6g s; layer time per pass (median of %d):"
              % (traced_wall, wall["median"], len(layer_per_pass)))
        print_layers(layer, traced_wall)
        result["per_layer"] = layer
        spans_path = env.OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(spans_path)
        print("spans written to %s" % spans_path)
        metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    out_path = env.OUT / ("result-%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
