"""Tests of the benchmark itself: tracing, the gate, and its contract.

Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import pepbound
from pepbound import ExperimentConfig, PolySpec

import env
import gate
import run
import tracing
import workloads


def _traced(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = fn()
        bindings = tracer.bindings()
    finally:
        tracer.uninstall()
    return result, tracing.aggregate(tracer.spans), bindings


def test_trace_is_complete_on_a_small_experiment():
    spec = PolySpec(kind="p1", n=3, d=3, seed=5)
    cfg = ExperimentConfig(poly=spec, linearization="l1")
    # Looked up at call time, as the benchmark does, so the wrapper is used.
    report, layer, bindings = _traced(lambda: pepbound.run_experiment(cfg))
    assert len(report.rows) == spec.d * spec.n
    assert layer["denseig.separation.calls"] == len(report.rows)
    assert layer["oracle.refine_eigenpair.calls"] == spec.d * spec.n
    assert layer["bench.run_experiment.calls"] == 1
    # l1 solves the same pencil twice: once for the reference, once here.
    assert layer["denseig.generalized_schur.calls"] == 2
    assert layer["kernels.jacobi_singular_values.sweeps"] > 0
    for name in ("pepbound.separation", "pepbound.bench.separation",
                 "pepbound.oracle.dd_newton_refine", "pepbound.cli.run_experiment",
                 "pepbound.denseig.separation"):
        assert name in bindings
    assert pepbound.bench.separation is pepbound.denseig.separation
    assert not hasattr(pepbound.bench.separation, "__wrapped__")


def test_trace_counts_one_refinement_per_reference_pair():
    P = pepbound.random_polynomial(PolySpec(kind="p1", n=3, d=2, seed=8))
    refs, layer, _ = _traced(lambda: [pepbound.reference_spectrum(P) for _ in range(2)])
    assert layer["oracle.reference_spectrum.calls"] == 2
    assert layer["oracle.refine_eigenpair.calls"] == 2 * P.d * P.n
    assert layer["oracle.refine_eigenpair.unconverged"] == 0
    assert "denseig.separation.calls" not in layer


def test_self_time_subtracts_direct_layer_children_only():
    # (id, name, layer, parent, layer_parent, thread, op, start, end, counters)
    spans = [
        (0, "outer", True, None, None, 1, 0, 0.0, 10.0, {}),
        (1, "inner", False, 0, 0, 1, 0, 1.0, 4.0, {"sweeps": 3}),
        (2, "child", True, 1, 0, 1, 0, 2.0, 3.0, {}),
        (3, "child", True, None, None, 2, 0, 0.0, 6.0, {}),
        (4, "child", True, 3, 3, 2, 0, 1.0, 2.0, {}),
    ]
    out = tracing.aggregate(spans)
    assert out["outer.self_s"] == 9.0
    assert out["inner.s"] == 3.0
    assert "inner.self_s" not in out
    assert out["inner.sweeps"] == 3
    # The nested "child" (id 4) is inside another "child": not added to s.
    assert out["child.s"] == 7.0
    assert out["child.self_s"] == 1.0 + 5.0 + 1.0
    assert out["child.calls"] == 3


def test_gate_fails_a_row_whose_bound_is_scaled_down():
    op = workloads.Op(PolySpec(kind="p1", n=4, d=5, seed=3), "l1")
    report = workloads.run_op(op, "", 0)
    assert gate.check(op, report) == []
    worst = max(range(len(report.rows)), key=lambda i: report.rows[i].sin_angle)
    row = report.rows[worst]
    assert row.sin_angle > 2 * gate.BOUND_SLACK
    rows = list(report.rows)
    rows[worst] = dataclasses.replace(row, bound_kron=row.bound_kron * 1e-6)
    bad = dataclasses.replace(report, rows=tuple(rows))
    problems = gate.check(op, bad)
    assert len(problems) == 1 and "exceeds bound_kron" in problems[0]


def test_gate_fails_rows_that_drift_from_the_stored_ones():
    stored = [[1.0, 2.0, 3e-30, ["x"]]]
    assert gate.check_parity([[1.0 + 1e-12, 2.0, 3e-30, ["x"]]], stored) == []
    assert gate.check_parity([[1.0 + 1e-8, 2.0, 3e-30, ["x"]]], stored)
    assert gate.check_parity([[1.0, 2.0, 3e-30, []]], stored)
    # Residuals are compared relative: 1e-13 absolute would accept any.
    assert gate.check_parity([[1.0, 2.0, 3e-20, ["x"]]], stored)
    # An experiment row: lam.re, lam.im, residual, sep, sin_angle,
    # bound_kron, bound_frob.  Only lam and sep get the absolute tolerance.
    stored = [[0.5, -0.25, 2e-16, 0.3, 4e-16, 9e-16, 1.2e-15, []]]
    assert gate.check_parity([list(stored[0])], stored) == []
    sep_moved = [0.5, -0.25, 2e-16, 0.3 + 1e-14, 4e-16, 9e-16, 1.2e-15, []]
    assert gate.check_parity([sep_moved], stored) == []
    for field in (2, 4, 5, 6):
        row = list(stored[0])
        row[field] *= 1e-3
        problems = gate.check_parity([row], stored)
        assert len(problems) == 1 and f"field {field}" in problems[0]


def test_gate_oracle_pencil_is_built_from_the_coefficients():
    P = pepbound.random_polynomial(PolySpec(kind="p2", n=2, d=5, seed=4))
    ev = gate._companion_eigvals(P)
    assert len(ev) == P.d * P.n
    for lam in ev:
        M = sum(lam ** i * P.coeffs[i] for i in range(P.d + 1))
        s = np.linalg.svd(M, compute_uv=False)
        assert s[-1] <= 1e-10 * s[0]


def test_gate_fails_a_reference_pair_above_its_own_residual_threshold():
    P = pepbound.random_polynomial(PolySpec(kind="p1", n=2, d=2, seed=6))
    refs = pepbound.reference_spectrum(P)
    assert gate.check_reference(P, refs) == []
    max_norm = max(np.linalg.norm(P.coeffs[i], 2) for i in range(P.d + 1))
    loose = dataclasses.replace(refs[0], residual=1e-22 * max_norm)
    problems = gate.check_reference(P, [loose] + list(refs[1:]))
    assert len(problems) == 1 and "converged residual" in problems[0]


def test_metric_lists_match_benchmark_json():
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
