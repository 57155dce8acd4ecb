"""Tests for the experiment pipeline, CSV reports and SVG plots."""

import csv
import io
import math
import re
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepbound import _kernels
from pepbound.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    emit_csv,
    emit_plot,
    render_csv,
    render_plot,
    run_experiment,
    run_invariant_suite,
)
from pepbound.exceptions import DomainError
from pepbound.oracle import reference_spectrum
from pepbound.polyval import MatrixPolynomial, PolySpec, save_polynomial


def _small_config(**kw) -> ExperimentConfig:
    base = dict(
        poly=PolySpec(kind="p1", n=3, d=3, seed=4242),
        linearization="l1",
    )
    base.update(kw)
    return ExperimentConfig(**base)


# =======================
# experiment pipeline
# =======================

def test_config_validation():
    with pytest.raises(DomainError):
        _small_config(linearization="l7")
    cfg = _small_config(linearization="L2")
    assert cfg.linearization == "l2"  # normalized


def test_run_experiment_rows_sorted_and_indexed():
    report = run_experiment(_small_config())
    assert len(report.rows) == 9  # d * n finite eigenpairs
    assert [r.index for r in report.rows] == list(range(1, 10))
    mags = [abs(r.lambda_computed) for r in report.rows]
    assert mags == sorted(mags)
    assert report.diagnostics == ()
    assert report.config.linearization == "l1"
    assert report.metadata["backend"] in ("numba", "numpy")
    assert report.metadata["d"] == 3 and report.metadata["n"] == 3


def test_run_experiment_bound_validity_small():
    report = run_experiment(_small_config())
    for r in report.rows:
        assert r.sin_angle <= r.bound_kron + 1e-15
        assert r.bound_frob <= r.bound_kron + 1e-25
        assert r.flags == ()


def test_run_experiment_deterministic():
    a = render_csv(run_experiment(_small_config()))
    b = render_csv(run_experiment(_small_config()))
    assert a == b


def test_pipeline_starts_no_threads(monkeypatch):
    from pepbound.polyval import random_polynomial

    def refuse(self):
        raise RuntimeError("the pipeline must not start threads")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = _small_config(poly=PolySpec(kind="p1", n=2, d=2, seed=31))
    refs = reference_spectrum(random_polynomial(cfg.poly))
    assert len(refs) == 4
    assert len(run_experiment(cfg).rows) == 4


def test_run_experiment_accepts_precomputed_reference():
    from pepbound.polyval import random_polynomial

    P = random_polynomial(PolySpec(kind="p1", n=3, d=3, seed=4242))
    refs = reference_spectrum(P)
    with_ref = run_experiment(_small_config(), reference=refs)
    without = run_experiment(_small_config())
    assert render_csv(with_ref) == render_csv(without)


def test_run_experiment_writes_outputs(tmp_path):
    out_csv = str(tmp_path / "rows.csv")
    out_svg = str(tmp_path / "plot.svg")
    cfg = _small_config(out_csv=out_csv, out_plot=out_svg)
    report = run_experiment(cfg)
    with open(out_csv, encoding="utf-8") as fh:
        assert fh.read() == render_csv(report)
    with open(out_svg, encoding="utf-8") as fh:
        assert "<svg" in fh.read()


def test_run_experiment_flags_clustered_references(tmp_path):
    # two eigenvalues 2^-40 apart: rows must carry reference-quality flags
    gap = 2.0 ** -40
    D = np.diag([1.0, 1.0 + gap, 3.0]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([-D, np.eye(3, dtype=np.complex128)]))
    path = str(tmp_path / "clustered.json")
    save_polynomial(path, P)
    cfg = ExperimentConfig(
        poly=PolySpec(kind="file", n=3, d=1, seed=0, path=path),
        linearization="l1",
    )
    report = run_experiment(cfg)
    assert len(report.rows) == 3
    flagged = [r for r in report.rows if "ref_clustered" in r.flags]
    assert len(flagged) == 2


def test_run_experiment_scalar_linear_polynomial(tmp_path):
    # n = d = 1: the pencil is 1x1, the separation is +inf (empty
    # complement) and the scalar eigenvector has zero error and bound.
    P = MatrixPolynomial(np.array([[[-0.5]], [[1.0]]], dtype=np.complex128))
    path = str(tmp_path / "scalar.json")
    save_polynomial(path, P)
    cfg = ExperimentConfig(
        poly=PolySpec(kind="file", n=1, d=1, seed=0, path=path),
        linearization="l1",
    )
    report = run_experiment(cfg)
    assert report.diagnostics == ()
    (row,) = report.rows
    assert row.flags == ()
    assert row.sin_angle == 0.0
    assert row.sep == math.inf
    assert row.bound_kron == 0.0


# =======================
# CSV format
# =======================

def test_run_experiment_flags_only_the_row_whose_sep_fails(monkeypatch):
    cfg = _small_config()
    clean = run_experiment(cfg)
    real_kernel = _kernels.jacobi_singular_values_batch

    def fourth_fails(G):
        sweeps, converged = real_kernel(G)
        if len(converged) == len(clean.rows):
            converged[3] = False
        return sweeps, converged

    monkeypatch.setattr(_kernels, "jacobi_singular_values_batch", fourth_fails)
    report = run_experiment(cfg)
    failed = [r for r in report.rows if "sep_error" in r.flags]
    assert len(failed) == 1 and failed[0].sep == 0.0
    assert any(d.startswith("separation failed at") for d in report.diagnostics)
    for a, b in zip(report.rows, clean.rows):
        if a is not failed[0]:
            assert a == b


def test_csv_header_and_line_count():
    report = run_experiment(_small_config())
    text = render_csv(report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    assert text.endswith("\n")


def test_csv_empty_report_is_header_only():
    report = ExperimentReport(rows=(), config=_small_config(), diagnostics=())
    assert render_csv(report) == CSV_HEADER + "\n"


def test_csv_round_trip_values():
    report = run_experiment(_small_config())
    text = render_csv(report)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(report.rows)
    for row, rec in zip(report.rows, parsed):
        lam = complex(float(rec["lambda_re"]), float(rec["lambda_im"]))
        assert lam == row.lambda_computed  # %.17g round-trips doubles
        assert float(rec["abs_lambda"]) == abs(row.lambda_computed)
        assert float(rec["residual"]) == row.residual
        assert float(rec["sin_angle"]) == row.sin_angle
        assert float(rec["bound_kron"]) == row.bound_kron
        assert_allclose(
            float(rec["ratio"]), row.bound_kron / row.bound_frob, rtol=1e-12
        )
        assert rec["flags"] == ";".join(row.flags)


def test_emit_csv(tmp_path):
    report = run_experiment(_small_config())
    path = str(tmp_path / "out.csv")
    emit_csv(report, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == render_csv(report)


# =======================
# SVG plots
# =======================

def test_plot_empty_report_is_an_error():
    report = ExperimentReport(rows=(), config=_small_config(), diagnostics=())
    with pytest.raises(DomainError):
        render_plot(report)


def test_plot_single_row_has_two_markers():
    full = run_experiment(_small_config())
    report = ExperimentReport(
        rows=full.rows[:1], config=full.config, diagnostics=()
    )
    svg = render_plot(report)
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")
    assert svg.count('class="err"') == 1
    assert svg.count('class="bnd"') == 1


def test_plot_geometry_tracks_data():
    # markers must sit at increasing x with index, and the bound marker for
    # a row sits above (smaller SVG y) its error marker when bound > error
    report = run_experiment(_small_config())
    svg = render_plot(report)
    errs = re.findall(r'<circle class="err" cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    bnds = re.findall(r'<rect class="bnd" x="([0-9.]+)" y="([0-9.]+)"', svg)
    assert len(errs) == len(bnds) == len(report.rows)
    xs = [float(cx) for cx, _ in errs]
    assert xs == sorted(xs)
    for (_, cy), (_, by), row in zip(errs, bnds, report.rows):
        if row.bound_kron > row.sin_angle > 0 and math.isfinite(row.bound_kron):
            # rect y is its top-left corner; compare centers
            assert float(by) + 3.0 < float(cy)


def test_plot_is_deterministic_and_timestamp_free(tmp_path):
    report = run_experiment(_small_config())
    svg1 = render_plot(report)
    svg2 = render_plot(report)
    assert svg1 == svg2
    lower = svg1.lower()
    assert "date" not in lower and "time" not in lower
    path = str(tmp_path / "plot.svg")
    emit_plot(report, path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == svg1


def test_plot_axis_labels_present():
    report = run_experiment(_small_config())
    svg = render_plot(report)
    assert "1e-" in svg or "1e+" in svg or "1e0" in svg  # log-decade ticks
    assert "eigenvector index" in svg


# =======================
# structural invariant suite
# =======================

def test_invariant_suite_all_pass():
    results = run_invariant_suite(seed=5, d=3, n=2)
    assert len(results) >= 8
    for name, ok, detail in results:
        assert ok, (name, detail)
    names = [name for name, _, _ in results]
    assert len(names) == len(set(names))
