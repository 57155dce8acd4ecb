"""Tests for the command-line interface (exit codes and artifacts)."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pepbound.bench import CSV_HEADER
from pepbound.cli import main
from pepbound.oracle import load_reference_cache
from pepbound.polyval import MatrixPolynomial, save_polynomial


# =======================
# run subcommand
# =======================

def test_run_writes_csv_and_plot(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    plot = str(tmp_path / "plot.svg")
    code = main([
        "run", "--poly", "p1", "--d", "3", "--n", "3", "--seed", "7",
        "--out", out, "--plot", plot,
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "9 eigenpairs" in captured.out
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10  # header + 9 rows
    with open(plot, encoding="utf-8") as fh:
        assert "</svg>" in fh.read()


def test_run_accepts_polynomial_file(tmp_path, capsys):
    D = np.diag([0.5, 2.0]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([-D, np.eye(2, dtype=np.complex128)]))
    path = str(tmp_path / "poly.json")
    save_polynomial(path, P)
    out = str(tmp_path / "rows.csv")
    code = main(["run", "--poly", path, "--out", out])
    assert code == 0
    with open(out, encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 3  # header + 2 eigenvalues


def test_run_scalar_linear_polynomial_file(tmp_path, capsys):
    P = MatrixPolynomial(np.array([[[-0.5]], [[1.0]]], dtype=np.complex128))
    path = str(tmp_path / "scalar.json")
    save_polynomial(path, P)
    assert main(["run", "--poly", path]) == 0
    assert "1 eigenpairs (1 unflagged)" in capsys.readouterr().out


def test_run_unknown_linearization_is_usage_error(capsys):
    assert main(["run", "--linearization", "l9"]) == 2


def test_run_no_parallel_flag_is_usage_error(capsys):
    assert main(["run", "--no-parallel"]) == 2


def test_run_missing_polynomial_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["run", "--poly", missing]) == 2
    assert "error" in capsys.readouterr().err


def test_run_malformed_polynomial_file(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"n": 2, "d": 1}')
    assert main(["run", "--poly", path]) == 2


# =======================
# verify subcommand
# =======================

def test_verify_prints_pass_lines(capsys):
    code = main(["verify", "--seed", "3", "--d", "3", "--n", "2"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) >= 8
    assert all(ln.startswith("PASS") for ln in lines)


# =======================
# oracle subcommand
# =======================

def test_oracle_writes_loadable_cache(tmp_path, capsys):
    out = str(tmp_path / "cache.json")
    code = main([
        "oracle", "--poly", "p1", "--d", "2", "--n", "2", "--seed", "11",
        "--out", out,
    ])
    assert code == 0
    P, refs = load_reference_cache(out)
    assert P.d == 2 and P.n == 2
    assert len(refs) == 4
    assert all(r.converged for r in refs)


def test_oracle_requires_out_flag(capsys):
    assert main(["oracle", "--poly", "p1", "--d", "2", "--n", "2"]) == 2


# =======================
# top-level parser
# =======================

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.skipif(shutil.which("pepbound") is None, reason="pepbound not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["pepbound", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "pepbound" in proc.stdout


def test_declared_console_script_target_runs():
    # The target that pyproject.toml declares for the `pepbound` script,
    # run the way the installed wrapper runs it, without needing an install.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pepbound"]
    module, func = target.split(":")
    code = "import sys; from %s import %s; sys.exit(%s())" % (module, func, func)
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pepbound" in proc.stdout
