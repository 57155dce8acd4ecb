"""Backend parity: compiled kernels and the pure-numpy fallback must agree."""

import csv
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepbound._accel import BACKEND, NUMBA_ENABLED, thread_count
from pepbound.bench import ExperimentConfig, render_csv, run_experiment
from pepbound.polyval import PolySpec


# =======================
# in-process backend state
# =======================

def test_backend_is_a_known_name():
    assert BACKEND in ("numba", "numpy")
    assert BACKEND == ("numba" if NUMBA_ENABLED else "numpy")


def test_thread_count_positive():
    assert thread_count() == 1


# =======================
# subprocess backend selection
# =======================

needs_numba = pytest.mark.skipif(
    importlib.util.find_spec("numba") is None, reason="numba not importable"
)

BACKEND_CODE = "from pepbound._accel import BACKEND; print(BACKEND)"


def _spawn(code: str, backend: str | None) -> subprocess.CompletedProcess:
    """Run ``code`` in a clean interpreter; ``backend=None`` leaves
    ``PEPBOUND_BACKEND`` unset (the default, ``auto``)."""
    env = dict(os.environ)
    env.pop("PEPBOUND_BACKEND", None)
    if backend is not None:
        env["PEPBOUND_BACKEND"] = backend
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def _run_python(code: str, backend: str | None) -> str:
    proc = _spawn(code, backend)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _numba_imports() -> bool:
    return _spawn("import numba", "numpy").returncode == 0


def test_default_environment_compiles_kernels():
    # auto: the kernels are compiled exactly when numba imports.
    expected = "numba" if _numba_imports() else "numpy"
    assert _run_python(BACKEND_CODE, None).strip() == expected


def test_env_var_selects_backend():
    assert _run_python(BACKEND_CODE, "numpy").strip() == "numpy"
    if _numba_imports():
        assert _run_python(BACKEND_CODE, "numba").strip() == "numba"
    else:
        # Requiring numba where it is missing is an import error, not a
        # silent fallback.
        proc = _spawn(BACKEND_CODE, "numba")
        assert proc.returncode != 0
        assert "numba is not importable" in proc.stderr


EXPERIMENT_CODE = """
import sys
from pepbound.bench import ExperimentConfig, render_csv, run_experiment
from pepbound.polyval import PolySpec

config = ExperimentConfig(poly=PolySpec(kind="p1", n=4, d=3, seed=5),
                          linearization="%s")
report = run_experiment(config)
sys.stdout.write(render_csv(report))
"""


def _parse_rows(text: str):
    return list(csv.DictReader(text.splitlines()))


@needs_numba
def test_backends_agree_on_experiment_rows():
    # The same experiment, run under each backend in a clean interpreter,
    # must produce row-for-row matching results.  The kernels are identical
    # source compiled two ways, so only tiny reassociation-free differences
    # in library code (e.g. numpy BLAS paths) are tolerated.
    for lin in ("l1", "l3"):
        got = {
            backend: _parse_rows(_run_python(EXPERIMENT_CODE % lin, backend))
            for backend in ("numba", "numpy")
        }
        rows_nb, rows_np = got["numba"], got["numpy"]
        assert len(rows_nb) == len(rows_np) == 12
        for a, b in zip(rows_nb, rows_np):
            assert a["index"] == b["index"]
            assert a["flags"] == b["flags"]
            for key in ("lambda_re", "lambda_im", "sin_angle", "bound_kron",
                        "bound_frob", "residual", "sep"):
                assert_allclose(
                    float(a[key]), float(b[key]), rtol=1e-10, atol=1e-13,
                    err_msg="%s/%s row %s" % (lin, key, a["index"]),
                )


def test_in_process_report_matches_numpy_subprocess():
    config = ExperimentConfig(poly=PolySpec(kind="p1", n=4, d=3, seed=5),
                              linearization="l1")
    report = run_experiment(config)
    here = _parse_rows(render_csv(report))
    there = _parse_rows(_run_python(EXPERIMENT_CODE % "l1", "numpy"))
    for a, b in zip(here, there):
        assert_allclose(float(a["lambda_re"]), float(b["lambda_re"]),
                        rtol=1e-10, atol=1e-13)
        assert_allclose(float(a["sin_angle"]), float(b["sin_angle"]),
                        rtol=1e-8, atol=1e-12)


@needs_numba
def test_doubledouble_identical_across_backends():
    # Double-double arithmetic depends only on IEEE-754 rounding, so the two
    # backends must agree bit for bit, not merely to a tolerance.
    code = """
from pepbound.doubledouble import dd_add, dd_mul, dd_div, dd_sqrt
from pepbound.rng import SplitMix64

gen = SplitMix64(99)
out = []
for _ in range(50):
    a, b = gen.normal(), gen.normal()
    s = dd_add(a, 0.0, b, 0.0)
    p = dd_mul(a, 0.0, b, 0.0)
    q = dd_div(a, 0.0, b, 0.0)
    r = dd_sqrt(abs(a), 0.0)
    out.extend([*s, *p, *q, *r])
print(",".join(repr(x) for x in out))
"""
    assert _run_python(code, "numba") == _run_python(code, "numpy")
