"""Correctness gate for one operation, run outside the timed region.

An experiment passes when

* every unflagged row has ``sin_angle <= bound_kron + 1e-15`` (the bound is
  a certificate, so it may never be below the true error);
* its rows plus the diagnostics that drop an eigenvalue cover all ``d*n``
  eigenvalues;
* its eigenvalues agree with ``scipy.linalg.eigvals`` to ``1e-8`` relative.
  scipy is an oracle here only; pepbound never uses it.  The pencil scipy
  solves is the block companion form of ``P``, built here from the
  coefficients, so a fault in pepbound's own assembly cannot hide.

A reference spectrum passes when it has ``d*n`` pairs, every converged pair
has residual ``<= 1e-25 * max_i ||A_i||_2``, and its eigenvalues agree with
scipy.  The thresholds are the gate's own, not read from pepbound, so a
change that loosens the program's tolerances cannot loosen the gate too.

At the default seed, both kinds must also match the rows stored under
``parity/`` within rtol ``1e-10``, with identical flags.  Eigenvalues and
separations also get the absolute ``1e-13`` of the backend-parity tests.
Residuals, angles and bounds live at roundoff size (``1e-30`` to
``1e-14``), where that absolute tolerance would accept any value, so they
are compared relative only.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

import pepbound

BOUND_SLACK = 1e-15
EIG_RTOL = 1e-8
#: Converged reference pairs: residual <= RESIDUAL_TOL * max_i ||A_i||_2.
RESIDUAL_TOL = 1e-25
PARITY_RTOL = 1e-10
PARITY_ATOL = 1e-13


def _companion_eigvals(P) -> np.ndarray:
    """Finite eigenvalues of ``P(lam) = sum_i lam^i A_i`` from the block
    companion pencil ``A x = lam B x`` with ``x = (lam^(d-1) v, ..., v)``."""
    d, n = P.d, P.n
    size = d * n
    A = np.zeros((size, size), dtype=np.complex128)
    B = np.eye(size, dtype=np.complex128)
    B[:n, :n] = P.coeffs[d]
    for j in range(d):
        A[:n, j * n:(j + 1) * n] = -P.coeffs[d - 1 - j]
    A[n:, :size - n] = np.eye(size - n)
    ev = scipy.linalg.eigvals(A, B)
    return ev[np.isfinite(ev)]


def _eig_agreement(lams: list[complex], oracle: np.ndarray) -> list[str]:
    """Each computed eigenvalue near an oracle one, and, when the counts are
    equal, each oracle eigenvalue near a computed one."""
    problems = []
    got = np.asarray(lams, dtype=np.complex128)
    pairs = [(got, oracle, "computed")]
    if len(got) == len(oracle):
        pairs.append((oracle, got, "scipy"))
    for src, dst, what in pairs:
        for lam in src:
            dist = np.min(np.abs(dst - lam)) if len(dst) else math.inf
            if not dist <= EIG_RTOL * (1.0 + abs(lam)):
                problems.append(f"{what} eigenvalue {lam:.6g} unmatched (dist {dist:.2e})")
    return problems


def check_experiment(op, report) -> list[str]:
    problems = []
    for r in report.rows:
        if not r.flags and not r.sin_angle <= r.bound_kron + BOUND_SLACK:
            problems.append(f"row {r.index}: sin_angle {r.sin_angle:.3e} exceeds "
                            f"bound_kron {r.bound_kron:.3e}")
    dropped = [m for m in report.diagnostics if not m.startswith("separation failed")]
    expected = op.spec.d * op.spec.n
    if len(report.rows) + len(dropped) != expected:
        problems.append(f"{len(report.rows)} rows + {len(dropped)} dropped "
                        f"!= {expected} eigenvalues")
    P = pepbound.random_polynomial(op.spec)
    problems += _eig_agreement([r.lambda_computed for r in report.rows],
                               _companion_eigvals(P))
    return problems


def check_reference(P, refs) -> list[str]:
    problems = []
    expected = P.d * P.n
    if len(refs) != expected:
        problems.append(f"{len(refs)} reference pairs != {expected} eigenvalues")
    max_norm = max(np.linalg.norm(P.coeffs[i], 2) for i in range(P.d + 1))
    for k, r in enumerate(refs):
        if r.converged and not r.residual <= RESIDUAL_TOL * max_norm * (1 + 1e-12):
            problems.append(f"pair {k}: converged residual {r.residual:.3e} above "
                            f"{RESIDUAL_TOL:g} * max ||A_i||")
    problems += _eig_agreement([r.lam.value for r in refs], _companion_eigvals(P))
    return problems


def check(op, result) -> list[str]:
    """Problems found in one operation's result; empty when it passes."""
    if isinstance(result, tuple):
        return check_reference(*result)
    return check_experiment(op, result)


# --------------------------------------------------------------------------
# parity with stored rows
# --------------------------------------------------------------------------

def parity_rows(result) -> list[list]:
    """Numbers and flags of each row, in report order: ``lam.real, lam.imag``
    first, then ``residual`` (and for experiments ``sep, sin_angle,
    bound_kron, bound_frob``)."""
    if isinstance(result, tuple):
        return [[r.lam.value.real, r.lam.value.imag, r.residual,
                 ["converged"] * r.converged + ["clustered"] * r.clustered]
                for r in result[1]]
    return [[r.lambda_computed.real, r.lambda_computed.imag, r.residual, r.sep,
             r.sin_angle, r.bound_kron, r.bound_frob, list(r.flags)]
            for r in result.rows]


def _parity_atol(field: int, width: int) -> float:
    """Absolute tolerance of one field of a :func:`parity_rows` row of
    ``width`` numbers: ``PARITY_ATOL`` for the eigenvalue (fields 0, 1) and
    the separation (field 3 of an experiment row), 0 for the rest."""
    if field < 2 or (width == 7 and field == 3):
        return PARITY_ATOL
    return 0.0


def check_parity(got: list[list], want: list[list]) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} rows, stored {len(want)}"]
    problems = []
    for i, (a, b) in enumerate(zip(got, want)):
        if a[-1] != b[-1]:
            problems.append(f"row {i + 1}: flags {a[-1]} != stored {b[-1]}")
        width = len(b) - 1
        for j, (x, y) in enumerate(zip(a[:-1], b[:-1])):
            if not abs(x - y) <= _parity_atol(j, width) + PARITY_RTOL * abs(y):
                problems.append(f"row {i + 1} field {j}: {x!r} != stored {y!r}")
    return problems
