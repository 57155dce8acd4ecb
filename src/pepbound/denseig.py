"""In-house dense complex pencil algebra: QZ, eigenvectors, SVD, separation.

This module wraps the kernels of :mod:`pepbound._kernels` into a small
generalized-eigenvalue toolkit for pencils ``A - lam*B``:

* :func:`generalized_schur` -- Hessenberg-triangular reduction followed by
  single-shift QZ with deflation, yielding ``A = Q @ TA @ Z*`` and
  ``B = Q @ TB @ Z*`` with unitary ``Q, Z`` and upper-triangular ``TA, TB``.
* :func:`eigenvalues` / :func:`gep_eigenpairs` -- diagonal ratios (with an
  infinite marker when the ``TB`` diagonal underflows) and unit eigenvectors
  via shifted inverse iteration.
* :func:`smallest_singular_value` / :func:`spectral_norm` -- one-sided Jacobi
  orthogonalization of columns; the smallest singular value comes out with
  high relative accuracy, which the separation denominators need.
  :func:`singular_values_batch` does the same for a whole stack at once,
  rotating disjoint column pairs in round-robin order.
* :func:`separation` -- ``sep(lam, (A1, B1)) = sigma_min`` of the deflated
  trailing pencil after rotating a known eigenvector to the front, the
  denominator of all eigenvector error bounds here; :func:`separations`
  evaluates many eigenpairs of one pencil with batched ``sigma_min``.

Everything is dense, complex, and desk-scale; factorizations are
single-threaded internally but independent calls are thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .exceptions import (
    Breakdown,
    DomainError,
    InfiniteEigenvalue,
    NonConvergence,
    NotAnEigenvector,
    NumericalError,
)
from .rng import SplitMix64

__all__ = [
    "GeneralizedSchur",
    "GEPEigenpair",
    "SepResult",
    "generalized_schur",
    "eigenvalues",
    "gep_eigenpairs",
    "inverse_iteration_vector",
    "unitary_completion",
    "singular_values",
    "singular_values_batch",
    "smallest_singular_value",
    "spectral_norm",
    "separation",
    "separations",
]

_INF = complex(np.inf, 0.0)

# Seed for the fixed pseudorandom start vector of inverse iteration; any
# constant works, determinism is what matters.
_START_SEED = 0x1A57E11A7E5EED


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedSchur:
    """Generalized Schur decomposition ``A = Q TA Z*``, ``B = Q TB Z*``."""

    Q: np.ndarray
    Z: np.ndarray
    TA: np.ndarray
    TB: np.ndarray

    @property
    def N(self) -> int:
        return self.TA.shape[0]


@dataclass(frozen=True)
class GEPEigenpair:
    """One generalized eigenpair: diagonal pair (alpha, beta) and vector.

    ``lam = alpha / beta`` when ``finite``; otherwise ``lam`` is an infinite
    marker and ``v`` is ``None`` (inverse iteration needs a finite shift).
    """

    alpha: complex
    beta: complex
    lam: complex
    finite: bool
    v: np.ndarray | None


@dataclass(frozen=True)
class SepResult:
    """Separation value with the shift it was evaluated at and diagnostics."""

    sep: float
    lambda_used: complex
    flags: tuple[str, ...]


# --------------------------------------------------------------------------
# generalized Schur (QZ)
# --------------------------------------------------------------------------

def _checked_square_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    A = np.ascontiguousarray(A, dtype=np.complex128)
    B = np.ascontiguousarray(B, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("A must be square")
    if B.shape != A.shape:
        raise DomainError("B must match A's shape")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise DomainError("pencil entries must be finite")
    return A, B


def generalized_schur(A: np.ndarray, B: np.ndarray) -> GeneralizedSchur:
    """Reduce the pencil ``(A, B)`` to generalized Schur form.

    Raises :class:`~pepbound.exceptions.NonConvergence` if the QZ sweep
    budget (60 per dimension) is exhausted.
    """
    A, B = _checked_square_pair(A, B)
    N = A.shape[0]
    H = A.copy()
    T = B.copy()
    Q = np.eye(N, dtype=np.complex128)
    Z = np.eye(N, dtype=np.complex128)
    if N > 0:
        _k.hessenberg_triangular(H, T, Q, Z)
        if _k.qz_iterate(H, T, Q, Z) != 0:
            raise NonConvergence(
                f"QZ did not deflate all subdiagonals within 60*{N} sweeps"
            )
        # The iteration leaves exact zeros below the diagonals; enforce that
        # structurally so downstream triangular logic can rely on it.
        H[:] = np.triu(H)
        T[:] = np.triu(T)
    for M in (H, T, Q, Z):
        M.setflags(write=False)
    return GeneralizedSchur(Q=Q, Z=Z, TA=H, TB=T)


def eigenvalues(S: GeneralizedSchur) -> list[complex]:
    """Diagonal ratios ``TA[i,i] / TB[i,i]`` with infinite-eigenvalue marking.

    A ratio is declared infinite when ``|TB[i,i]| <= 1e-14 * ||TB||_F`` and
    reported as ``complex(inf, 0)``.
    """
    normB = float(np.linalg.norm(S.TB))
    out: list[complex] = []
    for i in range(S.N):
        beta = S.TB[i, i]
        if abs(beta) <= 1e-14 * normB:
            out.append(_INF)
        else:
            out.append(complex(S.TA[i, i] / beta))
    return out


# --------------------------------------------------------------------------
# eigenvectors by inverse iteration
# --------------------------------------------------------------------------

def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real positive."""
    k = int(np.argmax(np.abs(v)))
    piv = v[k]
    if piv != 0:
        v = v * (abs(piv) / piv)
    return v


def inverse_iteration_vector(A: np.ndarray, B: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector for the (approximately known) eigenvalue ``lam``.

    Runs at most three solve-and-normalize steps with ``A - lam*B`` from a
    fixed pseudorandom start, keeping the iterate with the smallest residual
    ``||(A - lam*B) v||``.  If the LU factorization hits an exactly-zero
    pivot, the shift is perturbed by ``1e-13 * (1 + |lam|)`` and the whole
    process retried once before giving up.
    """
    A, B = _checked_square_pair(A, B)
    lam = complex(lam)
    if not np.isfinite(lam.real) or not np.isfinite(lam.imag):
        raise DomainError("inverse iteration needs a finite shift")
    N = A.shape[0]
    gen = SplitMix64(_START_SEED)
    start = np.array([gen.complex_normal() for _ in range(N)])
    start /= np.linalg.norm(start)

    def attempt(shift: complex) -> np.ndarray | None:
        M = A - shift * B
        LU = M.copy()
        piv = np.zeros(N, dtype=np.int64)
        if _k.lu_factor(LU, piv) != 0:
            return None
        v = start.copy()
        best = None
        best_res = np.inf
        for _ in range(3):
            _k.lu_solve(LU, piv, v)
            nrm = np.linalg.norm(v)
            if nrm == 0.0 or not np.isfinite(nrm):
                break
            v /= nrm
            res = float(np.linalg.norm(M @ v))
            if res < best_res:
                best_res = res
                best = v.copy()
        return best

    v = attempt(lam)
    if v is None:
        v = attempt(lam + 1e-13 * (1.0 + abs(lam)))
    if v is None:
        raise Breakdown("shifted pencil is singular to working precision")
    return _canonical_phase(v)


# --------------------------------------------------------------------------
# unitary completion and SVD
# --------------------------------------------------------------------------

def unitary_completion(u: np.ndarray) -> np.ndarray:
    """Unitary matrix whose first column is the unit vector ``u``.

    Householder construction: with ``s`` the phase of ``u[0]`` and
    ``v = u + s*e1``, the reflector ``H = I - 2 v v*/(v* v)`` sends ``u`` to
    ``-s*e1``, so ``W = -s*H`` is unitary with ``W @ e1 = u`` exactly.
    """
    u = np.asarray(u, dtype=np.complex128).ravel()
    N = u.shape[0]
    if N == 0:
        raise DomainError("empty vector")
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise DomainError("zero vector has no unitary completion")
    if abs(nrm - 1.0) > 1e-12:
        raise DomainError(f"vector is not unit norm (||u|| = {nrm!r})")
    u0 = u[0]
    s = u0 / abs(u0) if u0 != 0 else 1.0 + 0.0j
    v = u.copy()
    v[0] += s
    H = np.eye(N, dtype=np.complex128) - (2.0 / np.vdot(v, v)) * np.outer(v, v.conj())
    W = -s * H
    W[:, 0] = u
    return W


def singular_values(Mx: np.ndarray) -> np.ndarray:
    """All singular values, descending, via one-sided Jacobi."""
    G = np.ascontiguousarray(Mx, dtype=np.complex128)
    if G.ndim != 2:
        raise DomainError("expected a matrix")
    if G.size == 0:
        return np.zeros(0)
    if G.shape[0] < G.shape[1]:
        G = np.ascontiguousarray(G.conj().T)
    else:
        G = G.copy()
    _sweeps, ok = _k.jacobi_singular_values(G)
    if not ok:
        raise NonConvergence("Jacobi SVD did not converge in 60 sweeps")
    sig = np.linalg.norm(G, axis=0)
    sig.sort()
    return sig[::-1]


def singular_values_batch(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of every matrix in a ``(b, m, n)`` stack, descending.

    The batched :func:`singular_values`: wide matrices are transposed, and
    one round-robin one-sided Jacobi pass serves the whole stack.  Returns
    ``(sig, converged)`` with ``sig`` of shape ``(b, min(m, n))``.
    ``converged[i]`` is False when matrix ``i`` needed more than 60 sweeps;
    its row of ``sig`` is then meaningless, and :func:`singular_values`
    would have raised :class:`~pepbound.exceptions.NonConvergence` for it.
    """
    G = np.asarray(stack, dtype=np.complex128)
    if G.ndim != 3:
        raise DomainError("expected a (b, m, n) stack of matrices")
    b, m, n = G.shape
    # The kernel takes each matrix column by column: the columns of a tall
    # G are the rows of its transpose, those of a wide G* the rows of conj(G).
    if m >= n:
        X = np.array(np.swapaxes(G, 1, 2), order="C")
    else:
        X = np.ascontiguousarray(np.conj(G))
    if X.size == 0:
        return np.zeros((b, min(m, n))), np.ones(b, dtype=bool)
    _sweeps, converged = _k.jacobi_singular_values_batch(X)
    sig = np.sort(np.linalg.norm(X, axis=2), axis=1)[:, ::-1]
    return sig, converged


def smallest_singular_value(Mx: np.ndarray) -> float:
    """``sigma_min`` of a rectangular matrix; empty matrices give ``+inf``.

    The infinity convention covers the separation of an empty trailing block
    (pencils of size 1, where nothing constrains the bound denominator).
    """
    Mx = np.asarray(Mx)
    if Mx.size == 0:
        return float(np.inf)
    return float(singular_values(Mx)[-1])


def spectral_norm(Mx: np.ndarray) -> float:
    """Largest singular value; 0 for empty matrices."""
    Mx = np.asarray(Mx)
    if Mx.size == 0:
        return 0.0
    return float(singular_values(Mx)[0])


# --------------------------------------------------------------------------
# separation
# --------------------------------------------------------------------------

def _deflate(
    A: np.ndarray, B: np.ndarray, v_exact: np.ndarray, lam: complex
) -> tuple[np.ndarray, float]:
    """Trailing compression ``Q2* (A - lam*B) Z2`` and ``||A - lam*B||_F``.

    The deflation half of :func:`separation`, with its checks and errors.
    """
    v = np.asarray(v_exact, dtype=np.complex128).ravel()
    if v.shape[0] != A.shape[0]:
        raise DomainError("eigenvector length must match the pencil size")
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise DomainError("zero eigenvector")
    z1 = v / nv
    Bz = B @ z1
    nBz = np.linalg.norm(Bz)
    normB = np.linalg.norm(B)
    if nBz <= 1e-14 * normB:
        raise InfiniteEigenvalue("B @ v vanishes; the eigenvalue is infinite")
    q1 = Bz / nBz
    Az = A @ z1
    lam_est = complex(np.vdot(q1, Az) / nBz)
    normA = np.linalg.norm(A)
    if np.linalg.norm(Az - lam_est * Bz) > 1e-8 * max(normA, 1e-300):
        raise NotAnEigenvector(
            "A v is not parallel to B v; v is not an eigenvector of the pencil"
        )
    Wz = unitary_completion(z1)
    Wq = unitary_completion(q1)
    Z2 = Wz[:, 1:]
    Q2 = Wq[:, 1:]
    shifted = A - lam * B
    return Q2.conj().T @ shifted @ Z2, float(np.linalg.norm(shifted))


def _sep_result(sep: float, lam: complex, scale: float) -> SepResult:
    flags: tuple[str, ...] = ()
    if np.isfinite(sep) and sep <= 1e-13 * max(scale, 1e-300):
        flags = ("tiny_sep",)
    return SepResult(sep=sep, lambda_used=lam, flags=flags)


def separation(
    A: np.ndarray, B: np.ndarray, v_exact: np.ndarray, lam: complex
) -> SepResult:
    """Separation ``sigma_min(Q2* (A - lam*B) Z2)`` after deflating one pair.

    ``v_exact`` must be an eigenvector of the pencil with finite eigenvalue.
    The deflation takes ``z1 = v/||v||`` and ``q1 = B z1 / ||B z1||``,
    completes both to unitary matrices, and measures the smallest singular
    value of the trailing ``(N-1) x (N-1)`` compression.  This equals the
    separation computed from any generalized Schur form with the eigenvalue
    ordered first, because two valid completions differ by a unitary factor
    on the orthogonal complement and ``sigma_min`` is unitarily invariant.

    Raises :class:`~pepbound.exceptions.InfiniteEigenvalue` when
    ``B v`` vanishes and :class:`~pepbound.exceptions.NotAnEigenvector` when
    ``A z1`` is not parallel to ``B z1``.
    """
    A, B = _checked_square_pair(A, B)
    lam = complex(lam)
    compressed, scale = _deflate(A, B, v_exact, lam)
    return _sep_result(smallest_singular_value(compressed), lam, scale)


# Compressions per batched sigma_min call in :func:`separations`: as many as
# fit in 8192 matrix entries (128 KiB), so that for small pencils the stack
# and the kernel's temporaries stay small next to the rest of the process,
# but at least 6, so that for large pencils the vectorized kernel's
# per-round cost is still shared.  9 at N = 30, 6 at N = 50.
_SEP_BATCH_ENTRIES = 8192
_SEP_BATCH_MIN = 6


def separations(
    A: np.ndarray, B: np.ndarray, pairs
) -> list[SepResult | NumericalError]:
    """:func:`separation` for many ``(v_exact, lam)`` pairs of one pencil.

    The compressions go through :func:`singular_values_batch` a stack of
    several at a time; a matrix's singular values do not depend on the
    others in its stack.  Entry ``k`` is the :class:`SepResult` of pair
    ``k``, or the :class:`~pepbound.exceptions.NumericalError` that
    :func:`separation` raises for it (including
    :class:`~pepbound.exceptions.NonConvergence` of its Jacobi SVD):
    failures are returned in place, not raised, so one bad pair leaves the
    others intact.  Malformed input still raises
    :class:`~pepbound.exceptions.DomainError`.
    """
    A, B = _checked_square_pair(A, B)
    pairs = list(pairs)
    step = max(_SEP_BATCH_MIN, _SEP_BATCH_ENTRIES // max(1, (A.shape[0] - 1) ** 2))
    out: list[SepResult | NumericalError] = []
    for i in range(0, len(pairs), step):
        out.extend(_separations_chunk(A, B, pairs[i:i + step]))
    return out


def _separations_chunk(A, B, pairs) -> list[SepResult | NumericalError]:
    out: list[SepResult | NumericalError | None] = [None] * len(pairs)
    m = max(A.shape[0] - 1, 0)
    stack = np.empty((len(pairs), m, m), dtype=np.complex128)
    kept = []
    for k, (v_exact, lam) in enumerate(pairs):
        lam = complex(lam)
        try:
            compressed, scale = _deflate(A, B, v_exact, lam)
        except NumericalError as exc:
            out[k] = exc
            continue
        stack[len(kept)] = compressed
        kept.append((k, lam, scale))
    if kept:
        sig, converged = singular_values_batch(stack[: len(kept)])
        for j, (k, lam, scale) in enumerate(kept):
            if not converged[j]:
                out[k] = NonConvergence("Jacobi SVD did not converge in 60 sweeps")
            else:
                sep = float(sig[j, -1]) if sig.shape[1] else float(np.inf)
                out[k] = _sep_result(sep, lam, scale)
    return out


# --------------------------------------------------------------------------
# batched eigenpairs
# --------------------------------------------------------------------------

def gep_eigenpairs(
    A: np.ndarray, B: np.ndarray, schur: GeneralizedSchur | None = None
) -> list[GEPEigenpair]:
    """All eigenpairs of ``A - lam*B``: QZ eigenvalues plus inverse-iteration
    vectors.  Infinite eigenvalues get ``v=None`` (no finite shift exists)."""
    A, B = _checked_square_pair(A, B)
    if schur is None:
        schur = generalized_schur(A, B)
    pairs: list[GEPEigenpair] = []
    for i, ev in enumerate(eigenvalues(schur)):
        alpha = complex(schur.TA[i, i])
        beta = complex(schur.TB[i, i])
        if ev == _INF:
            pairs.append(
                GEPEigenpair(alpha=alpha, beta=beta, lam=_INF, finite=False, v=None)
            )
        else:
            lam = alpha / beta
            v = inverse_iteration_vector(A, B, lam)
            pairs.append(
                GEPEigenpair(alpha=alpha, beta=beta, lam=lam, finite=True, v=v)
            )
    return pairs
