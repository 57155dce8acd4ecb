"""Numerical kernels: rotations, QZ, LU, Jacobi SVD, refinement.

The rotation, QZ, LU and Jacobi kernels are plain Python over numpy arrays
and use numpy slice arithmetic where it vectorises well.  The double-double
refinement kernels run on plain float tuples instead, the form the
:mod:`pepbound.doubledouble` functions take and return: a complex
double-double value is ``(re_hi, re_lo, im_hi, im_lo)``, a vector is a list
of such tuples and a matrix is a list of rows, so no value is unpacked
from or written back to array slots around a call.

Conventions
-----------
* Left Givens rotation ``G = [[c, s], [-conj(s), c]]`` with real ``c``:
  ``_rot_left(a, b)`` returns ``(c, s, r)`` so that ``G @ [a, b] = [r, 0]``.
  Applying ``G`` to rows ``(i, j)`` of ``X`` is ``_apply_rows(c, s, X, i, j, k0)``.
* Right rotation ``W = [[c, -conj(s)], [s, c]]`` acts on columns ``(p, q)``:
  ``_rot_right(a, b)`` returns ``(c, s)`` such that the new column ``p`` entry
  ``c*a + s*b`` vanishes.  Applying is ``_apply_cols(c, s, X, p, q, k1)``.
* Accumulated transforms keep ``A = Q @ H @ Z*`` and ``B = Q @ T @ Z*``
  invariant: a left rotation updates ``Q`` via ``_apply_cols(c, conj(s), Q, ...)``
  and a right rotation updates ``Z`` via ``_apply_cols(c, s, Z, ...)``.

The numpy kernels expect C-contiguous ``complex128`` matrices and modify
them in place.  Kernels that can fail report an integer status (0 =
success), first in the tuple when they return more; the wrappers in
:mod:`pepbound.denseig` and :mod:`pepbound.oracle` translate statuses to
exceptions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .doubledouble import (
    cdd_abs2,
    cdd_add,
    cdd_div,
    cdd_mul,
    cdd_scale,
    cdd_sub,
    dd_add,
    dd_div,
    dd_sqrt,
)

_EPS = 2.220446049250313e-16
_DEFLATE = 1.0e-14


# --------------------------------------------------------------------------
# Givens rotation primitives
# --------------------------------------------------------------------------

def _rot_left(a, b):
    """Rotation zeroing ``b`` from the left: returns ``(c, s, r)``.

    ``[[c, s], [-conj(s), c]] @ [a, b] == [r, 0]`` with real ``c >= 0``.
    """
    if b == 0:
        return 1.0, 0.0 + 0.0j, a
    if a == 0:
        return 0.0, 1.0 + 0.0j, b
    aa = abs(a)
    h = (aa * aa + abs(b) ** 2) ** 0.5
    sgn = a / aa
    c = aa / h
    s = sgn * b.conjugate() / h
    r = sgn * h
    return c, s, r


def _rot_right(a, b):
    """Rotation zeroing ``a`` against ``b`` from the right: returns ``(c, s)``.

    For column entries ``(a, b) = (X[i, p], X[i, q])`` the update
    ``col_p <- c*col_p + s*col_q`` makes entry ``X[i, p]`` vanish.
    """
    if a == 0:
        return 1.0, 0.0 + 0.0j
    if b == 0:
        return 0.0, 1.0 + 0.0j
    ab = abs(b)
    h = (abs(a) ** 2 + ab * ab) ** 0.5
    c = ab / h
    s = -(a * b.conjugate()) / (ab * h)
    return c, s


def _apply_rows(c, s, X, i, j, k0):
    """Left rotation on rows ``i`` and ``j`` of ``X``, columns ``k0`` on."""
    xi = X[i, k0:].copy()
    xj = X[j, k0:]
    X[i, k0:] = c * xi + s * xj
    X[j, k0:] = c * xj - s.conjugate() * xi


def _apply_cols(c, s, X, p, q, k1):
    """Right rotation on columns ``p`` and ``q`` of ``X``, rows before ``k1``."""
    xp = X[:k1, p].copy()
    xq = X[:k1, q]
    X[:k1, p] = c * xp + s * xq
    X[:k1, q] = c * xq - s.conjugate() * xp


# --------------------------------------------------------------------------
# Hessenberg-triangular reduction
# --------------------------------------------------------------------------

def hessenberg_triangular(A, B, Q, Z):
    """Reduce ``(A, B)`` to Hessenberg-triangular form in place.

    On exit ``A`` is upper Hessenberg, ``B`` upper triangular, and the
    accumulated unitaries satisfy ``A_in = Q @ A @ Z*`` (same for ``B``).
    ``Q`` and ``Z`` must come in as identity matrices.
    """
    n = A.shape[0]
    # Stage 1: QR-factor B with left rotations, dragging A along.
    for k in range(n):
        for i in range(n - 1, k, -1):
            c, s, r = _rot_left(B[i - 1, k], B[i, k])
            B[i - 1, k] = r
            B[i, k] = 0.0 + 0.0j
            _apply_rows(c, s, B, i - 1, i, k + 1)
            _apply_rows(c, s, A, i - 1, i, 0)
            _apply_cols(c, s.conjugate(), Q, i - 1, i, n)
    # Stage 2: zero A below the subdiagonal column by column, bottom-up,
    # restoring the triangularity of B after every left rotation.
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            c, s, r = _rot_left(A[i - 1, j], A[i, j])
            A[i - 1, j] = r
            A[i, j] = 0.0 + 0.0j
            _apply_rows(c, s, A, i - 1, i, j + 1)
            _apply_rows(c, s, B, i - 1, i, i - 1)
            _apply_cols(c, s.conjugate(), Q, i - 1, i, n)
            c2, s2 = _rot_right(B[i, i - 1], B[i, i])
            _apply_cols(c2, s2, B, i - 1, i, i + 1)
            B[i, i - 1] = 0.0 + 0.0j
            _apply_cols(c2, s2, A, i - 1, i, n)
            _apply_cols(c2, s2, Z, i - 1, i, n)


# --------------------------------------------------------------------------
# single-shift QZ iteration
# --------------------------------------------------------------------------

def qz_iterate(H, T, Q, Z):
    """Drive a Hessenberg-triangular pair to generalized Schur form.

    Complex single-shift QZ with Wilkinson shifts from the trailing 2x2
    pencil, an exceptional shift every 12 stalled sweeps, and subdiagonal
    deflation at ``1e-14`` relative to the neighbouring diagonal (absolute
    ``eps * ||H||_F`` when that neighbourhood is exactly zero).

    Returns 0 on success, 1 if the sweep budget ``60 * n`` is exhausted.
    """
    n = H.shape[0]
    if n <= 1:
        return 0
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += abs(H[i, j]) ** 2
    eps_fro = _EPS * fro ** 0.5
    maxit = 60 * n
    it = 0
    stall = 0
    e = n - 1
    while e > 0:
        it += 1
        if it > maxit:
            return 1
        # Deflation scan: find the sub-block closest to the bottom.
        lo = e
        while lo > 0:
            tst = abs(H[lo - 1, lo - 1]) + abs(H[lo, lo])
            if tst == 0.0:
                tst = eps_fro
            if abs(H[lo, lo - 1]) <= _DEFLATE * tst:
                H[lo, lo - 1] = 0.0 + 0.0j
                break
            lo -= 1
        if lo == e:
            e -= 1
            stall = 0
            continue
        stall += 1
        # Shift selection.
        h11 = H[e - 1, e - 1]
        h12 = H[e - 1, e]
        h21 = H[e, e - 1]
        h22 = H[e, e]
        t11 = T[e - 1, e - 1]
        t12 = T[e - 1, e]
        t22 = T[e, e]
        shift = 0.0 + 0.0j
        if stall % 12 == 0:
            # Exceptional shift to break symmetric stalls.
            tden = t11
            if tden == 0:
                tden = 1.0 + 0.0j
            shift = h21 / tden
        else:
            # Wilkinson: eigenvalue of the trailing 2x2 pencil nearest h22/t22,
            # from the stable quadratic a2*x^2 + a1*x + a0 = 0.
            a2 = t11 * t22
            a1 = -(h11 * t22 + t11 * h22 - h21 * t12)
            a0 = h11 * h22 - h12 * h21
            if a2 != 0:
                disc = (a1 * a1 - 4.0 * a2 * a0) ** 0.5
                d1 = a1 + disc
                d2 = a1 - disc
                qq = -0.5 * d1 if abs(d1) >= abs(d2) else -0.5 * d2
                if qq != 0:
                    r1 = qq / a2
                    r2 = a0 / qq
                    if abs(r1 * t22 - h22) <= abs(r2 * t22 - h22):
                        shift = r1
                    else:
                        shift = r2
            elif a1 != 0:
                shift = -a0 / a1
            elif t22 != 0:
                shift = h22 / t22
        # Implicit shifted step on the active block lo..e.
        c, s, _ = _rot_left(H[lo, lo] - shift * T[lo, lo], H[lo + 1, lo])
        _apply_rows(c, s, H, lo, lo + 1, lo)
        _apply_rows(c, s, T, lo, lo + 1, lo)
        _apply_cols(c, s.conjugate(), Q, lo, lo + 1, n)
        for j in range(lo, e):
            # Restore triangular T: kill the fill at (j+1, j).
            c2, s2 = _rot_right(T[j + 1, j], T[j + 1, j + 1])
            _apply_cols(c2, s2, T, j, j + 1, j + 2)
            T[j + 1, j] = 0.0 + 0.0j
            lim = j + 3 if j + 3 < e + 1 else e + 1
            _apply_cols(c2, s2, H, j, j + 1, lim)
            _apply_cols(c2, s2, Z, j, j + 1, n)
            if j < e - 1:
                # Chase the bulge created at H[j+2, j].
                c3, s3, r3 = _rot_left(H[j + 1, j], H[j + 2, j])
                H[j + 1, j] = r3
                H[j + 2, j] = 0.0 + 0.0j
                _apply_rows(c3, s3, H, j + 1, j + 2, j + 1)
                _apply_rows(c3, s3, T, j + 1, j + 2, j + 1)
                _apply_cols(c3, s3.conjugate(), Q, j + 1, j + 2, n)
    return 0


# --------------------------------------------------------------------------
# LU with partial pivoting (complex) for inverse iteration
# --------------------------------------------------------------------------

def lu_factor(A, piv):
    """In-place LU with partial pivoting; fills ``piv`` with row swaps.

    Returns 0, or 1 when a pivot column is exactly zero (singular to
    working precision at that step).
    """
    n = A.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0:
            return 1
        piv[k] = p
        if p != k:
            tmp = A[k, :].copy()
            A[k, :] = A[p, :]
            A[p, :] = tmp
        A[k + 1:, k] = A[k + 1:, k] / A[k, k]
        A[k + 1:, k + 1:] = A[k + 1:, k + 1:] - A[k + 1:, k:k + 1] * A[k:k + 1, k + 1:]
    return 0


def lu_solve(A, piv, b):
    """Solve with factors from :func:`lu_factor`; overwrites ``b``.

    The stored multipliers sit at their final (post-pivot) row positions, so
    all row interchanges are applied to ``b`` up front, then the two
    triangular solves run.
    """
    n = A.shape[0]
    for k in range(n):
        p = piv[k]
        if p != k:
            tmp = b[k]
            b[k] = b[p]
            b[p] = tmp
    for k in range(n):
        b[k + 1:] = b[k + 1:] - A[k + 1:, k] * b[k]
    for k in range(n - 1, -1, -1):
        b[k] = (b[k] - np.sum(A[k, k + 1:] * b[k + 1:])) / A[k, k]


# --------------------------------------------------------------------------
# one-sided Jacobi for singular values
# --------------------------------------------------------------------------

def jacobi_singular_values(G):
    """One-sided (Hestenes) Jacobi sweep loop on the columns of ``G``.

    Rotates column pairs until all are mutually orthogonal; afterwards the
    Euclidean column norms are the singular values (to high relative
    accuracy, which matters for the smallest one).  ``G`` must have at least
    as many rows as columns.  Returns ``(sweeps, converged)``.
    """
    n = G.shape[1]
    tol = 1.0e-15
    sweeps = 0
    for _sweep in range(60):
        sweeps += 1
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                gp = G[:, p]
                gq = G[:, q]
                app = np.real(np.sum(gp * np.conj(gp)))
                aqq = np.real(np.sum(gq * np.conj(gq)))
                z = np.sum(np.conj(gp) * gq)
                az = abs(z)
                if az == 0.0 or az <= tol * (app * aqq) ** 0.5:
                    continue
                rotated = True
                phi = z / az
                zeta = (aqq - app) / (2.0 * az)
                if zeta >= 0.0:
                    t = 1.0 / (zeta + (1.0 + zeta * zeta) ** 0.5)
                else:
                    t = -1.0 / (-zeta + (1.0 + zeta * zeta) ** 0.5)
                c = 1.0 / (1.0 + t * t) ** 0.5
                s = t * c
                gpc = gp.copy()
                G[:, p] = c * gpc - (s * phi.conjugate()) * gq
                G[:, q] = (s * phi) * gpc + c * gq
        if not rotated:
            return sweeps, True
    return sweeps, False


@functools.lru_cache(maxsize=64)
def _round_robin_schedule(n):
    """Brent-Luk round-robin ordering of the column pairs of an ``n``-column
    matrix: ``n' - 1`` rounds (``n'`` is ``n`` rounded up to even) of
    disjoint pairs ``p < q`` that together visit every pair once per sweep.
    Returns one read-only ``(ps, qs)`` index-array pair per round."""
    m = n + n % 2
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for k in range(m // 2):
            p, q = players[k], players[m - 1 - k]
            if p < n and q < n:
                ps.append(min(p, q))
                qs.append(max(p, q))
        pair = (np.array(ps, dtype=np.int64), np.array(qs, dtype=np.int64))
        for idx in pair:
            idx.setflags(write=False)
        rounds.append(pair)
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def jacobi_singular_values_batch(X):
    """One-sided Jacobi on a stack of matrices held column by column, in place.

    ``X`` has shape ``(b, n, m)`` with ``m >= n``: ``X[i, j]`` is column
    ``j`` of matrix ``i`` (so ``X[i]`` is that matrix transposed, and the
    inner products reduce contiguous rows).  On return the Euclidean norms
    of the ``X[i, j]`` are the singular values.  The batched form of
    :func:`jacobi_singular_values`, with the same ``1e-15`` rotation
    threshold, rotation formula and 60-sweep cap.  Each sweep follows the
    round-robin ordering, whose rounds rotate disjoint column pairs of
    every unconverged matrix at once; a matrix retires after its first
    sweep without a rotation.  Returns ``(sweeps, converged)``, one entry
    per matrix.
    """
    b, n, _ = X.shape
    sweeps = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=np.bool_)
    tol = 1.0e-15
    rounds = _round_robin_schedule(n)
    active = np.arange(b)
    W = X  # the unconverged matrices; a compacted copy once some retire
    for _sweep in range(60):
        if active.size == 0:
            break
        sweeps[active] += 1
        rotated = np.zeros(active.size, dtype=np.bool_)
        for ps, qs in rounds:
            gp = W[:, ps, :]
            gq = W[:, qs, :]
            app = np.real(np.sum(gp * np.conj(gp), axis=-1))
            aqq = np.real(np.sum(gq * np.conj(gq), axis=-1))
            z = np.sum(np.conj(gp) * gq, axis=-1)
            az = np.abs(z)
            rot = (az != 0.0) & (az > tol * np.sqrt(app * aqq))
            if not rot.any():
                continue
            rotated |= rot.any(axis=1)
            # Pairs that stay put get the identity rotation (c = 1, s = 0),
            # which leaves both columns bit for bit unchanged.
            azs = np.where(rot, az, 1.0)
            phi = np.where(rot, z / azs, 1.0)
            zeta = (aqq - app) / (2.0 * azs)
            sign = np.where(rot, np.where(zeta >= 0.0, 1.0, -1.0), 0.0)
            t = sign / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            W[:, ps, :] = c[..., None] * gp - (s * np.conj(phi))[..., None] * gq
            W[:, qs, :] = (s * phi)[..., None] * gp + c[..., None] * gq
        converged[active[~rotated]] = True
        if not rotated.all():
            if W is not X:
                X[active] = W
            active = active[rotated]
            W = X[active]
    if W is not X:
        X[active] = W
    return sweeps, converged


# --------------------------------------------------------------------------
# complex double-double LU and bordered Newton refinement
# --------------------------------------------------------------------------

_CZERO = (0.0, 0.0, 0.0, 0.0)
_CONE = (1.0, 0.0, 0.0, 0.0)


def _cdd(z):
    """The complex double ``z`` as a double-double tuple."""
    return (z.real, 0.0, z.imag, 0.0)


def _cdd_dot(row, x, acc=_CZERO, op=cdd_add):
    """``acc op row[0]*x[0] op row[1]*x[1] ...``, accumulated left to right."""
    for a, b in zip(row, x):
        acc = op(*acc, *cdd_mul(*a, *b))
    return acc


def dd_lu_solve(J, rhs):
    """Solve ``J @ delta = rhs`` in complex double-double, in place.

    ``J`` is a list of ``m`` rows (destroyed), each a list of ``m`` complex
    double-double tuples ``(re_hi, re_lo, im_hi, im_lo)``; ``rhs`` is a list
    of ``m`` such tuples and holds the solution on exit.  Pivoting maximises
    the sum of the high-part magnitudes.  Returns 0, or 1 on an exactly-zero
    pivot.
    """
    m = len(J)
    for k in range(m):
        best = -1.0
        bi = k
        for r in range(k, m):
            mag = abs(J[r][k][0]) + abs(J[r][k][2])
            if mag > best:
                best = mag
                bi = r
        if best <= 0.0:
            return 1
        J[k], J[bi] = J[bi], J[k]
        rhs[k], rhs[bi] = rhs[bi], rhs[k]
        pivot_row = J[k]
        for r in range(k + 1, m):
            row = J[r]
            mult = cdd_div(*row[k], *pivot_row[k])
            for cc in range(k + 1, m):
                row[cc] = cdd_sub(*row[cc], *cdd_mul(*mult, *pivot_row[cc]))
            rhs[r] = cdd_sub(*rhs[r], *cdd_mul(*mult, *rhs[k]))
    for k in range(m - 1, -1, -1):
        acc = _cdd_dot(J[k][k + 1:], rhs[k + 1:], rhs[k], cdd_sub)
        rhs[k] = cdd_div(*acc, *J[k][k])
    return 0


def dd_newton_refine(coeffs, lam, x, tol, maxit):
    """Bordered Newton iteration on ``(P(lam) x, c* x - 1) = 0`` in dd arithmetic.

    * ``coeffs`` -- complex coefficients of ``P``, shape ``(d+1, n, n)``,
      ascending powers
    * ``lam``    -- complex seed eigenvalue
    * ``x``      -- complex seed eigenvector of length ``n``; it is also the
      frozen normalisation vector ``c``
    * ``tol``    -- convergence threshold on ``||P(lam) x||_2 / ||x||_2``
    * ``maxit``  -- cap on the Newton steps

    Every complex double-double value is a tuple ``(re_hi, re_lo, im_hi,
    im_lo)``.  Returns ``(status, iters, rho, lam, x, history)`` with status
    0 = converged, 1 = iteration cap reached, 2 = singular Jacobian or
    non-finite iterate; ``rho`` is the final relative residual, ``lam`` and
    ``x`` are the last iterate (a tuple and a list of ``n`` tuples), and
    ``history`` lists the relative residual of every step.
    """
    C = [[[_cdd(z) for z in row] for row in A] for A in coeffs.tolist()]
    d = len(C) - 1
    lam = _cdd(lam)
    x = [_cdd(z) for z in x.tolist()]
    cconj = [(c[0], c[1], -c[2], -c[3]) for c in x]
    history = []
    it = 0
    while True:
        # P(lam) by Horner on the coefficient matrices.
        Pm = C[d]
        for i in range(d - 1, -1, -1):
            Pm = [[cdd_add(*cdd_mul(*p, *lam), *c) for p, c in zip(prow, crow)]
                  for prow, crow in zip(Pm, C[i])]
        # Residual P(lam) x and the norms of both sides.
        Px = [_cdd_dot(row, x) for row in Pm]
        res = nx = (0.0, 0.0)
        for p, xr in zip(Px, x):
            res = dd_add(*res, *cdd_abs2(*p))
            nx = dd_add(*nx, *cdd_abs2(*xr))
        nh, nl = dd_sqrt(*nx)
        if nh == 0.0:
            return 2, it, math.inf, lam, x, history
        rho = dd_div(*dd_sqrt(*res), nh, nl)[0]
        history.append(rho)
        if not math.isfinite(rho):
            return 2, it, rho, lam, x, history
        if rho <= tol:
            return 0, it, rho, lam, x, history
        if it >= maxit:
            return 1, it, rho, lam, x, history
        # Derivative vector v = P'(lam) x by the Horner recurrence
        # v <- lam * v + i * (C_i x), seeded with d * (C_d x).
        v = [cdd_scale(*_cdd_dot(row, x), float(d)) for row in C[d]]
        for i in range(d - 1, 0, -1):
            v = [cdd_add(*cdd_mul(*vr, *lam), *cdd_scale(*_cdd_dot(row, x), float(i)))
                 for vr, row in zip(v, C[i])]
        # Bordered Jacobian [[P(lam), P'(lam) x], [c*, 0]] and right-hand side.
        J = [prow + [vr] for prow, vr in zip(Pm, v)] + [cconj + [_CZERO]]
        rhs = [(-a, -b, -c, -e) for a, b, c, e in Px]
        # 1 - c* x subtracts term by term from one: summing c* x first and
        # subtracting once rounds differently.
        rhs.append(_cdd_dot(cconj, x, _CONE, cdd_sub))
        if dd_lu_solve(J, rhs) != 0:
            return 2, it, rho, lam, x, history
        x = [cdd_add(*xr, *dr) for xr, dr in zip(x, rhs)]
        lam = cdd_add(*lam, *rhs[-1])
        if not (math.isfinite(lam[0]) and math.isfinite(lam[2])):
            return 2, it, rho, lam, x, history
        it += 1
