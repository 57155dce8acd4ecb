"""Numerical kernels: rotations, QZ, LU, Jacobi SVD, refinement.

The kernels are plain Python over numpy arrays.  Inner updates use numpy
slice arithmetic where it vectorises well and scalar loops where
extended-precision tuples force element work.

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

All dense kernels expect C-contiguous ``complex128`` matrices and modify them
in place and return their status as an integer (0 = success); the wrappers
in :mod:`pepbound.denseig` and :mod:`pepbound.oracle` translate statuses to
exceptions.
"""

from __future__ import annotations

import functools

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

def dd_lu_solve(J, rhs):
    """Solve ``J @ delta = rhs`` in complex double-double, in place.

    ``J`` has shape ``(m, m, 4)`` (destroyed), ``rhs`` has shape ``(m, 4)``
    and holds the solution on exit.  Pivoting maximises the sum of the
    high-part magnitudes.  Returns 0, or 1 on an exactly-zero pivot.
    """
    m = J.shape[0]
    for k in range(m):
        best = -1.0
        bi = k
        for r in range(k, m):
            mag = abs(J[r, k, 0]) + abs(J[r, k, 2])
            if mag > best:
                best = mag
                bi = r
        if best <= 0.0:
            return 1
        if bi != k:
            for cc in range(m):
                for t in range(4):
                    tmp = J[k, cc, t]
                    J[k, cc, t] = J[bi, cc, t]
                    J[bi, cc, t] = tmp
            for t in range(4):
                tmp = rhs[k, t]
                rhs[k, t] = rhs[bi, t]
                rhs[bi, t] = tmp
        pr = J[k, k, 0]
        prl = J[k, k, 1]
        pi = J[k, k, 2]
        pil = J[k, k, 3]
        for r in range(k + 1, m):
            mr, mrl, mi, mil = cdd_div(
                J[r, k, 0], J[r, k, 1], J[r, k, 2], J[r, k, 3], pr, prl, pi, pil
            )
            J[r, k, 0] = mr
            J[r, k, 1] = mrl
            J[r, k, 2] = mi
            J[r, k, 3] = mil
            for cc in range(k + 1, m):
                ar, arl, ai, ail = cdd_mul(
                    mr, mrl, mi, mil,
                    J[k, cc, 0], J[k, cc, 1], J[k, cc, 2], J[k, cc, 3],
                )
                sr, srl, si, sil = cdd_sub(
                    J[r, cc, 0], J[r, cc, 1], J[r, cc, 2], J[r, cc, 3],
                    ar, arl, ai, ail,
                )
                J[r, cc, 0] = sr
                J[r, cc, 1] = srl
                J[r, cc, 2] = si
                J[r, cc, 3] = sil
            ar, arl, ai, ail = cdd_mul(
                mr, mrl, mi, mil, rhs[k, 0], rhs[k, 1], rhs[k, 2], rhs[k, 3]
            )
            sr, srl, si, sil = cdd_sub(
                rhs[r, 0], rhs[r, 1], rhs[r, 2], rhs[r, 3], ar, arl, ai, ail
            )
            rhs[r, 0] = sr
            rhs[r, 1] = srl
            rhs[r, 2] = si
            rhs[r, 3] = sil
    for k in range(m - 1, -1, -1):
        ar = rhs[k, 0]
        arl = rhs[k, 1]
        ai = rhs[k, 2]
        ail = rhs[k, 3]
        for cc in range(k + 1, m):
            pr2, prl2, pi2, pil2 = cdd_mul(
                J[k, cc, 0], J[k, cc, 1], J[k, cc, 2], J[k, cc, 3],
                rhs[cc, 0], rhs[cc, 1], rhs[cc, 2], rhs[cc, 3],
            )
            ar, arl, ai, ail = cdd_sub(ar, arl, ai, ail, pr2, prl2, pi2, pil2)
        qr, qrl, qi, qil = cdd_div(
            ar, arl, ai, ail, J[k, k, 0], J[k, k, 1], J[k, k, 2], J[k, k, 3]
        )
        rhs[k, 0] = qr
        rhs[k, 1] = qrl
        rhs[k, 2] = qi
        rhs[k, 3] = qil
    return 0


def dd_newton_refine(C, lam, x, cvec, tol, maxit, hist):
    """Bordered Newton iteration on ``(P(lam) x, c* x - 1) = 0`` in dd arithmetic.

    Parameters (all complex double-double on the last axis ``(re_hi, re_lo,
    im_hi, im_lo)``):

    * ``C``    -- coefficient tensor of shape ``(d+1, n, n, 4)``, ascending powers
    * ``lam``  -- eigenvalue, shape ``(4,)``, updated in place
    * ``x``    -- eigenvector, shape ``(n, 4)``, updated in place
    * ``cvec`` -- frozen normalisation vector, shape ``(n, 4)``
    * ``tol``  -- convergence threshold on ``||P(lam) x||_2 / ||x||_2``
    * ``hist`` -- residual history, shape ``(maxit + 1,)``, filled per step

    Returns ``(status, iters, rho)`` with status 0 = converged, 1 = iteration
    cap reached, 2 = singular Jacobian or non-finite iterate; ``rho`` is the
    final relative residual.
    """
    d = C.shape[0] - 1
    n = C.shape[1]
    m = n + 1
    Pm = np.empty((n, n, 4))
    v = np.empty((n, 4))
    Px = np.empty((n, 4))
    J = np.empty((m, m, 4))
    rhs = np.empty((m, 4))
    it = 0
    while True:
        lr = lam[0]
        lrl = lam[1]
        li = lam[2]
        lil = lam[3]
        # P(lam) by Horner on the coefficient matrices.
        for r in range(n):
            for cc in range(n):
                for t in range(4):
                    Pm[r, cc, t] = C[d, r, cc, t]
        for i in range(d - 1, -1, -1):
            for r in range(n):
                for cc in range(n):
                    ar, arl, ai, ail = cdd_mul(
                        Pm[r, cc, 0], Pm[r, cc, 1], Pm[r, cc, 2], Pm[r, cc, 3],
                        lr, lrl, li, lil,
                    )
                    sr, srl, si, sil = cdd_add(
                        ar, arl, ai, ail,
                        C[i, r, cc, 0], C[i, r, cc, 1], C[i, r, cc, 2], C[i, r, cc, 3],
                    )
                    Pm[r, cc, 0] = sr
                    Pm[r, cc, 1] = srl
                    Pm[r, cc, 2] = si
                    Pm[r, cc, 3] = sil
        # Residual P(lam) x and the norms of both sides.
        resh = 0.0
        resl = 0.0
        nxh = 0.0
        nxl = 0.0
        for r in range(n):
            ar = 0.0
            arl = 0.0
            ai = 0.0
            ail = 0.0
            for cc in range(n):
                pr, prl, pi, pil = cdd_mul(
                    Pm[r, cc, 0], Pm[r, cc, 1], Pm[r, cc, 2], Pm[r, cc, 3],
                    x[cc, 0], x[cc, 1], x[cc, 2], x[cc, 3],
                )
                ar, arl, ai, ail = cdd_add(ar, arl, ai, ail, pr, prl, pi, pil)
            Px[r, 0] = ar
            Px[r, 1] = arl
            Px[r, 2] = ai
            Px[r, 3] = ail
            ah, al = cdd_abs2(ar, arl, ai, ail)
            resh, resl = dd_add(resh, resl, ah, al)
            ah, al = cdd_abs2(x[r, 0], x[r, 1], x[r, 2], x[r, 3])
            nxh, nxl = dd_add(nxh, nxl, ah, al)
        rh, rl = dd_sqrt(resh, resl)
        nh, nl = dd_sqrt(nxh, nxl)
        if nh == 0.0:
            return 2, it, np.inf
        qh, ql = dd_div(rh, rl, nh, nl)
        rho = qh
        hist[it] = rho
        if not np.isfinite(rho):
            return 2, it, rho
        if rho <= tol:
            return 0, it, rho
        if it >= maxit:
            return 1, it, rho
        # Derivative vector v = P'(lam) x by the Horner recurrence
        # v <- lam * v + i * (C_i x), seeded with d * (C_d x).
        for r in range(n):
            ar = 0.0
            arl = 0.0
            ai = 0.0
            ail = 0.0
            for cc in range(n):
                pr, prl, pi, pil = cdd_mul(
                    C[d, r, cc, 0], C[d, r, cc, 1], C[d, r, cc, 2], C[d, r, cc, 3],
                    x[cc, 0], x[cc, 1], x[cc, 2], x[cc, 3],
                )
                ar, arl, ai, ail = cdd_add(ar, arl, ai, ail, pr, prl, pi, pil)
            vr, vrl, vi, vil = cdd_scale(ar, arl, ai, ail, float(d))
            v[r, 0] = vr
            v[r, 1] = vrl
            v[r, 2] = vi
            v[r, 3] = vil
        for i in range(d - 1, 0, -1):
            for r in range(n):
                tr, trl, ti, til = cdd_mul(
                    v[r, 0], v[r, 1], v[r, 2], v[r, 3], lr, lrl, li, lil
                )
                ar = 0.0
                arl = 0.0
                ai = 0.0
                ail = 0.0
                for cc in range(n):
                    pr, prl, pi, pil = cdd_mul(
                        C[i, r, cc, 0], C[i, r, cc, 1], C[i, r, cc, 2], C[i, r, cc, 3],
                        x[cc, 0], x[cc, 1], x[cc, 2], x[cc, 3],
                    )
                    ar, arl, ai, ail = cdd_add(ar, arl, ai, ail, pr, prl, pi, pil)
                ur, url, ui, uil = cdd_scale(ar, arl, ai, ail, float(i))
                vr, vrl, vi, vil = cdd_add(tr, trl, ti, til, ur, url, ui, uil)
                v[r, 0] = vr
                v[r, 1] = vrl
                v[r, 2] = vi
                v[r, 3] = vil
        # Bordered Jacobian [[P(lam), P'(lam) x], [c*, 0]] and right-hand side.
        for r in range(n):
            for cc in range(n):
                for t in range(4):
                    J[r, cc, t] = Pm[r, cc, t]
            for t in range(4):
                J[r, n, t] = v[r, t]
            rhs[r, 0] = -Px[r, 0]
            rhs[r, 1] = -Px[r, 1]
            rhs[r, 2] = -Px[r, 2]
            rhs[r, 3] = -Px[r, 3]
        for cc in range(n):
            J[n, cc, 0] = cvec[cc, 0]
            J[n, cc, 1] = cvec[cc, 1]
            J[n, cc, 2] = -cvec[cc, 2]
            J[n, cc, 3] = -cvec[cc, 3]
        for t in range(4):
            J[n, n, t] = 0.0
        ar = 1.0
        arl = 0.0
        ai = 0.0
        ail = 0.0
        for cc in range(n):
            pr, prl, pi, pil = cdd_mul(
                cvec[cc, 0], cvec[cc, 1], -cvec[cc, 2], -cvec[cc, 3],
                x[cc, 0], x[cc, 1], x[cc, 2], x[cc, 3],
            )
            ar, arl, ai, ail = cdd_sub(ar, arl, ai, ail, pr, prl, pi, pil)
        rhs[n, 0] = ar
        rhs[n, 1] = arl
        rhs[n, 2] = ai
        rhs[n, 3] = ail
        if dd_lu_solve(J, rhs) != 0:
            return 2, it, rho
        for r in range(n):
            xr, xrl, xi, xil = cdd_add(
                x[r, 0], x[r, 1], x[r, 2], x[r, 3],
                rhs[r, 0], rhs[r, 1], rhs[r, 2], rhs[r, 3],
            )
            x[r, 0] = xr
            x[r, 1] = xrl
            x[r, 2] = xi
            x[r, 3] = xil
        l0, l1, l2, l3 = cdd_add(
            lam[0], lam[1], lam[2], lam[3],
            rhs[n, 0], rhs[n, 1], rhs[n, 2], rhs[n, 3],
        )
        lam[0] = l0
        lam[1] = l1
        lam[2] = l2
        lam[3] = l3
        if not (np.isfinite(lam[0]) and np.isfinite(lam[2])):
            return 2, it, rho
        it += 1
