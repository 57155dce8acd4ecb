"""Double-double arithmetic: ~106-bit floats built from pairs of doubles.

A double-double value represents an unevaluated sum ``hi + lo`` of two IEEE
doubles with ``|lo| <= ulp(hi)/2``.  All operations here are branch-light
compositions of the classic error-free transformations:

* ``two_sum(a, b)``   -- exact sum: returns ``(s, e)`` with ``s = fl(a+b)``
  and ``a + b = s + e`` exactly (Knuth / Moller, 6 flops, no branches).
* ``two_prod(a, b)``  -- exact product via Dekker splitting: ``(p, e)`` with
  ``a * b = p + e`` exactly, provided no overflow occurs in the split.

On top of these, ``dd_*`` functions implement +, -, *, /, scaling and square
root on ``(hi, lo)`` pairs, and ``cdd_*`` functions implement complex
arithmetic on ``(re_hi, re_lo, im_hi, im_lo)`` quadruples.  The relative
error per operation is O(2**-104) -- far below the 2**-53 of plain doubles --
which is what lets the bordered Newton iteration certify eigenpair residuals
near 1e-30.

Values are passed and returned as plain float tuples.  Nothing here uses
fused multiply-add or fast-math: Dekker splitting is only exact under strict
IEEE semantics, so these routines must never be compiled with value-changing
optimisations.

Caveats: intermediate overflow in ``two_prod`` (inputs above ~2**996) or
division by zero produce IEEE infinities/NaNs, which propagate to the result
rather than raising -- callers surface them by checking finiteness.
"""

from __future__ import annotations

# Dekker's splitting constant for binary64: 2**27 + 1.
_SPLITTER = 134217729.0


# --------------------------------------------------------------------------
# error-free transformations
# --------------------------------------------------------------------------

def two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact addition: ``(s, e)`` with ``s = fl(a + b)`` and ``s + e = a + b``."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def quick_two_sum(a: float, b: float) -> tuple[float, float]:
    """Exact addition assuming ``|a| >= |b|`` (3 flops instead of 6)."""
    s = a + b
    e = b - (s - a)
    return s, e


def split(a: float) -> tuple[float, float]:
    """Dekker split of ``a`` into high/low halves with 26/27 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Exact multiplication: ``(p, e)`` with ``p = fl(a * b)`` and ``p + e = a * b``."""
    p = a * b
    ahi, alo = split(a)
    bhi, blo = split(b)
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, e


# --------------------------------------------------------------------------
# real double-double arithmetic on (hi, lo) pairs
# --------------------------------------------------------------------------

def dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """Double-double addition ``a + b``."""
    sh, se = two_sum(ah, bh)
    tl, te = two_sum(al, bl)
    se += tl
    sh, se = quick_two_sum(sh, se)
    se += te
    return quick_two_sum(sh, se)


def dd_sub(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """Double-double subtraction ``a - b``."""
    return dd_add(ah, al, -bh, -bl)


def dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """Double-double multiplication ``a * b``."""
    ph, pe = two_prod(ah, bh)
    pe += ah * bl + al * bh
    return quick_two_sum(ph, pe)


def dd_scale(ah: float, al: float, b: float) -> tuple[float, float]:
    """Double-double times plain double ``a * b``."""
    ph, pe = two_prod(ah, b)
    pe += al * b
    return quick_two_sum(ph, pe)


def dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """Double-double division ``a / b`` by iterated quotient refinement."""
    q1 = ah / bh
    # r = a - q1 * b, computed in double-double
    th, tl = dd_scale(bh, bl, q1)
    rh, rl = dd_sub(ah, al, th, tl)
    q2 = rh / bh
    th, tl = dd_scale(bh, bl, q2)
    rh, rl = dd_sub(rh, rl, th, tl)
    q3 = rh / bh
    qh, ql = quick_two_sum(q1, q2)
    return dd_add(qh, ql, q3, 0.0)


def dd_sqrt(ah: float, al: float) -> tuple[float, float]:
    """Double-double square root (one Newton/Heron step off the double sqrt).

    Requires ``a >= 0``; returns (0, 0) for a == 0.
    """
    if ah == 0.0 and al == 0.0:
        return 0.0, 0.0
    if ah < 0.0:
        raise ValueError("dd_sqrt of a negative value")
    x = ah ** 0.5
    # One Heron refinement in double-double: y = (x + a/x) / 2.
    qh, ql = dd_div(ah, al, x, 0.0)
    sh, sl = dd_add(qh, ql, x, 0.0)
    return dd_scale(sh, sl, 0.5)


# --------------------------------------------------------------------------
# complex double-double arithmetic on (re_hi, re_lo, im_hi, im_lo) quadruples
# --------------------------------------------------------------------------

def cdd_add(
    ar: float, arl: float, ai: float, ail: float,
    br: float, brl: float, bi: float, bil: float,
) -> tuple[float, float, float, float]:
    """Complex double-double addition."""
    rh, rl = dd_add(ar, arl, br, brl)
    ih, il = dd_add(ai, ail, bi, bil)
    return rh, rl, ih, il


def cdd_sub(
    ar: float, arl: float, ai: float, ail: float,
    br: float, brl: float, bi: float, bil: float,
) -> tuple[float, float, float, float]:
    """Complex double-double subtraction."""
    rh, rl = dd_sub(ar, arl, br, brl)
    ih, il = dd_sub(ai, ail, bi, bil)
    return rh, rl, ih, il


def cdd_mul(
    ar: float, arl: float, ai: float, ail: float,
    br: float, brl: float, bi: float, bil: float,
) -> tuple[float, float, float, float]:
    """Complex double-double multiplication ``(ar + i*ai) * (br + i*bi)``."""
    # real part: ar*br - ai*bi
    p1h, p1l = dd_mul(ar, arl, br, brl)
    p2h, p2l = dd_mul(ai, ail, bi, bil)
    rh, rl = dd_sub(p1h, p1l, p2h, p2l)
    # imag part: ar*bi + ai*br
    p3h, p3l = dd_mul(ar, arl, bi, bil)
    p4h, p4l = dd_mul(ai, ail, br, brl)
    ih, il = dd_add(p3h, p3l, p4h, p4l)
    return rh, rl, ih, il


def cdd_scale(
    ar: float, arl: float, ai: float, ail: float, b: float,
) -> tuple[float, float, float, float]:
    """Complex double-double times plain double."""
    rh, rl = dd_scale(ar, arl, b)
    ih, il = dd_scale(ai, ail, b)
    return rh, rl, ih, il


def cdd_abs2(
    ar: float, arl: float, ai: float, ail: float,
) -> tuple[float, float]:
    """Squared modulus ``|a|**2`` as a real double-double."""
    p1h, p1l = dd_mul(ar, arl, ar, arl)
    p2h, p2l = dd_mul(ai, ail, ai, ail)
    return dd_add(p1h, p1l, p2h, p2l)


def cdd_div(
    ar: float, arl: float, ai: float, ail: float,
    br: float, brl: float, bi: float, bil: float,
) -> tuple[float, float, float, float]:
    """Complex double-double division ``a / b`` via ``a * conj(b) / |b|**2``."""
    dh, dl = cdd_abs2(br, brl, bi, bil)
    # a * conj(b)
    nr, nrl, ni, nil = cdd_mul(ar, arl, ai, ail, br, brl, -bi, -bil)
    rh, rl = dd_div(nr, nrl, dh, dl)
    ih, il = dd_div(ni, nil, dh, dl)
    return rh, rl, ih, il
