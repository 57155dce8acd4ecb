"""Acute angles between eigenvectors and a-posteriori eigenvector error bounds.

All bounds share the shape ``residual / (weight * separation)``:

* :func:`gep_eigvec_bound` -- for a pencil eigenpair, weight 1;
* :func:`pep_bound_general` -- for a polynomial eigenpair recovered through a
  right-sided factorization ``L(lam) H(lam) = g(lam) (x) P(lam)``, weight
  ``1 / ||g(lam)||``;
* :func:`pep_bound_kronecker` -- the block Kronecker specialization, weight
  ``max(1, |lam|^(d-1))`` (the better of the two factorization variants);
* :func:`pep_bound_frobenius` -- the sharper companion-form weight
  ``sqrt(sum_{i<d} |lam|^(2i))``.

A zero separation means the shifted pencil is numerically singular at
``lam``; every bound then degenerates to ``+inf``, which callers surface as a
flagged row rather than an exception so no eigenvector index is ever dropped
from a report.  An infinite separation (an empty complement: the pencil is
1x1, so the eigenvector is a scalar with no error) makes every bound 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DomainError

__all__ = [
    "BoundRow",
    "sin_acute_angle",
    "gep_eigvec_bound",
    "pep_bound_general",
    "pep_bound_kronecker",
    "pep_bound_frobenius",
]


def sin_acute_angle(u: np.ndarray, w: np.ndarray) -> float:
    """Sine of the acute angle between complex vectors,
    ``sqrt(max(0, 1 - |w* u|^2 / (||u||^2 ||w||^2)))``.

    Evaluated through the equivalent variational form
    ``min_alpha || u/||u|| - alpha*w ||`` at the closed-form minimizer
    ``alpha = w* u / (||u|| ||w||^2)``: projecting out ``w`` and measuring
    what is left keeps full relative accuracy for nearly parallel vectors,
    where the direct expression collapses to 0 below ``sqrt(eps)``.
    Symmetric in its arguments up to round-off and invariant under nonzero
    complex scaling of either one; the result is clamped to [0, 1].
    """
    u = np.asarray(u, dtype=np.complex128).ravel()
    w = np.asarray(w, dtype=np.complex128).ravel()
    if u.shape != w.shape:
        raise DomainError("vectors must have equal length")
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu == 0.0 or nw == 0.0:
        raise DomainError("angle with the zero vector is undefined")
    un = u / nu
    alpha = np.vdot(w, un) / (nw * nw)
    s = float(np.linalg.norm(un - alpha * w))
    return min(1.0, s)


def _check_sep(sep: float) -> float:
    sep = float(sep)
    if sep < 0.0 or math.isnan(sep):
        raise DomainError("separation must be a nonnegative real or +inf")
    return sep


def _check_nonneg(name: str, x: float) -> float:
    x = float(x)
    if x < 0.0 or math.isnan(x):
        raise DomainError(f"{name} must be nonnegative")
    return x


def gep_eigvec_bound(residualL: float, normV: float, sep: float) -> float:
    """Pencil eigenvector error bound ``residualL / (normV * sep)``.

    ``residualL = ||L(lam) v||`` for the computed vector ``v`` with
    ``normV = ||v||``.  Returns ``+inf`` when ``sep`` is zero.
    """
    residualL = _check_nonneg("residualL", residualL)
    normV = float(normV)
    if normV <= 0.0:
        raise DomainError("normV must be positive")
    sep = _check_sep(sep)
    if sep == 0.0:
        return math.inf
    return residualL / (normV * sep)


def pep_bound_general(gNorm: float, residualP: float, sep: float) -> float:
    """Factorization-generic bound ``gNorm * residualP / sep`` for unit
    vectors (``gNorm = ||g(lam)||`` of the factorization in use)."""
    gNorm = _check_nonneg("gNorm", gNorm)
    residualP = _check_nonneg("residualP", residualP)
    sep = _check_sep(sep)
    if sep == 0.0:
        return math.inf
    return gNorm * residualP / sep


def pep_bound_kronecker(residualP: float, lam: complex, d: int, sep: float) -> float:
    """Block Kronecker bound ``residualP / (max(1, |lam|^(d-1)) * sep)``.

    Equals the smaller of the two :func:`pep_bound_general` instantiations
    (``gNorm = 1`` and ``gNorm = |lam|^-(d-1)``) for ``lam != 0``.
    """
    residualP = _check_nonneg("residualP", residualP)
    if d < 1:
        raise DomainError("grade must be at least 1")
    sep = _check_sep(sep)
    if sep == 0.0:
        return math.inf
    weight = max(1.0, abs(complex(lam)) ** (d - 1))
    return residualP / (weight * sep)


def pep_bound_frobenius(residualP: float, lam: complex, d: int, sep: float) -> float:
    """Companion-form bound ``residualP / (sqrt(sum_{i=0}^{d-1} |lam|^(2i)) * sep)``.

    The weight dominates ``max(1, |lam|^(d-1))`` by at most ``sqrt(d)``, so
    this bound is within a ``sqrt(d)`` factor below the block Kronecker one.
    """
    residualP = _check_nonneg("residualP", residualP)
    if d < 1:
        raise DomainError("grade must be at least 1")
    sep = _check_sep(sep)
    if sep == 0.0:
        return math.inf
    a = abs(complex(lam))
    weight = math.sqrt(math.fsum(a ** (2 * i) for i in range(d)))
    return residualP / (weight * sep)


@dataclass(frozen=True)
class BoundRow:
    """One eigenvector index of an experiment report.

    ``lambda_exact`` is the paired reference eigenvalue, ``lambda_computed``
    the one the dense solver produced.  ``residual = ||P(lam~) x~||_2`` for
    the unit recovered vector, ``sep`` the separation at ``lambda_computed``,
    ``sin_angle`` the error against the reference eigenvector, and the two
    bounds are evaluated at ``lambda_computed``.  ``flags`` carries
    diagnostics (e.g. ``ambiguous_pairing``, ``tiny_sep``) without dropping
    the row.
    """

    index: int
    lambda_exact: complex
    lambda_computed: complex
    residual: float
    sep: float
    sin_angle: float
    bound_kron: float
    bound_frob: float
    g_norm: float
    flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (0.0 <= self.sin_angle <= 1.0 + 1e-12):
            raise DomainError("sin_angle must lie in [0, 1]")
        for name in ("residual", "sep", "bound_kron", "bound_frob", "g_norm"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative")
        object.__setattr__(self, "flags", tuple(str(f) for f in self.flags))

    @property
    def ratio(self) -> float:
        """``bound_kron / bound_frob`` (1 when both are zero or infinite)."""
        if self.bound_frob == 0.0 or math.isinf(self.bound_kron):
            return 1.0
        return self.bound_kron / self.bound_frob
