"""Extended-precision reference eigenpairs via bordered Newton refinement.

A-posteriori error bounds need "exact" eigenpairs to compare computed ones
against.  This module manufactures them: each double-precision eigenpair from
the dense solver is polished by a Newton iteration on the bordered system

    F(lam, x) = (P(lam) x, c* x - 1) = 0,      c frozen at the seed vector,

carried entirely in double-double arithmetic (~31 significant decimal
digits), until the residual drops below ``1e-25 * max_i ||A_i||_2`` -- far
beyond double precision, leaving ~9 digits of headroom under any measurable
eigenvector angle.

For ``|lam| > 1`` the iteration runs on the reversal polynomial at
``mu = 1/lam`` instead: all powers of the argument then stay bounded by one,
which is the frame where a residual of ``1e-25 * max ||A_i||`` is numerically
meaningful (the coefficient-norm scale is invariant under reversal).  The
reported ``residual`` is always the double-double residual of the frame that
was refined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import dd_newton_refine
from .denseig import gep_eigenpairs, smallest_singular_value, spectral_norm
from .doubledouble import cdd_div
from .exceptions import (
    DomainError,
    InfiniteEigenvalue,
    NumericalError,
    SingularJacobian,
)
from .kronlin import assemble, preset_linearization, recover_eigenvector
from .polyval import (
    MatrixPolynomial,
    polynomial_from_document,
    residual_norm,
    rev,
    save_polynomial,
)

__all__ = [
    "ExtendedComplex",
    "RefEigenpair",
    "refine_eigenpair",
    "reference_spectrum",
    "save_reference_cache",
    "load_reference_cache",
]

#: Convergence threshold multiplier on max_i ||A_i||_2.
RESIDUAL_TOL = 1e-25
#: Newton basin guard: seeds with larger double-precision relative residual
#: are rejected instead of polished.
BASIN_TOL = 1e-4
#: Iteration cap for the double-double Newton polish.
MAX_ITERATIONS = 50


@dataclass(frozen=True)
class ExtendedComplex:
    """A complex number as two double-double reals ``(hi + lo)``."""

    re_hi: float
    re_lo: float
    im_hi: float
    im_lo: float

    @classmethod
    def from_complex(cls, z: complex) -> "ExtendedComplex":
        z = complex(z)
        return cls(z.real, 0.0, z.imag, 0.0)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "ExtendedComplex":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))

    def as_array(self) -> np.ndarray:
        return np.array([self.re_hi, self.re_lo, self.im_hi, self.im_lo])

    @property
    def value(self) -> complex:
        """Round to ordinary double-precision complex."""
        return complex(self.re_hi + self.re_lo, self.im_hi + self.im_lo)

    def __abs__(self) -> float:
        return abs(self.value)


@dataclass(frozen=True)
class RefEigenpair:
    """A refined reference eigenpair.

    ``x`` holds the unit eigenvector as an ``(n, 4)`` double-double array;
    ``x_complex`` rounds it to double precision.  ``residual`` is the final
    double-double relative residual of the refined frame (see module
    docstring), ``converged`` whether it reached the threshold,
    ``iterations`` the Newton steps taken, ``history`` the residual per step,
    and ``clustered`` whether another reference eigenvalue lies within
    ``1e-8 * (1 + |lam|)``.
    """

    lam: ExtendedComplex
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int
    history: tuple[float, ...]
    clustered: bool = False

    def __post_init__(self) -> None:
        x = np.array(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 4:
            raise DomainError("x must be an (n, 4) double-double array")
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "history", tuple(float(h) for h in self.history))

    @property
    def x_complex(self) -> np.ndarray:
        return (self.x[:, 0] + self.x[:, 1]) + 1j * (self.x[:, 2] + self.x[:, 3])


def _max_coeff_norm(P: MatrixPolynomial) -> float:
    return max(spectral_norm(P.coeffs[i]) for i in range(P.d + 1))


def refine_eigenpair(
    P: MatrixPolynomial,
    lam: complex,
    x: np.ndarray,
    max_coeff_norm: float | None = None,
) -> RefEigenpair:
    """Polish a double-precision eigenpair to double-double accuracy.

    The seed ``(lam, x)`` must already be a good approximation: after
    normalizing ``x``, its relative residual must not exceed
    ``1e-4 * max_i ||A_i||_2`` or the pair is outside the Newton basin and a
    :class:`~pepbound.exceptions.DomainError` is raised.  Returns honestly:
    ``converged`` is False when the iteration cap is hit, and a
    :class:`~pepbound.exceptions.SingularJacobian` is raised when the
    bordered Jacobian degenerates (near-defective eigenvalue) or iterates
    stop being finite.

    ``max_coeff_norm`` is ``max_i ||A_i||_2``; callers that refine many
    pairs of one polynomial pass it in so it is computed once, not per pair.
    """
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError("cannot refine a non-finite eigenvalue")
    x = np.asarray(x, dtype=np.complex128).ravel()
    if x.shape[0] != P.n:
        raise DomainError(f"eigenvector has length {x.shape[0]}, expected {P.n}")
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise DomainError("zero seed eigenvector")
    x = x / nx

    maxA = _max_coeff_norm(P) if max_coeff_norm is None else float(max_coeff_norm)
    if maxA == 0.0:
        raise DomainError("zero polynomial has no eigenpairs")

    use_rev = abs(lam) > 1.0
    if use_rev:
        Q = rev(P)
        mu = 1.0 / lam
    else:
        Q = P
        mu = lam

    seed_res = residual_norm(Q, mu, x)
    if seed_res > BASIN_TOL * maxA:
        raise DomainError(
            "seed residual %.3e exceeds the Newton basin guard %.3e"
            % (seed_res, BASIN_TOL * maxA)
        )

    status, iters, rho, lam_dd, x_dd, hist = dd_newton_refine(
        Q.coeffs, mu, x, RESIDUAL_TOL * maxA, MAX_ITERATIONS
    )
    if status == 2:
        raise SingularJacobian(
            "bordered Newton system became singular or non-finite "
            f"near lam = {lam!r}"
        )

    if use_rev:
        lam_dd = cdd_div(1.0, 0.0, 0.0, 0.0, *lam_dd)

    # Normalize the refined vector to unit norm (double-double scale factor
    # is unnecessary: the bordered constraint keeps ||x|| = O(1), and the
    # angle/residual consumers renormalize in their own precision).
    return RefEigenpair(
        lam=ExtendedComplex(*lam_dd),
        x=x_dd,
        residual=rho,
        converged=(status == 0),
        iterations=iters,
        history=hist,
    )


def _flag_clusters(refs: list[RefEigenpair]) -> list[RefEigenpair]:
    vals = [r.lam.value for r in refs]
    out = []
    for i, r in enumerate(refs):
        near = any(
            j != i and abs(vals[i] - vals[j]) < 1e-8 * (1.0 + abs(vals[i]))
            for j in range(len(vals))
        )
        if near != r.clustered:
            r = RefEigenpair(
                lam=r.lam,
                x=r.x,
                residual=r.residual,
                converged=r.converged,
                iterations=r.iterations,
                history=r.history,
                clustered=near,
            )
        out.append(r)
    return out


def reference_spectrum(
    P: MatrixPolynomial,
    seed_label: str = "l1",
) -> list[RefEigenpair]:
    """All ``d*n`` reference eigenpairs of ``P``, sorted by ``|lam|``.

    Seeds come from the dense solve of the ``seed_label`` preset
    linearization followed by block recovery; each seed is then polished in
    double-double precision.  Requires every eigenvalue to be finite, which
    is guarded by ``sigma_min(A_d) > 1e-12 * max_i ||A_i||_2``; raises
    :class:`~pepbound.exceptions.InfiniteEigenvalue` otherwise.

    Refinement failures do not abort the batch: a pair whose polish fails
    keeps its double-precision seed values with ``converged = False``.
    Eigenvalues closer than ``1e-8 * (1 + |lam|)`` to another one are marked
    ``clustered``.
    """
    maxA = _max_coeff_norm(P)
    if maxA == 0.0:
        raise DomainError("zero polynomial has no spectrum")
    if smallest_singular_value(P.coeffs[P.d]) <= 1e-12 * maxA:
        raise InfiniteEigenvalue(
            "leading coefficient is numerically singular; the spectrum "
            "contains (nearly) infinite eigenvalues"
        )

    form = preset_linearization(P, seed_label)
    L = assemble(P, form)
    pairs = gep_eigenpairs(L.A, L.B)

    refs = []
    for pair in pairs:
        if not pair.finite:
            raise InfiniteEigenvalue(
                "dense solve produced an infinite eigenvalue despite a "
                "well-conditioned leading coefficient"
            )
        seed_x = recover_eigenvector(pair.v, form, pair.lam, poly=P)
        try:
            refs.append(refine_eigenpair(P, pair.lam, seed_x, max_coeff_norm=maxA))
        except (NumericalError, DomainError):
            x_dd = np.zeros((P.n, 4))
            x_dd[:, 0] = seed_x.real
            x_dd[:, 2] = seed_x.imag
            res = residual_norm(P, pair.lam, seed_x)
            refs.append(
                RefEigenpair(
                    lam=ExtendedComplex.from_complex(pair.lam),
                    x=x_dd,
                    residual=res,
                    converged=False,
                    iterations=0,
                    history=(res,),
                )
            )

    refs.sort(key=lambda r: (abs(r.lam.value), r.lam.value.real, r.lam.value.imag))
    return _flag_clusters(refs)


# --------------------------------------------------------------------------
# cache round-trip
# --------------------------------------------------------------------------

def save_reference_cache(
    path: str, P: MatrixPolynomial, refs: list[RefEigenpair]
) -> None:
    """Write the polynomial plus its reference spectrum as one JSON file."""
    payload = [
        {
            "lambda": [r.lam.re_hi, r.lam.re_lo, r.lam.im_hi, r.lam.im_lo],
            "x": [[float(v) for v in row] for row in r.x],
            "residual": r.residual,
            "converged": bool(r.converged),
        }
        for r in refs
    ]
    save_polynomial(path, P, extra={"refs": payload})


def load_reference_cache(path: str) -> tuple[MatrixPolynomial, list[RefEigenpair]]:
    """Read a file written by :func:`save_reference_cache` (strict parse)."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    P = polynomial_from_document(doc)
    raw = doc.get("refs")
    if not isinstance(raw, list):
        raise DomainError("reference cache lacks a 'refs' list")
    refs = []
    for k, item in enumerate(raw):
        try:
            lam = ExtendedComplex(*(float(v) for v in item["lambda"]))
            x = np.array(item["x"], dtype=np.float64)
            residual = float(item["residual"])
            converged = bool(item["converged"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed reference entry {k}: {exc}") from exc
        if x.ndim != 2 or x.shape != (P.n, 4):
            raise DomainError(f"reference entry {k} has a malformed eigenvector")
        refs.append(
            RefEigenpair(
                lam=lam,
                x=x,
                residual=residual,
                converged=converged,
                iterations=0,
                history=(residual,),
            )
        )
    return P, _flag_clusters(refs)
