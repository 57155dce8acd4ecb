"""Tests for the extended-precision reference eigenpair oracle.

Ground truth comes from polynomials with exactly representable (dyadic)
coefficients whose eigenvalues are known in closed form, so refined values
can be compared against exact answers rather than against the solver itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pepbound.exceptions import (
    DomainError,
    InfiniteEigenvalue,
    SingularJacobian,
)
from pepbound.oracle import (
    BASIN_TOL,
    MAX_ITERATIONS,
    RESIDUAL_TOL,
    ExtendedComplex,
    RefEigenpair,
    load_reference_cache,
    refine_eigenpair,
    reference_spectrum,
    save_reference_cache,
)
from pepbound.polyval import MatrixPolynomial, PolySpec, random_polynomial
from pepbound.rng import SplitMix64


def _scalar_poly(*ascending) -> MatrixPolynomial:
    return MatrixPolynomial(
        np.array([[[c]] for c in ascending], dtype=np.complex128)
    )


# =======================
# ExtendedComplex
# =======================

def test_extended_complex_round_trips():
    z = ExtendedComplex.from_complex(1.5 - 0.25j)
    assert z.value == 1.5 - 0.25j
    assert abs(z) == abs(1.5 - 0.25j)
    back = ExtendedComplex.from_array(z.as_array())
    assert back == z
    assert_array_equal(z.as_array(), [1.5, 0.0, -0.25, 0.0])


def test_ref_eigenpair_shape_validation():
    lam = ExtendedComplex.from_complex(1.0)
    with pytest.raises(DomainError):
        RefEigenpair(lam=lam, x=np.zeros((3,)), residual=0.0,
                     converged=True, iterations=0, history=())
    pair = RefEigenpair(lam=lam, x=np.zeros((3, 4)), residual=0.0,
                        converged=True, iterations=0, history=(1.0,))
    assert pair.x_complex.shape == (3,)


# =======================
# refinement on exactly solvable instances
# =======================

def test_refine_scalar_quadratic_roots():
    # p(lam) = lam^2 - 1 has roots exactly +-1
    P = _scalar_poly(-1.0, 0.0, 1.0)
    for root, seed in [(1.0, 1.0 + 3e-6), (-1.0, -1.0 - 2e-6j)]:
        ref = refine_eigenpair(P, seed, np.array([1.0 + 0j]))
        assert ref.converged
        got = ref.lam
        err = abs(complex(got.re_hi - root, got.im_hi)) + abs(got.re_lo) + abs(got.im_lo)
        assert err <= 1e-30
        assert ref.residual <= RESIDUAL_TOL * 1.0


def test_refine_recovers_constructed_dyadic_spectrum():
    # (lam - a)(lam - b) with dyadic a, b: coefficients and roots are exact
    a = 0.5 + 0.125j
    b = -0.25 + 0.75j
    P = _scalar_poly(a * b, -(a + b), 1.0)
    for root in (a, b):
        ref = refine_eigenpair(P, root + 1e-7, np.array([1.0 + 0j]))
        assert ref.converged
        # the high words round to the exact dyadic root; the low words hold
        # the leftover Newton error, far below double precision
        assert ref.lam.re_hi == root.real and ref.lam.im_hi == root.imag
        assert abs(ref.lam.re_lo) <= 1e-26 and abs(ref.lam.im_lo) <= 1e-26


def test_refine_exact_seed_converges_immediately():
    eye = np.eye(2, dtype=np.complex128)
    D = np.diag([0.5, -0.75]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([-D, eye]))  # lam I - D
    ref = refine_eigenpair(P, 0.5, np.array([1.0, 0.0], dtype=complex))
    assert ref.converged
    assert ref.iterations <= 1
    assert ref.lam.value == 0.5


def test_refine_reversal_handles_large_eigenvalues():
    # |lam| > 1 goes through the reversal transform; dyadic values stay exact
    eye = np.eye(2, dtype=np.complex128)
    D = np.diag([4.0, 0.5]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([-D, eye]))
    ref = refine_eigenpair(P, 4.0 + 1e-9, np.array([1.0, 1e-9], dtype=complex))
    assert ref.converged
    assert ref.lam.value == 4.0
    assert abs(ref.lam.re_lo) <= 1e-60 and abs(ref.lam.im_lo) <= 1e-60


def test_refine_quadratic_convergence_history():
    P = random_polynomial(PolySpec(kind="p1", n=4, d=3, seed=314))
    from pepbound.denseig import gep_eigenpairs
    from pepbound.kronlin import assemble, preset_linearization, recover_eigenvector

    form = preset_linearization(P, "l1")
    pencil = assemble(P, form)
    pairs = [p for p in gep_eigenpairs(pencil.A, pencil.B) if p.finite]
    maxA = max(np.linalg.svd(P.coeffs[i], compute_uv=False)[0] for i in range(4))
    for p in pairs[:4]:
        x = recover_eigenvector(p.v, form, p.lam, poly=P)
        ref = refine_eigenpair(P, p.lam, x)
        assert ref.converged
        assert ref.iterations <= MAX_ITERATIONS
        assert ref.residual <= RESIDUAL_TOL * maxA
        # residual history decreases monotonically down to the floor
        hist = ref.history
        assert all(b <= a * 1.01 for a, b in zip(hist, hist[1:]))


def test_refine_guards():
    P = _scalar_poly(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        refine_eigenpair(P, 0.5 + 0.5j, np.array([1.0 + 0j]))  # far outside basin
    with pytest.raises(DomainError):
        refine_eigenpair(P, 1.0, np.zeros(1, dtype=complex))
    with pytest.raises(DomainError):
        refine_eigenpair(P, complex("inf"), np.array([1.0 + 0j]))
    with pytest.raises(DomainError):
        refine_eigenpair(P, 1.0, np.ones(2, dtype=complex))
    assert BASIN_TOL == 1e-4


def test_refine_singular_jacobian():
    # constant polynomial (grade 1, zero leading coefficient): the bordered
    # Jacobian's last column is identically zero, an exactly singular system
    A0 = np.diag([1.0, 0.0]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([A0, np.zeros_like(A0)]))
    seed_x = np.array([1e-6, 1.0], dtype=np.complex128)
    with pytest.raises(SingularJacobian):
        refine_eigenpair(P, 0.3, seed_x)


# =======================
# full reference spectra
# =======================

def test_reference_spectrum_sorted_and_converged():
    P = random_polynomial(PolySpec(kind="p1", n=3, d=3, seed=2718))
    refs = reference_spectrum(P)
    assert len(refs) == 9
    assert all(r.converged for r in refs)
    mags = [abs(r.lam.value) for r in refs]
    assert mags == sorted(mags)
    maxA = max(np.linalg.svd(P.coeffs[i], compute_uv=False)[0] for i in range(4))
    assert all(r.residual <= RESIDUAL_TOL * maxA for r in refs)


def test_reference_spectrum_seed_independence():
    # the refined spectrum must not depend on which linearization seeded it
    P = random_polynomial(PolySpec(kind="p1", n=3, d=3, seed=1618))
    refs_l1 = reference_spectrum(P, seed_label="l1")
    refs_l3 = reference_spectrum(P, seed_label="l3")
    for a, b in zip(refs_l1, refs_l3):
        assert abs(a.lam.value - b.lam.value) <= 1e-20 * max(1.0, abs(a.lam.value))


def test_reference_spectrum_rejects_singular_leading_coefficient():
    eye = np.eye(2, dtype=np.complex128)
    Ad = np.diag([1.0, 0.0]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([eye, eye, Ad]))
    with pytest.raises(InfiniteEigenvalue):
        reference_spectrum(P)


def test_reference_spectrum_flags_clusters():
    # lam I - D with two diagonal entries 2^-40 apart: both get flagged,
    # the remote third one does not
    gap = 2.0 ** -40
    D = np.diag([1.0, 1.0 + gap, 3.0]).astype(np.complex128)
    P = MatrixPolynomial(np.stack([-D, np.eye(3, dtype=np.complex128)]))
    refs = reference_spectrum(P)
    flags = [r.clustered for r in refs]
    assert flags == [True, True, False]
    assert all(r.converged for r in refs)


# =======================
# cache round trip
# =======================

def test_reference_cache_round_trip(tmp_path):
    P = random_polynomial(PolySpec(kind="p1", n=2, d=2, seed=777))
    refs = reference_spectrum(P)
    path = str(tmp_path / "cache.json")
    save_reference_cache(path, P, refs)
    Q, loaded = load_reference_cache(path)
    assert_array_equal(Q.coeffs, P.coeffs)
    assert len(loaded) == len(refs)
    for a, b in zip(refs, loaded):
        assert_array_equal(a.lam.as_array(), b.lam.as_array())
        assert_array_equal(a.x, b.x)
        assert a.converged == b.converged
        assert a.clustered == b.clustered


def test_reference_cache_strict_parse(tmp_path):
    from pepbound.polyval import save_polynomial

    P = random_polynomial(PolySpec(kind="p1", n=2, d=2, seed=778))
    path = str(tmp_path / "noref.json")
    save_polynomial(path, P)
    with pytest.raises(DomainError):
        load_reference_cache(path)

    path2 = str(tmp_path / "badref.json")
    save_polynomial(path2, P, extra={"refs": [{"lambda": [0, 0, 0, 0]}]})
    with pytest.raises(DomainError):
        load_reference_cache(path2)
