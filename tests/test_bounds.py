"""Tests for acute angles and the eigenvector error bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pepbound.bounds import (
    BoundRow,
    gep_eigvec_bound,
    pep_bound_frobenius,
    pep_bound_general,
    pep_bound_kronecker,
    sin_acute_angle,
)
from pepbound.exceptions import DomainError
from pepbound.rng import SplitMix64


def _random_vector(gen: SplitMix64, n: int) -> np.ndarray:
    return np.array([gen.complex_normal() for _ in range(n)])


# =======================
# acute angle
# =======================

def test_angle_parallel_orthogonal_and_45_degrees():
    u = np.array([1.0, 2.0 - 1.0j, 0.5j])
    assert sin_acute_angle(u, 3j * u) == 0.0
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert sin_acute_angle(e1, e2) == 1.0
    w = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    assert_allclose(sin_acute_angle(e1, w), 1.0 / math.sqrt(2.0), rtol=1e-15)


def test_angle_rejects_zero_vectors_and_mismatch():
    u = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(DomainError):
        sin_acute_angle(u, np.zeros(2, dtype=complex))
    with pytest.raises(DomainError):
        sin_acute_angle(np.zeros(2, dtype=complex), u)
    with pytest.raises(DomainError):
        sin_acute_angle(u, np.ones(3, dtype=complex))


def test_angle_symmetry_and_scale_invariance():
    gen = SplitMix64(60)
    for _ in range(100):
        u = _random_vector(gen, 5)
        w = _random_vector(gen, 5)
        s = sin_acute_angle(u, w)
        assert abs(s - sin_acute_angle(w, u)) <= 1e-14
        c1 = gen.complex_normal()
        c2 = gen.complex_normal()
        assert abs(s - sin_acute_angle(c1 * u, c2 * w)) <= 1e-14
        assert 0.0 <= s <= 1.0


def test_angle_variational_characterization():
    # sin angle(u, w) = min_alpha || u/||u|| - alpha w ||; the closed-form
    # minimizer is alpha* = w^* u / (||u|| ||w||^2).  Check (a) the identity
    # against an independent projector evaluation and (b) minimality of
    # alpha* over a grid of perturbed candidates.
    gen = SplitMix64(61)
    for trial in range(500):
        n = 2 + trial % 6
        u = _random_vector(gen, n)
        w = _random_vector(gen, n)
        s = sin_acute_angle(u, w)

        q = w / np.linalg.norm(w)
        un = u / np.linalg.norm(u)
        proj_residual = float(np.linalg.norm(un - q * np.vdot(q, un)))
        assert abs(s - proj_residual) <= 1e-12

        alpha_star = np.vdot(w, u) / (np.linalg.norm(u) * np.linalg.norm(w) ** 2)
        attained = float(np.linalg.norm(un - alpha_star * w))
        assert abs(s - attained) <= 1e-12
        for _ in range(20):
            alpha = alpha_star + 0.1 * gen.complex_normal() / np.linalg.norm(w)
            assert float(np.linalg.norm(un - alpha * w)) >= attained - 1e-12


def test_angle_resolves_tiny_perturbations():
    # angles of order 1e-9 cannot be resolved through 1 - cos^2 in double
    # precision; the variational evaluation must report them faithfully
    gen = SplitMix64(62)
    for scale in (1e-6, 1e-9, 1e-12):
        u = _random_vector(gen, 6)
        u = u / np.linalg.norm(u)
        p = _random_vector(gen, 6)
        p = p - u * np.vdot(u, p)  # orthogonal perturbation
        p = p / np.linalg.norm(p)
        w = u + scale * p
        s = sin_acute_angle(u, w)
        assert abs(s - scale) <= 1e-2 * scale


def test_block_angle_inequality():
    # for block vectors u, w with unit blocks u_i, w_i at a shared index,
    # sin angle(u_i, w_i) <= min(||u||, ||w||) * sin angle(u, w)
    gen = SplitMix64(63)
    for trial in range(500):
        d = 2 + trial % 5
        n = 2 + trial % 7
        i = trial % d
        u = _random_vector(gen, d * n)
        w = _random_vector(gen, d * n)
        ui = u[i * n:(i + 1) * n]
        wi = w[i * n:(i + 1) * n]
        u[i * n:(i + 1) * n] = ui / np.linalg.norm(ui)
        w[i * n:(i + 1) * n] = wi / np.linalg.norm(wi)
        lhs = sin_acute_angle(u[i * n:(i + 1) * n], w[i * n:(i + 1) * n])
        rhs = min(np.linalg.norm(u), np.linalg.norm(w)) * sin_acute_angle(u, w)
        assert lhs <= rhs + 1e-13, trial


# =======================
# bounds
# =======================

def test_gep_bound_values_and_guards():
    assert gep_eigvec_bound(0.0, 1.0, 1e-2) == 0.0
    assert_allclose(gep_eigvec_bound(1e-10, 1.0, 1e-2), 1e-8, rtol=1e-15)
    assert gep_eigvec_bound(1e-10, 1.0, 0.0) == math.inf
    with pytest.raises(DomainError):
        gep_eigvec_bound(1e-10, 0.0, 1e-2)
    with pytest.raises(DomainError):
        gep_eigvec_bound(-1.0, 1.0, 1e-2)


def test_pep_bound_general_values():
    assert_allclose(pep_bound_general(1.0, 1e-8, 1e-2), 1e-6, rtol=1e-15)
    # H2 weight |lam|^-(d-1) with |lam| = 2, d = 3
    assert_allclose(
        pep_bound_general(2.0 ** -2, 1e-8, 1e-2), 1e-6 / 4.0, rtol=1e-15
    )
    assert pep_bound_general(1.0, 1e-8, 0.0) == math.inf


def test_pep_bound_kronecker_values():
    # |lam| <= 1 branch
    assert_allclose(pep_bound_kronecker(1e-8, 0.5, 5, 1e-2), 1e-6, rtol=1e-15)
    # |lam| = 2, d = 5: divide by 2^4 = 16
    assert_allclose(
        pep_bound_kronecker(1e-12, 2.0, 5, 1e-3), 1e-9 / 16.0, rtol=1e-15
    )
    assert pep_bound_kronecker(1e-12, 2.0, 5, 0.0) == math.inf


def test_pep_bound_kronecker_is_min_of_general_instances():
    gen = SplitMix64(64)
    for _ in range(100):
        lam = gen.complex_normal() * 2.0
        if lam == 0:
            continue
        d = 2 + int(gen.uniform() * 6)
        residual = abs(gen.normal()) * 1e-8
        sep = abs(gen.normal()) * 1e-3 + 1e-6
        kron = pep_bound_kronecker(residual, lam, d, sep)
        h1 = pep_bound_general(1.0, residual, sep)
        h2 = pep_bound_general(abs(lam) ** (-(d - 1)), residual, sep)
        assert_allclose(kron, min(h1, h2), rtol=1e-13)


def test_pep_bound_frobenius_values():
    assert_allclose(pep_bound_frobenius(1e-8, 0.0, 4, 1e-2), 1e-6, rtol=1e-15)
    # |lam| = 1, d = 4: weight sqrt(4) = 2
    assert_allclose(pep_bound_frobenius(1e-8, 1.0, 4, 1e-2), 5e-7, rtol=1e-15)
    assert pep_bound_frobenius(1e-8, 1.0, 4, 0.0) == math.inf


def test_bounds_at_infinite_separation_are_zero():
    # sep = +inf means an empty complement (a 1x1 pencil): zero error.
    assert gep_eigvec_bound(1e-10, 1.0, math.inf) == 0.0
    assert pep_bound_general(1.0, 1e-8, math.inf) == 0.0
    assert pep_bound_kronecker(1e-12, 2.0, 1, math.inf) == 0.0
    assert pep_bound_frobenius(1e-8, 1.0, 1, math.inf) == 0.0


@pytest.mark.parametrize("sep", [math.nan, -1e-3, -math.inf])
def test_bounds_reject_nan_and_negative_separation(sep):
    with pytest.raises(DomainError):
        gep_eigvec_bound(1e-10, 1.0, sep)
    with pytest.raises(DomainError):
        pep_bound_general(1.0, 1e-8, sep)
    with pytest.raises(DomainError):
        pep_bound_kronecker(1e-12, 2.0, 5, sep)
    with pytest.raises(DomainError):
        pep_bound_frobenius(1e-8, 1.0, 4, sep)


def test_ratio_bracket_sweep():
    # bound_kron / bound_frob stays in [1, sqrt(d)] across magnitudes
    gen = SplitMix64(65)
    for trial in range(1000):
        d = 2 + trial % 7
        lam = gen.complex_normal() * 10.0 ** (int(gen.uniform() * 13) - 6)
        residual = abs(gen.normal()) * 1e-9 + 1e-30
        sep = abs(gen.normal()) * 1e-3 + 1e-9
        kron = pep_bound_kronecker(residual, lam, d, sep)
        frob = pep_bound_frobenius(residual, lam, d, sep)
        ratio = kron / frob
        assert 1.0 - 1e-12 <= ratio <= math.sqrt(d) + 1e-12, (trial, d, lam)


def test_bound_monotonicity():
    seps = [1e-6, 1e-4, 1e-2, 1.0]
    residuals = [1e-14, 1e-10, 1e-6]
    for lam, d in [(0.3, 4), (2.5, 6)]:
        for r in residuals:
            vals = [pep_bound_kronecker(r, lam, d, s) for s in seps]
            assert all(a >= b for a, b in zip(vals, vals[1:]))  # nonincreasing in sep
        for s in seps:
            vals = [pep_bound_kronecker(r, lam, d, s) for r in residuals]
            assert all(a <= b for a, b in zip(vals, vals[1:]))  # nondecreasing in residual


def test_gep_bound_validity_on_random_pencil():
    # QZ eigenpairs of a random 8x8 pencil: the residual/separation bound
    # dominates the angle to the oracle eigenvector (scipy.linalg.eig)
    import scipy.linalg

    from pepbound.denseig import gep_eigenpairs, separation

    gen = SplitMix64(66)
    A = gen.complex_normal_matrix(8, 8)
    B = gen.complex_normal_matrix(8, 8)
    oracle_vals, oracle_vecs = scipy.linalg.eig(A, B)
    for p in gep_eigenpairs(A, B):
        if not p.finite:
            continue
        j = int(np.argmin(np.abs(oracle_vals - p.lam)))
        v_exact = oracle_vecs[:, j]
        sep = separation(A, B, v_exact, p.lam).sep
        residual = float(np.linalg.norm((A - p.lam * B) @ p.v))
        bound = gep_eigvec_bound(residual, 1.0, sep)
        angle = sin_acute_angle(v_exact, p.v)
        assert angle <= bound + 1e-15, (p.lam, angle, bound)


# =======================
# BoundRow container
# =======================

def test_bound_row_validation_and_ratio():
    row = BoundRow(
        index=1,
        lambda_exact=1.0 + 0j,
        lambda_computed=1.0 + 1e-12j,
        residual=1e-12,
        sep=1e-3,
        sin_angle=1e-9,
        bound_kron=2e-9,
        bound_frob=1e-9,
        g_norm=1.0,
        flags=(),
    )
    assert_allclose(row.ratio, 2.0, rtol=1e-15)
    inf_row = BoundRow(
        index=2,
        lambda_exact=1.0,
        lambda_computed=1.0,
        residual=1e-12,
        sep=0.0,
        sin_angle=0.5,
        bound_kron=math.inf,
        bound_frob=math.inf,
        g_norm=1.0,
        flags=("tiny_sep",),
    )
    assert inf_row.ratio == 1.0
    with pytest.raises(DomainError):
        BoundRow(
            index=3, lambda_exact=1.0, lambda_computed=1.0, residual=1e-12,
            sep=1e-3, sin_angle=1.5, bound_kron=1.0, bound_frob=1.0,
            g_norm=1.0, flags=(),
        )
    with pytest.raises(DomainError):
        BoundRow(
            index=4, lambda_exact=1.0, lambda_computed=1.0, residual=-1.0,
            sep=1e-3, sin_angle=0.5, bound_kron=1.0, bound_frob=1.0,
            g_norm=1.0, flags=(),
        )
