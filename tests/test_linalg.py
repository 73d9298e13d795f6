import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from msplit.linalg import (NumericalError, SparseCholesky, cholesky_margin,
                           eig_gsym, factorize_spd)

from _oracles import charpoly_eigs, random_spd
from conftest import rng_for


def test_factorize_spd_matches_dense_oracle():
    rng = rng_for("factorize_spd_oracle")
    for n in (1, 2, 7, 19, 32):
        mat = random_spd(rng, n)
        rhs = rng.standard_normal(n)
        x = factorize_spd(sp.csr_matrix(mat)).solve(rhs)
        assert np.allclose(x, np.linalg.solve(mat, rhs), atol=1e-10, rtol=1e-10)


@pytest.mark.parametrize("n", [9, 18, 225])
def test_sparse_cholesky_solve_matches_cho_solve(n):
    rng = rng_for(f"sparse_cholesky_{n}")
    dense = random_spd(rng, n)
    # the same matrix with its coupling between three index groups dropped
    group = np.arange(n) * 3 // n
    blockdiag = np.where(group[:, None] == group[None, :], dense, 0.0)
    many = rng.standard_normal((n, 3))
    for mat in (dense, blockdiag):
        factor = SparseCholesky(sp.csr_matrix(mat))
        reference = scipy.linalg.cho_factor(mat, lower=True)
        for rhs in (rng.standard_normal(n), np.ascontiguousarray(many),
                    np.asfortranarray(many)):
            x = factor.solve(rhs)
            want = scipy.linalg.cho_solve(reference, rhs)
            assert x.shape == rhs.shape
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_sparse_cholesky_refuses_an_indefinite_matrix():
    with pytest.raises(NumericalError, match="probe.*not positive definite"):
        SparseCholesky(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
                       context="probe")


@pytest.mark.parametrize("mat", [
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
])
def test_sparse_cholesky_refuses_row_pivoting(mat):
    # symmetric and non-singular, but a zero diagonal forces a row exchange
    with pytest.raises(NumericalError, match="probe.*pivot a row"):
        SparseCholesky(np.array(mat), context="probe")


def test_sparse_cholesky_refuses_a_singular_matrix():
    with pytest.raises(NumericalError, match="probe"):
        SparseCholesky(sp.csr_matrix(np.zeros((3, 3))), context="probe")


def test_factorize_spd_zero_rhs():
    mat = sp.csr_matrix(np.eye(3))
    assert np.array_equal(factorize_spd(mat).solve(np.zeros(3)), np.zeros(3))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**31 - 1),
       a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_factorize_spd_is_linear(n, seed, a, b):
    rng = np.random.default_rng(seed)
    mat = sp.csr_matrix(random_spd(rng, n))
    r1 = rng.standard_normal(n)
    r2 = rng.standard_normal(n)
    factor = factorize_spd(mat)
    combined = factor.solve(a * r1 + b * r2)
    separate = a * factor.solve(r1) + b * factor.solve(r2)
    assert np.allclose(combined, separate, atol=1e-8)


def test_eig_gsym_basic_properties():
    rng = rng_for("eig_props")
    a = random_spd(rng, 8, shift=0.0)
    s = random_spd(rng, 8)
    res = eig_gsym(a, s)
    assert res.n == 8
    assert np.all(np.diff(res.values) >= -1e-12)
    v = res.vectors
    assert np.allclose(v.T @ s @ v, np.eye(8), atol=1e-10)
    assert np.allclose(a @ v, s @ v * res.values, atol=1e-8)


def test_eig_gsym_trace_identity():
    rng = rng_for("eig_trace")
    a = random_spd(rng, 6, shift=0.0)
    s = random_spd(rng, 6)
    res = eig_gsym(a, s)
    assert res.values.sum() == pytest.approx(np.trace(np.linalg.solve(s, a)),
                                             rel=1e-10)


def test_eig_gsym_matches_characteristic_polynomial():
    rng = rng_for("eig_charpoly")
    for n in (1, 2, 3, 4):
        a = random_spd(rng, n, shift=0.0)
        s = random_spd(rng, n)
        res = eig_gsym(a, s)
        expected = charpoly_eigs(a, s)
        assert np.allclose(res.values, expected, atol=1e-8, rtol=1e-8)


def test_eig_gsym_rejects_indefinite_mass():
    rng = rng_for("eig_bad_mass")
    a = random_spd(rng, 4)
    with pytest.raises(NumericalError):
        eig_gsym(a, -np.eye(4))


def test_eig_gsym_rejects_inaccurate_eigenpairs(monkeypatch):
    # eigenvectors off by 1e-4 must fail the residual guard, which is scaled
    # by the largest column norm of A
    rng = rng_for("eig_residual")
    a = random_spd(rng, 6, shift=0.0)
    s = random_spd(rng, 6)
    eigh = scipy.linalg.eigh

    def perturbed(*args, **kwargs):
        values, vectors = eigh(*args, **kwargs)
        return values, vectors + 1e-4 * rng.standard_normal(vectors.shape)

    monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="eigen residual"):
        eig_gsym(a, s)


def test_cholesky_margin_definiteness():
    rng = rng_for("chol_check")
    assert cholesky_margin(random_spd(rng, 5))[0]
    assert not cholesky_margin(np.array([[1.0, 2.0], [2.0, 1.0]]))[0]
    assert not cholesky_margin(np.zeros((3, 3)))[0]
    # positive definite but with a pivot below the relative floor
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
    assert not cholesky_margin(nearly)[0]


def test_cholesky_margin_values():
    diag = np.diag([4.0, 9.0, 1.0])
    assert cholesky_margin(diag) == (True, pytest.approx(1.0))
    indef = np.array([[1.0, 3.0], [3.0, 1.0]])
    assert cholesky_margin(indef) == (False, pytest.approx(-2.0))
    assert cholesky_margin(np.zeros((0, 0))) == (False, 0.0)
