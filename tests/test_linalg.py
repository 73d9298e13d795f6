import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from msplit.linalg import BandCholesky, NumericalError, SparseCholesky, eig_gsym

from _oracles import charpoly_eigs, random_spd
from conftest import rng_for


@pytest.mark.parametrize("n", [1, 2, 9, 18, 225])
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


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**31 - 1),
       a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_sparse_cholesky_is_linear(n, seed, a, b):
    rng = np.random.default_rng(seed)
    mat = sp.csr_matrix(random_spd(rng, n))
    r1 = rng.standard_normal(n)
    r2 = rng.standard_normal(n)
    factor = SparseCholesky(mat)
    combined = factor.solve(a * r1 + b * r2)
    separate = a * factor.solve(r1) + b * factor.solve(r2)
    assert np.allclose(combined, separate, atol=1e-8)


def block_stencil_spd(rng, width, height, modes):
    """SPD matrix of a width x height node grid, ``modes`` dofs a node, in node order.

    The identity plus a random positive semidefinite block on the dofs of
    each 2 x 2 node cell, as the coarse matrices are sums over coarse cells.
    """
    n = width * height * modes
    mat = np.eye(n)
    for cy in range(height - 1):
        for cx in range(width - 1):
            nodes = np.array([0, 1, width, width + 1]) + cy * width + cx
            dofs = (nodes[:, None] * modes + np.arange(modes)).ravel()
            mat[np.ix_(dofs, dofs)] += random_spd(rng, len(dofs), shift=0.0)
    return mat


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(width=st.integers(2, 5), height=st.integers(2, 5), modes=st.integers(1, 4),
       k=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_band_cholesky_solves_a_block_stencil_in_any_order(width, height, modes, k, seed):
    # the stencil given with its dofs shuffled: in node order the band has
    # half-width (width + 2) modes - 1, and in any order (a random one, the
    # natural one) every solve meets a relative residual of 1e-12
    rng = np.random.default_rng(seed)
    dense = block_stencil_spd(rng, width, height, modes)
    n = len(dense)
    shuffle = rng.permutation(n)
    mat = sp.csr_matrix(dense[np.ix_(shuffle, shuffle)])
    node_order = np.argsort(shuffle)
    assert BandCholesky(mat, node_order).bandwidth == (width + 2) * modes - 1
    many = rng.standard_normal((n, k))
    for order in (node_order, rng.permutation(n), None):
        factor = BandCholesky(mat, order, "probe")
        for rhs in (rng.standard_normal(n), np.ascontiguousarray(many),
                    np.asfortranarray(many)):
            x = factor.solve(rhs)
            assert x.shape == rhs.shape
            assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    # shifted below its smallest eigenvalue, or with one dof decoupled and
    # zeroed, the matrix is refused in every order, naming the context
    lowest = np.linalg.eigvalsh(dense)[0]
    singular = dense.copy()
    dof = int(rng.integers(n))
    singular[dof, :] = singular[:, dof] = 0.0
    for bad in (dense - (lowest + 0.5) * np.eye(n), singular):
        for order in (node_order, rng.permutation(n)):
            with pytest.raises(NumericalError, match="factorization of probe met the pivot "
                                                     r".*not positive definite"):
                BandCholesky(sp.csr_matrix(bad), order, "probe")


def test_band_cholesky_factors_the_band_in_place(monkeypatch):
    # the lower band is scattered straight into LAPACK's column-major
    # layout, so dpbtrf factors the array it is given, not a copy of it
    seen = []
    dpbtrf = scipy.linalg.lapack.dpbtrf

    def spy(band, *args, **kwargs):
        factor, info = dpbtrf(band, *args, **kwargs)
        seen.append((band.flags.f_contiguous, np.shares_memory(factor, band)))
        return factor, info

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", spy)
    rng = rng_for("band_in_place")
    dense = block_stencil_spd(rng, 3, 4, 2)
    n = len(dense)
    for order in (None, rng.permutation(n)):
        factor = BandCholesky(sp.csr_matrix(dense), order, "probe")
        rhs = rng.standard_normal(n)
        assert np.linalg.norm(dense @ factor.solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)
    assert seen == [(True, True), (True, True)]


def test_band_cholesky_reports_the_failing_pivot_and_refuses_nan_and_a_bad_order():
    # dpbtrf leaves the failing pivot, before its square root, on the band's
    # diagonal row: 1 - 2^2 / 1 = -3 here. A NaN entry is refused too
    with pytest.raises(NumericalError, match=r"of probe met the pivot -3\.000e\+00"):
        BandCholesky(np.array([[1.0, 2.0], [2.0, 1.0]]), context="probe")
    with pytest.raises(NumericalError, match="met the pivot nan"):
        BandCholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]), context="probe")
    for order in ([0, 0], [1], [0, 2]):
        with pytest.raises(ValueError, match="not a permutation of the 2 rows"):
            BandCholesky(np.eye(2), np.array(order))


def test_eig_gsym_basic_properties():
    rng = rng_for("eig_props")
    a = random_spd(rng, 8, shift=0.0)
    s = random_spd(rng, 8)
    res = eig_gsym(a, s)
    assert len(res.values) == 8
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


@pytest.mark.parametrize("count", [1, 4, 9, 12, None])
def test_eig_gsym_count_returns_the_smallest_pairs(count):
    # a count below the order solves a subset; at or above it, or without
    # one, the whole spectrum comes back
    rng = rng_for("eig_count")
    a = random_spd(rng, 9, shift=0.0)
    s = random_spd(rng, 9)
    full = eig_gsym(a, s)
    res = eig_gsym(a, s, count=count)
    kept = 9 if count is None else min(count, 9)
    assert res.values.shape == (kept,) and res.vectors.shape == (9, kept)
    assert np.allclose(res.values, full.values[:kept], rtol=1e-10, atol=1e-12)
    assert np.allclose(res.vectors.T @ s @ res.vectors, np.eye(kept), atol=1e-10)
    assert np.allclose(a @ res.vectors, s @ res.vectors * res.values, atol=1e-8)
