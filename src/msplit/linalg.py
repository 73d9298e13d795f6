"""Symmetric positive definite solves and generalized eigenproblems.

Thin, checked wrappers around scipy: a LAPACK band Cholesky factor for every
coarse SPD matrix the program solves with or decides definiteness of, a
sparse factorization with the contract of a Cholesky one for the fine
backward Euler matrix of the fine reference, and the generalized symmetric
eigensolver used by the local spectral problems.
Every routine verifies the property it promises and raises
:class:`NumericalError` with context when it cannot deliver. One context
manager pins the BLAS libraries behind numpy and scipy to a single thread
for loops of many small dense problems.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "NumericalError",
    "EigResult",
    "BandCholesky",
    "SparseCholesky",
    "eig_gsym",
    "single_thread_blas",
]


class NumericalError(RuntimeError):
    """A factorization or solve could not deliver its accuracy contract."""


class BandCholesky:
    """LAPACK band Cholesky factor (``dpbtrf``) of a symmetric matrix in ``order``.

    Row and column k of the factored matrix are ``order[k]`` of ``mat``
    (None: the natural order). Its lower band, kd + 1 rows of n values with
    kd the farthest stored entry from the diagonal, is stored dense, in
    LAPACK's column-major layout, so ``dpbtrf`` factors it in place. A pivot
    that is not positive or not finite is refused with :class:`NumericalError`.
    :meth:`solve` takes (n,) and (n, k) right-hand sides in ``mat``'s order.
    """

    def __init__(self, mat, order: Optional[np.ndarray] = None, context: str = ""):
        mat = sp.csr_matrix(mat, dtype=float)
        mat.sum_duplicates()
        n = mat.shape[0]
        self.order = np.arange(n) if order is None else np.asarray(order)
        self._position = position = np.argsort(self.order)   # the inverse of a permutation
        if not np.array_equal(self.order[position], np.arange(n)):
            raise ValueError(f"the order is not a permutation of the {n} rows")
        # one pass over the stored entries: entry (i, j) of the lower band
        # sits at i - j + (kd + 1) j of the column-major band, and an upper
        # one is written to a slot past its end
        col = position[mat.indices]
        offset = np.repeat(position, np.diff(mat.indptr))
        offset -= col
        self.bandwidth = kd = max(int(offset.max(initial=0)), 0)
        col *= kd + 1
        col += offset
        np.putmask(col, offset < 0, (kd + 1) * n)
        del offset
        flat = np.zeros((kd + 1) * n + 1)
        flat[col] = mat.data
        del col
        band = flat[:-1].reshape((kd + 1, n), order="F")
        self._factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
        pivots = self._factor[0]   # L's diagonal, and a failing pivot before its root
        if info > 0 or not np.isfinite(pivots).all():
            k = info - 1 if info > 0 else int(np.argmin(np.isfinite(pivots)))
            where = f" of {context}" if context else ""
            raise NumericalError(f"band Cholesky factorization{where} met the pivot "
                                 f"{pivots[k]:.3e}: the matrix is not positive definite")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        solved, _ = scipy.linalg.lapack.dpbtrs(self._factor, rhs[self.order], lower=1,
                                               overwrite_b=1)
        return solved[self._position]


class SparseCholesky:
    """Sparse factorization of an SPD matrix with the contract of a Cholesky one.

    It factors the fine reference's backward Euler matrix, whose band
    (kd = 256 at 65,025 dofs, 134 MB) a fill-reducing order beats.

    SuperLU with a minimum-degree ordering of A + A^T, symmetric mode and a
    zero pivoting threshold takes every pivot on the diagonal of the
    reordered matrix, so the factor is Pr A Pc = L U with Pr = Pc^T. A row
    interchange (``perm_r != perm_c``, as a zero diagonal forces) or a pivot
    of U that is not positive means A is not positive definite, and the
    factorization is refused with :class:`NumericalError`. Solves are not
    residual-checked; callers check their right-hand sides or the solutions.
    """

    def __init__(self, mat, context: str = ""):
        where = f" of {context}" if context else ""
        mat = mat.tocsc() if sp.issparse(mat) else sp.csc_matrix(np.asarray(mat, dtype=float))
        try:
            lu = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        except RuntimeError as exc:  # an exactly zero pivot column
            raise NumericalError(f"sparse Cholesky factorization{where} "
                                 f"failed: {exc}") from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise NumericalError(f"sparse Cholesky factorization{where} had to "
                                 "pivot a row: the matrix is not positive definite")
        pivots = lu.U.diagonal()
        if not (pivots > 0.0).all():  # also catches a NaN pivot
            raise NumericalError(f"sparse Cholesky factorization{where} met the "
                                 f"pivot {pivots.min():.3e}: the matrix is not "
                                 "positive definite")
        self._lu = lu

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


@dataclass
class EigResult:
    """Eigenpairs of a symmetric pencil (A, S), ascending, S-orthonormal."""

    values: np.ndarray
    vectors: np.ndarray  # columns


def eig_gsym(astiff: np.ndarray, smass: np.ndarray, context: str = "",
             count: Optional[int] = None) -> EigResult:
    """Solve A v = lambda S v for a symmetric pencil with S positive definite.

    Returns the ``count`` smallest eigenvalues ascending (all of them when
    ``count`` is None or at least the order of A) with S-orthonormal
    eigenvectors, and verifies the residual of every returned pair against
    1e-8 times the largest column 2-norm of A. That scale is at most
    ||A||_2, so the check is at least as strict as one against
    1e-8 * ||A||_2, and it costs no SVD.
    """
    astiff = np.asarray(astiff, dtype=float)
    smass = np.asarray(smass, dtype=float)
    where = f" in {context}" if context else ""
    subset = None if count is None or count >= len(astiff) else [0, count - 1]
    try:
        values, vectors = scipy.linalg.eigh(astiff, smass, subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed{where}: {exc}") from exc
    scale = np.linalg.norm(astiff, axis=0).max() if astiff.size else 0.0
    residual = np.abs(astiff @ vectors - (smass @ vectors) * values).max() if astiff.size else 0.0
    if residual > 1e-8 * max(scale, 1e-300):
        raise NumericalError(
            f"eigen residual {residual:.3e} exceeds 1e-8 * max column norm of A "
            f"= {1e-8 * scale:.3e}{where}")
    return EigResult(values=values, vectors=vectors)


# (get, set) thread-count symbols of the OpenBLAS builds that numpy and scipy
# wheels bundle, and of a plain system OpenBLAS.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of each OpenBLAS mapped into this process.

    The libraries are found in ``/proc/self/maps`` (Linux); the list is
    empty where that file or the symbols are missing.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        if not path.startswith("/"):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


@contextmanager
def single_thread_blas():
    """Run the block with every loaded OpenBLAS pinned to one thread.

    Each library's previous thread count is restored on exit, also when the
    block raises. Where no OpenBLAS with thread controls is found, the block
    runs unpinned. The count is process-wide, so BLAS calls made from other
    threads meanwhile also run on one thread.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)
