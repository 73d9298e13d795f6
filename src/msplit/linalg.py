"""Symmetric positive definite solves and generalized eigenproblems.

Thin, checked wrappers around scipy: sparse direct factorization with an
iterative fallback for the fine-grid systems, a sparse factorization with
the contract of a Cholesky one for the coarse time-stepping systems, and the
generalized symmetric eigensolver used by the local spectral problems.
Every routine verifies the property it promises and raises
:class:`NumericalError` with context when it cannot deliver. One context
manager pins the BLAS libraries behind numpy and scipy to a single thread
for loops of many small dense problems.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "NumericalError",
    "EigResult",
    "SpdFactor",
    "SparseCholesky",
    "factorize_spd",
    "eig_gsym",
    "cholesky_margin",
    "single_thread_blas",
]

DEFAULT_TOL = 1e-10
PIVOT_FLOOR = 1e-14
CG_MAXITER = 5000


class NumericalError(RuntimeError):
    """A factorization or solve could not deliver its accuracy contract."""


class SpdFactor:
    """Reusable direct factorization of a sparse SPD matrix.

    Solves are verified against the residual tolerance; a Jacobi-preconditioned
    conjugate gradient picks up the rare case where the direct solve degrades.
    """

    def __init__(self, mat, tol: float = DEFAULT_TOL, context: str = ""):
        self.mat = mat.tocsr() if sp.issparse(mat) else sp.csr_matrix(mat)
        self.tol = tol
        self.context = context
        try:
            self._lu = spla.splu(self.mat.tocsc())
        except RuntimeError as exc:
            self._lu = None
            self._lu_error = str(exc)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        if self._lu is not None:
            x = self._lu.solve(rhs)
            if np.linalg.norm(self.mat @ x - rhs) <= self.tol * rhs_norm:
                return x
        return self._cg(rhs, rhs_norm)

    def _cg(self, rhs, rhs_norm):
        diag = self.mat.diagonal()
        if np.any(diag <= 0.0):
            where = self.context or "matrix"
            raise NumericalError(f"non-positive diagonal during solve of {where}")
        precond = spla.LinearOperator(self.mat.shape, matvec=lambda v: v / diag)
        x, info = spla.cg(self.mat, rhs, rtol=self.tol, atol=0.0, M=precond,
                          maxiter=CG_MAXITER)
        residual = np.linalg.norm(self.mat @ x - rhs)
        if info != 0 or residual > self.tol * rhs_norm:
            where = f" for {self.context}" if self.context else ""
            raise NumericalError(
                f"iterative fallback did not converge{where}: "
                f"residual {residual:.3e} vs target {self.tol * rhs_norm:.3e}")
        return x


def factorize_spd(mat, tol: float = DEFAULT_TOL, context: str = "") -> SpdFactor:
    """Factorize a sparse SPD matrix once for repeated solves."""
    return SpdFactor(mat, tol=tol, context=context)


class SparseCholesky:
    """Sparse factorization of an SPD matrix with the contract of a Cholesky one.

    SuperLU with a minimum-degree ordering of A + A^T, symmetric mode and a
    zero pivoting threshold takes every pivot on the diagonal of the
    reordered matrix, so the factor is Pr A Pc = L U with Pr = Pc^T. A row
    interchange (``perm_r != perm_c``, as a zero diagonal forces) or a pivot
    of U that is not positive means A is not positive definite, and the
    factorization is refused with :class:`NumericalError`. A block-diagonal
    matrix stays decoupled under the ordering, so one factor serves every
    block. Solves are not residual-checked; callers check their right-hand
    sides or the solutions.
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

    @property
    def n(self) -> int:
        return len(self.values)


def eig_gsym(astiff: np.ndarray, smass: np.ndarray, context: str = "") -> EigResult:
    """Solve A v = lambda S v for a symmetric pencil with S positive definite.

    Returns all eigenvalues ascending with S-orthonormal eigenvectors and
    verifies the residual of every pair against 1e-8 times the largest column
    2-norm of A. That scale is at most ||A||_2, so the check is at least as
    strict as one against 1e-8 * ||A||_2, and it costs no SVD.
    """
    astiff = np.asarray(astiff, dtype=float)
    smass = np.asarray(smass, dtype=float)
    where = f" in {context}" if context else ""
    try:
        values, vectors = scipy.linalg.eigh(astiff, smass)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed{where}: {exc}") from exc
    scale = np.linalg.norm(astiff, axis=0).max() if astiff.size else 0.0
    residual = np.abs(astiff @ vectors - (smass @ vectors) * values).max() if astiff.size else 0.0
    if residual > 1e-8 * max(scale, 1e-300):
        raise NumericalError(
            f"eigen residual {residual:.3e} exceeds 1e-8 * max column norm of A "
            f"= {1e-8 * scale:.3e}{where}")
    return EigResult(values=values, vectors=vectors)


def cholesky_margin(mat) -> tuple:
    """Positive definiteness of a symmetric matrix from one Cholesky factorization.

    A sparse ``mat`` is densified for as long as the factorization lasts.
    Returns ``(ok, margin)``. ``ok`` is True iff the factorization completes
    with every pivot diag(L)^2 above the floor 1e-14 * max|A|; a zero or empty
    matrix fails. ``margin`` is the smallest pivot or, when the factorization
    breaks down, the smallest eigenvalue (non-positive in that case), so
    callers still get a signed margin; it is 0 for an empty matrix.
    """
    mat = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    if mat.size == 0:
        return False, 0.0
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False, float(np.linalg.eigvalsh(mat).min())
    d = np.diagonal(chol)
    margin = float((d * d).min())
    # max|A| without an n x n temporary
    return bool(margin > PIVOT_FLOOR * max(mat.max(), -mat.min())), margin


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
