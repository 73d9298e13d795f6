"""Three-level block-split time stepping for the coarse parabolic system.

The coarse system C dz/dt + B z = f is advanced by a scheme that treats only
one additive part of each operator implicitly:

    C1 (theta_m * (z^{n+1} - z^n)/tau + (1 - theta_m) * (z^n - z^{n-1})/tau)
      + C2 (z^n - z^{n-1})/tau
      + B1 (theta_s * z^{n+1} + (1 - theta_s) * z^n) + B2 z^n = f^{n+1}.

With C2 = C - C1 and B2 = B - B1 this is the increment form

    (theta_m*C1 + tau*theta_s*B1) (z^{n+1} - z^n)
      = tau * (f^{n+1} - B z^n) - (C - theta_m*C1) (z^n - z^{n-1}),

one solve with theta_m*C1 + tau*theta_s*B1 per step, factored once per run.
The split keeps the diagonal mode blocks implicit (C1 = blockdiag(C),
B1 = blockdiag(B)) and treats the coupling blocks explicitly, so the blocks
of a solve decouple completely: one band factor of the whole block-diagonal
matrix serves them all. The first step is one unsplit
backward Euler step, the step the reference takes, whose z^1 a split run
streamed against it reuses. Sufficient stability conditions are checked
as matrix inequalities (theta_m*C1 - C/2 and theta_s*B1 - B/2 positive
definite, one band factorization each) and, when they hold, a discrete
energy is recorded and must not grow faster than the forcing term,
measured in the C^-1 norm, allows.

C and B are held once, as CSR matrices on one shared sorted pattern, node
by node, where they are banded; a dof's block is its mode's. A split adds
no matrix: it is one mask over that pattern, which stored entries join two
dofs of one block, and every operator of a step, of the certificate and of
the energy monitor is formed from that mask and the data arrays of C and B.
Neither a step nor the certificate reads a dense n x n matrix; each factor
is a band one.

The forcing is a profile times one row, f^k = a_k g^. A run evaluates the
profile once, at every level (:meth:`CoarseSystem.scale`), and forms f^{n+1}
outside the timed step; the monitor's |f^k|^2_{C^-1} = a_k^2 |g^|^2_{C^-1}
reads the same a_k and takes one solve with C.
"""

from __future__ import annotations

import logging
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import BandCholesky, NumericalError

__all__ = [
    "CoarseSystem",
    "SplitParts",
    "SplitConfig",
    "StabilityCertificate",
    "Trajectory",
    "make_split",
    "check_stability",
    "march",
    "backward_euler",
    "energy_errors",
]

logger = logging.getLogger(__name__)


def _csr(mat) -> sp.csr_matrix:
    """``mat`` as CSR with sorted indices and no duplicates; a dense array is converted."""
    out = mat.tocsr() if sp.issparse(mat) else sp.csr_matrix(np.asarray(mat, dtype=float))
    out.sum_duplicates()
    return out


def _one_pattern(mass: sp.csr_matrix, stiff: sp.csr_matrix) -> tuple:
    """``mass`` and ``stiff`` on one pair of sorted index arrays, the union of their patterns.

    Where the patterns differ, each matrix goes through COO to CSR together
    with the other's stored positions as explicit zeros; that conversion
    sums the duplicate positions and keeps the zeros.
    """
    if mass.shape != stiff.shape:
        raise ValueError(f"mass of shape {mass.shape} and stiffness of shape {stiff.shape}")
    if not (np.array_equal(mass.indptr, stiff.indptr)
            and np.array_equal(mass.indices, stiff.indices)):
        first, second = mass.tocoo(), stiff.tocoo()
        where = (np.concatenate((first.row, second.row)),
                 np.concatenate((first.col, second.col)))
        mass, stiff = (sp.coo_matrix((values, where), shape=mass.shape).tocsr()
                       for values in (np.concatenate((first.data, np.zeros(second.nnz))),
                                      np.concatenate((np.zeros(first.nnz), second.data))))
    out = sp.csr_matrix((mass.data, mass.indices, mass.indptr), shape=mass.shape)
    return out, sp.csr_matrix((stiff.data, out.indices, out.indptr), shape=out.shape)


def _in_blocks(mat: sp.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """Mask of the stored entries of CSR ``mat`` whose row and column have one block label."""
    return np.repeat(labels, np.diff(mat.indptr)) == labels[mat.indices]


def _kept(pattern: sp.csr_matrix, data: np.ndarray, keep: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix of the entries of ``pattern`` where ``keep`` holds, valued ``data``.

    The entries keep their order, as ``eliminate_zeros`` keeps it.
    """
    indptr = np.concatenate(([0], np.cumsum(keep)))[pattern.indptr]
    return sp.csr_matrix((data[keep], pattern.indices[keep], indptr), shape=pattern.shape)


@dataclass
class CoarseSystem:
    """Coarse mass/stiffness with projected forcing and initial state.

    ``mass`` and ``stiff`` are exactly symmetric CSR matrices on one sorted
    pattern: they share their index arrays, and where the two given differ
    in pattern, each stores the other's entries as explicit zeros; dense
    arrays given here are converted once. Rows and columns run node by
    node, and ``block_sizes`` are the mode blocks of one node, a label over
    its dofs (:func:`make_split`); a hand-built system is one node.
    The forcing is a(t) g^: the finite read-only row ``load`` g^ times the
    vectorized time ``profile`` a; a static forcing, ``profile`` None, is
    a = 1. C is factored once, for |g^|^2_{C^-1}, and only that number is
    kept, in ``_load_norm_sq``, which a copy with other ``block_sizes``
    (``dataclasses.replace``) carries over; no run leaves a factor on the
    system. The operators must not change once the system is built.
    """

    block_sizes: tuple
    mass: sp.csr_matrix
    stiff: sp.csr_matrix
    load: np.ndarray
    z0: np.ndarray
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _load_norm_sq: Optional[float] = field(default=None, kw_only=True, repr=False,
                                           compare=False)

    def __post_init__(self):
        sizes = tuple(self.block_sizes)
        if not sizes or not all(isinstance(b, numbers.Integral) and b > 0 for b in sizes):
            raise ValueError(f"block sizes must be positive integers, got {sizes}")
        self.mass, self.stiff = _one_pattern(_csr(self.mass), _csr(self.stiff))
        if self.dim % sum(sizes):
            raise ValueError(f"{self.dim} dofs are not whole nodes of the mode blocks {sizes}")
        self.load = np.array(self.load, dtype=float)
        self.load.flags.writeable = False
        if self.load.shape != (self.dim,):
            raise ValueError(f"load of shape {self.load.shape} for {self.dim} dofs")
        if not np.isfinite(self.load).all():
            raise NumericalError("non-finite forcing: the load has a non-finite entry")

    @property
    def dim(self) -> int:
        return self.mass.shape[0]

    def rhs(self, times: np.ndarray) -> np.ndarray:
        """Forcing table, row k the forcing a(times[k]) g^ at ``times[k]``; a = 1 when static."""
        return (self.profile or np.ones_like)(times)[:, None] * self.load

    def scale(self, tau: float, n_steps: int) -> np.ndarray:
        """Read-only a_1 .. a_N of the forcing a_k g^ at k * tau; ones when static.

        One ``profile`` call evaluates every time level. Rounding is monotone,
        so a row a_k g^ is finite exactly when a_k max|g^| is.
        """
        profile = self.profile or np.ones_like
        scale = np.array(profile(tau * np.arange(1, n_steps + 1)), dtype=float)
        if scale.shape != (n_steps,):
            raise ValueError(f"profile returned {scale.shape} values for {n_steps} levels")
        finite = np.isfinite(scale * np.abs(self.load).max(initial=0.0))
        if not finite.all():
            level = int(np.argmin(finite)) + 1
            raise NumericalError(f"non-finite forcing at time level {level} "
                                 f"(t = {level * tau:g})")
        scale.flags.writeable = False
        return scale

    def load_norm_sq(self) -> float:
        """|g^|^2_{C^-1} = g^ . C^-1 g^, from one factor of C that is not kept.

        The factorization is also the check that C is positive definite.
        """
        if self._load_norm_sq is None:
            factor = BandCholesky(self.mass, context="coarse mass")
            row = self.load[None, :]
            self._load_norm_sq = float(
                _row_dots(row, factor.solve(np.ascontiguousarray(row.T)))[0])
        return self._load_norm_sq


@dataclass
class SplitParts:
    """Additive two-part split of the coarse mass and stiffness.

    ``mass``/``stiff`` are the coarse system's own CSR operators on their
    shared pattern (not copied), and the split is one mask over that
    pattern, ``inside``: which stored entries join two dofs of one block,
    made once per split; ``block_sizes`` count each block's dofs. The
    implicit parts C1 = blockdiag(C), B1 = blockdiag(B) are the entries
    inside; the explicit rests C - C1 and B - B1 the ones outside. Every
    operator of a run is formed from the mask and the two data arrays;
    :attr:`mass_main` and :attr:`stiff_main` form C1 and B1 as CSR when
    read.
    """

    # the only split rule; a class constant, not a field, kept because the
    # traced benchmark's step_bytes reads it
    variant = "block-diagonal"

    block_sizes: tuple
    mass: sp.csr_matrix
    stiff: sp.csr_matrix
    inside: np.ndarray = field(repr=False)

    def main(self, mat: sp.csr_matrix) -> sp.csr_matrix:
        """blockdiag(mat) of M = C or B: its nonzero stored entries inside a block."""
        return _kept(mat, mat.data, self.inside & (mat.data != 0.0))

    @property
    def mass_main(self) -> sp.csr_matrix:
        return self.main(self.mass)

    @property
    def stiff_main(self) -> sp.csr_matrix:
        return self.main(self.stiff)


def make_split(cs: CoarseSystem) -> SplitParts:
    """Split the coarse operators into implicit and explicit parts.

    The diagonal mode blocks are implicit (symmetric parts, fully decoupled
    solves) and the coupling blocks explicit. A dof's block is its mode's:
    every node's modes fall into the same consecutive ``cs.block_sizes``.
    """
    sizes, nodes = cs.block_sizes, cs.dim // sum(cs.block_sizes)
    labels = np.tile(np.repeat(np.arange(len(sizes)), sizes), nodes)
    return SplitParts(tuple(nodes * int(b) for b in sizes), cs.mass, cs.stiff,
                      _in_blocks(cs.mass, labels))


@dataclass(frozen=True)
class SplitConfig:
    """Scalar parameters of the three-level scheme.

    ``theta_mass`` and ``theta_stiff`` weight the implicitly treated mass and
    stiffness parts; the time step must divide the final time.
    """

    tau: float
    t_final: float
    theta_mass: float = 1.0
    theta_stiff: float = 1.0

    def __post_init__(self):
        # NaN fails both comparisons
        if not (0.0 < self.tau < np.inf and 0.0 < self.t_final < np.inf):
            raise ValueError("tau and t_final must be positive and finite")
        if not (0.0 < self.theta_mass < np.inf and 0.0 < self.theta_stiff < np.inf):
            raise ValueError("scheme weights must be positive and finite")
        ratio = self.t_final / self.tau
        if not np.isfinite(ratio):
            raise ValueError(f"t_final / tau = {ratio} is not a finite step count")
        if abs(ratio - round(ratio)) > 1e-8 * max(ratio, 1.0) or round(ratio) < 1:
            raise ValueError(
                f"time step {self.tau} does not divide the final time {self.t_final}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.tau))


@dataclass
class StabilityCertificate:
    """Outcome of the sufficient stability conditions for a split.

    A margin is theta - theta* in weight units, theta* = lambda_max(M1^-1 M) / 2.
    """

    mass_ok: bool
    stiff_ok: bool
    mass_margin: float
    stiff_margin: float
    rule_mass_ok: bool   # theta_mass >= n_blocks / 2
    rule_stiff_ok: bool  # theta_stiff >= n_blocks / 2
    theta_mass: float
    theta_stiff: float
    n_blocks: int

    @property
    def passed(self) -> bool:
        return self.mass_ok and self.stiff_ok

    def describe(self) -> str:
        state = "pass" if self.passed else "FAIL"
        return (f"stability certificate: {state} "
                f"(mass condition {'ok' if self.mass_ok else 'violated'}, "
                f"margin {self.mass_margin:.3e}; "
                f"stiffness condition {'ok' if self.stiff_ok else 'violated'}, "
                f"margin {self.stiff_margin:.3e}; "
                f"{self.n_blocks}-block sufficient rule "
                f"{'ok' if self.rule_mass_ok and self.rule_stiff_ok else 'not met'})")


def _condition(parts: SplitParts, mat: sp.csr_matrix, theta: float) -> sp.csr_matrix:
    """The certified matrix theta*M1 - M/2 of M = C or B, as CSR.

    M1 = blockdiag(M) is symmetric, so it is its own symmetric part. The
    matrix has the stored entries of M, on its index arrays: theta*m - m/2
    inside a diagonal block and -m/2 outside it.
    """
    d = mat.data
    data = np.where(parts.inside, theta * d - 0.5 * d, -0.5 * d)
    return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def _certify(parts: SplitParts, mat: sp.csr_matrix, theta: float, name: str) -> tuple:
    """(ok, theta - theta*) of the condition theta*M1 - M/2 > 0 of M = C or B.

    ``ok`` is an exact inertia test: the band factorization of the
    condition matrix completes. theta* = lambda_max(M1^-1 M) / 2 is 1/2 when
    M has no stored coupling entry (M1 = M). Otherwise K = (p/2)*M1 - M/2 is
    SPD, as lambda_max(M1^-1 M) < p for SPD M on p blocks, and the largest
    eigenvalue nu of M1 v = nu K v is 2 / (p - lambda_max(M1^-1 M)), so
    theta* = p/2 - 1/nu: one Lanczos run through a band factor of K, to a
    relative tolerance of 1e-10 (theta* is printed to four digits). At
    theta = p/2 the condition matrix is K itself, and its factor serves.
    """
    condition = _condition(parts, mat, theta)
    try:
        factor = BandCholesky(condition, context=f"{name} condition")
    except NumericalError:
        factor = None
    ok = factor is not None
    if not mat.data[~parts.inside].any():
        return ok, theta - 0.5
    p, n = len(parts.block_sizes), mat.shape[0]
    ceiling = condition
    if theta != 0.5 * p or factor is None:
        ceiling = _condition(parts, mat, 0.5 * p)
        factor = BandCholesky(ceiling, f"{name} condition at theta = p/2")
    try:
        nu = spla.eigsh(parts.main(mat), k=1, M=ceiling,
                        Minv=spla.LinearOperator((n, n), matvec=factor.solve),
                        which="LA", v0=np.random.default_rng(0).standard_normal(n),
                        tol=1e-10, return_eigenvectors=False)[0]
    except spla.ArpackError as exc:
        raise NumericalError(f"{name} certificate threshold: {exc}") from exc
    return ok, theta - (0.5 * p - 1.0 / float(nu))


def check_stability(parts: SplitParts, theta_mass: float,
                    theta_stiff: float) -> StabilityCertificate:
    """Evaluate the sufficient stability conditions of a split.

    Checks positive definiteness of theta_m*C1 - C/2 and theta_s*B1 - B/2,
    reports each margin in weight units, theta - theta*, and the p-block
    rule theta >= p/2 under which both hold for any split.
    """
    p = len(parts.block_sizes)
    mass_ok, mass_margin = _certify(parts, parts.mass, theta_mass, "mass")
    stiff_ok, stiff_margin = _certify(parts, parts.stiff, theta_stiff, "stiffness")
    return StabilityCertificate(
        mass_ok, stiff_ok, mass_margin, stiff_margin,
        rule_mass_ok=bool(theta_mass >= 0.5 * p - 1e-12),
        rule_stiff_ok=bool(theta_stiff >= 0.5 * p - 1e-12),
        theta_mass=theta_mass, theta_stiff=theta_stiff, n_blocks=p)


class _StepOperator:
    """Factor and explicit operator of the increment-form split step.

    A step is one product with the CSR operator [-lag | tau*B + lag],
    lag = C - theta_m*C1, applied to the stacked levels [z^{n-1}; z^n], and
    one solve with the band factor of the block-diagonal matrix
    theta_m*C1 + tau*theta_s*B1, whose blocks stay decoupled. Both are
    formed from the split's mask and the data of C and B, and store what
    sparse algebra on C1 and B1 stores: every nonzero entry, in order. The
    explicit operator is the two parts' nonzero entries joined by
    ``sp.hstack``.
    """

    def __init__(self, parts: SplitParts, config: SplitConfig):
        tm, ts, tau = config.theta_mass, config.theta_stiff, config.tau
        self.tau = tau
        inside, c, b = parts.inside, parts.mass.data, parts.stiff.data
        lag = np.where(inside, c - tm * c, c)
        right = tau * b + lag
        self.explicit = sp.hstack([_kept(parts.mass, -lag, lag != 0.0),
                                   _kept(parts.mass, right, right != 0.0)], format="csr")
        del lag, right
        main = np.where(inside, tm * c + tau * ts * b, 0.0)
        self.factor = BandCholesky(_kept(parts.mass, main, main != 0.0),
                                   context="split step matrix")

    def step(self, levels: np.ndarray, f_next: np.ndarray) -> np.ndarray:
        """z^{n+1} from levels = [z^{n-1}; z^n] and f^{n+1}."""
        rhs = self.tau * f_next - self.explicit @ levels
        return levels[len(rhs):] + self.factor.solve(rhs)


def _euler_step(cs: CoarseSystem, tau: float):
    """Unsplit backward Euler step (C + tau*B) z^{n+1} = tau*f^{n+1} + C z^n.

    The factor of C + tau*B lives as long as the returned step, which reads
    z^n, the second half of the levels [z^{n-1}; z^n].
    """
    factor = BandCholesky(cs.mass + tau * cs.stiff, f"C + tau*B (tau = {tau:g})")
    mass, dim = cs.mass, cs.dim

    def step(levels, f_next):
        return factor.solve(tau * f_next + mass @ levels[dim:])

    return step


def damping_matrix(parts: SplitParts, config: SplitConfig) -> sp.csr_matrix:
    """Energy weight D = tau*(theta_m*C1 - C/2) + (tau^2/2)*(theta_s*B1 - B/2), as CSR.

    It stores the nonzero entries of the shared pattern, as the sum of the
    two condition matrices does.
    """
    tau = config.tau
    data = (tau * _condition(parts, parts.mass, config.theta_mass).data
            + tau ** 2 / 2 * _condition(parts, parts.stiff, config.theta_stiff).data)
    return _kept(parts.mass, data, data != 0.0)


@dataclass
class Trajectory:
    """Time-stepping history with optional energy monitoring.

    ``states`` holds z^0 .. z^N, N = ``n_steps``, or only the last levels
    of a split run streamed against a reference, whose ``history`` is then
    its :func:`energy_errors` against the reference for n = 1..N. When the
    stability certificate passes, ``energy`` records the discrete energy
    for n = 1..N and ``bound_lhs`` / ``bound_rhs`` the two sides of the a
    priori estimate for each split step (the margin stays non-negative
    exactly when the estimate holds).
    """

    states: np.ndarray
    tau: float
    n_steps: int
    certificate: Optional[StabilityCertificate] = None
    energy: Optional[np.ndarray] = None
    bound_lhs: Optional[np.ndarray] = None
    bound_rhs: Optional[np.ndarray] = None
    history: Optional[np.ndarray] = None
    step_seconds: Optional[np.ndarray] = None

    @property
    def bound_margin(self) -> Optional[float]:
        if self.bound_lhs is None or len(self.bound_lhs) == 0:
            return None
        return float(np.min(self.bound_rhs - self.bound_lhs))


# A run makes its levels a chunk at a time, and the energy monitor and the
# error history take one matrix product per chunk: a sixteenth of the
# levels, so that a split run streamed against a stored reference adds a
# sixteenth of its storage, and at most this many bytes of them. At 2250
# coarse dofs and 300 levels that is 18 levels per chunk.
TRAJECTORY_CHUNK_BYTES = 1 << 20


def trajectory_chunks(n_levels: int, dim: int) -> list:
    """Slices that cut ``n_levels`` rows of ``dim`` values into chunks (see above)."""
    rows = max(1, min(TRAJECTORY_CHUNK_BYTES // (8 * max(dim, 1)), n_levels // 16))
    return [slice(lo, min(lo + rows, n_levels)) for lo in range(0, n_levels, rows)]


class _Run:
    """Time levels of one integration, made step by step, a chunk at a time.

    The levels follow one leading copy of z^0 that stands in for z^{-1}, so
    the levels [z^{n-1}; z^n] a step reads are one contiguous vector. Chunk c
    of :func:`trajectory_chunks` makes z^{c.start + 1} .. z^{c.stop}. The
    run holds z^0 .. z^N, or without ``keep_all`` one chunk and the two
    levels before it. f^{n+1} is ``scale[n] * load`` with the system's
    a_1 .. a_N, formed before the step's wall time is taken. Stops
    at the first non-finite state.
    """

    def __init__(self, cs: CoarseSystem, tau: float, n_steps: int, keep_all: bool = True):
        self.chunks = trajectory_chunks(n_steps, cs.dim)
        self._levels = np.empty((2 + (n_steps if keep_all else self.chunks[0].stop), cs.dim))
        self._levels[:2] = cs.z0
        self._first = 0   # the level in row 1
        self.load, self.scale = cs.load, cs.scale(tau, n_steps)
        self.step_seconds = np.empty(n_steps)

    @property
    def states(self) -> np.ndarray:
        """The levels held by a finished run, z^first .. z^N."""
        return self._levels[1:len(self.step_seconds) - self._first + 2]

    def advance(self, steps: range, step, sink=None) -> None:
        """Set z^{n+1} = step([z^{n-1}; z^n], f^{n+1}) for each n in ``steps``.

        Once a chunk c's levels are all made, ``sink(c, levels)`` reads
        z^{c.start} .. z^{c.stop}.
        """
        levels, load, scale, seconds = self._levels, self.load, self.scale, self.step_seconds
        flat, dim = levels.reshape(-1), levels.shape[1]
        for chunk in self.chunks:
            lo, hi = max(chunk.start, steps.start), min(chunk.stop, steps.stop)
            if lo >= hi:
                continue
            if hi - self._first + 2 > len(levels):
                held = levels[chunk.start - self._first:lo - self._first + 2]
                levels[:len(held)] = held
                self._first = chunk.start
            for n in range(lo, hi):
                f_next = scale[n] * load
                row = n - self._first
                tic = time.perf_counter()
                levels[row + 2] = step(flat[row * dim:(row + 2) * dim], f_next)
                seconds[n] = time.perf_counter() - tic
                if not np.isfinite(levels[row + 2]).all():
                    raise NumericalError(f"non-finite state at step {n + 1}")
            if sink is not None and hi == chunk.stop:
                sink(chunk, levels[chunk.start - self._first + 1:hi - self._first + 2])


def _row_dots(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """x_i . y_i for the rows x_i of ``rows`` and the columns y_i of ``columns``.

    Each dot product runs over two contiguous rows, so its bits do not
    depend on how many rows a chunk holds.
    """
    return (np.ascontiguousarray(rows) * np.ascontiguousarray(columns.T)).sum(axis=1)


def quadratic_forms(mat, rows: np.ndarray) -> np.ndarray:
    """x_i^T A x_i for every row x_i of ``rows``, bit for bit one row at a time."""
    return _row_dots(rows, mat @ rows.T)


def energy_errors(stiff, refs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|r_i - z_i|_B / |r_i|_B (inf if r_i vanishes) for the rows of ``refs``, ``states``.

    A state that has grown past the float range gives inf or NaN, silently.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        num = np.maximum(quadratic_forms(stiff, refs - states), 0.0)
        den = quadratic_forms(stiff, refs)
        return np.where(den > 0.0, np.sqrt(num / den), np.inf)


def _energy_monitor(config: SplitConfig, energy: np.ndarray, potential: np.ndarray,
                    scale: np.ndarray, load_norm_sq: float):
    """Discrete energy and both sides of the a priori bound of a finished run.

    E_n = |z^n - z^{n-1}|^2_D / tau^2 + |(z^n + z^{n-1})/2|^2_B with D the
    damping matrix, and its second term, the ``potential``, for n = 1..N
    are filled a chunk at a time by :func:`march`. With a = (z^{n+1} -
    z^{n-1}) / (2 tau) a split step reads (C + tau*theta_s*B1) a + (D +
    tau^2 B/4)(z^{n+1} - 2 z^n + z^{n-1}) / tau^2 + B z^n = f^{n+1}; its
    product with 2 tau a is E_{n+1} - E_n = -2 tau |a|^2_{C + tau*theta_s*B1}
    + 2 tau (f^{n+1}, a). Young's inequality and D >= 0 then give the bound,
    which compares |(z^{n+1} + z^n)/2|^2_B with E_1 + (tau/2) sum_{k=2}^{n+1}
    |f^k|^2_{C^-1} for n = 1..N-1. The forcing is f^k = a_k g^, so
    |f^k|^2_{C^-1} is a_k^2 ``load_norm_sq``: ``scale`` holds the run's a_1
    .. a_N, and the monitor solves nothing.
    """
    work = 0.5 * config.tau * load_norm_sq * scale[1:] ** 2
    return energy, potential[1:], energy[0] + np.cumsum(work)


def _check_bound(bound_lhs: np.ndarray, bound_rhs: np.ndarray) -> None:
    """Raise when the a priori bound fails beyond round-off at some step.

    Entry i of the two sides bounds the state z^{i+2}, which split step
    i + 2 makes.
    """
    if len(bound_lhs) == 0:
        return
    margins = bound_rhs - bound_lhs
    worst = int(np.argmin(margins))
    scale = max(float(np.abs(bound_rhs).max()), 1.0)
    if margins[worst] < -1e-10 * scale:
        raise NumericalError(
            f"a priori bound fails at step {worst + 2}: margin {margins[worst]:.3e} "
            f"below -1e-10 of the bound scale {scale:.3e}")


def march(cs: CoarseSystem, parts: SplitParts, config: SplitConfig, *,
          reference: Optional[Trajectory] = None,
          certificate: Optional[StabilityCertificate] = None) -> Trajectory:
    """Run the split scheme from t = 0 to t_final.

    The stability certificate is evaluated up front, unless ``certificate``
    gives it for these weights (it does not depend on tau); on failure the run
    proceeds with a warning and without the energy monitor, which otherwise
    takes each chunk of levels as it is made. A certified run whose a
    priori bound then fails by more than round-off, 1e-10 of the bound's
    scale max(|bound_rhs|, 1), raises :class:`NumericalError`. Given the
    :func:`backward_euler` ``reference`` on the same system and time grid,
    z^1 is the reference's (the same step, bit for bit), and the run keeps
    one chunk of levels and the two before it and records its ``history``;
    without one it factors C + tau*B for its first step and keeps every level.
    """
    tau, n_steps = config.tau, config.n_steps
    if reference is not None and (reference.tau != tau
                                  or reference.states.shape != (n_steps + 1, cs.dim)):
        raise ValueError("the reference does not share the time grid and the coarse system")
    cert = certificate or check_stability(parts, config.theta_mass, config.theta_stiff)
    if not cert.passed:
        logger.warning("%s; continuing without energy monitor", cert.describe())
    run = _Run(cs, tau, n_steps, keep_all=reference is None)
    energy, potential, history = np.empty((3, n_steps))
    damping = damping_matrix(parts, config) if cert.passed else None

    def sink(chunk, levels):
        if cert.passed:
            # a state growing past the float range overflows these forms
            # before it overflows itself; the step that makes it inf raises
            now, prev = levels[1:], levels[:-1]
            with np.errstate(over="ignore", invalid="ignore"):
                potential[chunk] = quadratic_forms(parts.stiff, 0.5 * (now + prev))
                energy[chunk] = (quadratic_forms(damping, now - prev) / tau ** 2
                                 + potential[chunk])
        if reference is not None:
            history[chunk] = energy_errors(
                cs.stiff, reference.states[chunk.start + 1:chunk.stop + 1], levels[1:])

    # the first step is a temporary: a factor of C + tau*B is freed before
    # the split step matrix is factored
    run.advance(range(1), _euler_step(cs, tau) if reference is None
                else lambda levels, f_next: reference.states[1], sink)
    run.advance(range(1, n_steps), _StepOperator(parts, config).step, sink)
    bound_lhs = bound_rhs = None
    if cert.passed:
        energy, bound_lhs, bound_rhs = _energy_monitor(
            config, energy, potential, run.scale, cs.load_norm_sq())
        _check_bound(bound_lhs, bound_rhs)
    return Trajectory(states=run.states, tau=tau, n_steps=n_steps, certificate=cert,
                      energy=energy if cert.passed else None, bound_lhs=bound_lhs,
                      bound_rhs=bound_rhs, history=None if reference is None else history,
                      step_seconds=run.step_seconds)


def backward_euler(cs: CoarseSystem, tau: float, t_final: float) -> Trajectory:
    """Unsplit backward Euler reference run on the same coarse system; keeps every level."""
    n_steps = SplitConfig(tau=tau, t_final=t_final).n_steps  # validates the step count
    run = _Run(cs, tau, n_steps)
    run.advance(range(n_steps), _euler_step(cs, tau))
    return Trajectory(states=run.states, tau=tau, n_steps=n_steps,
                      step_seconds=run.step_seconds)
