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
of a solve decouple completely: one sparse factor of the whole
block-diagonal matrix serves them all. The first step is one unsplit
backward Euler step, the same step the backward Euler reference takes, with
the same factor of C + tau*B. Sufficient stability conditions are checked
as matrix inequalities (theta_m*C1 - C/2 and theta_s*B1 - B/2 positive
definite, one sparse factorization each) and, when they hold, a discrete
energy is recorded and must not grow faster than the forcing term,
measured in the C^-1 norm, allows.

C and B are each held once, as sparse CSR matrices whose rows and columns
are grouped into mode blocks. A split adds no matrix: it is the rule above,
applied entry by entry to the stored entries of C and B. Neither a step nor
the certificate reads a dense n x n matrix.

The forcing f^1 .. f^N is tabulated once per time grid on the coarse system
(:meth:`CoarseSystem.forcing`), by one call of ``rhs`` with every time
level, so the backward Euler reference and a split run on the same grid
share one evaluation per time level, and the recorded step times hold the
step alone. The forcing is a profile times one row, f^k = a_k g^, so the
monitor's |f^k|^2_{C^-1} = a_k^2 |g^|^2_{C^-1} takes one solve with C.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import NumericalError, SparseCholesky

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
]

logger = logging.getLogger(__name__)


def _csr(mat) -> sp.csr_matrix:
    """``mat`` as CSR with sorted indices; a dense array is converted."""
    out = mat.tocsr() if sp.issparse(mat) else sp.csr_matrix(np.asarray(mat, dtype=float))
    out.sort_indices()
    return out


def _in_blocks(mat: sp.csr_matrix, block_sizes) -> np.ndarray:
    """Mask of the stored entries of CSR ``mat`` inside a diagonal block."""
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    return np.repeat(block, np.diff(mat.indptr)) == block[mat.indices]


def _blockdiag(mat: sp.csr_matrix, block_sizes) -> sp.csr_matrix:
    """blockdiag(mat): the stored entries of CSR ``mat`` inside a diagonal block."""
    out = mat.copy()
    out.data[~_in_blocks(mat, block_sizes)] = 0.0
    out.eliminate_zeros()
    return out


@dataclass
class CoarseSystem:
    """Coarse mass/stiffness with projected forcing and initial state.

    ``mass`` and ``stiff`` are CSR with sorted indices and exactly
    symmetric; dense arrays given here are converted once. Their rows and
    columns are grouped into consecutive mode blocks of ``block_sizes``.
    The forcing is a(t) g^: the read-only row ``load`` g^ times the
    vectorized time ``profile`` a, or g^ alone when ``profile`` is None.
    The factor of C + tau*B is made on first use and kept for the last tau,
    so every run on the system shares it; C is factored once, for
    |g^|^2_{C^-1}, and only that number is kept. The operators must not
    change once the system is built.
    """

    block_sizes: tuple
    mass: sp.csr_matrix
    stiff: sp.csr_matrix
    load: np.ndarray
    z0: np.ndarray
    profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _forcing: tuple = field(default=(None, None), init=False, repr=False,
                            compare=False)
    _load_norm_sq: Optional[float] = field(default=None, init=False, repr=False,
                                           compare=False)
    _euler_factor: tuple = field(default=(None, None), init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self.mass = _csr(self.mass)
        self.stiff = _csr(self.stiff)
        self.load = np.array(self.load, dtype=float)
        self.load.flags.writeable = False

    @property
    def dim(self) -> int:
        return sum(self.block_sizes)

    def rhs(self, times: np.ndarray) -> np.ndarray:
        """Forcing table, row k the forcing a(times[k]) g^ at ``times[k]``.

        A static forcing is g^ broadcast to every level, a read-only view.
        """
        if self.profile is None:
            return np.broadcast_to(self.load, (len(times), len(self.load)))
        return self.profile(times)[:, None] * self.load

    def forcing(self, tau: float, n_steps: int) -> np.ndarray:
        """Read-only table of f^1 .. f^N, row n holding the forcing at (n + 1) * tau.

        One ``rhs`` call evaluates every time level, and the table is checked
        finite; the table of the last time grid is kept, so every run on that
        grid shares it.
        """
        key, table = self._forcing
        if key != (tau, n_steps):
            table = self.rhs(tau * np.arange(1, n_steps + 1))
            if table.shape != (n_steps, self.dim):
                raise ValueError(f"rhs returned a {table.shape} table for "
                                 f"{n_steps} time levels of {self.dim} dofs")
            finite = np.isfinite(table).all(axis=1)
            if not finite.all():
                level = int(np.argmin(finite)) + 1
                raise NumericalError(f"non-finite forcing at time level {level} "
                                     f"(t = {level * tau:g})")
            table.flags.writeable = False
            self._forcing = ((tau, n_steps), table)
        return table

    def load_norm_sq(self) -> float:
        """|g^|^2_{C^-1} = g^ . C^-1 g^, from one factor of C that is not kept.

        The factorization is also the check that C is positive definite.
        """
        if self._load_norm_sq is None:
            factor = SparseCholesky(self.mass, context="coarse mass")
            row = self.load[None, :]
            self._load_norm_sq = float(
                _row_dots(row, factor.solve(np.ascontiguousarray(row.T)))[0])
        return self._load_norm_sq

    def euler_factor(self, tau: float) -> SparseCholesky:
        """Factor of the backward Euler matrix C + tau*B; the last tau's is kept."""
        key, factor = self._euler_factor
        if key != tau:
            factor = SparseCholesky(self.mass + tau * self.stiff,
                                    context=f"C + tau*B (tau = {tau:g})")
            self._euler_factor = (tau, factor)
        return factor


@dataclass
class SplitParts:
    """Additive two-part split of the coarse mass and stiffness.

    ``mass``/``stiff`` are the coarse system's own CSR operators (shared,
    not copied); the implicit parts C1 = blockdiag(C), B1 = blockdiag(B) are
    formed, as CSR, only when read. The explicit rests are C - C1 and B - B1.
    """

    # the only split rule; a class constant, not a field, kept because the
    # traced benchmark's step_bytes reads it
    variant = "block-diagonal"

    block_sizes: tuple
    mass: sp.csr_matrix
    stiff: sp.csr_matrix

    @property
    def mass_main(self) -> sp.csr_matrix:
        return _blockdiag(self.mass, self.block_sizes)

    @property
    def stiff_main(self) -> sp.csr_matrix:
        return _blockdiag(self.stiff, self.block_sizes)


def make_split(cs: CoarseSystem) -> SplitParts:
    """Split the coarse operators into implicit and explicit parts.

    The diagonal mode blocks are implicit (symmetric parts, fully decoupled
    solves) and the coupling blocks explicit.
    """
    return SplitParts(tuple(cs.block_sizes), cs.mass, cs.stiff)


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
    matrix has the stored entries of M: theta*m - m/2 inside a diagonal
    block and -m/2 outside it.
    """
    d = mat.data
    data = np.where(_in_blocks(mat, parts.block_sizes), theta * d - 0.5 * d, -0.5 * d)
    return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def _certify(parts: SplitParts, mat: sp.csr_matrix, theta: float, name: str) -> tuple:
    """(ok, theta - theta*) of the condition theta*M1 - M/2 > 0 of M = C or B.

    ``ok`` is an exact inertia test: the sparse factorization of the
    condition matrix completes. theta* = lambda_max(M1^-1 M) / 2 is 1/2 when
    M has no stored coupling entry (M1 = M). Otherwise K = (p/2)*M1 - M/2 is
    SPD, as lambda_max(M1^-1 M) < p for SPD M on p blocks, and the largest
    eigenvalue nu of M1 v = nu K v is 2 / (p - lambda_max(M1^-1 M)), so
    theta* = p/2 - 1/nu: one Lanczos run through a sparse factor of K. At
    theta = p/2 the condition matrix is K itself, and its factor serves.
    """
    condition = _condition(parts, mat, theta)
    try:
        factor = SparseCholesky(condition, context=f"{name} condition")
    except NumericalError:
        factor = None
    ok = factor is not None
    if not mat.data[~_in_blocks(mat, parts.block_sizes)].any():
        return ok, theta - 0.5
    p, n = len(parts.block_sizes), mat.shape[0]
    ceiling = condition
    if theta != 0.5 * p or factor is None:
        ceiling = _condition(parts, mat, 0.5 * p)
        factor = SparseCholesky(ceiling, context=f"{name} condition at theta = p/2")
    try:
        nu = spla.eigsh(_blockdiag(mat, parts.block_sizes), k=1, M=ceiling,
                        Minv=spla.LinearOperator((n, n), matvec=factor.solve),
                        which="LA", v0=np.random.default_rng(0).standard_normal(n),
                        return_eigenvectors=False)[0]
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
    one solve with the sparse factor of the block-diagonal matrix
    theta_m*C1 + tau*theta_s*B1, whose blocks stay decoupled.
    """

    def __init__(self, parts: SplitParts, config: SplitConfig):
        tm, ts, tau = config.theta_mass, config.theta_stiff, config.tau
        self.tau = tau
        mass_main = parts.mass_main
        lag = parts.mass - tm * mass_main
        self.explicit = sp.hstack([-lag, tau * parts.stiff + lag], format="csr")
        self.factor = SparseCholesky(tm * mass_main + tau * ts * parts.stiff_main,
                                     context="split step matrix")

    def step(self, levels: np.ndarray, f_next: np.ndarray) -> np.ndarray:
        """z^{n+1} from levels = [z^{n-1}; z^n] and f^{n+1}."""
        rhs = self.tau * f_next - self.explicit @ levels
        return levels[len(rhs):] + self.factor.solve(rhs)


def _euler_step(cs: CoarseSystem, tau: float):
    """Unsplit backward Euler step (C + tau*B) z^{n+1} = tau*f^{n+1} + C z^n.

    Solves with the coarse system's factor of C + tau*B; the returned step
    reads z^n, the second half of the levels [z^{n-1}; z^n].
    """
    factor = cs.euler_factor(tau)
    mass, dim = cs.mass, cs.dim

    def step(levels, f_next):
        return factor.solve(tau * f_next + mass @ levels[dim:])

    return step


def damping_matrix(parts: SplitParts, config: SplitConfig) -> sp.csr_matrix:
    """Energy weight D = tau*(theta_m*C1 - C/2) + (tau^2/2)*(theta_s*B1 - B/2), as CSR."""
    tau = config.tau
    return (tau * _condition(parts, parts.mass, config.theta_mass)
            + tau ** 2 / 2 * _condition(parts, parts.stiff, config.theta_stiff))


@dataclass
class Trajectory:
    """Time-stepping history with optional energy monitoring.

    ``states`` holds z^0 .. z^N. When the stability certificate passes,
    ``energy`` records the discrete energy for n = 1..N and ``bound_lhs`` /
    ``bound_rhs`` the two sides of the a priori estimate for each split step
    (the margin stays non-negative exactly when the estimate holds).
    """

    states: np.ndarray
    tau: float
    certificate: Optional[StabilityCertificate] = None
    energy: Optional[np.ndarray] = None
    bound_lhs: Optional[np.ndarray] = None
    bound_rhs: Optional[np.ndarray] = None
    step_seconds: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def bound_margin(self) -> Optional[float]:
        if self.bound_lhs is None or len(self.bound_lhs) == 0:
            return None
        return float(np.min(self.bound_rhs - self.bound_lhs))


class _Run:
    """States z^0 .. z^N of one time integration, filled step by step.

    The states follow one leading copy of z^0 that stands in for z^{-1}, so
    the levels [z^{n-1}; z^n] a step reads are one contiguous vector. Reads
    f^{n+1} from ``forcing[n]``, the coarse system's table for this time
    grid, records the wall time of each step (the forcing evaluation is not
    part of it), and stops at the first non-finite state.
    """

    def __init__(self, cs: CoarseSystem, tau: float, n_steps: int):
        self._levels = np.empty((n_steps + 2, cs.dim))
        self._levels[:2] = cs.z0
        self.states = self._levels[1:]
        self.forcing = cs.forcing(tau, n_steps)
        self.step_seconds = np.empty(n_steps)

    def advance(self, steps: range, step) -> None:
        """Set z^{n+1} = step([z^{n-1}; z^n], f^{n+1}) for each n in ``steps``."""
        states, forcing, seconds = self.states, self.forcing, self.step_seconds
        flat, dim = self._levels.reshape(-1), states.shape[1]
        for n in steps:
            tic = time.perf_counter()
            states[n + 1] = step(flat[n * dim:(n + 2) * dim], forcing[n])
            seconds[n] = time.perf_counter() - tic
            if not np.isfinite(states[n + 1]).all():
                raise NumericalError(f"non-finite state at step {n + 1}")


# Trajectory post-processing takes a chunk of time levels per matrix product:
# a sixteenth of the levels, so that each temporary of a chunk stays far
# below the stored trajectory, and at most this many bytes of them. At 2250
# coarse dofs and 300 levels that is 18 levels per product.
TRAJECTORY_CHUNK_BYTES = 1 << 20


def trajectory_chunks(n_levels: int, dim: int) -> list:
    """Slices that cut ``n_levels`` rows of ``dim`` values into chunks (see above)."""
    rows = max(1, min(TRAJECTORY_CHUNK_BYTES // (8 * max(dim, 1)), n_levels // 16))
    return [slice(lo, lo + rows) for lo in range(0, n_levels, rows)]


def _row_dots(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """x_i . y_i for the rows x_i of ``rows`` and the columns y_i of ``columns``.

    Each dot product runs over two contiguous rows, so its bits do not
    depend on how many rows a chunk holds.
    """
    return (np.ascontiguousarray(rows) * np.ascontiguousarray(columns.T)).sum(axis=1)


def quadratic_forms(mat, rows: np.ndarray) -> np.ndarray:
    """x_i^T A x_i for every row x_i of ``rows``, bit for bit one row at a time."""
    return _row_dots(rows, mat @ rows.T)


def _energy_monitor(parts: SplitParts, config: SplitConfig, states: np.ndarray,
                    scale: Optional[np.ndarray], load_norm_sq: float):
    """Discrete energy and both sides of the a priori bound of a finished run.

    E_n = |z^n - z^{n-1}|^2_D / tau^2 + |(z^n + z^{n-1})/2|^2_B with D the
    damping matrix, for n = 1..N. With a = (z^{n+1} - z^{n-1}) / (2 tau) a
    split step reads (C + tau*theta_s*B1) a + (D + tau^2 B/4)(z^{n+1} - 2 z^n
    + z^{n-1}) / tau^2 + B z^n = f^{n+1}; its product with 2 tau a is
    E_{n+1} - E_n = -2 tau |a|^2_{C + tau*theta_s*B1} + 2 tau (f^{n+1}, a).
    Young's inequality and D >= 0 then give the bound, which compares
    |(z^{n+1} + z^n)/2|^2_B with E_1 + (tau/2) sum_{k=2}^{n+1} |f^k|^2_{C^-1}
    for n = 1..N-1. The forcing is f^k = a_k g^, so |f^k|^2_{C^-1} is
    a_k^2 ``load_norm_sq``: ``scale`` holds a_2 .. a_N, or is None for a
    static forcing (a_k = 1), and the monitor solves nothing.
    """
    tau = config.tau
    damping = damping_matrix(parts, config)
    n_steps = len(states) - 1
    energy = np.empty(n_steps)
    potential = np.empty(n_steps)
    for rows in trajectory_chunks(n_steps, states.shape[1]):
        now, prev = states[1:][rows], states[:-1][rows]
        diffs = now - prev
        means = 0.5 * (now + prev)
        potential[rows] = quadratic_forms(parts.stiff, means)
        energy[rows] = quadratic_forms(damping, diffs) / tau ** 2 + potential[rows]
    work = 0.5 * tau * load_norm_sq * (1.0 if scale is None else scale ** 2)
    return energy, potential[1:], energy[0] + np.cumsum(np.broadcast_to(work, n_steps - 1))


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


def march(cs: CoarseSystem, parts: SplitParts, config: SplitConfig) -> Trajectory:
    """Run the split scheme from t = 0 to t_final.

    The stability certificate is evaluated up front; on failure the run
    proceeds with a warning and without the energy monitor, which otherwise
    is evaluated from the stored states once the march is done. A certified
    run whose a priori bound then fails by more than round-off, 1e-10 of
    the bound's scale max(|bound_rhs|, 1), raises :class:`NumericalError`.
    """
    cert = check_stability(parts, config.theta_mass, config.theta_stiff)
    if not cert.passed:
        logger.warning("%s; continuing without energy monitor", cert.describe())
    n_steps = config.n_steps
    run = _Run(cs, config.tau, n_steps)
    run.advance(range(1), _euler_step(cs, config.tau))
    run.advance(range(1, n_steps), _StepOperator(parts, config).step)
    energy = bound_lhs = bound_rhs = None
    if cert.passed:
        levels = config.tau * np.arange(2, n_steps + 1)
        scale = None if cs.profile is None else cs.profile(levels)
        energy, bound_lhs, bound_rhs = _energy_monitor(
            parts, config, run.states, scale, cs.load_norm_sq())
        _check_bound(bound_lhs, bound_rhs)
    return Trajectory(states=run.states, tau=config.tau, certificate=cert, energy=energy,
                      bound_lhs=bound_lhs, bound_rhs=bound_rhs,
                      step_seconds=run.step_seconds)


def backward_euler(cs: CoarseSystem, tau: float, t_final: float) -> Trajectory:
    """Unsplit backward Euler reference run on the same coarse system."""
    n_steps = SplitConfig(tau=tau, t_final=t_final).n_steps  # validates the step count
    run = _Run(cs, tau, n_steps)
    run.advance(range(n_steps), _euler_step(cs, tau))
    return Trajectory(states=run.states, tau=tau, step_seconds=run.step_seconds)
