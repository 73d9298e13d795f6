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
as matrix inequalities (theta_m*C1 - C/2 and theta_s*B1 - B/4 positive
definite, one dense Cholesky factorization each) and, when they hold, a
discrete energy is recorded and must not grow faster than the forcing term,
measured in the C^-1 norm, allows.

C and B are each held once, as sparse CSR matrices whose rows and columns
are grouped into mode blocks. A split adds no matrix: it is the rule above,
applied entry by entry to the stored entries of C and B. No step reads a
dense n x n matrix; only the certificate densifies its condition matrix, for
as long as its factorization lasts.

The forcing f^1 .. f^N is tabulated once per time grid on the coarse system
(:meth:`CoarseSystem.forcing`), so the backward Euler reference and a split
run on the same grid share one evaluation per time level, and the recorded
step times hold the step alone.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linalg import NumericalError, SparseCholesky, cholesky_margin

__all__ = [
    "CoarseSystem",
    "SplitParts",
    "SplitConfig",
    "StabilityCertificate",
    "Trajectory",
    "RecursionReport",
    "make_split",
    "check_stability",
    "split_step",
    "march",
    "backward_euler",
    "error_recursion_diag",
]

logger = logging.getLogger(__name__)


def _block_slices(block_sizes) -> list:
    """Row (or column) ranges of consecutive blocks of the given sizes."""
    return [slice(end - size, end)
            for size, end in zip(block_sizes, accumulate(block_sizes))]


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
    The factors of C and of C + tau*B are made on first use and kept (the
    latter for the last tau only), so every run on the system shares them;
    the operators must not change once the system is built.
    """

    block_sizes: tuple
    mass: sp.csr_matrix
    stiff: sp.csr_matrix
    rhs: Callable[[float], np.ndarray]
    z0: np.ndarray
    _forcing: tuple = field(default=(None, None), init=False, repr=False,
                            compare=False)
    _mass_factor: Optional[SparseCholesky] = field(default=None, init=False,
                                                   repr=False, compare=False)
    _euler_factor: tuple = field(default=(None, None), init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self.mass = _csr(self.mass)
        self.stiff = _csr(self.stiff)

    @property
    def dim(self) -> int:
        return sum(self.block_sizes)

    def slices(self):
        return _block_slices(self.block_sizes)

    def forcing(self, tau: float, n_steps: int) -> np.ndarray:
        """Read-only table of f^1 .. f^N, row n holding rhs((n + 1) * tau).

        Each time level is evaluated once through ``rhs`` and checked finite;
        the table of the last time grid is kept, so every run on that grid
        shares it.
        """
        key, table = self._forcing
        if key != (self.rhs, tau, n_steps):
            table = np.empty((n_steps, self.dim))
            for n in range(n_steps):
                table[n] = self.rhs((n + 1) * tau)
            finite = np.isfinite(table).all(axis=1)
            if not finite.all():
                level = int(np.argmin(finite)) + 1
                raise NumericalError(f"non-finite forcing at time level {level} "
                                     f"(t = {level * tau:g})")
            table.flags.writeable = False
            self._forcing = ((self.rhs, tau, n_steps), table)
        return table

    def mass_factor(self) -> SparseCholesky:
        """Factor of C, made on first use and kept."""
        if self._mass_factor is None:
            self._mass_factor = SparseCholesky(self.mass, context="coarse mass")
        return self._mass_factor

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
    not copied); the implicit parts C1 = blockdiag(C), B1 = blockdiag(B) and
    the rests C2 = C - C1, B2 = B - B1 are formed, as CSR, only when read.
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

    @property
    def mass_rest(self) -> sp.csr_matrix:
        return self.mass - self.mass_main

    @property
    def stiff_rest(self) -> sp.csr_matrix:
        return self.stiff - self.stiff_main


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
        if self.tau <= 0.0 or self.t_final <= 0.0:
            raise ValueError("tau and t_final must be positive")
        if self.theta_mass <= 0.0 or self.theta_stiff <= 0.0:
            raise ValueError("scheme weights must be positive")
        ratio = self.t_final / self.tau
        if abs(ratio - round(ratio)) > 1e-8 * max(ratio, 1.0) or round(ratio) < 1:
            raise ValueError(
                f"time step {self.tau} does not divide the final time {self.t_final}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.tau))


@dataclass
class StabilityCertificate:
    """Outcome of the sufficient stability conditions for a split."""

    mass_ok: bool
    stiff_ok: bool
    mass_margin: float
    stiff_margin: float
    rule_mass_ok: bool   # theta_mass >= n_blocks / 2
    rule_stiff_ok: bool  # theta_stiff >= n_blocks / 4
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


def _condition(parts: SplitParts, mat: sp.csr_matrix, theta: float,
               share: float) -> sp.csr_matrix:
    """The certified matrix theta*M1 - share*M of M = C or B, as CSR.

    M1 = blockdiag(M) is symmetric, so it is its own symmetric part. The
    matrix has the stored entries of M: theta*m - share*m inside a diagonal
    block and -share*m outside it.
    """
    d = mat.data
    data = np.where(_in_blocks(mat, parts.block_sizes), theta * d - share * d,
                    -share * d)
    return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


def check_stability(parts: SplitParts, theta_mass: float,
                    theta_stiff: float) -> StabilityCertificate:
    """Evaluate the sufficient stability conditions of a split.

    Checks positive definiteness of theta_m*C1 - C/2 and theta_s*B1 - B/4
    and reports the smallest Cholesky pivots as margins, together with the
    simple p-block parameter rule.
    """
    p = len(parts.block_sizes)
    mass_ok, mass_margin = cholesky_margin(
        _condition(parts, parts.mass, theta_mass, 0.5))
    stiff_ok, stiff_margin = cholesky_margin(
        _condition(parts, parts.stiff, theta_stiff, 0.25))
    return StabilityCertificate(
        mass_ok=mass_ok,
        stiff_ok=stiff_ok,
        mass_margin=mass_margin,
        stiff_margin=stiff_margin,
        rule_mass_ok=bool(theta_mass >= 0.5 * p - 1e-12),
        rule_stiff_ok=bool(theta_stiff >= 0.25 * p - 1e-12),
        theta_mass=theta_mass,
        theta_stiff=theta_stiff,
        n_blocks=p,
    )


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
        if not np.isfinite(rhs).all():
            raise NumericalError("non-finite right-hand side in a split step; "
                                 "the previous states have overflowed")
        return levels[len(rhs):] + self.factor.solve(rhs)


def split_step(parts: SplitParts, config: SplitConfig, z_now: np.ndarray,
               z_prev: np.ndarray, f_next: np.ndarray) -> np.ndarray:
    """Advance one step of the three-level split scheme."""
    return _StepOperator(parts, config).step(np.concatenate((z_prev, z_now)),
                                             f_next)


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
    """Weight matrix of the difference term in the discrete energy, as CSR."""
    tau = config.tau
    return (tau * _condition(parts, parts.mass, config.theta_mass, 0.5)
            + tau ** 2 * _condition(parts, parts.stiff, config.theta_stiff, 0.25))


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
    scheme: str
    theta_mass: Optional[float] = None
    theta_stiff: Optional[float] = None
    certificate: Optional[StabilityCertificate] = None
    energy: Optional[np.ndarray] = None
    bound_lhs: Optional[np.ndarray] = None
    bound_rhs: Optional[np.ndarray] = None
    step_seconds: Optional[np.ndarray] = None

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)

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


# time levels that trajectory post-processing handles per matrix product:
# large enough for BLAS, small enough that the temporaries stay far below
# the stored trajectory itself
TRAJECTORY_CHUNK = 256


def _energy_monitor(parts: SplitParts, config: SplitConfig, states: np.ndarray,
                    forcing: np.ndarray, mass_factor: SparseCholesky):
    """Discrete energy and both sides of the a priori bound of a finished run.

    E_n = |z^n - z^{n-1}|^2_D / tau^2 + |(z^n + z^{n-1})/2|^2_B with D the
    damping matrix, for n = 1..N. The bound compares |(z^{n+1} + z^n)/2|^2_B
    with E_1 + (tau/2) sum_{k=2}^{n+1} |f^k|^2_{C^-1} for n = 1..N-1, where
    ``forcing`` stacks f^2 .. f^N and ``mass_factor`` factors C.
    """
    tau = config.tau
    damping = damping_matrix(parts, config)
    n_steps = len(states) - 1
    energy = np.empty(n_steps)
    potential = np.empty(n_steps)
    work = np.empty(len(forcing))
    for lo in range(0, n_steps, TRAJECTORY_CHUNK):
        rows = slice(lo, lo + TRAJECTORY_CHUNK)
        now, prev = states[1:][rows], states[:-1][rows]
        diffs = now - prev
        means = 0.5 * (now + prev)
        potential[rows] = np.einsum("ij,ji->i", means, parts.stiff @ means.T)
        energy[rows] = (np.einsum("ij,ji->i", diffs, damping @ diffs.T) / tau ** 2
                        + potential[rows])
        f = forcing[rows]
        work[rows] = 0.5 * tau * np.einsum("ij,ji->i", f, mass_factor.solve(f.T))
    return energy, potential[1:], energy[0] + np.cumsum(work)


def march(cs: CoarseSystem, parts: SplitParts, config: SplitConfig) -> Trajectory:
    """Run the split scheme from t = 0 to t_final.

    The stability certificate is evaluated up front; on failure the run
    proceeds with a warning and without the energy monitor, which otherwise
    is evaluated from the stored states once the march is done.
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
        energy, bound_lhs, bound_rhs = _energy_monitor(
            parts, config, run.states, run.forcing[1:], cs.mass_factor())
    return Trajectory(states=run.states, tau=config.tau, scheme="split",
                      theta_mass=config.theta_mass, theta_stiff=config.theta_stiff,
                      certificate=cert, energy=energy,
                      bound_lhs=bound_lhs, bound_rhs=bound_rhs,
                      step_seconds=run.step_seconds)


def backward_euler(cs: CoarseSystem, tau: float, t_final: float) -> Trajectory:
    """Unsplit backward Euler reference run on the same coarse system."""
    n_steps = SplitConfig(tau=tau, t_final=t_final).n_steps  # validates the step count
    run = _Run(cs, tau, n_steps)
    run.advance(range(n_steps), _euler_step(cs, tau))
    return Trajectory(states=run.states, tau=tau, scheme="backward-euler",
                      step_seconds=run.step_seconds)


@dataclass
class RecursionReport:
    """Residuals of the exact error recursion between split and unsplit runs."""

    residuals: np.ndarray      # one per split step
    coupling_norm: float       # Frobenius norm of C2 + tau * B2
    error_norms: np.ndarray    # Euclidean error per time level

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def error_recursion_diag(parts: SplitParts, reference: Trajectory,
                         split: Trajectory) -> RecursionReport:
    """Verify the error recursion of the fully implicit split scheme.

    For theta_mass = theta_stiff = 1 the deviation e^n between the unsplit
    backward Euler run and the split run satisfies exactly

        (C + tau*B) e^{n+1} = C e^n + C2 (z^n - z^{n-1})
                              - (C2 + tau*B2) (z^{n+1} - z^n).

    Returns the stepwise defect of that identity; other weights are refused.
    """
    if reference.scheme != "backward-euler" or split.scheme != "split":
        raise ValueError("need one backward Euler reference and one split run")
    if split.theta_mass != 1.0 or split.theta_stiff != 1.0:
        raise ValueError("the error recursion holds for the fully implicit "
                         "weights only (theta_mass = theta_stiff = 1)")
    if reference.tau != split.tau or reference.states.shape != split.states.shape:
        raise ValueError("trajectories do not share the time grid")
    tau = split.tau
    cmat, bmat = parts.mass, parts.stiff
    lhs_mat = cmat + tau * bmat
    err = reference.states - split.states
    z = split.states
    n_steps = split.n_steps
    residuals = np.empty(max(n_steps - 1, 0))
    mass_rest = parts.mass_rest
    coupling_mat = mass_rest + tau * parts.stiff_rest
    for n in range(1, n_steps):
        rhs = (cmat @ err[n] + mass_rest @ (z[n] - z[n - 1])
               - coupling_mat @ (z[n + 1] - z[n]))
        residuals[n - 1] = np.abs(lhs_mat @ err[n + 1] - rhs).max()
    coupling = float(spla.norm(coupling_mat, "fro"))
    error_norms = np.linalg.norm(err, axis=1)
    return RecursionReport(residuals=residuals, coupling_norm=coupling,
                           error_norms=error_norms)
