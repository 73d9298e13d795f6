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
With the block-diagonal split the blocks decouple completely; with the
lower-triangular split they are solved in forward order. The first step is
one unsplit backward Euler step, the same step the backward Euler reference
takes. Sufficient stability conditions are checked as matrix inequalities
(theta_m*C1 - C/2 and theta_s*B1 - B/4 positive definite, one Cholesky
factorization each) and, when they hold, a discrete energy is recorded and
must not grow faster than the forcing term, measured in the C^-1 norm,
allows.

C and B are each held once, as dense matrices whose rows and columns are
grouped into mode blocks. A split adds no matrix: it is a rule giving each
block of C and B an implicit share of 1, 1/2 or 0, applied block by block.

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

from .linalg import DenseSpdFactor, NumericalError, cholesky_margin

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

VARIANTS = ("block-diagonal", "lower-triangular")


def _block_slices(block_sizes) -> list:
    """Row (or column) ranges of consecutive blocks of the given sizes."""
    return [slice(end - size, end)
            for size, end in zip(block_sizes, accumulate(block_sizes))]


@dataclass
class CoarseSystem:
    """Coarse mass/stiffness with projected forcing and initial state.

    ``mass`` and ``stiff`` are dense and exactly symmetric; their rows and
    columns are grouped into consecutive mode blocks of ``block_sizes``.
    """

    block_sizes: tuple
    mass: np.ndarray
    stiff: np.ndarray
    rhs: Callable[[float], np.ndarray]
    z0: np.ndarray
    _forcing: tuple = field(default=(None, None), init=False, repr=False,
                            compare=False)

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


def _weight(variant: str, q: int, r: int) -> float:
    """Share of block (q, r) of C and B that the split treats implicitly."""
    if q == r:
        return 1.0 if variant == "block-diagonal" else 0.5
    return 1.0 if variant == "lower-triangular" and q > r else 0.0


@dataclass
class SplitParts:
    """Additive two-part split of the coarse mass and stiffness.

    ``mass``/``stiff`` are the coarse system's own operators (shared, not
    copied) and ``variant`` names their block rule; the implicit parts C1, B1
    and the rests C2 = C - C1, B2 = B - B1 are formed only when read.
    """

    variant: str
    block_sizes: tuple
    mass: np.ndarray
    stiff: np.ndarray

    def slices(self):
        return _block_slices(self.block_sizes)

    def _implicit(self, mat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mat)
        for q, rows in enumerate(self.slices()):
            for r, cols in enumerate(self.slices()):
                out[rows, cols] = _weight(self.variant, q, r) * mat[rows, cols]
        return out

    @property
    def mass_main(self) -> np.ndarray:
        return self._implicit(self.mass)

    @property
    def stiff_main(self) -> np.ndarray:
        return self._implicit(self.stiff)

    @property
    def mass_rest(self) -> np.ndarray:
        return self.mass - self.mass_main

    @property
    def stiff_rest(self) -> np.ndarray:
        return self.stiff - self.stiff_main


def make_split(cs: CoarseSystem, variant: str = "block-diagonal") -> SplitParts:
    """Split the coarse operators into implicit and explicit parts.

    ``block-diagonal`` keeps the diagonal blocks implicit (symmetric parts,
    fully decoupled solves). ``lower-triangular`` keeps the lower block
    triangle with halved diagonal blocks, so the rest is its transpose.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown split variant {variant!r}, expected one of {VARIANTS}")
    return SplitParts(variant, tuple(cs.block_sizes), cs.mass, cs.stiff)


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


def _condition(parts: SplitParts, mat: np.ndarray, theta: float,
               share: float) -> np.ndarray:
    """The certified matrix theta*sym(M1) - share*M of M = C or B.

    M is exactly symmetric, so block (q, r) of sym(M1) is exactly s*M_qr,
    with s the mean of the shares of blocks (q, r) and (r, q).
    """
    out = np.empty(mat.shape)  # C order: products with it round by layout
    for q, rows in enumerate(parts.slices()):
        for r, cols in enumerate(parts.slices()):
            s = 0.5 * (_weight(parts.variant, q, r) + _weight(parts.variant, r, q))
            blk = mat[rows, cols]
            out[rows, cols] = theta * (s * blk) - share * blk
    return out


def check_stability(parts: SplitParts, theta_mass: float,
                    theta_stiff: float) -> StabilityCertificate:
    """Evaluate the sufficient stability conditions of a split.

    Checks positive definiteness of theta_m*C1 - C/2 and theta_s*B1 - B/4
    (symmetric parts) and reports the smallest Cholesky pivots as margins,
    together with the simple p-block parameter rule.
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
    """Block factors and explicit operators of the increment-form split step.

    Besides the factored implicit part theta_m*C1 + tau*theta_s*B1 a step
    reads only the shared stiffness B and lag = C - theta_m*C1.
    """

    def __init__(self, parts: SplitParts, config: SplitConfig):
        tm, ts, tau = config.theta_mass, config.theta_stiff, config.tau
        self.tau = tau
        self.stiff = parts.stiff
        self.slices = parts.slices()
        # C's own memory layout: the matvec with lag rounds differently
        # for a C- and a Fortran-ordered copy
        self.lag = parts.mass.copy(order="K")
        self.diag_factors = []
        self.lower = [[] for _ in self.slices]  # (columns, block) pairs
        for q, rows in enumerate(self.slices):
            for r, cols in enumerate(self.slices):
                w = _weight(parts.variant, q, r)
                if w == 0.0:
                    continue
                mass_blk = w * parts.mass[rows, cols]
                self.lag[rows, cols] -= tm * mass_blk
                implicit = tm * mass_blk + tau * ts * (w * parts.stiff[rows, cols])
                if q == r:
                    self.diag_factors.append(DenseSpdFactor(implicit, f"step block {q}"))
                else:
                    self.lower[q].append((cols, implicit))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        for q, sl in enumerate(self.slices):
            blockrhs = rhs[sl]
            if self.lower[q]:
                blockrhs = blockrhs - sum(blk @ out[cols] for cols, blk in self.lower[q])
            out[sl] = self.diag_factors[q].solve(blockrhs)
        return out

    def step(self, z_now: np.ndarray, z_prev: np.ndarray,
             f_next: np.ndarray) -> np.ndarray:
        rhs = self.tau * (f_next - self.stiff @ z_now) - self.lag @ (z_now - z_prev)
        if not np.isfinite(rhs).all():
            raise NumericalError("non-finite right-hand side in a split step; "
                                 "the previous states have overflowed")
        return z_now + self.solve(rhs)


def split_step(parts: SplitParts, config: SplitConfig, z_now: np.ndarray,
               z_prev: np.ndarray, f_next: np.ndarray) -> np.ndarray:
    """Advance one step of the three-level split scheme."""
    return _StepOperator(parts, config).step(z_now, z_prev, f_next)


def _euler_step(cs: CoarseSystem, tau: float, context: str):
    """Unsplit backward Euler step (C + tau*B) z^{n+1} = tau*f^{n+1} + C z^n.

    Factors C + tau*B once; the returned step ignores z^{n-1}.
    """
    factor = DenseSpdFactor(cs.mass + tau * cs.stiff, context=context)
    mass = cs.mass

    def step(z_now, z_prev, f_next):
        return factor.solve(tau * f_next + mass @ z_now)

    return step


def damping_matrix(parts: SplitParts, config: SplitConfig) -> np.ndarray:
    """Weight matrix of the difference term in the discrete energy."""
    damping = _condition(parts, parts.mass, config.theta_mass, 0.5)
    damping *= config.tau
    stiff_term = _condition(parts, parts.stiff, config.theta_stiff, 0.25)
    stiff_term *= config.tau ** 2
    damping += stiff_term
    return damping


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
    variant: Optional[str] = None
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

    Reads f^{n+1} from ``forcing[n]``, the coarse system's table for this time
    grid, records the wall time of each step (the forcing evaluation is not
    part of it), and stops at the first non-finite state.
    """

    def __init__(self, cs: CoarseSystem, tau: float, n_steps: int):
        self.states = np.empty((n_steps + 1, cs.dim))
        self.states[0] = cs.z0
        self.forcing = cs.forcing(tau, n_steps)
        self.step_seconds = np.empty(n_steps)

    def advance(self, steps: range, step) -> None:
        """Set z^{n+1} = step(z^n, z^{n-1}, f^{n+1}) for each n in ``steps``."""
        states, forcing, seconds = self.states, self.forcing, self.step_seconds
        for n in steps:
            tic = time.perf_counter()
            states[n + 1] = step(states[n], states[n - 1], forcing[n])
            seconds[n] = time.perf_counter() - tic
            if not np.isfinite(states[n + 1]).all():
                raise NumericalError(f"non-finite state at step {n + 1}")


# time levels that trajectory post-processing handles per matrix product:
# large enough for BLAS, small enough that the temporaries stay far below
# the stored trajectory itself
TRAJECTORY_CHUNK = 256


def _energy_monitor(parts: SplitParts, config: SplitConfig, states: np.ndarray,
                    forcing: np.ndarray):
    """Discrete energy and both sides of the a priori bound of a finished run.

    E_n = |z^n - z^{n-1}|^2_D / tau^2 + |(z^n + z^{n-1})/2|^2_B with D the
    damping matrix, for n = 1..N. The bound compares |(z^{n+1} + z^n)/2|^2_B
    with E_1 + (tau/2) sum_{k=2}^{n+1} |f^k|^2_{C^-1} for n = 1..N-1, where
    ``forcing`` stacks f^2 .. f^N.
    """
    tau = config.tau
    damping = damping_matrix(parts, config)
    mass_factor = DenseSpdFactor(parts.mass, context="energy bound")
    n_steps = len(states) - 1
    energy = np.empty(n_steps)
    potential = np.empty(n_steps)
    work = np.empty(len(forcing))
    for lo in range(0, n_steps, TRAJECTORY_CHUNK):
        rows = slice(lo, lo + TRAJECTORY_CHUNK)
        now, prev = states[1:][rows], states[:-1][rows]
        diffs = now - prev
        means = 0.5 * (now + prev)
        potential[rows] = np.einsum("ij,ij->i", means @ parts.stiff, means)
        energy[rows] = (np.einsum("ij,ij->i", diffs @ damping, diffs) / tau ** 2
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
    # the first step's factor of C + tau*B is freed before the split's own
    # factors are built, so the two never coexist
    run.advance(range(1), _euler_step(cs, config.tau, "first step"))
    run.advance(range(1, n_steps), _StepOperator(parts, config).step)
    energy = bound_lhs = bound_rhs = None
    if cert.passed:
        energy, bound_lhs, bound_rhs = _energy_monitor(parts, config, run.states,
                                                       run.forcing[1:])
    return Trajectory(states=run.states, tau=config.tau, scheme="split",
                      theta_mass=config.theta_mass, theta_stiff=config.theta_stiff,
                      variant=parts.variant, certificate=cert, energy=energy,
                      bound_lhs=bound_lhs, bound_rhs=bound_rhs,
                      step_seconds=run.step_seconds)


def backward_euler(cs: CoarseSystem, tau: float, t_final: float) -> Trajectory:
    """Unsplit backward Euler reference run on the same coarse system."""
    n_steps = SplitConfig(tau=tau, t_final=t_final).n_steps  # validates the step count
    run = _Run(cs, tau, n_steps)
    run.advance(range(n_steps), _euler_step(cs, tau, "backward Euler"))
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
    coupling = float(np.linalg.norm(coupling_mat, "fro"))
    error_norms = np.linalg.norm(err, axis=1)
    return RecursionReport(residuals=residuals, coupling_norm=coupling,
                           error_norms=error_norms)
