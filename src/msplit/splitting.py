"""Three-level block-split time stepping for the coarse parabolic system.

The coarse system C dz/dt + B z = f is advanced by a scheme that treats only
one additive part of each operator implicitly:

    C1 (theta_m * (z^{n+1} - z^n)/tau + (1 - theta_m) * (z^n - z^{n-1})/tau)
      + C2 (z^n - z^{n-1})/tau
      + B1 (theta_s * z^{n+1} + (1 - theta_s) * z^n) + B2 z^n = f^{n+1},

which reduces to one solve with theta_m*C1 + tau*theta_s*B1 per step. With the
block-diagonal split the blocks decouple completely; with the lower-triangular
split they are solved in forward order. The first step is one unsplit backward
Euler step. Sufficient stability conditions are checked as matrix inequalities
(theta_m*C1 - C/2 and theta_s*B1 - B/4 positive definite) and, when they hold,
a discrete energy is recorded and must not grow faster than the forcing term,
measured in the C^-1 norm, allows.

C and B are each held once, as dense matrices whose rows and columns are
grouped into mode blocks; a split shares them and adds only C1 and B1.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .linalg import DenseSpdFactor, NumericalError, cholesky_check, smallest_pivot

__all__ = [
    "CoarseSystem",
    "SplitParts",
    "SplitConfig",
    "StabilityCertificate",
    "Trajectory",
    "RecursionReport",
    "make_split",
    "check_stability",
    "init_first_step",
    "split_step",
    "march",
    "backward_euler",
    "error_recursion_diag",
]

logger = logging.getLogger(__name__)

VARIANTS = ("block-diagonal", "lower-triangular")


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

    @property
    def dim(self) -> int:
        return sum(self.block_sizes)

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.block_sizes)])

    def slices(self):
        off = self.offsets
        return [slice(off[q], off[q + 1]) for q in range(self.n_blocks)]


@dataclass
class SplitParts:
    """Additive two-part splits of the coarse mass and stiffness.

    ``mass``/``stiff`` are the coarse system's own operators (shared, not
    copied); ``mass_main``/``stiff_main`` are the implicitly treated parts
    (C1, B1), and the rests C2 = C - C1, B2 = B - B1 are formed on access.
    """

    variant: str
    block_sizes: tuple
    mass: np.ndarray
    stiff: np.ndarray
    mass_main: np.ndarray
    stiff_main: np.ndarray

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def mass_rest(self) -> np.ndarray:
        return self.mass - self.mass_main

    @property
    def stiff_rest(self) -> np.ndarray:
        return self.stiff - self.stiff_main

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.block_sizes)])

    def slices(self):
        off = self.offsets
        return [slice(off[q], off[q + 1]) for q in range(self.n_blocks)]


def make_split(cs: CoarseSystem, variant: str = "block-diagonal") -> SplitParts:
    """Split the coarse operators into implicit and explicit parts.

    ``block-diagonal`` keeps the diagonal blocks implicit (symmetric parts,
    fully decoupled solves). ``lower-triangular`` keeps the lower block
    triangle with halved diagonal blocks, so the rest is its transpose.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown split variant {variant!r}, expected one of {VARIANTS}")
    mass, stiff = cs.mass, cs.stiff
    slices = cs.slices()
    mass_main = np.zeros_like(mass)
    stiff_main = np.zeros_like(stiff)
    if variant == "block-diagonal":
        for sl in slices:
            mass_main[sl, sl] = mass[sl, sl]
            stiff_main[sl, sl] = stiff[sl, sl]
    else:
        for q, slq in enumerate(slices):
            for r, slr in enumerate(slices):
                if q > r:
                    mass_main[slq, slr] = mass[slq, slr]
                    stiff_main[slq, slr] = stiff[slq, slr]
                elif q == r:
                    mass_main[slq, slr] = 0.5 * mass[slq, slr]
                    stiff_main[slq, slr] = 0.5 * stiff[slq, slr]
    return SplitParts(variant=variant, block_sizes=tuple(cs.block_sizes),
                      mass=mass, stiff=stiff,
                      mass_main=mass_main, stiff_main=stiff_main)


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


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def check_stability(parts: SplitParts, theta_mass: float,
                    theta_stiff: float) -> StabilityCertificate:
    """Evaluate the sufficient stability conditions of a split.

    Checks positive definiteness of theta_m*C1 - C/2 and theta_s*B1 - B/4
    (symmetric parts) and reports the smallest Cholesky pivots as margins,
    together with the simple p-block parameter rule.
    """
    p = parts.n_blocks
    mass_test = theta_mass * _sym(parts.mass_main) - 0.5 * parts.mass
    stiff_test = theta_stiff * _sym(parts.stiff_main) - 0.25 * parts.stiff
    return StabilityCertificate(
        mass_ok=cholesky_check(mass_test),
        stiff_ok=cholesky_check(stiff_test),
        mass_margin=smallest_pivot(_sym(mass_test)),
        stiff_margin=smallest_pivot(_sym(stiff_test)),
        rule_mass_ok=bool(theta_mass >= 0.5 * p - 1e-12),
        rule_stiff_ok=bool(theta_stiff >= 0.25 * p - 1e-12),
        theta_mass=theta_mass,
        theta_stiff=theta_stiff,
        n_blocks=p,
    )


class _StepOperator:
    """Precomputed matrices and factorizations for repeated split steps."""

    def __init__(self, parts: SplitParts, config: SplitConfig):
        tm, ts, tau = config.theta_mass, config.theta_stiff, config.tau
        self.tau = tau
        mass_rest = parts.mass_rest
        self.go_now = (tau * (1.0 - ts) * parts.stiff_main + tau * parts.stiff_rest
                       + (1.0 - 2.0 * tm) * parts.mass_main + mass_rest)
        self.go_prev = (1.0 - tm) * parts.mass_main + mass_rest
        lhs = tm * parts.mass_main + tau * ts * parts.stiff_main
        self.slices = parts.slices()
        self.diag_factors = [
            DenseSpdFactor(lhs[sl, sl], context=f"step block {q}")
            for q, sl in enumerate(self.slices)]
        if parts.variant == "lower-triangular":
            self.lower = [[lhs[slq, slr] for slr in self.slices[:q]]
                          for q, slq in enumerate(self.slices)]
        else:
            self.lower = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        for q, sl in enumerate(self.slices):
            blockrhs = rhs[sl]
            if self.lower is not None and q > 0:
                blockrhs = blockrhs - sum(
                    self.lower[q][r] @ out[self.slices[r]] for r in range(q))
            out[sl] = self.diag_factors[q].solve(blockrhs)
        return out

    def step(self, z_now: np.ndarray, z_prev: np.ndarray,
             f_next: np.ndarray) -> np.ndarray:
        rhs = self.tau * f_next - self.go_now @ z_now + self.go_prev @ z_prev
        if not np.isfinite(rhs).all():
            raise NumericalError("non-finite right-hand side in a split step; "
                                 "the previous states have overflowed")
        return self.solve(rhs)


def split_step(parts: SplitParts, config: SplitConfig, z_now: np.ndarray,
               z_prev: np.ndarray, f_next: np.ndarray) -> np.ndarray:
    """Advance one step of the three-level split scheme."""
    return _StepOperator(parts, config).step(z_now, z_prev, f_next)


def init_first_step(cs: CoarseSystem, tau: float) -> np.ndarray:
    """First state from one unsplit backward Euler step."""
    lhs = DenseSpdFactor(cs.mass + tau * cs.stiff, context="first step")
    return lhs.solve(tau * cs.rhs(tau) + cs.mass @ cs.z0)


def damping_matrix(parts: SplitParts, config: SplitConfig) -> np.ndarray:
    """Weight matrix of the difference term in the discrete energy."""
    tau = config.tau
    return (tau * (config.theta_mass * _sym(parts.mass_main) - 0.5 * parts.mass)
            + tau ** 2 * (config.theta_stiff * _sym(parts.stiff_main)
                          - 0.25 * parts.stiff))


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


def _check_finite(z: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(z)):
        raise NumericalError(f"non-finite state at step {step}")


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


def march(cs: CoarseSystem, parts: SplitParts, config: SplitConfig,
          record_energy: bool = True) -> Trajectory:
    """Run the split scheme from t = 0 to t_final.

    The stability certificate is evaluated up front; on failure the run
    proceeds with a warning and without the energy monitor, which otherwise
    is evaluated from the stored states once the march is done.
    """
    cert = check_stability(parts, config.theta_mass, config.theta_stiff)
    if not cert.passed:
        logger.warning("%s; continuing without energy monitor", cert.describe())
    n_steps = config.n_steps
    tau = config.tau
    states = np.empty((n_steps + 1, cs.dim))
    states[0] = cs.z0
    forcing = np.empty((max(n_steps - 1, 0), cs.dim))
    step_seconds = np.empty(n_steps)

    tic = time.perf_counter()
    states[1] = init_first_step(cs, tau)
    step_seconds[0] = time.perf_counter() - tic
    _check_finite(states[1], 1)

    op = _StepOperator(parts, config)
    for n in range(1, n_steps):
        tic = time.perf_counter()
        forcing[n - 1] = cs.rhs((n + 1) * tau)
        states[n + 1] = op.step(states[n], states[n - 1], forcing[n - 1])
        step_seconds[n] = time.perf_counter() - tic
        _check_finite(states[n + 1], n + 1)
    energy = bound_lhs = bound_rhs = None
    if record_energy and cert.passed:
        energy, bound_lhs, bound_rhs = _energy_monitor(parts, config, states, forcing)
    return Trajectory(states=states, tau=tau, scheme="split",
                      theta_mass=config.theta_mass, theta_stiff=config.theta_stiff,
                      variant=parts.variant, certificate=cert, energy=energy,
                      bound_lhs=bound_lhs, bound_rhs=bound_rhs,
                      step_seconds=step_seconds)


def backward_euler(cs: CoarseSystem, tau: float, t_final: float) -> Trajectory:
    """Unsplit backward Euler reference run on the same coarse system."""
    config = SplitConfig(tau=tau, t_final=t_final)  # validates the step count
    n_steps = config.n_steps
    states = np.empty((n_steps + 1, cs.dim))
    states[0] = cs.z0
    step_seconds = np.empty(n_steps)
    lhs = DenseSpdFactor(cs.mass + tau * cs.stiff, context="backward Euler")
    for n in range(n_steps):
        tic = time.perf_counter()
        states[n + 1] = lhs.solve(tau * cs.rhs((n + 1) * tau) + cs.mass @ states[n])
        step_seconds[n] = time.perf_counter() - tic
        _check_finite(states[n + 1], n + 1)
    return Trajectory(states=states, tau=tau, scheme="backward-euler",
                      step_seconds=step_seconds)


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
