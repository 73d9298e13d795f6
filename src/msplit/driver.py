"""End-to-end experiment driver.

Reads flat key = value config files (or builtin named configs), assembles the
fine problem, builds the multiscale basis, projects, runs the unsplit
backward-Euler reference and the split scheme, and reports relative L2 and
energy errors of the reconstructed fine fields. Sweeps vary the time step,
the scheme weights, or the mode-block partition while reusing the offline
stage. All CSV output is deterministic for a given config.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fineassembly, gmsfem, splitting
from .fineassembly import Permeability, Source, assemble, write_field
from .grid import GridPair
from .linalg import NumericalError, SparseCholesky
from .splitting import SplitConfig, Trajectory

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ErrorReport",
    "parse_config",
    "read_config",
    "builtin_config",
    "resolve_config",
    "builtin_names",
    "synthetic_channels",
    "build_problem",
    "build_pipeline",
    "report_offline",
    "compare",
    "run_example",
    "sweep",
]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """A config file or config value is unusable."""


def _kappa_periodic(x, y):
    return ((2.0 + np.sin(11 * np.pi * x) * np.sin(13 * np.pi * y))
            / (1.4 + np.cos(12 * np.pi * x) * np.cos(7 * np.pi * y)))


def _source_exp_radial(x, y):
    return np.exp((x - 0.5) ** 2 + (y - 0.5) ** 2)


def _pulse(t):
    return np.sin(np.pi * t) + 1.0


def _sine(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def synthetic_channels(g: GridPair, contrast: float = 1e3, seed: int = 7,
                       n_channels: int = 8) -> Permeability:
    """Seeded channelized permeability: unit background, long thin streaks.

    Channels alternate between horizontal and vertical, are one or two fine
    cells thick, span at least half the domain, and carry the contrast value.
    """
    if contrast <= 0.0:
        raise ValueError("contrast must be positive")
    rng = np.random.default_rng(seed)
    cells = np.ones((g.ny_fine, g.nx_fine))
    for k in range(n_channels):
        thick = int(rng.integers(1, 3))
        if k % 2 == 0:
            row = int(rng.integers(0, max(g.ny_fine - thick, 0) + 1))
            length = int(rng.integers((g.nx_fine + 1) // 2, g.nx_fine + 1))
            start = int(rng.integers(0, g.nx_fine - length + 1))
            cells[row:row + thick, start:start + length] = contrast
        else:
            col = int(rng.integers(0, max(g.nx_fine - thick, 0) + 1))
            length = int(rng.integers((g.ny_fine + 1) // 2, g.ny_fine + 1))
            start = int(rng.integers(0, g.ny_fine - length + 1))
            cells[start:start + length, col:col + thick] = contrast

    def sample(x, y):
        ix = np.clip((np.asarray(x) * g.nx_fine).astype(int), 0, g.nx_fine - 1)
        iy = np.clip((np.asarray(y) * g.ny_fine).astype(int), 0, g.ny_fine - 1)
        return cells[iy, ix]

    return Permeability(evaluate=sample)


@dataclass
class ExperimentConfig:
    """Full experiment recipe; field names double as config file keys."""

    nx_coarse: int = 16
    ny_coarse: int = 16
    refine: int = 16
    kappa: str = "periodic"
    kappa_value: float = 1.0
    kappa_path: Optional[str] = None
    kappa_contrast: float = 1e3
    kappa_seed: int = 7
    kappa_channels: int = 8
    source: str = "exp-radial"
    source_value: float = 1.0
    initial: str = "sine"
    modes: int = 6
    blocks: tuple = (1, 5)
    theta_mass: float = 1.0
    theta_stiff: float = 1.0
    tau: float = 1e-3
    t_final: float = 0.25
    output_dir: str = "."
    dump_fields: bool = False
    fine_reference: bool = False
    tau_sweep: tuple = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)
    params_sweep: tuple = ((1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5))
    blocks_sweep: tuple = ()

    def validate(self) -> "ExperimentConfig":
        if self.nx_coarse < 2 or self.ny_coarse < 2:
            raise ConfigError("need at least 2 coarse cells per direction "
                              "for interior coarse nodes")
        if self.refine < 2:
            raise ConfigError("refinement factor must be at least 2")
        if self.modes < 1:
            raise ConfigError("modes must be at least 1")
        if self.modes > 8 * (self.refine - 1):
            raise ConfigError(f"modes = {self.modes} exceeds the snapshot count that survives "
                              f"localization, 8 (refine - 1) = {8 * (self.refine - 1)}")
        coarse = (self.nx_coarse - 1) * (self.ny_coarse - 1) * self.modes
        fine = (self.nx_coarse * self.refine - 1) * (self.ny_coarse * self.refine - 1)
        if coarse > fine:
            raise ConfigError(f"{coarse} coarse dofs (interior coarse nodes times modes) "
                              f"exceed the {fine} fine dofs, so the coarse mass is singular")
        if len(self.blocks) < 1 or any(b < 1 for b in self.blocks):
            raise ConfigError(f"block sizes must be positive, got {self.blocks}")
        if sum(self.blocks) != self.modes:
            raise ConfigError(f"block sizes {self.blocks} do not sum to "
                              f"modes = {self.modes}")
        if self.kappa not in ("periodic", "constant", "raster", "channels"):
            raise ConfigError(f"unknown kappa field {self.kappa!r}")
        # NaN fails both comparisons
        if self.kappa == "constant" and not 0.0 < self.kappa_value < np.inf:
            raise ConfigError(f"kappa_value must be positive, got {self.kappa_value}")
        if self.kappa == "channels" and not 0.0 < self.kappa_contrast < np.inf:
            raise ConfigError(f"kappa_contrast must be positive, "
                              f"got {self.kappa_contrast}")
        if self.kappa == "channels" and self.kappa_channels < 0:
            raise ConfigError(f"kappa_channels must be non-negative, "
                              f"got {self.kappa_channels}")
        if self.kappa_seed < 0:
            raise ConfigError(f"kappa_seed must be non-negative, got {self.kappa_seed}")
        if self.kappa == "raster":
            if not self.kappa_path:
                raise ConfigError("kappa = raster requires kappa_path")
            if not os.path.exists(self.kappa_path):
                raise ConfigError(f"kappa_path {self.kappa_path!r} does not exist")
        if self.source not in ("exp-radial", "pulsed-sine", "constant", "zero"):
            raise ConfigError(f"unknown source {self.source!r}")
        if self.source == "constant" and not np.isfinite(self.source_value):
            raise ConfigError(f"source_value must be finite, got {self.source_value}")
        if self.initial not in ("sine", "zero"):
            raise ConfigError(f"unknown initial profile {self.initial!r}")
        try:
            SplitConfig(self.tau, self.t_final, self.theta_mass, self.theta_stiff)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for pair in self.params_sweep:
            if len(pair) != 2 or not all(0.0 < w < np.inf for w in pair):
                raise ConfigError(f"bad params_sweep entry {pair!r}")
        for blk in self.blocks_sweep:
            if sum(blk) != self.modes or any(b < 1 for b in blk):
                raise ConfigError(f"bad blocks_sweep entry {blk!r}")
        if not all(0.0 < t < np.inf for t in self.tau_sweep):
            raise ConfigError("tau_sweep values must be positive and finite")
        return self


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_blocks(text: str) -> tuple:
    return tuple(int(part) for part in text.replace(",", "+").split("+") if part)


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _parse_params_sweep(text: str) -> tuple:
    pairs = []
    for item in text.split(";"):
        if not item.strip():
            continue
        parts = [float(v) for v in item.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected 'theta_mass,theta_stiff', got {item!r}")
        pairs.append(tuple(parts))
    return tuple(pairs)


def _parse_blocks_sweep(text: str) -> tuple:
    return tuple(_parse_blocks(item) for item in text.split(",") if item.strip())


_PARSERS = {
    "nx_coarse": int, "ny_coarse": int, "refine": int,
    "kappa": str, "kappa_value": float, "kappa_path": str,
    "kappa_contrast": float, "kappa_seed": int, "kappa_channels": int,
    "source": str, "source_value": float, "initial": str,
    "modes": int, "blocks": _parse_blocks,
    "theta_mass": float, "theta_stiff": float,
    "tau": float, "t_final": float,
    "output_dir": str, "dump_fields": _parse_bool, "fine_reference": _parse_bool,
    "tau_sweep": _parse_float_list, "params_sweep": _parse_params_sweep,
    "blocks_sweep": _parse_blocks_sweep,
}


def parse_config(text: str, base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Parse flat 'key = value' text; unknown or repeated keys are errors."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        try:
            data[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    config = dataclasses.replace(base or ExperimentConfig(), **data)
    return config.validate()


def read_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


_BUILTINS = {
    "example1": dict(),
    "example2-synthetic": dict(kappa="channels", modes=10, blocks=(1, 9), tau=2e-4),
    "example3-synthetic": dict(kappa="channels", kappa_seed=11, modes=10,
                               blocks=(1, 9), source="pulsed-sine", tau=2.5e-4),
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin_config(name: str) -> ExperimentConfig:
    if name not in _BUILTINS:
        raise ConfigError(f"unknown builtin config {name!r}; "
                          f"available: {', '.join(builtin_names())}")
    return dataclasses.replace(ExperimentConfig(), **_BUILTINS[name]).validate()


def resolve_config(name_or_path: str) -> ExperimentConfig:
    """A builtin config name, or a path to a config file."""
    if name_or_path in _BUILTINS:
        return builtin_config(name_or_path)
    if os.path.exists(name_or_path):
        return read_config(name_or_path)
    raise ConfigError(f"{name_or_path!r} is neither a builtin config "
                      f"({', '.join(builtin_names())}) nor an existing file")


def _resolve_kappa(config: ExperimentConfig, g: GridPair) -> Permeability:
    if config.kappa == "periodic":
        return Permeability(_kappa_periodic)
    if config.kappa == "constant":
        return Permeability.constant(config.kappa_value)
    if config.kappa == "raster":
        try:
            return Permeability.from_raster(config.kappa_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unusable kappa raster: {exc}") from exc
    return synthetic_channels(g, contrast=config.kappa_contrast,
                              seed=config.kappa_seed,
                              n_channels=config.kappa_channels)


def _resolve_source(config: ExperimentConfig) -> Optional[Source]:
    if config.source == "zero":
        return None
    if config.source == "exp-radial":
        return Source(_source_exp_radial)
    if config.source == "pulsed-sine":
        return Source(_sine, time=_pulse)
    value = config.source_value
    return Source(lambda x, y: np.full_like(np.asarray(x, float), value))


def _resolve_initial(config: ExperimentConfig):
    return _sine if config.initial == "sine" else None


def build_problem(config: ExperimentConfig) -> fineassembly.FineSystem:
    """The assembled fine system of a config; its grid is ``fs.grid``."""
    g = GridPair(config.nx_coarse, config.ny_coarse, config.refine)
    return assemble(g, _resolve_kappa(config, g), source=_resolve_source(config),
                    initial=_resolve_initial(config))


@dataclass
class Pipeline:
    """Everything the time stepping needs, with offline timings.

    ``prol`` carries the offline basis, which only a fine field
    reconstructed from coarse coefficients reads; a run that reconstructs
    none drops it (None) once the coarse system is projected.
    """

    config: ExperimentConfig
    fs: fineassembly.FineSystem
    prol: Optional[gmsfem.Prolongation]
    coarse: splitting.CoarseSystem
    seconds_assemble: float
    seconds_offline: float


def build_pipeline(config: ExperimentConfig) -> Pipeline:
    tic = time.perf_counter()
    fs = build_problem(config)
    t_assemble = time.perf_counter() - tic
    tic = time.perf_counter()
    prol = gmsfem.assemble_prolongation(gmsfem.build_offline(fs, config.modes), config.blocks)
    coarse = gmsfem.project_coarse(fs, prol)
    t_offline = time.perf_counter() - tic
    return Pipeline(config=config, fs=fs, prol=prol, coarse=coarse,
                    seconds_assemble=t_assemble, seconds_offline=t_offline)


def report_offline(fine_dofs: int, coarse_dofs: int, seconds_offline: float,
                   seconds_assemble: float) -> None:
    """Print the size and offline-time lines that every command starts with.

    The offline time covers the work after fine assembly, which is reported
    in parentheses on its own.
    """
    print(f"fine dofs: {fine_dofs}")
    print(f"coarse dofs: {coarse_dofs}")
    print(f"offline stage: {seconds_offline:.2f} s "
          f"(assembly {seconds_assemble:.2f} s)")


@dataclass
class ErrorReport:
    """Relative errors of a split run against its reference."""

    e_l2: float
    e_a: float
    history_times: np.ndarray
    history_values: np.ndarray
    meta: dict = field(default_factory=dict)


def compare(reference: Trajectory, split: Trajectory,
            coarse: splitting.CoarseSystem) -> ErrorReport:
    """Relative L2/energy errors at the final time plus the energy history.

    Both trajectories must share the time grid and the coarse system. C and
    B are the Gram matrices of the basis in the L2 and energy inner products,
    so the fine-grid norms of a reconstructed field P z are the coarse forms
    |P z|^2 = z^T C z and z^T B z: the final-time errors are
    sqrt(d^T C d / z^T C z) and sqrt(d^T B d / z^T B z) with z the reference
    and d its difference to the split state; a reference decayed to
    round-off, |z^N|_C <= 1e-12 |z^1|_C, is refused. The per-step history is the
    one a split streamed against ``reference`` recorded, or the same
    :func:`splitting.energy_errors` for a chunk of steps per product.
    """
    if reference.tau != split.tau or reference.n_steps != split.n_steps:
        raise ValueError("trajectories do not share the time grid")
    if not coarse.dim == reference.states.shape[1] == split.states.shape[1]:
        raise ValueError("trajectories do not match the coarse system")
    ref_final = reference.states[-1]
    err_final = ref_final - split.states[-1]
    first_l2, ref_l2, ref_en, err_l2, err_en = (float(np.sqrt(max(v @ (m @ v), 0.0))) for v, m in (
        (reference.states[1], coarse.mass), (ref_final, coarse.mass),
        (ref_final, coarse.stiff), (err_final, coarse.mass), (err_final, coarse.stiff)))
    if ref_l2 <= 1e-12 * first_l2 or ref_en <= 0.0:
        raise NumericalError(f"reference field vanishes at the final time: |z_ref^N|_C = "
                             f"{ref_l2:.3e} against |z_ref^1|_C = {first_l2:.3e}")
    n_steps = split.n_steps
    values = split.history
    if values is None:
        values = np.empty(n_steps)
        for chunk in splitting.trajectory_chunks(n_steps, coarse.dim):
            rows = slice(1 + chunk.start, 1 + chunk.stop)
            values[chunk] = splitting.energy_errors(coarse.stiff, reference.states[rows],
                                                    split.states[rows])
    times = split.tau * np.arange(1, n_steps + 1)
    return ErrorReport(e_l2=err_l2 / ref_l2, e_a=err_en / ref_en,
                       history_times=times, history_values=values)


def _blocks_label(blocks) -> str:
    return "+".join(str(b) for b in blocks)


def _sanitize(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "+-=._" else "_" for ch in label)


def _write_errors_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("setting,e_l2,e_a\n")
        for setting, e_l2, e_a in rows:
            if e_l2 is None:
                fh.write(f"{setting},error,error\n")
            else:
                fh.write(f"{setting},{e_l2:.10e},{e_a:.10e}\n")


def _write_history_csv(path, report: ErrorReport) -> None:
    with open(path, "w") as fh:
        fh.write("t,e_a\n")
        for t, v in zip(report.history_times, report.history_values):
            fh.write(f"{t:.10e},{v:.10e}\n")


def _fine_reference_errors(pipe: Pipeline, split: Trajectory) -> dict:
    """Sanity numbers: split field against a fine-grid backward Euler run.

    The only step that assembles the global fine matrices, and it frees them
    on return. The source's profile g is loaded once, and step n + 1 scales
    that load by a_{n+1} of the coarse system's ``scale``. Every solve must
    meet |A u - rhs| <= 1e-10 |rhs| with A = M + tau*K.
    """
    fs, config = pipe.fs, pipe.config
    n_steps = SplitConfig(tau=config.tau, t_final=config.t_final).n_steps
    mass, stiff = fineassembly.assemble_matrices(fs)
    lhs_mat = mass + config.tau * stiff
    lhs = SparseCholesky(lhs_mat, context="fine reference")
    g, source = fs.grid, fs.source
    load = np.zeros(fs.n_dof) if source is None else fineassembly.BoxSum(
        g, np.arange(g.nx_coarse * g.ny_coarse), g.interior_fine_ids).load(source.space)
    scale = pipe.coarse.scale(config.tau, n_steps)
    u = fs.initial_vector()
    for n in range(n_steps):
        rhs = mass @ u + (config.tau * scale[n]) * load
        u = lhs.solve(rhs)
        residual = np.linalg.norm(lhs_mat @ u - rhs)
        target = 1e-10 * np.linalg.norm(rhs)
        if not residual <= target:  # also catches NaN
            raise NumericalError(f"fine reference step {n + 1}: solve residual "
                                 f"{residual:.3e} exceeds {target:.3e}")
    split_final = gmsfem.reconstruct_fine(fs, pipe.prol, split.states[-1])
    ref_l2, ref_en = fineassembly.norms(mass, stiff, u)
    err_l2, err_en = fineassembly.norms(mass, stiff, u - split_final)
    return {"fine_e_l2": err_l2 / ref_l2, "fine_e_a": err_en / ref_en}


def _run_setting(pipe: Pipeline, theta_mass, theta_stiff,
                 reference: Trajectory, certificates: dict) -> tuple:
    """One split run on the pipeline's coarse system, streamed against its reference.

    The split runs on the backward Euler reference's time step and the
    coarse system's blocks. Its certificate is made once per (blocks,
    theta_mass, theta_stiff), kept in ``certificates``.
    """
    tau = reference.tau
    coarse, blocks = pipe.coarse, tuple(pipe.coarse.block_sizes)
    parts = splitting.make_split(coarse)
    scfg = SplitConfig(tau=tau, t_final=pipe.config.t_final,
                       theta_mass=theta_mass, theta_stiff=theta_stiff)
    key = (blocks, theta_mass, theta_stiff)
    split = splitting.march(coarse, parts, scfg, reference=reference,
                            certificate=certificates.get(key))
    certificates[key] = split.certificate
    report = compare(reference, split, coarse)
    report.meta.update({
        "blocks": blocks,
        "theta_mass": theta_mass,
        "theta_stiff": theta_stiff,
        "tau": tau,
        "certificate": split.certificate,
        "bound_margin": split.bound_margin,
        "coarse_dofs": coarse.dim,
        "fine_dofs": pipe.fs.n_dof,
    })
    return split, report


def _make_output_dir(path: str) -> None:
    """Create the output directory before any work, or raise ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path!r}: {exc}") from exc


def run_example(config: ExperimentConfig) -> ErrorReport:
    """Run one experiment end to end and write its CSV outputs."""
    config.validate()
    _make_output_dir(config.output_dir)
    pipe = build_pipeline(config)
    if not (config.dump_fields or config.fine_reference):
        pipe.prol = None   # the basis: no step reads it
    report_offline(pipe.fs.n_dof, pipe.coarse.dim, pipe.seconds_offline,
                   pipe.seconds_assemble)
    tic = time.perf_counter()
    reference = splitting.backward_euler(pipe.coarse, config.tau, config.t_final)
    split, report = _run_setting(pipe, config.theta_mass, config.theta_stiff,
                                 reference, {})
    print(split.certificate.describe())
    print(f"time stepping: {time.perf_counter() - tic:.2f} s "
          f"for {split.n_steps} steps")
    label = _blocks_label(config.blocks)
    _write_errors_csv(os.path.join(config.output_dir, "errors.csv"),
                      [(label, report.e_l2, report.e_a)])
    _write_history_csv(os.path.join(config.output_dir, "history.csv"), report)
    if config.dump_fields:
        for name, states in (("split", split.states), ("reference", reference.states)):
            write_field(os.path.join(config.output_dir, f"field_{name}.txt"), pipe.fs.grid,
                        gmsfem.reconstruct_fine(pipe.fs, pipe.prol, states[-1]))
    if config.fine_reference:
        report.meta.update(_fine_reference_errors(pipe, split))
        print(f"fine-grid sanity: e_l2={report.meta['fine_e_l2']:.4e} "
              f"e_a={report.meta['fine_e_a']:.4e}")
    print(f"setting {label}: e_l2={report.e_l2:.10e} e_a={report.e_a:.10e}")
    return report


def _snap_tau(tau: float, t_final: float) -> float:
    """Nearest time step that divides the final time exactly."""
    n = max(int(round(t_final / tau)), 1)
    return t_final / n


def sweep(config: ExperimentConfig, axis: str) -> list:
    """Run a family of settings sharing the offline stage.

    ``axis`` is one of ``tau``, ``params``, ``blocks``. Returns the CSV rows
    as (setting, e_l2, e_a) tuples; failed rows carry None and the sweep
    continues. A sweep with no settings, or two of one label, is a config error.
    """
    if axis not in ("tau", "params", "blocks"):
        raise ConfigError(f"unknown sweep axis {axis!r}; pick tau, params or blocks")
    config.validate()
    settings = []
    if axis == "tau":
        for tau in config.tau_sweep:
            snapped = _snap_tau(tau, config.t_final)
            if abs(snapped - tau) > 1e-12 * tau:
                logger.warning("tau %.6e snapped to %.6e to divide t_final",
                               tau, snapped)
            settings.append((f"{snapped:.6e}", dict(tau=snapped)))
    elif axis == "params":
        for tm, ts in config.params_sweep:
            label = f"theta_mass={tm:g};theta_stiff={ts:g}"
            settings.append((label, dict(theta_mass=tm, theta_stiff=ts)))
    else:
        blocks_list = config.blocks_sweep or tuple(
            (k, config.modes - k) for k in range(1, config.modes))
        for blocks in blocks_list:
            settings.append((_blocks_label(blocks), dict(blocks=blocks)))
    if not settings:
        raise ConfigError(f"the {axis} sweep has no settings; set {axis}_sweep")
    labels = [label for label, _ in settings]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigError(f"the {axis} sweep has {labels.count(label)} settings labelled "
                              f"{label}; each needs its own row and history file")
    _make_output_dir(config.output_dir)
    pipe = build_pipeline(config)
    pipe.prol = None   # the basis: no setting reads it
    report_offline(pipe.fs.n_dof, pipe.coarse.dim, pipe.seconds_offline,
                   pipe.seconds_assemble)

    rows, certificates = [], {}
    # C and B do not depend on the blocks, so settings that share tau share
    # one backward Euler reference
    reference_tau = reference = None
    for label, override in settings:
        tau = override.get("tau", config.tau)
        theta_mass = override.get("theta_mass", config.theta_mass)
        theta_stiff = override.get("theta_stiff", config.theta_stiff)
        tic = time.perf_counter()
        try:
            setting_pipe = pipe
            if "blocks" in override:   # the same system, other labels
                setting_pipe = dataclasses.replace(pipe, coarse=dataclasses.replace(
                    pipe.coarse, block_sizes=override["blocks"],
                    _load_norm_sq=pipe.coarse.load_norm_sq()))
            if tau != reference_tau:
                reference_tau = reference = None
                reference = splitting.backward_euler(setting_pipe.coarse, tau,
                                                     config.t_final)
                reference_tau = tau
            split, report = _run_setting(setting_pipe, theta_mass, theta_stiff,
                                         reference, certificates)
        except NumericalError as exc:
            logger.error("setting %s failed: %s", label, exc)
            rows.append((label, None, None))
            print(f"setting {label}: failed ({exc})")
            continue
        rows.append((label, report.e_l2, report.e_a))
        _write_history_csv(
            os.path.join(config.output_dir, f"history_{_sanitize(label)}.csv"),
            report)
        print(f"setting {label}: e_l2={report.e_l2:.10e} e_a={report.e_a:.10e} "
              f"({time.perf_counter() - tic:.2f} s)")
    _write_errors_csv(os.path.join(config.output_dir, "errors.csv"), rows)
    return rows
