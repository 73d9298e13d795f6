"""Multiscale splitting solver for heterogeneous parabolic problems.

The package builds a generalized multiscale finite element space on a pair
of nested rectangular grids, projects the parabolic problem onto it, and
advances in time with a three-level scheme that splits the coarse space
into mode blocks so that only a block-structured operator is inverted per
step. Stability of a chosen splitting is decided by an explicit
certificate before the run.
"""

from .driver import (ConfigError, ErrorReport, ExperimentConfig, Source,
                     builtin_config, builtin_names, build_pipeline,
                     build_problem, compare, parse_config, read_config,
                     reconstruct_fine, resolve_config, run_example, sweep,
                     synthetic_channels)
from .fineassembly import (FineSystem, Permeability, assemble, interpolate,
                           norms, read_field, read_grid_file, write_field,
                           write_grid_file)
from .gmsfem import (OfflineBasis, Prolongation, assemble_basis,
                     assemble_prolongation, build_offline, build_snapshots,
                     dump_basis, load_basis, offline_modes, project_coarse,
                     spectral_mass_weight, spectral_matrices)
from .grid import GridPair, Neighborhood, build_grids, neighborhood, partition_of_unity
from .linalg import NumericalError, eig_gsym
from .splitting import (CoarseSystem, RecursionReport, SplitConfig, SplitParts,
                        StabilityCertificate, Trajectory, backward_euler,
                        check_stability, damping_matrix, error_recursion_diag,
                        make_split, march)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError", "ErrorReport", "ExperimentConfig", "Source",
    "builtin_config", "builtin_names", "build_pipeline", "build_problem",
    "compare", "parse_config", "read_config", "reconstruct_fine",
    "resolve_config", "run_example", "sweep", "synthetic_channels",
    "FineSystem", "Permeability", "assemble", "interpolate", "norms",
    "read_field", "read_grid_file", "write_field", "write_grid_file",
    "OfflineBasis", "Prolongation", "assemble_basis", "assemble_prolongation",
    "build_offline", "build_snapshots", "dump_basis", "load_basis",
    "offline_modes", "project_coarse", "spectral_mass_weight",
    "spectral_matrices",
    "GridPair", "Neighborhood", "build_grids", "neighborhood",
    "partition_of_unity",
    "NumericalError", "eig_gsym",
    "CoarseSystem", "RecursionReport", "SplitConfig", "SplitParts",
    "StabilityCertificate", "Trajectory", "backward_euler", "check_stability",
    "damping_matrix", "error_recursion_diag", "make_split", "march",
]
