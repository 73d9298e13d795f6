"""Command line entry points.

Subcommands:
  run              one experiment, CSV outputs in the output directory
  sweep            family of settings sharing the offline stage
  offline          build the multiscale basis only, optionally dump it
  check-stability  print the splitting stability certificate

Exit codes: 0 success, 2 config problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import driver, gmsfem, splitting
from .driver import ConfigError
from .linalg import NumericalError


def _add_config_arg(parser):
    parser.add_argument("config",
                        help="builtin config name (%s) or path to a config file"
                        % ", ".join(driver.builtin_names()))


def _add_common(parser):
    parser.add_argument("--output", default=None,
                        help="directory for CSV and field outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msplit",
        description="Multiscale splitting solver for heterogeneous "
                    "parabolic problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_config_arg(p_run)
    _add_common(p_run)
    p_run.add_argument("--dump-fields", action="store_true",
                       help="also write final fields as grid files")

    p_sweep = sub.add_parser("sweep", help="run a family of settings")
    _add_config_arg(p_sweep)
    p_sweep.add_argument("--axis", choices=("tau", "params", "blocks"),
                         required=True, help="what the sweep varies")
    _add_common(p_sweep)

    p_off = sub.add_parser("offline", help="build the multiscale basis only")
    _add_config_arg(p_off)
    p_off.add_argument("--dump-basis", default=None, metavar="PATH",
                       help="write the basis to a plain text file")

    p_chk = sub.add_parser("check-stability",
                           help="evaluate the splitting stability certificate")
    _add_config_arg(p_chk)
    return parser


def _load_config(args) -> driver.ExperimentConfig:
    config = driver.resolve_config(args.config)
    updates = {}
    if getattr(args, "output", None) is not None:
        updates["output_dir"] = args.output
    if getattr(args, "dump_fields", False):
        updates["dump_fields"] = True
    if updates:
        config = dataclasses.replace(config, **updates)
    return config.validate()


def _cmd_run(args) -> int:
    driver.run_example(_load_config(args))
    return 0


def _cmd_sweep(args) -> int:
    driver.sweep(_load_config(args), args.axis)
    return 0


def _cmd_offline(args) -> int:
    config = _load_config(args)
    dump = args.dump_basis
    if dump and (os.path.isdir(dump) or not os.access(
            os.path.dirname(os.path.abspath(dump)), os.W_OK)):
        raise ConfigError(f"cannot write the basis dump {dump!r}")
    tic = time.perf_counter()
    fs = driver.build_problem(config)
    seconds_assemble = time.perf_counter() - tic
    tic = time.perf_counter()
    basis = gmsfem.build_offline(fs, config.modes)
    driver.report_offline(fs.n_dof, basis.n_columns,
                          time.perf_counter() - tic, seconds_assemble)
    lam = basis.eigenvalues
    print(f"eigenvalue range: [{lam.min():.6e}, {lam.max():.6e}]")
    if dump:
        gmsfem.dump_basis(basis, dump)
        print(f"basis written to {dump}")
    return 0


def _cmd_check_stability(args) -> int:
    config = _load_config(args)
    pipe = driver.build_pipeline(config)
    parts = splitting.make_split(pipe.coarse)
    cert = splitting.check_stability(parts, config.theta_mass,
                                     config.theta_stiff)
    print(f"coarse dofs: {pipe.coarse.dim}")
    print(cert.describe())
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "offline": _cmd_offline,
    "check-stability": _cmd_check_stability,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
