#!/usr/bin/env python3
"""Record the final-time errors every benchmark input must reproduce.

    python3 benchmark/record_expected.py [WORKLOAD ...]

Runs `msplit run` once for each input of the named workloads (all by
default) and rewrites their entries in benchmark/expected.json. Only do
this when a change is meant to alter the numerics, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def record_input(workload, seed: int) -> dict:
    """The errors.csv row of one `msplit run` of a workload input."""
    run.RUNS.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="record-", dir=run.RUNS)
    try:
        config = workload.config_arg(seed, out)
        child = run.run_child(run.msplit_argv(config, out), out,
                              run.SETUP_MARKER)
        if not child.ok:
            raise RuntimeError(f"{workload.name} seed {seed}: {child.error}")
        (setting, e_l2, e_a), = workloads.read_errors_csv(
            os.path.join(out, "errors.csv"))
    finally:
        shutil.rmtree(out)
    return {"setting": setting, "e_l2": float(e_l2), "e_a": float(e_a)}


def record(workload) -> dict:
    seeds = range(len(workloads.KAPPA_SEEDS)) if workload.seeded else (0,)
    entries = {}
    for seed in seeds:
        entries[workload.input_id(seed)] = row = record_input(workload, seed)
        print(f"{workload.name} {workload.input_id(seed)}: {row}", flush=True)
    return entries


def main(names) -> int:
    try:
        expected = workloads.load_expected()
    except FileNotFoundError:
        expected = {}
    for name in names or sorted(workloads.WORKLOADS):
        expected[name] = record(workloads.WORKLOADS[name])
        with open(workloads.EXPECTED_PATH, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
