"""Workloads of the msplit benchmark.

Each workload is one `msplit run` experiment. Where the permeability is
channelized, the benchmark seed picks the channel layout (`kappa_seed`)
from a fixed table, so every input the benchmark can make has its
final-time errors recorded in `expected.json` and every run checks its
`errors.csv` against them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# Channel layouts the seed chooses from; seed n uses KAPPA_SEEDS[n % 5].
KAPPA_SEEDS = (7, 11, 23, 42, 101)

# Relative tolerance on the recorded e_l2 / e_a. Threaded BLAS reductions
# move them in the last few digits only; a wrong answer moves them far more.
RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One experiment: a builtin config, or config lines for a file."""

    name: str
    builtin: str = ""
    lines: dict = field(default_factory=dict)
    seeded: bool = False

    def input_id(self, seed: int) -> str:
        """Key of this seed's input in expected.json."""
        if not self.seeded:
            return "fixed"
        return str(KAPPA_SEEDS[seed % len(KAPPA_SEEDS)])

    def config_arg(self, seed: int, directory) -> str:
        """What `msplit run` takes as its config: a builtin name or a file."""
        if self.builtin:
            return self.builtin
        lines = dict(self.lines)
        if self.seeded:
            lines["kappa_seed"] = self.input_id(seed)
        path = os.path.join(directory, f"{self.name}.cfg")
        with open(path, "w") as fh:
            fh.write(f"# benchmark workload {self.name}\n")
            for key, value in lines.items():
                fh.write(f"{key} = {value}\n")
        return path


# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ex1-offline",
            builtin="example1"),
        Workload(
            name="ex2-stepping",
            # the keys of the builtin example2-synthetic, horizon shortened
            lines={"kappa": "channels", "modes": 10, "blocks": "1+9",
                   "tau": "2e-4", "t_final": "0.06"},
            seeded=True),
        Workload(
            name="tiny-forced",
            lines={"nx_coarse": 4, "ny_coarse": 4, "refine": 4,
                   "kappa": "channels", "source": "pulsed-sine",
                   "modes": 3, "blocks": "1+2", "tau": "4e-4",
                   "t_final": "2.0"},
            seeded=True),
    )
}


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def read_errors_csv(path) -> list:
    """Rows of an errors.csv as (setting, e_l2, e_a) strings."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "setting,e_l2,e_a":
        raise ValueError(f"{path}: unexpected header")
    return [tuple(line.split(",")) for line in lines[1:] if line]


def check_errors(path, expected: dict) -> str:
    """Empty string when errors.csv matches the record, else the reason."""
    try:
        rows = read_errors_csv(path)
    except (OSError, ValueError) as exc:
        return f"cannot read errors.csv: {exc}"
    if len(rows) != 1 or len(rows[0]) != 3:
        return f"expected one setting row, got {rows}"
    setting, e_l2, e_a = rows[0]
    if setting != expected["setting"]:
        return f"setting {setting} != {expected['setting']}"
    for key, text in (("e_l2", e_l2), ("e_a", e_a)):
        try:
            value = float(text)
        except ValueError:
            return f"{key} is {text!r}"
        want = expected[key]
        if not abs(value - want) <= RTOL * abs(want):
            return f"{key} = {value!r}, recorded {want!r} (rtol {RTOL})"
    return ""
