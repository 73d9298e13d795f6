#!/usr/bin/env python3
"""Fast smoke test of the benchmark harness on a tiny config.

    python3 benchmark/smoke.py

Runs the untraced and the traced measurement on a 3 x 3 coarse grid for a
few seconds in all, and checks that every metric BENCHMARK.json names is
reported, that matching outputs pass, that a wrong recorded error or a
failing child counts as failed, and that a child running past the deadline
is killed. Exits non-zero on the first broken check.
"""

from __future__ import annotations

import math
import sys
import tempfile
import time

import record_expected
import run
import workloads

TINY = workloads.Workload(
    name="smoke",
    lines={"nx_coarse": 3, "ny_coarse": 3, "refine": 4, "kappa": "channels",
           "source": "pulsed-sine", "modes": 2, "blocks": "1+1",
           "tau": "1e-3", "t_final": "0.05"},
    seeded=True)


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED {what}")
    print(f"smoke: ok {what}")


def main() -> int:
    spec = run.benchmark_spec()
    expected = record_expected.record_input(TINY, 0)

    result = run.measure(TINY, 0, 0.5, False, expected)
    check(result["correct"] and result["failed"] == 0, "untraced run correct")
    check(set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
          "untraced run reports exactly the end-to-end metrics")
    check(all(m["value"] > 0 for m in result["metrics"].values()),
          "end-to-end metrics are positive")

    result = run.measure(TINY, 0, 0.5, True, expected)
    check(result["correct"], "traced run correct")
    check(set(result["metrics"]) == {m["name"] for m in spec["per_layer"]},
          "traced run reports exactly the per-layer metrics")
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in result["metrics"].values()),
          "per-layer metrics are finite numbers")
    check(result["metrics"]["gmsfem.coarse_rhs_calls"]["value"] >= 2 * 50,
          "forcing calls counted in both time-steppers")

    wrong = dict(expected, e_l2=expected["e_l2"] * (1 + 1e-3))
    result = run.measure(TINY, 0, 0.5, False, wrong)
    check(not result["correct"] and result["failed"] == result["attempted"],
          "a mismatching errors.csv counts as failed")

    with tempfile.TemporaryDirectory(dir=run.RUNS) as out:
        sleeper = run.run_child(
            [sys.executable, "-c", "import time; time.sleep(60)"], out, None,
            deadline=time.monotonic() + 1.0)
    check(not sleeper.ok and sleeper.wall_s < 30,
          "a child still running at the deadline is killed")

    broken = workloads.Workload(name="smoke-broken",
                                lines=dict(TINY.lines, blocks="1+2"))
    result = run.measure(broken, 0, 0.5, False, expected)
    check(not result["correct"] and result["failed"] == result["attempted"],
          "a child exiting non-zero counts as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
