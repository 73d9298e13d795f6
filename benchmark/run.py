#!/usr/bin/env python3
"""Benchmark of the `msplit run` command.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all

With `--trace 0` the benchmark starts `python -m msplit run` on the
checkout's `src/`, one child process at a time, for as many runs as fit in
S seconds (at least one), and times each from outside the program:

  wall_s       spawn to exit
  setup_s      spawn to the `coarse dofs:` stdout line (read unbuffered):
               interpreter, imports, fine assembly, offline stage, projection
  online_s     wall_s - setup_s: split, certificate, backward Euler
               reference, split march, compare, CSV writes
  peak_rss_mb  peak resident memory of the child

and checks every `errors.csv` against the errors recorded for that input.
With `--trace 1` it takes one untraced sample, then runs the experiment
once more in a traced process (traced.py) that records spans
around the public functions of each module, and once with OpenBLAS pinned
to one thread for the offline stage alone. The user's thread environment
is left as it is for everything else.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`, which holds the metrics BENCHMARK.json
lists for the mode. Each invocation also leaves a record,
with the environment and every sample, in benchmark/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import envinfo
import workloads

ROOT = envinfo.ROOT
SRC = envinfo.SRC
HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"
SETUP_MARKER = b"coarse dofs:"
TRACE_MARKER = b"trace: run finished"
# One invocation must end within 180 s; children still running at this
# many seconds after it started are killed.
BUDGET_S = 170.0

# Printed and recorded for every run. The JSON line carries the ones
# BENCHMARK.json gates; online_s is not among them (see README.md).
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("online_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class Child:
    """Outcome of one child process, timed from outside."""

    wall_s: float
    marker_s: float | None
    peak_rss_mb: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update(extra or {})
    return env


def run_child(argv, cwd, marker, env=None, deadline=None) -> Child:
    """Start one process, stamp the marker line, reap it with its rusage.

    ``marker`` is the prefix of the stdout line to stamp, or None. The child
    is killed if it still runs at ``deadline`` (a time.monotonic() value).
    """
    if deadline is None:
        deadline = time.monotonic() + BUDGET_S
    stderr_path = os.path.join(cwd, "stderr.txt")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env or child_env(),
                                stdout=subprocess.PIPE, stderr=err, bufsize=0)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                   proc.kill)
        watchdog.start()
        marker_s = status = None
        try:
            for line in proc.stdout:
                if marker and marker_s is None and line.startswith(marker):
                    marker_s = time.perf_counter() - start
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if status is None:   # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    child = Child(wall_s=wall_s, marker_s=marker_s,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    if code != 0:
        with open(stderr_path, errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        child.error = f"exit code {code}: {tail}"
    elif marker and marker_s is None:
        child.error = f"no {marker.decode()!r} line on stdout"
    return child


def msplit_argv(config: str, out: str) -> list:
    """`python -m msplit run` on the checkout's sources, unbuffered."""
    return [sys.executable, "-u", "-m", "msplit", "run", config, "--output", out]


def msplit_run(workload, seed: int, workdir: str, index: int, expected: dict,
               deadline: float) -> Child:
    """One untraced `msplit run` child, with its output checked."""
    out = os.path.join(workdir, f"run{index}")
    os.makedirs(out)
    config = workload.config_arg(seed, out)
    child = run_child(msplit_argv(config, out), out, SETUP_MARKER,
                      deadline=deadline)
    if child.ok:
        child.error = workloads.check_errors(os.path.join(out, "errors.csv"),
                                             expected)
    shutil.rmtree(out)
    return child


def untraced_samples(workload, seed: int, seconds: float, workdir: str,
                     expected: dict, deadline: float) -> list:
    """Children one after another while the next is expected to fit."""
    children = []
    start = time.perf_counter()
    while True:
        children.append(msplit_run(workload, seed, workdir, len(children),
                                   expected, deadline))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(children) > seconds:
            return children


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def summarize(children) -> dict:
    """Median and tail of each end-to-end metric over the timed children."""
    timed = [c for c in children if c.marker_s is not None] or children
    samples = {
        "wall_s": [c.wall_s for c in timed],
        "setup_s": [c.marker_s if c.marker_s is not None else c.wall_s
                    for c in timed],
        "peak_rss_mb": [c.peak_rss_mb for c in timed],
    }
    samples["online_s"] = [w - s for w, s in zip(samples["wall_s"],
                                                 samples["setup_s"])]
    out = {}
    for name, unit in END_TO_END:
        values = samples[name]
        out[name] = {"value": statistics.median(values), "unit": unit,
                     "n": len(values), "tail": tail_percentile(values),
                     "samples": values}
    return out


def print_metric(name: str, entry: dict) -> None:
    line = f"  {name}: {entry['value']:.6g} {entry['unit']}"
    if "n" in entry:
        tail = entry["tail"]
        line += f" (median of n={entry['n']}"
        line += (f"; p{tail[0]:.0f} {tail[1]:.6g})" if tail
                 else "; n < 11, no tail percentile)")
    print(line)


def traced_metrics(workload, seed: int, workdir: str, expected: dict,
                   untraced_wall_s: float, deadline: float):
    """Per-layer metrics from one traced child and one pinned offline child.

    Returns (metrics, [traced child, pinned child]); a check that fails
    marks its child failed.
    """
    out = os.path.join(workdir, "traced")
    os.makedirs(out)
    config = workload.config_arg(seed, out)
    result_path = os.path.join(out, "trace.json")
    traced = run_child([sys.executable, "-u", str(HERE / "traced.py"), config,
                        out, result_path], out, TRACE_MARKER,
                       deadline=deadline)
    metrics = {}
    traced_eigs = None
    if traced.ok:
        with open(result_path) as fh:
            result = json.load(fh)
        metrics.update(result["metrics"])
        traced_eigs = result["eigenvalues"]
        total = traced.marker_s
        metrics["trace.total_s"] = total
        metrics["trace.overhead_s"] = total - untraced_wall_s
        metrics["trace.uncovered_frac"] = 1.0 - result["top_level_s"] / total
        metrics["trace.spans"] = result["spans"]
        errors = [workloads.check_errors(os.path.join(out, "errors.csv"),
                                         expected)]
        if not metrics.pop("breakdown_ok"):
            errors.append("offline breakdown eigenvalues differ from "
                          "offline_modes by %.3e (relative)"
                          % metrics["gmsfem.breakdown_eig_rel_gap"])
        traced.error = "; ".join(e for e in errors if e)

    pinned_path = os.path.join(out, "offline1t.json")
    pinned = run_child([sys.executable, "-u", str(HERE / "traced.py"),
                        "--offline-only", config, pinned_path], out, None,
                       env=child_env({"OPENBLAS_NUM_THREADS": "1"}),
                       deadline=deadline)
    if pinned.ok:
        with open(pinned_path) as fh:
            result = json.load(fh)
        metrics["gmsfem.offline_modes_1t_s"] = result["seconds"]
        metrics["openblas_1t"] = result["openblas"]
        if traced_eigs is not None and not eigenvalues_match(
                result["eigenvalues"], traced_eigs):
            pinned.error = "single-thread offline eigenvalues differ"
    shutil.rmtree(out)
    return metrics, [traced, pinned]


def eigenvalues_match(a, b) -> bool:
    """Per neighbourhood, equal to 1e-8 of that node's largest in ``b``."""
    if len(a) != len(b):
        return False
    for node_a, node_b in zip(a, b):
        scale = max(abs(v) for v in node_b)
        if len(node_a) != len(node_b) or any(
                abs(x - y) > 1e-8 * scale for x, y in zip(node_a, node_b)):
            return False
    return True


def measure(workload, seed: int, seconds: float, trace: bool,
            expected: dict) -> dict:
    """One invocation: samples, checks, metrics and the printed report.

    ``expected`` is the recorded errors.csv row of this workload and seed.
    """
    deadline = time.monotonic() + BUDGET_S
    environment = envinfo.environment()
    print("env: " + json.dumps(environment), flush=True)
    RUNS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS)
    try:
        # a traced invocation needs only one untraced wall time to compare
        children = untraced_samples(workload, seed, 0.0 if trace else seconds,
                                    workdir, expected, deadline)
        end_to_end = summarize(children)
        named = [(f"run {i}", c) for i, c in enumerate(children)]
        per_layer = {}
        if trace:
            per_layer, extra = traced_metrics(
                workload, seed, workdir, expected,
                end_to_end["wall_s"]["value"], deadline)
            named += zip(("traced run", "pinned offline run"), extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [f"{name}: {c.error}" for name, c in named if not c.ok]
    attempted, failed = len(named), len(problems)

    if trace:
        metrics = {m["name"]: {"value": per_layer.get(m["name"]),
                               "unit": m["unit"]}
                   for m in benchmark_spec()["per_layer"]}
        missing = [name for name, m in metrics.items() if m["value"] is None]
        if missing:
            problems.append(f"per-layer metrics missing: {missing}")
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in benchmark_spec()["end_to_end"]}

    print(f"workload {workload.name} (input {workload.input_id(seed)}, "
          f"seed {seed}, {'traced' if trace else 'untraced'})")
    for name, entry in end_to_end.items():
        print_metric(name, entry)
    print(f"  failed_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if trace:
        for name, entry in metrics.items():
            if entry["value"] is not None:
                print_metric(name, entry)
    for problem in problems:
        print(f"  FAILED {problem}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "input": workload.input_id(seed),
              "environment": environment,
              "end_to_end": end_to_end, "per_layer": per_layer,
              "failed_frac": failed / attempted, "problems": problems,
              "result": result}
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RUNS / f"{stamp}-{workload.name}-seed{seed}-trace{int(trace)}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def check_checkout() -> str:
    """Empty string when the checkout holds what the benchmark needs."""
    for path in (SRC / "msplit" / "__init__.py", ROOT / "BENCHMARK.json",
                 workloads.EXPECTED_PATH):
        if not path.is_file():
            return f"{path.relative_to(ROOT)} is missing"
    return ""


def main(argv=None) -> int:
    names = sorted(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"benchmark cannot run: {problem}", file=sys.stderr)
        return 2
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    recorded = workloads.load_expected()

    def one_workload(name: str, trace: bool) -> dict:
        workload = workloads.WORKLOADS[name]
        expected = recorded[name][workload.input_id(args.seed)]
        return measure(workload, args.seed, seconds, trace, expected)

    if args.workload != "all":
        result = one_workload(args.workload, bool(args.trace))
    else:
        # every workload, untraced and traced, as one summary
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            for trace in (False, True):
                one = one_workload(name, trace)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                result["metrics"].update(
                    {f"{name}/{key}": value
                     for key, value in one["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
