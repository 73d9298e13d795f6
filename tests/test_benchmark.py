"""The benchmark's traced child runs against the program as it stands.

``benchmark/traced.py`` wraps msplit functions by name and re-solves every
neighbourhood by the brute-force route; a traced child that fails counts as
a failed operation of the benchmark. Both of its modes run here on the
smoke test's 3 x 3 config, every output under the test's own directory.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import smoke
    return run, smoke


def _traced(args, tmp_path, **env):
    out = subprocess.run([sys.executable, str(BENCH / "traced.py"), *args],
                         capture_output=True, text=True, timeout=120, cwd=tmp_path,
                         env=dict(os.environ, **env))
    assert out.returncode == 0, out.stderr
    return out


def test_traced_run_and_offline_only_agree(harness, tmp_path):
    run, smoke = harness
    config = smoke.TINY.config_arg(0, tmp_path)
    full, offline = tmp_path / "traced.json", tmp_path / "offline.json"
    _traced([config, str(tmp_path / "out"), str(full)], tmp_path)
    _traced(["--offline-only", config, str(offline)], tmp_path, OPENBLAS_NUM_THREADS="1")
    traced = json.loads(full.read_text())
    pinned = json.loads(offline.read_text())
    assert traced["metrics"]["breakdown_ok"], traced["metrics"]["gmsfem.breakdown_eig_rel_gap"]
    assert traced["eigenvalues"] and run.eigenvalues_match(pinned["eigenvalues"],
                                                           traced["eigenvalues"])
    assert (tmp_path / "out" / "errors.csv").exists()
    # traced.py reads march's three positional arguments, the split's
    # n_steps, step_seconds and bound_margin, and the reference's step_seconds
    metrics = traced["metrics"]
    assert metrics["splitting.steps"] == 50
    assert math.isfinite(metrics["splitting.bound_margin"])
    assert metrics["splitting.step_us_p50"] > 0.0 and metrics["splitting.be_step_us_p50"] > 0.0
