"""The quick demos run as scripts against the package's public API."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,needle", [
    ("01_grid_anatomy.py", "coarse grid: 4 x 4 cells"),
    ("03_splitting_and_stability.py", "one block is backward Euler"),
])
def test_demo_runs(script, needle):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert needle in proc.stdout
