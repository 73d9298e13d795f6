"""Environment record written with every benchmark invocation."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Symbol names of the OpenBLAS builds numpy and scipy wheels bundle, and of
# a plain system OpenBLAS.
_THREADS_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config")


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def openblas() -> list:
    """Version string and effective thread count of each loaded OpenBLAS."""
    out = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for name in _CONFIG_SYMBOLS:
            if hasattr(lib, name):
                func = getattr(lib, name)
                func.restype = ctypes.c_char_p
                info["config"] = func().decode()
                break
        for name in _THREADS_SYMBOLS:
            if hasattr(lib, name):
                func = getattr(lib, name)
                func.restype = ctypes.c_int
                info["threads"] = func()
                break
        out.append(info)
    return out


def _git_commit():
    if not (ROOT / ".git").exists():   # an exported checkout
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "msplit").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS)

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "thread_env": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if key in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
    }
