import zlib

import numpy as np
import pytest

from msplit import driver, gmsfem, linalg


@pytest.fixture(scope="session")
def ex1_config():
    return driver.builtin_config("example1")


@pytest.fixture(scope="session")
def ex1(ex1_config):
    """Shared offline stage of the full-size first builtin problem.

    Building the spectral modes dominates the suite's runtime, so the ten
    modes per node are computed once and sliced into the six- and ten-mode
    bases by the tests that need them.
    """
    g, fs = driver.build_problem(ex1_config)
    modes = gmsfem.offline_modes(fs, 10)
    basis6 = gmsfem.assemble_basis(fs, modes, 6)
    basis10 = gmsfem.assemble_basis(fs, modes, 10)
    return {"config": ex1_config, "grid": g, "fs": fs, "modes": modes,
            "basis6": basis6, "basis10": basis10}


@pytest.fixture(scope="session")
def ex1_split15(ex1):
    """Prolongation and coarse system for the 1+5 split of the first problem."""
    prol = gmsfem.assemble_prolongation(ex1["basis6"], (1, 5))
    coarse = gmsfem.project_coarse(ex1["fs"], prol)
    return prol, coarse


@pytest.fixture
def factorizations(monkeypatch):
    """Contexts of the sparse Cholesky factorizations made during the test."""
    made = []
    init = linalg.SparseCholesky.__init__

    def counting(self, mat, context=""):
        made.append(context)
        init(self, mat, context)

    monkeypatch.setattr(linalg.SparseCholesky, "__init__", counting)
    return made


def rng_for(name: str) -> np.random.Generator:
    """Deterministic per-test generator so failures replay exactly."""
    return np.random.default_rng(zlib.crc32(name.encode()))
