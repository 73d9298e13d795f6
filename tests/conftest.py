import pathlib
import zlib

import numpy as np
import pytest

from msplit import driver, gmsfem, linalg

from _oracles import basis_blocks


@pytest.fixture(scope="session")
def ex1_config():
    return driver.builtin_config("example1")


@pytest.fixture(scope="session")
def ex1(ex1_config):
    """Shared six-mode offline stage of the full-size first builtin problem.

    Building the spectral modes dominates the suite's runtime, so the basis
    is built once, as the commands build it.
    """
    fs = driver.build_problem(ex1_config)
    return {"config": ex1_config, "fs": fs,
            "basis6": gmsfem.build_offline(fs, 6)}


@pytest.fixture(scope="session")
def ex1_basis10(ex1):
    """Ten-mode basis of the same problem, built only for the tests that read it."""
    return gmsfem.build_offline(ex1["fs"], 10)


@pytest.fixture(scope="session")
def ex1_split15(ex1):
    """Prolongation and coarse system for the 1+5 split of the first problem."""
    prol = gmsfem.assemble_prolongation(ex1["basis6"], (1, 5))
    coarse = gmsfem.project_coarse(ex1["fs"], prol)
    return prol, coarse


@pytest.fixture
def factorizations(monkeypatch):
    """Contexts of the band Cholesky factorizations made during the test."""
    made = []
    init = linalg.BandCholesky.__init__

    def counting(self, mat, context=""):
        made.append(context)
        init(self, mat, context)

    monkeypatch.setattr(linalg.BandCholesky, "__init__", counting)
    return made


def rng_for(name: str) -> np.random.Generator:
    """Deterministic per-test generator so failures replay exactly."""
    return np.random.default_rng(zlib.crc32(name.encode()))


def assert_basis_dump(path, basis) -> None:
    """The basis dump at ``path`` holds ``basis``: every value it writes
    reads back with ``float`` to exactly the stored one, each node's
    support as its own neighborhood gives it (:func:`_oracles.basis_blocks`)."""
    g = basis.grid
    lines = iter(pathlib.Path(path).read_text().splitlines())
    assert next(lines) == "msplit-basis 2"
    assert next(lines) == (f"{g.nx_coarse} {g.ny_coarse} {g.refine} "
                           f"{basis.n_modes} {len(basis.nodes)}")
    for node, eigenvalues, (support, vectors) in zip(
            basis.nodes, basis.eigenvalues, basis_blocks(basis)):
        assert next(lines) == f"node {node}"
        assert [float(v) for v in next(lines).split()] == list(eigenvalues)
        assert next(lines) == f"support {len(support)}"
        for index, row in zip(support, vectors):
            fields = next(lines).split()
            assert int(fields[0]) == index
            assert [float(v) for v in fields[1:]] == list(row)
    assert next(lines, None) is None
