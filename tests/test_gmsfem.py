"""Offline multiscale construction: snapshots, spectral modes, prolongation."""

import numpy as np
import pytest
import scipy.sparse as sp

from msplit import gmsfem, linalg, splitting
from msplit.fineassembly import Permeability, assemble
from msplit.grid import GridPair, neighborhood
from msplit.linalg import NumericalError

from _oracles import dense_q1_matrices, oracle_snapshots


def wavy_kappa(x, y):
    return 1.0 + x + 2.0 * y ** 2 + 0.5 * np.sin(6.0 * x * y)


@pytest.fixture(scope="module")
def small():
    g = GridPair(2, 2, 3)
    fs = assemble(g, Permeability.from_callable(wavy_kappa),
                  source=lambda t, x, y: (1.0 + t) * np.cos(x + y),
                  initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    return g, fs


# --- snapshots ---

def test_snapshots_preserve_constants(small):
    # data identically one extends harmonically to one for any permeability,
    # so the snapshot columns sum to one at every neighborhood node
    g, fs = small
    for node in (4, 1, 0):
        snaps = gmsfem.build_snapshots(fs, neighborhood(g, node))
        sums = snaps.columns.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_snapshots_min_max_principle(small):
    g, fs = small
    snaps = gmsfem.build_snapshots(fs, neighborhood(g, 4))
    assert snaps.columns.min() >= -1e-12
    assert snaps.columns.max() <= 1.0 + 1e-12


def test_snapshots_kronecker_data_on_boundary(small):
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    rows = np.searchsorted(nb.nodes, nb.boundary)
    assert np.allclose(snaps.columns[rows], np.eye(nb.n_boundary), atol=1e-14)


@pytest.mark.parametrize("node", [4, 1, 0])
def test_snapshots_match_dense_oracle(small, node):
    # interior node (4 cells with a center vertex), edge node (2 cells), and
    # corner node (1 cell) against a from-scratch dense reconstruction
    g, fs = small
    nb = neighborhood(g, node)
    snaps = gmsfem.build_snapshots(fs, nb)
    expected = oracle_snapshots(g, fs.kappa_cells, nb)
    assert np.max(np.abs(snaps.columns - expected)) < 1e-10


def test_snapshots_dense_oracle_unit_kappa():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0))
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    expected = oracle_snapshots(g, fs.kappa_cells, nb)
    assert np.max(np.abs(snaps.columns - expected)) < 1e-12


# --- spectral pencil ---

def test_spectral_weight_formula():
    g = GridPair(3, 2, 4)
    kappa = 1.5 * np.ones((g.ny_fine, g.nx_fine))
    weight = gmsfem.spectral_mass_weight(g, kappa)
    assert weight.shape == (g.ny_fine, g.nx_fine)
    # check one off-axis cell against the hand formula: the squared hat
    # gradients summed over the four corners of the coarse cell
    fx, fy = 5, 3
    s = ((fx % g.refine) + 0.5) / g.refine
    t = ((fy % g.refine) + 0.5) / g.refine
    grad2 = (2.0 * ((1 - t) ** 2 + t ** 2) / g.coarse_hx ** 2
             + 2.0 * ((1 - s) ** 2 + s ** 2) / g.coarse_hy ** 2)
    expected = g.coarse_hx * g.coarse_hy * 1.5 * grad2
    assert abs(weight[fy, fx] - expected) < 1e-14 * expected


def test_spectral_matrices_match_dense_forms(small):
    # full-domain neighborhood: both forms equal the dense quadrature
    # matrices sandwiched between snapshot columns
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    dmass, dstiff = dense_q1_matrices(g, fs.kappa_cells, mass_weight_cells=weight)
    ids = nb.nodes
    want_a = snaps.columns.T @ dstiff[np.ix_(ids, ids)] @ snaps.columns
    want_s = snaps.columns.T @ dmass[np.ix_(ids, ids)] @ snaps.columns
    assert np.max(np.abs(astiff - want_a)) < 1e-10
    assert np.max(np.abs(smass - want_s)) < 1e-10


def test_spectral_matrices_restrict_to_neighborhood(small):
    # edge-node neighborhood covers half the domain; integration must not
    # leak outside it, so compare against dense forms with the outside zeroed
    g, fs = small
    nb = neighborhood(g, 1)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    inside = np.zeros(g.n_fine_cells, dtype=bool)
    for cell in nb.cells:
        inside[g.coarse_cell_fine_cells(int(cell))] = True
    kappa = np.where(inside, fs.kappa_cells.ravel(), 0.0)
    weight = np.where(inside,
                      gmsfem.spectral_mass_weight(g, fs.kappa_cells).ravel(), 0.0)
    dmass, dstiff = dense_q1_matrices(g, kappa, mass_weight_cells=weight)
    ids = nb.nodes
    want_a = snaps.columns.T @ dstiff[np.ix_(ids, ids)] @ snaps.columns
    want_s = snaps.columns.T @ dmass[np.ix_(ids, ids)] @ snaps.columns
    assert np.max(np.abs(astiff - want_a)) < 1e-10
    assert np.max(np.abs(smass - want_s)) < 1e-10


def test_spectral_matrices_symmetric(small):
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    assert np.array_equal(astiff, astiff.T)
    assert np.array_equal(smass, smass.T)


def test_first_eigenvalue_near_zero(small):
    # constants lie in the snapshot space and have no stiffness energy, so
    # the smallest pencil eigenvalue sits at numerical zero
    g, fs = small
    modes = gmsfem.offline_modes(fs, 4)
    for m in modes:
        assert m.eigenvalues[0] < 1e-10 * m.eigenvalues[-1]
        assert np.all(np.diff(m.eigenvalues) >= 0)


def test_offline_modes_rejects_oversized_request(small):
    g, fs = small
    with pytest.raises(ValueError, match="snapshots"):
        gmsfem.offline_modes(fs, 8 * g.refine + 1)


# --- BLAS thread pin ---

def _blas_threads(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def two_blas_threads():
    """Every found OpenBLAS set to two threads; the original counts come back after."""
    controls = linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no loaded OpenBLAS exports thread-count symbols")
    original = _blas_threads(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, original):
        put(count)


def test_offline_modes_pins_blas_to_one_thread(small, two_blas_threads, monkeypatch):
    g, fs = small
    seen = []

    def recording_eig_gsym(*args, **kwargs):
        seen.append(_blas_threads(two_blas_threads))
        return linalg.eig_gsym(*args, **kwargs)

    monkeypatch.setattr(gmsfem, "eig_gsym", recording_eig_gsym)
    gmsfem.offline_modes(fs, 3)
    assert len(seen) == len(g.interior_coarse_ids)
    assert all(counts == [1] * len(two_blas_threads) for counts in seen)
    assert _blas_threads(two_blas_threads) == [2] * len(two_blas_threads)


def test_offline_modes_restores_blas_threads_after_error(small, two_blas_threads):
    g, fs = small
    with pytest.raises(ValueError, match="snapshots"):
        gmsfem.offline_modes(fs, 8 * g.refine + 1)
    assert _blas_threads(two_blas_threads) == [2] * len(two_blas_threads)


def test_offline_modes_runs_unpinned_without_thread_controls(small, monkeypatch):
    g, fs = small
    pinned = gmsfem.offline_modes(fs, 4)
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [])
    unpinned = gmsfem.offline_modes(fs, 4)
    assert [m.node for m in unpinned] == [m.node for m in pinned]
    for a, b in zip(pinned, unpinned):
        assert np.allclose(b.eigenvalues, a.eigenvalues, rtol=0.0,
                           atol=1e-12 * a.eigenvalues.max())


# --- localized basis ---

def test_basis_energy_orthonormal_per_neighborhood(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    for sup, block in zip(basis.supports, basis.vectors):
        sub = fs.stiffness[sup][:, sup]
        gram = block.T @ (sub @ block)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_basis_without_orthonormalization_differs(small):
    g, fs = small
    modes = gmsfem.offline_modes(fs, 3)
    raw = gmsfem.assemble_basis(fs, modes, 3, orthonormalize=False)
    assert not raw.orthonormalized
    sup, block = raw.supports[0], raw.vectors[0]
    sub = fs.stiffness[sup][:, sup]
    gram = block.T @ (sub @ block)
    assert np.max(np.abs(gram - np.eye(3))) > 1e-6


def test_basis_vanishes_outside_neighborhood(small):
    # every stored dof of neighborhood i lies strictly inside its box
    g, fs = small
    basis = gmsfem.build_offline(fs, 3)
    nper = g.nx_fine + 1
    for node, sup in zip(basis.nodes, basis.supports):
        nb = neighborhood(g, int(node))
        box = nb.nodes
        ix0, ix1 = (box % nper).min(), (box % nper).max()
        iy0, iy1 = (box // nper).min(), (box // nper).max()
        fine_ids = g.interior_fine_ids[sup]
        assert np.all(fine_ids % nper > ix0)
        assert np.all(fine_ids % nper < ix1)
        assert np.all(fine_ids // nper > iy0)
        assert np.all(fine_ids // nper < iy1)


def test_assemble_basis_mode_count_guard(small):
    g, fs = small
    modes = gmsfem.offline_modes(fs, 3)
    with pytest.raises(ValueError, match="stores only"):
        gmsfem.assemble_basis(fs, modes, 5)


def test_gram_schmidt_rejects_dependent_columns():
    stiff = sp.identity(4, format="csr")
    block = np.ones((4, 2))
    with pytest.raises(NumericalError, match="degenerated"):
        gmsfem._energy_gram_schmidt(block, stiff, node=0)


# --- prolongation ---

def test_prolongation_shapes_and_metadata(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    n_nb = len(basis.nodes)
    assert prol.matrix.shape == (fs.n_dof, 4 * n_nb)
    assert prol.n_columns == 4 * n_nb
    assert prol.block_sizes == (1, 3)
    # every column lives on the support of exactly one neighborhood
    csc = prol.matrix.tocsc()
    for col in range(prol.n_columns):
        rows = csc.indices[csc.indptr[col]:csc.indptr[col + 1]]
        assert len(rows) > 0
        assert any(np.all(np.isin(rows, sup)) for sup in basis.supports)


def test_prolongation_block_identity(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (2, 2))
    # per-block parts built straight from the basis, node-major within a block
    parts = []
    mode_offset = 0
    for b in prol.block_sizes:
        part = np.zeros((fs.n_dof, b * len(basis.nodes)))
        for i, sup in enumerate(basis.supports):
            part[sup, i * b:(i + 1) * b] = basis.vectors[i][:, mode_offset:mode_offset + b]
        parts.append(part)
        mode_offset += b
    rng = np.random.default_rng(7)
    z = rng.standard_normal(prol.n_columns)
    lhs = prol.matrix @ z
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    rhs = sum(parts[q] @ z[offsets[q]:offsets[q + 1]]
              for q in range(len(parts)))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_prolongation_columns_follow_block_order():
    # four interior coarse nodes, so node-major and mode-major orders differ
    g = GridPair(3, 3, 3)
    fs = assemble(g, Permeability.from_callable(wavy_kappa))
    basis = gmsfem.build_offline(fs, 4)
    n_nb = len(basis.nodes)
    assert n_nb == 4
    for blocks in ((1, 3), (2, 2)):
        prol = gmsfem.assemble_prolongation(basis, blocks)
        assert prol.block_sizes == blocks
        assert prol.matrix.shape == (fs.n_dof, 4 * n_nb)
        dense = prol.matrix.toarray()
        mode_offset = 0
        for b in blocks:
            for i, sup in enumerate(basis.supports):
                for k in range(mode_offset, mode_offset + b):
                    col = n_nb * mode_offset + i * b + (k - mode_offset)
                    want = np.zeros(fs.n_dof)
                    want[sup] = basis.vectors[i][:, k]
                    assert np.array_equal(dense[:, col], want), (blocks, i, k)
            mode_offset += b


def test_prolongation_validates_blocks(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    with pytest.raises(ValueError, match="sum"):
        gmsfem.assemble_prolongation(basis, (1, 2))
    with pytest.raises(ValueError, match="positive"):
        gmsfem.assemble_prolongation(basis, (5, -1))


def test_dof_counts_on_production_grid(ex1):
    prol6 = gmsfem.assemble_prolongation(ex1["basis6"], (1, 5))
    prol10 = gmsfem.assemble_prolongation(ex1["basis10"], (1, 9))
    assert prol6.matrix.shape[1] == 1350
    assert prol10.matrix.shape[1] == 2250


# --- coarse projection ---

def test_coarse_blocks_match_projected_operators(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    cs = gmsfem.project_coarse(fs, prol)
    pmat = prol.matrix
    want_mass = (pmat.T @ fs.mass @ pmat).toarray()
    want_stiff = (pmat.T @ fs.stiffness @ pmat).toarray()
    assert np.max(np.abs(cs.mass.toarray() - want_mass)) < 1e-12
    assert np.max(np.abs(cs.stiff.toarray() - want_stiff)) < 1e-12


def test_coarse_operators_are_exactly_symmetric(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (2, 2))
    cs = gmsfem.project_coarse(fs, prol)
    for mat in (cs.mass, cs.stiff):
        assert sp.isspmatrix_csr(mat) and mat.has_sorted_indices
        assert (mat != mat.T).nnz == 0


def test_coarse_rhs_projects_load(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 3)
    prol = gmsfem.assemble_prolongation(basis, (3,))
    cs = gmsfem.project_coarse(fs, prol)
    t = 0.75
    want = prol.matrix.T @ fs.load(t)
    assert np.allclose(cs.rhs(t), want, atol=1e-14)


def test_initial_vector_moments_and_projection(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    moments = prol.matrix.T @ (fs.mass @ fs.initial_vector())
    cs_m = gmsfem.project_coarse(fs, prol, initial="moments")
    assert np.allclose(cs_m.z0, moments, atol=1e-14)
    cs_p = gmsfem.project_coarse(fs, prol, initial="projection")
    assert np.max(np.abs(cs_p.mass @ cs_p.z0 - moments)) < 1e-10
    with pytest.raises(ValueError, match="initial-vector"):
        gmsfem.project_coarse(fs, prol, initial="l2")


def test_projection_mass_factor_serves_the_whole_run(small, factorizations):
    # project_coarse factors C and B once each for its definiteness check;
    # the projection solve and the energy monitor reuse the factor of C, so
    # a reference plus a split run adds only C + tau*B and the step matrix
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    cs = gmsfem.project_coarse(fs, prol, initial="projection")
    assert factorizations == ["coarse mass", "coarse stiffness"]
    config = splitting.SplitConfig(tau=0.05, t_final=0.2, theta_mass=1.0,
                                   theta_stiff=1.0)
    splitting.backward_euler(cs, config.tau, config.t_final)
    split = splitting.march(cs, splitting.make_split(cs), config)
    assert split.energy is not None
    assert len(factorizations) == 4


def test_projection_initial_reconstructs_l2_projection(small):
    # with one full block the reconstructed field is the L2 projection of
    # the initial data: the residual is mass-orthogonal to the coarse space
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (4,))
    cs = gmsfem.project_coarse(fs, prol, initial="projection")
    recon = prol.matrix @ cs.z0
    resid = prol.matrix.T @ (fs.mass @ (fs.initial_vector() - recon))
    assert np.max(np.abs(resid)) < 1e-10


# --- dump and reload ---

def test_basis_roundtrip_exact(small, tmp_path):
    g, fs = small
    basis = gmsfem.build_offline(fs, 3)
    path = tmp_path / "basis.txt"
    gmsfem.dump_basis(basis, path)
    back = gmsfem.load_basis(path)
    assert back.n_modes == basis.n_modes
    assert back.orthonormalized == basis.orthonormalized
    assert np.array_equal(back.nodes, basis.nodes)
    assert np.array_equal(back.eigenvalues, basis.eigenvalues)
    for a, b in zip(basis.supports, back.supports):
        assert np.array_equal(a, b)
    for a, b in zip(basis.vectors, back.vectors):
        assert np.array_equal(a, b)
    assert (back.grid.nx_coarse, back.grid.ny_coarse, back.grid.refine) == \
        (g.nx_coarse, g.ny_coarse, g.refine)


def test_load_basis_rejects_other_files(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a basis\n1 2 3\n")
    with pytest.raises(ValueError, match="not a basis dump"):
        gmsfem.load_basis(path)
