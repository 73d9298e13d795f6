import numpy as np
import pytest

from msplit import driver
from msplit.fineassembly import (LoadOperator, Permeability, assemble,
                                 assemble_matrices, interpolate, local_matrices, norms,
                                 read_grid_file, write_field, write_grid_file)
from msplit.grid import GridPair

from _oracles import coo_load_matrix, dense_q1_matrices, scatter_load
from conftest import rng_for


def kappa_smooth():
    return Permeability(lambda x, y: 1.0 + x + 2.0 * y * y)


def all_node_matrices(g, fs):
    """Mass and stiffness over every fine node, no boundary conditions."""
    return local_matrices(g, fs.kappa_cells, np.arange(g.n_fine_cells),
                          np.arange(g.n_fine_nodes))


def test_assembly_matches_quadrature_oracle():
    g = GridPair(2, 2, 2)
    fs = assemble(g, kappa_smooth())
    mass, stiff = dense_q1_matrices(g, fs.kappa_cells)
    mass_all, stiff_all = all_node_matrices(g, fs)
    assert np.allclose(mass_all.toarray(), mass, atol=1e-12)
    assert np.allclose(stiff_all.toarray(), stiff, atol=1e-12)


def test_assembly_oracle_on_rectangular_grid():
    g = GridPair(3, 2, 2)
    fs = assemble(g, kappa_smooth())
    mass, stiff = dense_q1_matrices(g, fs.kappa_cells)
    mass_all, stiff_all = all_node_matrices(g, fs)
    assert np.allclose(mass_all.toarray(), mass, atol=1e-12)
    assert np.allclose(stiff_all.toarray(), stiff, atol=1e-12)


def test_mass_total_and_stiffness_null_space():
    g = GridPair(4, 4, 3)
    fs = assemble(g, kappa_smooth())
    mass_all, stiff_all = all_node_matrices(g, fs)
    ones = np.ones(g.n_fine_nodes)
    assert ones @ (mass_all @ ones) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(stiff_all @ ones).max() < 1e-12


def test_energy_of_linear_field():
    # u = x has unit energy for unit permeability on the unit square
    g = GridPair(3, 5, 2)
    fs = assemble(g, Permeability.constant(1.0))
    _, stiff_all = all_node_matrices(g, fs)
    x, _ = g.fine_coords
    assert x @ (stiff_all @ x) == pytest.approx(1.0, abs=1e-12)


def test_interpolated_sine_norms():
    g = GridPair(8, 8, 8)
    fs = assemble(g, Permeability.constant(1.0))
    u = interpolate(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    l2, energy = norms(*assemble_matrices(fs), u)
    assert l2 == pytest.approx(0.5, abs=2e-3)
    assert energy == pytest.approx(np.pi / np.sqrt(2.0), abs=5e-3)


def test_norms_shape_check():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0))
    with pytest.raises(ValueError):
        norms(*assemble_matrices(fs), np.zeros(g.n_fine_nodes))


def test_load_of_unit_source_is_mass_row_sum():
    g = GridPair(3, 3, 3)
    fs = assemble(g, kappa_smooth())
    vec = LoadOperator(g).load(lambda t, x, y: np.ones_like(x))
    mass_all, _ = all_node_matrices(g, fs)
    expected = (mass_all @ np.ones(g.n_fine_nodes))[g.interior_fine_ids]
    assert np.allclose(vec, expected, atol=1e-14)


def test_load_time_scaling_and_none():
    g = GridPair(2, 2, 2)
    loads = LoadOperator(g)
    base = loads.load(lambda t, x, y: (1.0 + t) * x * y, t=0.0)
    late = loads.load(lambda t, x, y: (1.0 + t) * x * y, t=3.0)
    assert np.allclose(late, 4.0 * base, atol=1e-14)
    assert np.array_equal(loads.load(None), np.zeros(g.n_interior_fine))


@pytest.mark.parametrize("source", [
    lambda t, x, y: (1.0 + t) * x * y,
    driver._source_pulsed_sine,
], ids=["linear-in-time", "pulsed-sine"])
def test_load_matches_scatter_oracle_bit_for_bit(source):
    # hx = 1/9: the quadrature weight is no power of two, so only the same
    # products summed in the same order give the same bits
    g = GridPair(3, 3, 3)
    loads = LoadOperator(g)
    for t in (0.0, 0.35, 1.0):
        want = scatter_load(g, source, t)
        assert np.array_equal(loads.load(source, t), want)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 4), (1, 1, 1), (5, 2, 2)])
def test_load_operator_csr_arrays_equal_the_coo_build(shape):
    # the CSR arrays written row by row are those a COO build converts to
    g = GridPair(*shape)
    got = LoadOperator(g).matrix
    want = coo_load_matrix(g)
    for a, b in ((got.data, want.data), (got.indices, want.indices),
                 (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_load_operator_shape():
    g = GridPair(3, 3, 3)
    loads = LoadOperator(g)
    assert loads.x.shape == loads.y.shape == (4 * g.n_fine_cells,)
    assert loads.matrix.shape == (g.n_interior_fine, 4 * g.n_fine_cells)
    # each Gauss point feeds the interior corners of its cell only
    per_column = np.diff(loads.matrix.tocsc().indptr)
    assert per_column.max() == 4 and per_column.min() >= 1


def test_local_matrices_match_submatrix():
    g = GridPair(3, 3, 2)
    fs = assemble(g, kappa_smooth())
    cells = g.coarse_cell_fine_cells(4)
    nodes = g.fine_nodes_in_box(2, 4, 2, 4)
    mass, stiff = local_matrices(g, fs.kappa_cells, cells, nodes)
    full_stiff = dense_q1_matrices(
        g, np.where(np.isin(np.arange(g.n_fine_cells), cells),
                    fs.kappa_cells.ravel(), 0.0))[1]
    assert np.allclose(stiff.toarray(), full_stiff[np.ix_(nodes, nodes)],
                       atol=1e-12)
    assert np.allclose(mass.toarray(), mass.toarray().T)


def test_local_matrices_mass_weight():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0))
    cells = np.arange(g.n_fine_cells)
    nodes = np.arange(g.n_fine_nodes)
    weight = 1.0 + np.arange(g.n_fine_cells, dtype=float)
    mass, _ = local_matrices(g, fs.kappa_cells, cells, nodes,
                             mass_weight_cells=weight)
    oracle = dense_q1_matrices(g, fs.kappa_cells, mass_weight_cells=weight)[0]
    assert np.allclose(mass.toarray(), oracle, atol=1e-12)


def test_local_matrices_node_coverage_error():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0))
    with pytest.raises(ValueError):
        local_matrices(g, fs.kappa_cells, np.array([0]), np.array([0, 1]))


def test_permeability_validation():
    with pytest.raises(ValueError):
        Permeability.constant(-2.0)
    g = GridPair(2, 2, 2)
    bad = Permeability(lambda x, y: x - 10.0)
    with pytest.raises(ValueError):
        bad.cell_values(g)


def test_permeability_cell_values_shape():
    g = GridPair(3, 2, 2)
    vals = kappa_smooth().cell_values(g)
    assert vals.shape == (g.ny_fine, g.nx_fine)
    # bottom-left cell center
    assert vals[0, 0] == pytest.approx(1.0 + g.hx / 2 + 2.0 * (g.hy / 2) ** 2)


def test_raster_orientation_and_sampling(tmp_path):
    path = tmp_path / "field.txt"
    write_grid_file(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    kappa = Permeability.from_raster(path)
    # first file row is the top of the domain
    assert kappa.evaluate(0.25, 0.75) == 1.0
    assert kappa.evaluate(0.75, 0.75) == 2.0
    assert kappa.evaluate(0.25, 0.25) == 3.0
    assert kappa.evaluate(0.75, 0.25) == 4.0


def test_raster_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.txt"
    write_grid_file(path, np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        Permeability.from_raster(path)


def test_grid_file_roundtrip(tmp_path):
    rng = rng_for("grid_file_roundtrip")
    array = np.exp(rng.standard_normal((5, 3)))
    path = tmp_path / "grid.txt"
    write_grid_file(path, array)
    assert np.array_equal(read_grid_file(path), array)


def test_grid_file_errors(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("2\n1.0 2.0\n")
    with pytest.raises(ValueError):
        read_grid_file(path)
    path.write_text("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        read_grid_file(path)
    path.write_text("2 2\n1.0 2.0 3.0 abc\n")
    with pytest.raises(ValueError):
        read_grid_file(path)


def test_field_roundtrip(tmp_path):
    g = GridPair(3, 2, 2)
    rng = rng_for("field_roundtrip")
    vec = rng.standard_normal(g.n_interior_fine)
    path = tmp_path / "field.txt"
    write_field(path, g, vec)
    # rows run from y = max down; boundary nodes are written as zeros
    full = read_grid_file(path)[::-1].ravel()
    assert np.array_equal(full[g.interior_fine_ids], vec)
    assert not np.any(full[g.dirichlet_mask])


def test_initial_vector_and_interpolate():
    g = GridPair(4, 4, 2)
    fs = assemble(g, Permeability.constant(1.0),
                  initial=lambda x, y: x * y)
    u = fs.initial_vector()
    x, y = g.fine_coords
    keep = g.interior_fine_ids
    assert np.allclose(u, x[keep] * y[keep])
    fs_zero = assemble(g, Permeability.constant(1.0))
    assert np.array_equal(fs_zero.initial_vector(), np.zeros(fs.n_dof))
