import numpy as np
import pytest

from msplit import driver
from msplit.fineassembly import (BoxSum, Permeability, Source, assemble,
                                 assemble_matrices, interpolate, norms,
                                 read_grid_file, write_field, write_grid_file)
from msplit.grid import GridPair, neighborhood

from _oracles import coarse_cell_fine_cells, dense_q1_matrices, scatter_load, space_time
from conftest import rng_for


def kappa_smooth():
    return Permeability(lambda x, y: 1.0 + x + 2.0 * y * y)


def all_cells(g):
    return np.arange(g.nx_coarse * g.ny_coarse)


def all_node_matrices(g, fs):
    """Mass and stiffness over every fine node, no boundary conditions."""
    return BoxSum(g, all_cells(g), np.arange(g.n_fine_nodes)).matrices(fs.kappa_cells)


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
    vec = BoxSum(g, all_cells(g), g.interior_fine_ids).load(lambda x, y: np.ones_like(x))
    mass_all, _ = all_node_matrices(g, fs)
    expected = (mass_all @ np.ones(g.n_fine_nodes))[g.interior_fine_ids]
    assert np.allclose(vec, expected, atol=1e-14)


GRIDS = [(3, 3, 3), (2, 3, 4), (1, 1, 1), (5, 2, 2)]


def _assert_close(got, want):
    # within 1e-14 of the largest entry; an empty load (no interior node) passes
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)


def _outside_zeroed(g, field, coarse_cells):
    """A fine-cell field, zero outside the fine cells of ``coarse_cells``."""
    inside = np.zeros(g.n_fine_cells, dtype=bool)
    for cell in coarse_cells:
        inside[coarse_cell_fine_cells(g, int(cell))] = True
    return np.where(inside, np.asarray(field).ravel(), 0.0)


@pytest.mark.parametrize("shape", GRIDS)
def test_box_sum_matrices_match_the_quadrature_oracle(shape):
    # every node, the interior nodes, each coarse cell alone and every coarse
    # node's neighborhood (one, two or four cells, a weighted mass)
    g = GridPair(*shape)
    fs = assemble(g, kappa_smooth())
    weight = 1.0 + np.arange(g.n_fine_cells, dtype=float)
    dense = dense_q1_matrices(g, fs.kappa_cells)
    for got, want in zip(all_node_matrices(g, fs), dense):
        _assert_close(got.toarray(), want)
    keep = g.interior_fine_ids
    for got, want in zip(assemble_matrices(fs), dense):
        _assert_close(got.toarray(), want[np.ix_(keep, keep)])
    patches = [(cell, [cell], g.coarse_cell_boxes([cell])[0], None) for cell in all_cells(g)]
    patches += [(f"node {nb.node}", nb.cells, nb.nodes, weight)
                for nb in (neighborhood(g, node) for node in range(g.n_coarse_nodes))]
    for name, cells, nodes, mass_weight in patches:
        got = BoxSum(g, cells, nodes).matrices(fs.kappa_cells, mass_weight)
        want = dense_q1_matrices(
            g, _outside_zeroed(g, fs.kappa_cells, cells),
            _outside_zeroed(g, np.ones(g.n_fine_cells) if mass_weight is None else mass_weight,
                            cells))
        for got_mat, want_mat in zip(got, want):
            assert (got_mat != got_mat.T).nnz == 0, name
            _assert_close(got_mat.toarray(), want_mat[np.ix_(nodes, nodes)])


@pytest.mark.parametrize("shape", GRIDS)
@pytest.mark.parametrize("source", [
    Source(lambda x, y: x * y, lambda t: 1.0 + t),
    Source(driver._sine, driver._pulse),
], ids=["linear-in-time", "pulsed-sine"])
def test_box_sum_load_matches_the_scatter_oracle(source, shape):
    # the load of a(t) g(x, y) is a(t) times the one load of g
    g = GridPair(*shape)
    load = BoxSum(g, all_cells(g), g.interior_fine_ids).load(source.space)
    for t in (0.0, 0.35, 1.0):
        _assert_close(source.time(np.array([t]))[0] * load,
                      scatter_load(g, space_time(source), t))


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
