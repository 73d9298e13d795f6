import numpy as np
import pytest

from msplit.grid import GridPair, neighborhood, partition_of_unity

from _oracles import coarse_cell_fine_cells


def test_counts_on_square_grid():
    g = GridPair(16, 16, 16)
    assert g.nx_fine == 256 and g.ny_fine == 256
    assert g.n_fine_nodes == 257 * 257
    assert g.n_interior_fine == 255 * 255
    assert g.n_interior_coarse == 225
    assert g.n_coarse_nodes == 17 * 17
    assert g.hx == pytest.approx(1.0 / 256)
    assert g.coarse_hx == pytest.approx(1.0 / 16)


def test_counts_on_rectangular_grid():
    g = GridPair(3, 5, 4)
    assert g.nx_fine == 12 and g.ny_fine == 20
    assert g.n_fine_cells == 240
    assert g.n_interior_coarse == 2 * 4
    assert g.hx == pytest.approx(1.0 / 12)
    assert g.hy == pytest.approx(1.0 / 20)


def test_node_numbering_row_major():
    # fine node (ix, iy) has id iy * (nx_fine + 1) + ix
    g = GridPair(2, 2, 2)
    x, y = g.fine_coords
    assert (x[4], y[4]) == (1.0, 0.0)
    assert (x[5], y[5]) == (0.0, 0.25)
    node = 2 * (g.nx_fine + 1) + 3
    assert x[node] == pytest.approx(0.75)
    assert y[node] == pytest.approx(0.5)


def test_coarse_node_roundtrip():
    g = GridPair(4, 3, 2)
    for node in range(g.n_coarse_nodes):
        cx, cy = g.coarse_node_grid(node)
        assert g.coarse_node_id(cx, cy) == node
    with pytest.raises(ValueError):
        g.coarse_node_grid(g.n_coarse_nodes)


def test_interior_coarse_ids():
    g = GridPair(3, 3, 2)
    ids = g.interior_coarse_ids
    assert len(ids) == 4
    assert all(0 < i % 4 < 3 and 0 < i // 4 < 3 for i in ids)
    assert list(ids) == sorted(ids)
    # corners and edges excluded
    assert 0 not in ids and g.coarse_node_id(1, 0) not in ids


def test_dirichlet_mask_and_interior_index():
    g = GridPair(2, 3, 2)
    mask = g.dirichlet_mask
    # boundary node count of an (nx+1) x (ny+1) node grid
    expected = 2 * (g.nx_fine + 1) + 2 * (g.ny_fine - 1)
    assert mask.sum() == expected
    # the interior dofs are the other nodes, ascending
    inner = g.interior_fine_ids
    ix, iy = inner % (g.nx_fine + 1), inner // (g.nx_fine + 1)
    assert len(inner) == (g.nx_fine - 1) * (g.ny_fine - 1) and np.all(np.diff(inner) > 0)
    assert np.all((ix > 0) & (ix < g.nx_fine) & (iy > 0) & (iy < g.ny_fine))


def test_coarse_cell_fine_cells_partition():
    g = GridPair(3, 2, 4)
    seen = np.concatenate([coarse_cell_fine_cells(g, c)
                           for c in range(g.nx_coarse * g.ny_coarse)])
    assert np.array_equal(np.sort(seen), np.arange(g.n_fine_cells))


def test_fine_nodes_in_box():
    g = GridPair(2, 2, 3)
    nodes = g.fine_nodes_in_box(1, 3, 2, 4)
    assert len(nodes) == 9
    assert np.all(np.diff(nodes) > 0)
    # fine (1, 2) and (3, 4) on the 7-node-wide fine grid
    assert nodes[0] == 2 * 7 + 1
    assert nodes[-1] == 4 * 7 + 3


def test_neighborhood_interior_node():
    g = GridPair(4, 4, 8)
    node = g.coarse_node_id(2, 2)
    nb = neighborhood(g, node)
    assert len(nb.cells) == 4
    assert nb.n_boundary == 8 * g.refine
    assert len(nb.nodes) == (2 * 8 + 1) ** 2
    merged = np.sort(np.concatenate([nb.boundary, nb.interior]))
    assert np.array_equal(merged, nb.nodes)
    ix0, ix1, iy0, iy1 = nb.box
    assert (ix1 - ix0, iy1 - iy0) == (16, 16)


def test_neighborhood_edge_and_corner_nodes():
    g = GridPair(4, 4, 2)
    edge = neighborhood(g, g.coarse_node_id(0, 2))
    assert len(edge.cells) == 2
    corner = neighborhood(g, g.coarse_node_id(0, 0))
    assert len(corner.cells) == 1


def test_partition_of_unity_sums_to_one():
    g = GridPair(3, 4, 3)
    total = np.zeros(g.n_fine_nodes)
    for node in range(g.n_coarse_nodes):
        total += partition_of_unity(g, node)
    assert np.allclose(total, 1.0, atol=1e-14)


def test_partition_of_unity_hat_shape():
    g = GridPair(4, 4, 4)
    node = g.coarse_node_id(2, 1)
    hat = partition_of_unity(g, node)
    # the node sits at fine (8, 4) on the 17-node-wide fine grid
    own = 4 * 17 + 8
    assert hat[own] == pytest.approx(1.0)
    assert hat.min() == 0.0
    # bilinear value halfway to a neighboring coarse node
    half = own + g.refine // 2
    assert hat[half] == pytest.approx(0.5)
    # zero outside the neighborhood box
    nb = neighborhood(g, node)
    outside = np.setdiff1d(np.arange(g.n_fine_nodes), nb.nodes)
    assert np.all(hat[outside] == 0.0)
    assert np.all(hat[nb.boundary] == 0.0)


def test_partition_of_unity_at_neighborhood_nodes_is_bit_identical():
    # the hat sampled at a neighborhood's nodes only must equal, bit for
    # bit, the full-grid sample indexed there, for every kind of node
    g = GridPair(4, 3, 5)
    r = g.refine
    ids = np.arange(g.n_fine_nodes)
    ix, iy = ids % (g.nx_fine + 1), ids // (g.nx_fine + 1)
    for node in range(g.n_coarse_nodes):
        cx, cy = g.coarse_node_grid(node)
        full = (np.maximum(0.0, 1.0 - np.abs(ix - cx * r) / r)
                * np.maximum(0.0, 1.0 - np.abs(iy - cy * r) / r))
        assert np.array_equal(partition_of_unity(g, node), full)
        nodes = neighborhood(g, node).nodes
        assert np.array_equal(partition_of_unity(g, node, nodes), full[nodes])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridPair(0, 2, 2)
    with pytest.raises(ValueError):
        GridPair(2, 2, 0)


def test_partition_of_unity_is_one_array_at_every_interior_node():
    # in fine offsets from the node the hat of every interior node is the
    # same (2r - 1)^2 array, the shifted product (1 - |i - r| / r)(1 - |j - r| / r);
    # the absolute-coordinate hat agrees with it to rounding
    for g in (GridPair(2, 2, 3), GridPair(4, 3, 5)):
        r = g.refine
        t = 1.0 - np.abs(np.arange(1, 2 * r) - r) / r
        want = np.outer(t, t).ravel()
        x, y = g.fine_coords
        for node in g.interior_coarse_ids:
            interior = neighborhood(g, int(node)).interior
            assert np.array_equal(partition_of_unity(g, int(node), interior), want)
            cx, cy = g.coarse_node_grid(int(node))
            xc, yc = cx * g.coarse_hx, cy * g.coarse_hy
            absolute = ((1.0 - np.abs(x[interior] - xc) / g.coarse_hx)
                        * (1.0 - np.abs(y[interior] - yc) / g.coarse_hy))
            assert np.max(np.abs(absolute - want)) <= 1e-15, node
