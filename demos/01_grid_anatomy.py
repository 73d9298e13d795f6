"""Tour of the grid layer: the coarse/fine pair, neighborhoods, hats.

Everything downstream (snapshots, spectral problems, prolongation) is
indexed through these objects, so this demo prints the anatomy of a small
grid pair and checks the two properties the rest of the package leans on:
neighborhood boundaries are ascending, and the coarse hats sum to one at
every interior fine node.
"""

import numpy as np

from msplit.grid import GridPair, neighborhood, partition_of_unity


def describe_neighborhood(g, node, label):
    nb = neighborhood(g, node)
    cx, cy = g.coarse_node_grid(node)
    print(f"  {label} coarse node {node} at grid ({cx}, {cy}):")
    print(f"    coarse cells {[int(c) for c in nb.cells]}")
    print(f"    fine nodes {len(nb.nodes)}, boundary {len(nb.boundary)}, "
          f"interior {len(nb.interior)}")
    print(f"    fine index box (ix0, ix1, iy0, iy1) = {nb.box}")
    assert np.all(np.diff(nb.boundary) > 0), "boundary ids must ascend"


def main():
    g = GridPair(4, 4, 8)
    print(f"coarse grid: {g.nx_coarse} x {g.ny_coarse} cells, "
          f"{g.n_coarse_nodes} nodes ({g.n_interior_coarse} interior)")
    print(f"fine grid:   {g.nx_fine} x {g.ny_fine} cells, "
          f"{g.n_fine_nodes} nodes ({g.n_interior_fine} interior)")
    print(f"mesh sizes:  H = {g.coarse_hx:.4f}, h = {g.hx:.4f}")
    print()

    print("neighborhoods (the coarse cells sharing one coarse node):")
    describe_neighborhood(g, g.coarse_node_id(0, 0), "corner")
    describe_neighborhood(g, g.coarse_node_id(2, 0), "edge  ")
    describe_neighborhood(g, g.coarse_node_id(2, 2), "inner ")
    print()

    hats = np.zeros(g.n_fine_nodes)
    for node in range(g.n_coarse_nodes):
        hats += partition_of_unity(g, node)
    dev = np.abs(hats[g.interior_fine_ids] - 1.0).max()
    print(f"sum of all coarse hats over interior fine nodes: "
          f"max deviation from 1 is {dev:.2e}")


if __name__ == "__main__":
    main()
