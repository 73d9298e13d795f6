"""Nested rectangular grids on the unit square.

A coarse grid of ``nx_coarse x ny_coarse`` cells is refined ``refine`` times in
each direction to produce the fine grid. Coarse-node neighborhoods (the union
of coarse cells sharing the node) and the bilinear partition of unity defined
on them are the geometric backbone of the multiscale basis construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GridPair", "Neighborhood", "neighborhood", "partition_of_unity"]


@dataclass
class GridPair:
    """A coarse rectangular grid on (0,1)^2 with a conforming refinement.

    Node numbering on both grids is row-major from the bottom-left corner:
    the node in column ``ix`` and row ``iy`` has index ``iy * (nx + 1) + ix``
    where ``nx`` counts cells in the x direction. Rows run along x, so index
    increases fastest along x. Every matrix, basis column and field dump in
    this package relies on this ordering; treat instances as immutable.
    """

    nx_coarse: int
    ny_coarse: int
    refine: int

    def __post_init__(self):
        if self.nx_coarse < 1 or self.ny_coarse < 1:
            raise ValueError("need at least one coarse cell per direction")
        if self.refine < 1:
            raise ValueError("refinement factor must be at least 1")

    # fine grid dimensions
    @property
    def nx_fine(self) -> int:
        return self.nx_coarse * self.refine

    @property
    def ny_fine(self) -> int:
        return self.ny_coarse * self.refine

    @property
    def n_fine_nodes(self) -> int:
        return (self.nx_fine + 1) * (self.ny_fine + 1)

    @property
    def n_fine_cells(self) -> int:
        return self.nx_fine * self.ny_fine

    @property
    def n_coarse_nodes(self) -> int:
        return (self.nx_coarse + 1) * (self.ny_coarse + 1)

    @property
    def n_interior_coarse(self) -> int:
        return (self.nx_coarse - 1) * (self.ny_coarse - 1)

    # mesh spacings
    @property
    def hx(self) -> float:
        return 1.0 / self.nx_fine

    @property
    def hy(self) -> float:
        return 1.0 / self.ny_fine

    @property
    def coarse_hx(self) -> float:
        return 1.0 / self.nx_coarse

    @property
    def coarse_hy(self) -> float:
        return 1.0 / self.ny_coarse

    # node/cell indexing helpers
    def coarse_node_id(self, cx, cy):
        return cy * (self.nx_coarse + 1) + cx

    def coarse_node_grid(self, node: int) -> tuple[int, int]:
        if not 0 <= node < self.n_coarse_nodes:
            raise ValueError(f"coarse node {node} out of range")
        return node % (self.nx_coarse + 1), node // (self.nx_coarse + 1)

    @cached_property
    def interior_coarse_ids(self) -> np.ndarray:
        """Coarse node ids that carry basis functions, ascending."""
        cx = np.arange(1, self.nx_coarse)
        cy = np.arange(1, self.ny_coarse)
        gx, gy = np.meshgrid(cx, cy)
        return np.sort(self.coarse_node_id(gx, gy).ravel())

    @cached_property
    def fine_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinates of all fine nodes in node order."""
        x = np.arange(self.nx_fine + 1) * self.hx
        y = np.arange(self.ny_fine + 1) * self.hy
        gx, gy = np.meshgrid(x, y)
        return gx.ravel(), gy.ravel()

    @cached_property
    def dirichlet_mask(self) -> np.ndarray:
        """Boolean mask over fine nodes, true on the outer boundary."""
        mask = np.zeros((self.ny_fine + 1, self.nx_fine + 1), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask.ravel()

    @cached_property
    def interior_fine_ids(self) -> np.ndarray:
        return np.flatnonzero(~self.dirichlet_mask)

    @property
    def n_interior_fine(self) -> int:
        return len(self.interior_fine_ids)

    def coarse_cell_id(self, cx, cy):
        return cy * self.nx_coarse + cx

    def coarse_cell_grid(self, cell: int) -> tuple[int, int]:
        return cell % self.nx_coarse, cell // self.nx_coarse

    def coarse_cell_boxes(self, cells) -> np.ndarray:
        """Fine node ids of the closed boxes of coarse ``cells``, row-major: (cells, (r+1)^2)."""
        r = self.refine
        cells = np.asarray(cells)
        y, x = np.divmod(np.arange((r + 1) ** 2), r + 1)
        lower_left = (cells // self.nx_coarse * (self.nx_fine + 1) + cells % self.nx_coarse) * r
        return lower_left[:, None] + y * (self.nx_fine + 1) + x

    def fine_nodes_in_box(self, ix0: int, ix1: int, iy0: int, iy1: int) -> np.ndarray:
        """Fine node ids with ix0 <= ix <= ix1 and iy0 <= iy <= iy1, ascending."""
        ix = np.arange(ix0, ix1 + 1)
        iy = np.arange(iy0, iy1 + 1)
        gx, gy = np.meshgrid(ix, iy)
        return (gy * (self.nx_fine + 1) + gx).ravel()


@dataclass
class Neighborhood:
    """The coarse cells around one coarse node and their fine nodes.

    ``boundary`` lists the fine nodes on the neighborhood's outer boundary in
    ascending node-id order; this ordering indexes the snapshot columns and is
    therefore fixed.
    """

    node: int
    cells: np.ndarray      # flat coarse-cell ids, ascending
    nodes: np.ndarray      # fine node ids in the closed neighborhood, ascending
    boundary: np.ndarray   # fine node ids on the neighborhood boundary, ascending
    interior: np.ndarray   # nodes minus boundary, ascending
    box: tuple[int, int, int, int]  # fine index bounds (ix0, ix1, iy0, iy1)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary)


def neighborhood(g: GridPair, node: int) -> Neighborhood:
    """Collect the coarse cells sharing ``node`` and their fine nodes."""
    cx, cy = g.coarse_node_grid(node)
    cells_x = range(max(cx - 1, 0), min(cx, g.nx_coarse - 1) + 1)
    cells_y = range(max(cy - 1, 0), min(cy, g.ny_coarse - 1) + 1)
    cells = np.sort(np.array(
        [g.coarse_cell_id(ax, ay) for ay in cells_y for ax in cells_x], dtype=np.int64))

    r = g.refine
    ix0, ix1 = min(cells_x) * r, (max(cells_x) + 1) * r
    iy0, iy1 = min(cells_y) * r, (max(cells_y) + 1) * r
    nodes = g.fine_nodes_in_box(ix0, ix1, iy0, iy1)

    nxf = g.nx_fine
    ix = nodes % (nxf + 1)
    iy = nodes // (nxf + 1)
    on_edge = (ix == ix0) | (ix == ix1) | (iy == iy0) | (iy == iy1)
    boundary = nodes[on_edge]
    interior = nodes[~on_edge]
    return Neighborhood(node=node, cells=cells, nodes=nodes, boundary=boundary,
                        interior=interior, box=(ix0, ix1, iy0, iy1))


def partition_of_unity(g: GridPair, node: int, nodes=slice(None)) -> np.ndarray:
    """Bilinear hat of a coarse node sampled at the fine nodes ``nodes``.

    Equals one at the coarse node, zero on and outside its neighborhood
    boundary; the hats of all coarse nodes sum to one everywhere. ``nodes``
    indexes the fine node arrays (ids or a slice, every node by default);
    the values at a subset are bit for bit those of the full sample. The
    hat is evaluated in whole fine steps from the node, so two nodes whose
    neighborhoods are the same cell patch shifted have bit-equal values at
    the same offsets.
    """
    cx, cy = g.coarse_node_grid(node)
    r = g.refine
    ids = np.arange(g.n_fine_nodes)[nodes] if isinstance(nodes, slice) else np.asarray(nodes)
    ix, iy = ids % (g.nx_fine + 1), ids // (g.nx_fine + 1)
    tx = np.maximum(0.0, 1.0 - np.abs(ix - cx * r) / r)
    ty = np.maximum(0.0, 1.0 - np.abs(iy - cy * r) / r)
    return tx * ty
