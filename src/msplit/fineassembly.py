"""Bilinear (Q1) finite element assembly on the fine grid.

The permeability is sampled once per fine cell at the cell center and treated
as constant there. Stiffness uses the exact integrals of the bilinear shape
functions; mass and load use 2x2 Gauss quadrature, which is exact for the mass
matrix. Homogeneous Dirichlet conditions are imposed by eliminating boundary
rows and columns.

No global matrix is part of the fine problem (:class:`FineSystem`): the
offline stage and the projection work coarse cell by coarse cell, from the
element matrices and :func:`_cell_load`'s map of one coarse cell.
:func:`assemble_matrices` and :class:`LoadOperator`, the global mass,
stiffness and load, serve the fine backward Euler reference, the one step
that marches on the fine grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .grid import GridPair

__all__ = [
    "Permeability",
    "FineSystem",
    "LoadOperator",
    "assemble",
    "assemble_matrices",
    "norms",
    "interpolate",
    "local_matrices",
    "read_grid_file",
    "write_grid_file",
    "write_field",
]

# element matrices for local node order (0,0), (1,0), (0,1), (1,1)
_MASS_UNIT = np.array([
    [4.0, 2.0, 2.0, 1.0],
    [2.0, 4.0, 1.0, 2.0],
    [2.0, 1.0, 4.0, 2.0],
    [1.0, 2.0, 2.0, 4.0],
]) / 36.0
_STIFF_X = np.array([
    [2.0, -2.0, 1.0, -1.0],
    [-2.0, 2.0, -1.0, 1.0],
    [1.0, -1.0, 2.0, -2.0],
    [-1.0, 1.0, -2.0, 2.0],
]) / 6.0
_STIFF_Y = np.array([
    [2.0, 1.0, -2.0, -1.0],
    [1.0, 2.0, -1.0, -2.0],
    [-2.0, -1.0, 2.0, 1.0],
    [-1.0, -2.0, 1.0, 2.0],
]) / 6.0

# 2x2 Gauss points on the unit interval and Q1 shape values at the tensor points
_G0 = 0.5 * (1.0 - 1.0 / np.sqrt(3.0))
_G1 = 0.5 * (1.0 + 1.0 / np.sqrt(3.0))
_GPTS = np.array([(_G0, _G0), (_G1, _G0), (_G0, _G1), (_G1, _G1)])
_SHAPE_AT_GP = np.array([
    [(1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t] for s, t in _GPTS
])  # (4 gauss points, 4 shape functions)


@dataclass
class Permeability:
    """Scalar permeability field evaluated at fine-cell centers.

    ``evaluate`` must accept numpy arrays of x and y coordinates.
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def constant(cls, value: float) -> "Permeability":
        if value <= 0.0:
            raise ValueError("permeability must be positive")
        return cls(evaluate=lambda x, y: np.full_like(np.asarray(x, float), value))

    @classmethod
    def from_raster(cls, path) -> "Permeability":
        """Nearest-neighbor sampler over a raster file (top row is y = max)."""
        values = read_grid_file(path)
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            raise ValueError(f"raster {path} contains non-positive or non-finite entries")
        rows, cols = values.shape

        def sample(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            col = np.clip((x * cols).astype(int), 0, cols - 1)
            row = np.clip(((1.0 - y) * rows).astype(int), 0, rows - 1)
            return values[row, col]

        return cls(evaluate=sample)

    def cell_values(self, g: GridPair) -> np.ndarray:
        """Permeability at each fine-cell center, shape (ny_fine, nx_fine)."""
        cx = (np.arange(g.nx_fine) + 0.5) * g.hx
        cy = (np.arange(g.ny_fine) + 0.5) * g.hy
        gx, gy = np.meshgrid(cx, cy)
        vals = np.asarray(self.evaluate(gx, gy), dtype=float)
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        if np.any(bad):
            iy, ix = np.argwhere(bad)[0]
            raise ValueError(
                f"permeability is not positive at fine cell ({ix}, {iy}), "
                f"value {vals[iy, ix]!r}")
        return vals


def _cell_node_ids(g: GridPair, cells: np.ndarray) -> np.ndarray:
    """Global fine node ids of each cell's corners, shape (n_cells, 4)."""
    cxf = cells % g.nx_fine
    cyf = cells // g.nx_fine
    n00 = cyf * (g.nx_fine + 1) + cxf
    return np.stack([n00, n00 + 1, n00 + g.nx_fine + 1, n00 + g.nx_fine + 2], axis=1)


def _assemble_from_cells(g, cells, coef, unit, n_rows, renumber=None):
    """Sum coef[c] * unit over cells into a CSR matrix of size n_rows."""
    nodes4 = _cell_node_ids(g, cells)
    if renumber is not None:
        nodes4 = renumber(nodes4)
    vals = coef[:, None, None] * unit[None, :, :]
    rows = np.broadcast_to(nodes4[:, :, None], vals.shape)
    cols = np.broadcast_to(nodes4[:, None, :], vals.shape)
    mat = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(n_rows, n_rows)).tocsr()
    return (mat + mat.T) * 0.5  # exact symmetry regardless of summation order


def _mass_stiff_units(g: GridPair):
    mass_unit = g.hx * g.hy * _MASS_UNIT
    stiff_unit = (g.hy / g.hx) * _STIFF_X + (g.hx / g.hy) * _STIFF_Y
    return mass_unit, stiff_unit


def local_matrices(g: GridPair, kappa_cells: np.ndarray, cells: np.ndarray,
                   nodes: np.ndarray, mass_weight_cells: Optional[np.ndarray] = None):
    """Mass and stiffness over a subset of fine cells, indexed by ``nodes``.

    ``nodes`` must be sorted, unique, and cover every corner of ``cells``.
    ``mass_weight_cells`` optionally replaces the unit mass density with a
    cellwise-constant weight (flat array over all fine cells).
    """
    cells = np.asarray(cells, dtype=np.int64)
    kflat = np.asarray(kappa_cells, dtype=float).ravel()
    mass_unit, stiff_unit = _mass_stiff_units(g)

    def renumber(nodes4):
        local = np.searchsorted(nodes, nodes4)
        if np.any(local >= len(nodes)) or np.any(nodes[local] != nodes4):
            raise ValueError("node list does not cover the requested cells")
        return local

    n = len(nodes)
    if mass_weight_cells is None:
        mass_coef = np.ones(len(cells))
    else:
        mass_coef = np.asarray(mass_weight_cells, dtype=float).ravel()[cells]
    mass = _assemble_from_cells(g, cells, mass_coef, mass_unit, n, renumber)
    stiff = _assemble_from_cells(g, cells, kflat[cells], stiff_unit, n, renumber)
    return mass, stiff


@dataclass
class FineSystem:
    """The fine problem: grid, permeability per fine cell, source and initial data.

    No global matrix is stored. :func:`assemble_matrices` builds the interior
    mass and stiffness for the one step that needs them; everything else
    assembles its own cell matrices, with :func:`local_matrices` or the
    scatter maps of the offline stage.
    """

    grid: GridPair
    kappa_cells: np.ndarray
    source: Optional[Callable] = None
    initial: Optional[Callable] = None

    @property
    def n_dof(self) -> int:
        return self.grid.n_interior_fine

    def initial_vector(self) -> np.ndarray:
        if self.initial is None:
            return np.zeros(self.n_dof)
        return interpolate(self.grid, self.initial)


def assemble(g: GridPair, kappa: Permeability, source=None, initial=None) -> FineSystem:
    """The fine problem of a permeability field, sampled at the fine-cell centers.

    ``source`` is an optional space-time forcing f(t, x, y) and ``initial`` an
    optional initial profile u0(x, y); both are carried along for the
    projection onto the coarse space.
    """
    return FineSystem(grid=g, kappa_cells=kappa.cell_values(g), source=source,
                      initial=initial)


def assemble_matrices(fs: FineSystem) -> tuple:
    """Global fine mass and stiffness on the interior nodes, Dirichlet rows eliminated, as CSR."""
    g = fs.grid
    mass_all, stiff_all = local_matrices(g, fs.kappa_cells, np.arange(g.n_fine_cells),
                                         np.arange(g.n_fine_nodes))
    keep = g.interior_fine_ids
    return mass_all[keep][:, keep].tocsr(), stiff_all[keep][:, keep].tocsr()


def _cell_load(g: GridPair):
    """The 2x2 Gauss load of one coarse cell's fine cells.

    Returns (ex, ey, corners): the Gauss points' offsets from the coarse
    cell's lower left node in fine steps, fine cell by fine cell (row-major)
    and Gauss point by Gauss point, and the (4, 4) matrix that takes a fine
    cell's four source values to the loads at its corners (element order).
    Every coarse cell of the uniform grid has the same.
    """
    r = g.refine
    elems = np.arange(r * r)
    ex = ((elems % r)[:, None] + _GPTS[:, 0]).ravel()
    ey = ((elems // r)[:, None] + _GPTS[:, 1]).ravel()
    return ex, ey, 0.25 * g.hx * g.hy * _SHAPE_AT_GP


class LoadOperator:
    """2x2 Gauss quadrature of the consistent load on one grid.

    ``x`` and ``y`` hold the Gauss points, Gauss point by Gauss point and
    each in cell order. ``matrix`` maps the weighted source values at those
    points to the interior load; its rows hold the Q1 shape values, one entry
    per cell corner and Gauss point, in ascending column order. The source
    values are weighted before the product, and each row sums Gauss point by
    Gauss point and cell by cell, so the load is bit for bit the element loop
    that scatters every Gauss point's contributions in turn.

    Every interior node is a corner of exactly four cells, so every row has
    16 entries: Gauss point by Gauss point, the cells below left, below
    right, above left and above right of the node, whose corner the node is
    (3, 2, 1 and 0 in the element order). The CSR arrays are written in that
    order directly.
    """

    def __init__(self, g: GridPair):
        cells = np.arange(g.n_fine_cells, dtype=np.int64)
        cxf = (cells % g.nx_fine) * g.hx
        cyf = (cells // g.nx_fine) * g.hy
        self.x = np.concatenate([cxf + s * g.hx for s, _ in _GPTS])
        self.y = np.concatenate([cyf + tq * g.hy for _, tq in _GPTS])
        self.weight = 0.25 * g.hx * g.hy
        n_pts = len(_GPTS)
        n_cols = n_pts * g.n_fine_cells
        per_row = 4 * n_pts
        nnz = per_row * g.n_interior_fine
        index = np.int32 if max(n_cols, nnz) < 2 ** 31 else np.int64
        ix, iy = np.meshgrid(np.arange(1, g.nx_fine), np.arange(1, g.ny_fine))
        below_left = ((iy - 1) * g.nx_fine + ix - 1).ravel()
        around = below_left[:, None] + np.array([0, 1, g.nx_fine, g.nx_fine + 1])
        indices = (np.arange(n_pts)[:, None] * g.n_fine_cells + around[:, None, :]).astype(index)
        data = np.broadcast_to(_SHAPE_AT_GP[:, ::-1], indices.shape)
        indptr = np.arange(0, nnz + 1, per_row, dtype=index)
        self.matrix = sp.csr_matrix((data.ravel(), indices.ravel(), indptr),
                                    shape=(g.n_interior_fine, n_cols))

    def load(self, source, t: float = 0.0) -> np.ndarray:
        """Load vector of f(t, x, y) over interior fine nodes."""
        if source is None:
            return np.zeros(self.matrix.shape[0])
        values = np.asarray(source(t, self.x, self.y), dtype=float)
        return self.matrix @ (self.weight * values)


def interpolate(g: GridPair, func) -> np.ndarray:
    """Nodal interpolant of u(x, y) on interior fine nodes."""
    x, y = g.fine_coords
    keep = g.interior_fine_ids
    return np.asarray(func(x[keep], y[keep]), dtype=float)


def norms(mass, stiffness, v: np.ndarray) -> tuple[float, float]:
    """(L2 norm, energy norm) of an interior fine-grid vector, from :func:`assemble_matrices`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mass.shape[0],):
        raise ValueError(f"expected vector of length {mass.shape[0]}, got {v.shape}")
    l2 = float(np.sqrt(max(v @ (mass @ v), 0.0)))
    energy = float(np.sqrt(max(v @ (stiffness @ v), 0.0)))
    return l2, energy


# --- grid-shaped text files (permeability rasters and field dumps) ---

def read_grid_file(path) -> np.ndarray:
    """Read a whitespace-separated grid file: 'rows cols' then row-major reals.

    The first file row corresponds to the largest y coordinate.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header, got {header!r}")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed header {header!r}") from exc
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: non-positive grid dimensions {rows} x {cols}")
        body = fh.read().split()
    if len(body) != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, found {len(body)}")
    try:
        values = np.array([float(tok) for tok in body])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry in body") from exc
    return values.reshape(rows, cols)


def write_grid_file(path, array: np.ndarray) -> None:
    """Write a 2d array in the grid file format (first row is y = max)."""
    array = np.asarray(array, dtype=float)
    if array.ndim != 2:
        raise ValueError("grid files hold 2d arrays")
    with open(path, "w") as fh:
        fh.write(f"{array.shape[0]} {array.shape[1]}\n")
        for row in array:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def write_field(path, g: GridPair, interior_values: np.ndarray) -> None:
    """Dump an interior fine-grid vector as a nodal field file.

    Boundary nodes are written as zeros; rows are ordered from y = max down,
    matching the raster convention.
    """
    full = np.zeros(g.n_fine_nodes)
    full[g.interior_fine_ids] = interior_values
    shaped = full.reshape(g.ny_fine + 1, g.nx_fine + 1)
    write_grid_file(path, shaped[::-1, :])
