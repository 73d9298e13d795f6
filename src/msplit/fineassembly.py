"""Bilinear (Q1) finite element assembly on the fine grid.

The permeability is sampled once per fine cell at the cell center and treated
as constant there. Stiffness uses the exact integrals of the bilinear shape
functions; mass and load use 2x2 Gauss quadrature, which is exact for the mass
matrix. Homogeneous Dirichlet conditions are imposed by eliminating boundary
rows and columns.

Every fine matrix and load is a sum over coarse cells. Every coarse cell
of the uniform grid has the same elements, so one kernel
(:class:`CellKernel`) holds the Q1 pattern of a cell's (r+1)^2 node box and
the maps from its r^2 element coefficients to the box's mass and
stiffness, and :func:`box_loads` gives the boxes' Gauss loads. The offline
stage and the projection work box by box. :class:`BoxSum` adds boxes into
any numbering of fine nodes: the global interior matrices and load of the
fine backward Euler reference (:func:`assemble_matrices`) and the
neighborhood matrices of the brute-force offline reference. No global
matrix is part of the fine problem (:class:`FineSystem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .grid import GridPair

__all__ = [
    "Permeability",
    "Source",
    "FineSystem",
    "CellKernel",
    "BoxSum",
    "assemble",
    "assemble_matrices",
    "box_loads",
    "norms",
    "interpolate",
    "patch_energy",
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


def _mass_stiff_units(g: GridPair):
    mass_unit = g.hx * g.hy * _MASS_UNIT
    stiff_unit = (g.hy / g.hx) * _STIFF_X + (g.hx / g.hy) * _STIFF_Y
    return mass_unit, stiff_unit


class CellKernel:
    """The Q1 mass and stiffness of one coarse cell's (r+1)^2 node box.

    Every coarse cell of the uniform grid has the same element matrices. So
    one CSR pattern, ``indptr`` and ``indices``, holds the entries some
    element reaches, and two sparse (nnz, r^2) maps, ``mass_map`` and
    ``stiff_map``, take a cell's r^2 element coefficients (row-major,
    :meth:`coefficients`) to its data. The box nodes, row-major, are
    numbered ``pos`` (row-major by default). Each entry sums its elements in
    ascending order, so a cell's matrices are exactly symmetric. A kernel
    takes under a millisecond to build at r = 16, so each user builds its own.
    """

    def __init__(self, g: GridPair, pos: Optional[np.ndarray] = None):
        r = g.refine
        n = (r + 1) ** 2
        pos = np.arange(n) if pos is None else pos
        ex, ey = np.arange(r * r) % r, np.arange(r * r) // r
        corners = pos[(ey * (r + 1) + ex)[:, None] + np.array([0, 1, r + 1, r + 2])]
        keys = (corners[:, :, None] * n + corners[:, None, :]).ravel()
        pattern = np.unique(keys)
        self.indptr = np.searchsorted(pattern, np.arange(n + 1) * n)
        self.indices = pattern % n
        # element-major triplets, so each row of a map lists its elements ascending
        entries = (np.searchsorted(pattern, keys), np.repeat(np.arange(r * r), 16))
        self.mass_map, self.stiff_map = (
            sp.csr_matrix((np.tile(unit.ravel(), r * r), entries), shape=(len(pattern), r * r))
            for unit in _mass_stiff_units(g))
        self._grid = g

    def coefficients(self, values) -> np.ndarray:
        """A fine-cell field, (ny_fine, nx_fine) or flat, per coarse cell: (cells, r^2)."""
        g = self._grid
        r = g.refine
        return np.asarray(values, float).reshape(g.ny_coarse, r, g.nx_coarse, r).transpose(
            0, 2, 1, 3).reshape(g.nx_coarse * g.ny_coarse, r * r)

    def block_diagonal(self, data: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix of ``len(data)`` boxes on the diagonal, ``data`` their entries."""
        count, nnz = data.shape
        n = len(self.indptr) - 1
        return sp.csr_matrix(
            (data.ravel(), (self.indices + n * np.arange(count)[:, None]).ravel(),
             np.concatenate([[0], (self.indptr[1:] + nnz * np.arange(count)[:, None]).ravel()])),
            shape=(count * n, count * n))


def box_loads(g: GridPair, space, cells: np.ndarray) -> np.ndarray:
    """2x2 Gauss loads of g(x, y) on the boxes of coarse ``cells``: (cells, (r+1)^2).

    Each fine cell's four Gauss values go to its four corners through one
    4 x 4 matrix of weighted shape values, and are added into the box,
    row-major.
    """
    r = g.refine
    elems = np.arange(r * r)
    ex = ((elems % r)[:, None] + _GPTS[:, 0]).ravel()
    ey = ((elems // r)[:, None] + _GPTS[:, 1]).ravel()
    x = (((cells % g.nx_coarse) * r)[:, None] + ex) * g.hx
    y = (((cells // g.nx_coarse) * r)[:, None] + ey) * g.hy
    values = np.broadcast_to(space(x, y), x.shape)
    corners = 0.25 * g.hx * g.hy * _SHAPE_AT_GP
    loads = (values.reshape(-1, 4) @ corners).reshape(len(cells), r, r, 4)
    box = np.zeros((len(cells), r + 1, r + 1))
    box[..., :r, :r] += loads[..., 0]
    box[..., :r, 1:] += loads[..., 1]
    box[..., 1:, :r] += loads[..., 2]
    box[..., 1:, 1:] += loads[..., 3]
    return box.reshape(len(cells), -1)


class BoxSum:
    """Coarse cells' boxes summed into one numbering of fine nodes.

    The boxes of coarse ``cells`` are stacked in cell order, each row-major.
    ``nodes``, ascending fine node ids, numbers the sum; a box node not in
    ``nodes``, such as one on the Dirichlet boundary, is dropped. With S the
    0/1 gather from ``nodes`` to the stacked boxes, a matrix is
    S^T blockdiag(A_c) S (:meth:`matrices`) and a load S^T q (:meth:`load`).
    """

    def __init__(self, g: GridPair, cells, nodes: np.ndarray):
        self._grid, self._cells = g, np.asarray(cells, dtype=np.int64)
        self._kernel = CellKernel(g)
        box = g.coarse_cell_boxes(self._cells).ravel()
        keep = np.isin(box, nodes)
        self._sum = sp.csr_matrix(   # S^T
            (np.ones(keep.sum()), (np.searchsorted(nodes, box[keep]), np.flatnonzero(keep))),
            shape=(len(nodes), len(box)))

    def matrices(self, kappa_cells: np.ndarray,
                 mass_weight_cells: Optional[np.ndarray] = None) -> tuple:
        """Mass and stiffness as exactly symmetric CSR matrices.

        The stiffness is weighted by ``kappa_cells``, the mass by
        ``mass_weight_cells`` (unit by default), both cellwise constant.
        """
        g, kernel = self._grid, self._kernel
        weight = np.ones(g.n_fine_cells) if mass_weight_cells is None else mass_weight_cells
        out = []
        for scatter, values in ((kernel.mass_map, weight), (kernel.stiff_map, kappa_cells)):
            coef = kernel.coefficients(values)[self._cells]
            boxes = kernel.block_diagonal((scatter @ coef.T).T)
            total = self._sum @ (boxes @ self._sum.T)
            out.append(((total + total.T) * 0.5).tocsr())
        return tuple(out)

    def load(self, space) -> np.ndarray:
        """The load of the profile g(x, y) (:func:`box_loads`)."""
        return self._sum @ box_loads(self._grid, space, self._cells).ravel()


def patch_energy(g: GridPair, kappa_cells: np.ndarray, node: int):
    """X -> X^T K X for blocks X on an interior node's neighborhood interior (ascending).

    Summed element by element over the neighborhood's (2r)^2 fine cells:
    sum_e kappa_e X_e^T K_unit X_e, X_e the block at the element's four
    corners once it is zero-padded to the node's (2r+1)^2 window. The
    padding is the neighborhood boundary, where a localized block vanishes,
    so the sum is the form of the fine stiffness over the support. It reads
    only the permeability of the node's four cells, so same-kind
    neighborhoods give the same bits.
    """
    r = g.refine
    cx, cy = g.coarse_node_grid(node)
    kappa = np.asarray(kappa_cells, float).reshape(g.ny_fine, g.nx_fine)[
        (cy - 1) * r:(cy + 1) * r, (cx - 1) * r:(cx + 1) * r, None]
    stiff_unit = _mass_stiff_units(g)[1]

    def energy(block: np.ndarray) -> np.ndarray:
        m = block.shape[1]
        window = np.zeros((2 * r + 1, 2 * r + 1, m))
        window[1:2 * r, 1:2 * r] = block.reshape(2 * r - 1, 2 * r - 1, m)
        # every element's lower left, lower right, upper left, upper right corner
        corners = np.stack([window[:-1, :-1], window[:-1, 1:], window[1:, :-1], window[1:, 1:]])
        applied = stiff_unit @ corners.reshape(4, -1)
        return (corners * kappa).reshape(-1, m).T @ applied.reshape(-1, m)

    return energy


@dataclass(frozen=True)
class Source:
    """A forcing a(t) g(x, y): the spatial profile ``space`` times the time profile ``time``.

    ``space`` takes numpy arrays of x and y, ``time`` a 1-d array of time
    levels; without ``time`` the source is static. Only g is ever loaded:
    the load at time t is a(t) times the load of g.
    """

    space: Callable[[np.ndarray, np.ndarray], np.ndarray]
    time: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass
class FineSystem:
    """The fine problem: grid, permeability per fine cell, source and initial data.

    No global matrix is stored. :func:`assemble_matrices` builds the interior
    mass and stiffness for the one step that needs them; everything else
    works with the cell matrices of :class:`CellKernel`.
    """

    grid: GridPair
    kappa_cells: np.ndarray
    source: Optional[Source] = None
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

    ``source`` is an optional forcing a(t) g(x, y) (:class:`Source`) and
    ``initial`` an optional initial profile u0(x, y); both are carried along
    for the projection onto the coarse space.
    """
    return FineSystem(grid=g, kappa_cells=kappa.cell_values(g), source=source,
                      initial=initial)


def assemble_matrices(fs: FineSystem) -> tuple:
    """Global fine mass and stiffness on the interior nodes, Dirichlet rows eliminated, as CSR."""
    g = fs.grid
    cells = np.arange(g.nx_coarse * g.ny_coarse)
    return BoxSum(g, cells, g.interior_fine_ids).matrices(fs.kappa_cells)


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
