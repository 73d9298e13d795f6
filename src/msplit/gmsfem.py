"""Multiscale basis construction on coarse-node neighborhoods.

Every interior coarse node has one local spectral problem on its
neighborhood, the 2 x 2 coarse cells around it (Efendiev, Galvis and Hou,
J. Comput. Phys. 251, 2013). The snapshots are the discrete
permeability-harmonic extensions of nodal data on the neighborhood
boundary, solved coarse cell by coarse cell with edgewise-linear data on
the interior coarse edges, and the pencil pairs their permeability-weighted
energy with a scaled mass form. On the uniform grid every interior
neighborhood is the first one shifted by whole coarse cells, so its cells,
skeleton, cut probes, support and partition of unity are the first one's,
shifted: the offline stage builds that one neighborhood and no other.

:func:`offline_modes` forms each pencil by static condensation. Every
distinct coarse cell (bit-equal permeability and weight) is condensed onto
its boundary once, node row by node row, a neighborhood's pencil is the sum
of its four cells' blocks in snapshot coordinates
(:class:`_CondensedCells`), and neighborhoods made of the same kinds of
cells are solved once. :func:`build_snapshots` and
:func:`spectral_matrices` form the same pencil by brute force, as its
reference. Each pencil keeps its lowest modes in a fixed basis of each
eigenvalue cluster (the canonical cut), so neither a degenerate pair at the
cut nor a sign depends on rounding. :func:`assemble_basis` localizes the
modes by the bilinear partition of unity and energy-orthonormalizes them by
two passes of Cholesky-QR; each distinct block is stored once
(:class:`OfflineBasis`).

A prolongation is a basis and the mode blocks the split scheme reads
(:class:`Prolongation`), its columns node by node; every function that
applies it reads the basis from it. It is never stored as a matrix, and
no global fine matrix is assembled: the Galerkin projection, the loads, the
moments of the initial field and the fine fields are sums over coarse cells
of small dense products with the four corner nodes' blocks
(:class:`_BasisCells`). Every cell matrix and load comes from the one Q1
cell kernel of :mod:`msplit.fineassembly`. The coarse mass and stiffness
are exactly symmetric CSR matrices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .fineassembly import BoxSum, CellKernel, FineSystem, box_loads, patch_energy
from .grid import GridPair, Neighborhood, neighborhood, partition_of_unity
from .linalg import BandCholesky, NumericalError, eig_gsym, single_thread_blas
from .splitting import CoarseSystem

logger = logging.getLogger(__name__)

__all__ = [
    "NeighborhoodModes",
    "OfflineBasis",
    "Prolongation",
    "build_snapshots",
    "spectral_matrices",
    "spectral_mass_weight",
    "offline_modes",
    "assemble_basis",
    "build_offline",
    "assemble_prolongation",
    "reconstruct_fine",
    "project_coarse",
    "dump_basis",
]


@dataclass
class NeighborhoodModes:
    """Dominant spectral modes of one neighborhood in fine-grid coordinates.

    ``vectors`` are snapshot combinations (not yet multiplied by the partition
    of unity); eigenvalues are ascending. :func:`offline_modes` makes both
    arrays read-only and shares them between neighborhoods of the same kinds
    of cells. Rows of ``vectors`` follow ``neighborhood(g, node).nodes``.
    """

    node: int
    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass
class OfflineBasis:
    """Localized basis columns of every interior coarse node, each distinct block stored once.

    Node i's block, rows ``block_start[i]`` to ``block_start[i] + (2r-1)^2``
    of the read-only ``stacked``, holds its ``n_modes`` columns at the fine
    nodes strictly inside its neighborhood, ascending (:meth:`support`).
    Nodes whose neighborhoods are made of the same kinds of cells share one
    block. The last row of ``stacked`` is zero.
    """

    grid: GridPair
    n_modes: int
    nodes: np.ndarray            # interior coarse node ids, ascending
    eigenvalues: np.ndarray      # (n_nodes, n_modes)
    stacked: np.ndarray          # the distinct blocks' rows, then a zero row; read-only
    block_start: np.ndarray      # row of ``stacked`` where each node's block starts

    @property
    def n_columns(self) -> int:
        return len(self.nodes) * self.n_modes

    def support(self, i: int) -> np.ndarray:
        """Interior dof indices of node i's block rows: the first node's, shifted by whole cells."""
        g = self.grid
        r = g.refine
        cx, cy = g.coarse_node_grid(int(self.nodes[i]))
        span = np.arange(2 * r - 1)
        return (((cy - 1) * r + span[:, None]) * (g.nx_fine - 1) + (cx - 1) * r + span).ravel()


@dataclass(eq=False)
class Prolongation:
    """A basis and the mode blocks of the coarse space it spans.

    The prolongation maps coarse coefficients to interior fine nodes; its
    columns are the columns of ``basis``, and it is applied coarse cell by
    coarse cell (:func:`reconstruct_fine`, :func:`project_coarse`), never
    stored as a matrix. Column ``i * m + k`` is mode ``k`` of the ``i``-th
    neighborhood of the m-mode basis, the order in which each coarse matrix
    has half-bandwidth (nx_coarse + 1) m - 1. ``block_sizes`` group every
    node's modes into consecutive blocks and sum to the mode count
    (:func:`assemble_prolongation`); they do not move a column.
    """

    basis: OfflineBasis
    block_sizes: tuple

    @property
    def n_columns(self) -> int:
        return self.basis.n_columns


def _cell_nodes(g: GridPair, cell: int):
    """Fine nodes of one coarse cell, ascending, and which lie on its boundary."""
    r = g.refine
    y, x = np.divmod(np.arange((r + 1) ** 2), r + 1)
    return g.coarse_cell_boxes([cell])[0], (x % r == 0) | (y % r == 0)


class _CellSolver:
    """Discrete harmonic extension of one coarse cell's boundary data.

    ``mapmat`` maps values at the cell's boundary nodes ``bnodes`` to the
    harmonic values at its interior nodes ``inodes`` (both ascending, from
    :func:`_cell_nodes`). It serves the brute-force reference route
    (:func:`build_snapshots`); :class:`_CondensedCells` makes the same map
    for the offline stage, many cells at a time.
    """

    def __init__(self, fs: FineSystem, cell: int):
        g = fs.grid
        nodes, on_edge = _cell_nodes(g, cell)
        self.bnodes = nodes[on_edge]
        self.inodes = nodes[~on_edge]
        _, stiff = BoxSum(g, [cell], nodes).matrices(fs.kappa_cells)
        if len(self.inodes) == 0:
            self.mapmat = np.zeros((0, len(self.bnodes)))
        else:
            inner = stiff[~on_edge].toarray()
            try:
                factor = scipy.linalg.cho_factor(inner[:, ~on_edge], lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise _not_definite(g, cell, exc) from exc
            self.mapmat = -scipy.linalg.cho_solve(factor, inner[:, on_edge])


def _not_definite(g: GridPair, cell: int, detail) -> NumericalError:
    cx, cy = g.coarse_cell_grid(cell)
    return NumericalError(
        f"local solve in coarse cell ({cx}, {cy}) is not positive definite: {detail}")


def _skeleton_rows(g: GridPair, nb: Neighborhood):
    """Dirichlet data on the coarse skeleton of a neighborhood.

    Returns (node ids, rows) where row k gives node k's value for each of the
    ``len(nb.boundary)`` Kronecker data columns. Nodes on the neighborhood
    boundary carry the data itself; nodes on interior coarse edges carry the
    linear interpolant between the edge's endpoint values, where an endpoint
    interior to the neighborhood (the central coarse node) takes the mean of
    the data at its coarse neighbors so that constant data extends constantly.
    """
    r = g.refine
    nper = g.nx_fine + 1
    ids = nb.nodes[((nb.nodes % nper) % r == 0) | ((nb.nodes // nper) % r == 0)]
    L = nb.n_boundary
    rows = np.zeros((len(ids), L))
    bpos = np.searchsorted(nb.boundary, ids)
    bpos_clip = np.minimum(bpos, L - 1)
    on_bnd = nb.boundary[bpos_clip] == ids

    def vertex_row(v: int) -> np.ndarray:
        j = np.searchsorted(nb.boundary, v)
        if j < L and nb.boundary[j] == v:
            row = np.zeros(L)
            row[j] = 1.0
            return row
        # central coarse vertex: mean over its coarse-neighbor data
        row = np.zeros(L)
        steps = (r, -r, r * nper, -r * nper)
        hits = 0
        for step in steps:
            jj = np.searchsorted(nb.boundary, v + step)
            if jj < L and nb.boundary[jj] == v + step:
                row[jj] = 1.0
                hits += 1
        if hits == 0:
            raise NumericalError(f"isolated interior coarse vertex {v}")
        return row / hits

    rows[on_bnd, bpos[on_bnd]] = 1.0
    for k in np.flatnonzero(~on_bnd):
        node = int(ids[k])
        ix, iy = node % nper, node // nper
        if ix % r == 0 and iy % r == 0:
            rows[k] = vertex_row(node)
            continue
        if ix % r == 0:  # interior vertical coarse edge
            lo = node - (iy % r) * nper
            hi = lo + r * nper
            t = (iy % r) / r
        else:            # interior horizontal coarse edge
            lo = node - (ix % r)
            hi = lo + r
            t = (ix % r) / r
        rows[k] = (1.0 - t) * vertex_row(int(lo)) + t * vertex_row(int(hi))
    return ids, rows


def build_snapshots(fs: FineSystem, nb: Neighborhood,
                    solver_cache: Optional[dict] = None) -> np.ndarray:
    """Solve the snapshot family of one neighborhood, one column per boundary node.

    Entry ``[k, l]`` is the value of snapshot ``l`` at ``nb.nodes[k]``; column
    ``l`` carries Kronecker data at ``nb.boundary[l]``. Cell factorizations
    are made on first use and kept in ``solver_cache``, so neighborhoods that
    share a coarse cell factor it once.
    """
    g = fs.grid
    columns = np.zeros((len(nb.nodes), nb.n_boundary))
    skel_ids, skel_rows = _skeleton_rows(g, nb)
    columns[np.searchsorted(nb.nodes, skel_ids)] = skel_rows
    cache = {} if solver_cache is None else solver_cache
    for cell in nb.cells:
        if cell not in cache:
            cache[cell] = _CellSolver(fs, int(cell))
        solver = cache[cell]
        if len(solver.inodes) == 0:
            continue
        data = skel_rows[np.searchsorted(skel_ids, solver.bnodes)]
        columns[np.searchsorted(nb.nodes, solver.inodes)] = solver.mapmat @ data
    return columns


def spectral_mass_weight(g: GridPair, kappa_cells: np.ndarray) -> np.ndarray:
    """Cellwise weight for the spectral mass form.

    Scaled sum of squared partition-of-unity gradients times the permeability,
    evaluated at fine-cell centers: Hx*Hy * kappa * sum_j |grad chi_j|^2.
    """
    r = g.refine
    sx = ((np.arange(g.nx_fine) % r) + 0.5) / r   # x fraction within coarse cell
    ty = ((np.arange(g.ny_fine) % r) + 0.5) / r   # y fraction
    gx = 2.0 * ((1.0 - ty) ** 2 + ty ** 2) / g.coarse_hx ** 2
    gy = 2.0 * ((1.0 - sx) ** 2 + sx ** 2) / g.coarse_hy ** 2
    grad2 = gx[:, None] + gy[None, :]
    return g.coarse_hx * g.coarse_hy * np.asarray(kappa_cells, float) * grad2


def spectral_matrices(fs: FineSystem, nb: Neighborhood, snaps: np.ndarray,
                      mass_weight_cells: Optional[np.ndarray] = None):
    """Stiffness and weighted-mass forms of the snapshot columns.

    Returns the dense symmetric pencil (astiff, smass) in snapshot
    coordinates, for the columns ``snaps`` of :func:`build_snapshots`.
    ``mass_weight_cells`` overrides the default spectral weight
    (flat array over all fine cells) so alternative forms can plug in.
    """
    g = fs.grid
    if mass_weight_cells is None:
        mass_weight_cells = spectral_mass_weight(g, fs.kappa_cells)
    wmass, stiff = BoxSum(g, nb.cells, nb.nodes).matrices(fs.kappa_cells, mass_weight_cells)
    astiff = snaps.T @ (stiff @ snaps)
    smass = snaps.T @ (wmass @ snaps)
    astiff = 0.5 * (astiff + astiff.T)
    smass = 0.5 * (smass + smass.T)
    return astiff, smass


# Two neighbouring eigenvalues of a pencil belong to one cluster when their
# relative gap (lam_j - lam_{j-1}) / |lam_j| is below this. The smallest gap
# at a mode cut that is not an exact degeneracy is 6.0e-3 on tiny-forced,
# 1.1e-2 on example1 and 1.75e-4 on example2-synthetic; the exactly
# degenerate pair of example2-synthetic's unit-permeability neighborhoods
# has a gap below 1e-13.
_CLUSTER_RTOL = 1e-8
# A probe of the canonical cut is passed over when its S-projection onto a
# cluster, less the directions already chosen, has at most this share of
# the probe's own S-norm.
_PROBE_RTOL = 1e-6
# Coarse cells per batch, for the condensation (the kinds a node row reads
# first) and for the products with the basis cell by cell (:class:`_BasisCells`):
# at r = 16 a full condensation batch's temporaries take about 20 MB, a
# batch of ten-mode Galerkin products about 10 MB.
_BATCH = 32


def _relative_gaps(values: np.ndarray) -> np.ndarray:
    """(lam_j - lam_{j-1}) / |lam_j| for j >= 1 of ascending eigenvalues; 0 where equal."""
    diff = np.diff(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(diff > 0.0, diff / np.abs(values[1:]), 0.0)


def _cut_probes(g: GridPair, nb: Neighborhood) -> np.ndarray:
    """The polynomial probes of the canonical cut, in order, one per column.

    Each column holds a polynomial's values at the neighborhood's boundary
    nodes, which are its snapshot coefficients. The polynomials are in the
    fine offsets (xi, eta) from the coarse node, scaled by 1/r: xi - eta,
    xi + eta, xi eta, xi^2 - eta^2, xi^2 + eta^2, xi^2 eta - xi eta^2,
    xi^2 eta + xi eta^2, xi^3 - eta^3, xi^3 + eta^3. Every interior
    neighborhood is the same cell patch shifted, so one neighborhood's
    probes serve all.
    """
    cx, cy = g.coarse_node_grid(nb.node)
    r = g.refine
    nper = g.nx_fine + 1
    xi = (nb.boundary % nper - cx * r) / r
    eta = (nb.boundary // nper - cy * r) / r
    return np.column_stack([
        xi - eta, xi + eta, xi * eta, xi ** 2 - eta ** 2, xi ** 2 + eta ** 2,
        xi ** 2 * eta - xi * eta ** 2, xi ** 2 * eta + xi * eta ** 2,
        xi ** 3 - eta ** 3, xi ** 3 + eta ** 3])


def _canonical_cut(values: np.ndarray, vectors: np.ndarray, smass: np.ndarray,
                   n_modes: int, polys: np.ndarray, context: str = "") -> np.ndarray:
    """The ``n_modes`` kept eigenvectors, in a fixed basis of each kept cluster.

    ``values`` are ascending with S-orthonormal ``vectors`` and must reach
    past the cluster at the cut. The eigenvalues fall into clusters where
    the relative gap (:func:`_relative_gaps`) is at least
    :data:`_CLUSTER_RTOL`. An eigensolver may return any S-orthonormal basis
    of a cluster, and either sign of a single eigenvector; which one depends
    on rounding. So the kept columns of every cluster that reaches below
    the cut are a fixed choice. The probes are the polynomials ``polys``
    (:func:`_cut_probes`) and then Kronecker data at each boundary node in
    ascending order, so together they span every snapshot combination. Each
    probe in turn is S-projected onto the cluster's span, the directions
    already chosen are removed, and what is left is kept, normalized,
    unless it is at most :data:`_PROBE_RTOL` of the probe's S-norm; this
    stops at the cluster's kept count. A single eigenvector so keeps its
    direction and gets a fixed sign, and a cluster the cut splits keeps the
    projections of the first probes that reach it. Neither depends on the
    basis the solver returned.
    """
    gaps = _relative_gaps(values)
    starts = np.concatenate([[0], np.flatnonzero(gaps >= _CLUSTER_RTOL) + 1, [len(values)]])
    end = starts[np.searchsorted(starts, n_modes)]
    weighted = (smass @ vectors[:, :end]).T
    coeffs = np.hstack([weighted @ polys, weighted])
    norms = np.sqrt(np.concatenate([np.einsum("ij,ij->j", polys, smass @ polys),
                                    np.diag(smass)]))
    kept = np.empty((len(vectors), n_modes))
    for lo, hi in zip(starts[:-1], starts[1:]):
        if lo >= n_modes:
            break
        count = min(hi, n_modes) - lo
        chosen = np.empty((hi - lo, count))
        found = 0
        for coeff, norm in zip(coeffs[lo:hi].T, norms):
            for _ in range(2 if found else 0):
                coeff = coeff - chosen[:, :found] @ (chosen[:, :found].T @ coeff)
            size = np.linalg.norm(coeff)
            if size > _PROBE_RTOL * norm:
                chosen[:, found] = coeff / size
                found += 1
                if found == count:
                    break
        else:
            where = f" in {context}" if context else ""
            raise NumericalError(f"canonical mode cut found {found} of {count} "
                                 f"directions in a cluster{where}")
        kept[:, lo:lo + count] = vectors[:, lo:hi] @ chosen
    return kept


def _template(g: GridPair) -> Neighborhood:
    """The first interior neighborhood; every other one is it shifted by whole coarse cells."""
    return neighborhood(g, int(g.interior_coarse_ids[0]))


class _CondensedCells:
    """Distinct coarse cells condensed onto their boundary, node row by row, and the template.

    A cell's blocks depend only on the permeability and the spectral weight
    of its fine cells: the grid is uniform, and the weight depends only on
    the position inside the coarse cell. So the cells are grouped by the
    exact bytes of those two blocks, and each group's first cell stands for
    it: ``kind[c]`` is cell c's group. The cell kernel
    (:class:`~msplit.fineassembly.CellKernel`, nodes boundary first) takes a
    cell's element coefficients straight to its blocks (:meth:`condense`).

    The neighborhoods of node row cy read cell rows cy - 1 and cy only.
    :meth:`hold` keeps the kinds whose first cell row is at most cy and
    whose last is at least cy - 1, frees the others and condenses the
    representatives not held yet, :data:`_BATCH` at a time; the sweep over
    the node rows so condenses each kind once. Kind k's results are
    ``mapmat[slot[k]]`` and ``blocks[:, slot[k]]`` (stiffness, weighted
    mass), in a pool sized to the most kinds held at once: 32 of example1's
    256, 5.5 MB. Each cell's arithmetic is its own, so neither batch, reuse
    nor schedule changes a pencil's bits.

    Every interior neighborhood is the first one (:func:`_template`) shifted
    by whole coarse cells. ``cells[i]`` are the four cells of the i-th
    interior node, ascending: the template's plus the shift. The skeleton
    rows, the rows ``select[q]`` (D_q) that give the boundary data of the
    q-th cell, and the probes of the canonical cut (:func:`_cut_probes`) are
    the template's. A neighborhood's snapshot columns are the skeleton rows
    on its coarse edges and mapmat[slot[kind[c_q]]] @ D_q inside its q-th
    cell c_q.
    """

    def __init__(self, fs: FineSystem, mass_weight_cells: np.ndarray):
        g = fs.grid
        r = g.refine
        _, on_edge = _cell_nodes(g, 0)
        # the cell's nodes boundary first, then interior, each ascending
        self._kernel = CellKernel(g, np.argsort(np.argsort(~on_edge, kind="stable")))
        self._kappa = self._kernel.coefficients(fs.kappa_cells)
        self._weight = self._kernel.coefficients(mass_weight_cells)
        media = np.concatenate([self._kappa, self._weight], axis=1)
        _, self._first, kind = np.unique(media.view(np.uint64), axis=0,
                                         return_index=True, return_inverse=True)
        self.kind = kind.ravel()
        self._grid = g
        self._stiff_layout()
        row = np.arange(len(self.kind)) // g.nx_coarse
        last = row[::-1][np.unique(self.kind[::-1], return_index=True)[1]]
        cy = np.arange(1, g.ny_coarse)[:, None]   # _reads[cy - 1]: the kinds node row cy holds
        self._reads = (row[self._first] <= cy) & (last >= cy - 1)
        size = np.count_nonzero(self._reads, axis=1).max(initial=0)
        n_b, n_i = 4 * r, (r - 1) ** 2
        self.slot = np.full(len(self._first), size)
        self.mapmat = np.zeros((size, n_i, n_b))
        self.blocks = np.zeros((2, size, n_b, n_b))
        template = _template(g)
        shift = np.arange(g.ny_coarse - 1)[:, None] * g.nx_coarse + np.arange(g.nx_coarse - 1)
        self.cells = template.cells + shift.reshape(-1, 1)
        self._n_nodes = len(template.nodes)
        skel_ids, self.skel_rows = _skeleton_rows(g, template)
        self.skel_pos = np.searchsorted(template.nodes, skel_ids)
        self.select = np.empty((4, n_b, template.n_boundary))
        self.inner_pos = np.empty((4, n_i), dtype=np.int64)
        for q, cell in enumerate(template.cells):
            nodes, on_edge = _cell_nodes(g, int(cell))
            self.select[q] = self.skel_rows[np.searchsorted(skel_ids, nodes[on_edge])]
            self.inner_pos[q] = np.searchsorted(template.nodes, nodes[~on_edge])
        # D_q reads only the data of the snapshots that reach cell q: its own
        # stretch of the neighborhood boundary and the coarse neighbors of
        # the central node, the same count for every q
        self.reach = np.array([np.flatnonzero(np.any(d != 0.0, axis=0)) for d in self.select])
        self.select = np.take_along_axis(self.select, self.reach[:, None, :], axis=2)
        self._reach_ix = [np.ix_(reach, reach) for reach in self.reach]
        self.probes = _cut_probes(g, template)

    def _stiff_layout(self):
        """Where the kernel's stiffness entries go in [band of K_ii | K_bi | K_bb].

        The kernel numbers the cell's nodes boundary first, then interior,
        each ascending as in :func:`_cell_nodes`. ``_stiff_map`` holds the
        kernel's rows of the entries that fall in the lower band of K_ii
        (half-bandwidth r), in K_bi or in K_bb, and ``_stiff_slots`` their
        places in that array (the rest are zero): the band as (n_i, kd + 1)
        row-major, whose transpose is LAPACK's Fortran lower-band array.
        """
        r = self._grid.refine
        n_b, n_i = 4 * r, (r - 1) ** 2
        self._kd = min(r, n_i - 1)
        band_size = (self._kd + 1) * n_i
        kernel = self._kernel
        rows = np.repeat(np.arange(len(kernel.indptr) - 1), np.diff(kernel.indptr))
        cols = kernel.indices
        i_row, i_col = rows - n_b, cols - n_b
        target = np.select(
            [(i_row >= i_col) & (i_col >= 0), (rows < n_b) & (cols >= n_b),
             (rows < n_b) & (cols < n_b)],
            [i_col * (self._kd + 1) + i_row - i_col, band_size + rows * n_i + i_col,
             band_size + n_b * n_i + rows * n_b + cols], -1)
        entries = np.flatnonzero(target >= 0)
        entries = entries[np.argsort(target[entries])]
        self._stiff_size = band_size + n_b * n_i + n_b * n_b
        self._stiff_slots = target[entries]
        self._stiff_map = kernel.stiff_map[entries]

    def hold(self, cy: int) -> None:
        """Hold the kinds for node row ``cy``; one not held has the slot past the pool's end."""
        self.slot[~self._reads[cy - 1]] = len(self.mapmat)
        new = np.flatnonzero(self._reads[cy - 1] & (self.slot == len(self.mapmat)))
        self.slot[new] = np.setdiff1d(np.arange(len(self.mapmat)), self.slot)[:len(new)]
        for k in range(0, len(new), _BATCH):
            slots = self.slot[new[k:k + _BATCH]]
            self.mapmat[slots], self.blocks[0, slots], self.blocks[1, slots] = \
                self.condense(self._first[new[k:k + _BATCH]])

    def condense(self, cells: np.ndarray):
        """(mapmat, E^T K E, E^T W E) of coarse ``cells``, stacked in their order.

        E = [I; mapmat] extends boundary data harmonically into the cell, and
        mapmat = -K_ii^-1 K_ib comes from one banded Cholesky factorization
        (``dpbtrf``/``dpbtrs``) per cell. The condensed stiffness is the
        Schur complement K_bb + K_bi mapmat; the weighted mass is E^T (W E),
        with W E one sparse product over the block-diagonal W of all
        ``cells``.
        """
        g = self._grid
        r = g.refine
        n = (r + 1) ** 2
        n_b, n_i = 4 * r, (r - 1) ** 2
        count = len(cells)
        band_size = (self._kd + 1) * n_i
        stiff = np.zeros((count, self._stiff_size))
        stiff[:, self._stiff_slots] = (self._stiff_map @ self._kappa[cells].T).T
        kbi = stiff[:, band_size:band_size + n_b * n_i].reshape(count, n_b, n_i)
        mapmat = np.empty((count, n_i, n_b))
        for j, cell in enumerate(cells):
            band = stiff[j, :band_size].reshape(n_i, self._kd + 1).T
            factor, info = scipy.linalg.lapack.dpbtrf(band, lower=1, overwrite_ab=1)
            if info == 0:
                solved, info = scipy.linalg.lapack.dpbtrs(factor, kbi[j].T, lower=1)
            if info:
                raise _not_definite(g, int(cell), f"LAPACK info {info}")
            mapmat[j] = -solved
        schur = stiff[:, band_size + n_b * n_i:].reshape(count, n_b, n_b) + kbi @ mapmat

        wmass = self._kernel.block_diagonal((self._kernel.mass_map @ self._weight[cells].T).T)
        extend = np.empty((count, n, n_b))
        extend[:, :n_b] = np.eye(n_b)
        extend[:, n_b:] = mapmat
        wext = (wmass @ extend.reshape(count * n, n_b)).reshape(count, n, n_b)
        mass = wext[:, :n_b] + mapmat.transpose(0, 2, 1) @ wext[:, n_b:]
        return mapmat, schur, mass

    def pencil(self, cells: np.ndarray):
        """(astiff, smass) of the neighborhood made of ``cells``: sum_q D_q^T X_q D_q.

        X_q are the held blocks of cell c_q's kind. Each term fills only the
        rows and columns of the snapshots that reach cell q (``reach[q]``),
        and the terms are summed in cell order. The rounding of this sum may
        decide which members of an exactly degenerate eigenvalue cluster an
        eigensolver returns first; :func:`_canonical_cut` makes the kept
        ones independent of it.
        """
        held = self.blocks[:, self.slot[self.kind[cells]]]
        terms = self.select.transpose(0, 2, 1) @ (held @ self.select)
        size = self.skel_rows.shape[1]
        forms = []
        for form_terms in terms:
            form = np.zeros((size, size))
            for reach, term in zip(self._reach_ix, form_terms):
                form[reach] += term
            forms.append(0.5 * (form + form.T))
        return tuple(forms)

    def modes(self, node: int, cells: np.ndarray, n_modes: int):
        """The ``n_modes`` lowest eigenpairs of interior ``node``'s pencil; ``cells`` are its cells.

        The pencil is solved for ``n_modes + 1`` pairs, so that the relative
        gap at the cut is seen. A cut inside a cluster is solved again for
        the whole spectrum, which bounds the cluster. The kept eigenvectors
        are those of :func:`_canonical_cut`. Returns (eigenvalues, vectors,
        gap): the first two read-only, the kept eigenvectors extended to the
        neighborhood's nodes, and the gap (infinite when every mode is kept).
        """
        astiff, smass = self.pencil(cells)
        context = f"neighborhood {node}"
        eig = eig_gsym(astiff, smass, context=context, count=n_modes + 1)
        gap = float(_relative_gaps(eig.values)[n_modes - 1]) \
            if n_modes < len(eig.values) else np.inf
        if gap < _CLUSTER_RTOL and len(eig.values) < len(astiff):
            eig = eig_gsym(astiff, smass, context=context)
        kept = _canonical_cut(eig.values, eig.vectors, smass, n_modes, self.probes, context)
        vectors = np.empty((self._n_nodes, n_modes))
        vectors[self.skel_pos] = self.skel_rows @ kept
        data = self.select @ kept[self.reach]
        vectors[self.inner_pos] = self.mapmat[self.slot[self.kind[cells]]] @ data
        eigenvalues = eig.values[:n_modes]
        eigenvalues.flags.writeable = vectors.flags.writeable = False
        return eigenvalues, vectors, gap


def offline_modes(fs: FineSystem, n_modes: int) -> list:
    """Spectral modes for every interior coarse node, ascending node order.

    Each node's four cells are a row of ``_CondensedCells.cells``, the
    template's shifted; no neighborhood but the template is built. The node
    rows are swept in ascending order; before each one, the kinds of cells
    it reads that are not held yet are condensed, and the others freed
    (:class:`_CondensedCells`). Neighborhoods whose four cells are of the
    same kinds, in the same order, have bit-equal pencils, so each such
    pencil is solved, and its kept modes extended into the cells, once: the
    neighborhoods that share it get their own :class:`NeighborhoodModes`
    with the same read-only ``eigenvalues`` and ``vectors`` arrays, whose
    rows follow the template's nodes.

    Each pencil is solved for ``n_modes + 1`` eigenpairs, and the kept
    eigenvectors are put into a fixed basis of each eigenvalue cluster
    (relative gap below :data:`_CLUSTER_RTOL`; :func:`_canonical_cut`), so
    the coarse space depends neither on the eigensolver nor on the order of
    the pencil's sums. Two INFO lines on the ``msplit.gmsfem`` logger give
    the counts of distinct cells and neighborhoods, the most kinds held at
    once and their bytes, the smallest relative gap at the cut and how many
    pencils were cut inside a cluster.

    At most 8 (r - 1) of the 8r snapshot directions survive localization:
    in each cell, the 2r - 1 data on its two outer edges, less their far
    ends, reach inside only through the 2r - 3 interior nodes beside those
    edges, so two combinations per cell vanish at every node strictly
    inside the neighborhood, where a localized mode lives. A larger
    ``n_modes`` is a ValueError, and so is one below 1.

    The solves run with every loaded OpenBLAS pinned to one thread (about
    twice as fast as two on example1's 128 x 128 pencils), or unpinned where
    no thread control is found; the previous thread counts are restored on
    return and on error.
    """
    g = fs.grid
    nodes = g.interior_coarse_ids
    if len(nodes) == 0:
        raise ValueError("grid has no interior coarse nodes")
    most = 8 * (g.refine - 1)
    if n_modes < 1:
        raise ValueError(f"requested {n_modes} modes; an offline stage needs at least one")
    if n_modes > most:
        raise ValueError(f"requested {n_modes} modes, but the snapshots of an interior "
                         f"neighborhood localize to at most 8 (r - 1) = {most}")
    weight = spectral_mass_weight(g, fs.kappa_cells)
    solved = {}
    modes = []
    with single_thread_blas():
        condensed = _CondensedCells(fs, weight)
        rows = zip(nodes.reshape(g.ny_coarse - 1, -1),
                   condensed.cells.reshape(g.ny_coarse - 1, -1, 4))
        for cy, (row_nodes, row_cells) in enumerate(rows, start=1):
            condensed.hold(cy)
            for node, cells in zip(row_nodes, row_cells):
                key = tuple(condensed.kind[cells])
                if key not in solved:
                    solved[key] = condensed.modes(int(node), cells, n_modes)
                eigenvalues, vectors, _ = solved[key]
                modes.append(NeighborhoodModes(node=int(node), eigenvalues=eigenvalues,
                                               vectors=vectors))
    gaps = [gap for _, _, gap in solved.values()]
    pool = condensed.mapmat.nbytes + condensed.blocks.nbytes
    logger.info("offline: %d distinct cells of %d (at most %d held, %.1f MB), %d distinct "
                "neighborhoods of %d", len(condensed.slot), len(condensed.kind),
                len(condensed.mapmat), pool / 2 ** 20, len(solved), len(nodes))
    logger.info("offline: smallest relative gap at the %d-mode cut %.3g; %d of %d "
                "solved pencils cut inside a cluster, kept canonically", n_modes,
                min(gaps), sum(gap < _CLUSTER_RTOL for gap in gaps), len(gaps))
    return modes


def assemble_basis(fs: FineSystem, modes_list: list) -> OfflineBasis:
    """Localize spectral modes by the partition of unity and orthonormalize.

    Every mode of ``modes_list`` (as :func:`offline_modes` returns it) is
    kept. A node's block is its modes times its hat at the fine nodes
    strictly inside its neighborhood, orthonormalized in the energy inner
    product of the fine stiffness by two passes of Cholesky-QR
    (:func:`_energy_orthonormalize`), with every OpenBLAS pinned to one
    thread. The energy Gram matrix X^T K X is summed over the fine cells of
    the node's four coarse cells (:func:`~msplit.fineassembly.patch_energy`);
    the hat vanishes on the neighborhood boundary, so that is exact.

    The rows and the hat are the template's (:func:`_template`): the hat is
    evaluated in fine offsets from the node, so it is one array for every
    interior node. The energy form reads only the permeability of the four
    cells, bit-equal between neighborhoods whose cells are of the same
    kinds, and :func:`offline_modes` hands one ``vectors`` array to exactly
    such neighborhoods. So each block is computed once per ``vectors``
    array, into the basis's read-only ``stacked`` array: 96 blocks for 225
    neighborhoods on example2-synthetic (kappa_seed 7). One INFO line on the
    ``msplit.gmsfem`` logger gives the count of distinct blocks and the
    largest condition number of a first-pass energy Gram matrix.
    """
    g = fs.grid
    template = _template(g)
    rows = np.searchsorted(template.nodes, template.interior)
    hat = partition_of_unity(g, template.node, template.interior)[:, None]
    nodes = np.array([m.node for m in modes_list], dtype=np.int64)
    eigenvalues = np.array([m.eigenvalues for m in modes_list])
    size = len(rows)
    stacked = np.zeros((size * len({id(m.vectors) for m in modes_list}) + 1, eigenvalues.shape[1]))
    starts = {}   # id of a shared vectors array -> the first row of its block
    worst_cond = 0.0
    with single_thread_blas():
        for modes in modes_list:
            key = id(modes.vectors)
            if key not in starts:
                starts[key] = start = size * len(starts)
                stacked[start:start + size], cond = _energy_orthonormalize(
                    hat * modes.vectors[rows],
                    patch_energy(g, fs.kappa_cells, modes.node), modes.node)
                worst_cond = max(worst_cond, cond)
    logger.info("basis: %d distinct blocks of %d neighborhoods, largest energy "
                "Gram condition number %.3g", len(starts), len(nodes), worst_cond)
    stacked.flags.writeable = False
    block_start = np.array([starts[id(m.vectors)] for m in modes_list], dtype=np.int64)
    return OfflineBasis(grid=g, n_modes=eigenvalues.shape[1], nodes=nodes,
                        eigenvalues=eigenvalues, stacked=stacked, block_start=block_start)


def _energy_orthonormalize(block: np.ndarray, energy, node: int):
    """Two passes of Cholesky-QR in the energy inner product, column order kept.

    ``energy(X)`` is the Gram matrix X^T K X. Each pass factors
    G = X^T K X = L L^T and replaces X by
    X L^-T. In exact arithmetic one pass gives modified Gram-Schmidt's
    result, and the squared pivot L_jj^2 is the squared energy norm that
    Gram-Schmidt divides column j by; the second pass removes the rounding
    of the first, which grows with the condition number of G. A failed
    factorization, or a squared pivot that is not finite or is at most
    1e-28, raises NumericalError naming the column. Returns the block and
    the condition number of the first pass's Gram matrix, the ratio of its
    extreme eigenvalues.
    """
    out = block
    first_cond = None
    for _ in range(2):
        gram = energy(out)
        factor, info = scipy.linalg.lapack.dpotrf(gram, lower=True)
        done = info - 1 if info > 0 else len(gram)
        squares = np.diag(factor)[:done] ** 2
        bad = np.flatnonzero(~(np.isfinite(squares) & (squares > 1e-28)))
        if info or len(bad):
            raise NumericalError(
                f"energy orthonormalization degenerated in neighborhood {node} "
                f"at column {bad[0] if len(bad) else done}")
        if first_cond is None:
            # the routine the pencil eigensolves already use; numpy's
            # SVD-based cond raised the tiny-forced benchmark's peak RSS by 0.9 MB
            values = scipy.linalg.eigvalsh(gram, driver="evd", check_finite=False)
            first_cond = float(values[-1] / values[0])
        out = scipy.linalg.solve_triangular(factor, out.T, lower=True,
                                            check_finite=False).T
    return out, first_cond


def build_offline(fs: FineSystem, n_modes: int) -> OfflineBasis:
    """Full offline stage: snapshots, spectral modes, localized basis."""
    return assemble_basis(fs, offline_modes(fs, n_modes))


def assemble_prolongation(basis: OfflineBasis, blocks) -> Prolongation:
    """The prolongation of ``basis`` split into the mode blocks ``blocks``.

    ``blocks`` partitions the per-node mode count: block q takes modes
    ``offset_q .. offset_q + blocks[q]`` of every neighborhood.
    """
    blocks = tuple(int(b) for b in blocks)
    if len(blocks) == 0 or any(b < 1 for b in blocks):
        raise ValueError(f"block sizes must be positive, got {blocks}")
    if sum(blocks) != basis.n_modes:
        raise ValueError(
            f"block sizes {blocks} do not sum to the mode count {basis.n_modes}")
    return Prolongation(basis=basis, block_sizes=blocks)


class _BasisCells:
    """The basis coarse cell by coarse cell, and the cells' fine matrices.

    A basis column of node i vanishes outside the four coarse cells around
    i, so every fine-scale quantity of a run is a sum over coarse cells of
    small dense products with V_c: the Galerkin blocks V_c^T A_c V_c
    (:meth:`products`, :meth:`assemble`), loads and moments V_c^T w_c
    (:meth:`static_load`, :meth:`moments`), and the field V_c z_c
    (:meth:`field`). V_c holds the columns of the cell's corner nodes (lower
    left, lower right, upper left, upper right; m modes each) at the
    (r+1)^2 nodes of its closed box, row-major, and A_c is the cell's Q1
    mass or stiffness over that box, from the cell kernel
    (:class:`~msplit.fineassembly.CellKernel`). A node's block holds the
    interior of its (2r+1)^2 node box, ascending, so V_c is gathered
    straight from ``basis.stacked``, a quadrant of each corner node's box;
    the rows on that box's edge and the corners on the domain boundary,
    which have no basis, read its last row, which is zero. ``columns[c]``
    are the coarse columns of V_c's columns, node by node, made once.
    All take the cells :data:`_BATCH` at a time, and each cell's arithmetic
    is its own, so a cell gives the same bits alone as in any batch.
    """

    def __init__(self, fs: FineSystem, basis: OfflineBasis):
        g = fs.grid
        r, m = g.refine, basis.n_modes
        n_cells = g.nx_coarse * g.ny_coarse
        cx, cy = np.arange(n_cells) % g.nx_coarse, np.arange(n_cells) // g.nx_coarse
        lower_left = cy * (g.nx_coarse + 1) + cx
        corners = lower_left[:, None] + np.array([0, 1, g.nx_coarse + 1, g.nx_coarse + 2])
        index = np.full(g.n_coarse_nodes, -1)
        index[basis.nodes] = np.arange(len(basis.nodes))
        self.node = index[corners]   # (cells, 4) basis node index, -1 for no basis
        self._stacked = basis.stacked
        self._start = np.where(self.node >= 0, basis.block_start[self.node], -1)
        y, x = np.divmod(np.arange((r + 1) ** 2), r + 1)
        # each corner node's support rows at the cell box's nodes (row-major), -1 outside it
        wx, wy = x[:, None] + r * (1 - np.arange(4) % 2), y[:, None] + r * (1 - np.arange(4) // 2)
        inside = (wx > 0) & (wx < 2 * r) & (wy > 0) & (wy < 2 * r)
        self._quadrants = np.where(inside, (wy - 1) * (2 * r - 1) + wx - 1, -1)
        self._box = g.coarse_cell_boxes(np.arange(n_cells))
        self._owned = np.flatnonzero((x < r) & (y < r))
        self._kernel = CellKernel(g)
        self._kappa = self._kernel.coefficients(fs.kappa_cells)
        self._mass_data = self._kernel.mass_map @ np.ones(r * r)
        self.grid = g
        self.n_modes, self.n_nodes, self.n_columns = m, len(basis.nodes), basis.n_columns
        self.columns = np.where(self.node[:, :, None] >= 0,   # n_columns for no basis
                                self.node[:, :, None] * m + np.arange(m),
                                self.n_columns).reshape(n_cells, -1)

    def _mass(self, count: int) -> sp.csr_matrix:
        """Block-diagonal mass of ``count`` cells; every cell has the same."""
        return self._kernel.block_diagonal(
            np.broadcast_to(self._mass_data, (count, len(self._mass_data))))

    def batches(self) -> list:
        n_cells = len(self.node)
        return [np.arange(k, min(k + _BATCH, n_cells)) for k in range(0, n_cells, _BATCH)]

    def gather(self, cells: np.ndarray, rows=slice(None)) -> np.ndarray:
        """V_c of coarse ``cells`` at their box rows ``rows``: (len(cells), rows, 4m)."""
        start, quadrant = self._start[cells][:, None, :], self._quadrants[rows]
        index = np.where((start >= 0) & (quadrant >= 0), start + quadrant, len(self._stacked) - 1)
        return self._stacked[index].reshape(len(cells), -1, 4 * self.n_modes)

    def products(self, cells: np.ndarray) -> np.ndarray:
        """(V_c^T M_c V_c, V_c^T K_c V_c) of coarse ``cells``: (2, len(cells), 4m, 4m).

        Each operator is one block-diagonal sparse product A V over all
        ``cells`` and one stacked matrix product V^T (A V), and each block
        is made exactly symmetric.
        """
        values = self.gather(cells)
        stacked = values.transpose(0, 2, 1)
        flat = values.reshape(-1, values.shape[2])
        stiffness = self._kernel.block_diagonal((self._kernel.stiff_map @ self._kappa[cells].T).T)
        grams = []
        for operator in (self._mass(len(cells)), stiffness):
            gram = stacked @ (operator @ flat).reshape(values.shape)
            grams.append(0.5 * (gram + gram.transpose(0, 2, 1)))
        return np.stack(grams)

    def assemble(self) -> tuple:
        """The coarse mass and stiffness, node by node.

        Both are CSR on one pair of index arrays, sorted: every mode pair
        of every two nodes that share a coarse cell, explicit zeros included.
        Each entry sums the cells' exactly symmetric blocks in cell order
        (:data:`_BATCH` cells per :meth:`products` call), so both operators
        are exactly symmetric.
        """
        m, n_nodes = self.n_modes, self.n_nodes
        n_cells = len(self.node)
        grams = np.empty((2, n_cells, 4 * m, 4 * m))
        for cells in self.batches():
            grams[:, cells] = self.products(cells)

        # The rows of node i hold the modes of every node j that shares a
        # cell with i, ascending: deg(i) m entries. ``pairs`` lists those
        # (i, j) node-major, and a cell's corner pair (k, l) is pair ``rank``
        # of its row node.
        node = self.node
        shared = (node >= 0)[:, :, None] & (node >= 0)[:, None, :]
        keys = np.where(shared, node[:, :, None] * n_nodes + node[:, None, :], n_nodes ** 2)
        pairs, pair = np.unique(keys.ravel(), return_inverse=True)
        starts = np.searchsorted(pairs, np.arange(n_nodes + 1) * n_nodes)
        degree = np.diff(starts)
        corner = np.maximum(node, 0)   # stands in where no node is; such slots are dropped
        rank = pair.reshape(n_cells, 4, 4) - starts[corner][:, :, None]

        dof = self.columns.reshape(n_cells, 4, m)
        indptr = np.concatenate(([0], np.cumsum(np.repeat(degree * m, m))))
        nnz = int(indptr[-1])
        # slot[c, k, a, l, b]: where entry (mode a of corner k, mode b of
        # corner l) of cell c's block goes; nnz, past the end, for no basis
        slot = indptr[dof][:, :, :, None, None] + rank[:, :, None, :, None] * m + np.arange(m)
        slot = np.where(shared[:, :, None, :, None], slot, nnz).ravel()
        index = np.int32 if nnz < 2 ** 31 else np.int64
        indices = np.empty(nnz + 1, dtype=index)
        indices[slot] = np.broadcast_to(dof[:, None, None], (n_cells, 4, m, 4, m)).ravel()
        indices, indptr = indices[:nnz].copy(), indptr.astype(index)
        return tuple(
            sp.csr_matrix((np.bincount(slot, weights=gram.ravel(), minlength=nnz + 1)[:nnz],
                           indices, indptr), shape=(n_nodes * m, n_nodes * m))
            for gram in grams)

    def _pairings(self, weights) -> np.ndarray:
        """sum_c V_c^T w_c, ``weights(cells)`` giving the rows w_c of a batch of cells.

        Each column sums its cells in cell order.
        """
        out = np.zeros(self.n_columns + 1)
        for cells in self.batches():
            pairs = self.gather(cells).transpose(0, 2, 1) @ weights(cells)[:, :, None]
            out += np.bincount(self.columns[cells].ravel(), weights=pairs.ravel(),
                               minlength=len(out))
        return out[:-1]

    def moments(self, values: np.ndarray) -> np.ndarray:
        """P^T (M u) of the field ``values`` on all fine nodes: sum_c V_c^T (M_c u_c).

        ``values`` must vanish on the domain boundary, where the interior
        mass has no rows.
        """
        def weights(cells):
            return (self._mass(len(cells)) @ values[self._box[cells]].ravel()).reshape(
                len(cells), -1)

        return self._pairings(weights)

    def static_load(self, space) -> np.ndarray:
        """P^T q of the spatial profile g(x, y): sum_c V_c^T q_c."""
        return self._pairings(lambda cells: box_loads(self.grid, space, cells))

    def field(self, z: np.ndarray) -> np.ndarray:
        """P z on the interior fine nodes: V_c z_c at the nodes cell c owns.

        A cell owns its box's nodes below and left of its top and right
        edges, so every interior node is written once.
        """
        g = self.grid
        padded = np.append(z, 0.0)
        full = np.zeros(g.n_fine_nodes)
        for cells in self.batches():
            values = self.gather(cells, self._owned) @ padded[self.columns[cells]][:, :, None]
            full[self._box[cells][:, self._owned]] = values[:, :, 0]
        return full[g.interior_fine_ids]


def reconstruct_fine(fs: FineSystem, prol: Prolongation, z: np.ndarray) -> np.ndarray:
    """Map coarse coefficients, node by node, to an interior fine-grid vector, cell by cell."""
    z = np.asarray(z, dtype=float)
    if z.shape != (prol.n_columns,):
        raise ValueError(f"expected {prol.n_columns} coefficients, got {z.shape}")
    return _BasisCells(fs, prol.basis).field(z)


def project_coarse(fs: FineSystem, prol: Prolongation) -> CoarseSystem:
    """Galerkin projection of the fine system onto the basis, node by node.

    Returns the coarse mass/stiffness (exactly symmetric CSR), the projected
    forcing, and the initial coarse coefficients, each a sum over coarse
    cells of small dense products with the cell's basis columns
    (:class:`_BasisCells`); neither the prolongation matrix nor a global
    fine matrix is formed. C = P^T M P and
    B = P^T K P are sums of V_c^T A_c V_c, made with every OpenBLAS pinned
    to one thread and added into the structural pattern of the coarse
    operators. On example2-synthetic the two take 0.07-0.10 s in one
    process on a shared 2-vCPU host. Both operators are checked positive
    definite by one band factorization each, in the node order they are
    stored in; the system's ``block_sizes`` are the prolongation's mode
    blocks, a label over that order. Neither factor is kept: the one of C
    gives |g^|^2_{C^-1} for the energy monitor. The initial
    coefficients are the moments of the initial field, its mass pairings
    with each basis function, not solved with the coarse mass: that keeps
    the initial vector free of the near-dependent basis combinations that a
    mass solve amplifies, so the three-level scheme starts without exciting
    its weakly damped mode.

    The source a(t) g(x, y) is loaded and projected once, as the read-only
    row g^ = P^T q of its profile g, the coarse system's ``load``; its
    ``profile`` is the source's a, None for a static source.
    """
    cells = _BasisCells(fs, prol.basis)
    with single_thread_blas():
        mass, stiff = cells.assemble()

    source = fs.source
    cs = CoarseSystem(block_sizes=prol.block_sizes,
                      mass=mass, stiff=stiff, z0=np.zeros(prol.n_columns),
                      load=(np.zeros(prol.n_columns) if source is None
                            else cells.static_load(source.space)),
                      profile=None if source is None else source.time)
    try:
        cs.load_norm_sq()
        BandCholesky(cs.stiff, context="coarse stiffness")
    except NumericalError as exc:
        raise NumericalError(
            f"coarse system is not positive definite (near-dependent basis): {exc}"
        ) from exc
    u0 = fs.initial_vector()
    if np.any(u0):
        values = np.zeros(fs.grid.n_fine_nodes)
        values[fs.grid.interior_fine_ids] = u0
        cs.z0 = cells.moments(values)
    return cs


# --- basis dump (plain text, every value to 17 significant digits) ---

def dump_basis(basis: OfflineBasis, path) -> None:
    """Write the offline basis to a text file for inspection.

    Layout: magic line; header ``nx_coarse ny_coarse refine n_modes n_nodes``;
    per neighborhood a ``node`` line, one line of eigenvalues, then a
    ``support`` count line and that many rows of interior dof index followed
    by the mode values at that dof.
    """
    g = basis.grid
    with open(path, "w") as fh:
        fh.write("msplit-basis 2\n")
        fh.write(f"{g.nx_coarse} {g.ny_coarse} {g.refine} {basis.n_modes} "
                 f"{len(basis.nodes)}\n")
        for i, node in enumerate(basis.nodes):
            fh.write(f"node {node}\n")
            fh.write(" ".join(format(v, ".17g") for v in basis.eigenvalues[i]) + "\n")
            sup = basis.support(i)
            fh.write(f"support {len(sup)}\n")
            for index, row in zip(sup, basis.stacked[basis.block_start[i]:]):
                fh.write(f"{index} " + " ".join(format(v, ".17g") for v in row) + "\n")
