"""Multiscale basis construction on coarse-node neighborhoods.

For every interior coarse node the snapshot space collects discrete
permeability-harmonic extensions of nodal boundary data on the neighborhood
boundary, solved coarse cell by coarse cell with edgewise-linear data on
interior coarse edges. A generalized spectral problem between the
permeability-weighted energy and a scaled mass form selects the dominant
modes, which are localized by the bilinear partition of unity and
energy-orthonormalized within the neighborhood. The resulting columns form
the prolongation from coarse coefficients to interior fine nodes: one sparse
matrix whose columns are grouped by mode block, so the Galerkin projection
yields the coarse operators directly in the block order the split scheme
reads. The coarse mass and stiffness stay sparse, as exactly symmetric CSR
matrices, from the projection to the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fineassembly
from .fineassembly import FineSystem, local_matrices
from .grid import GridPair, Neighborhood, neighborhood, partition_of_unity
from .linalg import NumericalError, SparseCholesky, eig_gsym, single_thread_blas
from .splitting import CoarseSystem

__all__ = [
    "SnapshotSpace",
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
    "project_coarse",
    "dump_basis",
    "load_basis",
]


@dataclass
class SnapshotSpace:
    """Harmonic snapshot columns over one neighborhood.

    ``columns[k, l]`` is the value of snapshot ``l`` at ``nodes[k]``; column
    ``l`` carries Kronecker data at ``boundary[l]``.
    """

    node: int
    nodes: np.ndarray
    boundary: np.ndarray
    columns: np.ndarray


@dataclass
class NeighborhoodModes:
    """Dominant spectral modes of one neighborhood in fine-grid coordinates.

    ``vectors`` are snapshot combinations (not yet multiplied by the partition
    of unity); eigenvalues are ascending.
    """

    node: int
    nodes: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass
class OfflineBasis:
    """Localized multiscale basis columns for all interior coarse nodes."""

    grid: GridPair
    n_modes: int
    nodes: np.ndarray            # interior coarse node ids, ascending
    eigenvalues: np.ndarray      # (n_nodes, n_modes)
    supports: list               # interior-dof index arrays, one per node
    vectors: list                # (len(support), n_modes) arrays
    orthonormalized: bool = True

    @property
    def n_columns(self) -> int:
        return len(self.nodes) * self.n_modes


@dataclass
class Prolongation:
    """Sparse prolongation from coarse coefficients to interior fine nodes.

    Columns are ordered mode block by mode block, the order of the stacked
    coarse vectors: block ``q`` holds modes ``m_q .. m_q + b_q`` of every
    neighborhood, node-major, so mode ``k`` of the ``i``-th neighborhood sits
    in column ``n_nodes * m_q + i * b_q + (k - m_q)``.
    """

    matrix: sp.csr_matrix
    block_sizes: tuple

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


class _CellSolver:
    """Factorized interior solve of one coarse cell's local Dirichlet problem."""

    def __init__(self, fs: FineSystem, cell: int):
        g = fs.grid
        cx, cy = g.coarse_cell_grid(cell)
        r = g.refine
        nodes = g.fine_nodes_in_box(cx * r, (cx + 1) * r, cy * r, (cy + 1) * r)
        ix = nodes % (g.nx_fine + 1)
        iy = nodes // (g.nx_fine + 1)
        on_edge = (ix == cx * r) | (ix == (cx + 1) * r) | (iy == cy * r) | (iy == (cy + 1) * r)
        self.bnodes = nodes[on_edge]
        self.inodes = nodes[~on_edge]
        cells = g.coarse_cell_fine_cells(cell)
        _, stiff = local_matrices(g, fs.kappa_cells, cells, nodes)
        stiff = stiff.toarray()
        bpos = np.searchsorted(nodes, self.bnodes)
        ipos = np.searchsorted(nodes, self.inodes)
        if len(self.inodes) == 0:
            self.mapmat = np.zeros((0, len(self.bnodes)))
            return
        a_ii = stiff[np.ix_(ipos, ipos)]
        a_ib = stiff[np.ix_(ipos, bpos)]
        try:
            factor = scipy.linalg.cho_factor(a_ii, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(
                f"local solve in coarse cell ({cx}, {cy}) is not positive definite: {exc}"
            ) from exc
        self.mapmat = -scipy.linalg.cho_solve(factor, a_ib)


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
                    solver_cache: Optional[dict] = None) -> SnapshotSpace:
    """Solve the snapshot family of one neighborhood, one column per boundary node.

    Cell factorizations are made on first use and kept in ``solver_cache``,
    so neighborhoods that share a coarse cell factor it once.
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
    return SnapshotSpace(node=nb.node, nodes=nb.nodes, boundary=nb.boundary,
                         columns=columns)


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


def spectral_matrices(fs: FineSystem, nb: Neighborhood, snaps: SnapshotSpace,
                      mass_weight_cells: Optional[np.ndarray] = None):
    """Stiffness and weighted-mass forms of the snapshot columns.

    Returns the dense symmetric pencil (astiff, smass) in snapshot
    coordinates. ``mass_weight_cells`` overrides the default spectral weight
    (flat array over all fine cells) so alternative forms can plug in.
    """
    g = fs.grid
    if mass_weight_cells is None:
        mass_weight_cells = spectral_mass_weight(g, fs.kappa_cells)
    cells = np.concatenate([g.coarse_cell_fine_cells(int(c)) for c in nb.cells])
    wmass, stiff = local_matrices(g, fs.kappa_cells, cells, nb.nodes,
                                  mass_weight_cells=mass_weight_cells)
    s_cols = snaps.columns
    astiff = s_cols.T @ (stiff @ s_cols)
    smass = s_cols.T @ (wmass @ s_cols)
    astiff = 0.5 * (astiff + astiff.T)
    smass = 0.5 * (smass + smass.T)
    return astiff, smass


def _modes_for_node(fs, node, n_modes, cell_cache, mass_weight_cells):
    nb = neighborhood(fs.grid, node)
    if n_modes > nb.n_boundary:
        raise ValueError(
            f"requested {n_modes} modes but neighborhood {node} has only "
            f"{nb.n_boundary} snapshots")
    snaps = build_snapshots(fs, nb, cell_cache)
    astiff, smass = spectral_matrices(fs, nb, snaps, mass_weight_cells)
    eig = eig_gsym(astiff, smass, context=f"neighborhood {node}")
    vectors = snaps.columns @ eig.vectors[:, :n_modes]
    return NeighborhoodModes(node=node, nodes=nb.nodes,
                             eigenvalues=eig.values[:n_modes], vectors=vectors)


def offline_modes(fs: FineSystem, n_modes: int) -> list:
    """Spectral modes for every interior coarse node, ascending node order.

    The neighborhoods are solved one after another with every loaded
    OpenBLAS pinned to one thread; each library's previous thread count is
    restored on return and on error. The pencils are small (128 x 128 on
    example1), and there the 225 neighborhood solves took about half as long
    on one BLAS thread as on two. Where no OpenBLAS thread control is found,
    the loop runs unpinned. Each coarse cell is factored once, up front, and
    shared by the neighborhoods around it.
    """
    g = fs.grid
    nodes = g.interior_coarse_ids
    if len(nodes) == 0:
        raise ValueError("grid has no interior coarse nodes")
    weight = spectral_mass_weight(g, fs.kappa_cells)
    with single_thread_blas():
        # every coarse cell lies in some interior neighborhood. Made on first
        # use, between the neighborhood solves, the same factorizations left
        # example1's peak RSS about 11 MB (5 %) higher later in the run; made
        # up front, they are allocated and freed together.
        cell_cache = {cell: _CellSolver(fs, cell)
                      for cell in range(g.nx_coarse * g.ny_coarse)}
        return [_modes_for_node(fs, int(node), n_modes, cell_cache, weight)
                for node in nodes]


def assemble_basis(fs: FineSystem, modes_list: list, n_modes: int,
                   orthonormalize: bool = True) -> OfflineBasis:
    """Localize spectral modes by the partition of unity and orthonormalize.

    The Gram-Schmidt sweep runs within each neighborhood in the energy inner
    product; with ``orthonormalize=False`` the raw localized modes are kept.
    """
    g = fs.grid
    nodes = np.array([m.node for m in modes_list], dtype=np.int64)
    supports, vectors, eigenvalues = [], [], []
    for modes in modes_list:
        if n_modes > modes.vectors.shape[1]:
            raise ValueError(f"neighborhood {modes.node} stores only "
                             f"{modes.vectors.shape[1]} modes, need {n_modes}")
        nb_nodes = modes.nodes
        pou = partition_of_unity(g, modes.node)[nb_nodes]
        psi = pou[:, None] * modes.vectors[:, :n_modes]
        inner_mask = g.fine_interior_index[nb_nodes] >= 0
        # the hat vanishes on the neighborhood boundary; keep supported rows only
        ix0, ix1, iy0, iy1 = _node_box(g, nb_nodes)
        nper = g.nx_fine + 1
        on_nb_edge = ((nb_nodes % nper == ix0) | (nb_nodes % nper == ix1)
                      | (nb_nodes // nper == iy0) | (nb_nodes // nper == iy1))
        keep = inner_mask & ~on_nb_edge
        support = g.fine_interior_index[nb_nodes[keep]]
        block = psi[keep]
        if orthonormalize:
            sub = fs.stiffness[support][:, support]
            block = _energy_gram_schmidt(block, sub, modes.node)
        supports.append(support)
        vectors.append(block)
        eigenvalues.append(modes.eigenvalues[:n_modes])
    return OfflineBasis(grid=g, n_modes=n_modes, nodes=nodes,
                        eigenvalues=np.array(eigenvalues), supports=supports,
                        vectors=vectors, orthonormalized=orthonormalize)


def _node_box(g, nodes):
    nper = g.nx_fine + 1
    ix = nodes % nper
    iy = nodes // nper
    return ix.min(), ix.max(), iy.min(), iy.max()


def _energy_gram_schmidt(block: np.ndarray, stiff: sp.csr_matrix, node: int) -> np.ndarray:
    """Modified Gram-Schmidt in the energy inner product, column order kept."""
    out = block.copy()
    for j in range(out.shape[1]):
        v = out[:, j]
        for k in range(j):
            v = v - (out[:, k] @ (stiff @ v)) * out[:, k]
        nrm2 = v @ (stiff @ v)
        if not np.isfinite(nrm2) or nrm2 <= 1e-28:
            raise NumericalError(
                f"energy orthonormalization degenerated in neighborhood {node} "
                f"at column {j}")
        out[:, j] = v / np.sqrt(nrm2)
    return out


def build_offline(fs: FineSystem, n_modes: int, *,
                  orthonormalize: bool = True) -> OfflineBasis:
    """Full offline stage: snapshots, spectral modes, localized basis."""
    modes = offline_modes(fs, n_modes)
    return assemble_basis(fs, modes, n_modes, orthonormalize=orthonormalize)


def assemble_prolongation(basis: OfflineBasis, blocks) -> Prolongation:
    """Assemble the prolongation with its columns in mode-block order.

    ``blocks`` partitions the per-node mode count: block q takes modes
    ``offset_q .. offset_q + blocks[q]`` of every neighborhood.
    """
    blocks = tuple(int(b) for b in blocks)
    if len(blocks) == 0 or any(b < 1 for b in blocks):
        raise ValueError(f"block sizes must be positive, got {blocks}")
    if sum(blocks) != basis.n_modes:
        raise ValueError(
            f"block sizes {blocks} do not sum to the mode count {basis.n_modes}")
    ell = basis.n_modes
    n_nb = len(basis.nodes)
    column = np.empty((n_nb, ell), dtype=np.int64)
    offset = 0
    for b in blocks:
        column[:, offset:offset + b] = (n_nb * offset + b * np.arange(n_nb)[:, None]
                                        + np.arange(b)[None, :])
        offset += b
    rows = np.concatenate([np.repeat(sup, ell) for sup in basis.supports])
    cols = np.concatenate([np.tile(column[i], len(sup))
                           for i, sup in enumerate(basis.supports)])
    vals = np.concatenate([vec.ravel() for vec in basis.vectors])
    matrix = sp.coo_matrix((vals, (rows, cols)),
                           shape=(len(basis.grid.interior_fine_ids), n_nb * ell)).tocsr()
    return Prolongation(matrix=matrix, block_sizes=blocks)


def _galerkin(prol: sp.csr_matrix, fine: sp.csr_matrix) -> sp.csr_matrix:
    """Exactly symmetric projection prol^T fine prol, as CSR."""
    coarse = prol.T @ (fine @ prol)
    return (0.5 * (coarse + coarse.T)).tocsr()  # the product is CSC


def project_coarse(fs: FineSystem, prol: Prolongation,
                   initial: str = "moments") -> CoarseSystem:
    """Galerkin projection of the fine system onto the block basis.

    Returns the coarse mass/stiffness (exactly symmetric CSR), the projected
    forcing, and the initial coarse coefficients. Both operators are checked
    positive definite by one sparse factorization each; the coarse system
    keeps the mass factor for its later solves with C. With
    ``initial="moments"`` the coefficients are the pairings of the initial
    field with each basis function; with ``initial="projection"`` they are
    additionally left-solved with the coarse mass matrix, which makes the
    reconstructed field the L2 projection of the initial data. The moment
    form keeps the initial vector free of the near-dependent basis
    combinations that the mass solve amplifies, so the three-level scheme
    starts without exciting its weakly damped mode; the projection form is
    preferable when the reconstructed fields themselves are the output of
    interest.

    A time-dependent forcing keeps the grid's load operator Q and P^T, so
    ``rhs(t)`` is P^T (Q f(t)): one source evaluation and two sparse
    products. A static forcing is loaded and projected once.
    """
    if initial not in ("moments", "projection"):
        raise ValueError(f"unknown initial-vector mode {initial!r}")
    pmat = prol.matrix
    source = fs.source
    time_dependent = getattr(source, "time_dependent", source is not None)

    if time_dependent:
        # two products, not one fused P^T Q: the fused matrix is far denser
        # than both factors together and slower to apply. P^T is a view of
        # P's arrays; a CSR copy of it is no faster and doubles P's memory.
        loads = fineassembly.LoadOperator(fs.grid)
        pmat_t = pmat.T

        def rhs(t: float) -> np.ndarray:
            return pmat_t @ loads.load(source, t)
    else:
        static = pmat.T @ fineassembly.load(fs.grid, source, 0.0)

        def rhs(t: float) -> np.ndarray:
            return static

    n_nodes = prol.n_columns // sum(prol.block_sizes)
    cs = CoarseSystem(block_sizes=tuple(n_nodes * b for b in prol.block_sizes),
                      mass=_galerkin(pmat, fs.mass),
                      stiff=_galerkin(pmat, fs.stiffness), rhs=rhs,
                      z0=np.zeros(prol.n_columns))
    try:
        mass_factor = cs.mass_factor()
        SparseCholesky(cs.stiff, context="coarse stiffness")
    except NumericalError as exc:
        raise NumericalError(
            f"coarse system is not positive definite (near-dependent basis): {exc}"
        ) from exc
    u0 = fs.initial_vector()
    if np.any(u0):
        moments = pmat.T @ (fs.mass @ u0)
        if initial == "moments":
            cs.z0 = moments
        else:
            cs.z0 = mass_factor.solve(moments)
    return cs


# --- basis dump/load (plain text, round-trips exactly) ---

_BASIS_MAGIC = "msplit-basis 1"


def dump_basis(basis: OfflineBasis, path) -> None:
    """Write the offline basis to a text file for reuse between runs.

    Layout: magic line; grid and size header; per neighborhood a ``node`` line,
    one line of eigenvalues, then ``support`` rows of interior dof index
    followed by the mode values at that dof.
    """
    g = basis.grid
    with open(path, "w") as fh:
        fh.write(_BASIS_MAGIC + "\n")
        fh.write(f"{g.nx_coarse} {g.ny_coarse} {g.refine} {basis.n_modes} "
                 f"{len(basis.nodes)} {int(basis.orthonormalized)}\n")
        for i, node in enumerate(basis.nodes):
            fh.write(f"node {node}\n")
            fh.write(" ".join(format(v, ".17g") for v in basis.eigenvalues[i]) + "\n")
            sup = basis.supports[i]
            fh.write(f"support {len(sup)}\n")
            for k in range(len(sup)):
                row = " ".join(format(v, ".17g") for v in basis.vectors[i][k])
                fh.write(f"{sup[k]} {row}\n")


def load_basis(path) -> OfflineBasis:
    """Read a basis dump written by :func:`dump_basis`."""
    with open(path) as fh:
        if fh.readline().strip() != _BASIS_MAGIC:
            raise ValueError(f"{path} is not a basis dump")
        nxc, nyc, refine, n_modes, n_nodes, ortho = map(int, fh.readline().split())
        g = GridPair(nxc, nyc, refine)
        nodes, eigenvalues, supports, vectors = [], [], [], []
        for _ in range(n_nodes):
            tag, node = fh.readline().split()
            if tag != "node":
                raise ValueError(f"{path}: malformed node record")
            nodes.append(int(node))
            eigenvalues.append([float(v) for v in fh.readline().split()])
            tag, count = fh.readline().split()
            if tag != "support":
                raise ValueError(f"{path}: malformed support record")
            sup = np.empty(int(count), dtype=np.int64)
            vec = np.empty((int(count), n_modes))
            for k in range(int(count)):
                parts = fh.readline().split()
                sup[k] = int(parts[0])
                vec[k] = [float(v) for v in parts[1:]]
            supports.append(sup)
            vectors.append(vec)
    return OfflineBasis(grid=g, n_modes=n_modes, nodes=np.array(nodes),
                        eigenvalues=np.array(eigenvalues), supports=supports,
                        vectors=vectors, orthonormalized=bool(ortho))
