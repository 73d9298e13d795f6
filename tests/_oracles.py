"""Independent reference computations for the test suite.

Everything here recomputes quantities from first principles with its own
arithmetic (Gauss quadrature element loops, symbolic characteristic
polynomials, explicit dense time steppers) so that package results can be
checked against a second route. Nothing imports package internals; the
oracles read the fields of package records (the grid geometry containers,
the basis's stacked blocks, and for the error recursion the split's mass
and stiffness parts, the split run's config and the two trajectories). A
basis node's support comes from its own ``grid.neighborhood``, not from the
basis, so it checks the basis's shifted template.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
import sympy

from msplit.grid import neighborhood

# 3-point Gauss rule on [0, 1]; exact through degree 5, enough for products
# of bilinear shape functions and their gradients on one cell
_GPTS = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
_GWTS = 0.5 * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


def _shapes(s, t):
    vals = np.array([(1 - s) * (1 - t), s * (1 - t), (1 - s) * t, s * t])
    ds = np.array([-(1 - t), (1 - t), -t, t])
    dt = np.array([-(1 - s), -s, (1 - s), s])
    return vals, ds, dt


def dense_q1_matrices(g, kappa_cells, mass_weight_cells=None):
    """Dense mass and stiffness over all fine nodes by quadrature.

    ``kappa_cells`` weights the stiffness, ``mass_weight_cells`` the mass
    (both cellwise constant, shape (ny_fine, nx_fine) or flat). No boundary
    conditions are applied.
    """
    n = g.n_fine_nodes
    kflat = np.asarray(kappa_cells, dtype=float).ravel()
    if mass_weight_cells is None:
        wflat = np.ones(g.n_fine_cells)
    else:
        wflat = np.asarray(mass_weight_cells, dtype=float).ravel()
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    mloc = np.zeros((4, 4))
    sloc = np.zeros((4, 4))
    for s, ws in zip(_GPTS, _GWTS):
        for t, wt in zip(_GPTS, _GWTS):
            vals, ds, dt = _shapes(s, t)
            gx = ds / g.hx
            gy = dt / g.hy
            mloc += ws * wt * np.outer(vals, vals)
            sloc += ws * wt * (np.outer(gx, gx) + np.outer(gy, gy))
    mloc *= g.hx * g.hy
    sloc *= g.hx * g.hy
    nper = g.nx_fine + 1
    for cell in range(g.n_fine_cells):
        cx = cell % g.nx_fine
        cy = cell // g.nx_fine
        n00 = cy * nper + cx
        ids = [n00, n00 + 1, n00 + nper, n00 + nper + 1]
        mass[np.ix_(ids, ids)] += wflat[cell] * mloc
        stiff[np.ix_(ids, ids)] += kflat[cell] * sloc
    return mass, stiff


def scatter_load(g, source, t):
    """Load vector on interior fine nodes by scattering each 2x2 Gauss point.

    A plain element loop: for each Gauss point in turn, every cell adds
    weight * f * shape value to its four corners through ``np.add.at``.
    """
    g0 = 0.5 * (1.0 - 1.0 / np.sqrt(3.0))
    g1 = 0.5 * (1.0 + 1.0 / np.sqrt(3.0))
    cells = np.arange(g.n_fine_cells, dtype=np.int64)
    cx = cells % g.nx_fine
    cy = cells // g.nx_fine
    n00 = cy * (g.nx_fine + 1) + cx
    nodes4 = np.stack([n00, n00 + 1, n00 + g.nx_fine + 1, n00 + g.nx_fine + 2],
                      axis=1)
    full = np.zeros(g.n_fine_nodes)
    wt = 0.25 * g.hx * g.hy
    for s, tq in [(g0, g0), (g1, g0), (g0, g1), (g1, g1)]:
        shape = np.array([(1 - s) * (1 - tq), s * (1 - tq), (1 - s) * tq, s * tq])
        fv = np.asarray(source(t, cx * g.hx + s * g.hx, cy * g.hy + tq * g.hy),
                        dtype=float)
        np.add.at(full, nodes4, wt * fv[:, None] * shape[None, :])
    return full[g.interior_fine_ids]


def space_time(source):
    """f(t, x, y) = a(t) g(x, y) of a source's profiles, for :func:`scatter_load`.

    a is 1 for a source without a time profile.
    """
    def f(t, x, y):
        scale = 1.0 if source.time is None else source.time(np.array([t]))[0]
        return scale * source.space(x, y)

    return f


def coarse_cell_fine_cells(g, cell):
    """Flat fine-cell ids inside one coarse cell, row-major."""
    cx, cy = cell % g.nx_coarse, cell // g.nx_coarse
    r = g.refine
    gx, gy = np.meshgrid(np.arange(cx * r, (cx + 1) * r), np.arange(cy * r, (cy + 1) * r))
    return (gy * g.nx_fine + gx).ravel()


def basis_blocks(basis):
    """(support, block) of every basis node, in node order.

    The support is the interior dof index of each fine node strictly inside
    the node's neighborhood, ascending, from ``grid.neighborhood``; the block
    is the node's rows of the basis's stacked array, one row per support dof.
    """
    g = basis.grid
    out = []
    for node, start in zip(basis.nodes, basis.block_start):
        support = np.searchsorted(g.interior_fine_ids, neighborhood(g, int(node)).interior)
        out.append((support, basis.stacked[start:start + len(support)]))
    return out


def prolongation_matrix(basis, block_sizes):
    """The prolongation of ``basis`` as one sparse matrix, from coordinate triplets.

    Block q takes modes m_q .. m_q + b_q of every node, node-major: column
    n_nodes * m_q + i * b_q + (k - m_q) is mode k of the i-th node, stored
    on its support (:func:`basis_blocks`). Rows are the interior fine nodes.
    """
    n_nodes = len(basis.nodes)
    rows, cols, vals = [], [], []
    first = 0
    for b in block_sizes:
        for i, (sup, vec) in enumerate(basis_blocks(basis)):
            for k in range(first, first + b):
                rows.append(sup)
                cols.append(np.full(len(sup), n_nodes * first + i * b + k - first))
                vals.append(vec[:, k])
        first += b
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(basis.grid.n_interior_fine, n_nodes * first))


def sparse_galerkin(prol, fine):
    """The exactly symmetric Galerkin product 1/2 (S + S^T), S = P^T (A P), as CSR."""
    product = (prol.T @ (fine @ prol)).tocsr()
    return 0.5 * (product + product.T)


def energy_gram_schmidt(block, stiff):
    """Modified Gram-Schmidt of the columns of ``block`` in the product x^T K y.

    Columns are taken in order; each is stripped of its components along
    the ones before it, one at a time, and divided by its energy norm.
    """
    out = np.array(block, dtype=float)
    for j in range(out.shape[1]):
        v = out[:, j]
        for k in range(j):
            v = v - (out[:, k] @ (stiff @ v)) * out[:, k]
        out[:, j] = v / np.sqrt(v @ (stiff @ v))
    return out


def charpoly_eigs(astiff, smass):
    """Eigenvalues of the pencil det(A - lambda S) = 0 via symbolic roots.

    Matrix entries are lifted to exact rationals, the determinant is expanded
    symbolically, and the polynomial roots are isolated to 30 digits.
    """
    lam = sympy.Symbol("lam")
    exact = lambda mat: sympy.Matrix(
        [[sympy.Rational(float(v)) for v in row] for row in np.asarray(mat)])
    a = exact(astiff)
    s = exact(smass)
    poly = sympy.Poly((a - lam * s).det(), lam)
    roots = [complex(r) for r in poly.nroots(n=30)]
    assert all(abs(r.imag) < 1e-12 * max(abs(r), 1.0) for r in roots)
    return np.sort(np.array([r.real for r in roots]))


def dense_backward_euler(cmat, bmat, rhs, z0, tau, n_steps):
    """Plain dense backward Euler history, one numpy solve per step."""
    states = [np.asarray(z0, dtype=float)]
    lhs = cmat + tau * bmat
    for n in range(n_steps):
        f = rhs((n + 1) * tau)
        states.append(np.linalg.solve(lhs, tau * f + cmat @ states[-1]))
    return np.array(states)


def dense_split_step(c1, c2, b1, b2, tm, ts, tau, z_now, z_prev, f_next):
    """One step of the three-level scheme from its defining relation.

    Written directly from the time-difference form: the implicit parts carry
    a weighted new-to-old difference and the rests lag one level, so the new
    state solves (tm*C1 + tau*ts*B1) z = tau*f - tau*((1-ts)*B1 + B2) z_now
    - ((1-2*tm)*C1 + C2) z_now + ((1-tm)*C1 + C2) z_prev.
    """
    lhs = tm * c1 + tau * ts * b1
    rhs = (tau * f_next
           - tau * ((1.0 - ts) * b1 + b2) @ z_now
           - ((1.0 - 2.0 * tm) * c1 + c2) @ z_now
           + ((1.0 - tm) * c1 + c2) @ z_prev)
    return np.linalg.solve(lhs, rhs)


def random_spd(rng, n, shift=1.0):
    """Random symmetric positive definite matrix shift*I + L L^T."""
    low = rng.standard_normal((n, n)) / np.sqrt(n)
    return shift * np.eye(n) + low @ low.T


def dense_threshold(mmat, block_sizes):
    """Certificate threshold lambda_max(M1^-1 M) / 2 by one dense eigensolve.

    M1 keeps the diagonal blocks of ``mmat`` over consecutive blocks of
    ``block_sizes``; the pencil (M, M1) goes to ``scipy.linalg.eigh``.
    """
    mmat = np.asarray(mmat, dtype=float)
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    m1 = np.where(block[:, None] == block[None, :], mmat, 0.0)
    return 0.5 * scipy.linalg.eigh(mmat, m1, eigvals_only=True)[-1]


def oracle_snapshots(g, kappa_cells, nb):
    """Harmonic snapshot columns recomputed from scratch.

    For every Kronecker data column on the neighborhood boundary: coarse
    skeleton nodes get the boundary value, the linear interpolant along
    interior coarse edges, or (at a coarse vertex carrying no data) the mean
    of the data at its coarse neighbors; each coarse cell is then solved as a
    dense Dirichlet problem with quadrature-assembled stiffness. Returns an
    array matching the (nodes, boundary) layout of the package's snapshots.
    """
    r = g.refine
    nper = g.nx_fine + 1
    boundary = list(nb.boundary)
    L = len(boundary)
    bpos = {int(n_): k for k, n_ in enumerate(boundary)}

    def vertex_value(v):
        if v in bpos:
            row = np.zeros(L)
            row[bpos[v]] = 1.0
            return row
        row = np.zeros(L)
        hits = 0
        for step in (r, -r, r * nper, -r * nper):
            if v + step in bpos:
                row[bpos[v + step]] = 1.0
                hits += 1
        assert hits > 0
        return row / hits

    values = {}
    for node in nb.nodes:
        node = int(node)
        ix, iy = node % nper, node // nper
        if node in bpos:
            row = np.zeros(L)
            row[bpos[node]] = 1.0
            values[node] = row
        elif ix % r == 0 and iy % r == 0:
            values[node] = vertex_value(node)
        elif ix % r == 0:
            lo = node - (iy % r) * nper
            t = (iy % r) / r
            values[node] = ((1 - t) * vertex_value(lo)
                            + t * vertex_value(lo + r * nper))
        elif iy % r == 0:
            lo = node - (ix % r)
            t = (ix % r) / r
            values[node] = (1 - t) * vertex_value(lo) + t * vertex_value(lo + r)

    kappa_flat = np.asarray(kappa_cells, dtype=float).ravel()
    for cell in nb.cells:
        cx = int(cell) % g.nx_coarse
        cy = int(cell) // g.nx_coarse
        ids = []
        for iy in range(cy * r, (cy + 1) * r + 1):
            for ix in range(cx * r, (cx + 1) * r + 1):
                ids.append(iy * nper + ix)
        edge = [n_ for n_ in ids
                if (n_ % nper) in (cx * r, (cx + 1) * r)
                or (n_ // nper) in (cy * r, (cy + 1) * r)]
        inner = [n_ for n_ in ids if n_ not in edge]
        if not inner:
            continue
        # restrict the stiffness to this cell's own integration domain
        local_kappa = np.zeros(g.n_fine_cells)
        for fy in range(cy * r, (cy + 1) * r):
            for fx in range(cx * r, (cx + 1) * r):
                local_kappa[fy * g.nx_fine + fx] = kappa_flat[fy * g.nx_fine + fx]
        _, cell_stiff = dense_q1_matrices(g, local_kappa)
        a_ii = cell_stiff[np.ix_(inner, inner)]
        a_ib = cell_stiff[np.ix_(inner, edge)]
        gdata = np.array([values[n_] for n_ in edge])
        sol = np.linalg.solve(a_ii, -a_ib @ gdata)
        for k, n_ in enumerate(inner):
            values[n_] = sol[k]

    return np.array([values[int(n_)] for n_ in nb.nodes])


@dataclass
class RecursionReport:
    """Residuals of the exact error recursion between split and unsplit runs."""

    residuals: np.ndarray      # one per split step
    coupling_norm: float       # Frobenius norm of C2 + tau * B2
    error_norms: np.ndarray    # Euclidean error per time level

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max()) if len(self.residuals) else 0.0


def error_recursion_diag(parts, config, reference, split):
    """Verify the error recursion of the fully implicit split scheme.

    For theta_mass = theta_stiff = 1 the deviation e^n between the unsplit
    backward Euler run and the split run satisfies exactly

        (C + tau*B) e^{n+1} = C e^n + C2 (z^n - z^{n-1})
                              - (C2 + tau*B2) (z^{n+1} - z^n).

    ``config`` is the split run's SplitConfig. A split run carries its
    stability certificate and a backward Euler run none. Returns the
    stepwise defect of that identity; other weights are refused.
    """
    if reference.certificate is not None or split.certificate is None:
        raise ValueError("need one backward Euler reference and one split run")
    if config.theta_mass != 1.0 or config.theta_stiff != 1.0:
        raise ValueError("the error recursion holds for the fully implicit "
                         "weights only (theta_mass = theta_stiff = 1)")
    if not reference.tau == split.tau == config.tau \
            or reference.states.shape != split.states.shape:
        raise ValueError("trajectories do not share the time grid")
    tau = split.tau
    cmat, bmat = parts.mass, parts.stiff
    lhs_mat = cmat + tau * bmat
    err = reference.states - split.states
    z = split.states
    n_steps = split.n_steps
    residuals = np.empty(max(n_steps - 1, 0))
    mass_rest = cmat - parts.mass_main
    coupling_mat = mass_rest + tau * (bmat - parts.stiff_main)
    for n in range(1, n_steps):
        rhs = (cmat @ err[n] + mass_rest @ (z[n] - z[n - 1])
               - coupling_mat @ (z[n + 1] - z[n]))
        residuals[n - 1] = np.abs(lhs_mat @ err[n + 1] - rhs).max()
    coupling = float(sp.linalg.norm(coupling_mat, "fro"))
    error_norms = np.linalg.norm(err, axis=1)
    return RecursionReport(residuals=residuals, coupling_norm=coupling,
                           error_norms=error_norms)
