"""Offline multiscale construction: snapshots, spectral modes, prolongation."""

import dataclasses
import inspect
import logging
import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

from msplit import driver, fineassembly, gmsfem, linalg, splitting
from msplit.fineassembly import BoxSum, Permeability, Source, assemble, assemble_matrices
from msplit.grid import GridPair, neighborhood, partition_of_unity
from msplit.linalg import NumericalError

from _oracles import (basis_blocks, coarse_cell_fine_cells, dense_q1_matrices,
                      energy_gram_schmidt, oracle_snapshots, prolongation_matrix,
                      scatter_load, space_time, sparse_galerkin)
from conftest import assert_basis_dump, rng_for


def wavy_kappa(x, y):
    return 1.0 + x + 2.0 * y ** 2 + 0.5 * np.sin(6.0 * x * y)


@pytest.fixture(scope="module")
def small():
    g = GridPair(2, 2, 3)
    fs = assemble(g, Permeability(wavy_kappa),
                  source=Source(lambda x, y: np.cos(x + y), lambda t: 1.0 + t),
                  initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    return g, fs


# --- snapshots ---

def test_snapshots_preserve_constants(small):
    # data identically one extends harmonically to one for any permeability,
    # so the snapshot columns sum to one at every neighborhood node
    g, fs = small
    for node in (4, 1, 0):
        snaps = gmsfem.build_snapshots(fs, neighborhood(g, node))
        sums = snaps.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_snapshots_min_max_principle(small):
    g, fs = small
    snaps = gmsfem.build_snapshots(fs, neighborhood(g, 4))
    assert snaps.min() >= -1e-12
    assert snaps.max() <= 1.0 + 1e-12


def test_snapshots_kronecker_data_on_boundary(small):
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    rows = np.searchsorted(nb.nodes, nb.boundary)
    assert np.allclose(snaps[rows], np.eye(nb.n_boundary), atol=1e-14)


@pytest.mark.parametrize("node", [4, 1, 0])
def test_snapshots_match_dense_oracle(small, node):
    # interior node (4 cells with a center vertex), edge node (2 cells), and
    # corner node (1 cell) against a from-scratch dense reconstruction
    g, fs = small
    nb = neighborhood(g, node)
    snaps = gmsfem.build_snapshots(fs, nb)
    expected = oracle_snapshots(g, fs.kappa_cells, nb)
    assert np.max(np.abs(snaps - expected)) < 1e-10


def test_snapshots_dense_oracle_unit_kappa():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0))
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    expected = oracle_snapshots(g, fs.kappa_cells, nb)
    assert np.max(np.abs(snaps - expected)) < 1e-12


# --- spectral pencil ---

def test_spectral_weight_formula():
    g = GridPair(3, 2, 4)
    kappa = 1.5 * np.ones((g.ny_fine, g.nx_fine))
    weight = gmsfem.spectral_mass_weight(g, kappa)
    assert weight.shape == (g.ny_fine, g.nx_fine)
    # check one off-axis cell against the hand formula: the squared hat
    # gradients summed over the four corners of the coarse cell
    fx, fy = 5, 3
    s = ((fx % g.refine) + 0.5) / g.refine
    t = ((fy % g.refine) + 0.5) / g.refine
    grad2 = (2.0 * ((1 - t) ** 2 + t ** 2) / g.coarse_hx ** 2
             + 2.0 * ((1 - s) ** 2 + s ** 2) / g.coarse_hy ** 2)
    expected = g.coarse_hx * g.coarse_hy * 1.5 * grad2
    assert abs(weight[fy, fx] - expected) < 1e-14 * expected


def test_spectral_matrices_match_dense_forms(small):
    # full-domain neighborhood: both forms equal the dense quadrature
    # matrices sandwiched between snapshot columns
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    dmass, dstiff = dense_q1_matrices(g, fs.kappa_cells, mass_weight_cells=weight)
    ids = nb.nodes
    want_a = snaps.T @ dstiff[np.ix_(ids, ids)] @ snaps
    want_s = snaps.T @ dmass[np.ix_(ids, ids)] @ snaps
    assert np.max(np.abs(astiff - want_a)) < 1e-10
    assert np.max(np.abs(smass - want_s)) < 1e-10


def test_spectral_matrices_restrict_to_neighborhood(small):
    # edge-node neighborhood covers half the domain; integration must not
    # leak outside it, so compare against dense forms with the outside zeroed
    g, fs = small
    nb = neighborhood(g, 1)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    inside = np.zeros(g.n_fine_cells, dtype=bool)
    for cell in nb.cells:
        inside[coarse_cell_fine_cells(g, int(cell))] = True
    kappa = np.where(inside, fs.kappa_cells.ravel(), 0.0)
    weight = np.where(inside,
                      gmsfem.spectral_mass_weight(g, fs.kappa_cells).ravel(), 0.0)
    dmass, dstiff = dense_q1_matrices(g, kappa, mass_weight_cells=weight)
    ids = nb.nodes
    want_a = snaps.T @ dstiff[np.ix_(ids, ids)] @ snaps
    want_s = snaps.T @ dmass[np.ix_(ids, ids)] @ snaps
    assert np.max(np.abs(astiff - want_a)) < 1e-10
    assert np.max(np.abs(smass - want_s)) < 1e-10


def test_spectral_matrices_symmetric(small):
    g, fs = small
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    assert np.array_equal(astiff, astiff.T)
    assert np.array_equal(smass, smass.T)


def test_first_eigenvalue_near_zero(small):
    # constants lie in the snapshot space and have no stiffness energy, so
    # the smallest pencil eigenvalue sits at numerical zero
    g, fs = small
    modes = gmsfem.offline_modes(fs, 4)
    for m in modes:
        assert m.eigenvalues[0] < 1e-10 * m.eigenvalues[-1]
        assert np.all(np.diff(m.eigenvalues) >= 0)


def test_offline_modes_rejects_oversized_request(small):
    g, fs = small
    with pytest.raises(ValueError, match="snapshots"):
        gmsfem.offline_modes(fs, 8 * g.refine + 1)


@pytest.mark.parametrize("refine", [1, 2, 3])
def test_offline_modes_rejects_more_modes_than_localize(refine):
    # the localized snapshots span 8 (r - 1) directions: that many modes
    # make a basis, one more is refused before any pencil is solved, and so
    # is no mode at all; at r = 1 no count is accepted
    g = GridPair(3, 3, refine)
    fs = assemble(g, Permeability(wavy_kappa))
    most = 8 * (refine - 1)
    with pytest.raises(ValueError, match=rf"at most 8 \(r - 1\) = {most}$"):
        gmsfem.offline_modes(fs, most + 1)
    with pytest.raises(ValueError, match="requested 0 modes; .* at least one$"):
        gmsfem.offline_modes(fs, 0)
    if most:
        assert gmsfem.build_offline(fs, most).n_columns == 4 * most


# --- static condensation against the brute-force reference route ---

def _wavy_3x3():
    return assemble(GridPair(3, 3, 3), Permeability(wavy_kappa))


def _channels_4x4():
    g = GridPair(4, 4, 4)
    return assemble(g, driver.synthetic_channels(g))


@pytest.mark.parametrize("make_fs", [_wavy_3x3, _channels_4x4],
                         ids=["wavy-3x3-r3", "channels-4x4-r4"])
def test_condensed_pencils_match_reference(make_fs):
    # sum_q D_q^T X_q D_q over a neighborhood's cells is the pencil that
    # build_snapshots + spectral_matrices assemble node by node
    fs = make_fs()
    g = fs.grid
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    condensed = gmsfem._CondensedCells(fs, weight)
    for node in g.interior_coarse_ids:
        nb = neighborhood(g, int(node))
        condensed.hold(g.coarse_node_grid(nb.node)[1])
        snaps = gmsfem.build_snapshots(fs, nb)
        want = gmsfem.spectral_matrices(fs, nb, snaps, weight)
        got = condensed.pencil(nb.cells)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), node


def _unit_kappa(nx, ny, refine=16):
    g = GridPair(nx, ny, refine)
    return g, assemble(g, Permeability.constant(1.0))


def _unit_2x2_r16():
    return _unit_kappa(2, 2)[1]


@pytest.mark.parametrize("make_fs", [_wavy_3x3, _channels_4x4, _unit_2x2_r16],
                         ids=["wavy-3x3-r3", "channels-4x4-r4", "unit-2x2-r16"])
def test_batched_condensation_matches_the_cell_solver(make_fs):
    # every kind's mapmat against the per-cell dense solve, and its condensed
    # forms against E^T K E and E^T W E, E = [I; mapmat], over the cell's
    # own assembled matrices; each kind as the node-row sweep holds it
    fs = make_fs()
    g = fs.grid
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    condensed = gmsfem._CondensedCells(fs, weight)
    checked = set()
    for cy in range(1, g.ny_coarse):
        condensed.hold(cy)
        for k in set(np.flatnonzero(condensed.slot < len(condensed.mapmat))) - checked:
            checked.add(k)
            slot = condensed.slot[k]
            cell = int(np.flatnonzero(condensed.kind == k)[0])
            solver = gmsfem._CellSolver(fs, cell)
            want = solver.mapmat
            assert (np.max(np.abs(condensed.mapmat[slot] - want))
                    <= 1e-12 * np.max(np.abs(want))), cell
            nodes, on_edge = gmsfem._cell_nodes(g, cell)
            wmass, stiff = BoxSum(g, [cell], nodes).matrices(fs.kappa_cells, weight)
            extend = np.zeros((len(nodes), int(on_edge.sum())))
            extend[on_edge] = np.eye(extend.shape[1])
            extend[~on_edge] = want
            for got, mat in zip(condensed.blocks[:, slot], (stiff, wmass)):
                form = extend.T @ (mat @ extend)
                assert np.max(np.abs(got - form)) <= 1e-12 * np.max(np.abs(form)), cell
    assert checked == set(range(len(condensed.slot)))


def test_condense_names_a_cell_that_is_not_positive_definite(small):
    g, fs = small
    condensed = gmsfem._CondensedCells(fs, gmsfem.spectral_mass_weight(g, fs.kappa_cells))
    condensed._kappa[3] *= -1.0
    with pytest.raises(NumericalError, match=r"coarse cell \(1, 1\) is not positive definite"):
        condensed.condense(np.array([0, 3]))


@pytest.mark.parametrize("make_fs", [_wavy_3x3, _channels_4x4],
                         ids=["wavy-3x3-r3", "channels-4x4-r4"])
def test_offline_modes_match_reference_route(make_fs):
    fs = make_fs()
    g = fs.grid
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    modes = gmsfem.offline_modes(fs, 5)
    assert [m.node for m in modes] == list(g.interior_coarse_ids)
    for m in modes:
        nb = neighborhood(g, m.node)
        snaps = gmsfem.build_snapshots(fs, nb)
        ref = linalg.eig_gsym(*gmsfem.spectral_matrices(fs, nb, snaps, weight))
        want = ref.values[:5]
        assert m.vectors.shape == (len(nb.nodes), 5)
        assert np.max(np.abs(m.eigenvalues - want)) <= 1e-10 * np.max(np.abs(want))
        # the snapshots carry Kronecker data on the boundary, so a mode's
        # boundary values are its snapshot coefficients, and the mode must
        # be the snapshot columns combined with them
        coeffs = m.vectors[np.searchsorted(nb.nodes, nb.boundary)]
        assert np.max(np.abs(m.vectors - snaps @ coeffs)) < 1e-12


def _swap_xy(g, nb):
    """Permutation of ``nb.boundary`` that swaps the offsets from the node in x and y."""
    cx, cy = g.coarse_node_grid(nb.node)
    nper = g.nx_fine + 1
    dx = nb.boundary % nper - cx * g.refine
    dy = nb.boundary // nper - cy * g.refine
    position = {(a, b): k for k, (a, b) in enumerate(zip(dx, dy))}
    return np.array([position[(b, a)] for a, b in zip(dx, dy)])


def _assert_reference_cut(g, fs, m, n_modes):
    """Mode span of the brute-force pencil under the canonical cut, and x <-> y antisymmetry.

    Unit permeability makes the pencil symmetric under the square's
    reflections, so eigenvalues 10 and 11 form an exactly degenerate pair
    and a 10-mode cut splits it. The canonical cut keeps the projection of
    xi - eta onto the pair, which is antisymmetric under x <-> y.
    """
    nb = neighborhood(g, m.node)
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    astiff, smass = gmsfem.spectral_matrices(fs, nb, gmsfem.build_snapshots(fs, nb),
                                             weight)
    ref = linalg.eig_gsym(astiff, smass)
    assert ref.values[10] - ref.values[9] <= 1e-12 * ref.values[10]
    # boundary values are snapshot coefficients; their span must be the
    # reference's kept span
    coeffs = m.vectors[np.searchsorted(nb.nodes, nb.boundary)]
    kept = gmsfem._canonical_cut(ref.values, ref.vectors, smass, n_modes,
                                 gmsfem._cut_probes(g, nb))
    resid = coeffs - kept @ (kept.T @ (smass @ coeffs))
    assert np.max(np.abs(resid)) < 1e-8 * np.max(np.abs(coeffs)), m.node
    member = coeffs[:, n_modes - 1]
    assert np.max(np.abs(member[_swap_xy(g, nb)] + member)) < 1e-10 * np.max(np.abs(member))


def test_degenerate_mode_cut_keeps_the_reference_member():
    # the errors recorded for the ex2-stepping benchmark (example2-synthetic,
    # 10 modes) keep this member in every neighborhood of unit permeability;
    # r = 16 as there
    g, fs = _unit_kappa(2, 2)
    (modes,) = gmsfem.offline_modes(fs, 10)
    _assert_reference_cut(g, fs, modes, 10)


def test_interior_skeletons_are_shifted_copies():
    # the condensed route builds the skeleton rows once, from the first
    # interior neighborhood, and reuses them for all the others
    g = GridPair(4, 3, 3)
    first = neighborhood(g, int(g.interior_coarse_ids[0]))
    ids0, rows0 = gmsfem._skeleton_rows(g, first)
    for node in g.interior_coarse_ids[1:]:
        nb = neighborhood(g, int(node))
        shift = nb.nodes[0] - first.nodes[0]
        assert np.array_equal(nb.nodes, first.nodes + shift)
        assert np.array_equal(nb.boundary, first.boundary + shift)
        ids, rows = gmsfem._skeleton_rows(g, nb)
        assert np.array_equal(ids, ids0 + shift), node
        assert np.array_equal(rows, rows0), node


def test_offline_modes_never_calls_the_reference_route(small, monkeypatch):
    g, fs = small
    want = gmsfem.offline_modes(fs, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("offline_modes called the reference route")

    monkeypatch.setattr(gmsfem, "build_snapshots", refuse)
    monkeypatch.setattr(gmsfem, "spectral_matrices", refuse)
    got = gmsfem.offline_modes(fs, 3)
    for a, b in zip(want, got):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_traced_benchmark_breakdown_agrees_with_offline_modes(monkeypatch):
    # benchmark/traced.py re-solves every neighborhood by the brute-force
    # route and checks its kept eigenvalues against offline_modes'; a change
    # to the offline stage must keep that cross-check passing
    bench = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
    monkeypatch.syspath_prepend(str(bench))
    from traced import offline_breakdown
    fs = _wavy_3x3()
    modes = gmsfem.offline_modes(fs, 5)
    result = offline_breakdown(fs, 5, modes)
    assert result["gmsfem.neighbourhoods"] == len(fs.grid.interior_coarse_ids)
    assert result["breakdown_ok"], result["gmsfem.breakdown_eig_rel_gap"]


def _channels_4x4_seed11():
    # 8 distinct coarse cells of 16: the repeated ones hold only background
    g = GridPair(4, 4, 4)
    return assemble(g, driver.synthetic_channels(g, seed=11))


def _distinct_cells(fs):
    g = fs.grid
    return len({fs.kappa_cells.ravel()[coarse_cell_fine_cells(g, c)].tobytes()
                for c in range(g.nx_coarse * g.ny_coarse)})


def _wavy_6x5_r3():
    # every one of the 30 coarse cells is distinct
    return assemble(GridPair(6, 5, 3), Permeability(wavy_kappa))


@pytest.mark.parametrize("make_fs, kinds", [(_wavy_6x5_r3, 30), (_channels_4x4_seed11, 8)],
                         ids=["wavy-6x5-r3", "channels-4x4-r4"])
def test_the_sweep_condenses_each_kind_once_holding_two_cell_rows(make_fs, kinds, monkeypatch):
    fs = make_fs()
    nx = fs.grid.nx_coarse
    condensed, held = [], []

    class CountingCells(gmsfem._CondensedCells):
        def condense(self, cells):
            condensed.extend(self.kind[cells])
            return super().condense(cells)

        def hold(self, cy):
            super().hold(cy)
            held.append(np.count_nonzero(self.slot < len(self.mapmat)))
            assert len(self.mapmat) <= 2 * nx

    monkeypatch.setattr(gmsfem, "_CondensedCells", CountingCells)
    gmsfem.offline_modes(fs, 4)
    assert sorted(condensed) == list(range(kinds))
    assert len(held) == fs.grid.ny_coarse - 1 and max(held) <= 2 * nx


def test_reused_offline_modes_equal_a_fresh_solve_bit_for_bit(monkeypatch):
    # each neighborhood again from its own four cells, each condensed alone
    # (a batch of one): the pencil, the eigensolve, the cut and the
    # extension of the kept vectors; neither the batching, the schedule
    # nor the reuse may change a bit of it
    fs = _channels_4x4_seed11()
    g = fs.grid
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    batches = []

    class CountingCells(gmsfem._CondensedCells):
        def condense(self, cells):
            batches.append(sorted(cells))
            return super().condense(cells)

    with monkeypatch.context() as patch:
        patch.setattr(gmsfem, "_CondensedCells", CountingCells)
        modes = gmsfem.offline_modes(fs, 5)
    assert _distinct_cells(fs) == 8
    # one batch per node row that reaches new kinds: cell rows 0 and 1
    # before node row 1, cell row 2 before node row 2; row 3 brings none
    assert batches == [[0, 1, 4, 5, 6], [8, 9, 11]]
    fresh = gmsfem._CondensedCells(fs, weight)
    for cy in range(1, g.ny_coarse):
        fresh.hold(cy)
        for k in np.flatnonzero(fresh.slot < len(fresh.mapmat)):
            slot = fresh.slot[k]
            alone = fresh.condense(np.array([np.flatnonzero(fresh.kind == k)[0]]))
            assert np.array_equal(alone[0][0], fresh.mapmat[slot])
            assert np.array_equal(alone[1][0], fresh.blocks[0, slot])
            assert np.array_equal(alone[2][0], fresh.blocks[1, slot])
    with linalg.single_thread_blas():
        for m in modes:
            nb = neighborhood(g, m.node)
            alone = [fresh.condense(np.array([c])) for c in nb.cells]
            fresh.kind = np.full(len(fresh.kind), -1)
            fresh.kind[nb.cells] = np.arange(4)
            fresh.slot = np.arange(4)
            fresh.mapmat = np.concatenate([a[0] for a in alone])
            fresh.blocks = np.array([np.concatenate([a[k] for a in alone]) for k in (1, 2)])
            eigenvalues, vectors, _ = fresh.modes(m.node, nb.cells, 5)
            assert np.array_equal(m.eigenvalues, eigenvalues), m.node
            assert np.array_equal(m.vectors, vectors), m.node


def test_offline_modes_logs_distinct_counts(caplog):
    fs = _channels_4x4_seed11()
    with caplog.at_level(logging.INFO, logger="msplit.gmsfem"):
        modes = gmsfem.offline_modes(fs, 3)
    distinct = len({id(m.vectors) for m in modes})
    # the kinds in cell rows 0 and 1, 1 and 2, 2 and 3: the largest set is
    # held, (r-1)^2 4r + 2 (4r)^2 doubles a kind at r = 4
    g = fs.grid
    kinds = [{fs.kappa_cells.ravel()[coarse_cell_fine_cells(g, c)].tobytes()
              for c in range((cy - 1) * g.nx_coarse, (cy + 1) * g.nx_coarse)}
             for cy in range(1, g.ny_coarse)]
    held = max(len(k) for k in kinds)
    assert held == 6
    assert (f"offline: 8 distinct cells of 16 (at most {held} held, "
            f"{held * 8 * (9 * 16 + 2 * 16 ** 2) / 2 ** 20:.1f} MB), "
            f"{distinct} distinct neighborhoods of 9" in caplog.messages)


def test_repeated_neighborhoods_share_the_reference_member_read_only():
    # unit permeability on 3 x 3 cells: four neighborhoods of one kind, each
    # keeping the canonical member of the degenerate 10/11 pair (as in the
    # 2 x 2 test above). Here the full eigensolve of the brute-force pencil
    # returns the member symmetric under x <-> y first, so only the cut
    # decides which one is kept
    g, fs = _unit_kappa(3, 3)
    modes = gmsfem.offline_modes(fs, 10)
    assert len(modes) == 4
    assert all(m.vectors is modes[0].vectors for m in modes)
    assert all(m.eigenvalues is modes[0].eigenvalues for m in modes)
    for m in modes:
        assert m.vectors.shape == (len(neighborhood(g, m.node).nodes), 10)
        _assert_reference_cut(g, fs, m, 10)
    with pytest.raises(ValueError, match="read-only"):
        modes[1].vectors[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        modes[1].eigenvalues[0] = 1.0


def _summed_in_reverse(self, cells):
    """The pencil of ``_CondensedCells.pencil`` with its cell terms summed last to first.

    Each term is also associated the other way, (D_q^T X_q) D_q, so that
    the rounding differs from the pencil's own.
    """
    size = self.skel_rows.shape[1]
    forms = []
    for blocks in self.blocks:
        form = np.zeros((size, size))
        for q in reversed(range(4)):
            d = np.zeros((self.select.shape[1], size))
            d[:, self.reach[q]] = self.select[q]
            form += (d.T @ blocks[self.slot[self.kind[cells[q]]]]) @ d
        forms.append(0.5 * (form + form.T))
    return tuple(forms)


def _full_spectrum(astiff, smass, context="", count=None):
    return linalg.eig_gsym(astiff, smass, context)


@pytest.mark.parametrize("patch", [("_CondensedCells.pencil", _summed_in_reverse),
                                   ("eig_gsym", _full_spectrum)],
                         ids=["reversed-cell-sum", "full-spectrum-driver"])
def test_degenerate_mode_cut_ignores_summation_order_and_driver(patch, monkeypatch):
    # the kept vectors of a cut through the degenerate pair must not depend
    # on the rounding of the pencil or on the LAPACK driver that solves it
    g, fs = _unit_kappa(2, 2)
    (want,) = gmsfem.offline_modes(fs, 10)
    name, func = patch
    if name == "_CondensedCells.pencil":
        condensed = gmsfem._CondensedCells(fs, gmsfem.spectral_mass_weight(g, fs.kappa_cells))
        condensed.hold(1)
        cells = neighborhood(g, want.node).cells
        assert not all(np.array_equal(a, b) for a, b in
                       zip(condensed.pencil(cells), func(condensed, cells)))
        monkeypatch.setattr(gmsfem._CondensedCells, "pencil", func)
    else:
        monkeypatch.setattr(gmsfem, name, func)
    (got,) = gmsfem.offline_modes(fs, 10)
    assert np.max(np.abs(got.vectors - want.vectors)) <= 1e-10 * np.max(np.abs(want.vectors))


def test_canonical_cut_ignores_a_rotation_of_the_degenerate_pair():
    g, fs = _unit_kappa(2, 2)
    nb = neighborhood(g, int(g.interior_coarse_ids[0]))
    condensed = gmsfem._CondensedCells(fs, gmsfem.spectral_mass_weight(g, fs.kappa_cells))
    condensed.hold(1)
    astiff, smass = condensed.pencil(nb.cells)
    eig = linalg.eig_gsym(astiff, smass)
    assert gmsfem._relative_gaps(eig.values)[9] < gmsfem._CLUSTER_RTOL
    want = gmsfem._canonical_cut(eig.values, eig.vectors, smass, 10, condensed.probes)
    angle = rng_for("rotate the pair").uniform(0.0, 2.0 * np.pi)
    for turn in (np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]),
                 np.array([[0.0, 1.0], [1.0, 0.0]])):
        rotated = eig.vectors.copy()
        rotated[:, 9:11] = eig.vectors[:, 9:11] @ turn
        got = gmsfem._canonical_cut(eig.values, rotated, smass, 10, condensed.probes)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_cut_outside_a_cluster_keeps_each_eigenvector_up_to_sign(small):
    g, fs = small
    nb = neighborhood(g, int(g.interior_coarse_ids[0]))
    condensed = gmsfem._CondensedCells(fs, gmsfem.spectral_mass_weight(g, fs.kappa_cells))
    condensed.hold(1)
    astiff, smass = condensed.pencil(nb.cells)
    eig = linalg.eig_gsym(astiff, smass)
    assert np.all(gmsfem._relative_gaps(eig.values)[:4] >= gmsfem._CLUSTER_RTOL)
    kept = gmsfem._canonical_cut(eig.values, eig.vectors, smass, 4, condensed.probes)
    signs = np.sign(np.sum(kept * eig.vectors[:, :4], axis=0))
    assert np.array_equal(kept, eig.vectors[:, :4] * signs)
    flipped = gmsfem._canonical_cut(eig.values, -eig.vectors, smass, 4, condensed.probes)
    assert np.array_equal(flipped, kept)


@pytest.mark.parametrize("make_fs, n_modes, gap_below, canonical", [
    (_unit_2x2_r16, 10, 1e-12, 1),
    (lambda: assemble(GridPair(2, 2, 3), Permeability(wavy_kappa)), 4, None, 0),
], ids=["degenerate-cut", "clean-cut"])
def test_offline_modes_logs_the_cut_gap(make_fs, n_modes, gap_below, canonical, caplog):
    fs = make_fs()
    with caplog.at_level(logging.INFO, logger="msplit.gmsfem"):
        gmsfem.offline_modes(fs, n_modes)
    (line,) = [msg for msg in caplog.messages if "relative gap" in msg]
    match = re.fullmatch(rf"offline: smallest relative gap at the {n_modes}-mode cut "
                         r"(\S+); (\d+) of 1 solved pencils cut inside a cluster, "
                         r"kept canonically", line)
    assert match, line
    gap = float(match.group(1))
    assert int(match.group(2)) == canonical
    assert gap < gap_below if gap_below else gap > gmsfem._CLUSTER_RTOL


# --- BLAS thread pin ---

def _blas_threads(controls):
    return [get() for get, _ in controls]


@pytest.fixture
def two_blas_threads():
    """Every found OpenBLAS set to two threads; the original counts come back after."""
    controls = linalg._openblas_thread_controls()
    if not controls:
        pytest.skip("no loaded OpenBLAS exports thread-count symbols")
    original = _blas_threads(controls)
    for _, put in controls:
        put(2)
    yield controls
    for (_, put), count in zip(controls, original):
        put(count)


def test_offline_modes_pins_blas_to_one_thread(small, two_blas_threads, monkeypatch):
    g, fs = small
    seen = []

    def recording_eig_gsym(*args, **kwargs):
        seen.append(_blas_threads(two_blas_threads))
        return linalg.eig_gsym(*args, **kwargs)

    monkeypatch.setattr(gmsfem, "eig_gsym", recording_eig_gsym)
    gmsfem.offline_modes(fs, 3)
    assert len(seen) == len(g.interior_coarse_ids)
    assert all(counts == [1] * len(two_blas_threads) for counts in seen)
    assert _blas_threads(two_blas_threads) == [2] * len(two_blas_threads)


def test_offline_modes_restores_blas_threads_after_error(small, two_blas_threads):
    g, fs = small
    with pytest.raises(ValueError, match="snapshots"):
        gmsfem.offline_modes(fs, 8 * g.refine + 1)
    assert _blas_threads(two_blas_threads) == [2] * len(two_blas_threads)


def test_offline_modes_runs_unpinned_without_thread_controls(small, monkeypatch):
    g, fs = small
    pinned = gmsfem.offline_modes(fs, 4)
    monkeypatch.setattr(linalg, "_openblas_thread_controls", lambda: [])
    unpinned = gmsfem.offline_modes(fs, 4)
    assert [m.node for m in unpinned] == [m.node for m in pinned]
    for a, b in zip(pinned, unpinned):
        assert np.allclose(b.eigenvalues, a.eigenvalues, rtol=0.0,
                           atol=1e-12 * a.eigenvalues.max())


# --- localized basis ---

def _channels(nx, ny, refine):
    g = GridPair(nx, ny, refine)
    return assemble(g, driver.synthetic_channels(g))


@pytest.mark.parametrize("make_fs", [
    lambda: _channels(4, 3, 2), lambda: _channels(5, 7, 3), lambda: _channels(7, 4, 4),
    lambda: _unit_kappa(2, 6, refine=3)[1]],
    ids=["channels-4x3-r2", "channels-5x7-r3", "channels-7x4-r4", "unit-2x6-r3"])
def test_every_neighborhood_is_the_template_shifted(make_fs, monkeypatch):
    # the offline stage builds at most the template neighborhood (once for
    # the pencils, once for the basis) and keeps no per-node list; each
    # node's cells and support are the template's shifted, and its block has
    # the bits of a block made from the node's own neighborhood
    fs = make_fs()
    g = fs.grid
    built = []

    def counting(grid, node):
        built.append(node)
        return neighborhood(grid, node)

    with monkeypatch.context() as patch:
        patch.setattr(gmsfem, "neighborhood", counting)
        modes = gmsfem.offline_modes(fs, 4)
        basis = gmsfem.assemble_basis(fs, modes)
    assert len(built) <= 2
    assert not any(isinstance(value, list) for value in vars(basis).values())
    condensed = gmsfem._CondensedCells(fs, gmsfem.spectral_mass_weight(g, fs.kappa_cells))
    with linalg.single_thread_blas():
        for i, (node, start) in enumerate(zip(basis.nodes, basis.block_start)):
            nb = neighborhood(g, int(node))
            assert np.array_equal(condensed.cells[i], nb.cells), node
            support = np.searchsorted(g.interior_fine_ids, nb.interior)
            assert np.array_equal(basis.support(i), support), node
            rows = np.searchsorted(nb.nodes, nb.interior)
            own, _ = gmsfem._energy_orthonormalize(
                partition_of_unity(g, int(node), nb.interior)[:, None] * modes[i].vectors[rows],
                fineassembly.patch_energy(g, fs.kappa_cells, int(node)), int(node))
            assert np.array_equal(basis.stacked[start:start + len(support)], own), node


def test_basis_cells_bind_the_column_order_once():
    # the cell products read the prolongation's column order from the
    # object they were made with; no method takes it again
    for name, method in vars(gmsfem._BasisCells).items():
        if callable(method) and name != "__init__":
            assert "prol" not in inspect.signature(method).parameters, name


def test_basis_energy_orthonormal_per_neighborhood(small):
    # two passes of Cholesky-QR give modified Gram-Schmidt's columns
    g, fs = small
    modes = gmsfem.offline_modes(fs, 4)
    basis = gmsfem.assemble_basis(fs, modes)
    _, stiffness = assemble_matrices(fs)
    for m, (sup, block) in zip(modes, basis_blocks(basis)):
        sub = stiffness[sup][:, sup]
        gram = block.T @ (sub @ block)
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        nb = neighborhood(g, m.node)
        rows = np.searchsorted(nb.nodes, nb.interior)
        hat = partition_of_unity(g, m.node, nb.interior)
        want = energy_gram_schmidt(hat[:, None] * m.vectors[rows], sub)
        assert np.max(np.abs(block - want)) < 1e-12 * np.max(np.abs(want)), m.node


def _channels_5x5_seed11():
    # 11 distinct neighborhoods of 16; refine 3 makes the hat's values
    # inexact, so hats in fine offsets and in absolute coordinates differ
    # in the last bits
    g = GridPair(5, 5, 3)
    return assemble(g, driver.synthetic_channels(g, seed=11, n_channels=3))


def test_same_kind_neighborhoods_share_one_read_only_block():
    fs = _channels_5x5_seed11()
    g = fs.grid
    modes = gmsfem.offline_modes(fs, 4)
    basis = gmsfem.assemble_basis(fs, modes)
    blocks = [block for _, block in basis_blocks(basis)]
    assert len({id(m.vectors) for m in modes}) == 11
    assert len(set(basis.block_start)) == 11
    x, y = g.fine_coords
    for i, m in enumerate(modes):
        for j in range(i):
            shared = modes[j].vectors is m.vectors
            assert (basis.block_start[j] == basis.block_start[i]) == shared, (i, j)
        # each node again from its own cells' stiffness and modes
        nb = neighborhood(g, m.node)
        rows = np.searchsorted(nb.nodes, nb.interior)
        sub = fineassembly.patch_energy(g, fs.kappa_cells, m.node)
        pou = partition_of_unity(g, m.node, nb.interior)
        cx, cy = g.coarse_node_grid(m.node)
        xc, yc = cx * g.coarse_hx, cy * g.coarse_hy
        pou_xy = ((1.0 - np.abs(x[nb.interior] - xc) / g.coarse_hx)
                  * (1.0 - np.abs(y[nb.interior] - yc) / g.coarse_hy))
        with linalg.single_thread_blas():
            own, _ = gmsfem._energy_orthonormalize(pou[:, None] * m.vectors[rows],
                                                   sub, m.node)
            absolute, _ = gmsfem._energy_orthonormalize(
                pou_xy[:, None] * m.vectors[rows], sub, m.node)
        assert np.array_equal(blocks[i], own), m.node
        assert np.max(np.abs(blocks[i] - absolute)) <= 1e-14, m.node
    with pytest.raises(ValueError, match="read-only"):
        blocks[0][0, 0] = 1.0


def test_assemble_basis_logs_blocks_and_gram_condition(caplog):
    fs = _channels_5x5_seed11()
    modes = gmsfem.offline_modes(fs, 4)
    with caplog.at_level(logging.INFO, logger="msplit.gmsfem"):
        gmsfem.assemble_basis(fs, modes)
    (line,) = [msg for msg in caplog.messages if msg.startswith("basis:")]
    head, cond = line.rsplit(" ", 1)
    assert head == ("basis: 11 distinct blocks of 16 neighborhoods, "
                    "largest energy Gram condition number")
    assert 1.0 <= float(cond) < 1e3


def test_basis_vanishes_outside_neighborhood(small):
    # every dof of neighborhood i's support lies strictly inside its box
    g, fs = small
    basis = gmsfem.build_offline(fs, 3)
    nper = g.nx_fine + 1
    for i, node in enumerate(basis.nodes):
        sup = basis.support(i)
        nb = neighborhood(g, int(node))
        box = nb.nodes
        ix0, ix1 = (box % nper).min(), (box % nper).max()
        iy0, iy1 = (box // nper).min(), (box // nper).max()
        fine_ids = g.interior_fine_ids[sup]
        assert np.all(fine_ids % nper > ix0)
        assert np.all(fine_ids % nper < ix1)
        assert np.all(fine_ids // nper > iy0)
        assert np.all(fine_ids // nper < iy1)


def test_gram_schmidt_rejects_dependent_columns():
    def euclidean(block):
        return block.T @ block

    block = np.ones((4, 2))
    with pytest.raises(NumericalError, match="degenerated in neighborhood 0 at column 1"):
        gmsfem._energy_orthonormalize(block, euclidean, node=0)
    # a column whose energy norm is below the guard, though positive
    block = np.array([[1.0, 1.0], [0.0, 1e-15], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="at column 1"):
        gmsfem._energy_orthonormalize(block, euclidean, node=0)


# --- prolongation ---

def test_prolongation_shapes_and_metadata(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    n_nb = len(basis.nodes)
    assert prol.n_columns == 4 * n_nb
    assert prol.block_sizes == (1, 3)
    # a prolongation holds its basis and its block sizes; the node and
    # column counts are the basis's, and == compares identity, not arrays
    assert prol.basis is basis and set(vars(prol)) == {"basis", "block_sizes"}
    assert prol.n_nodes == n_nb and prol.n_columns == basis.n_columns
    three = gmsfem.assemble_prolongation(gmsfem.build_offline(fs, 3), (3,))
    assert (three.n_nodes, three.n_columns) == (n_nb, 3 * n_nb)
    assert prol == prol and prol != gmsfem.assemble_prolongation(basis, (1, 3))
    # every column lives on the support of exactly one neighborhood
    for col in range(prol.n_columns):
        rows = np.flatnonzero(gmsfem.reconstruct_fine(fs, prol,
                                                      np.eye(prol.n_columns)[col]))
        assert len(rows) > 0
        assert any(np.all(np.isin(rows, sup)) for sup, _ in basis_blocks(basis))


def test_prolongation_block_identity(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (2, 2))
    # per-block parts built straight from the basis, node-major within a block
    parts = []
    mode_offset = 0
    for b in prol.block_sizes:
        part = np.zeros((fs.n_dof, b * len(basis.nodes)))
        for i, (sup, block) in enumerate(basis_blocks(basis)):
            part[sup, i * b:(i + 1) * b] = block[:, mode_offset:mode_offset + b]
        parts.append(part)
        mode_offset += b
    rng = np.random.default_rng(7)
    z = rng.standard_normal(prol.n_columns)
    lhs = gmsfem.reconstruct_fine(fs, prol, z)
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    rhs = sum(parts[q] @ z[offsets[q]:offsets[q + 1]]
              for q in range(len(parts)))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_prolongation_columns_follow_block_order():
    # four interior coarse nodes, so node-major and mode-major orders differ
    g = GridPair(3, 3, 3)
    fs = assemble(g, Permeability(wavy_kappa))
    basis = gmsfem.build_offline(fs, 4)
    n_nb = len(basis.nodes)
    assert n_nb == 4
    for blocks in ((1, 3), (2, 2)):
        prol = gmsfem.assemble_prolongation(basis, blocks)
        assert prol.block_sizes == blocks
        assert prol.n_columns == 4 * n_nb
        dense = np.column_stack([gmsfem.reconstruct_fine(fs, prol, unit)
                                 for unit in np.eye(prol.n_columns)])
        mode_offset = 0
        for b in blocks:
            for i, (sup, block) in enumerate(basis_blocks(basis)):
                for k in range(mode_offset, mode_offset + b):
                    col = n_nb * mode_offset + i * b + (k - mode_offset)
                    want = np.zeros(fs.n_dof)
                    want[sup] = block[:, k]
                    assert np.array_equal(dense[:, col], want), (blocks, i, k)
            mode_offset += b


def test_prolongation_validates_blocks(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    with pytest.raises(ValueError, match="sum"):
        gmsfem.assemble_prolongation(basis, (1, 2))
    with pytest.raises(ValueError, match="positive"):
        gmsfem.assemble_prolongation(basis, (5, -1))


def test_dof_counts_on_production_grid(ex1, ex1_basis10):
    prol6 = gmsfem.assemble_prolongation(ex1["basis6"], (1, 5))
    prol10 = gmsfem.assemble_prolongation(ex1_basis10, (1, 9))
    assert prol6.n_columns == 1350
    assert prol10.n_columns == 2250


# --- coarse projection ---

def test_coarse_blocks_match_projected_operators(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    cs = gmsfem.project_coarse(fs, prol)
    pmat = prolongation_matrix(basis, prol.block_sizes)
    mass, stiffness = assemble_matrices(fs)
    want_mass = (pmat.T @ mass @ pmat).toarray()
    want_stiff = (pmat.T @ stiffness @ pmat).toarray()
    assert np.max(np.abs(cs.mass.toarray() - want_mass)) < 1e-12
    assert np.max(np.abs(cs.stiff.toarray() - want_stiff)) < 1e-12


def _wavy_2x2():
    return assemble(GridPair(2, 2, 3), Permeability(wavy_kappa))


def _channels_4x3():
    # hx != hy, and the boundary cells have one or two corners with a basis
    g = GridPair(4, 3, 4)
    return assemble(g, driver.synthetic_channels(g))


@pytest.mark.parametrize("make_fs, blocks", [
    (_wavy_2x2, (1, 3)), (_channels_4x3, (1, 3)), (_channels_5x5_seed11, (1, 3)),
    (_channels_5x5_seed11, (2, 2)), (_channels_5x5_seed11, (4,))],
    ids=["wavy-2x2-r3", "channels-4x3-r4", "channels-5x5-r3-1+3",
         "channels-5x5-r3-2+2", "channels-5x5-r3-4"])
def test_cell_galerkin_matches_the_sparse_product(make_fs, blocks):
    fs = make_fs()
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, blocks)
    cs = gmsfem.project_coarse(fs, prol)
    pmat = prolongation_matrix(basis, prol.block_sizes)
    for got, fine in zip((cs.mass, cs.stiff), assemble_matrices(fs)):
        want = sparse_galerkin(pmat, fine).toarray()
        assert np.max(np.abs(got.toarray() - want)) <= 1e-13 * np.max(np.abs(want))
    # a cell's blocks have the same bits alone as in any batch
    cells = gmsfem._BasisCells(fs, prol)
    order = np.arange(fs.grid.nx_coarse * fs.grid.ny_coarse)
    batch = cells.products(order)
    assert np.array_equal(cells.products(order[::-1]), batch[:, ::-1])
    for cell in order:
        assert np.array_equal(cells.products(order[cell:cell + 1])[:, 0], batch[:, cell])


def test_basis_cells_gather_from_the_one_copy_of_the_basis():
    # the distinct blocks are stored once, in the basis's read-only stacked
    # array, and the cell products gather from that array, with no
    # zero-padded copy of the blocks
    fs = _channels_5x5_seed11()
    r = fs.grid.refine
    basis = gmsfem.build_offline(fs, 4)
    distinct = len(set(basis.block_start))
    assert basis.stacked.shape == (distinct * (2 * r - 1) ** 2 + 1, 4)
    assert not basis.stacked.flags.writeable and not np.any(basis.stacked[-1])
    with pytest.raises(ValueError, match="read-only"):
        basis.stacked[3, 0] = 1.0
    cells = gmsfem._BasisCells(fs, gmsfem.assemble_prolongation(basis, (1, 3)))
    arrays = [value for value in vars(cells).values() if isinstance(value, np.ndarray)]
    assert any(np.shares_memory(a, basis.stacked) for a in arrays)
    padded = (distinct + 1) * (2 * r + 1) ** 2 * 4 * 8
    assert all(a.nbytes < padded for a in arrays if a is not basis.stacked)


def _structural_pattern(basis, blocks):
    """Dense mask of every mode pair of every two nodes that share a coarse cell."""
    g = basis.grid
    cx, cy = basis.nodes % (g.nx_coarse + 1), basis.nodes // (g.nx_coarse + 1)
    share = ((np.abs(cx[:, None] - cx[None, :]) <= 1)
             & (np.abs(cy[:, None] - cy[None, :]) <= 1))
    node = np.concatenate([np.repeat(np.arange(len(basis.nodes)), b) for b in blocks])
    return share[np.ix_(node, node)]


def test_coarse_operators_store_the_structural_pattern(ex1_split15):
    # stored entries, exact zeros included, do not depend on rounding, so
    # neither does the band of the coarse factors
    fs = _channels_4x3()
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    cs = gmsfem.project_coarse(fs, prol)
    assert np.array_equal(cs.mass.indptr, cs.stiff.indptr)
    assert np.array_equal(cs.mass.indices, cs.stiff.indices)
    stored = sp.csr_matrix((np.ones(cs.mass.nnz), cs.mass.indices, cs.mass.indptr),
                           shape=cs.mass.shape).toarray() > 0.0
    assert np.array_equal(stored, _structural_pattern(basis, (1, 3)))
    # the sparse products' counts: 43^2 node pairs times the mode pairs
    _, ex1_coarse = ex1_split15
    assert ex1_coarse.mass.nnz == ex1_coarse.stiff.nnz == 66564
    pipe = driver.build_pipeline(driver.builtin_config("example2-synthetic"))
    assert pipe.coarse.mass.nnz == pipe.coarse.stiff.nnz == 184900


def test_coarse_operators_are_exactly_symmetric(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (2, 2))
    cs = gmsfem.project_coarse(fs, prol)
    for mat in (cs.mass, cs.stiff):
        assert sp.isspmatrix_csr(mat) and mat.has_sorted_indices
        assert (mat != mat.T).nnz == 0


def test_coarse_rhs_projects_load(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 3)
    prol = gmsfem.assemble_prolongation(basis, (3,))
    cs = gmsfem.project_coarse(fs, prol)
    t = 0.75
    want = prolongation_matrix(basis, prol.block_sizes).T @ scatter_load(
        g, space_time(fs.source), t)
    assert np.allclose(cs.rhs(np.array([t]))[0], want, atol=1e-14)


def test_initial_vector_moments_and_projection(small):
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    mass, _ = assemble_matrices(fs)
    moments = prolongation_matrix(basis, prol.block_sizes).T @ (mass @ fs.initial_vector())
    cs = gmsfem.project_coarse(fs, prol)
    assert np.allclose(cs.z0, moments, atol=1e-14)


# --- cell by cell against the prolongation matrix ---

@pytest.fixture(scope="module")
def forced():
    # hx != hy, and the boundary cells have one or two corners with a basis
    g = GridPair(4, 3, 4)
    source = Source(lambda x, y: np.cos(x + 2.0 * y), lambda t: 1.0 + np.sin(3.0 * t))
    fs = assemble(g, driver.synthetic_channels(g), source=source,
                  initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    return fs, basis, prol, prolongation_matrix(basis, prol.block_sizes), assemble_matrices(fs)


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cell_energy_gram_matches_the_fine_stiffness(forced):
    fs, basis, _, _, (_, stiffness) = forced
    g = fs.grid
    rng = rng_for("cell-energy-gram")
    for node, (sup, _) in zip(basis.nodes, basis_blocks(basis)):
        block = rng.standard_normal((len(sup), 4))
        got = fineassembly.patch_energy(g, fs.kappa_cells, int(node))(block)
        _assert_close(got, block.T @ (stiffness[sup][:, sup] @ block))


@pytest.mark.parametrize("levels", [None, 3], ids=["one-chunk", "three-levels-a-chunk"])
def test_cell_loads_match_the_prolongation_matrix(forced, levels):
    # the table asked for in chunks of levels is the table asked for at once
    fs, basis, prol, pmat, _ = forced
    cs = gmsfem.project_coarse(fs, prol)
    times = 0.1 * np.arange(1, 11)
    step = levels or len(times)
    got = np.concatenate([cs.rhs(times[k:k + step]) for k in range(0, len(times), step)])
    want = np.array([pmat.T @ scatter_load(fs.grid, space_time(fs.source), t) for t in times])
    _assert_close(got, want)


def test_forcing_loads_the_profile_once_for_any_number_of_levels(forced, monkeypatch):
    # the profile is loaded at the projection, and every table is the time
    # profile times that one projected row; no load sees a time
    fs, basis, prol, _, _ = forced
    calls = []

    def counting(*args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        return fineassembly.box_loads(*args, **kwargs)

    monkeypatch.setattr(gmsfem, "box_loads", counting)
    counts = []
    for levels in (10, 1000):
        calls.clear()
        table = gmsfem.project_coarse(fs, prol).rhs(0.1 * np.arange(1, levels + 1))
        assert table.shape == (levels, prol.n_columns)
        assert calls and all(call == (3, []) for call in calls)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_static_load_is_one_read_only_row(forced):
    fs, basis, prol, pmat, _ = forced
    static = Source(lambda x, y: np.exp(x * y))
    cs = gmsfem.project_coarse(dataclasses.replace(fs, source=static), prol)
    ones = cs.scale(0.1, 5)   # a static forcing is the profile a = 1
    assert np.array_equal(ones, np.ones(5)) and not ones.flags.writeable
    assert cs.load.shape == (prol.n_columns,) and not cs.load.flags.writeable
    _assert_close(cs.load, pmat.T @ scatter_load(fs.grid, space_time(static), 0.0))
    pulsed = gmsfem.project_coarse(fs, prol).scale(0.1, 5)
    assert pulsed.shape == (5,) and not pulsed.flags.writeable
    assert np.array_equal(pulsed, fs.source.time(0.1 * np.arange(1, 6)))


def test_non_finite_time_profile_is_reported_at_its_level(forced):
    fs, basis, prol, _, _ = forced
    source = Source(fs.source.space, lambda t: np.where(t > 0.5, np.nan, 1.0 + t))
    cs = gmsfem.project_coarse(dataclasses.replace(fs, source=source), prol)
    with pytest.raises(NumericalError, match=r"non-finite forcing at time level 6 "):
        cs.scale(0.1, 10)


def test_cell_moments_match_the_prolongation_matrix(forced):
    fs, basis, prol, pmat, (mass, _) = forced
    cs = gmsfem.project_coarse(fs, prol)
    _assert_close(cs.z0, pmat.T @ (mass @ fs.initial_vector()))


def test_cell_reconstruction_matches_the_prolongation_matrix(forced):
    fs, basis, prol, pmat, _ = forced
    z = rng_for("cell-reconstruction").standard_normal(prol.n_columns)
    _assert_close(gmsfem.reconstruct_fine(fs, prol, z), pmat @ z)


def _held_factors(cs):
    """The band factors a coarse system holds, in its fields or their tuples."""
    values = [v for value in vars(cs).values()
              for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in values if isinstance(v, linalg.BandCholesky)]


def test_projection_factors_c_once_and_keeps_only_the_euler_factor(small, factorizations):
    # project_coarse factors C and B once each for its definiteness check
    # and keeps neither: of C's factor only |g^|^2_{C^-1} stays, which the
    # energy monitor reads, so a reference plus a split run streamed against
    # it adds only C + tau*B, the step matrix and the certificate's one
    # matrix per condition: at theta = p/2 the condition matrix is the one
    # the threshold needs. Each factor lives for its run only: the system
    # holds none afterwards
    g, fs = small
    basis = gmsfem.build_offline(fs, 4)
    prol = gmsfem.assemble_prolongation(basis, (1, 3))
    cs = gmsfem.project_coarse(fs, prol)
    assert factorizations == ["coarse mass", "coarse stiffness"]
    assert _held_factors(cs) == []
    config = splitting.SplitConfig(tau=0.05, t_final=0.2, theta_mass=1.0,
                                   theta_stiff=1.0)
    reference = splitting.backward_euler(cs, config.tau, config.t_final)
    split = splitting.march(cs, splitting.make_split(cs), config, reference=reference)
    assert split.energy is not None
    assert factorizations[2:] == [
        "C + tau*B (tau = 0.05)", "mass condition", "stiffness condition",
        "split step matrix"]
    assert _held_factors(cs) == []
    assert not hasattr(cs, "euler_factor")
    # the check would see a band factor held in a field or in a tuple field
    held = dataclasses.replace(cs, profile=(linalg.BandCholesky(cs.mass, cs.order),))
    assert len(_held_factors(held)) == 1


def test_every_coarse_factor_is_a_band_in_node_order(ex1_split15, monkeypatch):
    # nodes that share a coarse cell are at most nx_coarse + 1 apart, so in
    # node order C, B, C + tau*B and the condition matrices have
    # half-bandwidth (nx_coarse + 1) m - 1: 101 on example1, 169 on the ex2
    # input. The block-diagonal split step matrix couples a node only to its
    # own block's modes, nx_coarse m + max(b) - 1. An order that widens the
    # band fails here
    widths = {}
    init = linalg.BandCholesky.__init__

    def recording(self, mat, order=None, context=""):
        init(self, mat, order, context)
        widths[context] = self.bandwidth

    monkeypatch.setattr(linalg.BandCholesky, "__init__", recording)
    ex2 = driver.parse_config("kappa = channels\nmodes = 10\nblocks = 1+9\n")
    fs = driver.build_problem(ex2)
    prol = gmsfem.assemble_prolongation(gmsfem.build_offline(fs, 10), (1, 9))
    for (prol, cs), want in ((ex1_split15, 101), ((prol, gmsfem.project_coarse(fs, prol)), 169)):
        nx, m = prol.basis.grid.nx_coarse, prol.basis.n_modes
        assert want == (nx + 1) * m - 1
        assert np.array_equal(cs.order, prol.node_order)
        linalg.BandCholesky(cs.mass, cs.order, "coarse mass")
        linalg.BandCholesky(cs.stiff, cs.order, "coarse stiffness")
        splitting.march(cs, splitting.make_split(cs), splitting.SplitConfig(tau=2e-4, t_final=4e-4))
        assert widths == {"coarse mass": want, "coarse stiffness": want,
                          "mass condition": want, "stiffness condition": want,
                          "C + tau*B (tau = 0.0002)": want,
                          "split step matrix": nx * m + max(prol.block_sizes) - 1}
        widths.clear()


def test_reorder_coarse_carries_the_load_norm_and_factors_no_c(forced, factorizations):
    # the reordered system takes |g^|^2_{C^-1} from the original instead of
    # factoring its C, and its bound is that of the system projected for the
    # new order to round-off
    fs, basis, prol, _, _ = forced
    new = gmsfem.assemble_prolongation(basis, (2, 2))
    moved = gmsfem.reorder_coarse(gmsfem.project_coarse(fs, prol), prol, new)
    config = splitting.SplitConfig(tau=0.05, t_final=0.5, theta_mass=1.0,
                                   theta_stiff=1.0)
    got = splitting.march(moved, splitting.make_split(moved), config).bound_rhs
    assert factorizations.count("coarse mass") == 1
    direct = gmsfem.project_coarse(fs, new)
    assert direct.profile is moved.profile
    assert np.array_equal(moved.load, direct.load)
    want = splitting.march(direct, splitting.make_split(direct), config).bound_rhs
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --- dump ---

def test_basis_roundtrip_exact(small, tmp_path):
    _, fs = small
    basis = gmsfem.build_offline(fs, 3)
    path = tmp_path / "basis.txt"
    gmsfem.dump_basis(basis, path)
    assert_basis_dump(path, basis)


def test_reorder_coarse_refuses_a_prolongation_of_another_basis(forced):
    # both orders must be of one basis object: one of another mode count is
    # refused, and so is one of a basis built again, though bit-equal
    fs, basis, prol, _, _ = forced
    cs = gmsfem.project_coarse(fs, prol)
    for other, blocks in ((gmsfem.build_offline(fs, 3), (1, 2)),
                          (gmsfem.build_offline(fs, 4), (2, 2))):
        with pytest.raises(ValueError, match=r"blocks \(.*\) are not of the basis"):
            gmsfem.reorder_coarse(cs, prol, gmsfem.assemble_prolongation(other, blocks))
    new = gmsfem.assemble_prolongation(basis, (2, 2))
    moved = gmsfem.reorder_coarse(cs, prol, new)
    assert moved.block_sizes == new.coarse_block_sizes == (2 * prol.n_nodes, 2 * prol.n_nodes)
    # the node order moves with the dofs: in their node orders the two
    # systems are one matrix, bit for bit, so they factor alike
    assert np.array_equal(moved.order, new.node_order)
    for got, want in ((moved.mass, cs.mass), (moved.stiff, cs.stiff)):
        assert (got[moved.order][:, moved.order] != want[cs.order][:, cs.order]).nnz == 0
