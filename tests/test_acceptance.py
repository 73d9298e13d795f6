"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and then
asserts, so the whole battery reads as a checklist. The heavyweight offline
stage is shared through the session fixtures in conftest.
"""

import time

import numpy as np
import pytest

from msplit import driver, gmsfem, splitting
from msplit.fineassembly import Permeability, assemble
from msplit.grid import GridPair, neighborhood
from msplit.linalg import eig_gsym
from msplit.splitting import SplitConfig

from conftest import rng_for
from _oracles import (charpoly_eigs, dense_q1_matrices, error_recursion_diag,
                      oracle_snapshots, prolongation_matrix, random_spd)

TAU0 = 1e-3
T_FINAL = 0.25


def _line(num, ok, detail):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} {detail}")


def _make_cs(cmat, bmat, sizes, load=None, z0=None):
    sizes = tuple(int(s) for s in sizes)
    dim = sum(sizes)
    return splitting.CoarseSystem(
        block_sizes=sizes, mass=cmat, stiff=bmat,
        load=np.zeros(dim) if load is None else load,
        z0=np.zeros(dim) if z0 is None else np.asarray(z0, float))


# 1. the degenerate one-block split reproduces backward Euler


def test_acceptance_1_single_block_equals_backward_euler(ex1):
    tic = time.perf_counter()
    prol = gmsfem.assemble_prolongation(ex1["basis6"], (6,))
    coarse = gmsfem.project_coarse(ex1["fs"], ex1["basis6"], prol)
    parts = splitting.make_split(coarse)
    config = SplitConfig(tau=TAU0, t_final=T_FINAL)
    split = splitting.march(coarse, parts, config)
    euler = splitting.backward_euler(coarse, TAU0, T_FINAL)
    scale = np.abs(euler.states).max()
    dev = np.abs(split.states - euler.states).max() / scale

    rng = rng_for("acceptance-1-random")
    for _ in range(20):
        n = int(rng.integers(1, 33))
        cs = _make_cs(random_spd(rng, n), random_spd(rng, n), (n,),
                      load=rng.standard_normal(n),
                      z0=rng.standard_normal(n))
        sc = SplitConfig(tau=0.05, t_final=0.5)
        s = splitting.march(cs, splitting.make_split(cs), sc)
        e = splitting.backward_euler(cs, 0.05, 0.5)
        dev = max(dev, np.abs(s.states - e.states).max()
                  / max(np.abs(e.states).max(), 1.0))
    elapsed = time.perf_counter() - tic
    ok = dev <= 1e-10 and elapsed < 30.0
    _line(1, ok, f"one-block split vs backward Euler: max rel dev {dev:.2e} "
                 f"({elapsed:.1f} s)")
    assert dev <= 1e-10
    assert elapsed < 30.0


# 2. error bands of the five six-mode splittings


def test_acceptance_2_five_splittings_error_band(ex1):
    tic = time.perf_counter()
    fs = ex1["fs"]
    rows = []
    for blocks in [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]:
        prol = gmsfem.assemble_prolongation(ex1["basis6"], blocks)
        coarse = gmsfem.project_coarse(fs, ex1["basis6"], prol)
        parts = splitting.make_split(coarse)
        config = SplitConfig(tau=TAU0, t_final=T_FINAL)
        split = splitting.march(coarse, parts, config)
        euler = splitting.backward_euler(coarse, TAU0, T_FINAL)
        report = driver.compare(euler, split, coarse)
        rows.append((blocks, report.e_l2, report.e_a))
    elapsed = time.perf_counter() - tic
    in_band = all(1e-6 <= e <= 5e-3 for _, e_l2, e_a in rows
                  for e in (e_l2, e_a))
    best = rows[0][2] <= min(e_a for _, _, e_a in rows) * (1.0 + 1e-12)
    ok = in_band and best and elapsed < 300.0
    detail = " ".join(f"{b[0]}+{b[1]}:{e_a:.2e}" for b, _, e_a in rows)
    _line(2, ok, f"splitting energy errors {detail} ({elapsed:.1f} s)")
    for blocks, e_l2, e_a in rows:
        assert 1e-6 <= e_l2 <= 5e-3, (blocks, e_l2)
        assert 1e-6 <= e_a <= 5e-3, (blocks, e_a)
    assert best, rows
    assert elapsed < 300.0


# 3. coarse space sizes


def test_acceptance_3_dof_counts(ex1, ex1_basis10):
    prol6 = gmsfem.assemble_prolongation(ex1["basis6"], (1, 5))
    prol10 = gmsfem.assemble_prolongation(ex1_basis10, (1, 9))
    ok = prol6.n_columns == 1350 and prol10.n_columns == 2250
    _line(3, ok, f"coarse dofs {prol6.n_columns} (6 modes), "
                 f"{prol10.n_columns} (10 modes)")
    assert prol6.n_columns == 1350
    assert prol10.n_columns == 2250


# 4. first-order convergence in the time step


def test_acceptance_4_tau_convergence(ex1):
    tic = time.perf_counter()
    fs = ex1["fs"]
    prol = gmsfem.assemble_prolongation(ex1["basis6"], (3, 3))
    coarse = gmsfem.project_coarse(fs, ex1["basis6"], prol)
    parts = splitting.make_split(coarse)
    reference = splitting.backward_euler(coarse, TAU0 / 8, T_FINAL)
    ref_final = reference.states[-1]
    ref_norm = np.linalg.norm(ref_final)
    taus, errs = [], []
    for tau in (4 * TAU0, 2 * TAU0, TAU0, TAU0 / 2, TAU0 / 4):
        tau = driver._snap_tau(tau, T_FINAL)
        config = SplitConfig(tau=tau, t_final=T_FINAL)
        split = splitting.march(coarse, parts, config)
        taus.append(tau)
        errs.append(np.linalg.norm(split.states[-1] - ref_final) / ref_norm)
    order = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    elapsed = time.perf_counter() - tic
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    ok = monotone and 0.8 <= order <= 1.2 and elapsed < 600.0
    detail = " ".join(f"{e:.2e}" for e in errs)
    _line(4, ok, f"errors over halved steps {detail}, fitted order "
                 f"{order:.3f} ({elapsed:.1f} s)")
    assert monotone, errs
    assert 0.8 <= order <= 1.2, order
    assert elapsed < 600.0


# 5. unconditional energy decay and the a priori bound


def test_acceptance_5_energy_decay_and_bound():
    # The weights scale with the number of blocks p: theta >= p/2 makes
    # both certified matrices theta*M1 - M/2 positive definite for every
    # split, and 0.6 p clears that rule with room to spare.  The energy
    # identity of the scheme then makes the energy fall for every step size
    # and bounds the trajectory by the forcing.
    tic = time.perf_counter()
    rng = rng_for("acceptance-5-energy")
    pinned_taus = (1e-4, 1e-2, 1.0, 1e2)
    worst_rise = -np.inf
    for k in range(100):
        p = int(rng.integers(1, 5))
        sizes = rng.integers(1, 9, size=p)
        n = int(sizes.sum())
        cs = _make_cs(random_spd(rng, n), random_spd(rng, n), sizes,
                      z0=rng.standard_normal(n))
        parts = splitting.make_split(cs)
        tau = float(10.0 ** rng.uniform(-4, 2))
        if k < len(pinned_taus):
            tau = pinned_taus[k]
        config = SplitConfig(tau=tau, t_final=tau * 10000,
                             theta_mass=0.6 * p, theta_stiff=0.6 * p)
        traj = splitting.march(cs, parts, config)
        assert traj.certificate.passed
        rise = float(np.diff(traj.energy).max() / traj.energy[0])
        worst_rise = max(worst_rise, rise)

    worst_margin = np.inf
    for _ in range(100):
        p = int(rng.integers(1, 5))
        sizes = rng.integers(1, 9, size=p)
        n = int(sizes.sum())
        cs = _make_cs(random_spd(rng, n, shift=1.0), random_spd(rng, n),
                      sizes, load=rng.standard_normal(n),
                      z0=rng.standard_normal(n))
        parts = splitting.make_split(cs)
        tau = float(10.0 ** rng.uniform(-3, 1))
        config = SplitConfig(tau=tau, t_final=tau * 100,
                             theta_mass=0.6 * p, theta_stiff=0.6 * p)
        traj = splitting.march(cs, parts, config)
        assert traj.certificate.passed
        margin = traj.bound_margin / max(np.abs(traj.bound_rhs).max(), 1.0)
        worst_margin = min(worst_margin, margin)
    elapsed = time.perf_counter() - tic
    ok = worst_rise <= 1e-12 and worst_margin >= -1e-10 and elapsed < 120.0
    _line(5, ok, f"worst energy rise {worst_rise:.2e}, worst bound margin "
                 f"{worst_margin:.2e} over 200 certified runs ({elapsed:.1f} s)")
    assert worst_rise <= 1e-12
    assert worst_margin >= -1e-10
    assert elapsed < 120.0


# 6. certificate characterizes the degenerate-split weights


def test_acceptance_6_certificate_weight_threshold():
    rng = rng_for("acceptance-6-threshold")
    cases = 0
    agree = True
    while cases < 20:
        mu = float(rng.uniform(0.05, 1.0))
        sigma = float(rng.uniform(0.05, 0.6))
        if abs(mu - 0.5) < 1e-3 or abs(sigma - 0.5) < 1e-3:
            continue
        n = int(rng.integers(2, 9))
        cs = _make_cs(random_spd(rng, n), random_spd(rng, n), (n,))
        parts = splitting.make_split(cs)
        cert = splitting.check_stability(parts, mu, sigma)
        expect = mu > 0.5 and sigma > 0.5
        agree = agree and (cert.passed == expect)
        cases += 1
    _line(6, agree, "degenerate-split certificate matches the "
                    "mu > 1/2, sigma > 1/2 characterization on 20 draws")
    assert agree


# 7. brute-force exactness of the offline construction


def test_acceptance_7_offline_matches_brute_force():
    g = GridPair(2, 2, 2)
    fs = assemble(g, Permeability.constant(1.0),
                  initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    nb = neighborhood(g, 4)
    snaps = gmsfem.build_snapshots(fs, nb)
    snap_dev = np.abs(snaps - oracle_snapshots(g, fs.kappa_cells, nb)).max()

    astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps)
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    dmass, dstiff = dense_q1_matrices(g, fs.kappa_cells,
                                      mass_weight_cells=weight)
    ids = nb.nodes
    pencil_dev = max(
        np.abs(astiff - snaps.T @ dstiff[np.ix_(ids, ids)] @ snaps).max(),
        np.abs(smass - snaps.T @ dmass[np.ix_(ids, ids)] @ snaps).max())

    basis = gmsfem.build_offline(fs, 3)
    prol = gmsfem.assemble_prolongation(basis, (1, 2))
    cs = gmsfem.project_coarse(fs, basis, prol)
    rmat = prolongation_matrix(basis, prol.block_sizes).toarray()
    dmass_all, dstiff_all = dense_q1_matrices(g, fs.kappa_cells)
    keep = g.interior_fine_ids
    coarse_dev = max(
        np.abs(cs.mass.toarray() - rmat.T @ dmass_all[np.ix_(keep, keep)] @ rmat).max(),
        np.abs(cs.stiff.toarray() - rmat.T @ dstiff_all[np.ix_(keep, keep)] @ rmat).max())

    rng = rng_for("acceptance-7-pencils")
    eig_dev = 0.0
    for n in (2, 3, 4):
        amat = rng.standard_normal((n, n))
        amat = amat + amat.T
        smat = random_spd(rng, n)
        got = eig_gsym(amat, smat).values
        want = charpoly_eigs(amat, smat)
        eig_dev = max(eig_dev, np.abs(got - want).max())

    ok = snap_dev < 1e-10 and pencil_dev < 1e-10 and coarse_dev < 1e-10 \
        and eig_dev < 1e-8
    _line(7, ok, f"brute-force deviations: snapshots {snap_dev:.1e}, "
                 f"pencil {pencil_dev:.1e}, coarse {coarse_dev:.1e}, "
                 f"eigenvalues {eig_dev:.1e}")
    assert snap_dev < 1e-10
    assert pencil_dev < 1e-10
    assert coarse_dev < 1e-10
    assert eig_dev < 1e-8


# 8. the split-vs-unsplit error obeys its exact recursion


def test_acceptance_8_error_recursion(ex1, ex1_split15):
    prol, coarse = ex1_split15
    parts = splitting.make_split(coarse)
    config = SplitConfig(tau=TAU0, t_final=T_FINAL)
    split = splitting.march(coarse, parts, config)
    euler = splitting.backward_euler(coarse, TAU0, T_FINAL)
    report = error_recursion_diag(parts, config, euler, split)
    ok = report.max_residual <= 1e-8
    _line(8, ok, f"error recursion residual {report.max_residual:.2e} over "
                 f"{split.n_steps} steps (coupling norm "
                 f"{report.coupling_norm:.2e})")
    assert report.max_residual <= 1e-8


# qualitative: more implicit modes help on high-contrast fields


def test_high_contrast_trend():
    config = driver.builtin_config("example2-synthetic")
    pipe_config = driver.ExperimentConfig(
        nx_coarse=config.nx_coarse, ny_coarse=config.ny_coarse,
        refine=config.refine, kappa="channels",
        kappa_contrast=config.kappa_contrast, kappa_seed=config.kappa_seed,
        modes=10, blocks=(1, 9), tau=config.tau, t_final=T_FINAL).validate()
    g, fs = driver.build_problem(pipe_config)
    modes = gmsfem.offline_modes(fs, 10)
    basis = gmsfem.assemble_basis(fs, modes)
    errors = {}
    for blocks in [(1, 9), (5, 5)]:
        prol = gmsfem.assemble_prolongation(basis, blocks)
        coarse = gmsfem.project_coarse(fs, basis, prol)
        parts = splitting.make_split(coarse)
        scfg = SplitConfig(tau=pipe_config.tau, t_final=T_FINAL)
        split = splitting.march(coarse, parts, scfg)
        euler = splitting.backward_euler(coarse, pipe_config.tau, T_FINAL)
        errors[blocks] = driver.compare(euler, split, coarse).e_a
    ok = errors[(1, 9)] < errors[(5, 5)]
    _line("trend", ok, f"high-contrast energy errors: 1+9 {errors[(1, 9)]:.3e}"
                       f" vs 5+5 {errors[(5, 5)]:.3e}")
    assert errors[(1, 9)] < errors[(5, 5)]
