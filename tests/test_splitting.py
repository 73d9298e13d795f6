"""Three-level operator-splitting scheme on block coarse systems."""

import dataclasses
import logging
import pathlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from msplit import driver, linalg, splitting
from msplit.linalg import NumericalError

from _oracles import (dense_backward_euler, dense_split_step, dense_threshold,
                      error_recursion_diag, random_spd)


def make_cs(cmat, bmat, sizes, load=None, profile=None, z0=None):
    """Wrap dense operators into a block coarse system forced by profile(t) * load."""
    sizes = tuple(sizes)
    dim = sum(sizes)
    assert cmat.shape == (dim, dim)
    return splitting.CoarseSystem(block_sizes=sizes, mass=cmat, stiff=bmat,
                                  load=np.zeros(dim) if load is None else load,
                                  profile=profile,
                                  z0=np.zeros(dim) if z0 is None else np.asarray(z0, float))


HAND_C = np.eye(2)
HAND_B = np.array([[2.0, 1.0], [1.0, 2.0]])


# --- splits ---

def test_split_parts_sum_to_operators():
    rng = np.random.default_rng(3)
    cmat = random_spd(rng, 7)
    bmat = random_spd(rng, 7)
    cs = make_cs(cmat, bmat, (3, 2, 2))
    parts = splitting.make_split(cs)
    assert np.array_equal(parts.mass.toarray(), cmat)
    assert np.array_equal(parts.stiff.toarray(), bmat)


def test_split_stores_no_matrix():
    # a split is a rule over the coarse system's own C and B: its only
    # matrices are those two, shared, and its one array besides is the mask
    # of their shared pattern's entries inside a diagonal block
    rng = np.random.default_rng(4)
    cs = make_cs(random_spd(rng, 7), random_spd(rng, 7), (3, 2, 2))
    parts = splitting.make_split(cs)
    matrices = [v for v in vars(parts).values() if sp.issparse(v)]
    assert len(matrices) == 2
    assert any(a is cs.mass for a in matrices)
    assert any(a is cs.stiff for a in matrices)
    arrays = [v for v in vars(parts).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is parts.inside
    assert parts.inside.dtype == bool and parts.inside.shape == (cs.mass.nnz,)
    block = np.repeat([0, 1, 2], (3, 2, 2))
    assert np.array_equal(parts.inside.reshape(7, 7), block[:, None] == block)


def test_block_diagonal_split_structure():
    cs = make_cs(HAND_C, HAND_B, (1, 1))
    parts = splitting.make_split(cs)
    assert np.array_equal(parts.stiff_main.toarray(), np.diag([2.0, 2.0]))
    rest = (parts.stiff - parts.stiff_main).toarray()
    assert np.array_equal(rest, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(parts.mass_main.toarray(), np.eye(2))


def test_split_keeps_the_step_bytes_contract_of_the_traced_benchmark(monkeypatch):
    # benchmark/traced.py computes the bytes one step reads from the split's
    # block sizes and rule; a change to SplitParts must not break it
    bench = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
    monkeypatch.syspath_prepend(str(bench))
    from traced import step_bytes
    rng = np.random.default_rng(6)
    sizes = (3, 2, 2)
    n = sum(sizes)
    parts = splitting.make_split(make_cs(random_spd(rng, n), random_spd(rng, n), sizes))
    assert parts.variant == "block-diagonal"
    assert step_bytes(parts) == 8 * (2 * n * n + sum(b * b for b in sizes))


def test_coarse_system_stores_dense_operators_as_csr():
    cs = make_cs(HAND_C, HAND_B, (1, 1))
    for mat, dense in ((cs.mass, HAND_C), (cs.stiff, HAND_B)):
        assert sp.isspmatrix_csr(mat) and mat.has_sorted_indices
        assert np.array_equal(mat.toarray(), dense)


def test_coarse_system_holds_c_and_b_on_one_pattern():
    # C and B share one pair of sorted index arrays: a hand-built pair of
    # differing patterns is held on their union, each storing the other's
    # entries as explicit zeros, and a permuted or projected system shares
    # its arrays too
    cmat = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]]))
    bmat = sp.csr_matrix(np.array([[3.0, 0.0, 1.0], [0.0, 3.0, 0.0], [1.0, 0.0, 3.0]]))
    cs = make_cs(cmat, bmat, (2, 1))
    projected = driver.build_pipeline(dataclasses.replace(
        driver.ExperimentConfig(), nx_coarse=4, ny_coarse=4, refine=4, modes=3,
        blocks=(1, 2), tau=0.05, t_final=0.2).validate()).coarse
    for system in (cs, cs.permuted(np.array([2, 0, 1]), (1, 2), None), projected):
        assert np.shares_memory(system.mass.indices, system.stiff.indices)
        assert np.shares_memory(system.mass.indptr, system.stiff.indptr)
        assert system.mass.has_canonical_format
    assert cs.mass.nnz == 7
    assert np.array_equal(cs.mass.toarray(), cmat.toarray())
    assert np.array_equal(cs.stiff.toarray(), bmat.toarray())
    assert np.count_nonzero(cs.mass.data == 0.0) == 2
    assert np.count_nonzero(cs.stiff.data == 0.0) == 2


def test_step_operator_holds_no_dense_matrix():
    rng = np.random.default_rng(5)
    cs = make_cs(random_spd(rng, 7), random_spd(rng, 7), (3, 2, 2))
    config = splitting.SplitConfig(tau=0.1, t_final=0.1, theta_mass=1.5,
                                   theta_stiff=0.8)
    op = splitting._StepOperator(splitting.make_split(cs), config)
    for value in vars(op).values():
        assert not (isinstance(value, np.ndarray) and value.ndim == 2)
    assert sp.isspmatrix_csr(op.explicit)
    assert op.explicit.shape == (7, 14)


def test_reference_and_split_run_factor_each_matrix_once(factorizations):
    # a split streamed against the reference takes the reference's z^1, so
    # C + tau*B is factored once for both; the split step matrix is factored
    # once, C is factored once for the energy monitor's |g^|^2_{C^-1}, of
    # which only the number is kept, and the certificate factors one matrix
    # per condition once per run: at theta = p/2 = 1.5 the condition matrix
    # is the threshold's own. A split without a reference factors its own
    # C + tau*B for its first step
    rng = np.random.default_rng(8)
    cs = make_cs(random_spd(rng, 7), random_spd(rng, 7), (3, 2, 2),
                 load=rng.standard_normal(7), z0=rng.standard_normal(7))
    config = splitting.SplitConfig(tau=0.1, t_final=1.0, theta_mass=1.5,
                                   theta_stiff=1.5)
    certificate = ["mass condition", "stiffness condition"]
    reference = splitting.backward_euler(cs, config.tau, config.t_final)
    split = splitting.march(cs, splitting.make_split(cs), config, reference=reference)
    assert split.energy is not None
    assert factorizations == (["C + tau*B (tau = 0.1)"] + certificate
                              + ["split step matrix", "coarse mass"])
    splitting.march(cs, splitting.make_split(cs), config, reference=reference)
    assert factorizations[5:] == certificate + ["split step matrix"]
    splitting.march(cs, splitting.make_split(cs), config)
    assert factorizations[8:] == certificate + ["C + tau*B (tau = 0.1)", "split step matrix"]


# --- single steps ---

def step_once(parts, config, z_now, z_prev, f_next):
    """One split step through the operator that `march` steps with."""
    return splitting._StepOperator(parts, config).step(
        np.concatenate((z_prev, z_now)), f_next)


def test_split_step_hand_value_block_diagonal():
    # C = I, B = [[2,1],[1,2]], blocks (1,1), theta = 1, tau = 1, f = 0,
    # z_now = z_prev = (1,0):   (I + diag(2,2)) z+ = z - B2 z = (1,-1)
    cs = make_cs(HAND_C, HAND_B, (1, 1))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=1.0, t_final=1.0)
    z = step_once(parts, config, np.array([1.0, 0.0]),
                  np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(z, [1.0 / 3.0, -1.0 / 3.0], atol=1e-14)


def test_split_step_matches_dense_oracle():
    rng = np.random.default_rng(11)
    cmat = random_spd(rng, 6)
    bmat = random_spd(rng, 6)
    cs = make_cs(cmat, bmat, (2, 3, 1))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.37, t_final=0.37,
                                   theta_mass=0.8, theta_stiff=0.6)
    z_now = rng.standard_normal(6)
    z_prev = rng.standard_normal(6)
    f_next = rng.standard_normal(6)
    got = step_once(parts, config, z_now, z_prev, f_next)
    mass_main, stiff_main = parts.mass_main.toarray(), parts.stiff_main.toarray()
    want = dense_split_step(mass_main, parts.mass.toarray() - mass_main,
                            stiff_main, parts.stiff.toarray() - stiff_main,
                            0.8, 0.6, 0.37, z_now, z_prev, f_next)
    assert np.max(np.abs(got - want)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=-8.0, max_value=8.0,
                       allow_nan=False, allow_infinity=False))
def test_split_step_is_linear(alpha):
    cs = make_cs(HAND_C, HAND_B, (1, 1))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.25, t_final=0.25,
                                   theta_mass=1.0, theta_stiff=0.5)
    rng = np.random.default_rng(23)
    z_now, z_prev, f_next = (rng.standard_normal(2) for _ in range(3))
    one = step_once(parts, config, z_now, z_prev, f_next)
    scaled = step_once(parts, config, alpha * z_now,
                       alpha * z_prev, alpha * f_next)
    assert np.allclose(scaled, alpha * one, atol=1e-10, rtol=1e-10)


def test_backward_euler_matches_dense_oracle():
    rng = np.random.default_rng(17)
    cmat = random_spd(rng, 5)
    bmat = random_spd(rng, 5)
    fvec = rng.standard_normal(5)
    z0 = rng.standard_normal(5)

    def profile(t):
        return np.sin(3.0 * t)

    cs = make_cs(cmat, bmat, (2, 3), load=fvec, profile=profile, z0=z0)
    tau = 0.05
    got = splitting.backward_euler(cs, tau, 1.0).states
    want = dense_backward_euler(cmat, bmat, fvec, profile, z0, tau, 20)
    assert np.max(np.abs(got - want)) < 1e-12 * np.abs(want).max()


def test_march_first_step_is_the_backward_euler_step():
    rng = np.random.default_rng(19)
    cmat = random_spd(rng, 7)
    bmat = random_spd(rng, 7)
    cs = make_cs(cmat, bmat, (2, 3, 2), load=np.arange(7.0), profile=lambda t: t,
                 z0=rng.standard_normal(7))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.1, t_final=0.5,
                                   theta_mass=2.0, theta_stiff=1.0)
    split = splitting.march(cs, parts, config)
    euler = splitting.backward_euler(cs, 0.1, 0.5)
    assert np.array_equal(split.states[1], euler.states[1])


# --- whole runs ---

def test_single_block_fully_implicit_equals_backward_euler():
    rng = np.random.default_rng(29)
    n = 8
    cmat = random_spd(rng, n)
    bmat = random_spd(rng, n)
    cs = make_cs(cmat, bmat, (n,), load=rng.standard_normal(n),
                 z0=rng.standard_normal(n))
    config = splitting.SplitConfig(tau=0.02, t_final=0.5)
    parts = splitting.make_split(cs)
    split = splitting.march(cs, parts, config)
    euler = splitting.backward_euler(cs, 0.02, 0.5)
    scale = np.abs(euler.states).max()
    assert np.max(np.abs(split.states - euler.states)) < 1e-12 * scale


def test_backward_euler_scalar_closed_form():
    cs = make_cs(np.eye(1), np.eye(1), (1,), z0=np.ones(1))
    tau, t_final = 0.1, 1.0
    traj = splitting.backward_euler(cs, tau, t_final)
    n = np.arange(traj.n_steps + 1)
    assert np.allclose(traj.states[:, 0], (1.0 + tau) ** (-n), atol=1e-13)


def test_steady_state_is_preserved():
    rng = np.random.default_rng(31)
    cmat = random_spd(rng, 6)
    bmat = random_spd(rng, 6)
    fvec = rng.standard_normal(6)
    steady = np.linalg.solve(bmat, fvec)
    cs = make_cs(cmat, bmat, (3, 3), load=fvec, z0=steady)
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.1, t_final=2.0,
                                   theta_mass=1.0, theta_stiff=1.0)
    traj = splitting.march(cs, parts, config)
    assert np.max(np.abs(traj.states - steady)) < 1e-10


def test_zero_forcing_energy_monotone():
    rng = np.random.default_rng(37)
    cmat = random_spd(rng, 6)
    bmat = random_spd(rng, 6)
    cs = make_cs(cmat, bmat, (2, 2, 2), z0=rng.standard_normal(6))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.05, t_final=5.0,
                                   theta_mass=1.5, theta_stiff=1.5)
    traj = splitting.march(cs, parts, config)
    assert traj.certificate.passed
    assert traj.energy is not None
    drops = np.diff(traj.energy)
    assert np.all(drops <= 1e-12 * traj.energy[0])


def test_forced_run_satisfies_a_priori_bound():
    # mass of the form I + L L^T dominates the identity, which is the
    # constant the forcing term of the estimate is weighted with
    rng = np.random.default_rng(41)
    cmat = random_spd(rng, 6, shift=1.0)
    bmat = random_spd(rng, 6)
    cs = make_cs(cmat, bmat, (3, 3), load=rng.standard_normal(6),
                 z0=rng.standard_normal(6))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.02, t_final=1.0,
                                   theta_mass=1.2, theta_stiff=1.2)
    traj = splitting.march(cs, parts, config)
    assert traj.certificate.passed
    assert traj.bound_margin is not None
    assert traj.bound_margin >= -1e-9 * np.max(traj.bound_rhs)


@pytest.mark.parametrize("pulsed", [False, True], ids=["static", "pulsed-sine"])
def test_energy_monitor_makes_no_solve(pulsed, monkeypatch):
    # the forcing is a_k g^, so |f_k|^2_{C^-1} = a_k^2 |g^|^2_{C^-1}: one
    # solve with C serves every run on the system, static or pulsed, and the
    # monitor itself solves nothing. The bound is the one of solving row by row
    rng = np.random.default_rng(43)
    cmat = random_spd(rng, 6, shift=1.0)
    cs = make_cs(cmat, random_spd(rng, 6), (3, 3), load=rng.standard_normal(6),
                 profile=(lambda t: np.sin(7.0 * t)) if pulsed else None,
                 z0=rng.standard_normal(6))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.02, t_final=1.0,
                                   theta_mass=1.2, theta_stiff=1.2)
    solve, solved = linalg.BandCholesky.solve, []
    monkeypatch.setattr(linalg.BandCholesky, "solve",
                        lambda self, rhs: solved.append(rhs.shape) or solve(self, rhs))
    monitor, in_monitor = splitting._energy_monitor, []

    def counted(*args):
        before = len(solved)
        out = monitor(*args)
        in_monitor.append(len(solved) - before)
        return out

    monkeypatch.setattr(splitting, "_energy_monitor", counted)
    cs.load_norm_sq()
    assert solved == [(6, 1)]
    traj = splitting.march(cs, parts, config)
    assert in_monitor == [0]
    rows = cs.rhs(config.tau * np.arange(2, config.n_steps + 1))
    per_row = 0.5 * config.tau * np.array([f @ np.linalg.solve(cmat, f) for f in rows])
    want = traj.energy[0] + np.cumsum(per_row)
    assert np.max(np.abs(traj.bound_rhs - want)) <= 1e-12 * np.max(np.abs(want))
    assert traj.bound_margin >= 0.0


def test_static_forcing_is_the_profile_one_bit_for_bit():
    # a static forcing is a = 1: the system without a profile and the same
    # system with the profile np.ones_like give the same bits, for the
    # reference, a streamed split and a split that keeps every level
    rng = np.random.default_rng(47)
    cmat, bmat = random_spd(rng, 6, shift=1.0), random_spd(rng, 6)
    load, z0 = rng.standard_normal(6), rng.standard_normal(6)
    config = splitting.SplitConfig(tau=0.02, t_final=1.0, theta_mass=1.2, theta_stiff=1.2)
    runs = []
    for profile in (None, np.ones_like):
        cs = make_cs(cmat, bmat, (2, 4), load=load, profile=profile, z0=z0)
        scale = cs.scale(config.tau, config.n_steps)
        assert np.array_equal(scale, np.ones(config.n_steps)) and not scale.flags.writeable
        reference = splitting.backward_euler(cs, config.tau, config.t_final)
        runs.append((reference,
                     splitting.march(cs, splitting.make_split(cs), config, reference=reference),
                     splitting.march(cs, splitting.make_split(cs), config)))
    for static, unit in zip(*runs):
        assert np.array_equal(static.states, unit.states)
        for name in ("energy", "bound_lhs", "bound_rhs", "history"):
            got, want = getattr(static, name), getattr(unit, name)
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)
    assert runs[0][1].certificate.passed and runs[0][1].history is not None
    assert runs[0][1].bound_margin == runs[1][1].bound_margin


def test_trajectory_shapes_and_times():
    cs = make_cs(HAND_C, HAND_B, (1, 1), z0=np.array([1.0, 2.0]))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.25, t_final=1.0)
    traj = splitting.march(cs, parts, config)
    assert traj.states.shape == (5, 2)
    assert traj.n_steps == 4
    # state n is the one at time n * tau
    assert traj.tau == 0.25 and traj.tau * traj.n_steps == 1.0
    assert np.array_equal(traj.states[0], [1.0, 2.0])
    assert len(traj.energy) == 4
    assert len(traj.bound_lhs) == 3


def test_march_with_failed_certificate_warns_and_skips_monitor(caplog):
    cs = make_cs(HAND_C, HAND_B, (1, 1), z0=np.array([1.0, 0.0]))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.1, t_final=0.5,
                                   theta_mass=0.1, theta_stiff=0.1)
    with caplog.at_level(logging.WARNING, logger="msplit.splitting"):
        traj = splitting.march(cs, parts, config)
    assert not traj.certificate.passed
    assert traj.energy is None
    assert traj.bound_margin is None
    assert any("certificate" in rec.message for rec in caplog.records)
    assert np.all(np.isfinite(traj.states))


def _violated_bound_monitor(monkeypatch):
    """Make the energy monitor report a bound that fails at split step 3."""
    monitor = splitting._energy_monitor

    def violated(*args):
        energy, lhs, rhs = monitor(*args)
        lhs = lhs.copy()
        lhs[1] = rhs[1] + 1e-6 * max(np.abs(rhs).max(), 1.0)
        return energy, lhs, rhs

    monkeypatch.setattr(splitting, "_energy_monitor", violated)


def test_march_raises_when_the_a_priori_bound_fails(monkeypatch):
    rng = np.random.default_rng(41)
    cs = make_cs(random_spd(rng, 6, shift=1.0), random_spd(rng, 6), (3, 3),
                 load=rng.standard_normal(6), z0=rng.standard_normal(6))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.02, t_final=0.2,
                                   theta_mass=1.2, theta_stiff=1.2)
    assert splitting.march(cs, parts, config).bound_margin >= 0.0
    _violated_bound_monitor(monkeypatch)
    with pytest.raises(NumericalError, match=r"bound fails at step 3: margin -"):
        splitting.march(cs, parts, config)


def test_bound_within_round_off_passes():
    rhs = np.array([1e3, 2e3])
    splitting._check_bound(rhs + 1e-8, rhs)
    with pytest.raises(NumericalError, match="step 3"):
        splitting._check_bound(rhs + np.array([0.0, 1e-6]), rhs)
    splitting._check_bound(np.empty(0), np.empty(0))


def _outcome(run):
    """The trajectory ``run()`` returns, or the message of its NumericalError."""
    try:
        return run()
    except NumericalError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       n_steps=st.integers(1, 60), pulsed=st.booleans(),
       theta=st.sampled_from([1.5, 2.0, 1.0, 0.3]), violate=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_streamed_split_run_matches_the_full_run_bit_for_bit(sizes, n_steps, pulsed,
                                                             theta, violate, seed):
    # a split streamed against the stored reference keeps only its last
    # levels, yet its history, final state, energy, bound and step count are
    # those of a split that kept every level, compared on full states; 60
    # steps give a short last chunk, fewer than 16 a chunk per level. A
    # certified run whose bound fails raises the same error either way
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    cs = make_cs(random_spd(rng, n, shift=1.0), random_spd(rng, n), sizes,
                 load=rng.standard_normal(n),
                 profile=(lambda t: np.sin(9.0 * t) + 1.0) if pulsed else None,
                 z0=rng.standard_normal(n))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.05, t_final=0.05 * n_steps, theta_mass=theta,
                                   theta_stiff=theta)
    reference = splitting.backward_euler(cs, config.tau, config.t_final)
    with pytest.MonkeyPatch.context() as patch:
        if violate and n_steps >= 3:   # the violation is at split step 3
            _violated_bound_monitor(patch)
        full = _outcome(lambda: splitting.march(cs, parts, config))
        streamed = _outcome(lambda: splitting.march(cs, parts, config, reference=reference))
    if isinstance(full, str):
        assert streamed == full
        return
    assert streamed.states.shape[0] <= min(n_steps + 1, 2 + max(1, n_steps // 16))
    assert np.array_equal(streamed.states[-1], full.states[-1])
    want = driver.compare(reference, full, cs).history_values
    assert np.array_equal(streamed.history, want)
    for name in ("energy", "bound_lhs", "bound_rhs"):
        got, expected = getattr(streamed, name), getattr(full, name)
        assert (got is None) == (expected is None) == (not full.certificate.passed)
        assert expected is None or np.array_equal(got, expected)
    assert streamed.bound_margin == full.bound_margin
    assert streamed.n_steps == full.n_steps == n_steps
    assert len(streamed.step_seconds) == len(full.step_seconds) == n_steps


def test_streamed_split_holds_no_full_trajectory():
    # the reference is stored; the split streamed against it holds one
    # chunk of levels and the two before it, in a buffer of that size
    rng = np.random.default_rng(71)
    cs = make_cs(random_spd(rng, 7), random_spd(rng, 7), (3, 4),
                 load=rng.standard_normal(7), z0=rng.standard_normal(7))
    config = splitting.SplitConfig(tau=0.01, t_final=2.0)
    reference = splitting.backward_euler(cs, config.tau, config.t_final)
    split = splitting.march(cs, splitting.make_split(cs), config, reference=reference)
    rows = config.n_steps // 16
    assert split.n_steps == config.n_steps == 200
    assert split.states.shape[0] <= rows + 2 and split.states.base.shape[0] == rows + 2
    assert all(not (isinstance(v, np.ndarray) and v.ndim == 2)
               for v in vars(split).values() if v is not split.states)
    full = splitting.march(cs, splitting.make_split(cs), config)
    assert np.array_equal(split.states, full.states[-len(split.states):])
    with pytest.raises(ValueError, match="time grid"):
        splitting.march(cs, splitting.make_split(cs), splitting.SplitConfig(
            tau=0.02, t_final=2.0), reference=reference)


# --- stability certificate ---

def test_certificate_hand_case_passes_and_fails():
    cmat = np.array([[1.0, -0.5], [-0.5, 1.0]])
    cs = make_cs(cmat, np.eye(2), (1, 1))
    parts = splitting.make_split(cs)
    good = splitting.check_stability(parts, 1.0, 1.0)
    assert good.passed and good.mass_ok and good.stiff_ok
    assert good.rule_mass_ok and good.rule_stiff_ok
    bad = splitting.check_stability(parts, 0.5, 1.0)
    assert not bad.passed
    # theta_m C1 - C/2 = [[0, .25], [.25, 0]], smallest eigenvalue -1/4
    assert bad.mass_margin == pytest.approx(-0.25, abs=1e-12)
    assert "FAIL" in bad.describe()
    assert "pass" in good.describe()


@pytest.mark.parametrize("theta_mass,theta_stiff,expect", [
    (0.3, 0.6, False),
    (0.75, 0.2, False),
    (0.501, 0.501, True),
    (0.75, 0.6, True),
])
def test_degenerate_split_certificate_tracks_weights(theta_mass, theta_stiff,
                                                     expect):
    # single block, so the rests vanish and the conditions degenerate to
    # theta_m > 1/2 and theta_s > 1/2 exactly
    rng = np.random.default_rng(43)
    cs = make_cs(random_spd(rng, 5), random_spd(rng, 5), (5,))
    parts = splitting.make_split(cs)
    cert = splitting.check_stability(parts, theta_mass, theta_stiff)
    assert cert.passed == expect


def test_one_block_stiffness_weight_below_half_fails_and_diverges():
    # one block with theta_m = 1 is the two-level theta-scheme in theta_s,
    # whose factor (1 - (1 - theta_s) tau lam) / (1 + theta_s tau lam) tends
    # to -7/3 for theta_s = 0.3: the certificate must refuse it
    cs = make_cs(np.eye(1), np.eye(1), (1,), z0=np.array([1.0]))
    parts = splitting.make_split(cs)
    cert = splitting.check_stability(parts, 1.0, 0.3)
    assert cert.mass_ok and not cert.stiff_ok and not cert.passed
    assert not cert.rule_stiff_ok
    assert cert.stiff_margin == pytest.approx(-0.2, abs=1e-15)
    traj = splitting.march(cs, parts, splitting.SplitConfig(
        tau=1e3, t_final=4e3, theta_mass=1.0, theta_stiff=0.3))
    assert traj.states[2, 0] / traj.states[1, 0] == pytest.approx(-699.0 / 301.0)


def test_certificate_margin_and_verdict_match_the_dense_pencil():
    # the margin is theta - lambda_max(M1^-1 M) / 2, and away from that
    # threshold the verdict is the dense definiteness of theta*M1 - M/2;
    # random SPD systems on 1 to 4 blocks of 1 to 8 modes
    rng = np.random.default_rng(59)
    decided = 0
    for _ in range(60):
        sizes = tuple(int(b) for b in rng.integers(1, 9, size=int(rng.integers(1, 5))))
        cmat, bmat = random_spd(rng, sum(sizes)), random_spd(rng, sum(sizes))
        parts = splitting.make_split(make_cs(cmat, bmat, sizes))
        want_c, want_b = dense_threshold(cmat, sizes), dense_threshold(bmat, sizes)
        for step in (-0.3, -1e-6, 1e-6, 0.3):
            tm, ts = want_c + step, want_b - step
            cert = splitting.check_stability(parts, tm, ts)
            for theta, want, margin, ok in ((tm, want_c, cert.mass_margin, cert.mass_ok),
                                            (ts, want_b, cert.stiff_margin, cert.stiff_ok)):
                assert margin == pytest.approx(theta - want, rel=1e-12, abs=1e-12 * want)
                if abs(theta - want) > 1e-9:
                    assert ok == (theta > want)
                    decided += 1
    assert decided == 60 * 4 * 2


def test_certificate_reads_no_dense_matrix(monkeypatch):
    rng = np.random.default_rng(61)
    parts = splitting.make_split(make_cs(random_spd(rng, 9), random_spd(rng, 9), (4, 5)))

    def densify(*args, **kwargs):
        raise AssertionError("the certificate densified a matrix")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", densify)
        monkeypatch.setattr(cls, "todense", densify)
    monkeypatch.setattr(np.linalg, "eigvalsh", densify)
    cert = splitting.check_stability(parts, 1.0, 1.0)
    assert cert.passed and 0.0 < cert.mass_margin < 0.5
    assert not splitting.check_stability(parts, 0.5, 0.5).passed


def test_certificate_lanczos_tolerance_keeps_the_margins(monkeypatch):
    # the threshold's Lanczos run stops at a relative tolerance of 1e-10;
    # its margins stay within 1e-12 relative of a run to machine precision
    # (tol = 0) on random block systems and a projected GMsFEM system
    rng = np.random.default_rng(73)
    systems = [make_cs(random_spd(rng, sum(sizes)), random_spd(rng, sum(sizes)), sizes)
               for sizes in ((3, 5), (4, 2, 6), (2, 2, 2, 3), (10, 12))]
    systems.append(driver.build_pipeline(dataclasses.replace(
        driver.ExperimentConfig(), nx_coarse=4, ny_coarse=4, refine=4, kappa="channels",
        modes=3, blocks=(1, 2), tau=0.05, t_final=0.2).validate()).coarse)
    eigsh, tols = splitting.spla.eigsh, []

    def exact(*args, **kwargs):
        tols.append(kwargs["tol"])
        return eigsh(*args, **dict(kwargs, tol=0))

    for cs in systems:
        parts = splitting.make_split(cs)
        got = splitting.check_stability(parts, 1.0, 1.0)
        with monkeypatch.context() as patch:
            patch.setattr(splitting.spla, "eigsh", exact)
            want = splitting.check_stability(parts, 1.0, 1.0)
        for margin, reference in ((got.mass_margin, want.mass_margin),
                                  (got.stiff_margin, want.stiff_margin)):
            assert margin == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert tols == [1e-10] * 2 * len(systems)


@pytest.mark.parametrize("theta, count", [(1.0, 2), (1.2, 4), (0.6, 4)],
                         ids=["p/2", "above", "below"])
def test_certificate_factors_the_condition_once_at_p_half(theta, count, factorizations,
                                                          monkeypatch):
    # at theta = p/2 the condition matrix is the one whose factor the
    # threshold's Lanczos run needs, so each condition takes one sparse
    # factorization instead of two; the margins keep their bits
    rng = np.random.default_rng(67)
    parts = splitting.make_split(make_cs(random_spd(rng, 8), random_spd(rng, 8), (3, 5)))
    cert = splitting.check_stability(parts, theta, theta)
    assert len(factorizations) == count
    assert cert.passed == (theta >= 1.0)
    # the same margins from factors of their own: refuse the condition
    # matrices, so the threshold factors the matrix at p/2 separately
    init = linalg.BandCholesky.__init__

    def refuse_conditions(self, mat, order=None, context=""):
        if context.endswith("condition"):
            raise NumericalError("refused")
        init(self, mat, order, context)

    monkeypatch.setattr(linalg.BandCholesky, "__init__", refuse_conditions)
    own = splitting.check_stability(parts, theta, theta)
    assert not own.passed
    assert (own.mass_margin, own.stiff_margin) == (cert.mass_margin, cert.stiff_margin)


def differing_patterns():
    """A 7 x 7 system whose C (tridiagonal, with explicit zeros inside the
    first block, at (1, 2), and coupling two blocks, at (0, 5)) and B
    (entries two off the diagonal) differ in pattern."""
    pairs = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (1, 2), (0, 5)]
    rows = [*range(7)] + [i for i, j in pairs] + [j for i, j in pairs]
    cols = [*range(7)] + [j for i, j in pairs] + [i for i, j in pairs]
    values = [4.0] * 7 + 2 * ([-1.0] * 5 + [0.0, 0.0])
    cmat = sp.csr_matrix((values, (rows, cols)), shape=(7, 7))
    bmat = sp.diags([1.0, 5.0, 1.0], [-2, 0, 2], shape=(7, 7), format="csr")
    return cmat, bmat


def assert_same_csr(got, want):
    """Two CSR matrices store the same entries in the same order, bit for bit."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("theta", [0.8, 1.3])
def test_conditions_and_damping_equal_dense_formulas(theta, monkeypatch):
    # the block-by-block condition matrices handed to the band factor and
    # the damping matrix are bit-equal to theta*M1 - M/2 formed densely; the
    # explicit step operator and the split step matrix store, entry for
    # entry and in order, what sparse algebra on C, B and their diagonal
    # blocks C1, B1 stores: [-lag | tau*B + lag] with lag = C - tm*C1, and
    # tm*C1 + tau*ts*B1. So does a system whose C and B differ in pattern,
    # and tm = 1, where lag has no entry inside a block
    rng = np.random.default_rng(53)
    sizes, tau = (3, 2, 2), 0.3
    block = np.repeat(np.arange(len(sizes)), sizes)
    inside = sp.csr_matrix((block[:, None] == block).astype(float))
    dense = tuple(sp.csr_matrix(0.5 * (m + m.T)) for m in (random_spd(rng, 7), random_spd(rng, 7)))
    given = {}
    factor = splitting.BandCholesky

    def recording(mat, order=None, context=""):
        given[context] = mat
        return factor(mat, order, context)

    monkeypatch.setattr(splitting, "BandCholesky", recording)
    for csr_c, csr_b in (dense, differing_patterns()):
        cmat, bmat = csr_c.toarray(), csr_b.toarray()
        parts = splitting.make_split(make_cs(csr_c, csr_b, sizes))
        want_mass = theta * parts.mass_main.toarray() - 0.5 * cmat
        want_stiff = theta * parts.stiff_main.toarray() - 0.5 * bmat
        cert = splitting.check_stability(parts, theta, theta)
        assert np.array_equal(given["mass condition"].toarray(), want_mass)
        assert np.array_equal(given["stiffness condition"].toarray(), want_stiff)
        assert cert.mass_ok == (np.linalg.eigvalsh(want_mass).min() > 0.0)
        assert cert.stiff_ok == (np.linalg.eigvalsh(want_stiff).min() > 0.0)
        assert cert.mass_margin == pytest.approx(theta - dense_threshold(cmat, sizes),
                                                 rel=1e-12)
        assert cert.stiff_margin == pytest.approx(theta - dense_threshold(bmat, sizes),
                                                  rel=1e-12)
        config = splitting.SplitConfig(tau=tau, t_final=tau, theta_mass=theta,
                                       theta_stiff=theta)
        assert np.array_equal(splitting.damping_matrix(parts, config).toarray(),
                              tau * want_mass + tau ** 2 / 2 * want_stiff)
        mass_main, stiff_main = (m.multiply(inside).tocsr() for m in (csr_c, csr_b))
        for tm in (theta, 1.0):
            config = splitting.SplitConfig(tau=tau, t_final=tau, theta_mass=tm,
                                           theta_stiff=theta)
            op = splitting._StepOperator(parts, config)
            lag = csr_c - tm * mass_main
            assert_same_csr(op.explicit, sp.hstack([-lag, tau * csr_b + lag], format="csr"))
            assert_same_csr(given["split step matrix"],
                            tm * mass_main + tau * theta * stiff_main)


def test_damping_matrix_hand_value():
    # tau (theta_m C1 - C/2) + (tau^2/2) (theta_s B1 - B/2) for the 2x2 case
    cs = make_cs(HAND_C, HAND_B, (1, 1))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.5, t_final=0.5)
    want = np.array([[0.375, -0.0625], [-0.0625, 0.375]])
    assert np.allclose(splitting.damping_matrix(parts, config).toarray(), want,
                       atol=1e-15)


def test_recorded_energy_obeys_the_energy_identity():
    # E_{n+1} - E_n = -2 tau |a|^2_{C + tau theta_s B1} + 2 tau (f^{n+1}, a)
    # with a = (z^{n+1} - z^{n-1}) / (2 tau), to round-off
    rng = np.random.default_rng(67)
    cmat, bmat = random_spd(rng, 7), random_spd(rng, 7)
    fvec = rng.standard_normal(7)
    cs = make_cs(cmat, bmat, (3, 2, 2), load=fvec, z0=rng.standard_normal(7))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.2, t_final=4.0, theta_mass=1.6,
                                   theta_stiff=1.7)
    traj = splitting.march(cs, parts, config)
    z, tau = traj.states, config.tau
    a = (z[2:] - z[:-2]) / (2 * tau)
    weight = cmat + tau * 1.7 * parts.stiff_main.toarray()
    want = (-2 * tau * np.einsum("ij,jk,ik->i", a, weight, a)
            + 2 * tau * a @ fvec)
    got = np.diff(traj.energy)
    assert np.max(np.abs(got - want)) < 1e-12 * np.abs(traj.energy).max()


# --- configuration guards ---

def test_split_config_validation():
    with pytest.raises(ValueError, match="positive"):
        splitting.SplitConfig(tau=-0.1, t_final=1.0)
    with pytest.raises(ValueError, match="positive"):
        splitting.SplitConfig(tau=0.1, t_final=0.0)
    with pytest.raises(ValueError, match="weights"):
        splitting.SplitConfig(tau=0.1, t_final=1.0, theta_mass=0.0)
    with pytest.raises(ValueError, match="divide"):
        splitting.SplitConfig(tau=0.3, t_final=1.0)
    assert splitting.SplitConfig(tau=0.25, t_final=1.0).n_steps == 4


# --- error recursion diagnostics ---

def test_error_recursion_residual_is_machine_small():
    rng = np.random.default_rng(47)
    cmat = random_spd(rng, 6)
    bmat = random_spd(rng, 6)
    cs = make_cs(cmat, bmat, (2, 4), load=rng.standard_normal(6),
                 z0=rng.standard_normal(6))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=0.05, t_final=1.0)
    split = splitting.march(cs, parts, config)
    euler = splitting.backward_euler(cs, 0.05, 1.0)
    report = error_recursion_diag(parts, config, euler, split)
    assert report.max_residual < 1e-12
    assert report.coupling_norm > 0.0
    assert report.error_norms[0] == 0.0
    assert len(report.residuals) == split.n_steps - 1


def test_error_recursion_guards():
    cs = make_cs(HAND_C, HAND_B, (1, 1), z0=np.array([1.0, 0.0]))
    parts = splitting.make_split(cs)
    euler = splitting.backward_euler(cs, 0.1, 0.5)
    relaxed_config = splitting.SplitConfig(tau=0.1, t_final=0.5, theta_mass=1.0,
                                           theta_stiff=0.5)
    relaxed = splitting.march(cs, parts, relaxed_config)
    with pytest.raises(ValueError, match="fully implicit"):
        error_recursion_diag(parts, relaxed_config, euler, relaxed)
    config = splitting.SplitConfig(tau=0.1, t_final=0.5)
    strict = splitting.march(cs, parts, config)
    other = splitting.backward_euler(cs, 0.05, 0.5)
    with pytest.raises(ValueError, match="time grid"):
        error_recursion_diag(parts, config, other, strict)
    with pytest.raises(ValueError, match="backward Euler"):
        error_recursion_diag(parts, config, strict, strict)
    with pytest.raises(ValueError, match="backward Euler"):
        error_recursion_diag(parts, config, euler, euler)


def test_march_raises_on_nonfinite_state():
    # all inputs finite, but a tiny pivot against a huge forcing overflows
    # the first solve; the runner must stop with a diagnosis instead of
    # marching on with non-finite states
    tiny = np.diag([1e-280, 1.0])
    cs = make_cs(tiny, tiny, (1, 1), load=np.array([1e300, 0.0]))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=1.0, t_final=1.0)
    with pytest.raises(NumericalError, match="non-finite"):
        splitting.march(cs, parts, config)


def test_overflowing_backward_euler_rhs_is_numerical_error():
    # every input is finite but tau*f + C z^0 overflows; both the reference
    # and the split's first step must stop with the package's own error
    cs = make_cs(np.array([[1e300]]), np.eye(1), (1,), z0=np.array([1e10]))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=1.0, t_final=1.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            splitting.backward_euler(cs, 1.0, 1.0)
        with pytest.raises(NumericalError, match="non-finite"):
            splitting.march(cs, parts, config)


def test_reference_and_march_share_one_forcing_evaluation_per_level():
    # each run calls the profile once, with every time level; the split run's
    # energy monitor reads the same values and makes no call of its own
    rng = np.random.default_rng(21)
    calls = []

    def profile(times):
        calls.append(times.copy())
        return np.sin(times)

    load = np.arange(1.0, 6.0)
    cs = make_cs(random_spd(rng, 5), random_spd(rng, 5), (2, 3), load=load, profile=profile)
    config = splitting.SplitConfig(tau=0.1, t_final=1.0)
    reference = splitting.backward_euler(cs, config.tau, config.t_final)
    split = splitting.march(cs, splitting.make_split(cs), config)
    assert split.energy is not None
    levels = config.tau * np.arange(1, config.n_steps + 1)
    assert len(calls) == 2
    assert all(np.array_equal(call, levels) for call in calls)
    want = dense_backward_euler(cs.mass.toarray(), cs.stiff.toarray(), load, np.sin,
                                cs.z0, config.tau, config.n_steps)
    assert np.allclose(reference.states, want, atol=1e-12)
    assert split.n_steps == config.n_steps


def test_non_finite_forcing_is_reported_as_forcing():
    # a NaN source used to surface only as a non-finite state; a finite
    # profile whose product with a finite load overflows is reported the
    # same way, and a static load is checked when the system is built
    config = splitting.SplitConfig(tau=0.1, t_final=1.0)
    for load, value in ((np.ones(2), np.nan), (np.array([1.0, 1e300]), 1e10)):
        cs = make_cs(np.eye(2), np.eye(2), (1, 1), load=load,
                     profile=lambda t, value=value: np.where(t > 0.5, value, 1.0))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="non-finite forcing at time level 6"):
                splitting.backward_euler(cs, config.tau, config.t_final)
            with pytest.raises(NumericalError, match="non-finite forcing at time level 6"):
                splitting.march(cs, splitting.make_split(cs), config)
    with pytest.raises(NumericalError, match="non-finite forcing"):
        make_cs(np.eye(2), np.eye(2), (1, 1), load=np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match=r"load of shape \(3,\) for 2 dofs"):
        splitting.CoarseSystem(block_sizes=(1, 1), mass=np.eye(2), stiff=np.eye(2),
                               load=np.ones(3), z0=np.zeros(2))


def test_march_reports_unstable_growth_as_numerical_error():
    # a weight pair the certificate refuses diverges for a huge step; the
    # growing recursion must end in the package's own error, not a raw
    # overflow from a solver internals check
    cs = make_cs(np.eye(1), np.eye(1), (1,), z0=np.array([1.0]))
    parts = splitting.make_split(cs)
    config = splitting.SplitConfig(tau=1e3, t_final=1e6,
                                   theta_mass=0.6, theta_stiff=0.3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            splitting.march(cs, parts, config)
