"""Experiment driver: configs, problem builders, runs, sweeps, CLI."""

import contextlib
import dataclasses
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from msplit import cli, driver, fineassembly, gmsfem, linalg, splitting
from msplit.driver import ConfigError, ExperimentConfig
from msplit.grid import GridPair
from msplit.linalg import NumericalError

from _oracles import basis_blocks, dense_backward_euler, prolongation_matrix, space_load
from conftest import assert_basis_dump


def tiny_config(**overrides):
    base = dict(nx_coarse=4, ny_coarse=4, refine=4, modes=3, blocks=(1, 2),
                tau=0.05, t_final=0.2, tau_sweep=(0.05, 0.025),
                params_sweep=((1.0, 1.0), (1.5, 0.75)))
    base.update(overrides)
    return dataclasses.replace(ExperimentConfig(), **base).validate()


TINY_TEXT = """\
# small smoke problem
nx_coarse = 4
ny_coarse = 4
refine = 4
modes = 3
blocks = 1+2
tau = 0.05
t_final = 0.2
"""


# --- config parsing ---

def test_parse_config_happy_path():
    text = TINY_TEXT + """
theta_mass = 1.5
tau_sweep = 0.05, 0.025
params_sweep = 1,1; 1.5,0.75
blocks_sweep = 1+2, 2+1
"""
    config = driver.parse_config(text)
    assert config.nx_coarse == 4
    assert config.blocks == (1, 2)
    assert config.theta_mass == 1.5
    assert config.tau_sweep == (0.05, 0.025)
    assert config.params_sweep == ((1.0, 1.0), (1.5, 0.75))
    assert config.blocks_sweep == ((1, 2), (2, 1))


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown config key 'spam'"):
        driver.parse_config("nx_coarse = 4\nspam = 1\n")
    with pytest.raises(ConfigError, match="line 3: duplicate config key"):
        driver.parse_config("modes = 3\ntau = 0.1\nmodes = 4\n")
    with pytest.raises(ConfigError, match="line 1: bad value for 'tau'"):
        driver.parse_config("tau = fast\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        driver.parse_config("just words\n")


def test_builtin_configs():
    assert driver.builtin_names() == ("example1", "example2-synthetic",
                                      "example3-synthetic")
    one = driver.builtin_config("example1")
    assert (one.nx_coarse, one.ny_coarse, one.refine) == (16, 16, 16)
    assert one.kappa == "periodic" and one.source == "exp-radial"
    assert one.modes == 6 and one.blocks == (1, 5)
    assert one.tau == 1e-3 and one.t_final == 0.25
    two = driver.builtin_config("example2-synthetic")
    assert two.kappa == "channels" and two.kappa_contrast == 1e3
    assert two.modes == 10 and two.blocks == (1, 9) and two.tau == 2e-4
    three = driver.builtin_config("example3-synthetic")
    assert three.source == "pulsed-sine" and three.kappa_seed == 11
    assert three.tau == 2.5e-4
    with pytest.raises(ConfigError, match="unknown builtin"):
        driver.builtin_config("example9")


def test_resolve_config_name_and_path(tmp_path):
    assert driver.resolve_config("example1").modes == 6
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    assert driver.resolve_config(str(path)).refine == 4
    with pytest.raises(ConfigError, match="neither a builtin"):
        driver.resolve_config("no-such-thing")


@pytest.mark.parametrize("overrides,needle", [
    (dict(blocks=(1, 1)), "do not sum"),
    (dict(blocks=(0, 3)), "positive"),
    (dict(modes=33), "exceeds the snapshot count"),
    (dict(tau=0.03), "does not divide"),
    (dict(kappa="raster"), "requires kappa_path"),
    (dict(kappa="raster", kappa_path="/definitely/not/there"), "does not exist"),
    (dict(kappa="magma"), "unknown kappa"),
    (dict(source="laser"), "unknown source"),
    (dict(initial="spike"), "unknown initial profile"),
    (dict(t_final=np.inf), "positive and finite"),
    (dict(refine=1), "refinement factor"),
    (dict(theta_mass=0.0), "weights must be positive"),
    (dict(blocks_sweep=((1, 1),)), "blocks_sweep"),
    (dict(nx_coarse=1), "at least 2 coarse cells"),
    (dict(tau_sweep=(0.05, -0.01)), "tau_sweep"),
    (dict(params_sweep=((1.0, 0.0),)), "params_sweep"),
    (dict(theta_mass=np.nan), "weights must be positive and finite"),
    (dict(theta_stiff=np.inf), "weights must be positive and finite"),
    (dict(tau_sweep=(0.05, np.nan)), "tau_sweep"),
    (dict(params_sweep=((1.0, np.nan),)), "params_sweep"),
    (dict(tau=1e-300, t_final=1e10), "not a finite step count"),
    (dict(source="constant", source_value=np.nan), "source_value must be finite"),
    (dict(kappa="channels", kappa_channels=-3), "kappa_channels must be non-negative"),
])
def test_config_validation_errors(overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        tiny_config(**overrides)


def test_readme_config_table_lists_every_config_key():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("| key | default | meaning |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[1:]  # past the | --- | row
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert keys == fields
    assert list(driver._PARSERS) == fields


# --- built-in fields and formulas ---

def test_builtin_field_formulas():
    assert driver._kappa_periodic(0.0, 0.0) == pytest.approx(2.0 / 2.4)
    assert driver._source_exp_radial(0.5, 0.5) == pytest.approx(1.0)
    assert driver._source_exp_radial(0.0, 0.0) == pytest.approx(math.exp(0.5))
    assert driver._pulse(0.5) * driver._sine(0.5, 0.5) == pytest.approx(2.0)
    assert driver._sine(0.5, 0.5) == pytest.approx(1.0)


def test_builtin_sources_separate_in_time():
    # each builtin's space(x, y) * time(t) is its formula f(t, x, y)
    x, y = np.array([0.1, 0.5, 0.83]), np.array([0.27, 0.5, 0.9])
    t = np.array([0.0, 0.3, 1.7])
    formulas = {
        "exp-radial": lambda t, x, y: np.exp((x - 0.5) ** 2 + (y - 0.5) ** 2),
        "pulsed-sine": lambda t, x, y: ((np.sin(np.pi * t) + 1.0) * np.sin(np.pi * x)
                                        * np.sin(np.pi * y)),
        "constant": lambda t, x, y: np.full_like(x, 3.5),
    }
    for name, formula in formulas.items():
        source = driver._resolve_source(tiny_config(source=name, source_value=3.5))
        scale = np.ones(len(t)) if source.time is None else source.time(t)
        got = scale[:, None] * source.space(x, y)
        want = formula(t[:, None], x, y)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name
        assert (source.time is None) == (name != "pulsed-sine"), name
    assert driver._resolve_source(tiny_config(source="zero")) is None


def test_synthetic_channels_deterministic_and_binary():
    g = GridPair(4, 4, 4)
    one = driver.synthetic_channels(g, contrast=100.0, seed=3)
    two = driver.synthetic_channels(g, contrast=100.0, seed=3)
    other = driver.synthetic_channels(g, contrast=100.0, seed=4)
    cells = one.cell_values(g)
    assert np.array_equal(cells, two.cell_values(g))
    assert not np.array_equal(cells, other.cell_values(g))
    assert set(np.unique(cells)) <= {1.0, 100.0}
    assert (cells == 100.0).any()
    with pytest.raises(ValueError, match="contrast"):
        driver.synthetic_channels(g, contrast=-1.0)


def test_snap_tau():
    assert driver._snap_tau(1e-3, 0.25) == pytest.approx(1e-3)
    assert driver._snap_tau(4e-3, 0.25) == pytest.approx(0.25 / 62)
    assert driver._snap_tau(2.0, 0.25) == pytest.approx(0.25)


# --- pipeline pieces ---

@pytest.fixture(scope="module")
def tiny_pipe():
    return driver.build_pipeline(tiny_config())


def test_build_pipeline_contents(tiny_pipe):
    pipe = tiny_pipe
    assert pipe.fs.n_dof == 15 * 15
    n_nb = len(pipe.prol.basis.nodes)
    assert n_nb == 9
    assert pipe.prol.n_columns == 3 * n_nb
    assert pipe.coarse.block_sizes == (n_nb, 2 * n_nb)
    assert pipe.coarse.dim == pipe.prol.n_columns


def test_build_pipeline_calls_each_offline_layer_through_the_module(monkeypatch):
    # the benchmark's tracer times these four layers by replacing the
    # module attributes, so the pipeline must reach each one through them
    calls = []
    for name in ("offline_modes", "assemble_basis", "assemble_prolongation",
                 "project_coarse"):
        def counting(*args, _inner=getattr(gmsfem, name), _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(gmsfem, name, counting)
    driver.build_pipeline(tiny_config())
    assert calls == ["offline_modes", "assemble_basis", "assemble_prolongation",
                     "project_coarse"]


def test_reconstruct_fine_matches_parts(tiny_pipe):
    pipe = tiny_pipe
    rng = np.random.default_rng(2)
    z = rng.standard_normal(pipe.prol.n_columns)
    want = np.zeros(pipe.fs.n_dof)
    n_nb = len(pipe.prol.basis.nodes)
    mode = 0
    for b in pipe.prol.block_sizes:
        coeffs = z[n_nb * mode:n_nb * (mode + b)].reshape(n_nb, b)
        for i, (sup, block) in enumerate(basis_blocks(pipe.prol.basis)):
            want[sup] += block[:, mode:mode + b] @ coeffs[i]
        mode += b
    got = gmsfem.reconstruct_fine(pipe.fs, pipe.prol, z)
    assert np.allclose(got, want, atol=1e-14)
    with pytest.raises(ValueError, match="coefficients"):
        gmsfem.reconstruct_fine(pipe.fs, pipe.prol, z[:-1])


def test_fem_coarse_run_satisfies_a_priori_bound(tiny_pipe):
    # FEM coarse masses have eigenvalues far below one, so the forcing
    # enters the bound in the C^-1 norm, not the Euclidean one
    config = tiny_pipe.config
    parts = splitting.make_split(tiny_pipe.coarse)
    scfg = splitting.SplitConfig(tau=config.tau, t_final=config.t_final,
                                 theta_mass=config.theta_mass,
                                 theta_stiff=config.theta_stiff)
    traj = splitting.march(tiny_pipe.coarse, parts, scfg)
    assert traj.bound_margin is not None
    assert traj.bound_margin >= -1e-9 * np.max(traj.bound_rhs)


def test_compare_guards_and_zero_error(tiny_pipe):
    pipe = tiny_pipe
    euler = splitting.backward_euler(pipe.coarse, 0.05, 0.2)
    report = driver.compare(euler, euler, pipe.coarse)
    assert report.e_l2 == 0.0 and report.e_a == 0.0
    assert np.all(report.history_values == 0.0)
    assert len(report.history_times) == euler.n_steps
    other = splitting.backward_euler(pipe.coarse, 0.1, 0.2)
    with pytest.raises(ValueError, match="time grid"):
        driver.compare(euler, other, pipe.coarse)


def test_final_errors_are_the_fine_norms_of_the_reconstructed_fields(tiny_pipe):
    # C and B are the Gram matrices of the basis, so the coarse forms give
    # the fine-grid norms of the reconstructed fields
    pipe = tiny_pipe
    euler = splitting.backward_euler(pipe.coarse, 0.05, 0.2)
    split = splitting.march(pipe.coarse, splitting.make_split(pipe.coarse),
                            splitting.SplitConfig(tau=0.05, t_final=0.2))
    report = driver.compare(euler, split, pipe.coarse)
    pmat = prolongation_matrix(pipe.prol.basis, pipe.prol.block_sizes)
    ref, err = pmat @ euler.states[-1], pmat @ (euler.states[-1] - split.states[-1])
    for got, mat in zip((report.e_l2, report.e_a), fineassembly.assemble_matrices(pipe.fs)):
        assert got == pytest.approx(np.sqrt(err @ mat @ err / (ref @ mat @ ref)), rel=1e-10)


def test_trajectory_chunks_leave_every_bit(tiny_pipe, monkeypatch):
    # the energy monitor, the a priori bound and the error history are the
    # same bits when post-processing takes one time level at a time
    coarse = tiny_pipe.coarse
    config = splitting.SplitConfig(tau=0.01, t_final=0.5, theta_mass=1.2, theta_stiff=1.1)

    def outputs():
        split = splitting.march(coarse, splitting.make_split(coarse), config)
        euler = splitting.backward_euler(coarse, config.tau, config.t_final)
        report = driver.compare(euler, split, coarse)
        return (split.energy, split.bound_lhs, split.bound_rhs, report.history_values,
                np.array([report.e_l2, report.e_a]))

    chunked = outputs()
    assert len(splitting.trajectory_chunks(config.n_steps, coarse.dim)) == 17
    monkeypatch.setattr(splitting, "TRAJECTORY_CHUNK_BYTES", 1)
    assert len(splitting.trajectory_chunks(config.n_steps, coarse.dim)) == config.n_steps
    for got, want in zip(outputs(), chunked):
        assert np.array_equal(got, want)


TINY_GUARDED = TINY_TEXT.replace("ny_coarse = 4", "ny_coarse = 3")


@pytest.mark.parametrize("source", ["exp-radial", "pulsed-sine"])
def test_run_builds_no_fine_matrix_and_no_prolongation_matrix(tmp_path, monkeypatch,
                                                              source):
    # `msplit run` works coarse cell by coarse cell: it sums no boxes into
    # global fine matrices or loads and builds no prolongation matrix, so
    # no sparse matrix it makes has the fine grid's node count or interior
    # node count as a dimension (the 4 x 3 coarse, refine-4 grid has 221
    # and 165; a coarse cell's box has 25 nodes)
    path = tmp_path / "guarded.cfg"
    path.write_text(TINY_GUARDED + f"source = {source}\n")
    g = GridPair(4, 3, 4)
    fine = {g.n_fine_nodes, g.n_interior_fine}

    def refuse(*args, **kwargs):
        raise AssertionError("global fine assembly")

    for module, name in ((fineassembly, "assemble_matrices"), (fineassembly, "BoxSum"),
                         (gmsfem, "BoxSum")):
        monkeypatch.setattr(module, name, refuse)
    shapes = []
    for owner in (sp._compressed._cs_matrix, sp._coo._coo_base):
        def recording(self, *args, _init=owner.__init__, **kwargs):
            _init(self, *args, **kwargs)
            shapes.append(self.shape)

        monkeypatch.setattr(owner, "__init__", recording)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out"),
                     "--dump-fields"]) == 0
    assert shapes and not [shape for shape in shapes if fine & set(shape)]
    assert (tmp_path / "out" / "field_split.txt").exists()


# --- runs and sweeps ---

def _field_interior(path, g):
    """The interior fine-grid vector of a field file (rows from y = max down)."""
    return fineassembly.read_grid_file(path)[::-1].ravel()[g.interior_fine_ids]


def test_run_example_writes_outputs(tmp_path, capsys):
    config = tiny_config(output_dir=str(tmp_path), dump_fields=True,
                         fine_reference=True)
    report = driver.run_example(config)
    out = capsys.readouterr().out
    assert "stability certificate: pass" in out
    assert "setting 1+2:" in out
    assert 0.0 < report.e_l2 < 1.0 and 0.0 < report.e_a < 1.0
    lines = (tmp_path / "errors.csv").read_text().splitlines()
    assert lines[0] == "setting,e_l2,e_a"
    label, e_l2, e_a = lines[1].split(",")
    assert label == "1+2"
    assert float(e_l2) == pytest.approx(report.e_l2, rel=1e-9)
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[0] == "t,e_a"
    assert len(history) == 1 + round(config.t_final / config.tau)
    # the fine reference against a dense backward Euler march of its own,
    # compared with the split field written to field_split.txt
    fs = driver.build_problem(config)
    g = fs.grid
    mass, stiff = (mat.toarray() for mat in fineassembly.assemble_matrices(fs))
    n_steps = round(config.t_final / config.tau)
    fine = dense_backward_euler(mass, stiff, space_load(g, fs.source), fs.source.time,
                                fs.initial_vector(), config.tau, n_steps)[-1]
    err = fine - _field_interior(tmp_path / "field_split.txt", g)
    want_l2 = np.sqrt(err @ mass @ err / (fine @ mass @ fine))
    want_a = np.sqrt(err @ stiff @ err / (fine @ stiff @ fine))
    assert report.meta["fine_e_l2"] == pytest.approx(want_l2, rel=1e-10)
    assert report.meta["fine_e_a"] == pytest.approx(want_a, rel=1e-10)
    for name in ("field_split.txt", "field_reference.txt"):
        interior = _field_interior(tmp_path / name, g)
        assert interior.shape == (15 * 15,)
        assert np.any(interior != 0.0)
    raw = fineassembly.read_grid_file(tmp_path / "field_split.txt")
    assert raw.shape == (17, 17)
    assert np.all(raw[0] == 0.0) and np.all(raw[:, -1] == 0.0)


@pytest.mark.parametrize("dump_fields, fine_reference",
                         [(False, False), (True, False), (False, True)])
def test_the_stepping_stage_holds_the_basis_only_to_reconstruct_a_field(
        tmp_path, monkeypatch, dump_fields, fine_reference):
    # only a fine field reconstructed from coarse coefficients reads the
    # offline basis: a run that writes none drops it once the coarse system
    # is projected, so it is gone when the split run starts; one that
    # dumps the fields keeps it and writes the fields of the final levels
    bases, alive, runs = [], [], []
    build, march = gmsfem.build_offline, splitting.march

    def recording(*args, **kwargs):
        basis = build(*args, **kwargs)
        bases.append(weakref.ref(basis))
        return basis

    def spy(*args, **kwargs):
        alive.append(bases[-1]() is not None)
        runs.append(march(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(gmsfem, "build_offline", recording)
    monkeypatch.setattr(splitting, "march", spy)
    config = tiny_config(output_dir=str(tmp_path / "run"), dump_fields=dump_fields,
                         fine_reference=fine_reference)
    with contextlib.redirect_stdout(io.StringIO()):
        driver.run_example(config)
    assert alive == [dump_fields or fine_reference]
    if dump_fields:
        pipe = driver.build_pipeline(config)
        field = gmsfem.reconstruct_fine(pipe.fs, pipe.prol, runs[-1].states[-1])
        fineassembly.write_field(tmp_path / "want.txt", pipe.fs.grid, field)
        assert ((tmp_path / "run" / "field_split.txt").read_bytes()
                == (tmp_path / "want.txt").read_bytes())


def test_run_example_deterministic(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    driver.run_example(tiny_config(output_dir=str(a_dir)))
    driver.run_example(tiny_config(output_dir=str(b_dir)))
    assert (a_dir / "errors.csv").read_bytes() == \
        (b_dir / "errors.csv").read_bytes()
    assert (a_dir / "history.csv").read_bytes() == \
        (b_dir / "history.csv").read_bytes()


def test_sweep_blocks_matches_single_run(tmp_path):
    config = tiny_config(output_dir=str(tmp_path / "sweep"),
                         blocks_sweep=((1, 2), (2, 1)))
    rows = driver.sweep(config, "blocks")
    assert [r[0] for r in rows] == ["1+2", "2+1"]
    single = driver.run_example(tiny_config(output_dir=str(tmp_path / "one")))
    assert rows[0][1] == pytest.approx(single.e_l2, rel=1e-12)
    assert rows[0][2] == pytest.approx(single.e_a, rel=1e-12)
    assert (tmp_path / "sweep" / "errors.csv").exists()
    assert (tmp_path / "sweep" / "history_1+2.csv").exists()
    assert (tmp_path / "sweep" / "history_2+1.csv").exists()


def test_blocks_sweep_makes_the_cell_products_once(tmp_path, monkeypatch):
    # the settings of a blocks sweep reorder one projection; each cell's
    # Galerkin blocks are made once, and every row has the bits of a run
    # built for that setting alone
    calls = []
    products = gmsfem._BasisCells.products

    def counting(self, cells):
        calls.append(len(cells))
        return products(self, cells)

    monkeypatch.setattr(gmsfem._BasisCells, "products", counting)
    config = tiny_config(source="pulsed-sine", output_dir=str(tmp_path / "sweep"),
                         blocks_sweep=((2, 1), (1, 1, 1), (1, 2)))
    rows = driver.sweep(config, "blocks")
    assert sum(calls) == config.nx_coarse * config.ny_coarse
    for (label, e_l2, e_a), blocks in zip(rows, config.blocks_sweep):
        out = tmp_path / label
        single = driver.run_example(dataclasses.replace(config, blocks=blocks,
                                                        output_dir=str(out)))
        assert (e_l2, e_a) == (single.e_l2, single.e_a), label
        assert (tmp_path / "sweep" / f"history_{label}.csv").read_bytes() == \
            (out / "history.csv").read_bytes()


def test_sweep_tau_snaps_and_labels(tmp_path, caplog):
    config = tiny_config(output_dir=str(tmp_path), tau_sweep=(0.05, 0.03))
    import logging
    with caplog.at_level(logging.WARNING, logger="msplit.driver"):
        rows = driver.sweep(config, "tau")
    assert rows[0][0] == f"{0.05:.6e}"
    snapped = driver._snap_tau(0.03, 0.2)
    assert rows[1][0] == f"{snapped:.6e}"
    assert any("snapped" in rec.message for rec in caplog.records)
    assert all(e_l2 is not None for _, e_l2, _ in rows)


def test_sweep_params_axis(tmp_path):
    config = tiny_config(output_dir=str(tmp_path))
    rows = driver.sweep(config, "params")
    assert [r[0] for r in rows] == ["theta_mass=1;theta_stiff=1",
                                    "theta_mass=1.5;theta_stiff=0.75"]
    named = tmp_path / "history_theta_mass=1.5_theta_stiff=0.75.csv"
    assert named.exists()


def test_sweep_params_axis_shares_one_reference(tmp_path, monkeypatch):
    calls = []
    euler = splitting.backward_euler

    def counted(*args):
        calls.append(args[1:])
        return euler(*args)

    monkeypatch.setattr(splitting, "backward_euler", counted)
    rows = driver.sweep(tiny_config(output_dir=str(tmp_path / "sweep")), "params")
    assert calls == [(0.05, 0.2)]
    single = driver.run_example(tiny_config(
        output_dir=str(tmp_path / "one"), theta_mass=1.5, theta_stiff=0.75))
    assert rows[1][1:] == (single.e_l2, single.e_a)


def test_tau_sweep_certifies_once_with_the_bytes_of_certifying_every_tau(tmp_path,
                                                                         monkeypatch):
    # neither condition depends on tau, so a five-tau sweep makes one
    # certificate and hands it to every split run; its files are byte for
    # byte those of a sweep whose runs each certify for themselves
    check, march, made = splitting.check_stability, splitting.march, []

    def counted(*args):
        made.append(args[1:])
        return check(*args)

    monkeypatch.setattr(splitting, "check_stability", counted)
    taus = (0.05, 0.04, 0.025, 0.02, 0.01)
    driver.sweep(tiny_config(output_dir=str(tmp_path / "once"), tau_sweep=taus), "tau")
    assert made == [(1.0, 1.0)]
    monkeypatch.setattr(splitting, "march",
                        lambda *args, certificate=None, **kwargs: march(*args, **kwargs))
    driver.sweep(tiny_config(output_dir=str(tmp_path / "every"), tau_sweep=taus), "tau")
    assert len(made) == 1 + len(taus)
    names = sorted(path.name for path in (tmp_path / "once").iterdir())
    assert len(names) == 1 + len(taus)
    assert names == sorted(path.name for path in (tmp_path / "every").iterdir())
    for name in names:
        assert (tmp_path / "once" / name).read_bytes() == (tmp_path / "every" / name).read_bytes()


def test_sweep_params_streams_every_setting_against_one_reference(tmp_path, monkeypatch):
    # one backward Euler run serves all four weight pairs, each split is
    # streamed against it, and every history file is byte for byte the one
    # of a split that kept every level, compared on full states
    euler, march, made, marched = splitting.backward_euler, splitting.march, [], []

    def recording_euler(*args):
        made.append(euler(*args))
        return made[-1]

    def recording_march(*args, **kwargs):
        marched.append((args, kwargs))
        return march(*args, **kwargs)

    monkeypatch.setattr(splitting, "backward_euler", recording_euler)
    monkeypatch.setattr(splitting, "march", recording_march)
    pairs = ((1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5))
    out = tmp_path / "sweep"
    rows = driver.sweep(tiny_config(output_dir=str(out), params_sweep=pairs), "params")
    assert len(made) == 1 and len(marched) == len(pairs) == len(rows)
    reference = made[0]
    for (label, _, _), (args, kwargs) in zip(rows, marched):
        assert sorted(kwargs) == ["certificate", "reference"]
        assert kwargs["reference"] is reference
        split = march(*args)
        assert split.states.shape[0] == reference.n_steps + 1
        want = tmp_path / "want.csv"
        driver._write_history_csv(want, driver.compare(reference, split, args[0]))
        got = out / f"history_{driver._sanitize(label)}.csv"
        assert got.read_bytes() == want.read_bytes()


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        driver.sweep(tiny_config(output_dir=str(tmp_path)), "everything")


@pytest.mark.parametrize("axis, key, text, label", [
    ("tau", "tau_sweep", "1e-3, 1.0004e-3", "1.000000e-03"),
    ("params", "params_sweep", "1,1; 1.0000001,1; 1,1", "theta_mass=1;theta_stiff=1"),
    ("blocks", "blocks_sweep", "1+2, 2+1, 1+2", "1+2"),
], ids=["tau", "params", "blocks"])
def test_sweep_rejects_settings_that_share_a_label(tmp_path, capsys, monkeypatch,
                                                   axis, key, text, label):
    # two taus that snap to one step, or two weights equal to 6 digits,
    # would write two rows of one label into errors.csv and one history file
    def refuse(config):
        raise AssertionError("the offline stage ran")

    monkeypatch.setattr(driver, "build_pipeline", refuse)
    path, out = tmp_path / "sweep.cfg", tmp_path / "out"
    path.write_text(TINY_TEXT.replace("tau = 0.05\nt_final = 0.2", "tau = 1e-3\nt_final = 0.02")
                    + f"{key} = {text}\n")
    assert cli.main(["sweep", str(path), "--axis", axis, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"settings labelled {label};" in err
    assert not out.exists()


def test_blocks_sweep_factors_c_once(tmp_path, factorizations):
    # every setting reorders the one projection and carries its
    # |g^|^2_{C^-1}: C is factored once, by project_coarse
    config = tiny_config(output_dir=str(tmp_path), blocks_sweep=((1, 2), (2, 1)))
    rows = driver.sweep(config, "blocks")
    assert all(e_l2 is not None for _, e_l2, _ in rows)
    assert factorizations.count("coarse mass") == 1


def test_sweep_default_blocks_axis_enumerates_pairs(tmp_path):
    config = tiny_config(output_dir=str(tmp_path))
    rows = driver.sweep(config, "blocks")
    assert [r[0] for r in rows] == ["1+2", "2+1"]


# --- command line ---

def test_cli_run_and_check_stability(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "setting 1+2:" in out
    assert (tmp_path / "out" / "errors.csv").exists()
    assert cli.main(["check-stability", str(path)]) == 0
    out = capsys.readouterr().out
    assert "stability certificate: pass" in out


def test_cli_offline_dump_roundtrip(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    dump = tmp_path / "basis.txt"
    code = cli.main(["offline", str(path), "--dump-basis", str(dump)])
    assert code == 0
    out = capsys.readouterr().out
    assert "coarse dofs: 27" in out
    assert re.search(r"^offline stage: \d+\.\d\d s \(assembly \d+\.\d\d s\)$",
                     out, re.MULTILINE)
    fs = driver.build_problem(driver.read_config(path))
    basis = gmsfem.build_offline(fs, 3)
    assert len(basis.nodes) == 9
    assert_basis_dump(dump, basis)


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", "no-such-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    bad = tmp_path / "bad.cfg"
    bad.write_text("modes = 0\n")
    assert cli.main(["run", str(bad)]) == 2
    capsys.readouterr()
    for tau, t_final in (("0.05", "inf"), ("1e-300", "1e10")):
        bad.write_text(TINY_TEXT.replace("tau = 0.05", f"tau = {tau}")
                       .replace("t_final = 0.2", f"t_final = {t_final}"))
        assert cli.main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err


@pytest.mark.parametrize("refine, modes", [(2, 9), (3, 17)])
def test_cli_more_modes_than_a_neighborhood_localizes_is_a_config_error(
        tmp_path, capsys, refine, modes):
    # 8 (r - 1) modes pass the offline stage (r = 2, 3, 4 on a 4 x 4
    # channels grid); one more degenerates its energy orthonormalization
    path = tmp_path / "modes.cfg"
    path.write_text(f"nx_coarse = 4\nny_coarse = 4\nrefine = {refine}\nkappa = channels\n"
                    f"modes = {modes}\nblocks = 1+{modes - 1}\n")
    assert cli.main(["offline", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"8 (refine - 1) = {modes - 1}" in err


def test_cli_more_coarse_than_fine_dofs_is_a_config_error(tmp_path, capsys):
    # 7 <= 8 (r - 1) modes on 4 x 4 cells with r = 2 make 9 * 7 = 63 coarse
    # columns for 49 fine dofs, so C is singular before any work is done
    path = tmp_path / "modes.cfg"
    path.write_text("nx_coarse = 4\nny_coarse = 4\nrefine = 2\nkappa = channels\n"
                    "modes = 7\nblocks = 1+6\n")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "63 coarse dofs" in err and "49 fine dofs" in err
    assert not (tmp_path / "out").exists()


def test_cli_a_singular_coarse_mass_near_the_mode_bound_exits_3(tmp_path, capsys):
    # 5 modes on a 4 x 4 constant grid with r = 2 pass validation (45 coarse
    # columns for 49 fine dofs) and the offline stage, but the projected C is
    # numerically singular: project_coarse's one factorization of C refuses it
    path = tmp_path / "modes.cfg"
    path.write_text("nx_coarse = 4\nny_coarse = 4\nrefine = 2\nkappa = constant\n"
                    "modes = 5\nblocks = 1+4\n")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "coarse system is not positive definite (near-dependent basis)" in err
    assert re.search(r"factorization of coarse mass met the pivot -\d\.\d{3}e-\d\d", err)


def test_cli_a_reference_decayed_to_round_off_exits_3(tmp_path, capsys):
    # with no source the coarse reference falls from 3.3e-6 after one step
    # to 4.6e-40 in 50; the split, whose stiff modes damp more weakly, does
    # not, so its relative error would measure round-off (it read 8.1e12)
    path = tmp_path / "decay.cfg"
    path.write_text("nx_coarse = 4\nny_coarse = 4\nrefine = 4\nkappa = channels\n"
                    "modes = 3\nblocks = 1+2\ntau = 4e-4\nsource = zero\nt_final = 0.02\n")
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    match = re.search(r"numerical failure: reference field vanishes at the final time: "
                      r"\|z_ref\^N\|_C = (\S+) against \|z_ref\^1\|_C = (\S+)$", err.strip())
    assert match, err
    final, first = (float(v) for v in match.groups())
    assert 0.0 < final <= 1e-12 * first
    assert not (tmp_path / "out" / "errors.csv").exists()


def test_cli_an_overflowing_run_exits_3_without_a_numpy_warning(tmp_path):
    # the certificate fails (theta_mass 0.3), the run goes on without the
    # energy monitor and its state grows until it overflows at step 517; the
    # error history's forms overflow first, silently, and the run ends with
    # its one failure line
    path = tmp_path / "overflow.cfg"
    path.write_text("nx_coarse = 2\nny_coarse = 5\nrefine = 2\nkappa = constant\n"
                    "modes = 4\nblocks = 2+2\ntheta_mass = 0.3\ntheta_stiff = 1.5\n"
                    "tau = 2.5e-4\nt_final = 0.25\n")
    env = dict(os.environ, PYTHONWARNINGS="always")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "msplit", "run", str(path), "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure: non-finite state at step 517" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_cli_permeability_out_of_range_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    raster = tmp_path / "kappa.txt"
    use_raster = f"kappa = raster\nkappa_path = {raster}\n"
    for lines, raster_text, needle in (
            ("kappa = constant\nkappa_value = -1\n", "", "kappa_value"),
            ("kappa = channels\nkappa_contrast = 0\n", "", "kappa_contrast"),
            (use_raster, "2 2\n1 2\n3 -4\n", "non-positive"),
            (use_raster, "2\n1 2 3 4\n", "header")):
        raster.write_text(raster_text)
        path.write_text(TINY_TEXT + lines)
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and needle in err


@st.composite
def small_configs(draw):
    """Config text on 2-4 coarse cells a side, r 2-3 and at most 20 steps."""
    refine = draw(st.integers(2, 3))
    modes = draw(st.integers(1, 8 * (refine - 1) + 1))
    cuts = sorted(draw(st.sets(st.integers(1, modes - 1), max_size=2))) if modes > 1 else []
    tau, steps = draw(st.sampled_from([1e-3, 4e-3, 0.02, 0.05])), draw(st.integers(1, 20))
    keys = dict(
        nx_coarse=draw(st.integers(2, 4)), ny_coarse=draw(st.integers(2, 4)), refine=refine,
        modes=modes, blocks="+".join(str(b - a) for a, b in zip([0, *cuts], [*cuts, modes])),
        kappa=draw(st.sampled_from(["periodic", "constant", "channels"])),
        source=draw(st.sampled_from(["exp-radial", "pulsed-sine", "constant", "zero"])),
        initial=draw(st.sampled_from(["sine", "zero"])),
        theta_mass=draw(st.floats(0.3, 3.0)), theta_stiff=draw(st.floats(0.3, 3.0)),
        tau=tau, t_final=steps * tau)
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=small_configs(), command=st.sampled_from(["run", "check-stability"]))
def test_cli_exit_contract_under_a_config_fuzz(text, command):
    # every small config ends in exit 0, 2 or 3; a failure ends in its own
    # one-line diagnosis, never a traceback, and a certified run's errors are
    # finite
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            fh.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            argv = [command, path] + (["--output", out] if command == "run" else [])
            code = cli.main(argv)
        assert code in (0, 2, 3), text
        err = stderr.getvalue()
        assert "Traceback" not in err
        if code:
            last = err.strip().splitlines()[-1]
            assert last.startswith("config error:" if code == 2 else "numerical failure:")
        elif command == "run" and "stability certificate: pass" in stdout.getvalue():
            with open(os.path.join(out, "errors.csv")) as fh:
                row = fh.read().splitlines()[1].split(",")
            assert np.isfinite([float(v) for v in row[1:]]).all(), text


def test_cli_negative_kappa_seed_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "seed.cfg"
    path.write_text(TINY_TEXT + "kappa = channels\nkappa_seed = -1\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "kappa_seed" in err


def test_fine_reference_guards_every_solve(tiny_pipe, monkeypatch):
    split = splitting.backward_euler(tiny_pipe.coarse, 0.05, 0.2)
    # an exactly zero first right-hand side passes the residual guard
    fs = dataclasses.replace(
        tiny_pipe.fs, initial=None,
        source=fineassembly.Source(lambda x, y: np.ones_like(x), lambda t: 1.0 * (t > 0.06)))
    errors = driver._fine_reference_errors(
        dataclasses.replace(tiny_pipe, fs=fs), split)
    assert all(np.isfinite(v) and v > 0.0 for v in errors.values())
    solve = linalg.SparseCholesky.solve
    monkeypatch.setattr(linalg.SparseCholesky, "solve",
                        lambda self, rhs: solve(self, rhs) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match="fine reference step 1: solve residual"):
        driver._fine_reference_errors(tiny_pipe, split)


def test_fine_reference_loads_a_pulsed_source_once(tiny_pipe, monkeypatch):
    # the profile is loaded once a run, or not at all without a source, and
    # each step scales that load by the coarse system's a(t); the errors are
    # those of a dense march that loads f(t, x, y)
    config = tiny_pipe.config
    fs = dataclasses.replace(
        tiny_pipe.fs, source=driver._resolve_source(tiny_config(source="pulsed-sine")))
    pipe = dataclasses.replace(tiny_pipe, fs=fs, coarse=gmsfem.project_coarse(fs, tiny_pipe.prol))
    split = splitting.backward_euler(pipe.coarse, config.tau, config.t_final)
    box_loads, calls = fineassembly.box_loads, []
    monkeypatch.setattr(fineassembly, "box_loads",
                        lambda *args: calls.append(args) or box_loads(*args))
    errors = driver._fine_reference_errors(pipe, split)
    assert len(calls) == 1
    calls.clear()
    unforced_fs = dataclasses.replace(fs, source=None)
    unforced = dataclasses.replace(pipe, fs=unforced_fs,
                                   coarse=gmsfem.project_coarse(unforced_fs, pipe.prol))
    assert all(np.isfinite(v) for v in driver._fine_reference_errors(unforced, split).values())
    assert calls == []
    mass, stiff = (mat.toarray() for mat in fineassembly.assemble_matrices(fs))
    n_steps = round(config.t_final / config.tau)
    fine = dense_backward_euler(mass, stiff, space_load(fs.grid, fs.source), fs.source.time,
                                fs.initial_vector(), config.tau, n_steps)[-1]
    err = fine - gmsfem.reconstruct_fine(fs, pipe.prol, split.states[-1])
    assert errors["fine_e_l2"] == pytest.approx(
        np.sqrt(err @ mass @ err / (fine @ mass @ fine)), rel=1e-10)
    assert errors["fine_e_a"] == pytest.approx(
        np.sqrt(err @ stiff @ err / (fine @ stiff @ fine)), rel=1e-10)


def test_cli_rejects_the_removed_threads_knob(tmp_path, capsys):
    # the offline stage is serial, the split has one rule, the basis is
    # always energy-orthonormalized and the start vector is always the
    # moments: a config key or flag for threads, or a key for a split
    # variant, the orthonormalization or the start vector, is an error
    path = tmp_path / "exp.cfg"
    for key, line in (("threads", "threads = 2"),
                      ("variant", "variant = lower-triangular"),
                      ("orthonormalize", "orthonormalize = off"),
                      ("initial_vector", "initial_vector = projection")):
        path.write_text(TINY_TEXT + line + "\n")
        assert cli.main(["run", str(path)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
    path.write_text(TINY_TEXT)
    for command in (["run"], ["sweep", "--axis", "tau"], ["offline"],
                    ["check-stability"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(command + [str(path), "--threads", "2"])
        assert exc.value.code == 2


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)

    def boom(config):
        raise NumericalError("fabricated blow-up")

    monkeypatch.setattr(cli.driver, "run_example", boom)
    assert cli.main(["run", str(path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def _violated_bound_for(monkeypatch, theta_mass):
    """Make the energy monitor report a failed bound for one mass weight."""
    monitor = splitting._energy_monitor

    def violated(config, *args):
        energy, lhs, rhs = monitor(config, *args)
        if config.theta_mass == theta_mass:
            lhs = rhs + 1.0
        return energy, lhs, rhs

    monkeypatch.setattr(splitting, "_energy_monitor", violated)


def test_cli_failed_bound_exit_code(tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    _violated_bound_for(monkeypatch, 1.0)
    assert cli.main(["run", str(path), "--output", str(tmp_path / "out")]) == 3
    assert "a priori bound fails at step" in capsys.readouterr().err


def _refuse_fine_assembly(monkeypatch):
    """Fail the test if any command gets as far as fine assembly."""
    def refused(config):
        raise AssertionError("fine assembly ran")

    monkeypatch.setattr(driver, "build_problem", refused)


@pytest.mark.parametrize("command", [["run"], ["sweep", "--axis", "tau"]],
                         ids=["run", "sweep"])
def test_cli_output_that_is_a_file_exits_2_before_any_work(tmp_path, monkeypatch,
                                                           capsys, command):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    taken = tmp_path / "taken"
    taken.write_text("")
    _refuse_fine_assembly(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(command + [str(path), "--output", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(taken) in err
    assert not list(tmp_path.rglob("errors.csv"))


def test_cli_offline_dump_into_a_missing_directory_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT)
    dump = tmp_path / "missing" / "b.txt"
    _refuse_fine_assembly(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["offline", str(path), "--dump-basis", str(dump)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(dump) in err
    assert not dump.parent.exists()
    assert not list(tmp_path.rglob("errors.csv"))
    assert cli.main(["offline", str(path), "--dump-basis", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


# each axis with no settings: an empty list, or one mode with no two-block split
EMPTY_SWEEPS = {
    "tau": TINY_TEXT + "tau_sweep =\n",
    "params": TINY_TEXT + "params_sweep =\n",
    "blocks": TINY_TEXT.replace("modes = 3", "modes = 1").replace("1+2", "1"),
}


@pytest.mark.parametrize("axis", sorted(EMPTY_SWEEPS))
def test_cli_sweep_with_no_settings_exits_2_before_any_work(tmp_path, monkeypatch,
                                                            capsys, axis):
    path = tmp_path / "exp.cfg"
    path.write_text(EMPTY_SWEEPS[axis])
    _refuse_fine_assembly(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--axis", axis, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{axis}_sweep" in err
    assert not (out / "errors.csv").exists()


def test_sweep_marks_a_failed_bound_and_goes_on(tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT + "params_sweep = 1,1; 1.5,1.5\n")
    _violated_bound_for(monkeypatch, 1.0)
    out = tmp_path / "out"
    assert cli.main(["sweep", str(path), "--axis", "params",
                     "--output", str(out)]) == 0
    assert "a priori bound fails" in capsys.readouterr().out
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[1] == "theta_mass=1;theta_stiff=1,error,error"
    assert re.fullmatch(r"theta_mass=1\.5;theta_stiff=1\.5,[0-9.e+-]+,[0-9.e+-]+",
                        lines[2])
    assert (out / "history_theta_mass=1.5_theta_stiff=1.5.csv").exists()


def test_cli_sweep_subprocess(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_TEXT + "blocks_sweep = 1+2\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "msplit", "sweep", str(path), "--axis",
         "blocks", "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "setting 1+2:" in proc.stdout
    assert re.search(r"^offline stage: \d+\.\d\d s \(assembly \d+\.\d\d s\)$",
                     proc.stdout, re.MULTILINE)
    assert (tmp_path / "out" / "errors.csv").exists()
