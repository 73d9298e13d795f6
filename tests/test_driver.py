"""Experiment driver: configs, problem builders, runs, sweeps, CLI."""

import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from msplit import cli, driver, fineassembly, gmsfem, splitting
from msplit.driver import ConfigError, ExperimentConfig
from msplit.grid import build_grids
from msplit.linalg import NumericalError


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
orthonormalize = off
tau_sweep = 0.05, 0.025
params_sweep = 1,1; 1.5,0.75
blocks_sweep = 1+2, 2+1
initial_vector = projection
"""
    config = driver.parse_config(text)
    assert config.nx_coarse == 4
    assert config.blocks == (1, 2)
    assert config.theta_mass == 1.5
    assert config.orthonormalize is False
    assert config.tau_sweep == (0.05, 0.025)
    assert config.params_sweep == ((1.0, 1.0), (1.5, 0.75))
    assert config.blocks_sweep == ((1, 2), (2, 1))
    assert config.initial_vector == "projection"


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
    (dict(initial_vector="l2"), "unknown initial_vector"),
    (dict(refine=1), "refinement factor"),
    (dict(theta_mass=0.0), "weights must be positive"),
    (dict(blocks_sweep=((1, 1),)), "blocks_sweep"),
    (dict(nx_coarse=1), "at least 2 coarse cells"),
    (dict(tau_sweep=(0.05, -0.01)), "tau_sweep"),
    (dict(params_sweep=((1.0, 0.0),)), "params_sweep"),
])
def test_config_validation_errors(overrides, needle):
    with pytest.raises(ConfigError, match=needle):
        tiny_config(**overrides)


# --- built-in fields and formulas ---

def test_builtin_field_formulas():
    assert driver._kappa_periodic(0.0, 0.0) == pytest.approx(2.0 / 2.4)
    assert driver._source_exp_radial(0.0, 0.5, 0.5) == pytest.approx(1.0)
    assert driver._source_exp_radial(9.0, 0.0, 0.0) == pytest.approx(
        math.exp(0.5))
    assert driver._source_pulsed_sine(0.5, 0.5, 0.5) == pytest.approx(2.0)
    assert driver._initial_sine(0.5, 0.5) == pytest.approx(1.0)


def test_source_time_dependence_flags():
    static = driver._resolve_source(tiny_config(source="exp-radial"))
    assert static.time_dependent is False
    pulsed = driver._resolve_source(tiny_config(source="pulsed-sine"))
    assert pulsed.time_dependent is True
    assert driver._resolve_source(tiny_config(source="zero")) is None
    const = driver._resolve_source(tiny_config(source="constant",
                                               source_value=3.5))
    assert np.allclose(const(0.0, np.array([0.2, 0.8]), np.array([0.1, 0.9])),
                       3.5)


def test_synthetic_channels_deterministic_and_binary():
    g = build_grids(4, 4, 4)
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
    n_nb = len(pipe.basis.nodes)
    assert n_nb == 9
    assert pipe.prol.n_columns == 3 * n_nb
    assert pipe.coarse.block_sizes == (n_nb, 2 * n_nb)
    assert pipe.coarse.dim == pipe.prol.n_columns


def test_reconstruct_fine_matches_parts(tiny_pipe):
    pipe = tiny_pipe
    rng = np.random.default_rng(2)
    z = rng.standard_normal(pipe.prol.n_columns)
    want = np.zeros(pipe.fs.n_dof)
    n_nb = len(pipe.basis.nodes)
    mode = 0
    for b, sl in zip(pipe.prol.block_sizes, pipe.coarse.slices()):
        coeffs = z[sl].reshape(n_nb, b)
        for i, sup in enumerate(pipe.basis.supports):
            want[sup] += pipe.basis.vectors[i][:, mode:mode + b] @ coeffs[i]
        mode += b
    assert np.allclose(driver.reconstruct_fine(pipe.prol, z), want, atol=1e-14)
    with pytest.raises(ValueError, match="coefficients"):
        driver.reconstruct_fine(pipe.prol, z[:-1])


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
    report = driver.compare(euler, euler, pipe.prol, pipe.fs, pipe.coarse.stiff)
    assert report.e_l2 == 0.0 and report.e_a == 0.0
    assert np.all(report.history_values == 0.0)
    assert len(report.history_times) == euler.n_steps
    other = splitting.backward_euler(pipe.coarse, 0.1, 0.2)
    with pytest.raises(ValueError, match="time grid"):
        driver.compare(euler, other, pipe.prol, pipe.fs, pipe.coarse.stiff)


# --- runs and sweeps ---

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
    assert math.isfinite(report.meta["fine_e_l2"])
    assert report.meta["fine_e_a"] > 0.0
    g = build_grids(4, 4, 4)
    for name in ("field_split.txt", "field_reference.txt"):
        interior = fineassembly.read_field(tmp_path / name, g)
        assert interior.shape == (15 * 15,)
        assert np.any(interior != 0.0)
    raw = fineassembly.read_grid_file(tmp_path / "field_split.txt")
    assert raw.shape == (17, 17)
    assert np.all(raw[0] == 0.0) and np.all(raw[:, -1] == 0.0)


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


def test_sweep_rejects_unknown_axis(tmp_path):
    with pytest.raises(ConfigError, match="unknown sweep axis"):
        driver.sweep(tiny_config(output_dir=str(tmp_path)), "everything")


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
    basis = gmsfem.load_basis(dump)
    assert basis.n_modes == 3
    assert len(basis.nodes) == 9


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", "no-such-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    bad = tmp_path / "bad.cfg"
    bad.write_text("modes = 0\n")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_rejects_the_removed_threads_knob(tmp_path, capsys):
    # the offline stage is serial and the split has one rule: a config key
    # or flag for threads, or a key for a split variant, is an error
    path = tmp_path / "exp.cfg"
    for key, line in (("threads", "threads = 2"),
                      ("variant", "variant = lower-triangular")):
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
