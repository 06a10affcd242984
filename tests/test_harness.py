"""Config, checkpoint, and command-line harness tests."""

import csv
import dataclasses
import importlib
import json
import math
import pkgutil
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import benard_da
from benard_da.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    save_checkpoint,
)
from benard_da import assimilation, cli
from benard_da.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
)
from benard_da.config import ConfigError, RunConfig, dumps, load, parse, save
from benard_da.model import PhysicalParams, State
from benard_da.spectral import SIN, Grid, random_scalar, random_solenoidal
from benard_da.stepping import History, StepperConfig, integrate, step
from benard_da.assimilation import spin_up


def small_config(**overrides) -> RunConfig:
    kw = dict(
        nx=32,
        ny=16,
        mu=40.0,
        h=0.2,
        dt=2e-3,
        spinup_time=0.5,
        run_time=0.5,
        sample_cadence=5,
        seed=3,
    )
    kw.update(overrides)
    return RunConfig(**kw)


# keys a config file once took; each is now unknown, at any value
REMOVED_KEYS = ["cfl_target = 0.5", "dealias_fraction = 0.6666666666666666"]


def config_text(cfg: RunConfig, **values) -> str:
    """Config text of cfg with the given keys set to values that the
    RunConfig constructor would refuse, so that only a command meets them."""
    text = dumps(cfg)
    for key, value in values.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1
    return text


class TestConfig:
    def test_round_trip_unchanged(self):
        cfg = small_config(sweep_mu=(10.0, 20.0), epsilon=0.4, output_dir="my runs/a=b")
        assert parse(dumps(cfg)) == cfg

    def test_defaults_applied_for_missing_keys(self):
        cfg = parse("nu = 0.1\n")
        assert cfg.nu == 0.1
        assert cfg.kappa == RunConfig().kappa
        assert cfg.sweep_mu == ()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse("# a comment\n\nnu = 0.1  # trailing\n")
        assert cfg.nu == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse("viscosity = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse("nu = 0.1\nnu = 0.2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse("nu 0.1\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse("nu = fast\n")

    def test_non_integer_rejected(self):
        for text in ("32.5", "32.0", "1e3", "inf", "nan", "1e400"):
            with pytest.raises(ConfigError, match="nx must be an integer"):
                parse(f"nx = {text}\n")

    def test_seventeen_digit_seed_round_trips(self):
        seed = 12345678901234567  # not a float: the nearest one ends in 568
        assert parse(f"seed = {seed}\n").seed == seed
        cfg = small_config(seed=seed)
        assert parse(dumps(cfg)) == cfg

    @pytest.mark.parametrize("seed", [-1, 2**63], ids=["negative", "2**63"])
    def test_seed_outside_checkpoint_range_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            parse(f"seed = {seed}\n")
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=seed)

    def test_largest_seed_round_trips(self, tmp_path):
        seed = 2**63 - 1
        cfg = small_config(
            nx=8, ny=8, spinup_time=0.01, seed=seed, output_dir=str(tmp_path)
        )
        assert parse(dumps(cfg)) == cfg
        path = tmp_path / "run.cfg"
        save(cfg, path)
        assert main(["spinup", "--config", str(path)]) == EXIT_OK
        assert load_checkpoint(tmp_path / "truth.ckpt").seed == seed

    @pytest.mark.parametrize(
        "value",
        ["runs#1", " runs", "runs ", "runs\nnu = 5", "runs\rnu = 5"],
        ids=["hash", "leading-space", "trailing-space", "newline", "carriage-return"],
    )
    def test_value_that_would_parse_back_differently_refused(self, value):
        # "#" starts a comment, values are stripped and a line break injects
        # another line, so each would read back as another config
        with pytest.raises(ConfigError, match="output_dir"):
            dumps(small_config(output_dir=value))

    @pytest.mark.parametrize("key", ["sweep_mu", "sweep_h"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_entry_rejected(self, key, bad):
        with pytest.raises(ConfigError, match=f"{key} entries must be finite"):
            parse(f"{key} = 0.5,{bad}\n")
        with pytest.raises(ConfigError, match=key):
            small_config(**{key: (0.5, float(bad))})

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="interpolant_kind"):
            parse("interpolant_kind = fourier\n")

    def test_file_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "run.cfg"
        save(cfg, path)
        assert load(path) == cfg

    def test_readme_table_lists_every_field(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        keys = [
            key.strip().strip("`")
            for line in section.splitlines()
            if line.startswith("| `")
            for key in line.split("|")[1].split(",")
        ]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))

    def test_materializers_agree(self):
        cfg = small_config()
        assert cfg.grid() == Grid(cfg.L, cfg.nx, cfg.ny)
        assert cfg.physical_params().mu == cfg.mu
        tc = cfg.twin_config()
        assert tc.spec.h == cfg.h
        assert tc.stepper.dt == cfg.dt


def damaged(blob: bytes, how: str) -> bytes:
    """A checkpoint's bytes with one defect: a foreign magic, a cut inside
    the header, another format version, an nx that is no power of two, a
    cut inside the coefficients, or a nan time (header bytes 52-60) or
    coefficient (the real part of u1's 41st)."""
    nan = struct.pack("<d", math.nan)
    return {
        "magic": b"garbage-" + blob[8:],
        "header": blob[:40],
        "version": blob[:8] + struct.pack("<I", VERSION + 1) + blob[12:],
        "grid": blob[:12] + struct.pack("<I", 24) + blob[16:],
        "length": blob[: len(blob) // 2],
        "nan-time": blob[:52] + nan + blob[60:],
        "nan-coefficient": blob[: 69 + 640] + nan + blob[69 + 648 :],
    }[how]


class TestCheckpoint:
    def make_state(self, with_time=0.75):
        grid = Grid(2.0, 16, 8)
        rng = np.random.default_rng(9)
        return State(
            random_solenoidal(grid, rng, norm=0.3),
            random_scalar(grid, rng, SIN, norm=0.2),
            with_time,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        s = self.make_state()
        p = PhysicalParams(nu=0.04, kappa=0.02, mu=17.0)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, s, p, seed=42)
        ck = load_checkpoint(path)
        assert ck.params == p
        assert ck.seed == 42
        assert ck.state.time == s.time
        assert np.array_equal(ck.state.velocity.u1.coeffs, s.velocity.u1.coeffs)
        assert np.array_equal(ck.state.velocity.u2.coeffs, s.velocity.u2.coeffs)
        assert np.array_equal(ck.state.temperature.coeffs, s.temperature.coeffs)
        assert ck.state.grid == s.grid
        assert ck.history is None

    def test_history_trailer_round_trips(self, tmp_path):
        s = self.make_state()
        p = PhysicalParams(nu=0.04, kappa=0.02)
        rng = np.random.default_rng(4)
        shape = (3,) + s.grid.coeff_shape
        hist = History(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape), dt=1.5e-3
        )
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, s, p, seed=0, history=hist)
        ck = load_checkpoint(path)
        assert ck.history is not None
        assert ck.history.dt == hist.dt
        assert np.array_equal(ck.history.tendencies, hist.tendencies)
        assert not ck.history.tendencies.flags.writeable

    def test_state_with_passengers_refused(self, tmp_path):
        s = self.make_state()
        rider = State(s.velocity, s.temperature, s.time, passengers=(s.temperature,))
        path = tmp_path / "s.ckpt"
        with pytest.raises(ValueError, match="no passengers"):
            save_checkpoint(path, rider, PhysicalParams(nu=0.04, kappa=0.02), seed=0)
        assert not path.exists()

    @pytest.mark.parametrize("version", [VERSION - 2, VERSION - 1, VERSION + 1])
    def test_version_mismatch_rejected(self, tmp_path, version):
        # version 2 held h and version 3 the dealias fraction in the
        # header; the message names both versions
        s = self.make_state()
        p = PhysicalParams(nu=0.04, kappa=0.02)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, s, p, seed=0)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", version)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"version {version}, expected {VERSION}"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"PNG\x0d\x0a" + b"\x00" * 200)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        s = self.make_state()
        p = PhysicalParams(nu=0.04, kappa=0.02)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, s, p, seed=0)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["magic", "header", "version", "grid", "length"])
    def test_every_refusal_names_the_file(self, tmp_path, damage):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self.make_state(), PhysicalParams(nu=0.04, kappa=0.02), 0)
        path.write_bytes(damaged(path.read_bytes(), damage))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_history_flag_other_than_0_or_1_refused(self, tmp_path, flag):
        # the flag is the header's last byte; a with-history file keeps its
        # length, so only the flag check can refuse it
        path = tmp_path / "s.ckpt"
        state, p = self.make_state(), PhysicalParams(nu=0.04, kappa=0.02)
        _, hist = step(state, p, StepperConfig(dt=0.01))
        save_checkpoint(path, state, p, seed=0, history=hist)
        blob = bytearray(path.read_bytes())
        assert blob[68] == 1
        blob[68] = flag
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ValueError, match=f"checkpoint {re.escape(str(path))}: history flag {flag}$"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, tmp_path, time):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self.make_state(time), PhysicalParams(nu=0.04, kappa=0.02), 0)
        with pytest.raises(
            ValueError, match=f"checkpoint {re.escape(str(path))}: time {time} is not finite"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("array", [0, 2, 3], ids=["u1", "theta", "history"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficient_refused(self, tmp_path, array, value):
        # the real part of one coefficient in the middle of the array
        path = tmp_path / "s.ckpt"
        state, p = self.make_state(), PhysicalParams(nu=0.04, kappa=0.02)
        _, hist = step(state, p, StepperConfig(dt=0.01))
        save_checkpoint(path, state, p, seed=0, history=hist)
        blob = bytearray(path.read_bytes())
        nbytes = 16 * np.prod(state.grid.coeff_shape)
        struct.pack_into("<d", blob, 69 + array * nbytes + 16 * 40, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(
            ValueError, match=f"checkpoint {re.escape(str(path))}: holds non-finite"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("hdt", [0.0, -0.01, math.nan, math.inf])
    def test_history_dt_not_positive_and_finite_refused(self, tmp_path, hdt):
        # the history's dt is the file's last 8 bytes
        path = tmp_path / "s.ckpt"
        state, p = self.make_state(), PhysicalParams(nu=0.04, kappa=0.02)
        _, hist = step(state, p, StepperConfig(dt=0.01))
        save_checkpoint(path, state, p, seed=0, history=hist)
        path.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", hdt))
        with pytest.raises(
            ValueError,
            match=f"checkpoint {re.escape(str(path))}: history dt {hdt} is not positive",
        ):
            load_checkpoint(path)

    def test_magic_is_stable(self):
        assert MAGIC == b"BENARDDA"
        assert VERSION == 4

    def test_version_3_file_refused_naming_it(self, tmp_path):
        # version 3 headers held the dealias fraction between ny and L
        s = self.make_state()
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, s, PhysicalParams(nu=0.04, kappa=0.02), seed=0)
        blob = path.read_bytes()
        nx, ny, *rest = struct.unpack_from("<II5dqB", blob, 12)
        older = struct.pack("<8sIII6dqB", MAGIC, 3, nx, ny, 2.0 / 3.0, *rest)
        path.write_bytes(older + blob[69:])
        with pytest.raises(
            ValueError, match=f"checkpoint {re.escape(str(path))}: format version 3, expected 4"
        ):
            load_checkpoint(path)


class TestSpinupCommand:
    def test_subcritical_settles_to_conduction(self, tmp_path, capsys):
        cfg = small_config(
            nu=0.25, kappa=0.25, spinup_time=8.0, output_dir=str(tmp_path)
        )
        path = tmp_path / "run.cfg"
        save(cfg, path)
        assert main(["spinup", "--config", str(path)]) == EXIT_OK
        ck = load_checkpoint(tmp_path / "truth.ckpt")
        from benard_da.spectral import norm_h

        assert norm_h(ck.state.velocity) + norm_h(ck.state.temperature) < 1e-8
        out = capsys.readouterr().out
        assert "|u|_V" in out and "K3=" in out

    def test_same_seed_reproduces_checkpoint_bytes(self, tmp_path):
        for sub in ("a", "b"):
            cfg = small_config(output_dir=str(tmp_path / sub))
            p = tmp_path / f"{sub}.cfg"
            save(cfg, p)
            assert main(["spinup", "--config", str(p)]) == EXIT_OK
        assert (tmp_path / "a/truth.ckpt").read_bytes() == (
            tmp_path / "b/truth.ckpt"
        ).read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(dt=np.inf),
            dict(spinup_time=np.inf),
            dict(spinup_time=0.0031, dt=1e-3),
        ],
        ids=["dt=inf", "spinup_time=inf", "partial-step"],
    )
    def test_bad_step_or_length_exits_2_without_checkpoint(self, tmp_path, overrides):
        out = tmp_path / "out"
        p = tmp_path / "run.cfg"
        p.write_text(config_text(small_config(output_dir=str(out)), **overrides))
        assert main(["spinup", "--config", str(p)]) == EXIT_CONFIG
        # not even an empty output directory is left behind
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spinup", "check-conditions"])
    def test_infinite_length_exits_2_naming_L(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        p = tmp_path / "run.cfg"
        cfg = small_config(nx=8, ny=8, spinup_time=0.01, output_dir=str(out))
        p.write_text(config_text(cfg, L=np.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(p)]) == EXIT_CONFIG
        assert "L must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**63)], ids=["negative", "2**63"])
    def test_seed_override_refused_before_any_step(self, tmp_path, monkeypatch, seed):
        def no_spin_up(*args, **kwargs):
            raise AssertionError("spun up before refusing the seed")

        monkeypatch.setattr(cli, "spin_up", no_spin_up)
        out = tmp_path / "out"
        argv = ["spinup", "--seed", seed, "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()

    def test_reload_continues_bit_exactly(self, tmp_path):
        cfg = small_config(spinup_time=0.5)
        params = cfg.physical_params()
        stepper = cfg.stepper()
        grid = cfg.grid()

        half, hist = spin_up(params, grid, stepper, 0.5, seed=cfg.seed)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half, params, cfg.seed, history=hist)
        ck = load_checkpoint(path)
        resumed, _ = integrate(
            ck.state, ck.params, stepper, 1.0, history=ck.history
        )
        straight, _ = spin_up(params, grid, stepper, 1.0, seed=cfg.seed)
        assert np.array_equal(
            resumed.velocity.u1.coeffs, straight.velocity.u1.coeffs
        )
        assert np.array_equal(
            resumed.velocity.u2.coeffs, straight.velocity.u2.coeffs
        )
        assert np.array_equal(
            resumed.temperature.coeffs, straight.temperature.coeffs
        )


@pytest.fixture(scope="module")
def twin_workspace(tmp_path_factory):
    """One spinup checkpoint shared by the twin/sweep command tests."""
    root = tmp_path_factory.mktemp("twin_ws")
    cfg = small_config(spinup_time=2.0, output_dir=str(root))
    cfg_path = root / "run.cfg"
    save(cfg, cfg_path)
    assert main(["spinup", "--config", str(cfg_path)]) == EXIT_OK
    return root, cfg_path, root / "truth.ckpt"


class TestTwinCommand:
    def test_outputs_and_manifest(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        out = tmp_path / "run1"
        assert (
            main(["twin", "--config", str(cfg_path), "--out", str(out), str(ckpt)])
            == EXIT_OK
        )
        with (out / "errors.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "w_H", "w_V", "xi_H", "xi_V"]
        assert len(rows) == 1 + int(round(0.5 / 2e-3)) // 5 + 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["fit"]["rate"] is not None
        assert "mu_min_type1" in manifest["thresholds"]
        assert manifest["thresholds"]["mu_satisfies_type1"] in (True, False)
        assert manifest["k3_measured"] > 0
        assert manifest["config"]["mu"] == 40.0

    def test_csv_bytes_reproducible(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert (
                main(
                    ["twin", "--config", str(cfg_path), "--out", str(out), str(ckpt)]
                )
                == EXIT_OK
            )
            blobs.append((out / "errors.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_synchronized_start_gives_flat_columns(self, twin_workspace, tmp_path):
        # perturbed-truth with epsilon 0 starts the twin exactly on the truth
        root, cfg_path, ckpt = twin_workspace
        cfg = small_config(
            v0_policy="perturbed-truth",
            eta0_policy="perturbed-truth",
            epsilon=0.0,
            output_dir=str(tmp_path),
        )
        p = tmp_path / "sync.cfg"
        save(cfg, p)
        assert main(["twin", "--config", str(p), str(ckpt)]) == EXIT_OK
        data = np.genfromtxt(tmp_path / "errors.csv", delimiter=",", names=True)
        assert np.all(data["w_H"] < 1e-10)
        assert np.all(data["xi_H"] < 1e-10)

    def test_grid_mismatch_is_config_error(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        cfg = small_config(nx=64, output_dir=str(tmp_path))
        p = tmp_path / "bad.cfg"
        save(cfg, p)
        assert main(["twin", "--config", str(p), str(ckpt)]) == EXIT_CONFIG

    def test_missing_checkpoint_is_io_error(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        missing = str(tmp_path / "nope.ckpt")
        assert main(["twin", "--config", str(cfg_path), missing]) == EXIT_IO

    def test_missing_checkpoint_leaves_no_directory(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "run.cfg"
        save(small_config(nx=8, ny=8, output_dir=str(out)), p)
        missing = str(tmp_path / "nope.ckpt")
        assert main(["twin", "--config", str(p), missing]) == EXIT_IO
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage", ["magic", "header", "version", "length", "nan-time", "nan-coefficient"]
    )
    def test_malformed_checkpoint_is_io_error(self, twin_workspace, tmp_path, capsys, damage):
        # a file that is not a whole checkpoint is unreadable, like a missing
        # one: exit 4, the message names it, and no output directory is made
        root, cfg_path, ckpt = twin_workspace
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(damaged(ckpt.read_bytes(), damage))
        out = tmp_path / "out"
        argv = ["twin", "--config", str(cfg_path), "--out", str(out), str(bad)]
        assert main(argv) == EXIT_IO
        assert f"checkpoint {bad}: " in capsys.readouterr().err
        assert not out.exists()

    def test_blow_up_exit_code(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        grid = Grid(2.0, 32, 16)
        rng = np.random.default_rng(2)
        giant = State(
            random_solenoidal(grid, rng, norm=1e11),
            random_scalar(grid, rng, SIN, norm=1e11),
        )
        cfg = small_config(output_dir=str(tmp_path))
        bad_ckpt = tmp_path / "giant.ckpt"
        save_checkpoint(bad_ckpt, giant, cfg.physical_params(), 0)
        p = tmp_path / "blow.cfg"
        save(cfg, p)
        assert main(["twin", "--config", str(p), str(bad_ckpt)]) == EXIT_BLOWUP


    @pytest.mark.parametrize("line", REMOVED_KEYS)
    def test_cfl_target_is_config_error(self, twin_workspace, tmp_path, capsys, line):
        # the twin steps at the fixed dt and keeps the fixed 2/3 band, so a
        # CFL bound or a dealias fraction is an unknown key
        root, cfg_path, ckpt = twin_workspace
        out = tmp_path / "out"
        p = tmp_path / "removed.cfg"
        p.write_text(dumps(small_config(output_dir=str(out))) + line + "\n")
        assert main(["twin", "--config", str(p), str(ckpt)]) == EXIT_CONFIG
        assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
        assert not out.exists()


class TestInfiniteRunTime:
    @pytest.mark.parametrize("command", ["twin", "sweep"])
    def test_exits_2_before_stepping(
        self, twin_workspace, tmp_path, monkeypatch, command
    ):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before rejecting run_time")

        monkeypatch.setattr(cli, "spin_up", no_integration)
        monkeypatch.setattr(assimilation, "step", no_integration)
        _, _, ckpt = twin_workspace
        p = tmp_path / "run.cfg"
        cfg = small_config(output_dir=str(tmp_path / "out"))
        p.write_text(config_text(cfg, run_time=np.inf))
        argv = [command, "--config", str(p)]
        if command == "twin":
            argv.append(str(ckpt))
        assert main(argv) == EXIT_CONFIG
        assert not (tmp_path / "out").exists()


# files that every command refuses when it loads them: values the owners
# refuse, a length that is not whole steps, an explicit kind beyond
# dt <= 1/(2 mu), the custom policies, which need a state a file cannot hold,
# a grid a checkpoint cannot hold or whose eigenvalues overflow, and volume or
# nodal cells finer than the grid
REFUSED_AT_LOAD = {
    "v0_policy=bogus": (dict(v0_policy="bogus"), "initial policies must be one of"),
    "epsilon=nan": (dict(epsilon=np.nan), "epsilon must be non-negative and finite, got nan"),
    "sample_cadence=0": (dict(sample_cadence=0), "sample_cadence must be at least 1"),
    "h=nan": (dict(h=np.nan), "h must be positive"),
    "partial-run": (dict(run_time=0.0031), "run_time 0.0031 is not a nonnegative whole"),
    "partial-spinup": (
        dict(spinup_time=0.0031), "spinup_time 0.0031 is not a nonnegative whole"
    ),
    "nodal-dt-beyond-1/(2mu)": (
        dict(interpolant_kind="nodal", mu=200.0, dt=0.01),
        "explicit nudging requires dt <= 1/(2 mu): dt=0.01, mu=200.0",
    ),
    "v0_policy=custom": (dict(v0_policy="custom"), "v0_policy = custom needs a state"),
    "eta0_policy=custom": (dict(eta0_policy="custom"), "eta0_policy = custom needs a state"),
    "nx=2**32": (dict(nx=2**32), "nx must be a power of two in [8, 2**31], got 4294967296"),
    "L=1e-300": (dict(L=1e-300), "L=1e-300 is too small for nx=32"),
    "volume-cells-beyond-nx": (
        dict(interpolant_kind="volume", h=0.05), "volume h=0.05 is finer than the 32x16 grid"
    ),
    "nodal-cells-beyond-ny": (
        dict(interpolant_kind="nodal", L=0.5, h=0.05),
        "nodal h=0.05 is finer than the 32x16 grid",
    ),
}


class TestRefusedAtLoad:
    @pytest.mark.parametrize("command", ["spinup", "twin", "sweep", "check-conditions"])
    @pytest.mark.parametrize("case", sorted(REFUSED_AT_LOAD))
    def test_exits_2_before_any_step_without_directory(
        self, twin_workspace, tmp_path, capsys, monkeypatch, command, case
    ):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before refusing the config")

        monkeypatch.setattr(cli, "spin_up", no_integration)
        monkeypatch.setattr(assimilation, "step", no_integration)
        values, message = REFUSED_AT_LOAD[case]
        _, _, ckpt = twin_workspace
        out = tmp_path / "out"
        p = tmp_path / "run.cfg"
        p.write_text(config_text(small_config(output_dir=str(out)), **values))
        argv = [command, "--config", str(p)] + ([str(ckpt)] if command == "twin" else [])
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestOneValidation:
    """check-conditions, spinup and sweep read every file alike.

    One key at a time takes each adversarial value on an 8x8 one-step base.
    Each command exits 0, 2 or 3, prints no traceback, leaves no output_dir
    when it fails, and all three give one exit code per file.  A sweep row
    that its own (mu, h) makes invalid fails in its row, as the sweep
    reports it; the sweep still exits 0.
    """

    BASE = dict(
        nx=8, ny=8, dt=0.01, spinup_time=0.01, run_time=0.01, sample_cadence=1,
        output_dir="out",
    )
    VALUES = ["nan", "inf", "-inf", "-0.0", "0", "1e-300", "1e400", str(2**64), ""]
    # valid values that only lengthen the run: about 1e21 steps for a length
    # of 2**64, 1e298 for a step of 1e-300.  Only check-conditions, which
    # takes no step, reads them.
    LONG = {("spinup_time", str(2**64)), ("run_time", str(2**64)), ("dt", "1e-300")}

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)])
    def test_commands_agree(self, tmp_path, monkeypatch, capsys, key):
        for i, value in enumerate(self.VALUES):
            values = {**self.BASE, key: value}
            long = (key, value) in self.LONG
            commands = ["check-conditions"] if long else ["check-conditions", "spinup", "sweep"]
            codes = []
            for command in commands:
                where = f"{command} with {key} = {value!r}"
                run_dir = tmp_path / f"{i}-{command}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                Path("run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
                code = main([command, "--config", "run.cfg"])
                err = capsys.readouterr().err
                assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP), f"{where}: {err}"
                assert "Traceback" not in err, where
                if code != EXIT_OK:
                    assert not Path(values["output_dir"]).exists(), where
                codes.append(code)
            assert len(set(codes)) == 1, f"{key} = {value!r}: {dict(zip(commands, codes))}"


class TestExactInterpolant:
    def test_spacing_condition_holds_at_every_h(self, tmp_path, capsys):
        # every retained mode of the 8x8 grid has |k| < 1/h = 20, so the
        # modal interpolant is exact and c0 = 0
        out = tmp_path / "out"
        cfg = small_config(
            nx=8, ny=8, L=2.0, nu=1.0, kappa=1.0, h=0.05, spinup_time=0.1,
            run_time=0.1, sample_cadence=1, output_dir=str(out),
        )
        p = tmp_path / "run.cfg"
        save(cfg, p)
        assert main(["check-conditions", "--config", str(p)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "  c0 = 0.0\n" in printed
        assert "  spacing_satisfied = True\n" in printed
        assert main(["spinup", "--config", str(p)]) == EXIT_OK
        assert main(["twin", "--config", str(p), str(out / "truth.ckpt")]) == EXIT_OK
        thresholds = json.loads((out / "manifest.json").read_text())["thresholds"]
        assert thresholds["c0"] == 0.0
        assert thresholds["spacing_satisfied"] is True
        assert thresholds["h_max_at_mu_min_type1"] == math.inf


class TestSweepCommand:
    def test_rows_match_twin_and_duplicates_identical(self, twin_workspace, tmp_path):
        root, cfg_path, ckpt = twin_workspace
        cfg = small_config(
            spinup_time=2.0,
            sweep_mu=(40.0, 40.0, 0.0),
            sweep_h=(0.2,),
            output_dir=str(tmp_path),
        )
        p = tmp_path / "sweep.cfg"
        save(cfg, p)
        assert main(["sweep", "--config", str(p), "--workers", "2"]) == EXIT_OK
        with (tmp_path / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        # duplicate pairs agree on everything but wall-time
        for key in ("mu", "h", "rate", "converged", "error"):
            assert rows[0][key] == rows[1][key]
        # the singleton (mu=40, h=0.2) run matches the twin command's fit
        twin_out = tmp_path / "twin_ref"
        assert (
            main(
                ["twin", "--config", str(p), "--out", str(twin_out), str(ckpt)]
            )
            == EXIT_OK
        )
        ref = json.loads((twin_out / "manifest.json").read_text())
        assert float(rows[0]["rate"]) == ref["fit"]["rate"]
        # the mu = 0 control is marked non-convergent
        assert rows[2]["converged"] == "False"

    def test_per_row_failure_captured(self, tmp_path):
        # explicit nudging with dt > 1/(2 mu) fails in-row, sweep continues
        cfg = small_config(
            interpolant_kind="volume",
            spinup_time=0.5,
            run_time=0.3,
            sweep_mu=(1e6, 10.0),
            sweep_h=(0.2,),
            output_dir=str(tmp_path),
        )
        p = tmp_path / "sweep.cfg"
        save(cfg, p)
        assert main(["sweep", "--config", str(p)]) == EXIT_OK
        with (tmp_path / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] != ""
        assert rows[0]["rate"] == ""
        assert rows[1]["error"] == ""
        assert rows[1]["rate"] != ""


    @pytest.mark.parametrize("line", REMOVED_KEYS)
    def test_cfl_target_is_config_error(self, tmp_path, monkeypatch, capsys, line):
        def no_integration(*args, **kwargs):
            raise AssertionError("sweep integrated before rejecting its config")

        monkeypatch.setattr(cli, "spin_up", no_integration)
        out = tmp_path / "out"
        cfg = small_config(sweep_mu=(10.0,), output_dir=str(out))
        p = tmp_path / "removed.cfg"
        p.write_text(dumps(cfg) + line + "\n")
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_spinup_step_leaves_no_directory(self, tmp_path):
        out = tmp_path / "out"
        p = tmp_path / "sweep.cfg"
        cfg = small_config(nx=8, ny=8, output_dir=str(out))
        p.write_text(config_text(cfg, spinup_time=0.0031, dt=1e-3))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert not out.exists()

    def test_nan_mu_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        p = tmp_path / "sweep.cfg"
        p.write_text(config_text(small_config(nx=8, ny=8, output_dir=str(out)), mu=np.nan))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert "mu must be non-negative and finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epsilon", [-1.0, np.nan], ids=["negative", "nan"])
    def test_bad_epsilon_exits_2_before_spinup(self, tmp_path, capsys, monkeypatch, epsilon):
        def no_spin_up(*args, **kwargs):
            raise AssertionError("spun up before refusing epsilon")

        monkeypatch.setattr(cli, "spin_up", no_spin_up)
        out = tmp_path / "out"
        p = tmp_path / "sweep.cfg"
        cfg = small_config(
            nx=8, ny=8, v0_policy="perturbed-truth", output_dir=str(out)
        )
        p.write_text(config_text(cfg, epsilon=epsilon))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"epsilon must be non-negative and finite, got {epsilon}" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sweep_mu", "sweep_h"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sweep_list_exits_2_before_spinup(
        self, tmp_path, capsys, monkeypatch, key, bad
    ):
        def no_spin_up(*args, **kwargs):
            raise AssertionError("spun up before refusing the sweep list")

        monkeypatch.setattr(cli, "spin_up", no_spin_up)
        out = tmp_path / "out"
        p = tmp_path / "sweep.cfg"
        cfg = small_config(nx=8, ny=8, output_dir=str(out))
        p.write_text(config_text(cfg, **{key: f"10.0,{bad}"}))
        assert main(["sweep", "--config", str(p)]) == EXIT_CONFIG
        assert f"{key} entries must be finite, got {bad}" in capsys.readouterr().err
        assert not out.exists()

    def test_parallel_rows_equal_serial_rows(self, tmp_path):
        cfg = small_config(
            nx=16,
            ny=8,
            spinup_time=0.1,
            run_time=0.2,
            sweep_mu=(10.0, 40.0),
            sweep_h=(0.2, 0.5),
        )
        rows = {}
        for workers in ("1", "2"):
            out = tmp_path / workers
            p = tmp_path / f"{workers}.cfg"
            save(dataclasses.replace(cfg, output_dir=str(out)), p)
            assert main(["sweep", "--config", str(p), "--workers", workers]) == EXIT_OK
            with (out / "sweep.csv").open() as fh:
                rows[workers] = [
                    {k: v for k, v in row.items() if k != "wall_time_s"}
                    for row in csv.DictReader(fh)
                ]
        assert len(rows["1"]) == 4
        assert all(row["rate"] != "" for row in rows["1"])
        assert rows["2"] == rows["1"]

    def test_blow_up_row_reports_mode(self):
        grid = Grid(2.0, 32, 16)
        rng = np.random.default_rng(1)
        big = State(
            random_solenoidal(grid, rng, norm=1e8),
            random_scalar(grid, rng, SIN, norm=1e8),
        )
        cfg = small_config(dt=1.0, spinup_time=1.0, run_time=10.0, nu=1e-8, kappa=1e-8)
        rows = cli._sweep_chunk((cfg, [(40.0, 0.2), (10.0, 0.2), (40.0, 0.5)], big))
        row = rows[0]
        assert row["error"].startswith("blow-up: solution blew up in truth at t = ")
        assert "(n, m) = (" in row["error"]
        assert row["rate"] is None
        # the truth is shared, so its failure stops every row of the run
        for other in rows[1:]:
            assert other["error"] == row["error"]
            assert other["rate"] is None

    def test_truth_integrated_once(self, tmp_path, monkeypatch):
        # the spin-up steps through stepping.integrate; every step after it
        # goes through the binding in assimilation, the copies of one time
        # step as one stack
        labels, copies = [], []
        real_step = assimilation.step

        def counting_step(s, *args, **kwargs):
            labels.append(kwargs.get("label"))
            if kwargs.get("label") == "assimilated":
                copies.append(len(s))
            return real_step(s, *args, **kwargs)

        monkeypatch.setattr(assimilation, "step", counting_step)
        cfg = small_config(
            spinup_time=0.1,
            run_time=0.1,
            sweep_mu=(10.0, 40.0, 0.0),
            sweep_h=(0.2,),
            output_dir=str(tmp_path),
        )
        p = tmp_path / "sweep.cfg"
        save(cfg, p)
        assert main(["sweep", "--config", str(p)]) == EXIT_OK
        n = int(round(0.1 / 2e-3))
        assert labels.count("truth") == n
        assert labels.count("assimilated") == n
        assert copies == [3] * n


class TestCheckConditionsCommand:
    def test_verdicts_printed(self, tmp_path, capsys):
        # Large viscosities keep every exponential finite, so a huge mu
        # satisfies the threshold while violating the spacing condition.
        cfg = small_config(nu=2.0, kappa=2.0, mu=1e6, h=0.5, output_dir=str(tmp_path))
        p = tmp_path / "cc.cfg"
        save(cfg, p)
        assert main(["check-conditions", "--config", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mu_min_type1" in out
        assert "SATISFIED: mu = 1000000.0 >= mu_min_type1" in out
        assert "VIOLATED: mu c0^2 h^2 <= nu fails" in out

    def test_bad_config_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("unknown_knob = 1\n")
        assert main(["check-conditions", "--config", str(p)]) == EXIT_CONFIG

    def test_infinite_seed_exit_code(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("seed = inf\n")
        assert main(["check-conditions", "--config", str(p)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["sweep_mu", "sweep_h"])
    def test_non_finite_sweep_list_exit_code(self, tmp_path, capsys, key):
        p = tmp_path / "cc.cfg"
        p.write_text(config_text(small_config(nx=8, ny=8), **{key: "10.0,inf"}))
        assert main(["check-conditions", "--config", str(p)]) == EXIT_CONFIG
        assert f"{key} entries must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spinup", "check-conditions"])
    def test_infinite_viscosity_named(self, tmp_path, capsys, command):
        # both commands give the PhysicalParams message, not a threshold's
        p = tmp_path / "cc.cfg"
        cfg = small_config(nx=8, ny=8, output_dir=str(tmp_path / "out"))
        p.write_text(config_text(cfg, nu=np.inf))
        assert main([command, "--config", str(p)]) == EXIT_CONFIG
        assert "nu must be positive and finite, got inf" in capsys.readouterr().err


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--config", "x"],
            ["twin", "--workers", "2", "truth.ckpt"],
            ["sweep", "--workers", "0"],
            ["sweep", "--workers", "-4"],
        ],
    )
    def test_unread_option_or_bad_worker_count_exits_2(self, argv):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2


class TestStartUp:
    def test_process_pool_loaded_only_for_parallel_sweeps(self):
        # a fresh interpreter: this pytest process may have run a parallel sweep
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (
            f"import sys; sys.path.insert(0, {src!r}); import benard_da.cli;"
            " print('concurrent.futures.process' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestPublicSurface:
    @pytest.mark.parametrize(
        "name",
        ["benard_da"]
        + [f"benard_da.{m.name}" for m in pkgutil.iter_modules(benard_da.__path__)],
    )
    def test_every_public_name_resolves(self, name):
        # a stale __all__ entry would break import * and go untraced by the
        # benchmark, which wraps the names of each module's __all__
        mod = importlib.import_module(name)
        public = getattr(mod, "__all__", [])
        assert len(set(public)) == len(public)
        assert [n for n in public if not hasattr(mod, n)] == []


class TestValidateCommand:
    def test_suite_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 7
