"""End-to-end tests of the experiment harness and its command line:
config parsing and exit codes, CSV schemas and 17-digit float formatting,
manifest sidecars, deterministic reruns, and thread-count invariance."""

import importlib.util
import itertools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rwre
from rwre import cli, experiments
from rwre.cli import main as cli_main
from rwre.errors import ConfigError
from rwre.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    config_hash,
    load_config,
    run,
)

FIG1 = "0.25 0.1\n0.75 0.9\n"
NON_NESTLING = "0.6 0.5\n0.8 0.5\n"
MARGINAL = "0.5 0.5\n0.75 0.5\n"
FAIR_POINT = "0.5 1.0\n"


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_dist(workdir, text, name="dist.txt"):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return path


def write_config(workdir, section, body, name="cfg.ini"):
    path = workdir / name
    lines = [f"[{section}]"]
    lines += [f"{k} = {v}" for k, v in body.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run_cli(capsys, experiment, config, out, extra=()):
    code = cli_main(
        [experiment, "--config", str(config), "--out", str(out), *extra]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def csv_bytes(run_dir):
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("*.csv"))}


class TestConfigErrors:
    def test_missing_config_file(self, workdir, capsys):
        code, out, err = run_cli(
            capsys, "kappa", workdir / "absent.ini", workdir / "runs"
        )
        assert code == 2
        assert out == ""
        assert "error:" in err and "not found" in err

    def test_missing_section(self, workdir, capsys):
        cfg = workdir / "cfg.ini"
        cfg.write_text("[bridge-prob]\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert "[kappa]" in err

    def test_subtract_rate_is_not_a_key(self, workdir, capsys):
        dist = write_dist(workdir, NON_NESTLING)
        cfg = write_config(workdir, "scaling", {
            "distribution": dist.name, "n_grid": "8,16", "seeds": "0", "mode": "lnln",
            "subtract_rate": "false",
        })
        code, _, err = run_cli(capsys, "scaling", cfg, workdir / "runs")
        assert code == 2
        assert "subtract_rate" in err

    def test_missing_required_key(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir, "bridge-prob", {"distribution": dist.name, "seeds": "0"}
        )
        code, _, err = run_cli(capsys, "bridge-prob", cfg, workdir / "runs")
        assert code == 2
        assert "n_grid" in err

    def test_unknown_key(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir, "kappa", {"distribution": dist.name, "bogus": "1"}
        )
        code, _, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert "bogus" in err

    def test_missing_distribution_file(self, workdir, capsys):
        cfg = write_config(workdir, "kappa", {"distribution": "nowhere.txt"})
        code, _, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert "nowhere.txt" in err

    def test_expect_regime_mismatch(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "kappa",
            {"distribution": dist.name, "expect_regime": "NonNestling"},
        )
        code, _, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert "Nestling" in err

    def test_unknown_regime_name(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "kappa",
            {"distribution": dist.name, "expect_regime": "Sideways"},
        )
        code, _, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert "Sideways" in err

    def test_malformed_integer(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "two", "seeds": "0"},
        )
        code, _, err = run_cli(capsys, "bridge-prob", cfg, workdir / "runs")
        assert code == 2
        assert "integer" in err

    def test_duplicate_seeds(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2", "seeds": "1,1"},
        )
        code, _, err = run_cli(capsys, "bridge-prob", cfg, workdir / "runs")
        assert code == 2
        assert "duplicate" in err

    def test_descending_n_grid(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "4,2", "seeds": "0"},
        )
        code, _, err = run_cli(capsys, "bridge-prob", cfg, workdir / "runs")
        assert code == 2
        assert "ascending" in err

    def test_confined_requires_exactly_one_strip_spec(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        both = write_config(
            workdir,
            "confined",
            {
                "distribution": dist.name,
                "n_grid": "4",
                "seeds": "0",
                "m_grid": "2",
                "gamma": "0.5",
            },
        )
        code, _, err = run_cli(capsys, "confined", both, workdir / "runs")
        assert code == 2 and "exactly one" in err
        neither = write_config(
            workdir,
            "confined",
            {"distribution": dist.name, "n_grid": "4", "seeds": "0"},
            name="cfg2.ini",
        )
        code, _, err = run_cli(capsys, "confined", neither, workdir / "runs")
        assert code == 2 and "exactly one" in err

    def test_scaling_rejects_unknown_mode(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "scaling",
            {
                "distribution": dist.name,
                "n_grid": "4,8",
                "seeds": "0",
                "mode": "cubic",
            },
        )
        code, _, err = run_cli(capsys, "scaling", cfg, workdir / "runs")
        assert code == 2
        assert "cubic" in err

    def test_scaling_lnln_needs_fair_sites(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)  # nestling, no fair mass
        cfg = write_config(
            workdir,
            "scaling",
            {
                "distribution": dist.name,
                "n_grid": "4,8",
                "seeds": "0",
                "mode": "lnln",
            },
        )
        code, _, err = run_cli(capsys, "scaling", cfg, workdir / "runs")
        assert code == 2

    def test_com_check_n_grid_starts_at_one(self, workdir, capsys):
        dist = write_dist(workdir, NON_NESTLING)
        # n = 9 was past the old enumeration cap
        for n, want in (("0", 2), ("9", 0)):
            cfg = write_config(
                workdir,
                "com-check",
                {"distribution": dist.name, "n_grid": n, "seeds": "0"},
            )
            code, _, err = run_cli(capsys, "com-check", cfg, workdir / "runs")
            assert code == want, err
            assert ("n_grid entries >= 1" in err) == (want == 2)

    def test_nonpositive_threads(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        code, _, err = run_cli(
            capsys, "kappa", cfg, workdir / "runs", extra=("--threads", "0")
        )
        assert code == 2
        assert "threads" in err

    def test_negative_seed_offset(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        code, _, err = run_cli(
            capsys, "kappa", cfg, workdir / "runs", extra=("--seed-offset", "-1")
        )
        assert code == 2
        assert "seed-offset" in err

    @pytest.mark.parametrize(
        "case",
        [
            "unnormalized-law",
            "malformed-law",
            "non-utf8-law",
            "law-is-directory",
            "law-missing",
            "law-name-too-long",
            "non-utf8-config",
            "config-is-directory",
        ],
    )
    def test_bad_input_file_exits_two(self, workdir, capsys, case):
        dist = write_dist(workdir, FIG1)
        if case == "unnormalized-law":
            dist = write_dist(workdir, "0.25 0.1\n0.75 0.8\n", name="law.txt")
        elif case == "malformed-law":
            dist = write_dist(workdir, "0.25 0.1 7\n", name="law.txt")
        elif case == "non-utf8-law":
            dist = workdir / "law.txt"
            dist.write_bytes(b"0.25 0.1\n0.75 0.9 # \xff\n")
        elif case == "law-is-directory":
            dist = workdir / "law.d"
            dist.mkdir()
        elif case == "law-missing":
            dist = workdir / "absent.txt"
        elif case == "law-name-too-long":
            dist = workdir / ("x" * 5000)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        if case == "non-utf8-config":
            cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
        elif case == "config-is-directory":
            cfg = workdir / "cfg.d"
            cfg.mkdir()
        code, out, err = run_cli(capsys, "kappa", cfg, workdir / "runs")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        if case == "law-missing":
            assert "not found" in err

    @pytest.mark.parametrize(
        "experiment,key,value",
        [
            ("sample-bridge", "n_samples", "0"),
            ("sample-bridge", "sampler_seed", "-1"),
            ("sample-bridge", "sampler_seed", str(2**64)),
            ("sample-bridge", "export_paths", "-1"),
            ("max-disp-exact", "cdf_points", "-1"),
            ("max-disp-exact", "cdf_points", "1000000000000000"),
            ("max-disp-exact", "n_grid", "0"),
            ("sample-bridge", "n_grid", "0"),
            ("bridge-prob", "truncation", "nan"),
            ("bridge-prob", "truncation", "-1"),
            ("bridge-prob", "truncation", "5"),
        ],
    )
    def test_out_of_range_value_exits_two(self, workdir, capsys, experiment, key, value):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            experiment,
            {"distribution": dist.name, "n_grid": "2", "seeds": "0", key: value},
        )
        out_root = workdir / "runs"
        code, out, err = run_cli(capsys, experiment, cfg, out_root)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err
        assert not out_root.exists()

    @pytest.mark.parametrize(
        "experiment,key",
        [
            ("max-disp-exact", "cdf_points"),
            ("sample-bridge", "n_samples"),
            ("sample-bridge", "export_paths"),
        ],
    )
    def test_size_keys_are_capped(self, workdir, experiment, key):
        dist = write_dist(workdir, FIG1)

        def load(value):
            body = {"distribution": dist.name, "n_grid": "8", "seeds": "0", key: value}
            return load_config(write_config(workdir, experiment, body), experiment)

        assert load("1000000")[key] == 1_000_000
        for value in ("1000001", "1000000000000000"):
            with pytest.raises(ConfigError, match=key):
                load(value)

    def test_unknown_experiment_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate", "--config", "x.ini"])
        assert exc.value.code == 2


class TestRuntimeErrors:
    def test_invalid_runtime_parameter_exits_one(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "sample-bridge",
            {
                "distribution": dist.name,
                # the first n past the checkpoints' cap
                "n_grid": "88861",
                "seeds": "0",
            },
        )
        out_root = workdir / "runs"
        code, out, err = run_cli(capsys, "sample-bridge", cfg, out_root)
        assert code == 1
        assert out == ""
        assert "error:" in err
        # the run directory was created and flagged incomplete
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert "materialization cap" in manifest["error"]

    @pytest.mark.parametrize(
        "experiment,body",
        [
            ("longest-run", {"seeds": "0", "r": "1000000000000000"}),  # 7.11 PiB
            ("srw-smalldev", {"n_grid": "1000", "x": "1000000000000000"}),  # 14.2 PiB
            # beyond the address space, where numpy raises ValueError
            ("longest-run", {"seeds": "0", "r": "9223372036854775807"}),
            ("srw-smalldev", {"n_grid": "1000", "x": "4611686018427387904"}),
            ("confined", {"n_grid": "4", "seeds": "0", "m_grid": "4611686018427387000"}),
        ],
    )
    def test_allocation_that_cannot_fit_exits_one(self, workdir, capsys, experiment, body):
        if "seeds" in body:
            body = {"distribution": write_dist(workdir, MARGINAL).name, **body}
        cfg = write_config(workdir, experiment, body)
        out_root = workdir / "runs"
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        code, out, err = run_cli(capsys, experiment, cfg, out_root)
        # the array request fails before a page of it is touched
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib < 2**16
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: out of memory: ")
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["error"].startswith("MemoryError: ")

    @pytest.mark.parametrize("below", [(), ("sub",)])
    def test_unusable_out_exits_one(self, workdir, capsys, below):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        blocker = workdir / "blocker"
        blocker.write_text("")
        out_root = blocker.joinpath(*below)  # the file itself, or a path under it
        code, out, err = run_cli(capsys, "kappa", cfg, out_root)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(out_root) in err


class TestManifest:
    def test_echoes_params_effective_seeds_and_version(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2,3", "seeds": "0,1"},
        )
        out_root = workdir / "runs"
        code, _, _ = run_cli(
            capsys, "bridge-prob", cfg, out_root, extra=("--seed-offset", "5")
        )
        assert code == 0
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        params = manifest["params"]
        assert params["seeds"] == [0, 1]
        assert params["n_grid"] == [2, 3]
        assert params["distribution"] == load_config(cfg, "bridge-prob")[
            "distribution"
        ].canonical_id()
        assert manifest["effective_seeds"] == [5, 6]
        assert manifest["versions"]["rwre"] == rwre.__version__

    def test_records_any_runner_exception(self, workdir, monkeypatch):
        def boom(cfg, run_dir):
            raise RuntimeError("boom")

        monkeypatch.setitem(experiments._RUNNERS, "kappa", boom)
        dist = write_dist(workdir, FIG1)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        config = ExperimentConfig(
            experiment="kappa",
            params=load_config(cfg, "kappa"),
            out_root=workdir / "runs",
        )
        with pytest.raises(RuntimeError, match="boom"):
            run(config)
        (run_dir,) = (workdir / "runs").iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"
        assert manifest["error"] == "RuntimeError: boom"


class TestKappaExperiment:
    def test_non_transient_law_writes_nan(self, workdir, capsys):
        dist = write_dist(workdir, FAIR_POINT)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        out_root = workdir / "runs"
        code, _, err = run_cli(capsys, "kappa", cfg, out_root)
        assert code == 0 and err == ""
        (run_dir,) = out_root.iterdir()
        table = dict(read_rows(run_dir / "kappa.csv")[1])
        assert table["speed"] == "nan"
        assert table["rate0"] == "nan"

    def test_fig1_table(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "kappa",
            {"distribution": dist.name, "expect_regime": "Nestling"},
        )
        out_root = workdir / "runs"
        code, out, err = run_cli(capsys, "kappa", cfg, out_root)
        assert code == 0 and err == ""
        run_dir = out_root / out.strip().split("/")[-1]
        assert run_dir.is_dir()
        header, rows = read_rows(run_dir / "kappa.csv")
        assert header == "quantity,value"
        table = dict(rows)
        assert table["kappa"] == "2.000000000000"
        assert table["regime"] == "Nestling"
        from rwre import SiteDistribution, speed

        fig1_speed = speed(SiteDistribution((0.25, 0.75), (0.1, 0.9)))
        assert table["speed"] == "%.17g" % fig1_speed
        assert float(table["speed"]) == pytest.approx(0.25, abs=1e-15)
        assert table["rate0"] == "0"  # no exponential part in this regime

    def test_manifest_complete(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(workdir, "kappa", {"distribution": dist.name})
        out_root = workdir / "runs"
        code, out, _ = run_cli(capsys, "kappa", cfg, out_root)
        assert code == 0
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["files"] == ["kappa.csv"]
        assert manifest["experiment"] == "kappa"
        assert len(manifest["config_hash"]) == 64
        assert run_dir.name.endswith(manifest["config_hash"][:8])
        assert manifest["wall_time_s"] >= 0.0
        assert set(manifest["versions"]) == {"python", "numpy", "rwre"}


class TestBridgeProbExperiment:
    def test_homogeneous_fair_value(self, workdir, capsys):
        dist = write_dist(workdir, FAIR_POINT)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "1", "seeds": "7"},
        )
        out_root = workdir / "runs"
        code, out, _ = run_cli(capsys, "bridge-prob", cfg, out_root)
        assert code == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "bridge_prob.csv")
        assert header == "seed,n,log_prob"
        assert rows == [["7", "1", "%.17g" % math.log(0.5)]]

    def test_rerun_is_byte_identical_across_threads(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "1..4", "seeds": "0,1,2"},
        )
        outputs = []
        for i, threads in enumerate(("1", "4", "1")):
            out_root = workdir / f"runs{i}"
            code, out, _ = run_cli(
                capsys,
                "bridge-prob",
                cfg,
                out_root,
                extra=("--threads", threads),
            )
            assert code == 0
            (run_dir,) = out_root.iterdir()
            outputs.append(csv_bytes(run_dir))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_offset_relabels_to_effective_seeds(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        plain = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2,3", "seeds": "5,6"},
            name="plain.ini",
        )
        offset = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2,3", "seeds": "0,1"},
            name="offset.ini",
        )
        root_a, root_b = workdir / "a", workdir / "b"
        assert run_cli(capsys, "bridge-prob", plain, root_a)[0] == 0
        assert (
            run_cli(
                capsys,
                "bridge-prob",
                offset,
                root_b,
                extra=("--seed-offset", "5"),
            )[0]
            == 0
        )
        (dir_a,) = root_a.iterdir()
        (dir_b,) = root_b.iterdir()
        assert csv_bytes(dir_a) == csv_bytes(dir_b)

    def test_config_hash_ignores_threads_but_not_seed_offset(self, workdir):
        dist = write_dist(workdir, FIG1)
        cfg_path = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2", "seeds": "0"},
        )
        params = load_config(cfg_path, "bridge-prob")

        def make(seed_offset=0, out="runs"):
            return ExperimentConfig(
                experiment="bridge-prob",
                params=params,
                out_root=workdir / out,
                seed_offset=seed_offset,
            )

        base = config_hash(make())
        assert config_hash(make(out="elsewhere")) == base
        assert config_hash(make(seed_offset=3)) != base


class TestRunDirectories:
    def test_no_silent_overwrite_on_rapid_reruns(self, workdir):
        dist = write_dist(workdir, FIG1)
        cfg_path = write_config(workdir, "kappa", {"distribution": dist.name})
        params = load_config(cfg_path, "kappa")
        config = ExperimentConfig(
            experiment="kappa", params=params, out_root=workdir / "runs"
        )
        first = run(config)
        second = run(config)
        assert first != second
        assert first.is_dir() and second.is_dir()
        for d in (first, second):
            assert json.loads((d / "manifest.json").read_text())["status"] == "complete"

    def test_default_section_is_inherited(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = workdir / "cfg.ini"
        cfg.write_text(
            "[DEFAULT]\nseeds = 0\n\n"
            f"[bridge-prob]\ndistribution = {dist.name}\nn_grid = 2\n",
            encoding="utf-8",
        )
        code, _, _ = run_cli(capsys, "bridge-prob", cfg, workdir / "runs")
        assert code == 0


class TestConfinedExperiment:
    def test_explicit_m_grid(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "confined",
            {
                "distribution": dist.name,
                "n_grid": "4,6",
                "seeds": "0",
                "m_grid": "2,3",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "confined", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "confined.csv")
        assert header == "seed,n,M,log_prob"
        assert len(rows) == 4
        assert all(float(r[3]) < 0.0 for r in rows)

    def test_gamma_route_scales_strip_with_n(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "confined",
            {
                "distribution": dist.name,
                "n_grid": "16,64",
                "seeds": "0",
                "gamma": "0.5",
                "bridge": "true",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "confined", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "confined.csv")
        assert [r[2] for r in rows] == ["4", "8"]  # round(n**0.5)

    def test_strip_wider_than_the_bridge_window(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "confined",
            {"distribution": dist.name, "n_grid": "4", "seeds": "0", "m_grid": "3,100"},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "confined", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "confined.csv")
        env = rwre.sample_environment(rwre.load_distribution(dist), 0, -8, 8)
        assert rows[0] == ["0", "4", "3", "%.17g" % rwre.confined_log_prob(env, 4, 3)]
        assert rows[1][2] == "100"
        assert abs(float(rows[1][3])) < 1e-12  # 4 steps never reach +-100


class TestOneDrawPerSeed:
    """``_map_seeded`` draws each seed once and hands each task a view."""

    LAW = rwre.SiteDistribution((0.25, 0.5, 0.75), (0.3, 0.4, 0.3))

    # (tasks, window) of each runner's shape, over seeds 0 and 7 and
    # n_grid 0, 3, 10; None keeps _map_seeded's default
    SHAPES = {
        "seeds x n_grid, [-n, n]": (None, None),
        "confined (seed, M), (-M, M)": (
            [(s, m) for s in (0, 7) for m in (1, 4, 2, 9)],
            lambda seed, m: (1 - m, m - 1),
        ),
        "bridge sweep (seed,), [-max n, max n]": ([(0,), (7,)], lambda seed: (-10, 10)),
        "longest-run (seed,), [0, r - 1]": ([(0,), (7,)], lambda seed: (0, 99)),
        "interleaved seeds, disjoint windows": (
            [(0, -30), (7, 5), (0, 40), (7, -5), (0, 0)],
            lambda seed, x: (x, x + 3),
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_views_equal_per_task_draws(self, monkeypatch, shape):
        tasks, window = self.SHAPES[shape]
        cfg = ExperimentConfig(
            "bridge-prob",
            {"distribution": self.LAW, "n_grid": [0, 3, 10], "seeds": [0, 7]},
            Path("runs"),
        )
        draws = []
        real = experiments.sample_environment

        def spy(dist, seed, lo, hi):
            draws.append(seed)
            return real(dist, seed, lo, hi)

        monkeypatch.setattr(experiments, "sample_environment", spy)
        kwargs = {} if window is None else {"window": window}
        seen = experiments._map_seeded(
            cfg, lambda env, *t: (t, env), tasks, **kwargs
        )
        want_tasks = tasks or [(s, n) for s in (0, 7) for n in (0, 3, 10)]
        # one draw per run of consecutive tasks of a seed
        assert draws == [seed for seed, _ in itertools.groupby(t[0] for t in want_tasks)]
        window = window or (lambda seed, n: (-n, n))
        assert [t for t, _ in seen] == want_tasks
        for t, env in seen:
            own = real(self.LAW, t[0], *window(*t))
            assert (env.lo, env.hi) == (own.lo, own.hi)
            assert env.omegas.tobytes() == own.omegas.tobytes()
            assert env.dist is self.LAW

    def test_confined_draws_once_per_seed_and_keeps_every_row(self, workdir, capsys, monkeypatch):
        draws = []
        real = experiments.sample_environment

        def spy(dist, seed, lo, hi):
            draws.append((seed, lo, hi))
            return real(dist, seed, lo, hi)

        monkeypatch.setattr(experiments, "sample_environment", spy)
        dist = write_dist(workdir, FIG1)
        # the M = 60 corridor runs n = 64 by the DP and n = 2000 by squaring
        assert not rwre.kernel._prefers_squaring(119, 64)
        assert rwre.kernel._prefers_squaring(119, 2000)
        cfg = write_config(
            workdir,
            "confined",
            {"distribution": dist.name, "n_grid": "64,2000", "seeds": "0,1", "m_grid": "9,2,60"},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "confined", cfg, out_root)[0] == 0
        assert draws == [(0, -59, 59), (1, -59, 59)]
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "confined.csv")
        law = rwre.load_distribution(dist)
        want = [
            [str(s), str(n), str(m),
             "%.17g" % rwre.confined_log_prob(real(law, s, 1 - m, m - 1), n, m)]
            for s in (0, 1) for n in (64, 2000) for m in (9, 2, 60)
        ]
        assert rows == want


class TestMaxDispExperiment:
    def test_summary_and_cdf_files(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "max-disp-exact",
            {
                "distribution": dist.name,
                "n_grid": "2,4",
                "seeds": "0",
                "cdf_points": "5",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "max-disp-exact", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "maxdisp_summary.csv")
        assert header == "seed,n,median,q05,q95"
        for row in rows:
            n, med, q05, q95 = int(row[1]), int(row[2]), int(row[3]), int(row[4])
            assert 1 <= q05 <= med <= q95 <= n
        header, cdf_rows = read_rows(run_dir / "maxdisp_cdf.csv")
        assert header == "seed,n,m,cdf"
        values = [float(r[3]) for r in cdf_rows]
        assert all(0.0 <= v <= 1.0 for v in values)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["files"] == ["maxdisp_summary.csv", "maxdisp_cdf.csv"]

    def test_cdf_export_can_be_disabled(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "max-disp-exact",
            {
                "distribution": dist.name,
                "n_grid": "2",
                "seeds": "0",
                "cdf_points": "0",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "max-disp-exact", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        assert not (run_dir / "maxdisp_cdf.csv").exists()


    def test_one_bridge_and_one_probe_per_strip_per_task(self, workdir, capsys, monkeypatch):
        calls = []
        for name in ("bridge_log_prob", "confined_log_prob"):
            def counted(env, *args, _name=name, _real=getattr(rwre.kernel, name), **kwargs):
                calls.append((_name, *args))
                return _real(env, *args, **kwargs)

            monkeypatch.setattr(rwre.kernel, name, counted)
        cfg = small_config(workdir, "max-disp-exact", n_grid="64,128", seeds="0",
                           cdf_points="17")
        run_once(capsys, workdir, "max-disp-exact", cfg, "runs")
        assert sorted(c for c in calls if c[0] == "bridge_log_prob") == [
            ("bridge_log_prob", 64), ("bridge_log_prob", 128)
        ]
        probes = [c for c in calls if c[0] == "confined_log_prob"]
        assert len(probes) == len(set(probes)) > 0

    def test_certified_strips_run_no_corridor_probe(self, workdir, capsys, monkeypatch):
        # A fair window whose sites +-(b + 1) push the walk out for good:
        # no bridge goes past |x| = b.  A corridor that holds those sites
        # (M > b + 1) trips the squaring guard, and the DP's weights are 0
        # and 1/2, so at these n it sums the bridge's masses exactly in
        # binary and reads exactly 1.0.  M = b + 1 would go to squaring,
        # whose rescaling rounds, so it is off the grid (and no quantile
        # search reaches it); every M <= b reads below 1.
        b, ns = 9, (20, 24)

        def barrier_env(dist, seed, lo, hi):
            om = np.full(hi - lo + 1, 0.5)
            om[b + 1 - lo], om[-b - 1 - lo] = 1.0, 0.0
            return rwre.Environment(lo, om)

        monkeypatch.setattr(experiments, "sample_environment", barrier_env)
        cfg = small_config(workdir, "max-disp-exact", n_grid="20,24", seeds="0",
                           cdf_points="17")
        envs = {n: barrier_env(None, 0, -2 * n, 2 * n) for n in ns}
        bridge_lps = {n: rwre.bridge_log_prob(envs[n], n) for n in ns}
        probes = []  # (n, M, cdf(M)) in the order the probes ran
        real_probe = rwre.kernel.confined_log_prob

        def probe(env, steps, m, **kwargs):
            joint = real_probe(env, steps, m, **kwargs)
            n = steps // 2
            probes.append((n, m, min(1.0, float(np.exp(joint - bridge_lps[n])))))
            return joint

        monkeypatch.setattr(rwre.kernel, "confined_log_prob", probe)
        csv, _ = run_once(capsys, workdir, "max-disp-exact", cfg, "runs")
        rows = [r.split(",") for r in csv["maxdisp_cdf.csv"].decode().splitlines()[1:]]
        skipped = {}
        for n in ns:
            assert all((value == 1.0) == (m > b) for k, m, value in probes if k == n)
            assert b + 1 not in {m for k, m, _ in probes if k == n}
            strip = n + 1  # the smallest M of the task read as 1 so far
            for k, m, value in probes:
                if k == n:
                    assert m < strip
                    if value == 1.0:
                        strip = m
            probed = {m for k, m, _ in probes if k == n}
            skipped[n] = []
            for _, _, m, value in (r for r in rows if int(r[1]) == n):
                if int(m) in probed or int(m) > n:
                    continue
                skipped[n].append(int(m))
                assert value == "1"
                # the probe the skip replaced
                joint = real_probe(envs[n], 2 * n, int(m), require_bridge=True)
                assert abs(min(1.0, float(np.exp(joint - bridge_lps[n]))) - 1.0) <= 1e-12
        # the grid points above the first one past b, M = 11, which ran
        assert skipped == {20: [14, 17, 20], 24: [13, 16, 20, 24]}

    def test_quantile_bisections_start_inside_the_cdf_grid_bracket(
        self, workdir, capsys, monkeypatch
    ):
        probes = []
        real = rwre.kernel.confined_log_prob

        def counted(env, steps, m, **kwargs):
            probes.append((steps // 2, m))
            return real(env, steps, m, **kwargs)

        monkeypatch.setattr(rwre.kernel, "confined_log_prob", counted)
        ns = (64, 128)
        cfg = small_config(workdir, "max-disp-exact", n_grid="64,128", seeds="0",
                           cdf_points="17")
        csv, _ = run_once(capsys, workdir, "max-disp-exact", cfg, "runs")
        bracketed = list(probes)
        # the same task on a fresh law: the quantiles search all of [1, n],
        # then the grid
        want_rows, want_cdf = [], []
        probes.clear()
        for n in ns:
            env = rwre.sample_environment(rwre.load_distribution(workdir / "dist.txt"),
                                          0, -2 * n, 2 * n)
            law = rwre.kernel._BridgeLaw(env, n)
            q05, med, q95 = [law.quantile(q) for q in (0.05, 0.5, 0.95)]
            want_rows.append(f"0,{n},{med},{q05},{q95}")
            grid = np.unique(np.round(np.geomspace(1, n, 17)).astype(np.int64))
            want_cdf += ["0,%d,%d,%.17g" % (n, m, law.cdf(int(m))) for m in grid]
        assert csv["maxdisp_summary.csv"].decode().splitlines()[1:] == want_rows
        assert csv["maxdisp_cdf.csv"].decode().splitlines()[1:] == want_cdf
        for n in ns:
            fewer = sum(1 for key in bracketed if key[0] == n)
            assert fewer < sum(1 for key in probes if key[0] == n)


class TestSampleBridgeExperiment:
    def test_summary_and_exported_paths(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "sample-bridge",
            {
                "distribution": dist.name,
                "n_grid": "3",
                "seeds": "0,1",
                "n_samples": "50",
                "export_paths": "2",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "sample-bridge", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "sampler_summary.csv")
        assert header == "n,seed_count,median,q05,q95,mean_b_count"
        assert len(rows) == 1
        assert rows[0][0] == "3" and rows[0][1] == "2"
        assert 1 <= int(rows[0][2]) <= 3
        # paths exported for the first seed only
        names = sorted(p.name for p in run_dir.glob("path-*.csv"))
        assert names == ["path-s0-n3-0.csv", "path-s0-n3-1.csv"]
        for name in names:
            header, rows = read_rows(run_dir / name)
            assert header == "k,x"
            sites = [int(r[1]) for r in rows]
            assert len(sites) == 7
            assert sites[0] == sites[-1] == 0
            assert all(abs(a - b) == 1 for a, b in zip(sites, sites[1:]))

    @pytest.mark.parametrize(
        "path", [[0], [0, -1, -2, -3, -2, -1, 0, 1, 0], [0, 1, 2, 1, 0, -1, 0]]
    )
    def test_path_text_matches_the_per_row_formatter(self, path):
        path = np.array(path, dtype=np.int64)
        want = "".join(f"{k},{x}\n" for k, x in enumerate(path.tolist()))
        assert experiments._path_text(path) == want

    def test_builds_no_backward_log_table(self, workdir, capsys, monkeypatch):
        # one step table per task, keeping a log row every round(sqrt(2n))
        # steps: no whole log table is built
        built = []
        build = rwre.sampling.backward_table

        def spy(env, n):
            table = build(env, n)
            built.append((n, table.checkpoints.shape))
            return table

        monkeypatch.setattr(rwre.sampling, "backward_table", spy)
        monkeypatch.setattr(experiments, "backward_table", spy)
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "sample-bridge",
            {
                "distribution": dist.name,
                "n_grid": "3, 5",
                "seeds": "0, 1",
                "n_samples": "20",
                "export_paths": "2",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "sample-bridge", cfg, out_root)[0] == 0
        # n = 3: blocks of 2 steps; n = 5: blocks of 3 steps, the last of 1
        assert sorted(built) == [(3, (3, 5))] * 2 + [(5, (4, 7))] * 2

    def test_runs_past_the_whole_cone_tables_cap(self, workdir, capsys):
        # n^2 + 2n step probabilities would not fit in 37,500,000 cells
        # above n = 6122
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "sample-bridge",
            {
                "distribution": dist.name,
                "n_grid": "6200",
                "seeds": "0",
                "n_samples": "20",
                "export_paths": "1",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "sample-bridge", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        header, rows = read_rows(run_dir / "sampler_summary.csv")
        assert len(rows) == 1 and rows[0][:2] == ["6200", "1"]
        header, rows = read_rows(run_dir / "path-s0-n6200-0.csv")
        sites = [int(r[1]) for r in rows]
        assert len(sites) == 12401 and sites[0] == sites[-1] == 0
        assert all(abs(a - b) == 1 for a, b in zip(sites, sites[1:]))

    def test_thread_invariance_of_sampled_output(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "sample-bridge",
            {
                "distribution": dist.name,
                "n_grid": "2,3",
                "seeds": "0,1,2",
                "n_samples": "40",
                "sampler_seed": "9",
            },
        )
        outputs = []
        for i, threads in enumerate(("1", "4")):
            out_root = workdir / f"runs{i}"
            assert (
                run_cli(
                    capsys,
                    "sample-bridge",
                    cfg,
                    out_root,
                    extra=("--threads", threads),
                )[0]
                == 0
            )
            (run_dir,) = out_root.iterdir()
            outputs.append(csv_bytes(run_dir))
        assert outputs[0] == outputs[1]


class TestScalingExperiment:
    def test_exponent_mode_emits_per_seed_fits(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "scaling",
            {
                "distribution": dist.name,
                "n_grid": "4,8,16,32",
                "seeds": "0,1",
                "mode": "exponent",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "scaling", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "fits.csv")
        assert header == "seed,slope,intercept,max_residual,target"
        assert [r[0] for r in rows] == ["0", "1"]
        # nestling law: the fit target is kappa / (kappa + 1) = 2/3
        for row in rows:
            assert float(row[4]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        for seed in (0, 1):
            header, _ = read_rows(run_dir / f"fit-s{seed}.csv")
            assert header == "n,raw,transformed,target,residual"
        header, data = read_rows(run_dir / "data.csv")
        assert header == "seed,n,log_prob"
        assert len(data) == 8

    def test_lnln_mode_on_marginal_law(self, workdir, capsys):
        dist = write_dist(workdir, MARGINAL)
        cfg = write_config(
            workdir,
            "scaling",
            {
                "distribution": dist.name,
                "n_grid": "8,16,32",
                "seeds": "0",
                "mode": "lnln",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "scaling", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "fits.csv")
        # fair-site weight 1/2: target -|pi ln 2|^2 / 4 (no exponential part)
        assert float(rows[0][4]) == pytest.approx(-1.1854702951709319, abs=1e-12)

    def test_lnln_mode_on_non_nestling_law_removes_the_rate(self, workdir, capsys):
        law = Path(__file__).resolve().parents[1] / "demos" / "dists" / "non_nestling.txt"
        cfg = write_config(
            workdir,
            "scaling",
            {"distribution": str(law), "n_grid": "8,16,32", "seeds": "0", "mode": "lnln"},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "scaling", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        dist = rwre.load_distribution(law)
        rate0 = rwre.rate_I0(dist)
        assert rate0 > 0.0
        target = rwre.lnln_target(rwre.classify(dist).alpha, None, rate_removed=True)
        _, rows = read_rows(run_dir / "fit-s0.csv")
        assert [int(r[0]) for r in rows] == [8, 16, 32]
        for n, raw, transformed, tgt, _ in rows:
            n, raw = int(n), float(raw)
            want = math.log(n) ** 2 / n * (raw + 2.0 * n * rate0)
            assert float(transformed) == pytest.approx(want, rel=1e-14)
            assert float(tgt) == target


class TestBridgeGridPasses:
    """``bridge-prob`` and the bridge ``scaling`` run one bridge pass per
    seed for each truncation floor and parity of ``n_grid``."""

    def passes(self, monkeypatch, capsys, experiment, cfg, out):
        steps = []
        real = rwre.kernel._propagate

        def counted(*args, **kwargs):
            steps.append(args[3])  # the pass's stops
            return real(*args, **kwargs)

        monkeypatch.setattr(rwre.kernel, "_propagate", counted)
        code, _, err = run_cli(capsys, experiment, cfg, out)
        assert code == 0, err
        return steps

    def test_bridge_wide_grid_runs_two_passes_per_seed(self, workdir, capsys, monkeypatch):
        # 2048 runs untruncated; 4096 and 6144 share the truncated pass
        cfg = small_config(workdir, "bridge-prob", n_grid="2048, 4096, 6144", seeds="0,1")
        steps = self.passes(monkeypatch, capsys, "bridge-prob", cfg, workdir / "runs")
        assert steps == [[2048], [4096, 6144]] * 2

    def test_shipped_scaling_grid_runs_one_pass_per_seed(self, workdir, capsys, monkeypatch):
        cfg = Path(__file__).resolve().parents[1] / "demos" / "configs" / "scaling_nestling.ini"
        steps = self.passes(monkeypatch, capsys, "scaling", cfg, workdir / "runs")
        assert steps == [[128, 256, 512, 1024, 2048]] * 3

    def test_small_n_run_one_pass_per_parity(self, workdir, capsys, monkeypatch):
        cfg = small_config(workdir, "bridge-prob", n_grid="1..4", seeds="0,1")
        steps = self.passes(monkeypatch, capsys, "bridge-prob", cfg, workdir / "runs")
        assert steps == [[1, 3], [2, 4]] * 2


class TestSrwSmallDevExperiment:
    def test_unit_corridor_rows(self, workdir, capsys):
        cfg = write_config(workdir, "srw-smalldev", {"n_grid": "4,16", "x": "1"})
        out_root = workdir / "runs"
        assert run_cli(capsys, "srw-smalldev", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "smalldev.csv")
        assert header == "steps,x,log_prob,normalized,target"
        for row in rows:
            steps = int(row[0])
            assert float(row[2]) == pytest.approx(
                -(steps // 2) * math.log(2), abs=1e-12
            )
            assert float(row[4]) == pytest.approx(-math.pi**2 / 8, abs=1e-15)


class TestMgfExperiment:
    def test_default_grids(self, workdir, capsys):
        cfg = write_config(workdir, "mgf-check", {})
        out_root = workdir / "runs"
        assert run_cli(capsys, "mgf-check", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "mgf.csv")
        assert header == "ell,lambda,closed,dp,abs_diff"
        assert [r[0] for r in rows] == ["2", "3", "5"]
        assert all(float(r[4]) < 1e-10 for r in rows)
        header, bound_rows = read_rows(run_dir / "mgf_bound.csv")
        assert header == "eps,ell,lambda,mgf,bound,holds"
        assert len(bound_rows) == 12
        assert all(r[5] == "1" for r in bound_rows)


class TestComCheckExperiment:
    def test_identity_report(self, workdir, capsys):
        dist = write_dist(workdir, NON_NESTLING)
        cfg = write_config(
            workdir,
            "com-check",
            {
                "distribution": dist.name,
                "expect_regime": "NonNestling",
                "n_grid": "2,3",
                "seeds": "0",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "com-check", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        for n in (2, 3):
            header, rows = read_rows(run_dir / f"com-s0-n{n}.csv")
            assert header == "event,log_lhs,log_rhs,log_lower,log_upper,violation"
            assert [r[0] for r in rows] == ["bridge", "bridge_max_lt_2"]
            for row in rows:
                assert float(row[5]) < 1e-12

    def test_shipped_config_holds_within_tolerance(self, workdir, capsys):
        cfg = Path(__file__).resolve().parents[1] / "demos" / "configs" / "com_check.ini"
        out_root = workdir / "runs"
        assert run_cli(capsys, "com-check", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        for n in (2, 3, 4, 100, 1000):
            for seed in (0, 1):
                _, rows = read_rows(run_dir / f"com-s{seed}-n{n}.csv")
                report = rwre.ComReport(
                    n, tuple(rwre.ComRow(r[0], *map(float, r[1:])) for r in rows)
                )
                assert len(report.rows) == 2
                assert all(math.isfinite(r.log_lhs) for r in report.rows)
                assert report.ok(), rows


class TestLongestRunExperiment:
    def test_marginal_law_target(self, workdir, capsys):
        dist = write_dist(workdir, MARGINAL)
        cfg = write_config(
            workdir,
            "longest-run",
            {"distribution": dist.name, "seeds": "0..4", "r": "500"},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "longest-run", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "runs.csv")
        assert header == "seed,r,length,start"
        assert len(rows) == 5
        for row in rows:
            assert int(row[2]) >= 1  # 500 sites at alpha=1/2 surely hit one
            assert int(row[3]) >= 0
        header, summary = read_rows(run_dir / "runs_summary.csv")
        assert header == "r,seed_count,mean_length,mean_ratio,target"
        assert float(summary[0][4]) == pytest.approx(1.0 / math.log(2), abs=1e-12)

    def test_transform_route_counts_created_fair_sites(self, workdir, capsys):
        dist = write_dist(workdir, NON_NESTLING)
        cfg = write_config(
            workdir,
            "longest-run",
            {
                "distribution": dist.name,
                "seeds": "0,1",
                "r": "300",
                "transform": "true",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "longest-run", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "runs.csv")
        # the transform sends the minimal value 0.6 to exactly 1/2, which
        # appears with probability 1/2 per site: runs must exist
        assert all(int(row[2]) >= 1 for row in rows)
        _, summary = read_rows(run_dir / "runs_summary.csv")
        assert float(summary[0][4]) == pytest.approx(1.0 / math.log(2), abs=1e-12)


class TestConjectureExperiment:
    def test_probability_rows(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "conjecture-explore",
            {
                "distribution": dist.name,
                "n_grid": "8,16",
                "seeds": "0",
                "beta_grid": "1.0,2.0",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "conjecture-explore", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        header, rows = read_rows(run_dir / "conjecture.csv")
        assert header == "seed,n,beta,M,p_exceed"
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= float(row[4]) <= 1.0

    def test_each_row_runs_one_narrow_probe(self, workdir, capsys, monkeypatch):
        probes = []
        real = rwre.kernel.confined_log_prob

        def counted(env, steps, m, **kwargs):
            probes.append((steps // 2, m))
            return real(env, steps, m, **kwargs)

        monkeypatch.setattr(rwre.kernel, "confined_log_prob", counted)
        # the grid of demos/configs/conjecture.ini, one seed
        cfg = small_config(workdir, "conjecture-explore", n_grid="1024,2048,4096",
                           seeds="0", beta_grid="2.2,2.5,3.0")
        csv, _ = run_once(capsys, workdir, "conjecture-explore", cfg, "runs")
        rows = [r.split(",") for r in csv["conjecture.csv"].decode().splitlines()[1:]]
        assert sorted(probes) == sorted((int(r[1]), int(r[3])) for r in rows)
        for n in (1024, 2048, 4096):
            assert sum(2 * m - 1 for k, m in probes if k == n) < n

    def test_strip_beyond_n_never_exceeded(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "conjecture-explore",
            {
                "distribution": dist.name,
                "n_grid": "2,3",
                "seeds": "0",
                "beta_grid": "0.5,3.0",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "conjecture-explore", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "conjecture.csv")
        beyond = [r for r in rows if int(r[3]) > int(r[1])]
        assert [r[:4] for r in beyond] == [["0", "2", "3", "6"]]
        assert beyond[0][4] == "0"

    # ln(2)**3000 underflows to 0, ln(2)**1990 is subnormal so the quotient
    # overflows, and ln(3)**1e308 overflows
    @pytest.mark.parametrize(
        "n,beta,row",
        [("2", "3000", ["3", "0"]), ("2", "1990", ["3", "0"]), ("3", "1e308", ["1", "1"])],
    )
    def test_beta_past_the_doubles_clamps_the_corridor(self, workdir, capsys, n, beta, row):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "conjecture-explore",
            {"distribution": dist.name, "n_grid": n, "seeds": "0", "beta_grid": beta},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "conjecture-explore", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "conjecture.csv")
        assert [r[3:] for r in rows] == [row]

    def test_p_exceed_is_one_minus_the_exact_cdf(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "conjecture-explore",
            {
                "distribution": dist.name,
                "n_grid": "2,5,9",
                "seeds": "0,3",
                "beta_grid": "0.5,1.0,2.0",
            },
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "conjecture-explore", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        _, rows = read_rows(run_dir / "conjecture.csv")
        law = rwre.load_distribution(dist)
        assert len(rows) == 18
        for seed, n, _, m, p_exceed in rows:
            seed, n, m = int(seed), int(n), int(m)
            env = rwre.sample_environment(law, seed, -2 * n, 2 * n)
            cdf = rwre.max_disp_bridge_cdf(env, n, [m])
            assert p_exceed == "%.17g" % (1.0 - cdf[0])


class TestEveryCsvHasHeader:
    def test_headers_are_non_numeric(self, workdir, capsys):
        dist = write_dist(workdir, FIG1)
        cfg = write_config(
            workdir,
            "bridge-prob",
            {"distribution": dist.name, "n_grid": "2", "seeds": "0"},
        )
        out_root = workdir / "runs"
        assert run_cli(capsys, "bridge-prob", cfg, out_root)[0] == 0
        (run_dir,) = out_root.iterdir()
        for csv in run_dir.glob("*.csv"):
            first = csv.read_text(encoding="utf-8").splitlines()[0]
            assert first and not first[0].isdigit()


# One small, valid config per experiment: (law text or None, keys).
SMALL_CONFIGS = {
    "kappa": (FIG1, {}),
    "bridge-prob": (FIG1, {"n_grid": "2,3,5", "seeds": "0,1"}),
    "confined": (FIG1, {"n_grid": "3,40", "seeds": "0,1", "m_grid": "2,3", "bridge": "true"}),
    "max-disp-exact": (FIG1, {"n_grid": "3,5", "seeds": "0,1", "cdf_points": "4"}),
    "sample-bridge": (
        FIG1, {"n_grid": "2,3", "seeds": "0,1", "n_samples": "20", "export_paths": "2"}
    ),
    "scaling": (FIG1, {"n_grid": "2,4,8", "seeds": "0,1", "mode": "exponent"}),
    "srw-smalldev": (None, {"n_grid": "10,20", "x": "3"}),
    "mgf-check": (None, {"ell_grid": "2,3", "bound_ell_grid": "5,10"}),
    "com-check": (NON_NESTLING, {"n_grid": "2,3", "seeds": "0,1"}),
    "longest-run": (MARGINAL, {"seeds": "0..3", "r": "1000"}),
    "conjecture-explore": (MARGINAL, {"n_grid": "8,16", "seeds": "0,1", "beta_grid": "2.5"}),
}


def small_config(workdir, experiment, **overrides):
    law, keys = SMALL_CONFIGS[experiment]
    body = dict(keys)
    if law is not None:
        body = {"distribution": write_dist(workdir, law).name, **body}
    body.update(overrides)
    return write_config(workdir, experiment, body)


def run_once(capsys, workdir, experiment, cfg, name, threads="1"):
    """Run through the CLI into ``workdir/name``; returns (csv bytes, manifest)."""
    out_root = workdir / name
    code, _, err = run_cli(capsys, experiment, cfg, out_root, extra=("--threads", threads))
    assert code == 0, err
    (run_dir,) = out_root.iterdir()
    return csv_bytes(run_dir), json.loads((run_dir / "manifest.json").read_text())


@pytest.mark.parametrize("experiment", sorted(SMALL_CONFIGS))
def test_every_experiment_is_thread_invariant(workdir, capsys, experiment):
    cfg = small_config(workdir, experiment)
    csv1, manifest1 = run_once(capsys, workdir, experiment, cfg, "runs1", threads="1")
    csv2, manifest2 = run_once(capsys, workdir, experiment, cfg, "runs2", threads="2")
    assert csv1 and csv1 == csv2
    assert manifest1["files"] == manifest2["files"]
    assert sorted(manifest1["files"]) == sorted(csv1)
    assert manifest1.get("log_discarded_bound") == manifest2.get("log_discarded_bound")


def test_tasks_run_on_the_calling_thread(workdir, capsys, monkeypatch):
    idents = []
    real = rwre.kernel._bridge_log

    def spy(*args, **kwargs):
        idents.append(threading.get_ident())
        return real(*args, **kwargs)

    # two bridge passes per seed, one per parity of 1..4
    monkeypatch.setattr(rwre.kernel, "_bridge_log", spy)
    dist = write_dist(workdir, FIG1)
    cfg = write_config(
        workdir, "bridge-prob", {"distribution": dist.name, "n_grid": "1..4", "seeds": "0,1"}
    )
    code, _, err = run_cli(
        capsys, "bridge-prob", cfg, workdir / "runs", extra=("--threads", "2")
    )
    assert code == 0, err
    assert idents == [threading.get_ident()] * 4


def test_confined_thread_config_reaches_the_squaring_path(workdir, capsys, monkeypatch):
    results = []
    squared_log = rwre.kernel._squared_log

    def spy(*args):
        results.append(squared_log(*args))
        return results[-1]

    monkeypatch.setattr(rwre.kernel, "_squared_log", spy)
    run_once(capsys, workdir, "confined", small_config(workdir, "confined"), "runs")
    assert any(r is not None for rows in results for r in rows)


def test_scaling_corridor_rows_equal_one_call_per_row(workdir, capsys):
    # n = 100 and 110 share the corridor M = 10, which serves both
    dist = write_dist(workdir, FIG1)
    keys = {"distribution": dist.name, "n_grid": "16,100,110", "seeds": "0,1",
            "mode": "exponent", "gamma": "0.5"}
    run_once(capsys, workdir, "scaling", write_config(workdir, "scaling", keys), "runs")
    (run_dir,) = (workdir / "runs").iterdir()
    _, rows = read_rows(run_dir / "data.csv")
    law = rwre.load_distribution(dist)
    want = []
    for seed in (0, 1):
        for n in (16, 100, 110):
            env = rwre.sample_environment(law, seed, -n, n)
            lp = rwre.confined_log_prob(env, 2 * n, max(2, round(n**0.5)), require_bridge=True)
            want.append([str(seed), str(n), "%.17g" % lp])
    assert rows == want


class TestTruncationBound:
    def log_probs(self, csv):
        _, *lines = csv["bridge_prob.csv"].decode().splitlines()
        return [float(line.split(",")[2]) for line in lines]

    def test_bridge_prob_bound_sandwiches_the_untruncated_probability(self, workdir, capsys):
        keys = {"n_grid": "8,10,16", "seeds": "0,1"}
        # a floor that drops mass on every row, so each row loses some
        cut = small_config(workdir, "bridge-prob", truncation="0.03", **keys)
        csv, manifest = run_once(capsys, workdir, "bridge-prob", cut, "cut")
        bound = manifest["log_discarded_bound"]
        assert math.isfinite(bound)
        exact_cfg = small_config(workdir, "bridge-prob", truncation="off", **keys)
        exact_csv, exact_manifest = run_once(capsys, workdir, "bridge-prob", exact_cfg, "exact")
        assert exact_manifest["log_discarded_bound"] is None
        for lp, exact in zip(self.log_probs(csv), self.log_probs(exact_csv)):
            assert math.exp(lp) <= math.exp(exact) <= math.exp(lp) + math.exp(bound)
            assert lp < exact

    def test_scaling_records_the_bound(self, workdir, capsys):
        cfg = small_config(workdir, "scaling", truncation="1e-3", n_grid="8,10,16")
        _, manifest = run_once(capsys, workdir, "scaling", cfg, "cut")
        assert math.isfinite(manifest["log_discarded_bound"])
        cfg = small_config(workdir, "scaling", truncation="1e-3", gamma="0.5")
        _, manifest = run_once(capsys, workdir, "scaling", cfg, "corridor")
        assert manifest["log_discarded_bound"] is None  # the corridor kernel drops nothing

    @pytest.mark.parametrize("n,finite", [(4096, True), (4095, False)])
    def test_conjecture_records_the_bridge_bound(self, workdir, capsys, n, finite):
        # bridge_log_prob truncates by default from n = 4096 on
        cfg = small_config(workdir, "conjecture-explore", n_grid=n, seeds="0", beta_grid="3.0")
        _, manifest = run_once(capsys, workdir, "conjecture-explore", cfg, "runs")
        bound = manifest["log_discarded_bound"]
        assert math.isfinite(bound) if finite else bound is None
        # the bound of the bridge that normalizes the CDF, against its value
        assert (manifest["log_rel_bound"] is not None) == finite
        assert manifest["certified"] is True

    def test_max_disp_records_the_bound(self, workdir, capsys):
        cfg = small_config(workdir, "max-disp-exact")
        _, manifest = run_once(capsys, workdir, "max-disp-exact", cfg, "runs")
        assert manifest["log_discarded_bound"] is None

    def test_untracked_experiments_have_no_bound_field(self, workdir, capsys):
        _, manifest = run_once(capsys, workdir, "kappa", small_config(workdir, "kappa"), "k")
        assert "log_discarded_bound" not in manifest
        assert "log_rel_bound" not in manifest and "certified" not in manifest

    @pytest.mark.parametrize("truncation,certified", [
        ("0.3", False), ("1e-8", True), (None, True),
    ])
    def test_certified_only_where_every_bound_is_below_its_value(
        self, workdir, capsys, truncation, certified
    ):
        # a coarse floor drops mass of the early states, whose scale is
        # near 1, so its bound exceeds P; the default drops nothing here
        keys = {"n_grid": "48,64", "seeds": "0,1"}
        if truncation is not None:
            keys["truncation"] = truncation
        cfg = small_config(workdir, "bridge-prob", **keys)
        csv, manifest = run_once(capsys, workdir, "bridge-prob", cfg, "runs")
        assert manifest["certified"] is certified
        if truncation is None:
            assert manifest["log_discarded_bound"] is None
            assert manifest["log_rel_bound"] is None
            return
        rows = [line.split(",") for line in csv["bridge_prob.csv"].decode().splitlines()[1:]]
        law = rwre.load_distribution(workdir / "dist.txt")
        worst = -math.inf
        for seed, n, lp in rows:
            env = rwre.sample_environment(law, int(seed), -2 * int(n), 2 * int(n))
            got, bound = rwre.bridge_log_prob(env, int(n), truncation=float(truncation),
                                              with_error_bound=True)
            assert got == float(lp)
            worst = max(worst, bound - got)
        assert manifest["log_rel_bound"] == worst
        assert (worst < 0.0) is certified


def set_raw(cfg, key, raw):
    """Make ``key = raw`` (bytes, written as they are) the config's only line for ``key``."""
    lines = [
        line for line in cfg.read_bytes().splitlines(keepends=True)
        if not line.startswith(key.encode() + b" =")
    ]
    cfg.write_bytes(b"".join(lines) + key.encode() + b" = " + raw + b"\n")


RAW_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
    st.integers(-(2**80), 2**80).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "", ",", " , ", "true", "auto", "off"]),
    st.tuples(st.integers(-(2**70), 2**70), st.integers(-(2**70), 2**70)).map(
        lambda ab: "%d..%d" % ab
    ),
    st.tuples(st.integers(-5, 60), st.integers(-5, 60)).map(lambda ab: "%d..%d" % ab),
    st.lists(st.integers(-(2**70), 2**70), max_size=4).map(
        lambda xs: ", ".join(map(str, xs))
    ),
    st.binary(max_size=12).map(lambda b: b + b"\xff"),  # never valid UTF-8
)


@pytest.mark.parametrize(
    "experiment,key",
    [(e, k) for e in experiments.EXPERIMENT_NAMES for k in experiments._SCHEMAS[e]],
)
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=RAW_VALUES)
def test_config_values_parse_or_raise_config_error(workdir, experiment, key, raw):
    cfg = small_config(workdir, experiment)
    set_raw(cfg, key, raw if isinstance(raw, bytes) else raw.encode("utf-8"))
    try:
        params = load_config(cfg, experiment)
    except ConfigError:
        return
    assert set(params) <= set(experiments._SCHEMAS[experiment])


# "omega weight" lines that may be unnormalized, out of range, inf or nan
LAW_NUMBERS = st.one_of(st.floats(), st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
LAW_LINES = st.lists(st.tuples(LAW_NUMBERS, LAW_NUMBERS), max_size=4).map(
    lambda pairs: "".join(f"{a!r} {b!r}\n" for a, b in pairs).encode()
)
LAW_FILES = st.one_of(
    st.integers(0, len(FIG1)).map(lambda k: FIG1.encode()[:k]),  # truncated
    st.text(max_size=40).map(str.encode),  # non-numeric, mostly
    LAW_LINES,
    st.binary(max_size=20).map(lambda b: b + b"\xff"),  # never valid UTF-8
    st.none(),  # a directory
)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(content=LAW_FILES)
@example(content=None)
@example(content=b"nan 0.5\n0.75 0.5\n")
@example(content=b"0.25 0.1\n0.75 0.9 \xff\n")
def test_law_files_run_or_raise_one_error_line(capsys, tmp_path_factory, content):
    workdir = tmp_path_factory.mktemp("law")
    law = workdir / "law.txt"
    if content is None:
        law.mkdir()
    else:
        law.write_bytes(content)
    cfg = write_config(workdir, "kappa", {"distribution": law.name})
    out_root = workdir / "runs"
    code, out, err = run_cli(capsys, "kappa", cfg, out_root)
    if code != 0:
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_root.exists()


@pytest.mark.parametrize(
    "experiment,key,raw",
    [
        ("bridge-prob", "seeds", b"0..100000000000000000000"),
        ("bridge-prob", "n_grid", b"5..1"),
        ("confined", "gamma", b"nan"),
        ("conjecture-explore", "beta_grid", b"2.5, nan"),
        ("scaling", "n_grid", b""),
        ("longest-run", "r", b"-3"),
        ("max-disp-exact", "seeds", b"1.5"),
        ("sample-bridge", "n_samples", b"\xff\xfe"),
        ("kappa", "distribution", b"x" * 300),
    ],
)
def test_invalid_value_is_one_error_line_and_no_run(workdir, capsys, experiment, key, raw):
    cfg = small_config(workdir, experiment)
    set_raw(cfg, key, raw)
    out_root = workdir / "runs"
    code, out, err = run_cli(capsys, experiment, cfg, out_root)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out_root.exists()


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.ini")),
    ids=lambda p: p.name,
)
def test_shipped_config_loads(path):
    (section,) = [
        line.strip("[]") for line in path.read_text(encoding="utf-8").splitlines()
        if line.startswith("[")
    ]
    assert load_config(path, section)


def load_pyproject():
    """The repo's ``pyproject.toml`` as a dict."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)


def console_script_target(name):
    """The ``module:attr`` target of ``name`` in the repo's ``[project.scripts]``."""
    return load_pyproject()["project"]["scripts"][name]


def test_pyproject_version_matches_package():
    assert load_pyproject()["project"]["version"] == rwre.__version__


def run_kappa(tmp_path, argv0):
    """Run the ``kappa`` experiment through ``argv0`` in a child process.

    The child starts in ``tmp_path`` and finds the same ``rwre`` package the
    test process imported, whatever directory pytest was started from."""
    dist = tmp_path / "dist.txt"
    dist.write_text(FIG1, encoding="utf-8")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[kappa]\ndistribution = {dist}\n", encoding="utf-8")
    src = str(Path(rwre.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        argv0 + ["kappa", "--config", str(cfg), "--out", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


def test_console_entry_point_and_module_runner(tmp_path):
    # The launcher a console-script installer writes for the declared entry.
    module, _, attr = console_script_target("rwre").partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    for argv0 in ([sys.executable, "-c", launcher], [sys.executable, "-m", "rwre"]):
        proc = run_kappa(tmp_path, argv0)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()


@pytest.mark.skipif(
    shutil.which("rwre") is None, reason="no installed rwre script on PATH"
)
def test_installed_console_script(tmp_path):
    proc = run_kappa(tmp_path, [shutil.which("rwre")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_runs_on_small_windows_leave_numpy_random_unimported(tmp_path):
    # numpy >= 2.0 imports numpy.random on first use; the environment draw
    # must not be that use, while sample-bridge still draws its own streams
    dist = write_dist(tmp_path, FIG1)
    bodies = {
        "bridge-prob": {"n_grid": "8, 16", "seeds": "0, 1"},
        "confined": {"n_grid": "8", "m_grid": "2, 3", "seeds": "0"},
        "max-disp-exact": {"n_grid": "8", "seeds": "0"},
        "sample-bridge": {"n_grid": "4", "seeds": "0", "n_samples": "10"},
    }
    argvs = []
    for experiment, body in bodies.items():
        cfg = write_config(tmp_path, experiment, {"distribution": dist, **body},
                           name=f"{experiment}.ini")
        argvs.append([experiment, "--config", str(cfg), "--out", str(tmp_path / "runs")])
    script = (
        "import json, sys\n"
        "import rwre.cli\n"
        "codes, loaded = [], []\n"
        f"for argv in {argvs!r}:\n"
        "    codes.append(rwre.cli.main(argv))\n"
        "    loaded.append('numpy.random' in sys.modules)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = str(Path(rwre.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert loaded == [False, False, False, True]


class TestOneSubparser:
    """``main`` builds only the named experiment's subparser; every usage
    message, error and exit code must equal the full tree's."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_same_output_as_the_full_tree(self, workdir, capsys, monkeypatch):
        dist = write_dist(workdir, FIG1)
        cfg = str(write_config(workdir, "bridge-prob",
                               {"distribution": dist.name, "n_grid": "4", "seeds": "0"}))
        argvs = [
            [],
            ["--help"],
            ["bridge-prob", "--help"],
            ["sample-bridge", "-h"],
            ["frobnicate", "--config", cfg],
            ["bridge-prob"],
            ["bridge-prob", "--config", cfg, "--bogus"],
            ["bridge-prob", "--config", cfg, "kappa"],
            ["bridge-prob", "--config", cfg, "--threads", "0"],
            ["bridge-prob", "--config", cfg, "--seed-offset", "1.5"],
            ["kappa", "--config", cfg],
        ]
        build_parser = cli.build_parser
        built = []

        def spy(names=EXPERIMENT_NAMES):
            built.append(tuple(names))
            return build_parser(names)

        monkeypatch.setattr(cli, "build_parser", spy)
        for argv in argvs:
            built.clear()
            one = self.outcome(capsys, argv)
            named = bool(argv) and argv[0] in EXPERIMENT_NAMES
            assert built == [(argv[0],) if named else EXPERIMENT_NAMES]
            with monkeypatch.context() as m:
                m.setattr(cli, "build_parser", lambda names: build_parser())
                full = self.outcome(capsys, argv)
            assert one == full, argv


def test_benchmark_tracer_patch_sites_exist():
    # the benchmark's --trace 1 patches rwre at these module attributes; a
    # rename or deletion here would otherwise show only when it runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, (home, _) in tracer.LAYERS.items():
        attr = layer.rsplit(".", 1)[1]
        original = getattr(importlib.import_module(home), attr)
        for site in tracer.PATCH_SITES[layer]:
            assert getattr(importlib.import_module(site), attr) is original, (layer, site)
