"""Command-line interface: subcommands, exit codes, config precedence."""

import json

import numpy as np
import pytest

from delaydmd.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VARIANT_FAILURE,
    main,
)
from delaydmd.snapshots import SnapshotMatrix, load, save

SMALL = ["--nx", "12", "--ny", "12"]


def run_cli(*argv):
    return main(list(argv))


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


class TestGenerate:
    def test_signal_minimal(self, tmp_path):
        code = run_cli("generate", "--problem", "signal-2d", "--nt", "2",
                       *SMALL, "--out", str(tmp_path))
        assert code == EXIT_OK
        data = load(tmp_path / "signal-2d")
        assert data.m == 144 and data.n == 2

    def test_double_gyre_small(self, tmp_path):
        code = run_cli("generate", "--problem", "double-gyre", "--nt", "3",
                       *SMALL, "--out", str(tmp_path))
        assert code == EXIT_OK
        data = load(tmp_path / "double-gyre")
        assert data.m == 144 and data.n == 3 and data.dt == 0.05

    def test_byte_identical_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            run_cli("generate", "--problem", "signal-2d", "--nt", "3",
                    "--noise-amp", "0.1", "--seed", "9", *SMALL,
                    "--out", str(tmp_path / sub))
        a = (tmp_path / "a" / "signal-2d.csv").read_bytes()
        b = (tmp_path / "b" / "signal-2d.csv").read_bytes()
        assert a == b

    def test_bad_override_for_problem(self, tmp_path):
        code = run_cli("generate", "--problem", "double-gyre", "--f1", "2.0",
                       "--out", str(tmp_path))
        assert code == EXIT_USAGE


class TestRun:
    def test_small_run_writes_artifacts(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30", "--q", "2", "--seed", "7",
                       "--variants", "classic,sampling",
                       "--measurements", "sampling=30",
                       "--out", str(tmp_path))
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert [v["variant"] for v in report["variants"]] == ["classic", "sampling"]
        for name in ("spectrum_classic.csv", "errors_classic.csv",
                     "model_classic.json", "spectrum_sampling.csv"):
            assert (tmp_path / name).exists()
        assert report["config"]["seed"] == 7

    def test_empty_variant_list_is_usage_error(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                       "--variants", "", "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert run_cli("run", "--problem", "signal-2d", "--bogus") == EXIT_USAGE

    def test_bad_rank_is_usage_error(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                       "--rank", "weird:3", "--out", str(tmp_path))
        assert code == EXIT_USAGE

    def test_strict_variant_failure_exits_two(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30", "--q", "1",
                       "--variants", "gaussian", "--measurements", "gaussian=2",
                       "--rank", "fixed:4", "--strict", "--out", str(tmp_path))
        assert code == EXIT_VARIANT_FAILURE

    def test_non_strict_failure_still_reports(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30", "--q", "1",
                       "--variants", "classic,gaussian",
                       "--measurements", "gaussian=2",
                       "--rank", "fixed:4", "--out", str(tmp_path))
        assert code == EXIT_OK
        report = read_report(tmp_path)
        gaussian = [v for v in report["variants"] if v["variant"] == "gaussian"][0]
        assert gaussian["error_message"] is not None
        assert (tmp_path / "model_classic.json").exists()
        assert not (tmp_path / "model_gaussian.json").exists()

    def test_emit_modes_writes_fields(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30",
                       "--variants", "classic", "--emit-modes", "0,1",
                       "--out", str(tmp_path))
        assert code == EXIT_OK
        for k in (0, 1):
            for part in ("real", "imag"):
                path = tmp_path / f"mode_classic_{k}_{part}.csv"
                field = np.loadtxt(path, delimiter=",")
                assert field.shape == (12, 12)

    def test_emit_modes_without_grid_fails_before_fitting(self, tmp_path):
        data = np.random.default_rng(0).standard_normal((20, 40))
        save(SnapshotMatrix(data, dt=0.1), tmp_path / "gridless")
        out = tmp_path / "out"
        code = run_cli("run", "--problem", f"file:{tmp_path / 'gridless'}",
                       "--variants", "classic", "--emit-modes", "0",
                       "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists() or not any(out.iterdir())

    def test_file_problem_round_trip(self, tmp_path):
        run_cli("generate", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--out", str(tmp_path))
        code = run_cli("run", "--problem", f"file:{tmp_path / 'signal-2d'}",
                       "--variants", "classic", "--n-train", "30",
                       "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        assert read_report(tmp_path / "run")["problem"].startswith("file")

    def test_project_before_augment_smoke(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30",
                       "--variants", "gaussian", "--measurements", "gaussian=20",
                       "--project-before-augment", "--out", str(tmp_path))
        assert code == EXIT_OK


class TestSeedPrecedence:
    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DELAYDMD_SEED", "11")
        run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--n-train", "30", "--variants", "classic",
                "--out", str(tmp_path))
        assert read_report(tmp_path)["config"]["seed"] == 11

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "signal-2d", "seed": 1, "n_train": 30,
            "variants": ["classic"],
            "overrides": {"nx": 12, "ny": 12, "nt": 40},
        }))
        run_cli("run", "--config", str(cfg), "--seed", "2",
                "--out", str(tmp_path / "out"))
        report = read_report(tmp_path / "out")
        assert report["config"]["seed"] == 2
        assert report["config"]["n_train"] == 30

    def test_config_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "signal-2d", "q": 3, "n_train": 25,
            "variants": ["classic"],
            "overrides": {"nx": 12, "ny": 12, "nt": 40},
        }))
        run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        report = read_report(tmp_path / "out")
        assert report["config"]["q"] == 3 and report["config"]["n_train"] == 25


class TestConfigFile:
    BASE = {"problem": "signal-2d", "n_train": 30, "variants": ["classic"],
            "overrides": {"nx": 12, "ny": 12, "nt": 40}}

    def write(self, tmp_path, **entries):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**self.BASE, **entries}))
        return str(cfg)

    @pytest.mark.parametrize("entries, named", [
        ({"seed": "abc"}, "seed"),
        ({"q": "two"}, "q"),
        ({"n_train": "x"}, "n_train"),
        ({"rank": 20}, "rank"),
        ({"overrides": {"f1": "x"}}, "f1"),
        ({"overrides": {"nt": 40.5}}, "nt"),
        ({"overrides": {"nt": True}}, "nt"),
        ({"strict": "yes"}, "strict"),
        ({"project_before_augment": 1}, "project_before_augment"),
        ({"emit_modes": "0,a"}, "emit_modes"),
        ({"measurements": {"sampling": "many"}}, "sampling"),
        ({"measurements": {"samplng": 30}}, "samplng"),
        ({"variants": ["classic", 3]}, "variants"),
        ({"out": ["a"]}, "out"),
        ({"n-train": 30}, "n-train"),
    ])
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, entries, named):
        code = run_cli("run", "--config", self.write(tmp_path, **entries),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_not_an_object_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE

    def test_variants_string_is_a_comma_list(self, tmp_path):
        code = run_cli("run", "--config", self.write(tmp_path, variants="classic, sampling",
                                                     measurements={"sampling": 30}),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        report = read_report(tmp_path / "out")
        assert [v["variant"] for v in report["variants"]] == ["classic", "sampling"]

    def test_maps_merge_key_by_key(self, tmp_path):
        code = run_cli("run", "--config", self.write(tmp_path, variants="classic,sampling",
                                                     measurements={"sampling": 30}),
                       "--nx", "10", "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        config = read_report(tmp_path / "out")["config"]
        assert config["overrides"] == {"nx": 10, "ny": 12, "nt": 40}
        assert config["variants"][1]["measurements"] == 30

    def test_malformed_env_seed_ignored_when_file_sets_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DELAYDMD_SEED", "abc")
        code = run_cli("run", "--config", self.write(tmp_path, seed=4),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_OK
        assert read_report(tmp_path / "out")["config"]["seed"] == 4

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DELAYDMD_SEED", "abc")
        code = run_cli("run", "--config", self.write(tmp_path), "--out", str(tmp_path / "out"))
        assert code == EXIT_USAGE


class TestSparsity:
    @pytest.mark.parametrize("extra", [[], ["--measurements", "sampling=100"]])
    def test_every_spec_carries_the_flag(self, tmp_path, extra):
        code = run_cli("run", "--problem", "signal-2d", *SMALL, "--sparsity", "1",
                       *extra, "--out", str(tmp_path))
        assert code == EXIT_OK
        variants = read_report(tmp_path)["config"]["variants"]
        assert [v["name"] for v in variants] == ["classic", "sampling", "gaussian",
                                                 "achlioptas", "krylov"]
        assert [v["sparsity_s"] for v in variants] == [1] * 5


class TestSpectrumCommand:
    def test_round_trip_from_run(self, tmp_path, capsys):
        run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--n-train", "30", "--variants", "classic",
                "--out", str(tmp_path))
        capsys.readouterr()
        code = run_cli("spectrum", str(tmp_path / "model_classic.json"))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "circle" in out and "on" in out
        # Header plus one line per eigenvalue plus the summary line.
        assert len(out.strip().splitlines()) >= 3

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("spectrum", str(tmp_path / "nope.json")) == EXIT_IO

    def test_broken_model_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text('{"variant": "classic"}\n')
        assert run_cli("spectrum", str(path)) == EXIT_VARIANT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ModelParseError:") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestDeterministicReports:
    def test_identical_runs_identical_reports(self, tmp_path):
        for sub in ("r1", "r2"):
            run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                    "--n-train", "30", "--seed", "3",
                    "--variants", "classic,sampling,achlioptas",
                    "--measurements", "sampling=30,achlioptas=20",
                    "--out", str(tmp_path / sub))
        r1 = read_report(tmp_path / "r1")
        r2 = read_report(tmp_path / "r2")
        for rep in (r1, r2):
            for v in rep["variants"]:
                v["wall_time"] = 0.0
        assert r1 == r2
