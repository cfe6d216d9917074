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


def read_csv(path):
    """The header, then each row with its numbers parsed and its text as is."""
    def parse(field):
        try:
            return float(field)
        except ValueError:
            return field
    header, *lines = path.read_text().splitlines()
    return [header.split(",")] + [[parse(f) for f in line.split(",")] for line in lines]


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

    @pytest.mark.parametrize("entries,named", [
        ({"q": 3, "strict": True}, "unknown setting 'q'; use one of problem, seed, out, overrides"),
        ({"emit_modes": [0]}, "unknown setting 'emit_modes'"),
        ({"overrides": {"nt": 10**30}},
         f"nt must be an integer with 2 <= nt <= {np.iinfo(np.intp).max}, got {10**30}"),
        ({"overrides": {"nt": 10**400}},
         f"nt must be an integer with 2 <= nt <= {np.iinfo(np.intp).max}, got {10**400}"),
        ({"overrides": {"nx": 10**400}},
         f"grid nx must be an integer with 1 <= nx <= {np.iinfo(np.intp).max}, got {10**400}"),
        ({"overrides": {"ny": 10**400}},
         f"grid ny must be an integer with 1 <= ny <= {np.iinfo(np.intp).max}, got {10**400}"),
    ], ids=["run-only-keys", "emit-modes", "nt-past-intp", "nt-past-float", "nx-past-float",
            "ny-past-float"])
    def test_config_file_refusal_writes_nothing(self, tmp_path, capsys, entries, named):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"problem": "signal-2d", **entries}))
        out = tmp_path / "out"
        assert run_cli("generate", "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_gives_every_setting_generate_reads(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"problem": "signal-2d", "seed": 3, "out": str(out),
                                   "overrides": {"nx": 12, "ny": 12, "nt": 5}}))
        assert run_cli("generate", "--config", str(cfg)) == EXIT_OK
        assert load(out / "signal-2d").data.shape == (144, 5)


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

    def test_csvs_match_report_entries(self, tmp_path):
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--nt", "40", "--n-train", "30", "--seed", "4",
                       "--variants", "classic,gaussian,achlioptas,krylov",
                       "--measurements", "gaussian=30", "--measurements", "achlioptas=30",
                       "--measurements", "krylov=1000", "--out", str(tmp_path))
        assert code == EXIT_OK
        succeeded = 0
        for entry in read_report(tmp_path)["variants"]:
            name = entry["variant"]
            if entry["error_message"] is not None:
                assert not (tmp_path / f"spectrum_{name}.csv").exists()
                assert not (tmp_path / f"errors_{name}.csv").exists()
                continue
            succeeded += 1
            header, *rows = read_csv(tmp_path / f"spectrum_{name}.csv")
            assert header == list(entry["spectrum"][0])
            assert [dict(zip(header, row)) for row in rows] == entry["spectrum"]
            header, *rows = read_csv(tmp_path / f"errors_{name}.csv")
            assert header == ["time", "rel_error"]
            assert [row[0] for row in rows] == entry["errors"]["times"]
            assert [row[1] for row in rows] == entry["errors"]["rel_error"]
        assert succeeded == 3

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

    @pytest.mark.parametrize("modes,named", [("0,9", "0 <= k <= 3, got 9"),
                                             ("-1", "0 <= k <= 3, got -1")],
                             ids=["above-rank", "negative"])
    def test_emit_modes_out_of_range_writes_nothing(self, tmp_path, capsys, modes, named):
        # Refused after the fits and before the first file of any variant.
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "signal-2d", *SMALL,
                       "--variants", "classic,gaussian", "--measurements", "gaussian=20",
                       "--emit-modes", modes, "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "variant classic" in err
        assert not out.exists()

    def test_file_problem_round_trip(self, tmp_path):
        run_cli("generate", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--out", str(tmp_path))
        code = run_cli("run", "--problem", f"file:{tmp_path / 'signal-2d'}",
                       "--variants", "classic", "--n-train", "30",
                       "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        assert read_report(tmp_path / "run")["problem"].startswith("file")

    @pytest.mark.parametrize("suffix,tail", [(".meta.json", None), (".csv", b"1,\xff\n")],
                             ids=["sidecar", "csv"])
    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys, suffix, tail):
        save(SnapshotMatrix(np.ones((4, 10)), dt=0.1), tmp_path / "data")
        target = tmp_path / f"data{suffix}"
        if tail is None:
            target.write_bytes(b"\xff\xfe\x00")
        else:
            target.write_bytes(target.read_bytes() + tail)
        code = run_cli("run", "--problem", f"file:{tmp_path / 'data'}",
                       "--variants", "classic", "--out", str(tmp_path / "run"))
        assert code == EXIT_VARIANT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: SnapshotParseError:") and f"data{suffix}" in err

    def test_file_problem_trains_on_80_percent_by_default(self, tmp_path):
        run_cli("generate", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--out", str(tmp_path))
        code = run_cli("run", "--problem", f"file:{tmp_path / 'signal-2d'}",
                       "--variants", "classic", "--out", str(tmp_path / "run"))
        assert code == EXIT_OK
        assert read_report(tmp_path / "run")["variants"][0]["errors"]["n_train"] == 32

    def test_non_finite_value_is_parse_error(self, tmp_path, capsys):
        save(SnapshotMatrix(np.ones((2, 3)), dt=0.1), tmp_path / "data")
        (tmp_path / "data.csv").write_text("1,2,3\n4,nan,6\n")
        code = run_cli("run", "--problem", f"file:{tmp_path / 'data'}",
                       "--variants", "classic", "--out", str(tmp_path / "run"))
        assert code == EXIT_VARIANT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: SnapshotParseError:")
        assert f"{tmp_path / 'data.csv'}: row 2, field 2" in err

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

    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe" + json.dumps(self.BASE).encode("utf-16-le"))
        assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
        assert f"{cfg}: not UTF-8 text" in capsys.readouterr().err

    def test_invalid_json_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"problem": "signal-2d",\n "q": 2,\n "seed"}\n')
        assert run_cli("run", "--config", str(cfg)) == EXIT_USAGE
        assert f"{cfg}: invalid JSON at line 3" in capsys.readouterr().err

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


class TestNonFiniteParameters:
    @pytest.mark.parametrize("problem,flag,value,named", [
        ("signal-2d", "--dt", "nan", "dt"),
        ("signal-2d", "--dt", "inf", "dt"),
        ("signal-2d", "--t-final", "nan", "t_final"),
        ("signal-2d", "--t-final", "inf", "t_final"),
        ("signal-2d", "--t-final", "-1", "t_final"),
        ("signal-2d", "--noise-amp", "nan", "noise_amp"),
        ("signal-2d", "--noise-amp", "inf", "noise_amp"),
        ("signal-2d", "--f1", "nan", "f1"),
        ("signal-2d", "--f2", "inf", "f2"),
        ("double-gyre", "--dt", "nan", "dt"),
        ("double-gyre", "--dt", "inf", "dt"),
        ("double-gyre", "--amp", "inf", "amp"),
        ("double-gyre", "--omega", "nan", "omega"),
    ])
    def test_generate_refuses_with_usage_error(self, tmp_path, capsys, problem, flag, value,
                                               named):
        code = run_cli("generate", "--problem", problem, *SMALL, flag, value,
                       "--out", str(tmp_path))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "must be" in err and "and finite" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("problem", ["signal-2d", "double-gyre"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_generate_refuses_non_finite_t0(self, tmp_path, capsys, problem, value):
        code = run_cli("generate", "--problem", problem, *SMALL, "--t0", value,
                       "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "t0 must be finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_generate_refuses_a_t0_beyond_the_float_range(self, tmp_path, capsys):
        # It used to end in a TypeError traceback from np.isfinite.
        config = tmp_path / "big.json"
        config.write_text('{"problem": "signal-2d", "overrides": {"nx": 12, "ny": 12, '
                          f'"t0": {10**400}}}}}')
        out = tmp_path / "out"
        code = run_cli("generate", "--config", str(config), "--out", str(out))
        assert code == EXIT_USAGE
        assert "t0 must be finite, got a number beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_run_refuses_non_finite_t0_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("run", "--problem", "signal-2d", *SMALL, "--t0", "inf", "--out", str(out))
        assert code == EXIT_USAGE
        assert "t0 must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestProblemParameters:
    """A problem parameter the generator cannot use is a usage error."""

    @pytest.mark.parametrize("command,problem,flags,named", [
        ("generate", "double-gyre", ["--nx", "2", "--ny", "2"], "nx, ny >= 3"),
        ("generate", "signal-2d", ["--dt", "0.2"], "undersamples"),
        ("run", "signal-2d", ["--dt", "0.2"], "undersamples"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--n-train", "1"], "2 <= n_train"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--q", "0"], "1 <= q"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--q", "999"], "1 <= q"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--variants", "classic,classic"],
         "classic is listed twice"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--measurements", "krylov=1"],
         "krylov measurements must be an integer with 2 <= measurements"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--measurements", "classic=5"],
         "no count for variant 'classic'"),
        ("run", "signal-2d", ["--nx", "12", "--ny", "12", "--sparsity", "2"],
         "sparsity_s must be 1 or 3"),
        ("generate", "signal-2d", ["--q", "3"], "unrecognized arguments: --q 3"),
        ("generate", "signal-2d", ["--strict"], "unrecognized arguments: --strict"),
    ], ids=["gyre-nx-2", "signal-dt-0.2", "run-signal-dt-0.2", "run-n-train-1", "run-q-0",
            "run-q-999", "run-repeated-variant", "run-krylov-1", "run-classic-count",
            "run-sparsity-2", "generate-q", "generate-strict"])
    def test_exits_64_and_writes_nothing(self, tmp_path, capsys, command, problem, flags,
                                         named):
        out = tmp_path / "out"
        code = run_cli(command, "--problem", problem, *flags, "--out", str(out))
        assert code == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("key,edit", [("rank", lambda v: 99),
                                          ("amplitudes", lambda v: v[:-1])],
                             ids=["rank", "amplitudes"])
    def test_disagreeing_model_fields_are_parse_error(self, tmp_path, capsys, key, edit):
        run_cli("run", "--problem", "signal-2d", *SMALL, "--nt", "40",
                "--n-train", "30", "--variants", "classic",
                "--out", str(tmp_path))
        path = tmp_path / "model_classic.json"
        record = json.loads(path.read_text())
        record[key] = edit(record[key])
        path.write_text(json.dumps(record))
        capsys.readouterr()
        assert run_cli("spectrum", str(path)) == EXIT_VARIANT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ModelParseError:") and "model_classic.json" in err


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


class TestProblemChoice:
    """A run or generate without a usable problem exits 64 and writes nothing."""

    @pytest.mark.parametrize("argv,named", [
        (["run"], "a problem is required"),
        (["run", "--problem", "nope"], "unknown problem 'nope'"),
        (["generate", "--problem", "file:x"], "generate needs a synthetic problem"),
    ], ids=["run-no-problem", "run-unknown-problem", "generate-file"])
    def test_exits_64(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()
