"""Acceptance suite: every exit criterion at its stated tolerance.

Runs the two benchmarks at full size (100x100 grids) exactly once per
session and checks each criterion against the shared reports. Run with
``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion; expect about ten seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaydmd
from delaydmd.analysis import default_variant_specs, run_comparison
from delaydmd.cli import main as cli_main
from delaydmd.dmd import RankPolicy, dmd_classic, dmd_projected, dmd_tdc
from delaydmd.errors import InsufficientMeasurementsError
from delaydmd.problems import DoubleGyreParams, SignalParams, generate_signal
from delaydmd.projections import (
    achlioptas_operator,
    apply as apply_operator,
    arnoldi,
    gaussian_operator,
    identity_operator,
)
from delaydmd.snapshots import GridMeta, SnapshotMatrix, split

MASTER_SEED = 0
REDUCED = ("sampling", "gaussian", "achlioptas", "krylov")


def _report_line(num, name):
    print(f"PASS criterion {num:02d}: {name}")


@pytest.fixture(scope="session")
def signal_report():
    return run_comparison(
        SignalParams(), default_variant_specs("signal-2d"), MASTER_SEED,
        q=2, n_train=64, strict=True,
    )


@pytest.fixture(scope="session")
def gyre_report():
    return run_comparison(
        DoubleGyreParams(), default_variant_specs("double-gyre"), MASTER_SEED,
        q=2, n_train=174, rank_policy=RankPolicy.fixed(20), strict=True,
    )


def significant_entries(variant_result, rel_cut=0.01):
    top = max(e.amp_abs for e in variant_result.spectrum)
    return [e for e in variant_result.spectrum if e.amp_abs >= rel_cut * top]


def test_criterion_01_signal_frequency_recovery_all_variants(signal_report):
    targets = ((1.3, 0.013), (8.4, 0.084))  # 1 percent each
    assert [v.measurements for v in signal_report.variants] == [10000, 100, 50, 50, 50]
    for v in signal_report.variants:
        freqs = np.array([abs(e.omega.imag) / (2 * np.pi)
                          for e in significant_entries(v)])
        for f_target, tol in targets:
            assert np.any(np.abs(freqs - f_target) <= tol), \
                f"{v.variant}: no pair near {f_target} Hz in {sorted(set(freqs))}"
        # Every dominant pair belongs to one of the two target frequencies.
        for f in freqs:
            assert any(abs(f - t) <= tol for t, tol in targets), \
                f"{v.variant}: stray dominant frequency {f}"
    _report_line(1, "signal frequency recovery in all five variants")


def test_criterion_02_double_gyre_dominant_frequency(gyre_report):
    assert [v.measurements for v in gyre_report.variants] == [10000, 100, 200, 100, 100]
    classic = gyre_report.variant("classic")
    freqs = np.array([abs(e.omega.imag) / (2 * np.pi) for e in classic.spectrum])
    assert np.any(np.abs(freqs - 0.1) <= 0.002), sorted(set(np.round(freqs, 4)))
    _report_line(2, "double-gyre classical spectrum holds a 0.1 Hz pair")


def test_criterion_03_spectrum_overlap_across_variants(signal_report):
    classic = significant_entries(signal_report.variant("classic"))
    for name in REDUCED:
        other = np.array([e.mu for e in signal_report.variant(name).spectrum])
        for entry in classic:
            dist = np.min(np.abs(other - entry.mu))
            assert dist <= 1e-3, f"{name}: eigenvalue {entry.mu} unmatched ({dist:.2e})"
    _report_line(3, "amplitude-significant eigenvalues overlap across variants")


def test_criterion_04_conjugate_symmetry_both_benchmarks(signal_report, gyre_report):
    for report in (signal_report, gyre_report):
        for v in report.variants:
            mu = np.array([e.mu for e in v.spectrum])
            for value in mu:
                assert np.min(np.abs(mu - np.conj(value))) <= 1e-8, \
                    f"{report.problem}/{v.variant}: {value} lacks a conjugate"
    _report_line(4, "spectra conjugation-closed for both benchmarks, all variants")


def test_criterion_05_reduction_identities():
    grid = GridMeta(16, 16, -2.0, 2.0, -2.0, 2.0)
    x = generate_signal(SignalParams(grid=grid, nt=40))
    tdc1 = dmd_tdc(x, 1)
    classic = dmd_classic(*split(x), dt=x.dt, t0=x.t0)
    np.testing.assert_allclose(
        np.sort_complex(tdc1.eigenvalues_discrete),
        np.sort_complex(classic.eigenvalues_discrete), atol=1e-10)

    tdc2 = dmd_tdc(x, 2)
    ident = dmd_projected(x, 2, identity_operator(2 * x.m))
    np.testing.assert_allclose(
        np.sort_complex(ident.eigenvalues_discrete),
        np.sort_complex(tdc2.eigenvalues_discrete), atol=1e-10)
    _report_line(5, "q=1 matches classic and identity sketch matches plain delay fit")


def test_criterion_06_linear_system_oracle():
    for seed, m in ((1, 2), (2, 3), (3, 4), (4, 5)):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))  # stable
        x0 = rng.standard_normal(m)
        cols = [x0]
        for _ in range(2 * m + 4):
            cols.append(a @ cols[-1])
        data = np.column_stack(cols)
        model = dmd_classic(data[:, :-1], data[:, 1:], dt=1.0)
        got = np.sort_complex(model.eigenvalues_discrete)
        expected = np.sort_complex(np.linalg.eigvals(a))
        np.testing.assert_allclose(got, expected, atol=1e-8)
    _report_line(6, "eigenvalues of random stable systems recovered to 1e-8")


def test_criterion_07_arnoldi_properties():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 200))
    res = arnoldi(a, np.ones(200), m=60)
    v = res.v_basis
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-10
    residual = np.linalg.norm(a @ v[:, :-1] - v @ res.hessenberg)
    assert residual / np.linalg.norm(a) < 1e-8

    ident = arnoldi(np.eye(200), np.ones(200), m=10)
    assert ident.breakdown and ident.steps_completed == 1
    _report_line(7, "Arnoldi orthonormality, relation residual and breakdown")


def test_criterion_08_achlioptas_statistics():
    d, a = 4000, 50  # a * d = 2e5
    op = achlioptas_operator(d, a, s=3, seed=8)
    zero_frac = float(np.mean(op.matrix == 0.0))
    assert abs(zero_frac - 2.0 / 3.0) <= 0.01
    second_moment = float(np.mean((op.matrix * np.sqrt(a)) ** 2))
    assert abs(second_moment - 1.0) <= 0.05
    x = np.random.default_rng(9).standard_normal((d, 25))
    assert np.max(np.abs(apply_operator(op, x) - op.matrix @ x)) <= 1e-12
    _report_line(8, "Achlioptas zero fraction, second moment and sparse apply")


def test_criterion_09_measurement_rank_guard():
    rng = np.random.default_rng(10)
    a = np.diag([0.9, 0.6])
    cols = [rng.standard_normal(2)]
    for _ in range(14):
        cols.append(a @ cols[-1])
    x = SnapshotMatrix(np.column_stack(cols), dt=1.0)
    with pytest.raises(InsufficientMeasurementsError):
        dmd_projected(x, 1, gaussian_operator(2, 1, seed=11), RankPolicy.fixed(2))
    model = dmd_projected(x, 1, gaussian_operator(2, 2, seed=12), RankPolicy.fixed(2))
    np.testing.assert_allclose(np.sort_complex(model.eigenvalues_discrete),
                               [0.6, 0.9], atol=1e-8)
    _report_line(9, "rank above a*q rejected, rank equal to a*q accepted")


def test_criterion_10_error_curve_sanity(signal_report):
    classic = signal_report.variant("classic").errors
    assert classic.max_train_error() < 1e-6
    classic_test = classic.mean_test_error()
    for name in REDUCED:
        reduced_test = signal_report.variant(name).errors.mean_test_error()
        assert reduced_test <= 2.0 * classic_test, \
            f"{name}: mean test error {reduced_test:.3e} vs classic {classic_test:.3e}"
    _report_line(10, "reduced-variant test errors within 2x of the classical fit")


def test_criterion_11_determinism(tmp_path):
    argv_common = [
        "run", "--problem", "signal-2d", "--nx", "20", "--ny", "20",
        "--nt", "40", "--n-train", "30", "--seed", "13",
        "--variants", "classic,sampling,gaussian,achlioptas,krylov",
        "--measurements", "sampling=40,gaussian=20,achlioptas=20,krylov=20",
    ]
    reports = []
    for sub in ("first", "second"):
        assert cli_main(argv_common + ["--out", str(tmp_path / sub)]) == 0
        with open(tmp_path / sub / "report.json") as fh:
            report = json.load(fh)
        for v in report["variants"]:
            v["wall_time"] = 0.0
        reports.append(report)
    assert reports[0] == reports[1]
    _report_line(11, "identical config and seed reproduce the report bit-for-bit")


def _dominant_spectra(out_dir):
    """Per variant, the ordered eigenvalues whose amplitude exceeds 1e-3 of
    the variant's largest."""
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    spectra = {}
    for v in report["variants"]:
        top = max(e["amp"] for e in v["spectrum"])
        spectra[v["variant"]] = np.array([complex(e["re_mu"], e["im_mu"])
                                          for e in v["spectrum"] if e["amp"] > 1e-3 * top])
    return spectra


@pytest.mark.parametrize("argv", [
    ["--problem", "signal-2d", "--seed", "7"],
    ["--problem", "signal-2d", "--nx", "20", "--ny", "20", "--nt", "40", "--n-train", "30",
     "--seed", "13", "--variants", "classic,sampling,gaussian,achlioptas,krylov",
     "--measurements", "sampling=40,gaussian=20,achlioptas=20,krylov=20"],
], ids=["signal-seed-7", "criterion-11"])
def test_blas_thread_count_does_not_move_spectra(tmp_path, argv):
    # Each run is its own process, so OpenBLAS reads the thread count anew.
    src = str(Path(delaydmd.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads or 'default'}"
        subprocess.run([sys.executable, "-m", "delaydmd", "run", *argv, "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        runs.append(_dominant_spectra(out))
    single, default = runs
    assert single.keys() == default.keys()
    for name, mu in single.items():
        assert mu.shape == default[name].shape, name
        assert np.max(np.abs(mu - default[name]), initial=0.0) <= 1e-10, name
