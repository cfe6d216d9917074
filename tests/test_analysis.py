"""Error metrics, mode fields, comparison runs and report serialization."""

import dataclasses
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delaydmd import analysis, projections
from delaydmd.analysis import (
    VARIANT_NAMES,
    ErrorSeries,
    ExperimentReport,
    VariantSpec,
    default_variant_specs,
    derive_seed,
    mode_field,
    relative_error_series,
    run_comparison,
)
from delaydmd.dmd import DmdModel, RankPolicy, dmd_tdc, predict
from delaydmd.errors import (
    InsufficientMeasurementsError,
    InvalidDelayError,
    InvalidParameterError,
    RankDeficientBasisError,
    ShapeMismatchError,
)
from delaydmd.problems import (
    DoubleGyreParams,
    SignalParams,
    generate_double_gyre,
    generate_signal,
)
from delaydmd.snapshots import (
    GridMeta,
    SnapshotMatrix,
    delay_embed,
    hankel_augment,
    hankel_block,
    read_json,
    train_test_split,
    write_csv,
    write_json,
)
from test_projections import NearlyRepeatedRow


def small_signal_params(nx=16, nt=40, **kw):
    return SignalParams(grid=GridMeta(nx, nx, -2.0, 2.0, -2.0, 2.0), nt=nt, **kw)


@pytest.fixture(scope="module")
def signal_data():
    return generate_signal(small_signal_params())


@pytest.fixture(scope="module")
def signal_model(signal_data):
    train, _ = train_test_split(signal_data, 30)
    return dmd_tdc(train, 2)


class TestRelativeErrorSeries:
    def test_exact_model_gives_zeros(self, signal_data, signal_model):
        series = relative_error_series(signal_model, signal_data, n_train=30)
        assert series.rel_error.shape == (signal_data.n,)
        assert np.max(series.rel_error) < 1e-8
        np.testing.assert_allclose(series.times, signal_data.times())

    def test_zero_prediction_gives_ones(self, signal_data, signal_model):
        from delaydmd.dmd import DmdModel
        silent = DmdModel(
            basis=signal_model.modes,
            eigenvalues_discrete=signal_model.eigenvalues_discrete,
            exponents=signal_model.exponents,
            amplitudes=np.zeros_like(signal_model.amplitudes),
            rank=signal_model.rank, q=signal_model.q,
            base_m=signal_model.base_m, dt=signal_model.dt,
            t0=signal_model.t0,
        )
        series = relative_error_series(silent, signal_data)
        np.testing.assert_allclose(series.rel_error, 1.0)

    def test_offset_window_alignment(self, signal_data, signal_model):
        _, test = train_test_split(signal_data, 30)
        series = relative_error_series(signal_model, test)
        assert series.rel_error.shape == (test.n,)
        assert np.max(series.rel_error) < 1e-8

    def test_scaling_invariance(self, signal_data):
        train, _ = train_test_split(signal_data, 30)
        scaled = SnapshotMatrix(10.0 * signal_data.data, dt=signal_data.dt,
                                grid=signal_data.grid, t0=signal_data.t0)
        scaled_train, _ = train_test_split(scaled, 30)
        e1 = relative_error_series(dmd_tdc(train, 2), signal_data).rel_error
        e2 = relative_error_series(dmd_tdc(scaled_train, 2), scaled).rel_error
        np.testing.assert_allclose(e1, e2, atol=1e-8)

    def test_dimension_mismatch(self, signal_model):
        other = SnapshotMatrix(np.ones((3, 4)), dt=signal_model.dt)
        with pytest.raises(ShapeMismatchError):
            relative_error_series(signal_model, other)

    def test_half_step_offset_raises(self, signal_data, signal_model):
        _, test = train_test_split(signal_data, 30)
        shifted = SnapshotMatrix(test.data, dt=test.dt, t0=test.t0 + 0.5 * test.dt)
        with pytest.raises(ShapeMismatchError, match="whole number of steps") as info:
            relative_error_series(signal_model, shifted)
        assert repr(shifted.t0) in str(info.value)
        assert repr(signal_model.t0) in str(info.value)

    def test_truth_before_model_origin_raises(self, signal_data, signal_model):
        early = SnapshotMatrix(signal_data.data, dt=signal_data.dt,
                               t0=signal_data.t0 - 2 * signal_data.dt)
        with pytest.raises(ShapeMismatchError, match="2 steps before"):
            relative_error_series(signal_model, early)

    def test_matches_predict_column_by_column(self, signal_data, signal_model):
        _, test = train_test_split(signal_data, 30)
        series = relative_error_series(signal_model, test)
        for k in range(test.n):
            truth = test.data[:, k]
            pred = predict(signal_model, 30 + k)
            expected = np.linalg.norm(truth - pred) / np.linalg.norm(truth)
            assert series.rel_error[k] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_empty_training_window_raises(self, signal_data, signal_model):
        series = relative_error_series(signal_model, signal_data)
        with pytest.raises(InvalidParameterError, match="no training window"):
            series.max_train_error()

    def test_model_without_modes_raises(self, signal_data, signal_model):
        bare = dataclasses.replace(signal_model, basis=None, coefficients=None)
        with pytest.raises(InvalidParameterError, match="no modes"):
            relative_error_series(bare, signal_data)

    def test_time_step_mismatch(self, signal_data, signal_model):
        other = SnapshotMatrix(signal_data.data, dt=2 * signal_data.dt, t0=signal_data.t0)
        with pytest.raises(ShapeMismatchError, match="time steps differ"):
            relative_error_series(signal_model, other)

    def test_a_late_origin_scores_as_the_same_data_at_zero(self):
        # The test half of data at t0 = 1e9 starts 32.0000004768 steps after the model's
        # origin: roundoff in the origins, not a misaligned window.
        scores = []
        for t0 in (0.0, 1e9):
            train, test = train_test_split(oscillations(1, 30, 40, t0=t0), 32)
            scores.append(relative_error_series(dmd_tdc(train, 2), test).rel_error)
        np.testing.assert_array_equal(scores[1], scores[0])

    def test_a_half_step_offset_at_a_late_origin_raises(self):
        train, test = train_test_split(oscillations(1, 30, 40, t0=1e9), 32)
        shifted = SnapshotMatrix(test.data, dt=test.dt, t0=test.t0 + 0.5 * test.dt)
        with pytest.raises(ShapeMismatchError, match="32.5 steps apart"):
            relative_error_series(dmd_tdc(train, 2), shifted)


class TestBlockedScoring:
    """Scoring predicts and compares the truth one block of columns at a time."""

    B = analysis._SCORE_BLOCK

    @pytest.fixture(scope="class")
    def noisy(self):
        # Noise keeps every error far above roundoff, so a relative tolerance
        # compares the scores themselves rather than BLAS rounding.
        data = generate_signal(small_signal_params(nt=3 * self.B + 5, noise_amp=0.05),
                               rng_seed=3)
        train, _ = train_test_split(data, 30)
        return data, dmd_tdc(train, 2, RankPolicy.fixed(4))

    @pytest.mark.parametrize("lo, n", [
        (0, B // 2),        # below one block
        (0, 3 * B + 5),     # not a multiple of the block
        (0, 2 * B),         # whole blocks
        (7, B + 3),         # truth window offset from the model origin
        (2 * B + 1, 4),     # offset, below one block
    ])
    def test_matches_unblocked_formula(self, noisy, lo, n):
        data, model = noisy
        truth = SnapshotMatrix(data.data[:, lo:lo + n], dt=data.dt,
                               t0=data.t0 + lo * data.dt)
        expected = (np.linalg.norm(truth.data - predict(model, lo + np.arange(n)), axis=0)
                    / np.maximum(np.linalg.norm(truth.data, axis=0),
                                 analysis.ERROR_NORM_FLOOR))
        got = relative_error_series(model, truth).rel_error
        assert got.shape == (n,)
        assert np.min(expected) > 1e-3
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    # 47 and 49 columns: a last block of 15 columns, or one lone column. With ``wider`` the
    # truth is the training view that train_test_split takes of n + wider columns.
    @pytest.mark.parametrize("n, wider", [(1, 0), (2, 0), (B + 1, 0), (2 * B + 1, 0),
                                          (2 * B + 2, 0), (47, 0), (49, 0), (49, 5)])
    def test_lone_last_column_sums_as_the_unblocked_formula(self, n, wider):
        # Rank one with real factors: each predicted entry is one exact
        # product, so only the order of the norm's sums can move a bit, and a
        # lone column would be summed pairwise instead of row by row.
        m = 1000
        rng = np.random.default_rng(n)
        mu = np.array([0.99 + 0j])
        model = DmdModel(basis=rng.standard_normal((m, 1)) + 0j, eigenvalues_discrete=mu,
                         exponents=np.log(mu), amplitudes=np.ones(1, dtype=complex),
                         rank=1, q=1, base_m=m, dt=1.0)
        truth = SnapshotMatrix(rng.standard_normal((m, n + wider)), dt=1.0)
        if wider:
            truth, _ = train_test_split(truth, n)
        expected = (np.linalg.norm(truth.data - predict(model, np.arange(n)), axis=0)
                    / np.maximum(np.linalg.norm(truth.data, axis=0),
                                 analysis.ERROR_NORM_FLOOR))
        np.testing.assert_array_equal(relative_error_series(model, truth).rel_error, expected)

    def test_peak_memory_below_one_truth_array(self):
        m, n, r = 4000, 512, 4
        rng = np.random.default_rng(0)
        mu = np.exp(1j * np.array([0.1, -0.1, 0.3, -0.3]))
        model = DmdModel(basis=rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)),
                         eigenvalues_discrete=mu, exponents=np.log(mu),
                         amplitudes=np.ones(r, dtype=complex), rank=r, q=1, base_m=m, dt=1.0)
        truth = SnapshotMatrix(rng.standard_normal((m, n)), dt=1.0)
        tracemalloc.start()
        try:
            relative_error_series(model, truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < truth.data.nbytes


def scored_as_relative_error_series(report, data):
    """Each variant's errors are relative_error_series's: to 1e-13 on the training window,
    which the run scores in R coordinates, and bit for bit after it."""
    n_train = report.config["n_train"]
    for v in report.variants:
        assert not v.failed, v.error_message
        expected = relative_error_series(v.model, data, n_train=n_train)
        np.testing.assert_allclose(v.errors.rel_error[:n_train], expected.rel_error[:n_train],
                                   rtol=0, atol=1e-13)
        np.testing.assert_array_equal(v.errors.rel_error[n_train:], expected.rel_error[n_train:])
        np.testing.assert_array_equal(v.errors.times, expected.times)
        assert v.errors.n_train == n_train


def oscillations(seed, m, n, t0=0.0):
    """m-by-n snapshots of two decaying or steady oscillations: rank min(m, 4)."""
    rng = np.random.default_rng(seed)
    steps, rates = np.arange(n), rng.uniform(0.0, 0.05, 2)[:, None]
    phases = rng.uniform(0.2, 1.2, 2)[:, None] * steps
    waves = np.exp(-rates * steps) * np.vstack([np.cos(phases), np.sin(phases)]).reshape(2, 2, n)
    return SnapshotMatrix(rng.standard_normal((m, 4)) @ waves.reshape(4, n), dt=0.1, t0=t0)


class TestTrainingWindowInR:
    """run_comparison scores training columns in the embedding's R coordinates and the
    rest through relative_error_series, and both agree with scoring every column there."""

    @pytest.fixture(scope="class")
    def gyre(self):
        return generate_double_gyre(DoubleGyreParams())

    @pytest.mark.parametrize("q", [2, 16])
    def test_stock_gyre(self, gyre, q):
        report = run_comparison(gyre, default_variant_specs("double-gyre"), 0, q=q,
                                n_train=174, rank_policy=RankPolicy.fixed(20))
        scored_as_relative_error_series(report, gyre)

    def test_stock_signal(self):
        data = generate_signal(SignalParams())
        scored_as_relative_error_series(
            run_comparison(data, default_variant_specs("signal-2d"), 0, q=2, n_train=64), data)

    @pytest.mark.parametrize("n, n_train, start", [(40, 32, 32), (40, 30, 16), (12, 10, 0),
                                                    (33, 32, 16)])
    def test_relative_error_series_scores_from_a_block_edge(self, monkeypatch, n, n_train,
                                                            start):
        # The tail starts on the block grid of a whole-window score. At (33, 32) a tail from
        # 32 would be one lone column, summed pairwise where the whole window sums it in a block.
        tails = []

        def recorded(model, x_true, n_train=0):
            tails.append((x_true.n, x_true.t0))
            return relative_error_series(model, x_true, n_train)

        monkeypatch.setattr(analysis, "relative_error_series", recorded)
        data = oscillations(0, 30, n)
        report = run_comparison(data, [VariantSpec("classic"), VariantSpec("gaussian", 8)], 0,
                                q=3, n_train=n_train)
        assert tails == [(n - start, start * data.dt)] * 2
        monkeypatch.undo()
        scored_as_relative_error_series(report, data)

    def test_a_late_origin_scores_the_tail_at_its_own_origin(self):
        # 1e9 + 16 * 0.1 - 1e9 is not 16 steps to 1e-9; the tail starts at 1e9 + 16 * 0.1 and
        # each model at 1e9, and relative_error_series allows the origins' roundoff.
        data = oscillations(1, 30, 40, t0=1e9)
        report = run_comparison(data, [VariantSpec("classic"), VariantSpec("sampling", 8)], 0,
                                q=2, n_train=32)
        scored_as_relative_error_series(report, data)

    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), tall=st.booleans(), n=st.integers(8, 60),
           draw=st.data())
    def test_random_windows(self, seed, tall, n, draw):
        n_train = draw.draw(st.integers(7, n - 1), "n_train")
        m = draw.draw(st.integers(n + 1, 70) if tall else st.integers(2, n - 1), "m")
        q = draw.draw(st.integers(-(-4 // m), max(-(-4 // m), n_train - 5)), "q")
        assume(n_train - q >= 5)  # q*M rows and n_train - q columns hold the four modes
        name = draw.draw(st.sampled_from(VARIANT_NAMES), "variant")
        before = draw.draw(st.booleans(), "project_before_augment") and q > 1
        width = m if before else q * m
        a = None if name == "classic" else min(width, draw.draw(st.integers(4, 12), "a"))
        t0 = draw.draw(st.sampled_from([0.0, -3.7, 1e9]), "t0")
        data = oscillations(seed, m, n, t0)
        report = run_comparison(data, [VariantSpec(name, a)], seed, q=q, n_train=n_train,
                                project_before_augment=before)
        assume(not report.variants[0].failed)  # too few measurements for rank 4
        scored_as_relative_error_series(report, data)


class TestEmbeddingR:
    """DelayEmbedding.r: the snapshots in the embedding's Q coordinates."""

    @pytest.mark.parametrize("m, n, q", [(6, 20, 1), (6, 20, 3), (30, 12, 4), (5, 9, 8)])
    def test_explicit_embedding_gives_the_data(self, m, n, q):
        x = oscillations(2, m, n)
        np.testing.assert_array_equal(hankel_augment(x, q).r, x.data)

    @pytest.mark.parametrize("m, n, q", [(6, 20, 1), (6, 20, 3), (30, 12, 4), (5, 9, 8)])
    def test_compressed_is_the_hankel_matrix_of_r(self, m, n, q):
        emb = delay_embed(SnapshotMatrix(np.random.default_rng(3).standard_normal((m, n)), 0.1), q)
        assert emb.r.shape == (min(m, n), n)
        np.testing.assert_array_equal(hankel_block(emb.r, q), emb.compressed)

    def test_r_is_the_snapshots_in_q_coordinates(self):
        x = SnapshotMatrix(np.random.default_rng(4).standard_normal((40, 12)), 0.1)
        r = delay_embed(x, 3).r
        q_x = x.data @ np.linalg.pinv(r)  # X = Q_x R with orthonormal Q_x
        np.testing.assert_allclose(q_x.T @ q_x, np.eye(12), atol=1e-12)
        np.testing.assert_allclose(q_x @ r, x.data, atol=1e-12)


class TestModeField:
    def test_parts_are_consistent(self, signal_model, signal_data):
        grid = signal_data.grid
        re = mode_field(signal_model, 0, grid, "real")
        im = mode_field(signal_model, 0, grid, "imag")
        ab = mode_field(signal_model, 0, grid, "abs")
        assert re.shape == (grid.ny, grid.nx)
        np.testing.assert_allclose(ab**2, re**2 + im**2, atol=1e-12)

    def test_conjugate_modes_same_magnitude(self, signal_model, signal_data):
        mu = signal_model.eigenvalues_discrete
        k = int(np.argmin(np.abs(mu - np.conj(mu[0]))))
        a = mode_field(signal_model, 0, signal_data.grid, "abs")
        b = mode_field(signal_model, k, signal_data.grid, "abs")
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_dominant_mode_concentrates_near_a_bump(self, signal_model, signal_data):
        grid = signal_data.grid
        k = int(np.argmax(np.abs(signal_model.amplitudes)))
        field = mode_field(signal_model, k, grid, "abs")
        iy, ix = np.unravel_index(np.argmax(field), field.shape)
        peak = (grid.x_coords()[ix], grid.y_coords()[iy])
        bumps = [(0.5, 0.5), (-0.25, 0.35)]
        assert min(np.hypot(peak[0] - bx, peak[1] - by) for bx, by in bumps) < 0.5

    def test_index_validation(self, signal_model, signal_data):
        with pytest.raises(InvalidParameterError):
            mode_field(signal_model, signal_model.rank, signal_data.grid, "abs")
        with pytest.raises(InvalidParameterError):
            mode_field(signal_model, 0, signal_data.grid, "phase")

    def test_model_without_modes_raises(self, signal_model, signal_data):
        bare = dataclasses.replace(signal_model, basis=None, coefficients=None)
        with pytest.raises(InvalidParameterError, match="no modes"):
            mode_field(bare, 0, signal_data.grid, "real")

    def test_grid_must_match_raw_rows(self, signal_model):
        grid = GridMeta(4, 4, -2.0, 2.0, -2.0, 2.0)
        with pytest.raises(ShapeMismatchError, match="nx\\*ny = 16"):
            mode_field(signal_model, 0, grid, "real")


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(0, "sampling") == derive_seed(0, "sampling")

    def test_distinct_components(self):
        names = ["data", "sampling", "gaussian", "achlioptas", "krylov"]
        seeds = {derive_seed(7, n) for n in names}
        assert len(seeds) == len(names)

    def test_master_seed_matters(self):
        assert derive_seed(0, "sampling") != derive_seed(1, "sampling")


class TestDefaultVariantSpecs:
    def test_double_gyre_counts(self):
        specs = default_variant_specs("double-gyre")
        assert [s.name for s in specs] == ["classic", "sampling", "gaussian",
                                           "achlioptas", "krylov"]
        assert [s.measurements for s in specs] == [None, 100, 200, 100, 100]

    def test_signal_counts(self):
        specs = default_variant_specs("signal-2d")
        assert [s.measurements for s in specs] == [None, 100, 50, 50, 50]

    def test_unknown_problem(self):
        with pytest.raises(InvalidParameterError):
            default_variant_specs("nonsense")


class TestVariantSpec:
    @pytest.mark.parametrize("kwargs,match", [
        ({"name": "svd"}, "unknown variant"),
        ({"name": "gaussian"}, "gaussian measurements must be an integer"),
        ({"name": "krylov", "measurements": 0}, "krylov measurements must be an integer"),
        ({"name": "krylov", "measurements": 1}, "2 <= measurements <= .*, got 1"),
        ({"name": "achlioptas", "measurements": 10, "sparsity_s": 2}, "sparsity_s"),
        ({"name": "classic", "measurements": 5}, "no count for variant 'classic'"),
        ({"name": "gaussian", "measurements": 2.5}, "1 <= measurements <= .*, got 2.5"),
    ], ids=["unknown", "no budget", "zero budget", "krylov one row", "sparsity 2",
            "classic count", "gaussian 2.5"])
    def test_invalid_specs_refused(self, kwargs, match):
        with pytest.raises(InvalidParameterError, match=match):
            VariantSpec(**kwargs)


class TestRunComparison:
    def test_single_variant(self):
        report = run_comparison(small_signal_params(), [VariantSpec("classic")],
                                0, q=2, n_train=30)
        assert len(report.variants) == 1
        v = report.variants[0]
        assert v.variant == "classic" and not v.failed
        assert v.measurements == 16 * 16
        assert v.errors.max_train_error() < 1e-6

    def test_all_variants_small(self):
        specs = [
            VariantSpec("classic"),
            VariantSpec("sampling", measurements=40),
            VariantSpec("gaussian", measurements=20),
            VariantSpec("achlioptas", measurements=20),
            VariantSpec("krylov", measurements=20),
        ]
        report = run_comparison(small_signal_params(), specs, 1, q=2, n_train=30)
        for v in report.variants:
            assert not v.failed, v.error_message
            freqs = sorted({round(abs(e.omega.imag) / (2 * np.pi), 3)
                            for e in v.spectrum})
            assert freqs == [1.3, 8.4]
        assert report.variant("krylov").measurements == 20

    def test_models_keep_raw_state_modes(self):
        specs = [VariantSpec("classic"), VariantSpec("sampling", measurements=40),
                 VariantSpec("gaussian", measurements=20),
                 VariantSpec("achlioptas", measurements=20),
                 VariantSpec("krylov", measurements=20)]
        report = run_comparison(small_signal_params(), specs, 0, q=8, n_train=30)
        for v in report.variants:
            assert not v.failed, v.error_message
            assert v.model.modes.shape == (16 * 16, v.model.rank)

    def test_run_holds_no_modes_array_per_variant(self):
        # Rank 20 on a 64x64 grid: each modes array is 1.3 MB, the data 7 MB.
        params = DoubleGyreParams(grid=dataclasses.replace(DoubleGyreParams().grid, nx=64, ny=64))
        tracemalloc.start()
        try:
            data = generate_double_gyre(params)
            report = run_comparison(data, default_variant_specs("double-gyre"), 0, q=2,
                                    n_train=174, rank_policy=RankPolicy.fixed(20))
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        modes_bytes = report.variants[0].model.modes.nbytes
        assert modes_bytes >= 2**20 and not any(v.failed for v in report.variants)
        assert live < data.data.nbytes + 2 * modes_bytes

    def test_failure_captured_non_strict(self):
        specs = [VariantSpec("classic"), VariantSpec("gaussian", measurements=1)]
        report = run_comparison(small_signal_params(), specs, 0, q=1, n_train=30,
                                rank_policy=RankPolicy.fixed(4))
        ga = report.variant("gaussian")
        assert ga.failed and "InsufficientMeasurements" in ga.error_message
        assert not report.variant("classic").failed

    def test_ill_conditioned_krylov_block_fails_that_variant_alone(self, monkeypatch):
        # The Krylov operator draws its block in the fit, whose failure the run captures.
        real_rng, krylov_seed = np.random.default_rng, derive_seed(0, "krylov")
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
            NearlyRepeatedRow(0) if seed == krylov_seed else real_rng(seed)))
        specs = [VariantSpec("classic"), VariantSpec("sampling", 20),
                 VariantSpec("gaussian", 20), VariantSpec("krylov", 20)]
        report = run_comparison(small_signal_params(), specs, 0, q=2, n_train=30)
        assert report.variant("krylov").error_message.startswith("RankDeficientBasisError")
        assert [v.failed for v in report.variants] == [False, False, False, True]
        with pytest.raises(RankDeficientBasisError):
            run_comparison(small_signal_params(), specs, 0, q=2, n_train=30, strict=True)

    def test_invalid_q_raises_before_any_fit(self):
        specs = [VariantSpec("classic"), VariantSpec("gaussian", measurements=20)]
        for strict in (False, True):
            with pytest.raises(InvalidDelayError):
                run_comparison(small_signal_params(), specs, 0, q=30, n_train=30,
                               strict=strict)

    def test_failure_raises_strict(self):
        specs = [VariantSpec("gaussian", measurements=1)]
        with pytest.raises(InsufficientMeasurementsError):
            run_comparison(small_signal_params(), specs, 0, q=1, n_train=30,
                           rank_policy=RankPolicy.fixed(4), strict=True)

    def test_deterministic_given_seed(self):
        specs = default_variant_specs("signal-2d")[:3]
        specs = [VariantSpec(s.name, min(s.measurements or 0, 30) or None)
                 if s.name != "classic" else s for s in specs]
        r1 = run_comparison(small_signal_params(), specs, 5, q=2, n_train=30)
        r2 = run_comparison(small_signal_params(), specs, 5, q=2, n_train=30)
        d1, d2 = r1.to_dict(), r2.to_dict()
        for v in d1["variants"] + d2["variants"]:
            v["wall_time"] = 0.0
        assert d1 == d2

    def test_default_n_train_is_80_percent(self):
        params = small_signal_params(nt=40)
        report = run_comparison(params, [VariantSpec("classic")], 0, q=2)
        assert report.config["n_train"] == 32
        assert report.variant("classic").errors.n_train == 32
        train, _ = train_test_split(generate_signal(params), 32)
        np.testing.assert_array_equal(report.variant("classic").model.eigenvalues_discrete,
                                      dmd_tdc(train, 2).eigenvalues_discrete)

    @pytest.mark.parametrize("names", [["classic", "gaussian", "classic"],
                                       ["sampling", "gaussian", "gaussian"]])
    def test_repeated_variant_refused_before_any_data(self, monkeypatch, names):
        def no_data(*args):
            raise AssertionError("data generated before the variants were checked")

        monkeypatch.setattr(analysis, "generate_problem", no_data)
        specs = [VariantSpec(name, None if name == "classic" else 10 + i)
                 for i, name in enumerate(names)]
        with pytest.raises(InvalidParameterError, match=f"variants: {names[-1]} is listed twice"):
            run_comparison(small_signal_params(), specs, 0, q=2, n_train=30)

    @pytest.mark.parametrize("seed", [None, 2.5, "x", True, np.float64(3.0)])
    def test_master_seed_that_is_not_an_integer_refused_before_any_data(self, monkeypatch,
                                                                        seed):
        def no_data(*args):
            raise AssertionError("data generated before the seed was checked")

        monkeypatch.setattr(analysis, "generate_problem", no_data)
        with pytest.raises(InvalidParameterError,
                           match=f"master_seed must be an integer, got {re.escape(repr(seed))}"):
            run_comparison(small_signal_params(), [VariantSpec("classic")], seed, n_train=30)

    @pytest.mark.parametrize("seed", [-3, np.int64(-3), 2**70])
    def test_any_integer_master_seed_runs(self, seed):
        report = run_comparison(small_signal_params(), [VariantSpec("gaussian", 20)], seed,
                                n_train=30)
        assert report.seeds["master"] == seed and not report.variant("gaussian").failed

    def test_each_variant_seed_is_derived_once(self, monkeypatch):
        components = []

        def counted(master_seed, component):
            components.append(component)
            return derive_seed(master_seed, component)

        monkeypatch.setattr(analysis, "derive_seed", counted)
        specs = [VariantSpec("sampling", measurements=40), VariantSpec("classic"),
                 VariantSpec("gaussian", measurements=20)]
        report = run_comparison(small_signal_params(), specs, 3, q=2, n_train=30)
        assert components.count("sampling") == components.count("gaussian") == 1
        assert "classic" not in components
        assert list(report.seeds.items()) == [
            ("master", 3), ("sampling", derive_seed(3, "sampling")),
            ("gaussian", derive_seed(3, "gaussian")), ("data", derive_seed(3, "data"))]

    def test_wall_time_excludes_the_shared_embedding(self, monkeypatch):
        embed = analysis.delay_embed

        def slow_embed(*args):
            time.sleep(0.5)
            return embed(*args)

        monkeypatch.setattr(analysis, "delay_embed", slow_embed)
        specs = [VariantSpec("sampling", measurements=40), VariantSpec("classic")]
        report = run_comparison(small_signal_params(), specs, 0, q=2, n_train=30)
        for v in report.variants:
            assert not v.failed, v.error_message
            assert v.wall_time < 0.5


class TestSketchDiagnostics:
    """Each seeded operator is swept once per fit."""

    SPECS = [VariantSpec("sampling", measurements=40), VariantSpec("gaussian", measurements=20),
             VariantSpec("achlioptas", measurements=20), VariantSpec("krylov", measurements=20)]

    @pytest.mark.parametrize("before_augment", [False, True], ids=["after", "before"])
    def test_each_seeded_operator_swept_once(self, monkeypatch, before_augment):
        sweeps = []
        panels = projections._panels

        def counted(op, width):
            sweeps.append(op.kind)
            return panels(op, width)

        monkeypatch.setattr(projections, "_panels", counted)
        report = run_comparison(small_signal_params(), self.SPECS, 0, q=3, n_train=30,
                                project_before_augment=before_augment)
        assert not any(v.failed for v in report.variants)
        assert sorted(k for k in sweeps if k != "krylov") == ["achlioptas", "gaussian"]


class TestReportSerialization:
    def test_csv_writers(self, tmp_path, signal_model, signal_data):
        from delaydmd.dmd import spectrum
        series = relative_error_series(signal_model, signal_data, n_train=30)
        write_csv(tmp_path / "errors.csv", ("time", "rel_error"),
                  zip(series.times, series.rel_error))
        result = analysis.VariantResult("classic", None, spectrum=spectrum(signal_model))
        report = ExperimentReport("signal-2d", [result], {}, {})
        rows = report.to_dict()["variants"][0]["spectrum"]
        write_csv(tmp_path / "spec.csv", rows[0], [row.values() for row in rows])
        err_lines = (tmp_path / "errors.csv").read_text().splitlines()
        assert err_lines[0] == "time,rel_error"
        assert len(err_lines) == 1 + signal_data.n
        spec_lines = (tmp_path / "spec.csv").read_text().splitlines()
        assert spec_lines[0] == "re_mu,im_mu,re_omega,im_omega,amp,circle"
        assert len(spec_lines) == 1 + signal_model.rank


    def test_report_with_numpy_counts_saves_and_reloads_equal(self, tmp_path, signal_data):
        report = run_comparison(signal_data, [VariantSpec("gaussian", np.int64(4))],
                                q=np.int64(2), n_train=30)
        record = report.to_dict()
        write_json(tmp_path / "report.json", record)
        assert read_json(tmp_path / "report.json", ValueError) == record


_SNAPSHOTS = SnapshotMatrix(np.random.default_rng(0).standard_normal((5, 10)), dt=0.1)


class TestIntegerCounts:
    """A count that is not an integer is a typed error at each entry point."""

    @pytest.mark.parametrize("call", [
        lambda: run_comparison(small_signal_params(), [VariantSpec("gaussian", 2.5)], 0,
                               q=2, n_train=30),
        lambda: run_comparison(small_signal_params(), [VariantSpec("classic")], 0,
                               q=2.5, n_train=30),
        lambda: run_comparison(small_signal_params(), [VariantSpec("classic")], 0,
                               q=2, n_train=30.5),
        lambda: dmd_tdc(_SNAPSHOTS, 2, RankPolicy.fixed(2.5)),
        lambda: projections.gaussian_operator(10, 2.5, 0).matrix,
        lambda: projections.sampling_operator(10, 2.5, 0),
        lambda: projections.krylov_operator(10, 2.5, 0),
        lambda: projections.apply(projections.gaussian_operator(5, 2, 0), _SNAPSHOTS.data, 1.0),
        lambda: projections.apply(projections.gaussian_operator(10, 2, 0), _SNAPSHOTS.data, 2.0),
        lambda: delay_embed(_SNAPSHOTS, 2.5),
        lambda: train_test_split(_SNAPSHOTS, 5.5),
        lambda: generate_double_gyre(DoubleGyreParams(nt=20.5)),
        lambda: generate_signal(small_signal_params(nt=20.5)),
        lambda: generate_signal(SignalParams(grid=GridMeta(10.5, 10, -2.0, 2.0, -2.0, 2.0))),
    ], ids=["variant-count", "run-q", "run-n-train", "fixed-rank", "gaussian-a", "sampling-a",
            "krylov-a", "apply-q-1.0", "apply-q-2.0", "delay-embed-q", "split-n-train", "gyre-nt",
            "signal-nt", "grid-nx"])
    def test_float_count_is_refused(self, call):
        with pytest.raises(InvalidParameterError, match="integer"):
            call()


class TestBoolCounts:
    """A bool is an int to Python but no count: True is refused where 1 would pass."""

    @pytest.mark.parametrize("call", [
        lambda: run_comparison(SignalParams(grid=GridMeta(12, 12, -2.0, 2.0, -2.0, 2.0)),
                               [VariantSpec("classic"), VariantSpec("gaussian", True)], 0,
                               q=True),
        lambda: run_comparison(small_signal_params(), [VariantSpec("classic")], 0,
                               q=True, n_train=30),
        lambda: dmd_tdc(_SNAPSHOTS, 2, RankPolicy.fixed(True)),
        lambda: projections.gaussian_operator(10, True, 0),
        lambda: projections.achlioptas_operator(10, True, 3, 0),
        lambda: projections.sampling_operator(10, True, 0),
        lambda: projections.krylov_operator(10, True, 0),
        lambda: projections.ProjectionOperator("krylov", np.ones((1, 4)), True, None),
        lambda: projections.gaussian_operator(10, 2, True),
        lambda: projections.apply(projections.gaussian_operator(5, 2, 0), _SNAPSHOTS.data, True),
        lambda: delay_embed(_SNAPSHOTS, True),
        lambda: generate_signal(SignalParams(grid=GridMeta(True, 10, -2.0, 2.0, -2.0, 2.0))),
    ], ids=["variant-count", "run-q", "fixed-rank", "gaussian-a", "achlioptas-a", "sampling-a",
            "krylov-a", "matrix-a", "seed", "apply-q", "delay-embed-q", "grid-nx"])
    def test_bool_count_is_refused(self, call):
        with pytest.raises(InvalidParameterError, match="integer"):
            call()


class TestDataSeed:
    def test_data_seed_is_derived_once_per_signal_run(self, monkeypatch):
        components = []

        def counted(master_seed, component):
            components.append(component)
            return derive_seed(master_seed, component)

        monkeypatch.setattr(analysis, "derive_seed", counted)
        specs = [VariantSpec("classic"), VariantSpec("gaussian", measurements=20)]
        report = run_comparison(small_signal_params(), specs, 3, q=2, n_train=30)
        assert components.count("data") == 1
        assert list(report.seeds.items()) == [
            ("master", 3), ("gaussian", derive_seed(3, "gaussian")),
            ("data", derive_seed(3, "data"))]


class TestTypedRefusals:
    def test_mean_test_error_needs_a_test_window(self):
        series = ErrorSeries(times=np.arange(3.0), rel_error=np.zeros(3), n_train=3)
        with pytest.raises(InvalidParameterError, match="no test window beyond n_train"):
            series.mean_test_error()

    @pytest.mark.parametrize("problem, seed", [(small_signal_params(), 2.5),
                                               (DoubleGyreParams(), None),
                                               (small_signal_params(), True),
                                               (small_signal_params(), np.float64(3.0))])
    def test_generate_problem_refuses_a_seed_that_is_not_an_integer(self, problem, seed):
        with pytest.raises(InvalidParameterError,
                           match=f"master_seed must be an integer, got {re.escape(repr(seed))}"):
            analysis.generate_problem(problem, seed)

    def test_unsupported_problem_object(self):
        with pytest.raises(InvalidParameterError, match="unsupported problem object object"):
            analysis.generate_problem(object(), 0)

    @pytest.mark.parametrize("s", [2, True, 3.0])
    def test_variant_spec_sparsity_uses_the_operator_rule(self, s):
        with pytest.raises(InvalidParameterError, match=f"sparsity_s must be 1 or 3, got {s}"):
            VariantSpec("achlioptas", 10, sparsity_s=s)
