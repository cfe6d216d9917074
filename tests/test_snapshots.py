"""Snapshot model, delay embedding and persistence."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaydmd import snapshots
from delaydmd.dmd import DmdModel
from delaydmd.errors import (
    InsufficientSnapshotsError,
    InvalidDelayError,
    InvalidParameterError,
    InvalidSplitError,
    SnapshotConsistencyError,
    SnapshotParseError,
)
from delaydmd.problems import DoubleGyreParams, SignalParams
from delaydmd.snapshots import (
    GridMeta,
    SnapshotMatrix,
    check_array,
    check_real,
    delay_embed,
    hankel_augment,
    hankel_block,
    integral,
    load,
    read_field,
    read_matrix,
    real,
    save,
    split,
    train_test_split,
    write_csv,
)


def snaps(data, dt=0.1, **kw):
    return SnapshotMatrix(np.asarray(data, dtype=float), dt=dt, **kw)


class TestSnapshotMatrix:
    def test_validates_finite(self):
        with pytest.raises(InvalidParameterError):
            snaps([[np.inf, 1.0]])

    def test_validates_dt(self):
        with pytest.raises(InvalidParameterError):
            snaps([[1.0, 2.0]], dt=0.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_dt_refused(self, dt):
        with pytest.raises(InvalidParameterError, match="dt must be positive and finite"):
            snaps([[1.0, 2.0]], dt=dt)

    def test_grid_size_must_match_rows(self):
        grid = GridMeta(2, 2, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(SnapshotConsistencyError):
            snaps(np.ones((3, 4)), grid=grid)

    def test_data_read_only(self):
        x = snaps(np.ones((2, 3)))
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0

    def test_times(self):
        x = snaps(np.ones((1, 4)), dt=0.5, t0=1.0)
        np.testing.assert_allclose(x.times(), [1.0, 1.5, 2.0, 2.5])

    def test_caller_array_stays_writable(self):
        data = np.ones((3, 4))
        x = SnapshotMatrix(data, dt=1.0)
        assert data.flags.writeable and not x.data.flags.writeable
        data[0, 0] = 5.0
        assert x.data[0, 0] == 1.0

    def test_read_only_input_kept_without_copy(self):
        x = snaps(np.arange(12.0).reshape(3, 4))
        for view in (x.data, x.data[:, 1:3]):
            y = SnapshotMatrix(view, dt=1.0)
            assert y.data is view and not y.data.flags.writeable

    @pytest.mark.parametrize("t0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_t0_refused(self, t0):
        with pytest.raises(InvalidParameterError, match="t0 must be finite"):
            snaps(np.ones((2, 3)), t0=t0)

    @pytest.mark.parametrize("data,match", [
        (np.ones(3), r"data must be .* of shape \(>=1, >=1\), got shape \(3,\)"),
        (np.ones((0, 3)), r"data must be .*, got shape \(0, 3\)"),
        (np.ones((2, 0)), r"data must be .*, got shape \(2, 0\)"),
    ], ids=["1-d", "no rows", "no columns"])
    def test_one_dimensional_or_empty_data_refused(self, data, match):
        with pytest.raises(InvalidParameterError, match=match):
            snaps(data)


class TestGridMeta:
    @pytest.mark.parametrize("extents", [(1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 1.0)],
                             ids=["x equal", "y reversed"])
    def test_min_must_lie_below_max(self, extents):
        with pytest.raises(InvalidParameterError, match="min < max"):
            GridMeta(2, 2, *extents)


class TestReadMatrix:
    def test_changed_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(SnapshotParseError, match="line 2 has 2 fields, expected 3"):
            read_matrix(path, SnapshotParseError)

    def test_blank_line_counts_in_the_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n\n4,5\n")
        with pytest.raises(SnapshotParseError, match="line 3 has 2 fields, expected 3"):
            read_matrix(path, SnapshotParseError)


class TestWriteCsv:
    """Every CSV is written with the bytes of ``np.savetxt`` at ``FLOAT_FMT``."""

    @pytest.mark.parametrize("matrix", [
        np.array([[-0.0, 5e-324, 1e308], [0.1, 2.0, -7.0], [1e16, 3.0, 0.0]]),
        np.array([[0.1, -2.0, 3.5, 1e-300]]),
        np.array([[0.1], [-2.0], [3.5], [1e-300]]),
    ], ids=["extremes", "1xn", "nx1"])
    def test_matrix_matches_savetxt_and_reads_back(self, tmp_path, matrix):
        write_csv(tmp_path / "w.csv", None, matrix)
        np.savetxt(tmp_path / "s.csv", matrix, fmt="%.17g", delimiter=",")
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
        back = read_matrix(tmp_path / "w.csv", SnapshotParseError)
        assert back.tobytes() == matrix.tobytes()  # -0.0 and subnormals included

    def test_numbers_and_text_under_a_header(self, tmp_path):
        header = ("re_mu", "im_mu", "amp", "circle")
        rows = [[0.5, -0.25, 3.0, "inside"], [1.0, 0.1, 1e-17, "on"]]
        write_csv(tmp_path / "w.csv", header, rows)
        np.savetxt(tmp_path / "s.csv", np.array(rows, dtype=object),
                   fmt=["%.17g"] * 3 + ["%s"], delimiter=",", header=",".join(header),
                   comments="")
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
        assert (tmp_path / "w.csv").read_text().splitlines()[2] == (
            "1,0.10000000000000001,1.0000000000000001e-17,on")


class TestSplit:
    def test_five_by_three(self):
        x = snaps(np.arange(15.0).reshape(5, 3))
        x1, x2 = split(x)
        assert x1.shape == (5, 2) and x2.shape == (5, 2)
        np.testing.assert_array_equal(x1, x.data[:, :2])
        np.testing.assert_array_equal(x2, x.data[:, 1:])

    def test_two_columns(self):
        x1, x2 = split(snaps([[1.0, 2.0]]))
        assert x1.shape == (1, 1) and x2.shape == (1, 1)

    def test_shift_by_one(self):
        cols = np.arange(8.0).reshape(2, 4)
        x1, x2 = split(snaps(cols))
        np.testing.assert_array_equal(x1, cols[:, :3])
        np.testing.assert_array_equal(x2, cols[:, 1:])

    def test_single_column_rejected(self):
        with pytest.raises(InsufficientSnapshotsError):
            split(snaps([[1.0]]))


class TestHankelAugment:
    def test_six_snapshots_depth_two(self):
        x = snaps(np.arange(1.0, 7.0).reshape(1, 6))
        pair = hankel_augment(x, 2)
        np.testing.assert_array_equal(pair.x1, [[1, 2, 3, 4], [2, 3, 4, 5]])
        np.testing.assert_array_equal(pair.x2, [[2, 3, 4, 5], [3, 4, 5, 6]])
        assert pair.q == 2 and pair.snapshots.m == 1 and pair.snapshots.n == 6

    def test_depth_one_equals_split(self):
        x = snaps(np.random.default_rng(0).standard_normal((4, 7)))
        pair = hankel_augment(x, 1)
        x1, x2 = split(x)
        np.testing.assert_array_equal(pair.x1, x1)
        np.testing.assert_array_equal(pair.x2, x2)

    def test_scalar_depth_three(self):
        pair = hankel_augment(snaps([[1.0, 2.0, 3.0, 4.0]]), 3)
        np.testing.assert_array_equal(pair.x1, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(pair.x2, [[2.0], [3.0], [4.0]])

    @pytest.mark.parametrize("q", [0, 4, -1])
    def test_invalid_depth(self, q):
        with pytest.raises(InvalidDelayError):
            hankel_augment(snaps(np.ones((2, 4))), q)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
           n=st.integers(3, 10), data=st.data())
    def test_overlap_and_deaugmentation(self, seed, m, n, data):
        q = data.draw(st.integers(1, n - 1))
        x = snaps(np.random.default_rng(seed).standard_normal((m, n)))
        pair = hankel_augment(x, q)
        assert pair.x1.shape == (q * m, n - q)
        # Successive x1 columns overlap with x2 columns shifted by one.
        for j in range(n - q - 1):
            np.testing.assert_array_equal(pair.x2[:, j], pair.x1[:, j + 1])
        # The first m rows reproduce the leading snapshots.
        np.testing.assert_array_equal(pair.x1[:m], x.data[:, : n - q])


class TestDelayEmbedding:
    """The embedding keeps R's Hankel blocks and no basis, and the training
    window it runs on is a view of the data."""

    def test_embedding_holds_about_one_window(self):
        # The QR works on one copy of the window; the window is not copied.
        x = snaps(np.random.default_rng(7).standard_normal((20000, 200)))
        window = 20000 * 174 * 8
        tracemalloc.start()
        try:
            train, _ = train_test_split(x, 174)
            delay_embed(train, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * window

    def test_embedding_keeps_no_window_sized_array(self):
        # Only R's Hankel blocks outlive the call: (2*174)-by-173 here.
        x = snaps(np.random.default_rng(7).standard_normal((20000, 200)))
        train, _ = train_test_split(x, 174)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emb = delay_embed(train, 2)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert emb.compressed.shape == (2 * 174, 173)
        assert grown < 0.1 * 20000 * 174 * 8

    @pytest.mark.parametrize("past", [False, True], ids=["q-0", "q-n"])
    def test_depth_checked_before_the_qr(self, monkeypatch, past):
        def no_qr(*args, **kwargs):
            raise AssertionError("QR run before the depth check")

        x = snaps(np.random.default_rng(5).standard_normal((6, 9)))
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        with pytest.raises(InvalidDelayError, match="1 <= q <= 8"):
            delay_embed(x, x.n if past else 0)


def _rank_two(m, n):
    rng = np.random.default_rng(m + n)
    return rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))


class TestRowBlockedEmbedding:
    """delay_embed builds R from row blocks of the window, R <- R of [R; X_block]."""

    @staticmethod
    def _check_against_explicit(x, q):
        # R* R = X* X, and the compressed Hankel matrix has the explicit one's
        # singular values (any beyond the shorter list are zero).
        r = delay_embed(x, 1).compressed
        gram = x.data.T @ x.data
        assert r.shape == (min(x.m, x.n), x.n)
        assert np.linalg.norm(r.T @ r - gram) <= 1e-12 * np.linalg.norm(gram)
        explicit = np.linalg.svd(hankel_block(x.data, q), compute_uv=False)
        compressed = np.linalg.svd(delay_embed(x, q).compressed, compute_uv=False)
        k = min(explicit.size, compressed.size)
        tol = 1e-12 * explicit[0]
        np.testing.assert_allclose(compressed[:k], explicit[:k], rtol=0, atol=tol)
        assert np.all(explicit[k:] <= tol) and np.all(compressed[k:] <= tol)

    @pytest.mark.parametrize("m, n", [
        (53, 9),    # tall: six blocks of 8 rows and a last one of 5
        (29, 40),   # wide: R gains rows up to M = 29 < N
        (11, 11),   # square, the last block a partial one
    ])
    @pytest.mark.parametrize("q", [1, 3])
    def test_tall_and_wide_windows(self, monkeypatch, m, n, q):
        monkeypatch.setattr(snapshots, "_QR_ROWS", 8)
        x = snaps(np.random.default_rng(m * n).standard_normal((m, n)))
        self._check_against_explicit(x, q)

    @pytest.mark.parametrize("q", [1, 4])
    def test_repeated_columns(self, monkeypatch, q):
        monkeypatch.setattr(snapshots, "_QR_ROWS", 8)
        base = np.random.default_rng(5).standard_normal((37, 6))
        x = snaps(base[:, [0, 1, 1, 2, 3, 3, 3, 4, 5, 0, 2]])
        self._check_against_explicit(x, q)

    @pytest.mark.parametrize("m, n", [(45, 12), (21, 30)])
    def test_rank_deficient_data(self, monkeypatch, m, n):
        monkeypatch.setattr(snapshots, "_QR_ROWS", 8)
        self._check_against_explicit(snaps(_rank_two(m, n)), 3)

    def test_default_blocks_on_a_tall_window(self):
        # Two full blocks and a partial third, at the module's own block size.
        m = 2 * snapshots._QR_ROWS + 77
        x = snaps(np.random.default_rng(3).standard_normal((m, 24)))
        self._check_against_explicit(x, 5)

    @pytest.mark.parametrize("m", [1, 30, snapshots._QR_ROWS])
    def test_one_block_is_one_qr_bit_for_bit(self, m):
        x = snaps(np.random.default_rng(m).standard_normal((m, 40)))
        np.testing.assert_array_equal(delay_embed(x, 1).compressed,
                                      np.linalg.qr(x.data, mode="r"))

    def test_peak_stays_below_a_third_of_the_window(self):
        # One QR of the window copies it whole (a traced peak of one window);
        # by row blocks the copies are of [R; X_block] only.
        x = snaps(np.random.default_rng(11).standard_normal((40000, 174)))
        tracemalloc.start()
        try:
            delay_embed(x, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * x.data.nbytes


class TestColumnNorms:
    # 33 and 49 columns: a last 16-column block would hold one lone column.
    @pytest.mark.parametrize("shape", [(1, 1), (7, 5), (300, 16), (301, 47), (64, 33),
                                       (500, 49), (40, 1)])
    def test_match_numpy_norm_bit_for_bit(self, shape):
        data = np.random.default_rng(shape[1]).standard_normal(shape) * 1e3
        x = snaps(data)
        np.testing.assert_array_equal(x.column_norms, np.linalg.norm(x.data, axis=0))

    def test_views_and_fortran_order_match_too(self):
        data = np.asfortranarray(np.random.default_rng(2).standard_normal((90, 70)))
        data.setflags(write=False)
        x = SnapshotMatrix(data, dt=0.1)
        assert x.data is data
        train, test = train_test_split(x, 37)
        for part in (x, train, test):
            np.testing.assert_array_equal(part.column_norms,
                                          np.linalg.norm(part.data, axis=0))

    def test_computed_once_and_read_only(self):
        x = snaps(np.random.default_rng(4).standard_normal((20, 40)))
        assert x.column_norms is x.column_norms
        assert not x.column_norms.flags.writeable


class TestTrainTestSplit:
    def test_gyre_style_split(self):
        x = snaps(np.random.default_rng(1).standard_normal((3, 200)), dt=0.05)
        train, test = train_test_split(x, 174)
        assert train.n == 174 and test.n == 26

    def test_boundary_single_test_column(self):
        x = snaps(np.ones((2, 5)))
        _, test = train_test_split(x, 4)
        assert test.n == 1

    def test_test_t0_advanced(self):
        x = snaps(np.ones((1, 200)), dt=0.05)
        _, test = train_test_split(x, 174)
        assert test.t0 == pytest.approx(174 * 0.05)  # 8.7 s

    def test_windows_are_views_of_the_data(self):
        x = snaps(np.random.default_rng(1).standard_normal((3, 20)))
        train, test = train_test_split(x, 15)
        assert np.shares_memory(train.data, x.data) and np.shares_memory(test.data, x.data)
        np.testing.assert_array_equal(train.data, x.data[:, :15])
        np.testing.assert_array_equal(test.data, x.data[:, 15:])

    @pytest.mark.parametrize("n_train", [0, 1, 5, 9])
    def test_invalid_split(self, n_train):
        x = snaps(np.ones((2, 5)))
        with pytest.raises(InvalidSplitError):
            train_test_split(x, n_train)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        grid = GridMeta(3, 2, 0.0, 2.0, 0.0, 1.0)
        x = snaps(rng.standard_normal((6, 5)) * 1e-7, dt=0.05, grid=grid, t0=0.3)
        save(x, tmp_path / "demo")
        back = load(tmp_path / "demo")
        assert back.dt == x.dt and back.t0 == x.t0
        assert back.grid == grid
        np.testing.assert_array_equal(back.data, x.data)

    @pytest.mark.parametrize("kw", [
        dict(dt=np.float32(0.5)), dict(t0=np.float32(1.0)),
        dict(grid=GridMeta(3, np.int64(2), 0.0, np.float32(2.0), 0.0, 1.0)),
    ], ids=["dt", "t0", "grid"])
    def test_numpy_scalars_save_and_reload_equal(self, tmp_path, kw):
        x = snaps(np.random.default_rng(3).standard_normal((6, 4)), **kw)
        save(x, tmp_path / "demo")
        back = load(tmp_path / "demo")
        assert (back.dt, back.t0, back.grid) == (x.dt, x.t0, x.grid)
        np.testing.assert_array_equal(back.data, x.data)

    @pytest.mark.parametrize("build,name", [
        (lambda: snaps(np.ones((2, 3)), dt=np.longdouble(1) / 3), "dt"),
        (lambda: snaps(np.ones((2, 3)), t0=2**60 + 1), "t0"),
        (lambda: snaps(np.ones((2, 3)), t0=np.int64(2**60 + 1)), "t0"),
        (lambda: GridMeta(3, 2, 0.0, np.longdouble(2) / 3, 0.0, 1.0), "x_max"),
    ], ids=["dt-longdouble", "t0-int", "t0-int64", "x_max-longdouble"])
    def test_real_no_double_holds_is_refused_naming_it(self, build, name):
        # Its file would hold the nearest double and reload unequal.
        with pytest.raises(InvalidParameterError, match=f"^{name} would reload as"):
            build()

    def test_value_json_cannot_hold_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError, match="complex"):
            snapshots.write_json(tmp_path / "out" / "record.json", {"n": 1, "z": 1j})
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_through_csv_suffix(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d.csv")
        back = load(tmp_path / "d.csv")
        np.testing.assert_array_equal(back.data, x.data)

    def test_missing_dt_named(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["dt"]
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match="dt"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("edit,named", [
        (lambda meta: meta.update(dt="fast"), "'dt'"),
        (lambda meta: meta["grid"].pop("nx"), "'grid'.*'nx'"),
    ], ids=["dt-not-a-number", "grid-without-nx"])
    def test_malformed_field_named(self, tmp_path, edit, named):
        x = snaps(np.ones((6, 3)), grid=GridMeta(3, 2, 0.0, 1.0, 0.0, 1.0))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match=f"d.meta.json.*{named}"):
            load(tmp_path / "d")

    def test_grid_mismatch_is_consistency_error(self, tmp_path):
        x = snaps(np.ones((6, 3)), grid=GridMeta(3, 2, 0.0, 1.0, 0.0, 1.0))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["grid"]["nx"] = 5
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotConsistencyError):
            load(tmp_path / "d")

    def test_dimension_mismatch_is_consistency_error(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["n"] = 7
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotConsistencyError):
            load(tmp_path / "d")

    @pytest.mark.parametrize("key,value", [
        ("m", 2.5), ("n", True), ("m", "2"), ("n", 3.000001),
    ])
    def test_non_integral_dimension_raises_parse_error(self, tmp_path, key, value):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match=f"d.meta.json.*'{key}'.*not an integer"):
            load(tmp_path / "d")

    def test_integral_float_dimensions_load(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta.update(m=2.0, n=3.0)
        meta_path.write_text(json.dumps(meta))
        assert load(tmp_path / "d").data.shape == (2, 3)

    def test_malformed_value_reports_position(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        csv_path = tmp_path / "d.csv"
        lines = csv_path.read_text().splitlines()
        lines[1] = "1,garbage,3"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotParseError, match="line 2, field 2"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_raises_parse_error(self, tmp_path, value):
        save(snaps(np.ones((2, 3))), tmp_path / "d")
        (tmp_path / "d.csv").write_text(f"1,2,3\n4,{value},6\n")
        with pytest.raises(SnapshotParseError, match="d.csv: row 2, field 2: .* not a finite"):
            load(tmp_path / "d")

    def test_sidecar_is_indented_json_with_a_final_newline(self, tmp_path):
        save(snaps(np.ones((2, 3)), dt=0.25, t0=0.5), tmp_path / "new" / "d")
        expected = {"m": 2, "n": 3, "dt": 0.25, "t0": 0.5}
        text = (tmp_path / "new" / "d.meta.json").read_text()
        assert text == json.dumps(expected, indent=2) + "\n"

    def test_only_numpy_grammar_is_read(self, tmp_path):
        # float() reads "1_0" as 10.0; np.loadtxt refuses it, and so does load.
        save(snaps(np.ones((2, 3))), tmp_path / "d")
        (tmp_path / "d.csv").write_text("1,2,3\n4,1_0,6\n")
        with pytest.raises(SnapshotParseError, match="d.csv: .*'1_0'"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("edit", [
        {"nx": 3.7, "ny": 2.2}, {"nx": True}, {"ny": "2"}, {"x_min": "0"},
        {"x_max": float("nan")}, {"y_min": -float("inf")}, {"nx": 0, "ny": 0},
    ], ids=["fractional", "bool", "string-count", "string-extent", "nan", "infinite", "empty"])
    def test_malformed_grid_raises_parse_error(self, tmp_path, edit):
        x = snaps(np.ones((6, 3)), grid=GridMeta(3, 2, 0.0, 1.0, 0.0, 1.0))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["grid"].update(edit)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match="d.meta.json.*'grid'"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("key,value", [
        ("dt", True), ("dt", "0.25"), ("dt", float("nan")), ("dt", float("inf")),
        ("dt", 10**400), ("t0", float("inf")), ("t0", float("nan")), ("t0", False),
    ])
    def test_non_finite_or_non_numeric_time_raises_parse_error(self, tmp_path, key, value):
        save(snaps(np.ones((2, 3))), tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta[key] = value
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match=f"d.meta.json.*'{key}'"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("dt", [0, -1.0])
    def test_non_positive_dt_raises_parse_error(self, tmp_path, dt):
        save(snaps(np.ones((2, 3))), tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["dt"] = dt
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotParseError, match="d.meta.json: dt must be positive"):
            load(tmp_path / "d")

    def test_grid_mismatch_names_the_sidecar(self, tmp_path):
        x = snaps(np.ones((6, 3)), grid=GridMeta(3, 2, 0.0, 1.0, 0.0, 1.0))
        save(x, tmp_path / "d")
        meta_path = tmp_path / "d.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["grid"]["nx"] = 5
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(SnapshotConsistencyError, match="d.meta.json: grid"):
            load(tmp_path / "d")

    @pytest.mark.parametrize("text,named", [
        (b'{"m": 2,\n "n": 3,\n "dt" 0.1}', "invalid JSON at line 3"),
        (b'{"m": 2, "dt": "\xff"}', "not UTF-8 text (byte 16)"),
    ], ids=["not-json", "not-utf8"])
    def test_unreadable_sidecar_names_the_position(self, tmp_path, text, named):
        save(snaps(np.ones((2, 3))), tmp_path / "d")
        (tmp_path / "d.meta.json").write_bytes(text)
        with pytest.raises(SnapshotParseError, match=f"d.meta.json: {re.escape(named)}"):
            load(tmp_path / "d")

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_data_bit_faithful(self, seed, tmp_path_factory):
        # 17 significant digits round-trip IEEE doubles exactly.
        tmp = tmp_path_factory.mktemp("rt")
        rng = np.random.default_rng(seed)
        x = snaps(rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-8, 8))
        save(x, tmp / "d")
        np.testing.assert_array_equal(load(tmp / "d").data, x.data)


class TestIntegral:
    @pytest.mark.parametrize("value", [0, 7, -3, 4.0, 2.0**60])
    def test_integral_numbers_become_ints(self, value):
        out = integral(value)
        assert out == value and type(out) is int

    @pytest.mark.parametrize("value", [True, False, 2.7, float("nan"), float("inf"), "3",
                                       None, [1]])
    def test_anything_else_raises_value_error(self, value):
        with pytest.raises(ValueError, match="not an integer"):
            integral(value)


class TestReal:
    @pytest.mark.parametrize("value", [0, -3, 0.25, 1e300, -2.0**60])
    def test_finite_numbers_become_floats(self, value):
        out = real(value)
        assert out == value and type(out) is float

    @pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"), -float("inf"),
                                       "0.25", None, [1.0]])
    def test_anything_else_raises_value_error(self, value):
        with pytest.raises(ValueError, match="not a finite number"):
            real(value)

    def test_integer_beyond_float_range_is_a_field_error(self):
        with pytest.raises(SnapshotParseError, match="f.json: cannot read field 'dt'"):
            read_field({"dt": 10**400}, "dt", real, "f.json")


class TestOneRuleForTheTimeAxis:
    """``check_time_axis`` is the one rule for dt and t0, in each class that has a time axis."""

    @staticmethod
    def _model(**axis):
        one = np.ones(1, dtype=complex)
        return DmdModel(basis=None, eigenvalues_discrete=one, exponents=one, amplitudes=one,
                        rank=1, q=1, base_m=1, **{"dt": 0.1, **axis})

    BUILDERS = {
        "snapshots": lambda **axis: SnapshotMatrix(np.ones((2, 3)), **{"dt": 0.1, **axis}),
        "model": lambda **axis: TestOneRuleForTheTimeAxis._model(**axis),
        "gyre": lambda **axis: DoubleGyreParams(**axis),
        "signal": lambda **axis: SignalParams(**axis),
    }

    @pytest.mark.parametrize("value", ["0.1", None, True], ids=["string", "none", "bool"])
    @pytest.mark.parametrize("owner", BUILDERS)
    def test_non_number_dt_is_refused(self, owner, value):
        with pytest.raises(InvalidParameterError, match="dt must be positive and finite"):
            self.BUILDERS[owner](dt=value)

    # A signal's t0 of None is its default, the second sample.
    @pytest.mark.parametrize("owner,value", [
        (owner, value) for owner in BUILDERS for value in ("0.1", None, True)
        if not (owner == "signal" and value is None)])
    def test_non_number_t0_is_refused(self, owner, value):
        with pytest.raises(InvalidParameterError, match="t0 must be finite"):
            self.BUILDERS[owner](t0=value)

    @pytest.mark.parametrize("owner", BUILDERS)
    def test_numpy_numbers_pass(self, owner):
        self.BUILDERS[owner](dt=np.float64(0.05), t0=np.int64(1))

    # An int past the float range used to pass as dt and end in a bare
    # TypeError from np.isfinite as t0.
    @pytest.mark.parametrize("axis,message", [
        ({"dt": 10**400}, "dt must be positive and finite"),
        ({"t0": 10**400}, "t0 must be finite"),
        ({"t0": -10**400}, "t0 must be finite"),
    ], ids=["dt", "t0", "negative-t0"])
    @pytest.mark.parametrize("owner", BUILDERS)
    def test_an_int_beyond_the_float_range_is_refused(self, owner, axis, message):
        with pytest.raises(InvalidParameterError,
                           match=f"{message}, got a number beyond the float range$"):
            self.BUILDERS[owner](**axis)

    @pytest.mark.parametrize("axis,shown", [
        ({"dt": "0.1"}, "dt must be positive and finite, got '0.1'"),
        ({"dt": None}, "dt must be positive and finite, got None"),
        ({"dt": np.float64(-0.5)}, "dt must be positive and finite, got -0.5"),
        ({"dt": 0}, "dt must be positive and finite, got 0.0"),
        ({"t0": np.float64(np.nan)}, "t0 must be finite, got nan"),
        ({"t0": "1"}, "t0 must be finite, got '1'"),
    ], ids=["string-dt", "none-dt", "numpy-dt", "zero-dt", "nan-t0", "string-t0"])
    def test_a_number_is_shown_as_a_number_and_anything_else_by_repr(self, axis, shown):
        with pytest.raises(InvalidParameterError) as info:
            SnapshotMatrix(np.ones((2, 3)), **{"dt": 0.1, **axis})
        assert str(info.value) == shown


class TestCallerArrays:
    """Snapshot data numpy cannot read as a real matrix is a typed error."""

    @pytest.mark.parametrize("data", [
        [[1.0, 2.0], [3.0]],
        [["a", "b"]],
        np.ones((2, 3)) + 1j,
        np.ones((2, 3), dtype=complex),
    ], ids=["ragged", "strings", "complex", "complex-zero-imaginary"])
    def test_unreadable_data_is_refused(self, data):
        with pytest.raises(InvalidParameterError,
                           match="data must be a finite real .*non-numeric or complex"):
            SnapshotMatrix(data, dt=1.0)

    def test_nested_lists_are_converted(self):
        x = SnapshotMatrix([[1, 2], [3, 4]], dt=1.0)
        assert x.data.dtype == float and not x.data.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda base: base.view(np.matrix),
        lambda base: base.view(type("Sub", (np.ndarray,), {})),
        lambda base: base[:, ::2],
    ], ids=["matrix-subclass", "ndarray-subclass", "strided-view"])
    def test_writeable_arrays_are_copied(self, make):
        # np.asarray passes each of these through as a view, so only a copy keeps them apart.
        given = make(np.arange(24.0).reshape(4, 6))
        x = SnapshotMatrix(given, dt=1.0)
        assert not np.shares_memory(x.data, given) and type(x.data) is np.ndarray
        np.testing.assert_array_equal(x.data, np.asarray(given))

    @pytest.mark.parametrize("make", [
        lambda: np.ones((1000, 200)),
        lambda: np.ones((1000, 200), dtype=np.int64),
        lambda: np.ones((1000, 200)).view(type("Sub", (np.ndarray,), {})),
    ], ids=["float", "int", "subclass"])
    def test_other_arrays_are_copied_once(self, make):
        given = make()
        tracemalloc.start()
        try:
            SnapshotMatrix(given, dt=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * given.size * 8


class TestCheckArray:
    """``check_array`` is the one rule for an array argument: its conversion, axes and values."""

    @pytest.mark.parametrize("value,shape,dtype,message", [
        ([[1.0], [2.0, 3.0]], (None, None), float,
         "v must be a finite real array of shape (>=1, >=1), got a ragged, non-numeric or "
         "complex value"),
        ([["a"]], (None, None), None,
         "v must be a finite numeric array of shape (>=1, >=1), got a ragged, non-numeric value"),
        (np.ones((3, 4)), (2, None), float,
         "v must be a finite real array of shape (2, >=1), got shape (3, 4)"),
        (np.ones((2, 0)), (2, None), float,
         "v must be a finite real array of shape (2, >=1), got shape (2, 0)"),
        (np.ones(3), (4,), None, "v must be a finite numeric array of shape (4,), got shape (3,)"),
        (np.ones((2, 2, 1)), (None, None), float,
         "v must be a finite real array of shape (>=1, >=1), got shape (2, 2, 1)"),
        (np.array([1.0, -np.inf]), (2,), float,
         "v must be a finite real array of shape (2,), got a NaN or an infinity"),
        (np.array([0, complex(1, np.inf), 2]), (3,), None,
         "v must be a finite numeric array of shape (3,), got a NaN or an infinity"),
        (np.array([0, complex(np.nan, 0), 2]), (3,), None,
         "v must be a finite numeric array of shape (3,), got a NaN or an infinity"),
    ], ids=["ragged", "text", "rows", "no-columns", "length", "axes", "inf", "imaginary-inf",
            "complex-nan"])
    def test_refused_naming_it(self, value, shape, dtype, message):
        with pytest.raises(InvalidParameterError) as refused:
            check_array("v", value, shape, dtype)
        assert type(refused.value) is InvalidParameterError and str(refused.value) == message

    @pytest.mark.parametrize("value", [np.ones((2, 3)), np.ones((2, 3), dtype=complex),
                                       np.ones((2, 3), dtype=np.int64)],
                             ids=["float", "complex", "int"])
    def test_none_dtype_keeps_the_array(self, value):
        assert check_array("v", value, (2, 3), None) is value

    def test_float_dtype_converts_only_what_needs_it(self):
        x = np.ones((2, 3))
        assert check_array("v", x, (None, 3)) is x
        assert check_array("v", [[1, 2]], (1, 2)).dtype == float

    def test_a_fixed_zero_length_is_a_length(self):
        assert check_array("v", np.ones((0, 3)), (0, None)).shape == (0, 3)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_no_mask_the_size_of_the_value(self, dtype):
        x = np.ones((1000, 200), dtype=dtype)
        x[500, 100] = 2.0
        tracemalloc.start()
        try:
            check_array("v", x, (None, None), None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 100


class TestCheckReal:
    """``check_real`` is the one rule for a real parameter and its range."""

    @pytest.mark.parametrize("value,bounds,match", [
        (0, {"low": 0}, "v must be positive and finite, got 0.0"),
        (-1e-300, {"low": 0, "closed": True}, "v must be nonnegative and finite, got -1e-300"),
        (np.inf, {}, "v must be finite, got inf"),
        (0.5, {"low": 0, "high": 0.5, "closed": True}, r"v must lie in \[0, 0.5\), got 0.5"),
        (1, {"low": 0, "high": 1}, r"v must lie in \(0, 1\), got 1.0"),
        (np.nan, {"low": 0, "high": 1}, r"v must lie in \(0, 1\), got nan"),
        (True, {}, "v must be finite, got True"),
        (1j, {}, r"v must be finite, got 1j"),
        (10**400, {}, "v must be finite, got a number beyond the float range"),
        (np.ones(1), {}, r"v must be finite, got array\(\[1.\]\)"),
        (0.5, {"low": 1}, r"v must lie in \(1, inf\), got 0.5"),
        (np.nan, {"closed": True}, r"v must lie in \[-inf, inf\), got nan"),
    ], ids=["open-zero", "closed-negative", "infinite", "closed-top", "open-top", "nan", "bool",
            "complex", "huge", "array", "other-low", "closed-unbounded"])
    def test_refused_with_its_range(self, value, bounds, match):
        with pytest.raises(InvalidParameterError, match=match):
            check_real("v", value, **bounds)

    @pytest.mark.parametrize("value,bounds", [
        (0, {"low": 0, "closed": True}),
        (-0.0, {"low": 0, "closed": True}),
        (np.float32(0.25), {"low": 0, "high": 0.5, "closed": True}),
        (np.int64(-3), {}),
        (-(2**1000), {}),
    ], ids=["closed-zero", "negative-zero", "float32", "numpy-int", "big-int"])
    def test_accepted(self, value, bounds):
        check_real("v", value, **bounds)

    def test_parameters_are_kept_as_given(self):
        amp = np.float32(0.1)
        assert DoubleGyreParams(amp=amp).amp is amp
        x_max = GridMeta(3, 3, 0, 2, 0, 1).x_max
        assert x_max == 2 and type(x_max) is int
