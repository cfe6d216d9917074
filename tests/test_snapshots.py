"""Snapshot model, delay embedding and persistence."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaydmd.errors import (
    InsufficientSnapshotsError,
    InvalidDelayError,
    InvalidParameterError,
    InvalidSplitError,
    SnapshotConsistencyError,
    SnapshotParseError,
)
from delaydmd.snapshots import (
    GridMeta,
    SnapshotMatrix,
    hankel_augment,
    load,
    save,
    split,
    train_test_split,
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
        np.testing.assert_array_equal(pair.x1_aug, [[1, 2, 3, 4], [2, 3, 4, 5]])
        np.testing.assert_array_equal(pair.x2_aug, [[2, 3, 4, 5], [3, 4, 5, 6]])
        assert pair.q == 2 and pair.base_m == 1 and pair.base_n == 6

    def test_depth_one_equals_split(self):
        x = snaps(np.random.default_rng(0).standard_normal((4, 7)))
        pair = hankel_augment(x, 1)
        x1, x2 = split(x)
        np.testing.assert_array_equal(pair.x1_aug, x1)
        np.testing.assert_array_equal(pair.x2_aug, x2)

    def test_scalar_depth_three(self):
        pair = hankel_augment(snaps([[1.0, 2.0, 3.0, 4.0]]), 3)
        np.testing.assert_array_equal(pair.x1_aug, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(pair.x2_aug, [[2.0], [3.0], [4.0]])

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
        assert pair.x1_aug.shape == (q * m, n - q)
        # Successive x1 columns overlap with x2 columns shifted by one.
        for j in range(n - q - 1):
            np.testing.assert_array_equal(pair.x2_aug[:, j], pair.x1_aug[:, j + 1])
        # The first m rows reproduce the leading snapshots.
        np.testing.assert_array_equal(pair.x1_aug[:m], x.data[:, : n - q])


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

    def test_malformed_value_reports_position(self, tmp_path):
        x = snaps(np.ones((2, 3)))
        save(x, tmp_path / "d")
        csv_path = tmp_path / "d.csv"
        lines = csv_path.read_text().splitlines()
        lines[1] = "1,garbage,3"
        csv_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SnapshotParseError, match="line 2, field 2"):
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
