"""Operator construction, Arnoldi iteration and sketch application."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delaydmd.errors import (
    InvalidDelayError,
    InvalidParameterError,
    InvalidStartVectorError,
    RankDeficientBasisError,
    ShapeMismatchError,
)
from delaydmd.projections import (
    ProjectionOperator,
    achlioptas_operator,
    apply,
    arnoldi,
    gaussian_operator,
    gram_deviation,
    identity_operator,
    krylov_operator,
    sampling_operator,
)
from delaydmd.snapshots import hankel_block


class TestSamplingOperator:
    def test_full_sampling_is_permuted_identity(self):
        op = sampling_operator(6, 6, seed=0)
        np.testing.assert_array_equal(op.matrix @ op.matrix.T, np.eye(6))
        np.testing.assert_array_equal(np.sort(op.indices), np.arange(6))

    def test_large_draw_reproducible(self):
        a = sampling_operator(10000, 100, seed=5)
        b = sampling_operator(10000, 100, seed=5)
        np.testing.assert_array_equal(a.indices, b.indices)
        assert len(set(a.indices.tolist())) == 100
        assert np.all(np.diff(a.indices) > 0)

    def test_single_sensor(self):
        op = sampling_operator(8, 1, seed=1)
        x = np.arange(24.0).reshape(8, 3)
        np.testing.assert_array_equal(apply(op, x), x[op.indices, :])

    def test_count_validation(self):
        with pytest.raises(InvalidParameterError):
            sampling_operator(4, 5, seed=0)


class TestGaussianOperator:
    def test_shape(self):
        op = gaussian_operator(10000, 200, seed=2)
        assert op.matrix.shape == (200, 10000)

    def test_column_gram_diagonal_near_one(self):
        # Entry variance 1/a makes expected column norms one.
        op = gaussian_operator(2000, 200, seed=3)
        diag = np.sum(op.matrix**2, axis=0)
        assert 0.9 < float(np.mean(diag)) < 1.1

    def test_deterministic(self):
        a = gaussian_operator(50, 10, seed=4).matrix
        b = gaussian_operator(50, 10, seed=4).matrix
        np.testing.assert_array_equal(a, b)


class TestAchlioptasOperator:
    def test_dense_two_point_at_s1(self):
        op = achlioptas_operator(300, 40, s=1, seed=5)
        scale = 1.0 / np.sqrt(40)
        values = np.unique(op.matrix)
        np.testing.assert_allclose(values, [-scale, scale])

    def test_zero_fraction_at_s3(self):
        op = achlioptas_operator(2000, 100, s=3, seed=6)  # a*D = 2e5
        zero_frac = float(np.mean(op.matrix == 0.0))
        assert abs(zero_frac - 2.0 / 3.0) < 0.01

    def test_second_moment(self):
        op = achlioptas_operator(2000, 100, s=3, seed=7)
        rescaled = op.matrix * np.sqrt(100)
        assert abs(float(np.mean(rescaled**2)) - 1.0) < 0.05

    def test_invalid_sparsity(self):
        with pytest.raises(InvalidParameterError):
            achlioptas_operator(10, 2, s=2, seed=0)


class TestIdentityOperator:
    def test_stores_no_matrix(self):
        tracemalloc.start()
        try:
            op = identity_operator(5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert op.d == op.a == 5000

    @pytest.mark.parametrize("kind", ["sampling", "gaussian", "achlioptas", "krylov"])
    def test_other_kinds_need_a_matrix(self, kind):
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind=kind, matrix=None, a=3, seed=0)


class TestArnoldi:
    def test_identity_breaks_down_at_step_one(self):
        b = np.array([3.0, 0.0, 4.0])
        res = arnoldi(np.eye(3), b, m=3)
        assert res.breakdown and res.steps_completed == 1
        np.testing.assert_allclose(res.v_basis[:, 0], b / 5.0)
        assert res.v_basis.shape == (3, 1)

    def test_eigenvector_start_breaks_down(self):
        a = np.diag(np.arange(1.0, 6.0))
        res = arnoldi(a, np.eye(5)[:, 0], m=4)
        assert res.breakdown and res.steps_completed == 1

    def test_orthonormal_basis_and_relation(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((200, 200))
        res = arnoldi(a, np.ones(200), m=50)
        assert not res.breakdown and res.steps_completed == 50
        v = res.v_basis
        assert v.shape == (200, 51)
        assert np.max(np.abs(v.T @ v - np.eye(51))) < 1e-10
        lhs = a @ v[:, :50]
        rhs = v @ res.hessenberg
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(a) < 1e-8

    def test_hessenberg_structure(self):
        rng = np.random.default_rng(9)
        res = arnoldi(rng.standard_normal((30, 30)), np.ones(30), m=10)
        h = res.hessenberg
        assert h.shape == (11, 10)
        for i in range(11):
            for j in range(10):
                if i > j + 1:
                    assert h[i, j] == 0.0

    def test_zero_start_vector(self):
        with pytest.raises(InvalidStartVectorError):
            arnoldi(np.eye(3), np.zeros(3), m=2)


class TestKrylovOperator:
    def test_rows_orthonormal(self):
        op = krylov_operator(400, 30, seed=10)
        gram = op.matrix @ op.matrix.T
        assert np.max(np.abs(gram - np.eye(op.a))) < 1e-10

    def test_row_count_is_steps_plus_one(self):
        op = krylov_operator(2000, 99, seed=11)
        assert op.a == 100 and op.matrix.shape == (100, 2000)

    def test_energy_preserved_in_row_span(self):
        op = krylov_operator(300, 20, seed=12)
        c = np.random.default_rng(0).standard_normal(op.a)
        x = op.matrix.T @ c
        assert np.linalg.norm(op.matrix @ x[:, None]) == pytest.approx(
            np.linalg.norm(x), abs=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(InvalidParameterError):
            krylov_operator(10, 10, seed=0)

    def test_ones_row_then_orthogonal_complement(self):
        d = 500
        op = krylov_operator(d, 40, seed=17)
        np.testing.assert_allclose(op.matrix[0], 1.0 / np.sqrt(d), rtol=0, atol=1e-12)
        assert np.max(np.abs(op.matrix[1:] @ np.ones(d))) < 1e-12
        assert np.max(np.abs(op.matrix @ op.matrix.T - np.eye(op.a))) < 1e-12

    def test_full_size(self):
        # The stock double-gyre size: q = 2 embedding of a 100x100 grid.
        op = krylov_operator(20000, 99, seed=18)
        assert op.matrix.shape == (100, 20000)
        assert gram_deviation(op) < 1e-12
        np.testing.assert_allclose(op.matrix[0], 1.0 / np.sqrt(20000), rtol=0, atol=1e-12)

    def test_rank_loss_raises(self, monkeypatch):
        # A Gaussian block loses rank with probability zero, so feed one
        # whose random columns repeat the ones vector.
        class OnesGenerator:
            def standard_normal(self, shape):
                return np.ones(shape)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: OnesGenerator())
        with pytest.raises(RankDeficientBasisError):
            krylov_operator(50, 3, seed=0)


class TestApply:
    def test_identity_passthrough(self):
        op = identity_operator(4)
        x = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(apply(op, x), x)

    def test_sampling_extracts_rows(self):
        indices = np.array([2, 5])
        matrix = np.zeros((2, 6))
        matrix[[0, 1], indices] = 1.0
        op = ProjectionOperator(kind="sampling", matrix=matrix, a=2, seed=None,
                                indices=indices)
        x = np.arange(18.0).reshape(6, 3)
        np.testing.assert_array_equal(apply(op, x), x[[2, 5], :])

    def test_achlioptas_sparse_equals_dense(self):
        op = achlioptas_operator(500, 60, s=3, seed=13)
        x = np.random.default_rng(1).standard_normal((500, 20))
        sparse = apply(op, x)
        dense = op.matrix @ x
        assert np.max(np.abs(sparse - dense)) < 1e-12

    def test_shape_mismatch(self):
        op = gaussian_operator(10, 3, seed=0)
        with pytest.raises(ShapeMismatchError):
            apply(op, np.ones((11, 2)))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(-5, 5), beta=st.floats(-5, 5))
    def test_linearity(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        op = gaussian_operator(12, 4, seed=seed % 1000)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal((12, 3))
        lhs = apply(op, alpha * x + beta * y)
        rhs = alpha * apply(op, x) + beta * apply(op, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _operator(kind, d, a, seed):
    if kind == "identity":
        return identity_operator(d)
    if kind == "sampling":
        return sampling_operator(d, a, seed)
    if kind == "gaussian":
        return gaussian_operator(d, a, seed)
    if kind == "achlioptas":
        return achlioptas_operator(d, a, 3, seed)
    return krylov_operator(d, a - 1, seed)


class TestStreamedSketch:
    """``apply(op, x, q)`` projects the depth-q Hankel matrix of x unformed."""

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["identity", "sampling", "gaussian", "achlioptas",
                                 "krylov"]),
           q=st.integers(1, 4), m=st.integers(1, 12), extra=st.integers(1, 30),
           a_frac=st.floats(0.1, 1.0), seed=st.integers(0, 2**16))
    def test_matches_explicit_hankel(self, kind, q, m, extra, a_frac, seed):
        # n = q + extra columns, so both wide (m < n) and tall (m > n) data occur.
        x = np.random.default_rng(seed).standard_normal((m, q + extra))
        d = q * m
        a = max(1, int(a_frac * d))
        if kind == "krylov":
            assume(d >= 3)  # the start vector plus at least one random row
            a = min(max(a, 2), d)
        op = _operator(kind, d, a, seed)
        streamed = apply(op, x, q)
        explicit = apply(op, hankel_block(x, q))
        assert streamed.shape == explicit.shape == (op.a, x.shape[1] - q + 1)
        if kind in ("identity", "sampling"):
            np.testing.assert_array_equal(streamed, explicit)
        else:
            scale = max(np.linalg.norm(explicit), 1.0)
            assert np.linalg.norm(streamed - explicit) <= 1e-12 * scale

    def test_depth_times_rows_must_match(self):
        op = gaussian_operator(12, 3, seed=0)
        x = np.ones((4, 10))
        apply(op, x, 3)
        with pytest.raises(ShapeMismatchError):
            apply(op, x, 2)
        with pytest.raises(ShapeMismatchError):
            apply(sampling_operator(12, 3, seed=0), np.ones((5, 10)), 3)

    @pytest.mark.parametrize("q", [0, -1, 10, 11])
    def test_bad_depth_raises(self, q):
        op = gaussian_operator(4, 2, seed=0)
        with pytest.raises(InvalidDelayError):
            apply(op, np.ones((4, 10)), q)

    def test_depth_one_accepts_a_single_column(self):
        op = gaussian_operator(4, 2, seed=0)
        x = np.arange(4.0)[:, None]
        np.testing.assert_array_equal(apply(op, x, 1), op.matrix @ x)

    @pytest.mark.parametrize("factory", [
        lambda d: gaussian_operator(d, 40, seed=1),
        lambda d: sampling_operator(d, 40, seed=1),
    ])
    def test_no_hankel_sized_allocation(self, factory):
        m, n, q = 400, 120, 8
        x = np.random.default_rng(2).standard_normal((m, n))
        op = factory(q * m)
        hankel_bytes = q * m * (n - q + 1) * 8
        tracemalloc.start()
        try:
            apply(op, x, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < hankel_bytes / 4


class TestPinnedDraws:
    """A given seed keeps mapping to the same operator."""

    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_achlioptas_matches_choice_reference(self, s, seed):
        d, a = 301, 17
        rng = np.random.default_rng(seed)
        probs = [1.0 / (2 * s), 1.0 - 1.0 / s, 1.0 / (2 * s)]
        reference = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(a, d), p=probs)
        reference *= np.sqrt(s) / np.sqrt(a)
        np.testing.assert_array_equal(achlioptas_operator(d, a, s, seed).matrix, reference)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_gaussian_matches_normal_reference(self, seed):
        d, a = 301, 17
        reference = np.random.default_rng(seed).standard_normal((a, d)) / np.sqrt(a)
        np.testing.assert_array_equal(gaussian_operator(d, a, seed).matrix, reference)


class TestGramDeviation:
    def test_sampling_exactly_zero(self):
        assert gram_deviation(sampling_operator(50, 12, seed=14)) == 0.0

    def test_identity_exactly_zero(self):
        assert gram_deviation(identity_operator(40)) == 0.0

    def test_krylov_tiny(self):
        assert gram_deviation(krylov_operator(200, 20, seed=15)) < 1e-10

    def test_gaussian_scale(self):
        # With entry variance 1/a the row gram concentrates near (D/a) * I,
        # so the deviation lands near D/a - 1.
        op = gaussian_operator(5000, 50, seed=16)
        value = gram_deviation(op)
        expected = 5000 / 50 - 1
        assert 0.7 * expected < value < 1.3 * expected


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda seed: sampling_operator(200, 20, seed),
        lambda seed: gaussian_operator(200, 20, seed),
        lambda seed: achlioptas_operator(200, 20, 3, seed),
        lambda seed: krylov_operator(200, 19, seed),
    ])
    def test_pure_function_of_seed(self, factory):
        np.testing.assert_array_equal(factory(21).matrix, factory(21).matrix)
        assert np.any(factory(21).matrix != factory(22).matrix)
