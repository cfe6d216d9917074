"""Operator construction, Arnoldi iteration and sketch application."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from delaydmd import projections
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
from delaydmd.snapshots import SnapshotMatrix, hankel_block


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

    def test_is_the_sampling_of_every_row(self):
        op = identity_operator(7)
        assert op.kind == "sampling" and op.a == op.d == 7
        np.testing.assert_array_equal(op.indices, np.arange(7))
        np.testing.assert_array_equal(op.matrix, np.eye(7))

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

    @pytest.mark.parametrize("name", ["a_matrix", "b"])
    def test_complex_input_is_refused(self, name):
        # The imaginary part used to be dropped with only a ComplexWarning.
        args = {"a_matrix": np.diag([1.0, 2.0, 3.0]), "b": np.ones(3)}
        args[name] = args[name] + 1j
        with pytest.raises(InvalidParameterError, match=f"{name} must be a finite real .*complex"):
            arnoldi(args["a_matrix"], args["b"], m=2)


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
        # whose random columns repeat the ones vector. The build draws
        # nothing, so the first use of the rows raises.
        class OnesGenerator:
            def standard_normal(self, shape):
                return np.ones(shape)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: OnesGenerator())
        op = krylov_operator(50, 3, seed=0)
        with pytest.raises(RankDeficientBasisError):
            apply(op, np.ones((50, 4)))
        with pytest.raises(RankDeficientBasisError):
            op.matrix


class NearlyRepeatedRow:
    """A generator whose random row 2 is random row 1 plus 1e-10 of fresh noise,
    so a Krylov block drawn from it has condition number about 1e10, past
    CholeskyQR's limit."""

    def __init__(self, seed):
        self.draws = np.random.Generator(np.random.PCG64(seed))
        self.noise = np.random.Generator(np.random.PCG64(seed + 100))

    def standard_normal(self, shape):
        z = self.draws.standard_normal(shape)
        z[:, 1] = z[:, 0] + 1e-10 * self.noise.standard_normal(shape[0])
        return z


def householder_krylov(d, a, seed):
    """The Krylov rows as Q* of numpy's Householder QR, signs fixed so diag(R) > 0."""
    rng = np.random.default_rng(seed)
    block = np.column_stack([np.full(d, 1.0 / np.sqrt(d)), rng.standard_normal((d, a))])
    q, r = np.linalg.qr(block)
    return (q * np.sign(np.diag(r))).T


_HOUSEHOLDER_CASES = [(20000, 99, 0), (500, 40, 3), (101, 50, 4), (7, 3, 5), (2, 1, 6),
                      (10, 9, 7), (300, 299, 8)]


class TestKrylovCholeskyBuild:
    def test_build_holds_one_operator(self):
        tracemalloc.start()
        try:
            op = krylov_operator(20000, 99, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * op.matrix.nbytes

    @pytest.mark.parametrize("d,a,seed", _HOUSEHOLDER_CASES)
    def test_matches_householder_reference(self, d, a, seed):
        op = krylov_operator(d, a, seed)
        assert np.max(np.abs(op.matrix - householder_krylov(d, a, seed))) < 1e-13

    @pytest.mark.parametrize("d,a,seed", _HOUSEHOLDER_CASES)
    def test_apply_orthonormalizes_after_the_sum_as_the_rows_do(self, d, a, seed):
        # apply multiplies the raw sketch by the inverse factors, .matrix the raw rows.
        op = krylov_operator(d, a, seed)
        x = np.random.default_rng(seed).standard_normal((d, 7))
        expected = op.matrix @ x
        assert np.linalg.norm(apply(op, x) - expected) <= 1e-13 * np.linalg.norm(expected)

    @settings(deadline=None, max_examples=60)
    @given(d=st.integers(2, 40), square=st.booleans(), a=st.integers(1, 39),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_orthonormal_with_ones_row(self, d, square, a, seed):
        a = d - 1 if square else min(a, d - 1)
        op = krylov_operator(d, a, seed)
        assert np.max(np.abs(op.matrix @ op.matrix.T - np.eye(a + 1))) < 1e-12
        np.testing.assert_allclose(op.matrix[0], 1.0 / np.sqrt(d), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_ill_conditioned_block_raises(self, monkeypatch, seed):
        # The build draws nothing; the first use of the rows raises.
        monkeypatch.setattr(np.random, "default_rng", lambda _: NearlyRepeatedRow(seed))
        op = krylov_operator(200, 5, seed=0)
        out = None
        with pytest.raises(RankDeficientBasisError):
            out = apply(op, np.ones((100, 8)), 2)
        assert out is None
        with pytest.raises(RankDeficientBasisError):
            op.matrix

    def test_read_only_c_contiguous_matrix_is_copied(self):
        # Every explicit matrix is copied once, even one that could be kept as it is.
        m = np.random.default_rng(0).standard_normal((3, 8))
        m.setflags(write=False)
        op = ProjectionOperator("krylov", m, 3, None)
        assert not np.shares_memory(op.matrix, m)
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, m)

    @pytest.mark.parametrize("prepare,freeze", [
        (lambda m: m, False),
        (np.asfortranarray, True),
        (lambda m: m.astype(np.float32), True),
    ], ids=["writable", "read-only-fortran", "read-only-float32"])
    def test_other_matrices_are_copied(self, prepare, freeze):
        m = prepare(np.random.default_rng(0).standard_normal((3, 8)))
        m.setflags(write=not freeze)
        op = ProjectionOperator("krylov", m, 3, None)
        assert not np.shares_memory(op.matrix, m)
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, m)


class TestApply:
    def test_identity_passthrough(self):
        op = identity_operator(4)
        x = np.arange(8.0).reshape(4, 2)
        np.testing.assert_array_equal(apply(op, x), x)

    def test_sampling_extracts_rows(self):
        op = ProjectionOperator(kind="sampling", matrix=None, a=2, seed=None,
                                indices=np.array([2, 5]), d=6)
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

    def test_one_dimensional_data_refused(self):
        op = gaussian_operator(10, 3, seed=0)
        with pytest.raises(InvalidParameterError, match=r"x must be .*, got shape \(10,\)"):
            apply(op, np.ones(10))

    @pytest.mark.parametrize("kind", ["sampling", "gaussian"])
    def test_complex_data_refused(self, kind):
        # The imaginary part used to be dropped with only a ComplexWarning.
        op = _operator(kind, 10, 3, 0)
        with pytest.raises(InvalidParameterError, match="x must be a finite real .*complex value"):
            apply(op, np.ones((10, 4), dtype=complex))

    def test_real_data_is_not_copied(self):
        # The complex test reads the dtype; a float window is used in place.
        x = np.random.default_rng(2).standard_normal((4000, 50))
        op = sampling_operator(4000, 3, seed=0)
        tracemalloc.start()
        try:
            apply(op, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 10

    @pytest.mark.parametrize("kind", ["sampling", "gaussian", "achlioptas", "krylov"])
    @pytest.mark.parametrize("q", [1, 3])
    def test_snapshot_matrix_is_its_data_read_once(self, monkeypatch, kind, q):
        # Its data was checked when the matrix was made, so apply does not read it again.
        x = SnapshotMatrix(np.random.default_rng(3).standard_normal((40, 12)), dt=0.1)
        op = _operator(kind, 40 * q, 6, 5)
        expected = apply(op, x.data, q)
        monkeypatch.setattr(projections, "check_array", None)  # any call would fail
        np.testing.assert_array_equal(apply(op, x, q), expected)
        monkeypatch.undo()
        with pytest.raises(InvalidParameterError, match="x must be a finite real .*a NaN"):
            apply(op, np.where(np.arange(12) == 7, np.nan, x.data), q)

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
        children = np.random.SeedSequence(seed).spawn(a)
        reference = np.stack([np.random.default_rng(child).standard_normal(d)
                              for child in children]) / np.sqrt(a)
        np.testing.assert_array_equal(gaussian_operator(d, a, seed).matrix, reference)

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_gaussian_row_depends_only_on_seed_and_index(self, seed):
        d = 301
        few = gaussian_operator(d, 3, seed).matrix * np.sqrt(3)
        more = gaussian_operator(d, 7, seed).matrix * np.sqrt(7)
        np.testing.assert_allclose(more[:3], few, rtol=1e-15, atol=0)


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


def _dense_deviation(matrix):
    a = matrix.shape[0]
    return float(np.linalg.norm(matrix @ matrix.T - np.eye(a)) / np.sqrt(a))


def _traced_peak(func):
    tracemalloc.start()
    try:
        result = func()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


_SEEDED = [
    pytest.param(lambda d, a, seed: gaussian_operator(d, a, seed), id="gaussian"),
    pytest.param(lambda d, a, seed: achlioptas_operator(d, a, 1, seed), id="achlioptas-s1"),
    pytest.param(lambda d, a, seed: achlioptas_operator(d, a, 3, seed), id="achlioptas-s3"),
]


class TestRegeneratedOperators:
    """Seeded kinds store what regenerates their rows, not the a-by-D matrix."""

    @pytest.mark.parametrize("factory", _SEEDED)
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    @pytest.mark.parametrize("before_augment", [False, True], ids=["after", "before"])
    def test_apply_matches_dense_bit_for_bit(self, factory, q, before_augment):
        m, n = 37, 25
        x = np.random.default_rng(q).standard_normal((m, n))
        depth = 1 if before_augment else q
        op = factory(m * depth, 9, 40 + q)
        dense = ProjectionOperator(kind=op.kind, matrix=op.matrix, a=op.a, seed=None)
        streamed = apply(op, x, depth)
        np.testing.assert_array_equal(streamed, apply(dense, x, depth))
        if before_augment:
            np.testing.assert_array_equal(hankel_block(streamed, q),
                                          hankel_block(apply(dense, x), q))

    @pytest.mark.parametrize("factory", _SEEDED)
    @pytest.mark.parametrize("applied", [False, True], ids=["standalone", "after-apply"])
    def test_gram_deviation_matches_dense_formula(self, factory, applied):
        m, q, a = 300, 4, 30
        op = factory(q * m, a, 3)
        if applied:
            apply(op, np.random.default_rng(0).standard_normal((m, 12)), q)
        expected = _dense_deviation(op.matrix)
        assert gram_deviation(op) == pytest.approx(expected, rel=1e-12, abs=0)
        assert gram_deviation(op) == gram_deviation(op)

    def test_gram_deviation_is_the_same_before_and_after_apply(self):
        # An apply sweeps its own panel partition, which must not leak into
        # the value in the last bits.
        x = np.random.default_rng(5).standard_normal((10000, 20))
        before = gram_deviation(achlioptas_operator(20000, 100, 3, 5))
        op = achlioptas_operator(20000, 100, 3, 5)
        apply(op, x, 2)
        assert gram_deviation(op) == before

    @pytest.mark.parametrize("factory", _SEEDED + [
        pytest.param(lambda d, a, seed: sampling_operator(d, a, seed), id="sampling"),
        pytest.param(lambda d, a, seed: krylov_operator(d, a - 1, seed), id="krylov"),
    ])
    def test_apply_writes_nothing_to_the_operator(self, factory):
        m, q = 300, 2
        op = factory(q * m, 20, 7)
        before = dict(vars(op))
        apply(op, np.random.default_rng(1).standard_normal((m, 12)), q)
        assert vars(op).keys() == before.keys()
        assert all(vars(op)[k] is v for k, v in before.items())

    def test_matrix_is_built_afresh(self):
        op = gaussian_operator(50, 5, seed=1)
        first, second = op.matrix, op.matrix
        assert first is not second
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("factory", _SEEDED + [
        pytest.param(lambda d, a, seed: sampling_operator(d, a, seed), id="sampling"),
    ])
    def test_no_operator_sized_array_is_held(self, factory):
        d, a = 4000, 20
        op = factory(d, a, 2)
        held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert all(v.size < a * d for v in held)

    def test_gaussian_memory_stays_below_the_dense_matrix(self):
        m, q, n, a = 2000, 8, 30, 50
        dense_bytes = a * q * m * 8
        x = np.random.default_rng(3).standard_normal((m, n))
        op, build_peak = _traced_peak(lambda: gaussian_operator(q * m, a, seed=4))
        _, apply_peak = _traced_peak(lambda: apply(op, x, q))
        fresh = gaussian_operator(q * m, a, seed=4)
        _, gram_peak = _traced_peak(lambda: gram_deviation(fresh))
        assert max(build_peak, apply_peak, gram_peak) < dense_bytes / 4

    def test_gaussian_build_draws_nothing(self):
        d = 2_000_000
        op, peak = _traced_peak(lambda: gaussian_operator(d, 50, seed=0))
        assert op.d == d
        assert peak < d * 8

    def test_large_sampling_build_is_small(self):
        op, peak = _traced_peak(lambda: sampling_operator(200000, 100, seed=5))
        assert op.d == 200000 and op.indices.shape == (100,)
        assert peak < 2**20


class TestPanelBudget:
    """apply regenerates or slices panels of a bounded number of entries."""

    @pytest.mark.parametrize("m", [20000, 40000])
    def test_gaussian_peak_does_not_grow_with_the_state(self, m):
        # One a-by-M panel per delay block would be 32 MB at M = 20000 and
        # 64 MB at M = 40000; panels of 2**19 entries are 4 MB at both.
        x = np.random.default_rng(m).standard_normal((m, 12))
        op = gaussian_operator(2 * m, 200, seed=5)
        out, peak = _traced_peak(lambda: apply(op, x, 2))
        assert out.shape == (200, 11)
        assert peak - out.nbytes < 6 * 2**20

    @pytest.mark.parametrize("factory", _SEEDED)
    def test_split_blocks_match_the_stored_matrix_bit_for_bit(self, factory):
        # a*M = 120 * 9001 entries per delay block: three sub-panels each.
        m, q, a = 9001, 2, 120
        x = np.random.default_rng(8).standard_normal((m, 6))
        op = factory(q * m, a, 9)
        dense = ProjectionOperator(kind=op.kind, matrix=op.matrix, a=a, seed=None)
        np.testing.assert_array_equal(apply(op, x, q), apply(dense, x, q))
        np.testing.assert_allclose(apply(op, x, q), op.matrix @ hankel_block(x, q),
                                   rtol=0, atol=1e-10)


class TestStoredStateValidation:
    @pytest.mark.parametrize("indices", [
        [3, 1, 5],        # unsorted
        [1, 1, 5],        # repeated
        [1, 3, 10],       # out of range
        [-1, 3, 5],       # negative
        [1, 3],           # too few
        [1.0, 3.0, 5.0],  # not integers
        None,
    ])
    def test_sampling_indices_checked(self, indices):
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind="sampling", matrix=None, a=3, seed=None,
                               indices=None if indices is None else np.array(indices),
                               d=10)

    def test_valid_sampling_indices_accepted(self):
        op = ProjectionOperator(kind="sampling", matrix=None, a=3, seed=None,
                                indices=np.array([0, 4, 9]), d=10)
        np.testing.assert_array_equal(op.matrix[[0, 1, 2], [0, 4, 9]], 1.0)

    @pytest.mark.parametrize("kind", ["sampling", "gaussian", "achlioptas", "krylov"])
    def test_count_above_dimension_raises(self, kind):
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind=kind, matrix=np.ones((4, 3)), a=4, seed=None,
                               indices=np.arange(4))

    def test_regenerated_count_above_dimension_raises(self):
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind="gaussian", matrix=None, a=3, seed=0, d=2)
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind="achlioptas", matrix=None, a=3, seed=0,
                               sparsity_s=3, d=2)

    def test_regeneration_needs_its_state(self):
        for seed in (None, -1):
            with pytest.raises(InvalidParameterError):
                ProjectionOperator(kind="gaussian", matrix=None, a=3, seed=seed, d=6)
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind="achlioptas", matrix=None, a=3, seed=0,
                               sparsity_s=2, d=6)
        with pytest.raises(InvalidParameterError):
            ProjectionOperator(kind="krylov", matrix=None, a=3, seed=None, d=6)

    def test_achlioptas_seed_checked_at_build(self):
        with pytest.raises(InvalidParameterError):
            achlioptas_operator(10, 2, 3, seed=-1)

    @pytest.mark.parametrize("factory", [
        lambda seed: sampling_operator(10, 2, seed),
        lambda seed: gaussian_operator(10, 2, seed),
        lambda seed: achlioptas_operator(10, 2, 3, seed),
        lambda seed: krylov_operator(10, 2, seed),
    ], ids=["sampling", "gaussian", "achlioptas", "krylov"])
    def test_negative_seed_raises(self, factory):
        with pytest.raises(InvalidParameterError, match="seed must be an integer with seed >= 0"):
            factory(-1)

    def test_sampling_refuses_a_matrix(self):
        with pytest.raises(InvalidParameterError, match="indices define it"):
            ProjectionOperator(kind="sampling", matrix=np.eye(3)[[0, 1]], a=2, seed=None,
                               indices=np.array([1, 2]))

    def test_identity_refuses_a_matrix(self):
        with pytest.raises(InvalidParameterError, match="unknown operator kind 'identity'"):
            ProjectionOperator("identity", np.ones((2, 3)), 2, None)

    def test_sampling_count_above_dimension_raises(self):
        with pytest.raises(InvalidParameterError, match="count a must be an integer .* got 4"):
            ProjectionOperator(kind="sampling", matrix=None, a=4, seed=None,
                               indices=np.arange(4), d=3)

    def test_caller_matrix_is_copied(self):
        m = np.ones((2, 3))
        op = ProjectionOperator("krylov", m, 2, None)
        assert m.flags.writeable
        m[0, 0] = 5.0
        np.testing.assert_array_equal(op.matrix, np.ones((2, 3)))
        assert op.matrix.flags.c_contiguous and not op.matrix.flags.writeable

    @pytest.mark.parametrize("matrix,match", [
        (np.ones((3, 4)), r"matrix must be .* of shape \(2, >=1\), got shape \(3, 4\)"),
        (np.ones(4), r"matrix must be .* of shape \(2, >=1\), got shape \(4,\)"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "matrix must be .*got a NaN or an infinity"),
    ], ids=["wrong rows", "1-d", "nan"])
    def test_matrix_shape_and_values_checked(self, matrix, match):
        with pytest.raises(InvalidParameterError, match=match):
            ProjectionOperator("krylov", matrix, 2, None)


class TestKrylovFromItsSeed:
    """A Krylov operator stores its seed, not its rows, and draws its block on use."""

    @pytest.fixture(scope="class")
    def deep(self):
        # The q = 16 embedding of the stock 100x100 grid, at the stock count.
        return _traced_peak(lambda: krylov_operator(160000, 99, seed=3))

    def test_deep_operator_stores_under_a_megabyte(self, deep):
        op, _ = deep
        held = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in held) < 2**20
        assert all(v.shape[-1] != op.d for v in held)

    def test_deep_build_and_apply_hold_at_most_two_panels(self, deep):
        # A panel is 2**19 entries, 4 MB; the stored rows would be 122 MB.
        op, build_peak = deep
        x = np.random.default_rng(0).standard_normal((10000, 174))
        out, apply_peak = _traced_peak(lambda: apply(op, x, 16))
        assert out.shape == (100, 159)
        assert max(build_peak, apply_peak) < 2 * 4 * 2**20 + out.nbytes

    @pytest.mark.parametrize("d,a,draws", [(3000, 29, 1), (300, 299, 2)],
                             ids=["one-pass", "near-square"])
    def test_no_draw_at_build_and_one_sweep_per_pass(self, monkeypatch, d, a, draws):
        # A near-square block needs CholeskyQR's second pass, which sweeps it again.
        real_rng, seeds = np.random.default_rng, []

        def counted(seed):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        op = krylov_operator(d, a, seed=5)
        assert seeds == [] and not any(isinstance(v, np.ndarray) for v in vars(op).values())
        apply(op, np.ones((d // 2, 10)), 2)
        assert seeds == [5] * draws

    def test_seed_regenerates_the_rows(self):
        op = krylov_operator(500, 40, seed=17)
        again = ProjectionOperator("krylov", None, op.a, op.seed, d=op.d)
        np.testing.assert_array_equal(again.matrix, op.matrix)
        np.testing.assert_allclose(apply(again, np.eye(500)), op.matrix, rtol=0, atol=1e-14)

    def test_ragged_matrix_is_a_typed_error(self):
        with pytest.raises(InvalidParameterError, match="matrix must be .*got a ragged"):
            ProjectionOperator("gaussian", [[1.0, 2.0], [3.0]], 2, None)

    def test_ragged_indices_are_a_typed_error(self):
        with pytest.raises(InvalidParameterError, match="sampling indices must be 2 distinct"):
            ProjectionOperator("sampling", None, 2, None, indices=[[1], [2, 3]], d=5)


class TestOneRuleForSparsity:
    """``check_sparsity`` is the one Achlioptas rule, wherever s arrives."""

    @pytest.mark.parametrize("build", [
        lambda s: ProjectionOperator("achlioptas", None, 3, 0, sparsity_s=s, d=6),
        lambda s: achlioptas_operator(10, 2, s, 0),
    ], ids=["constructor", "factory"])
    @pytest.mark.parametrize("s", [2, None, True, 3.0])
    def test_sparsity_is_named(self, build, s):
        with pytest.raises(InvalidParameterError, match=f"sparsity_s must be 1 or 3, got {s}"):
            build(s)

    def test_explicit_matrix_needs_no_sparsity(self):
        op = ProjectionOperator("achlioptas", np.ones((2, 3)), 2, None)
        assert op.sparsity_s is None and op.d == 3


class TestComplexInputIsRefused:
    def test_complex_matrix(self):
        with pytest.raises(InvalidParameterError, match="ragged, non-numeric or complex"):
            ProjectionOperator("gaussian", np.ones((2, 3)) + 1j, 2, None)


class TestArnoldiArguments:
    @pytest.mark.parametrize("a_matrix,b,m,match", [
        (np.ones((3, 4)), np.ones(3), 2, r"a_matrix must be .* \(3, 3\), got shape \(3, 4\)"),
        (np.eye(3), np.ones(4), 2, r"a_matrix must be .* \(4, 4\), got shape \(3, 3\)"),
        (np.eye(3), np.ones(3), 0, "1 <= m <= 3, got 0"),
        (np.eye(3), np.ones(3), 4, "1 <= m <= 3, got 4"),
    ], ids=["not-square", "b-length", "m-0", "m-past-n"])
    def test_refused(self, a_matrix, b, m, match):
        with pytest.raises(InvalidParameterError, match=match):
            arnoldi(a_matrix, b, m)

    def test_breakdown_tolerance_scales_with_the_matrix(self):
        # Invariance is judged against 1e-12 * ||A||_F, so a scaled matrix breaks down alike.
        for scale in (1e-8, 1.0, 1e8):
            res = arnoldi(scale * np.eye(3), np.array([3.0, 0.0, 4.0]), m=3)
            assert res.breakdown and res.steps_completed == 1
