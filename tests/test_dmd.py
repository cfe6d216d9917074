"""Fitting pipelines: hand-checked small cases, reduction identities,
linear-system oracles and model round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaydmd.dmd import (
    RankPolicy,
    dmd_classic,
    dmd_projected,
    dmd_tdc,
    load_model,
    pod_modes,
    predict,
    save_model,
    spectrum,
)
from delaydmd.errors import (
    DegenerateDataError,
    InsufficientMeasurementsError,
    InvalidParameterError,
    ModelParseError,
    ShapeMismatchError,
    ZeroInitialConditionError,
)
from delaydmd.numerics import eig_dense, pseudoinverse_apply, thin_svd
from delaydmd.problems import SignalParams, generate_signal
from delaydmd.projections import (
    ProjectionOperator,
    achlioptas_operator,
    apply,
    gaussian_operator,
    identity_operator,
    krylov_operator,
    sampling_operator,
)
from delaydmd.snapshots import GridMeta, SnapshotMatrix, delay_embed, hankel_augment, split


def snaps(data, dt=0.1, **kw):
    return SnapshotMatrix(np.asarray(data, dtype=float), dt=dt, **kw)


def simulate_linear(a, x0, n):
    """Brute-force orbit of x_{k+1} = a x_k; the oracle for spectrum checks."""
    cols = [np.asarray(x0, dtype=float)]
    for _ in range(n - 1):
        cols.append(a @ cols[-1])
    return np.column_stack(cols)


def sorted_eigs(values):
    return np.sort_complex(np.asarray(values))


def random_snapshots(shape_kind, seed):
    """Random test data of three shapes: M < N and M > N (orbits of a random
    orthogonal map, so every fit is well conditioned), and rank-deficient
    data whose columns repeat with period 4."""
    rng = np.random.default_rng(seed)
    if shape_kind == "repeated":
        return snaps(rng.standard_normal((12, 4))[:, np.arange(10) % 4])
    m, n = {"wide": (3, 12), "tall": (15, 8)}[shape_kind]
    a, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return snaps(simulate_linear(a, rng.standard_normal(m), n))


def assert_same_spectrum(mu, reference, atol):
    """Equal eigenvalue sets, matched nearest to nearest in both directions."""
    assert mu.shape == reference.shape
    dist = np.abs(mu[:, None] - reference[None, :])
    assert np.max(dist.min(axis=1)) <= atol
    assert np.max(dist.min(axis=0)) <= atol


def assert_same_predictions(model, reference, n, m, rtol):
    """Model predictions match ``reference(k)`` (first m rows) for k < n."""
    for k in range(n):
        expected = reference(k)[:m]
        err = np.linalg.norm(predict(model, k) - expected) / np.linalg.norm(expected)
        assert err <= rtol


def explicit_projected_fit(x, q, op):
    """The sketched fit on the explicit (q*M)-row Hankel pair, as eigenvalues,
    full-space modes and amplitudes: the reference for the compressed path."""
    pair = hankel_augment(x, q)
    svd = thin_svd(apply(op, pair.x1_aug))
    r = RankPolicy.relative_threshold(1e-10).resolve(svd.singular_values)
    v, sigma = svd.v[:, :r], svd.singular_values[:r]
    eig = eig_dense((svd.u[:, :r].T @ apply(op, pair.x2_aug) @ v) / sigma)
    modes = pair.x2_aug @ ((v / sigma) @ eig.eigenvectors)
    return eig.eigenvalues, modes, pseudoinverse_apply(modes, pair.x1_aug[:, 0])


def small_signal_snapshots(nx=16, nt=40):
    grid = GridMeta(nx, nx, -2.0, 2.0, -2.0, 2.0)
    return generate_signal(SignalParams(grid=grid, nt=nt))


class TestRankPolicy:
    def test_parse_and_describe(self):
        assert RankPolicy.parse("fixed:20") == RankPolicy.fixed(20)
        assert RankPolicy.parse("tol:1e-8") == RankPolicy.relative_threshold(1e-8)
        assert RankPolicy.fixed(3).describe() == "fixed:3"

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            RankPolicy.fixed(0)
        with pytest.raises(InvalidParameterError):
            RankPolicy.relative_threshold(2.0)
        with pytest.raises(InvalidParameterError):
            RankPolicy.parse("banana")

    def test_resolve(self):
        s = np.array([1.0, 1e-3, 1e-14])
        assert RankPolicy.relative_threshold(1e-10).resolve(s) == 2
        assert RankPolicy.fixed(5).resolve(s) == 5


class TestDmdClassic:
    def test_scalar_doubling(self):
        model = dmd_classic(np.array([[1.0, 2.0]]), np.array([[2.0, 4.0]]), dt=1.0)
        assert model.rank == 1
        np.testing.assert_allclose(model.eigenvalues_discrete, [2.0])
        np.testing.assert_allclose(np.abs(model.modes), [[1.0]])
        np.testing.assert_allclose(model.amplitudes * model.modes[0], [1.0])

    def test_static_data(self):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal((6, 8))
        model = dmd_classic(x1, x1, dt=0.5)
        np.testing.assert_allclose(model.eigenvalues_discrete,
                                   np.ones(model.rank), atol=1e-10)
        np.testing.assert_allclose(model.exponents, 0.0, atol=1e-9)

    def test_diagonal_system_oracle(self):
        a = np.diag([0.9, 0.5])
        data = simulate_linear(a, [1.0, 1.0], 10)
        model = dmd_classic(data[:, :-1], data[:, 1:], dt=1.0)
        np.testing.assert_allclose(sorted_eigs(model.eigenvalues_discrete),
                                   [0.5, 0.9], atol=1e-10)

    def test_zero_initial_condition(self):
        x1 = np.zeros((3, 4))
        x1[:, 1:] = 1.0
        with pytest.raises(ZeroInitialConditionError):
            dmd_classic(x1, x1, dt=1.0)

    def test_zero_eigenvalue_dropped_with_warning(self):
        x1 = np.eye(2)
        x2 = np.diag([1.0, 0.0])
        with pytest.warns(RuntimeWarning, match="dropping"):
            model = dmd_classic(x1, x2, dt=1.0)
        assert model.rank == 1
        np.testing.assert_allclose(model.eigenvalues_discrete, [1.0])

    def test_lowered_fixed_rank_warns(self):
        x = np.random.default_rng(3).standard_normal((6, 4))
        with pytest.warns(RuntimeWarning, match="requested rank 10 lowered to 3"):
            model = dmd_classic(x[:, :3], x[:, 1:], dt=1.0, policy=RankPolicy.fixed(10))
        assert model.rank == 3


class TestDmdTdc:
    def test_depth_one_reduces_to_classic(self):
        x = snaps(np.random.default_rng(1).standard_normal((5, 12)))
        tdc = dmd_tdc(x, 1)
        classic = dmd_classic(*split(x), dt=x.dt)
        np.testing.assert_allclose(tdc.eigenvalues_discrete,
                                   classic.eigenvalues_discrete, atol=1e-10)

    def test_scalar_cosine_needs_delay(self):
        theta = 0.3
        x = snaps(np.cos(theta * np.arange(20))[None, :], dt=1.0)
        model = dmd_tdc(x, 2)
        expected = sorted_eigs([np.exp(1j * theta), np.exp(-1j * theta)])
        np.testing.assert_allclose(sorted_eigs(model.eigenvalues_discrete),
                                   expected, atol=1e-8)

    def test_frequency_extraction_within_tenth_percent(self):
        f, dt = 2.0, 0.05
        times = dt * (1 + np.arange(60))
        x = snaps(np.sin(2 * np.pi * f * times)[None, :], dt=dt)
        model = dmd_tdc(x, 2)
        freqs = np.abs(model.exponents.imag) / (2 * np.pi)
        dominant = freqs[np.argmax(np.abs(model.amplitudes))]
        assert abs(dominant - f) / f < 1e-3

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 3))
    def test_real_data_gives_conjugate_closed_spectrum(self, seed, q):
        rng = np.random.default_rng(seed)
        x = snaps(rng.standard_normal((4, 14)))
        model = dmd_tdc(x, q)
        mu = model.eigenvalues_discrete
        for value in mu:
            assert np.min(np.abs(mu - np.conj(value))) <= 1e-8

    def test_training_reconstruction_at_exact_rank(self):
        a = np.array([[0.8, 0.1], [0.0, 0.7]])
        data = simulate_linear(a, [1.0, 2.0], 12)
        x = snaps(data, dt=1.0)
        model = dmd_tdc(x, 1)
        for k in range(x.n):
            truth = data[:, k]
            err = np.linalg.norm(predict(model, k) - truth) / np.linalg.norm(truth)
            assert err <= 1e-6


class TestDmdProjected:
    def test_identity_operator_matches_tdc(self):
        x = small_signal_snapshots()
        op = identity_operator(2 * x.m)
        proj = dmd_projected(x, 2, op)
        tdc = dmd_tdc(x, 2)
        np.testing.assert_allclose(sorted_eigs(proj.eigenvalues_discrete),
                                   sorted_eigs(tdc.eigenvalues_discrete), atol=1e-10)

    @pytest.mark.parametrize("make_op,a", [
        (lambda d, s: sampling_operator(d, 100, s), 100),
        (lambda d, s: gaussian_operator(d, 50, s), 50),
        (lambda d, s: achlioptas_operator(d, 50, 3, s), 50),
        (lambda d, s: krylov_operator(d, 49, s), 50),
    ])
    def test_reduced_variants_recover_frequencies(self, make_op, a):
        x = small_signal_snapshots()
        op = make_op(2 * x.m, 3)
        model = dmd_projected(x, 2, op)
        assert model.measurements == a
        freqs = sorted({round(abs(w.imag) / (2 * np.pi), 3) for w in model.exponents})
        assert freqs == [1.3, 8.4]

    def test_insufficient_measurements_guard(self):
        # Rank-2 data sketched to one row cannot support a rank-2 fit at q=1.
        a = np.diag([0.9, 0.5])
        x = snaps(simulate_linear(a, [1.0, 1.0], 12), dt=1.0)
        op = gaussian_operator(x.m, 1, seed=3)
        with pytest.raises(InsufficientMeasurementsError):
            dmd_projected(x, 1, op, RankPolicy.fixed(2))

    def test_boundary_measurement_count_succeeds(self):
        a = np.diag([0.9, 0.5])
        x = snaps(simulate_linear(a, [1.0, 1.0], 12), dt=1.0)
        op = gaussian_operator(x.m, 2, seed=4)
        model = dmd_projected(x, 1, op, RankPolicy.fixed(2))
        np.testing.assert_allclose(sorted_eigs(model.eigenvalues_discrete),
                                   [0.5, 0.9], atol=1e-8)

    def test_guard_counts_sketch_rows_after_augment(self):
        # Projecting the q = 2 embedding leaves a rows, not a*q; a rank-4 fit
        # through 2 or 3 rows used to pass and return spurious modes.
        x = generate_signal(SignalParams(grid=GridMeta(20, 20, -2, 2, -2, 2)))
        for a in (2, 3):
            op = gaussian_operator(2 * x.m, a, seed=0)
            with pytest.raises(InsufficientMeasurementsError, match=f"measurements = {a}"):
                dmd_projected(x, 2, op, RankPolicy.fixed(4))
        model = dmd_projected(x, 2, gaussian_operator(2 * x.m, 4, seed=0), RankPolicy.fixed(4))
        freqs = sorted({round(abs(w.imag) / (2 * np.pi), 3) for w in model.exponents})
        assert freqs == [1.3, 8.4]

    def test_guard_counts_a_times_q_before_augment(self):
        x = generate_signal(SignalParams(grid=GridMeta(20, 20, -2, 2, -2, 2)))
        with pytest.raises(InsufficientMeasurementsError, match="measurements\\*q = 2"):
            dmd_projected(x, 2, gaussian_operator(x.m, 1, seed=0), RankPolicy.fixed(4),
                          project_before_augment=True)
        model = dmd_projected(x, 2, gaussian_operator(x.m, 2, seed=0), RankPolicy.fixed(4),
                              project_before_augment=True)
        assert model.rank == 4

    @settings(deadline=None, max_examples=15)
    @given(op_seed=st.integers(0, 2**32 - 1), rot_seed=st.integers(0, 2**32 - 1))
    def test_fit_depends_only_on_row_span(self, op_seed, rot_seed):
        # For orthonormal R and orthogonal Q, Q R has the same row span; the
        # sketched pencil and hence the eigenvalues must not change.
        x = small_signal_snapshots()
        op = krylov_operator(2 * x.m, 29, op_seed)
        rot, _ = np.linalg.qr(np.random.default_rng(rot_seed).standard_normal((op.a, op.a)))
        rotated = ProjectionOperator(kind="krylov", matrix=rot @ op.matrix, a=op.a,
                                     seed=None)
        mu = dmd_projected(x, 2, op).eigenvalues_discrete
        mu_rot = dmd_projected(x, 2, rotated).eigenvalues_discrete
        assert mu.shape == mu_rot.shape
        np.testing.assert_allclose(sorted_eigs(mu), sorted_eigs(mu_rot), atol=1e-10)

    def test_project_before_augment_variant(self):
        x = small_signal_snapshots()
        op = gaussian_operator(x.m, 40, seed=5)
        model = dmd_projected(x, 2, op, project_before_augment=True)
        freqs = sorted({round(abs(w.imag) / (2 * np.pi), 3) for w in model.exponents})
        assert freqs == [1.3, 8.4]

    def test_zero_initial_column(self):
        # At q = 1 the first embedded column is the (identically zero) t = 0
        # snapshot itself; deeper embeddings pick up later, nonzero samples.
        x = generate_signal(SignalParams(grid=GridMeta(8, 8, -2, 2, -2, 2),
                                         nt=10, t0=0.0))
        op = gaussian_operator(x.m, 10, seed=6)
        with pytest.raises(ZeroInitialConditionError):
            dmd_projected(x, 1, op)


class TestFitGuards:
    """Every entry point reaches the guards of the shared fit core."""

    @pytest.mark.parametrize("q", [1, 2])
    def test_zero_first_embedded_column(self, q):
        data = np.random.default_rng(0).standard_normal((3, 12))
        data[:, :q] = 0.0
        with pytest.raises(ZeroInitialConditionError):
            dmd_tdc(snaps(data), q)

    @pytest.mark.filterwarnings("ignore:dropping")
    def test_every_eigenvalue_dropped(self):
        with pytest.raises(DegenerateDataError):
            dmd_classic(np.eye(2), np.zeros((2, 2)), dt=1.0)

    @pytest.mark.parametrize("policy", [RankPolicy.fixed(2), RankPolicy.relative_threshold(1e-10)])
    def test_pod_of_zero_data(self, policy):
        with pytest.raises(DegenerateDataError):
            pod_modes(snaps(np.zeros((4, 6))), policy)

    @pytest.mark.parametrize("policy", [RankPolicy.fixed(2), RankPolicy.relative_threshold(1e-10)])
    def test_sketch_of_zero_rows(self, policy):
        data = np.random.default_rng(1).standard_normal((5, 10))
        data[:2] = 0.0
        indices = np.array([0, 1])
        matrix = np.zeros((2, 5))
        matrix[[0, 1], indices] = 1.0
        op = ProjectionOperator(kind="sampling", matrix=matrix, a=2, seed=None,
                                indices=indices)
        with pytest.raises(DegenerateDataError):
            dmd_projected(snaps(data), 1, op, policy)


class TestCompressedEmbedding:
    """The delay fits run on the QR-compressed embedding; these compare them
    with the same fits on the explicit Hankel pair."""

    @settings(deadline=None, max_examples=30)
    @given(shape_kind=st.sampled_from(["wide", "tall", "repeated"]),
           seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4))
    def test_tdc_matches_classic_on_explicit_pair(self, shape_kind, seed, q):
        x = random_snapshots(shape_kind, seed)
        pair = hankel_augment(x, q)
        reference = dmd_classic(pair.x1_aug, pair.x2_aug, dt=x.dt)
        model = dmd_tdc(x, q)
        assert_same_spectrum(model.eigenvalues_discrete,
                             reference.eigenvalues_discrete, atol=1e-10)
        assert_same_predictions(model, lambda k: predict(reference, k), x.n, x.m, 1e-8)

    @settings(deadline=None, max_examples=30)
    @given(shape_kind=st.sampled_from(["wide", "tall", "repeated"]),
           seed=st.integers(0, 2**32 - 1), q=st.integers(1, 4),
           kind=st.sampled_from(["gaussian", "sampling"]))
    def test_projected_matches_explicit_sketch(self, shape_kind, seed, q, kind):
        x = random_snapshots(shape_kind, seed)
        d = q * x.m
        make = gaussian_operator if kind == "gaussian" else sampling_operator
        op = make(d, min(d, 7), seed)
        mu, modes, amplitudes = explicit_projected_fit(x, q, op)
        model = dmd_projected(x, q, op)
        assert_same_spectrum(model.eigenvalues_discrete, mu, atol=1e-10)
        assert_same_predictions(model, lambda k: (modes @ (mu**k * amplitudes)).real,
                                x.n, x.m, 1e-8)

    def test_prebuilt_embedding_gives_the_same_model(self):
        x = small_signal_snapshots()
        emb = delay_embed(x, 2)
        op = gaussian_operator(2 * x.m, 30, seed=1)
        for fit in (lambda y: dmd_tdc(y, 2), lambda y: dmd_projected(y, 2, op)):
            shared, own = fit(emb), fit(x)
            np.testing.assert_array_equal(shared.eigenvalues_discrete,
                                          own.eigenvalues_discrete)
            np.testing.assert_array_equal(shared.modes, own.modes)

    def test_embedding_depth_must_match(self):
        emb = delay_embed(small_signal_snapshots(), 2)
        with pytest.raises(InvalidParameterError, match="q = 2"):
            dmd_tdc(emb, 3)

    def test_compressed_rows(self):
        # q * min(M, N) rows instead of q * M, with the Hankel singular values.
        x = small_signal_snapshots(nt=20)
        emb = delay_embed(x, 3)
        assert emb.compressed.shape == (3 * 20, 18)
        pair = hankel_augment(x, 3)
        np.testing.assert_allclose(thin_svd(emb.x1).singular_values,
                                   thin_svd(pair.x1_aug).singular_values,
                                   rtol=1e-12, atol=1e-12 * np.linalg.norm(x.data))
        np.testing.assert_allclose(emb.expand(emb.x2), pair.x2_aug, atol=1e-12)


class TestPredict:
    def test_reconstructs_first_snapshot(self):
        rng = np.random.default_rng(7)
        x = snaps(rng.standard_normal((5, 9)))
        model = dmd_tdc(x, 1)
        err = (np.linalg.norm(predict(model, 0) - x.data[:, 0])
               / np.linalg.norm(x.data[:, 0]))
        assert err < 1e-8

    def test_static_model_constant(self):
        x1 = np.tile(np.array([[1.0], [2.0]]), (1, 5))
        model = dmd_classic(x1, x1, dt=1.0)
        for k in (0, 3, 11):
            np.testing.assert_allclose(predict(model, k), [1.0, 2.0], atol=1e-10)

    def test_diagonal_powers(self):
        a = np.diag([0.9, 0.5])
        data = simulate_linear(a, [1.0, 1.0], 10)
        model = dmd_classic(data[:, :-1], data[:, 1:], dt=1.0)
        np.testing.assert_allclose(predict(model, 3), [0.9**3, 0.5**3], atol=1e-10)

    def test_truncates_to_raw_state(self):
        x = snaps(np.random.default_rng(8).standard_normal((3, 10)))
        model = dmd_tdc(x, 2)
        assert predict(model, 1).shape == (3,)

    def test_array_of_steps_gives_columns(self):
        x = snaps(np.random.default_rng(8).standard_normal((3, 10)))
        model = dmd_tdc(x, 2)
        steps = np.array([0, 4, 13])
        states = predict(model, steps)
        assert states.shape == (3, 3)
        for j, k in enumerate(steps):
            np.testing.assert_allclose(states[:, j], predict(model, int(k)),
                                       rtol=1e-12, atol=1e-14)
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            predict(model, np.array([2, -1]))


class TestPodModes:
    def test_rank_one_sign_fixed(self):
        u = np.array([-0.6, -0.8])
        x = snaps(np.outer(u, [1.0, 2.0, 3.0]))
        modes = pod_modes(x)
        assert modes.shape == (2, 1)
        # Sign convention flips the basis vector to make its peak positive.
        np.testing.assert_allclose(modes[:, 0], [0.6, 0.8])

    def test_orthonormal_columns(self):
        x = snaps(np.random.default_rng(9).standard_normal((10, 6)))
        modes = pod_modes(x)
        gram = modes.T @ modes
        assert np.max(np.abs(gram - np.eye(modes.shape[1]))) < 1e-10

    def test_signal_modes_mix(self):
        from delaydmd.problems import signal_spatial_modes
        x = small_signal_snapshots()
        modes = pod_modes(x)
        assert modes.shape[1] == 2
        v1, v2 = signal_spatial_modes(x.grid)
        v1n, v2n = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
        for k in range(2):
            assert abs(modes[:, k] @ v1n) > 1e-3
            assert abs(modes[:, k] @ v2n) > 1e-3

    def test_lowered_fixed_rank_warns(self):
        x = snaps(np.random.default_rng(4).standard_normal((6, 3)))
        with pytest.warns(RuntimeWarning, match="requested rank 10 lowered to 3"):
            modes = pod_modes(x, RankPolicy.fixed(10))
        assert modes.shape == (6, 3)


class TestSpectrum:
    def _model_with_mu(self, mu, dt=0.05):
        mu = np.asarray(mu, dtype=complex)
        from delaydmd.dmd import DmdModel
        return DmdModel(
            modes=np.ones((1, mu.size), dtype=complex),
            eigenvalues_discrete=mu,
            exponents=np.log(mu) / dt,
            amplitudes=np.ones(mu.size, dtype=complex),
            rank=mu.size, q=1, base_m=1, dt=dt,
        )

    def test_unit_eigenvalue(self):
        entry = spectrum(self._model_with_mu([1.0]))[0]
        assert entry.circle == "on" and entry.omega == 0.0

    def test_oscillatory_on_circle(self):
        entry = spectrum(self._model_with_mu([np.exp(0.4j)], dt=0.05))[0]
        assert entry.circle == "on"
        assert entry.omega == pytest.approx(8.0j)

    def test_growth_outside(self):
        assert spectrum(self._model_with_mu([1.1]))[0].circle == "outside"
        assert spectrum(self._model_with_mu([0.9]))[0].circle == "inside"


class TestModelSerialization:
    def test_round_trip_with_modes(self, tmp_path):
        x = snaps(np.random.default_rng(10).standard_normal((4, 12)))
        model = dmd_tdc(x, 2)
        path = tmp_path / "model.json"
        save_model(model, path, include_modes=True)
        back = load_model(path)
        np.testing.assert_allclose(back.eigenvalues_discrete,
                                   model.eigenvalues_discrete, atol=1e-15)
        np.testing.assert_allclose(back.modes, model.modes, atol=1e-15)
        assert back.variant == model.variant and back.q == model.q
        np.testing.assert_allclose(predict(back, 4), predict(model, 4), atol=1e-12)

    @pytest.mark.parametrize("keep_rows,keep_cols", [(-1, None), (-2, None), (None, -1)])
    def test_truncated_modes_file_raises(self, tmp_path, keep_rows, keep_cols):
        x = snaps(np.random.default_rng(12).standard_normal((4, 12)))
        model = dmd_tdc(x, 2)
        path = tmp_path / "model.json"
        save_model(model, path, include_modes=True)
        modes_path = tmp_path / "model.modes.csv"
        stacked = np.loadtxt(modes_path, delimiter=",", ndmin=2)
        np.savetxt(modes_path, stacked[:keep_rows, :keep_cols], delimiter=",")
        with pytest.raises(ShapeMismatchError, match=f"model.modes.csv.*expected 16x{model.rank}"):
            load_model(path)

    def test_spectrum_only_round_trip(self, tmp_path):
        x = snaps(np.random.default_rng(11).standard_normal((4, 12)))
        model = dmd_tdc(x, 1)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert back.modes is None
        assert [e.circle for e in spectrum(back)] == [e.circle for e in spectrum(model)]
        with pytest.raises(InvalidParameterError):
            predict(back, 0)

    def _saved(self, tmp_path):
        x = snaps(np.random.default_rng(13).standard_normal((4, 12)))
        path = tmp_path / "model.json"
        save_model(dmd_tdc(x, 2), path, include_modes=True)
        return path

    def test_missing_field_raises_parse_error(self, tmp_path):
        path = self._saved(tmp_path)
        record = json.loads(path.read_text())
        del record["eigenvalues_discrete"]
        path.write_text(json.dumps(record))
        with pytest.raises(ModelParseError, match="model.json.*'eigenvalues_discrete'"):
            load_model(path)

    def test_non_json_raises_parse_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("re,im\n1,2\n")
        with pytest.raises(ModelParseError, match="model.json"):
            load_model(path)

    def test_non_numeric_modes_raise_parse_error(self, tmp_path):
        path = self._saved(tmp_path)
        modes_path = tmp_path / "model.modes.csv"
        lines = modes_path.read_text().splitlines()
        lines[0] = ",".join(["x"] * len(lines[0].split(",")))
        modes_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelParseError, match="model.modes.csv"):
            load_model(path)
