"""Kernel contracts: SVD/eig conventions, least-squares solve, row-blocked products."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import delaydmd
from delaydmd import numerics
from delaydmd.errors import (DegenerateModesError, InvalidParameterError,
                             NumericalFailureError)
from delaydmd.numerics import (eig_dense, pseudoinverse_apply, real_complex_matmul,
                               row_blocked_matmul, thin_svd)


class TestThinSvd:
    def test_identity(self):
        res = thin_svd(np.eye(3))
        np.testing.assert_array_equal(res.u, np.eye(3))
        np.testing.assert_array_equal(res.singular_values, np.ones(3))
        np.testing.assert_array_equal(res.v, np.eye(3))

    def test_diagonal(self):
        res = thin_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.singular_values, [3.0, 1.0])

    def test_reconstruction_residual_random(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((20, 7))
        res = thin_svd(a)
        recon = res.u @ np.diag(res.singular_values) @ res.v.T
        assert np.linalg.norm(a - recon) / np.linalg.norm(a) < 1e-12

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((15, 9))
        res = thin_svd(a)
        assert np.max(np.abs(res.u.T @ res.u - np.eye(9))) <= 1e-10
        assert np.max(np.abs(res.v.T @ res.v - np.eye(9))) <= 1e-10

    def test_descending_singular_values(self):
        rng = np.random.default_rng(5)
        s = thin_svd(rng.standard_normal((12, 12))).singular_values
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(7)
        res = thin_svd(rng.standard_normal((10, 4)))
        lead = np.argmax(np.abs(res.u), axis=0)
        assert np.all(res.u[lead, np.arange(4)] > 0)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 5))
        r1, r2 = thin_svd(a), thin_svd(a)
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(r1.v, r2.v)

    def test_rejects_nonfinite(self):
        a = np.ones((2, 2))
        a[0, 0] = np.nan
        with pytest.raises(InvalidParameterError):
            thin_svd(a)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1),
           m=st.integers(1, 12), n=st.integers(1, 12))
    def test_round_trip_property(self, seed, m, n):
        a = np.random.default_rng(seed).standard_normal((m, n))
        res = thin_svd(a)
        recon = res.u @ np.diag(res.singular_values) @ res.v.T
        assert np.linalg.norm(a - recon) <= 1e-8 * max(1.0, np.linalg.norm(a))


class TestEigDense:
    def test_diagonal(self):
        res = eig_dense(np.diag([2.0, -1.0]))
        np.testing.assert_allclose(res.eigenvalues, [2.0, -1.0])

    def test_rotation_spectrum(self):
        theta = np.pi / 4
        c, s = np.cos(theta), np.sin(theta)
        res = eig_dense(np.array([[c, -s], [s, c]]))
        expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
        np.testing.assert_allclose(res.eigenvalues, expected, atol=1e-14)

    def test_companion_of_quadratic(self):
        # z^2 - 3z + 2 = (z - 1)(z - 2), roots {2, 1} by hand factorization
        companion = np.array([[0.0, -2.0], [1.0, 3.0]])
        res = eig_dense(companion)
        np.testing.assert_allclose(res.eigenvalues, [2.0, 1.0], atol=1e-12)

    def test_ordering_descending_modulus_then_imag(self):
        rng = np.random.default_rng(13)
        w = eig_dense(rng.standard_normal((9, 9))).eigenvalues
        mods = np.abs(w)
        assert np.all(np.diff(mods) <= 1e-14)
        for i in range(len(w) - 1):
            if mods[i] == mods[i + 1]:
                assert w[i].imag >= w[i + 1].imag

    @pytest.mark.parametrize("gap", [1e-15, -1e-15])
    def test_near_equal_moduli_order_by_imaginary_part(self, gap):
        def rotation(radius, theta):
            c, s = radius * np.cos(theta), radius * np.sin(theta)
            return np.array([[c, -s], [s, c]])

        a = np.zeros((4, 4))
        a[:2, :2] = rotation(1.0, 0.4)
        a[2:, 2:] = rotation(1.0 + gap, 2.0)
        w = eig_dense(a).eigenvalues
        expected = np.exp(1j * np.array([2.0, 0.4, -0.4, -2.0]))
        np.testing.assert_allclose(w, expected, atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10))
    def test_eigen_residual_property(self, seed, n):
        a = np.random.default_rng(seed).standard_normal((n, n))
        res = eig_dense(a)
        a_norm = np.linalg.norm(a)
        for mu, w in zip(res.eigenvalues, res.eigenvectors.T):
            resid = np.linalg.norm(a @ w - mu * w)
            assert resid <= 1e-8 * a_norm * np.linalg.norm(w)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameterError):
            eig_dense(np.ones((2, 3)))


class TestPseudoinverseApply:
    def test_identity(self):
        b = pseudoinverse_apply(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(b, [1.0, 2.0, 3.0])

    def test_single_unit_column(self):
        u = np.array([[0.6], [0.8]])
        b = pseudoinverse_apply(u, 2.0 * u[:, 0])
        np.testing.assert_allclose(b, [2.0])

    def test_column_span_recovery(self):
        rng = np.random.default_rng(17)
        phi = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = phi @ c
        b = pseudoinverse_apply(phi, x)
        assert np.linalg.norm(phi @ b - x) < 1e-10
        np.testing.assert_allclose(b, c, atol=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateModesError):
            pseudoinverse_apply(np.zeros((4, 2)), np.ones(4))

    def test_least_squares_residual_orthogonal(self):
        rng = np.random.default_rng(19)
        phi = rng.standard_normal((8, 3))
        x = rng.standard_normal(8)
        b = pseudoinverse_apply(phi, x)
        # Residual of the least-squares solution is orthogonal to the columns.
        np.testing.assert_allclose(phi.T @ (phi @ b - x), np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("where,bad", [("phi", np.nan), ("phi", np.inf), ("x", np.nan)],
                             ids=["phi-nan", "phi-inf", "x-nan"])
    def test_non_finite_input_raises(self, where, bad):
        phi = np.eye(4, 2) + 0j
        x = np.ones(4)
        (phi if where == "phi" else x)[1] = bad
        with pytest.raises(InvalidParameterError, match=f"{where} must be .*a NaN or an infinity"):
            pseudoinverse_apply(phi, x)


class TestTypedFailures:
    """Each kernel's refusals and LAPACK failures raise the package's own errors."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    @pytest.mark.parametrize("kernel,call,rows,cols", [
        ("svd", lambda: thin_svd(np.ones((4, 3))), 4, 3),
        ("eig", lambda: eig_dense(np.eye(3)), 3, 3),
        ("svd", lambda: pseudoinverse_apply(np.ones((5, 2)), np.ones(5)), 5, 2),
    ], ids=["thin_svd", "eig_dense", "pseudoinverse_apply"])
    def test_lapack_failure_names_kernel_and_shape(self, monkeypatch, kernel, call, rows, cols):
        monkeypatch.setattr(np.linalg, kernel, self._fail)
        with pytest.raises(NumericalFailureError,
                           match=f"{kernel} did not converge on a {rows}x{cols} matrix") as info:
            call()
        assert (info.value.kernel, info.value.rows, info.value.cols) == (kernel, rows, cols)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("call,match", [
        (lambda: eig_dense(np.array([[1.0, np.inf], [0.0, 1.0]])),
         "a must be a finite numeric array.*got a NaN or an infinity"),
        (lambda: eig_dense(np.ones((2, 3))), "a must be square"),
        (lambda: thin_svd(np.eye(2) + 1j), "a must be a finite real array.*or complex value"),
        (lambda: thin_svd(np.ones(3)), r"a must be .* of shape \(>=1, >=1\), got shape \(3,\)"),
        (lambda: thin_svd(np.array([[1.0, np.nan]])), "a must be .*got a NaN or an infinity"),
        (lambda: pseudoinverse_apply(np.ones(3), np.ones(3)),
         r"phi must be .* of shape \(>=1, >=1\), got shape \(3,\)"),
        (lambda: pseudoinverse_apply(np.ones((3, 2)), np.ones(4)),
         r"x must be .* of shape \(3,\), got shape \(4,\)"),
    ], ids=["eig-inf", "eig-not-square", "svd-complex", "svd-1-d", "svd-nan", "pinv-1-d-phi",
            "pinv-x-length"])
    def test_bad_input_is_refused(self, call, match):
        with pytest.raises(InvalidParameterError, match=match):
            call()


class TestRowBlockedMatmul:
    """Products with one row per state run in row blocks, with the bits of one product."""

    # Three whole blocks and a short last one.
    ROWS = 3 * numerics._ROW_BLOCK + 5

    # numpy multiplies a single row with its vector kernel, whose last bits
    # differ, so a lone last row must join the block before it.
    @pytest.mark.parametrize("rows", [ROWS, numerics._ROW_BLOCK + 1, 1],
                             ids=["short-last-block", "lone-last-row", "one-row"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bits_match_one_product(self, dtype, rows):
        rng = np.random.default_rng(11)
        wide = rng.standard_normal((rows, 30)).astype(dtype)
        if dtype is complex:
            wide += 1j * rng.standard_normal(wide.shape)
        a = wide[:, :23]  # a strided view, like a fit's basis
        b = rng.standard_normal((23, 16)) + 1j * rng.standard_normal((23, 16))
        for right in (b, b.real.copy()):
            out = row_blocked_matmul(a, right)
            assert out.shape == (rows, 16) and out.dtype == np.result_type(a, right)
            np.testing.assert_array_equal(out, a @ right)

    def test_real_complex_matmul_bits_match_one_product(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((self.ROWS, 30))[:, :23]
        z = rng.standard_normal((23, 20)) + 1j * rng.standard_normal((23, 20))
        pairs = np.stack([z.real, z.imag], axis=-1).reshape(23, 40)
        np.testing.assert_array_equal(real_complex_matmul(a, z), (a @ pairs).view(complex))

    def test_short_operands_are_one_block(self):
        a = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(row_blocked_matmul(a, np.eye(2)), a)
        assert row_blocked_matmul(np.ones((0, 2)), np.ones((2, 3))).shape == (0, 3)


# Forms the modes of a stock-size tdc model (a 10000x173 view of 10000x200
# snapshots, 20 columns) and prints how far the peak RSS rose beyond the modes.
# The peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts at its parent's
# RSS, so a large test runner would hide the rise.
_MODES_RISE_PROBE = """
import re
import numpy as np
from delaydmd.dmd import DmdModel
def peak_kb():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
rng = np.random.default_rng(0)
data = rng.standard_normal((10000, 200))
coefficients = rng.standard_normal((173, 20)) + 1j * rng.standard_normal((173, 20))
one = np.ones(20, dtype=complex)
model = DmdModel(basis=data[:, :173], eigenvalues_discrete=one, exponents=one, amplitudes=one,
                 rank=20, q=2, base_m=10000, dt=0.1, coefficients=coefficients)
data[:64, :173] @ coefficients.real  # starts the BLAS threads
before = peak_kb()
modes = model.modes
print(((peak_kb() - before) * 1024 - modes.nbytes) / 2**20)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="one BLAS thread keeps no packed copy, so nothing to bound")
def test_two_thread_modes_keep_no_packed_copy_of_the_snapshots():
    # As one product on two threads, OpenBLAS 0.3.31 left the peak 13.5 MB above
    # the 3.1 MB modes; in row blocks it rises about 2 MB above them.
    src = str(Path(delaydmd.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _MODES_RISE_PROBE], env=env, check=True,
                         capture_output=True, text=True)
    assert float(out.stdout) < 4.0
