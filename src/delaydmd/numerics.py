"""Dense linear-algebra kernels with deterministic sign and ordering conventions.

Every fitting pipeline goes through these three kernels. They delegate the
factorizations to LAPACK (via numpy) and pin down the conventions LAPACK
leaves arbitrary, so identical inputs always produce identical outputs:

* singular vectors are sign-fixed so the largest-magnitude entry of each
  left singular vector is positive,
* eigenvalues are sorted by descending modulus, ties broken by descending
  imaginary part (conjugate pairs come out ``+i`` first); moduli that agree
  to about 1e-9 relative count as tied, so roundoff cannot swap them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModesError, InvalidParameterError, NumericalFailureError
from .snapshots import check_array

# Relative cutoff below which singular values are treated as exact zeros
# when solving least-squares systems.
PINV_CUTOFF = 1e-12

# Rows per product in row_blocked_matmul, a multiple of 16 like the scoring block.
_ROW_BLOCK = 1024


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(singular_values) @ V*``.

    ``u`` is m-by-k and ``v`` is n-by-k with k = min(m, n); both have
    orthonormal columns and ``singular_values`` is descending.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition ``A @ eigenvectors[:, k] = eigenvalues[k] * eigenvectors[:, k]``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def thin_svd(a) -> SvdResult:
    """Thin SVD of a real matrix with a deterministic sign convention.

    The sign of each singular-vector pair is fixed so that the entry of
    largest absolute value in each column of ``u`` is positive (the
    corresponding column of ``v`` is flipped along with it).

    Raises
    ------
    NumericalFailureError
        If the underlying iteration does not converge.
    """
    a = check_array("a", a, (None, None))
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("svd", a.shape[0], a.shape[1]) from exc
    v = vh.T.copy()
    # Sign convention: largest-|entry| of each U column made positive.
    lead = np.argmax(np.abs(u), axis=0)
    flip = u[lead, np.arange(u.shape[1])] < 0
    u[:, flip] *= -1.0
    v[:, flip] *= -1.0
    return SvdResult(u=u, singular_values=s, v=v)


def eig_dense(a) -> EigResult:
    """Eigendecomposition of a small square matrix, deterministically ordered.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    imaginary part; eigenvector columns are permuted along with them. A
    modulus within 1e-9 relative of the next larger one ties with it.

    Raises
    ------
    NumericalFailureError
        If the QR iteration does not converge.
    """
    a = check_array("a", a, (None, None), None)  # real stays real, for LAPACK's real path
    if a.shape[0] != a.shape[1]:
        raise InvalidParameterError(f"a must be square, got shape {a.shape}")
    try:
        w, vec = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eig", a.shape[0], a.shape[1]) from exc
    w = w.astype(complex, copy=False)
    vec = vec.astype(complex, copy=False)
    by_mod = np.argsort(-np.abs(w), kind="stable")
    mods = np.abs(w[by_mod])
    # One pass: a new tie group starts where a modulus drops by over 1e-9.
    group = np.cumsum(mods < (1 - 1e-9) * np.r_[mods[:1], mods[:-1]])
    # lexsort uses the last key as the primary one.
    order = by_mod[np.lexsort((-w.imag[by_mod], group))]
    return EigResult(eigenvalues=w[order], eigenvectors=vec[:, order])


def pseudoinverse_apply(phi, x) -> np.ndarray:
    """Least-squares solution ``b`` minimizing ``||phi @ b - x||_2``.

    Solved through the SVD of ``phi``; singular values below
    ``PINV_CUTOFF`` times the largest are treated as zero.

    Raises
    ------
    InvalidParameterError
        If :func:`~delaydmd.snapshots.check_array` refuses ``phi`` or ``x``.
    DegenerateModesError
        If ``phi`` is zero.
    """
    phi = check_array("phi", phi, (None, None), None)
    x = check_array("x", x, (phi.shape[0],), None)
    try:
        u, s, vh = np.linalg.svd(phi, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("svd", phi.shape[0], phi.shape[1]) from exc
    if s[0] <= 0.0:
        raise DegenerateModesError("mode matrix is numerically zero")
    keep = s > PINV_CUTOFF * s[0]
    coeffs = (u[:, keep].conj().T @ x) / s[keep]
    return vh[keep, :].conj().T @ coeffs


def row_blocked_matmul(a, b, _real=False) -> np.ndarray:
    """``a @ b`` formed ``_ROW_BLOCK`` rows at a time, for each product with a row per state:
    on two threads OpenBLAS 0.3.31 keeps a packed copy of ``a`` after it returns, 13.3 MB for
    10000 rows at once, 1.8 MB in blocks. Same kernel, same operands: the bits of ``a @ b``.
    A lone last row (numpy's vector kernel) joins the block before. ``_real``: the real part."""
    m = a.shape[0]
    out = np.empty((m, b.shape[1]), float if _real else np.result_type(a, b))
    for lo in range(0, max(m - 1, 1), _ROW_BLOCK):
        hi = lo + _ROW_BLOCK if lo + _ROW_BLOCK < m - 1 else m
        product = np.matmul(a[lo:hi], b, out=None if _real else out[lo:hi])
        if _real:
            out[lo:hi] = product.real
    return out


def real_complex_matmul(a, z) -> np.ndarray:
    """``a @ z`` for real ``a`` and complex ``z`` as one real product.

    The real and imaginary parts of ``z`` are interleaved column by column,
    multiplied in one real product and the result read back as complex,
    which takes half the arithmetic of promoting ``a`` to complex; in row
    blocks, with the bits of ``(a @ pairs).view(complex)``."""
    z = np.asarray(z, dtype=complex)
    pairs = np.stack([z.real, z.imag], axis=-1).reshape(z.shape[0], 2 * z.shape[1])
    return row_blocked_matmul(np.asarray(a, dtype=float), pairs).view(complex)
