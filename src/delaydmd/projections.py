"""Measurement-reduction operators and the Arnoldi process.

Five operator kinds are supported: ``identity`` (no reduction), ``sampling``
(random row extraction without replacement), ``gaussian`` (dense random
projection, entry variance 1/a), ``achlioptas`` (sparse three-point random
projection) and ``krylov`` (orthonormal rows spanning the all-ones vector
plus a random subspace). The Krylov rows come from one thin QR of a seeded
Gaussian block; their row span has the same distribution as that of an
Arnoldi run on a seeded d-by-d Gaussian matrix. All constructors are pure
functions of their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDelayError,
    InvalidParameterError,
    InvalidStartVectorError,
    RankDeficientBasisError,
    ShapeMismatchError,
)
from .snapshots import hankel_block

KINDS = ("identity", "sampling", "gaussian", "achlioptas", "krylov")


@dataclass(frozen=True)
class ProjectionOperator:
    """An a-by-D matrix that maps full states to a measurements.

    ``indices`` is populated for the sampling kind (sorted ascending) and
    ``sparsity_s`` for the Achlioptas kind. The identity kind may leave
    ``matrix`` as None, with D = a, since nothing reads it.
    """

    kind: str
    matrix: np.ndarray | None
    a: int
    seed: int | None
    sparsity_s: int | None = None
    indices: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown operator kind {self.kind!r}")
        if self.matrix is None and self.kind == "identity":
            return
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != self.a:
            raise InvalidParameterError(
                f"matrix must be {self.a}-by-D, got shape {m.shape}"
            )
        if self.a > m.shape[1]:
            raise InvalidParameterError(
                f"measurement count {self.a} exceeds state dimension {m.shape[1]}"
            )
        if not np.all(np.isfinite(m)):
            raise InvalidParameterError("operator matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def d(self) -> int:
        """Dimension of the full state the operator accepts."""
        return self.a if self.matrix is None else self.matrix.shape[1]


@dataclass(frozen=True)
class ArnoldiResult:
    """Orthonormal Krylov basis and its companion Hessenberg matrix.

    Without breakdown after m steps, ``v_basis`` holds m+1 columns and
    ``hessenberg`` is (m+1)-by-m; on breakdown at step i the basis stops at
    i columns with an (i+1)-by-i Hessenberg whose last subdiagonal entry is
    below tolerance.
    """

    v_basis: np.ndarray
    hessenberg: np.ndarray
    steps_completed: int
    breakdown: bool


def identity_operator(d: int) -> ProjectionOperator:
    """The no-op operator; useful as the reduction-free reference."""
    if d < 1:
        raise InvalidParameterError(f"dimension must be positive, got {d}")
    return ProjectionOperator(kind="identity", matrix=None, a=d, seed=None)


def sampling_operator(d: int, a: int, seed: int) -> ProjectionOperator:
    """Random sampling without replacement: a distinct canonical rows of I_d.

    Row indices are drawn uniformly without replacement from the seeded
    generator and sorted ascending, so the operator extracts a spatial
    traces in index order.
    """
    _check_count(d, a)
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(d, size=a, replace=False))
    matrix = np.zeros((a, d))
    matrix[np.arange(a), indices] = 1.0
    return ProjectionOperator(kind="sampling", matrix=matrix, a=a, seed=seed,
                              indices=indices)


def gaussian_operator(d: int, a: int, seed: int) -> ProjectionOperator:
    """Dense Gaussian projection with entry variance 1/a.

    The scaling makes the expected column gram E[R* R] the identity, so
    projected vectors keep their length on average.
    """
    _check_count(d, a)
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((a, d))
    np.divide(matrix, np.sqrt(a), out=matrix)
    return ProjectionOperator(kind="gaussian", matrix=matrix, a=a, seed=seed)


def achlioptas_operator(d: int, a: int, s: int, seed: int) -> ProjectionOperator:
    """Sparse three-point random projection.

    Entries are ``sqrt(s)`` times -1, 0, +1 with probabilities 1/(2s),
    1 - 1/s, 1/(2s), then the whole matrix is scaled by 1/sqrt(a) so the
    expected column gram is the identity. With s = 3 about two thirds of
    the entries are exactly zero.

    The draw is that of ``rng.choice([-1, 0, 1], size=(a, d), p=probs)``,
    which compares ``rng.random((a, d))`` against the normalized cumulative
    probabilities; here each row is drawn and mapped in place, so no
    a-by-d temporary is formed.
    """
    if s not in (1, 3):
        raise InvalidParameterError(f"sparsity s must be 1 or 3, got {s}")
    _check_count(d, a)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum([1.0 / (2 * s), 1.0 - 1.0 / s, 1.0 / (2 * s)])
    cdf /= cdf[-1]
    scale = np.sqrt(s) / np.sqrt(a)
    matrix = np.empty((a, d))
    for row in matrix:
        rng.random(out=row)
        np.subtract(row >= cdf[1], row < cdf[0], out=row, dtype=float)
        row *= scale
    return ProjectionOperator(kind="achlioptas", matrix=matrix, a=a, seed=seed,
                              sparsity_s=s)


def arnoldi(a_matrix, b, m: int, tol: float | None = None) -> ArnoldiResult:
    """Modified Gram-Schmidt Arnoldi iteration on (a_matrix, b) for m steps.

    Builds an orthonormal basis of the Krylov subspace
    span{b, A b, ..., A^(m-1) b} column by column; entry (j, i) of the
    Hessenberg matrix records the component of A v_i along v_j and entry
    (i+1, i) the norm of what remains. If that norm falls to ``tol`` or
    below, the subspace is invariant and the iteration stops early with
    ``breakdown = True``.

    ``tol`` defaults to 1e-12 times the Frobenius norm of ``a_matrix``.
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
        raise InvalidParameterError(f"a_matrix must be square, got shape {a_matrix.shape}")
    n = a_matrix.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise InvalidParameterError(f"b must have length {n}, got shape {b.shape}")
    if not 1 <= m <= n:
        raise InvalidParameterError(f"steps must satisfy 1 <= m <= n = {n}, got {m}")
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        raise InvalidStartVectorError("start vector is zero")
    if tol is None:
        tol = 1e-12 * np.linalg.norm(a_matrix)

    v = np.empty((n, m + 1))
    h = np.zeros((m + 1, m))
    v[:, 0] = b / b_norm
    for i in range(m):
        w = a_matrix @ v[:, i]
        for j in range(i + 1):
            h[j, i] = v[:, j] @ w
            w -= h[j, i] * v[:, j]
        w_norm = np.linalg.norm(w)
        h[i + 1, i] = w_norm
        if w_norm <= tol:
            steps = i + 1
            return ArnoldiResult(v_basis=v[:, :steps].copy(),
                                 hessenberg=h[:steps + 1, :steps].copy(),
                                 steps_completed=steps, breakdown=True)
        v[:, i + 1] = w / w_norm
    return ArnoldiResult(v_basis=v, hessenberg=h, steps_completed=m, breakdown=False)


def krylov_operator(d: int, a: int, seed: int) -> ProjectionOperator:
    """Orthonormal rows spanning the all-ones vector and a random subspace.

    Row 0 is 1/sqrt(d); rows 1..a are Q* from one thin QR of a seeded
    d-by-a Gaussian block appended to it, signs fixed so diag(R) > 0. The
    row span has the same distribution as the Krylov space K_(a+1)(G, 1) of a
    d-by-d Gaussian G (Q G Q* has the law of G for each orthogonal Q fixing
    1). Raises :class:`RankDeficientBasisError` if any |R_ii| falls below
    1e-12 max |R_ii|, which has probability zero.
    """
    if a < 1:
        raise InvalidParameterError(f"subspace dimension must be positive, got {a}")
    if a + 1 > d:
        raise InvalidParameterError(
            f"subspace dimension {a} needs a + 1 <= d = {d} basis vectors"
        )
    rng = np.random.default_rng(seed)
    block = np.column_stack([np.full(d, 1.0 / np.sqrt(d)), rng.standard_normal((d, a))])
    q, r = np.linalg.qr(block)
    diag = np.diag(r)
    if np.min(np.abs(diag)) < 1e-12 * np.max(np.abs(diag)):
        raise RankDeficientBasisError("random block lost rank in QR; try another seed")
    q *= np.sign(diag)
    return ProjectionOperator(kind="krylov", matrix=q.T.copy(), a=a + 1, seed=seed)


def apply(op: ProjectionOperator, x, q: int = 1) -> np.ndarray:
    """Project the columns of the depth-q Hankel matrix of ``x`` down to
    measurement space, without forming that matrix.

    Row b*M + i of the (q*M)-by-(N-q+1) Hankel matrix of the M-by-N data is
    row i of ``x[:, b:b+N-q+1]``. Sampling gathers those entries directly;
    the dense kinds sum one product per delay block, R[:, b*M:(b+1)*M] @
    x[:, b:b+N-q+1], on strided views; identity returns the Hankel matrix
    itself. With q = 1 this is the plain product with ``x``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatchError(f"x must be 2-d, got shape {x.shape}")
    m, n = x.shape
    if q != 1 and not 1 <= q <= n - 1:
        raise InvalidDelayError(f"q must satisfy 1 <= q <= N-1 = {n - 1}, got {q}")
    if q * m != op.d:
        raise ShapeMismatchError(
            f"operator expects {op.d} rows, the depth-{q} Hankel matrix of the data "
            f"has {q * m}"
        )
    if op.kind == "identity":
        return x if q == 1 else hankel_block(x, q)
    cols = n - q + 1
    if op.kind == "sampling":
        blocks, rows = np.divmod(op.indices, m)
        return x[rows[:, None], blocks[:, None] + np.arange(cols)]
    out = op.matrix[:, :m] @ x[:, :cols]
    for b in range(1, q):
        out += op.matrix[:, b * m:(b + 1) * m] @ x[:, b:b + cols]
    return out


def gram_deviation(op: ProjectionOperator) -> float:
    """Row-gram departure from orthonormality: ||R R* - I||_F / sqrt(a).

    Exactly zero for sampling and identity, whose rows are distinct rows of
    I_D, so it is returned without forming R R*; below 1e-10 for the Krylov
    kind, and order D/a for the dense random kinds (their normalization
    targets the column gram instead).
    """
    if op.kind in ("sampling", "identity"):
        return 0.0
    gram = op.matrix @ op.matrix.T
    return float(np.linalg.norm(gram - np.eye(op.a)) / np.sqrt(op.a))


def _check_count(d: int, a: int) -> None:
    if d < 1:
        raise InvalidParameterError(f"state dimension must be positive, got {d}")
    if not 1 <= a <= d:
        raise InvalidParameterError(
            f"measurement count must satisfy 1 <= a <= {d}, got {a}"
        )
