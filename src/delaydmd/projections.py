"""Measurement-reduction operators and the Arnoldi process.

Four operator kinds are supported, those the paper compares: ``sampling``
(random row extraction without replacement), ``gaussian`` (dense random
projection, entry variance 1/a), ``achlioptas`` (sparse three-point random
projection) and ``krylov`` (orthonormal rows spanning the all-ones vector
plus a random subspace). No reduction is the sampling of every row, which
:func:`identity_operator` builds. The Krylov rows are a seeded Gaussian
block orthonormalized by CholeskyQR, which refuses a block with condition
number above 1e7, its limit; the row span has the same distribution as that
of an Arnoldi run on a seeded d-by-d Gaussian matrix.

The seeded kinds store only a seed, never the a-by-D matrix (Tropp,
Yurtsever, Udell & Cevher 2017), so that their build draws nothing.
:func:`apply` regenerates the matrix in column panels of at most
``_PANEL_ENTRIES`` entries, each delay block split evenly, and sums the panel
products (Halko, Martinsson & Tropp 2011); Krylov's are orthonormalized
after the sum. :func:`gram_deviation` is a diagnostic the run never calls: it
regenerates the operator's panels afresh on each call and keeps nothing. All
constructors are pure functions of their arguments.
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
from .snapshots import SnapshotMatrix, as_array, check_array, check_count, is_integer

KINDS = ("sampling", "gaussian", "achlioptas", "krylov")

# Operator entries in one panel that apply regenerates or slices (4 MB).
_PANEL_ENTRIES = 2**19


class ProjectionOperator:
    """An a-by-D matrix that maps full states to a measurements.

    Each kind keeps only what applies its matrix:

    - ``sampling``: ``indices``, its rows of I_D, sorted ascending. It takes
      no ``matrix``, which could disagree with them;
    - ``gaussian``: ``seed``. Row r is drawn from its own stream, the r-th
      child of ``SeedSequence(seed).spawn(a)``, because normal draws take a
      variable number of 64-bit words and so cannot be skipped over;
    - ``achlioptas``: ``seed`` and ``sparsity_s``. Every uniform draw takes
      one 64-bit word, so row r starts at the seeded generator advanced by
      r*D;
    - ``krylov``: ``seed``, which draws its block (see :func:`krylov_operator`);
    - any other kind given an explicit ``matrix``: one read-only, C-ordered
      float64 copy of it, so the caller's array stays theirs.

    Without a matrix, ``d`` gives D. Reading ``matrix`` returns the dense
    a-by-D array, built afresh on each access unless it is stored.
    """

    def __init__(self, kind: str, matrix, a: int, seed: int | None,
                 sparsity_s: int | None = None, indices=None, *,
                 d: int | None = None):
        if kind not in KINDS:
            raise InvalidParameterError(f"unknown operator kind {kind!r}")
        self.kind, self.a, self.seed, self.sparsity_s = kind, a, seed, sparsity_s
        self._stored = None
        if matrix is not None and kind == "sampling":
            raise InvalidParameterError("the sampling operator takes no matrix; "
                                        "its indices define it")
        if matrix is None and kind != "sampling":
            check_count("seed", seed, 0, np.inf)
            if kind == "achlioptas":
                check_sparsity(sparsity_s)
        if matrix is not None:
            m = check_array("matrix", matrix, (a, None)).copy()  # C-ordered
            m.setflags(write=False)
            self._stored, d = m, m.shape[1]
        elif d is None or kind == "sampling" and indices is None:
            raise InvalidParameterError(
                f"a {kind} operator needs its matrix, or d and what regenerates its rows"
            )
        check_count("state dimension d", d, 1)
        check_count("measurement count a", a, 1, d)
        self.d = d
        self.indices = _checked_indices(indices, a, d) if kind == "sampling" else None

    @property
    def matrix(self) -> np.ndarray:
        """The dense a-by-D matrix; a fresh array unless it is stored."""
        if self._stored is not None:
            return self._stored
        if self.kind == "sampling":
            m = np.zeros((self.a, self.d))
            m[np.arange(self.a), self.indices] = 1.0
            return m
        return next(_panels(self, [self.d]))


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
    """I_d, the reduction-free reference: the sampling of all d rows. It
    stores their indices and draws nothing."""
    return ProjectionOperator("sampling", None, d, None, indices=np.arange(d), d=d)


def sampling_operator(d: int, a: int, seed: int) -> ProjectionOperator:
    """Random sampling without replacement: a distinct canonical rows of I_d.

    Row indices are drawn uniformly without replacement from the seeded
    generator and sorted ascending, so the operator extracts a spatial
    traces in index order. Only the indices are stored.
    """
    check_count("state dimension d", d, 1)  # before rng.choice's errors
    check_count("measurement count a", a, 1, d)
    check_count("seed", seed, 0, np.inf)
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(d, size=a, replace=False))
    return ProjectionOperator(kind="sampling", matrix=None, a=a, seed=seed,
                              indices=indices, d=d)


def gaussian_operator(d: int, a: int, seed: int) -> ProjectionOperator:
    """Dense Gaussian projection with entry variance 1/a.

    The scaling makes the expected column gram E[R* R] the identity, so
    projected vectors keep their length on average.

    Row r is ``default_rng(child).standard_normal(d) / sqrt(a)`` for the r-th
    child of ``SeedSequence(seed).spawn(a)``, so it depends only on the seed
    and r. Only the seed is stored; nothing is drawn here.
    """
    return ProjectionOperator(kind="gaussian", matrix=None, a=a, seed=seed, d=d)


def achlioptas_operator(d: int, a: int, s: int, seed: int) -> ProjectionOperator:
    """Sparse three-point random projection.

    Entries are ``sqrt(s)`` times -1, 0, +1 with probabilities 1/(2s),
    1 - 1/s, 1/(2s), then the whole matrix is scaled by 1/sqrt(a) so the
    expected column gram is the identity. With s = 3 about two thirds of
    the entries are exactly zero.

    The draw is that of ``rng.choice([-1, 0, 1], size=(a, d), p=probs)``,
    which compares ``rng.random((a, d))`` against the normalized cumulative
    probabilities. Only the seed and s are stored; nothing is drawn here.
    """
    return ProjectionOperator(kind="achlioptas", matrix=None, a=a, seed=seed,
                              sparsity_s=s, d=d)


def arnoldi(a_matrix, b, m: int) -> ArnoldiResult:
    """Modified Gram-Schmidt Arnoldi iteration on (a_matrix, b) for m steps.

    Builds an orthonormal basis of the Krylov subspace
    span{b, A b, ..., A^(m-1) b} column by column; entry (j, i) of the
    Hessenberg matrix records the component of A v_i along v_j and entry
    (i+1, i) the norm of what remains. If that norm falls to 1e-12 times the
    Frobenius norm of ``a_matrix`` or below, the subspace is invariant and the
    iteration stops early with ``breakdown = True``.
    """
    b = check_array("b", b, (None,))
    n = b.size
    a_matrix = check_array("a_matrix", a_matrix, (n, n))
    check_count("steps m", m, 1, n)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        raise InvalidStartVectorError("start vector is zero")
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

    Row 0 is 1/sqrt(d); rows 1..a are the rest of Q* for the thin QR, with
    diag(R) > 0, of the block B = [1/sqrt(d), standard_normal((d, a))]. The row
    span has the same distribution as the Krylov space K_(a+1)(G, 1) of a
    d-by-d Gaussian G (Q G Q* has the law of G for each orthogonal Q fixing 1).

    Only the seed is stored; nothing is drawn here. Each use draws B as ``standard_normal((d, a))``
    does and orthonormalizes it by CholeskyQR (Fukaya et al. 2014; :func:`_cholesky_qr`): rows
    L^-1 B* for L L* = B* B, that Q* in exact arithmetic. A block too ill-conditioned for it, which
    is rare, raises :class:`RankDeficientBasisError` at its first use.
    """
    check_count("state dimension d", d, 1)
    check_count("subspace dimension a", a, 1, d - 1)  # a + 1 basis vectors
    return ProjectionOperator(kind="krylov", matrix=None, a=a + 1, seed=seed, d=d)


def apply(op: ProjectionOperator, x, q: int = 1) -> np.ndarray:
    """Project the columns of the depth-q Hankel matrix of ``x``, an array or a checked
    :class:`~delaydmd.snapshots.SnapshotMatrix`, to measurement space, without forming it.

    Row b*M + i of the (q*M)-by-(N-q+1) Hankel matrix of the M-by-N data is
    row i of ``x[:, b:b+N-q+1]``. Sampling gathers those entries directly, so
    the identity operator gives a copy of the Hankel matrix. The other kinds
    sum the products P_b @ x[:, b:b+N-q+1], each panel P_b = R[:, b*M:(b+1)*M]
    split into equal sub-panels of at most ``_PANEL_ENTRIES`` entries, sliced
    from a stored matrix or regenerated from the seed (Krylov's raw, the sum then orthonormalized
    by :func:`_cholesky_qr`). Nothing is written to ``op``. With q = 1 it is the plain product.
    """
    x = x.data if isinstance(x, SnapshotMatrix) else check_array("x", x, (None, None))
    m, n = x.shape
    check_count("q", q, 1, max(n - 1, 1), InvalidDelayError)  # q = 1 on one column too
    if q * m != op.d:
        raise ShapeMismatchError(
            f"operator expects {op.d} rows, the depth-{q} Hankel matrix of the data "
            f"has {q * m}"
        )
    cols = n - q + 1
    if op.kind == "sampling":
        blocks, rows = np.divmod(op.indices, m)
        return x[rows[:, None], blocks[:, None] + np.arange(cols)]
    # Each sub-panel meets one row block of x, in its delay block b.
    parts = np.array_split(x, -(-m // max(1, _PANEL_ENTRIES // op.a)))
    windows = [part[:, b:b + cols] for b in range(q) for part in parts]
    widths = [len(window) for window in windows]
    if op.kind == "krylov" and op._stored is None:
        factors, out = _cholesky_qr(op, widths, lambda i, panel: panel @ windows[i])
        return factors[-1] @ out
    out = np.zeros((op.a, cols))
    for window, panel in zip(windows, _panels(op, widths)):
        out += panel @ window
    return out


def gram_deviation(op: ProjectionOperator) -> float:
    """Row-gram departure from orthonormality: ||R R* - I||_F / sqrt(a).

    Exactly zero for sampling, the identity operator included, whose rows
    are distinct rows of I_D, so it is returned without forming R R*; below
    1e-10 for the Krylov kind, and order D/a for the dense random kinds
    (their normalization targets the column gram instead).

    Otherwise each call sums the grams of a panels of about D/a columns,
    regenerated or sliced from a caller's matrix: one sweep of the operator, after a
    Krylov one's for its factors, and about 2a^2 D flops. Nothing is cached on ``op``.
    """
    if op.kind == "sampling":
        return 0.0
    widths = [op.d // op.a + (r < op.d % op.a) for r in range(op.a)]
    gram = sum(p @ p.T for p in _panels(op, widths))
    return float(np.linalg.norm(gram - np.eye(op.a)) / np.sqrt(op.a))


def _panels(op: ProjectionOperator, widths):
    """Yield the operator's consecutive column panels of the given widths,
    which sum to D, left to right.

    A stored matrix is sliced; Krylov's raw panels are multiplied by :func:`_cholesky_qr`'s factors.
    Otherwise each row gets its own generator at its first draw, and every
    panel draws the next entries of each row into one reused buffer.
    """
    if op._stored is not None:
        yield from np.split(op._stored, np.cumsum(widths)[:-1], axis=1)
        return
    if op.kind == "krylov":
        yield from _krylov_panels(op, widths, _cholesky_qr(op, widths)[0])
        return
    if op.kind == "gaussian":
        def row_bits(r):
            return np.random.PCG64(np.random.SeedSequence(op.seed, spawn_key=(r,)))

        def fill(gen, row):
            gen.standard_normal(out=row)
            np.divide(row, np.sqrt(op.a), out=row)
    else:
        def row_bits(r):
            return np.random.PCG64(op.seed).advance(r * op.d)

        s = op.sparsity_s
        cdf = np.cumsum([1.0 / (2 * s), 1.0 - 1.0 / s, 1.0 / (2 * s)])
        cdf /= cdf[-1]
        scale = np.sqrt(s) / np.sqrt(op.a)

        def fill(gen, row):
            gen.random(out=row)
            np.subtract(row >= cdf[1], row < cdf[0], out=row, dtype=float)
            row *= scale
    gens = [np.random.Generator(row_bits(r)) for r in range(op.a)]
    # Each row is mapped right after its draw, while it is still in cache.
    buffer = np.empty((op.a, max(widths)))
    for width in widths:
        panel = buffer[:, :width]
        for gen, row in zip(gens, panel):
            fill(gen, row)
        yield panel


def _krylov_panels(op: ProjectionOperator, widths, factors=()):
    """Yield panels of the raw block [1/sqrt(d); G] times each factor, made a columns at a time."""
    rng, w = np.random.default_rng(op.seed), op.a
    buffer = np.empty((w, max(widths)))
    for width in widths:
        for block in np.hsplit(buffer[:, :width], range(w, width, w)):
            block[0] = 1.0 / np.sqrt(op.d)
            block[1:] = rng.standard_normal((block.shape[1], w - 1)).T
            for inv_l in factors:
                block[...] = inv_l @ block
        yield buffer[:, :width]


def _cholesky_qr(op: ProjectionOperator, widths, term=lambda i, panel: 0):
    """CholeskyQR of the Krylov block in panels of ``widths``: its inverse factors L^-1, L L*
    a sweep's gram, and the last sweep's sum of ``term(i, panel)``. A second sweep, of the rows
    times the first factor (CholeskyQR2), runs if D^-1 L, D = sqrt(diag gram), has condition
    number above 30: one pass may then leave the rows 5 cond^2 eps = 1e-12 from orthonormal
    (Yamamoto et al. 2015). Raises :class:`RankDeficientBasisError` for a factor that fails,
    has condition number above 1e7 or, if last, leaves its gram over 1e-12 from the identity."""
    factors = []
    for _ in range(2):
        out = gram = 0  # arrays from the first panel on, summed in place
        for i, panel in enumerate(_krylov_panels(op, widths, factors)):
            out += term(i, panel)
            gram += panel @ panel.T
        try:
            factor = np.linalg.cholesky(gram)
            usable = np.linalg.cond(factor) <= 1e7  # past it, a factor can be roundoff
        except np.linalg.LinAlgError:
            usable = False
        if not usable:
            raise RankDeficientBasisError(
                "random block too ill-conditioned for CholeskyQR; try another seed")
        # tril: roundoff above the inverse's diagonal would tilt row 0 off the ones vector.
        factors.append(np.tril(np.linalg.inv(factor)))
        if np.linalg.cond(factor / np.sqrt(np.diag(gram))[:, None]) <= 30:
            break
    if not np.max(np.abs(factors[-1] @ gram @ factors[-1].T - np.eye(op.a))) <= 1e-12:
        raise RankDeficientBasisError(  # NaN fails too
            "CholeskyQR left the rows more than 1e-12 from orthonormal; try another seed")
    return factors, out


def _checked_indices(indices, a: int, d: int) -> np.ndarray:
    """Sampling rows, checked to be a sorted, distinct, in-range set of a."""
    idx = as_array([] if indices is None else indices)
    if (idx is None or idx.shape != (a,) or not np.issubdtype(idx.dtype, np.integer)
            or idx[0] < 0 or idx[-1] >= d or np.any(np.diff(idx) <= 0)):
        raise InvalidParameterError(
            f"sampling indices must be {a} distinct integers in [0, {d}), sorted ascending"
        )
    return idx


def check_sparsity(s) -> None:
    """Refuse an Achlioptas sparsity s other than the integers 1 and 3."""
    if not (is_integer(s) and s in (1, 3)):
        raise InvalidParameterError(f"sparsity_s must be 1 or 3, got {s}")
