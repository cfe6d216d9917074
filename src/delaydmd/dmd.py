"""One exact-DMD fit core behind three entry points, and model evaluation.

Every fit runs the same step on some before/after pair: truncate an SVD,
eigendecompose the low-rank map, form the modes and solve for the
amplitudes of the first column. The entry points differ only in the pair
they hand it. ``dmd_classic`` passes a data matrix's column pairs as they
are. ``dmd_tdc`` first stacks q consecutive snapshots per column (delay
embedding), which lets purely oscillatory data carry complex eigenvalue
pairs a raw state cannot. ``dmd_projected`` additionally sketches the
embedded pair through a measurement-reduction operator; the core then fits
in sketch space and recovers exact modes from the unprojected shifted
matrix, so the model still predicts in the original state space.

Both delay fits run on the embedding in the QR coordinates of the raw
snapshots (:func:`~delaydmd.snapshots.delay_embed`): the R of a QR X = Q R
of the M-by-N training snapshots turns the (q*M)-row Hankel pair into one
with q*min(M, N) rows and the same singular values, right singular vectors,
pencil and least-squares solutions, on which the SVD, eigenproblem and
amplitude solve run. Q is not kept: a mode's raw-state block is the same
combination V W / sigma of the training snapshots' columns (exact DMD's
X V W / sigma), which the model keeps with a view of those columns, forming
the modes on access (:attr:`DmdModel.modes`). A sketched fit never forms
the explicit Hankel matrix either: the operator is applied one delay block
at a time (:func:`~delaydmd.projections.apply` with depth q), so the sketch
allocates only its own a-by-(N-q+1) result. Mode columns may differ from
those of a fit on the explicit embedding by a sign or phase per column; the
amplitudes compensate, so spectra and predictions agree to roundoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientMeasurementsError,
    InvalidParameterError,
    ModelParseError,
    ShapeMismatchError,
    ZeroInitialConditionError,
)
from .numerics import (eig_dense, pseudoinverse_apply, real_complex_matmul, row_blocked_matmul,
                       thin_svd)
from .projections import ProjectionOperator, apply as apply_operator
from .snapshots import (DelayEmbedding, SnapshotMatrix, as_array, check_array, check_count,
                        check_real, check_time_axis, delay_embed, hankel_block, integral,
                        is_integer, read_field, read_json, read_matrix, real, write_csv,
                        write_json)

# Discrete eigenvalues below this modulus cannot be mapped to a finite
# continuous exponent; they are dropped with a warning.
_ZERO_EIGENVALUE_CUTOFF = 1e-12

# Half-width of the |mu| band classified as sitting on the unit circle.
_UNIT_CIRCLE_TOL = 1e-6


@dataclass(frozen=True)
class RankPolicy:
    """How many singular values to keep when truncating the pencil.

    Either a fixed rank or every singular value above a relative threshold.
    """

    mode: str
    r: int | None = None
    tol: float | None = None

    def __post_init__(self):
        if not (isinstance(self.mode, str) and self.mode in ("fixed", "tol")):
            raise InvalidParameterError(f"unknown rank policy mode {self.mode!r}")
        if self.mode == "fixed":
            check_count("fixed rank r", self.r, 1)
        if self.mode == "tol":
            check_real("tol", self.tol, 0, 1)

    @classmethod
    def fixed(cls, r: int) -> "RankPolicy":
        return cls(mode="fixed", r=r)

    @classmethod
    def relative_threshold(cls, tol: float) -> "RankPolicy":
        return cls(mode="tol", tol=tol)

    def resolve(self, singular_values: np.ndarray) -> int:
        """Nominal truncation rank for a descending singular-value profile."""
        if self.mode == "fixed":
            return self.r
        if singular_values.size == 0 or singular_values[0] <= 0.0:
            return 0
        return int(np.sum(singular_values > self.tol * singular_values[0]))

    def describe(self) -> str:
        return f"fixed:{self.r}" if self.mode == "fixed" else f"tol:{self.tol:g}"

    @classmethod
    def parse(cls, text: str) -> "RankPolicy":
        """Parse ``fixed:R`` or ``tol:T``."""
        kind, _, value = text.partition(":")
        try:
            if kind == "fixed":
                return cls.fixed(int(value))
            if kind == "tol":
                return cls.relative_threshold(float(value))
        except ValueError:
            pass
        raise InvalidParameterError(f"cannot parse rank policy {text!r}")


DEFAULT_RANK_POLICY = RankPolicy.relative_threshold(1e-10)


@dataclass(frozen=True)
class DmdModel:
    """A fitted linear model: spatial modes with per-step multipliers.

    ``eigenvalues_discrete`` are the per-step multipliers mu,
    ``exponents`` their continuous counterparts ln(mu)/dt, and
    ``amplitudes`` the coordinates of the first snapshot in the mode basis.
    The raw-state ``modes`` (``base_m`` rows, one column per eigenvalue) are
    ``basis @ coefficients``. A delay fit's basis is a read-only view of its
    training snapshots, which the model keeps alive; explicit modes are a
    basis without coefficients; a spectrum-only model has neither.
    """

    basis: np.ndarray | None
    eigenvalues_discrete: np.ndarray
    exponents: np.ndarray
    amplitudes: np.ndarray
    rank: int
    q: int
    base_m: int
    dt: float
    t0: float = 0.0
    variant: str = "classic"
    measurements: int | None = None
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        # Each shape is () for None or a ragged or non-numeric value.
        spectra = [np.shape(as_array(v, np.asarray)) for v in
                   (self.eigenvalues_discrete, self.exponents, self.amplitudes)]
        r = spectra[0][0] if len(spectra[0]) == 1 else -1
        if any(s != (r,) for s in spectra):
            raise InvalidParameterError("eigenvalues, exponents and amplitudes must align")
        shape, c_given = (np.shape(as_array(v, np.asarray)) for v in (self.basis, self.coefficients))
        # Explicit modes are a basis with the identity as its coefficients.
        c_shape = shape[1:] * 2 if self.coefficients is None else c_given
        if (self.basis is not None or self.coefficients is not None) and (
                len(shape) != 2 or not is_integer(self.base_m) or shape[0] != self.base_m
                or c_shape != (shape[1], r)):
            raise InvalidParameterError(
                f"modes must be base_m-by-rank, {self.base_m}-by-{r}: got a basis of shape "
                f"{shape} and coefficients of shape {c_given}")
        if not (is_integer(self.rank) and self.rank == r):
            raise InvalidParameterError("rank must equal the number of retained eigenvalues")
        check_time_axis(self.dt, self.t0)
        # Each field of the model file reads back from its written form as the value held,
        # so every model saves and reloads as itself.
        record = self._record()
        for key, reader in _MODEL_FIELDS.items():
            back = read_field(record, key, reader, "model", InvalidParameterError)
            if not np.array_equal(back, getattr(self, key)):
                raise InvalidParameterError(f"model: field {key!r} reads back as {back!r}")

    def _record(self) -> dict:
        """The model file's record: each field of :data:`_MODEL_FIELDS`, the arrays
        through :func:`_complex_list`."""
        return {key: _complex_list(getattr(self, key)) if reader is _complex_array
                else getattr(self, key) for key, reader in _MODEL_FIELDS.items()}

    @property
    def modes(self) -> np.ndarray | None:
        """``real_complex_matmul(basis, coefficients)``, formed on each access in
        row blocks with the bits of one product; the basis without coefficients."""
        if self.coefficients is None:
            return self.basis
        return real_complex_matmul(self.basis, self.coefficients)


def _truncate(svd, policy: RankPolicy, rank_limit=None) -> int:
    """Truncation rank of ``svd`` under ``policy``: the nominal rank the
    policy picks, lowered to the number of nonzero singular values with a
    RuntimeWarning when that changes it.

    ``rank_limit`` is a (cap, name) pair that caps the nominal rank;
    exceeding it means the sketch cannot support the requested rank.
    """
    sigma = svd.singular_values
    r_nominal = policy.resolve(sigma)
    r = min(r_nominal, int(np.count_nonzero(sigma > 0.0)))
    if r < 1:
        raise DegenerateDataError("no nonzero singular values above the truncation threshold")
    if rank_limit is not None and r_nominal > rank_limit[0]:
        cap, name = rank_limit
        raise InsufficientMeasurementsError(
            f"truncation rank {r_nominal} exceeds {name} = {cap}; "
            f"the sketch needs {name} >= r"
        )
    if r < r_nominal:
        warnings.warn(f"requested rank {r_nominal} lowered to {r}, the number of "
                      f"nonzero singular values", RuntimeWarning)
    return r


def _fit(x1, x2, policy: RankPolicy, *, sketch=None, rank_limit=None,
         raw=None, **model_fields) -> DmdModel:
    """Exact DMD of the pair (x1, x2), the core of every fit.

    Truncates the SVD of x1 under ``policy``, eigendecomposes the low-rank
    map U* x2 V / sigma and takes the modes U W. With ``sketch`` (the
    sketched x1 columns, then the sketched last x2 column) the SVD and the
    map come from the sketch, its rank capped by ``rank_limit``, and the
    modes are the exact modes x2 V W / sigma. Amplitudes fit the first
    column of x1. With ``raw``, snapshots whose columns 0..n-1 and 1..n head
    x1 and x2, the model keeps the basis raw[:, :n] (raw[:, 1:n+1] if
    sketched) and the coefficients V W / sigma, not their product.
    ``model_fields`` (dt among them) go to the :class:`DmdModel`.
    """
    first = x1[:, 0]
    if not np.any(first != 0.0):
        raise ZeroInitialConditionError(
            "first column of the fit is zero, so every mode amplitude would vanish; "
            "start the fit at a nonzero sample"
        )
    fit_x1, fit_x2 = (x1, x2) if sketch is None else (sketch[:, :-1], sketch[:, 1:])
    svd = thin_svd(fit_x1)
    r = _truncate(svd, policy, rank_limit)
    u, sigma, v = svd.u[:, :r], svd.singular_values[:r], svd.v[:, :r]
    eig = eig_dense((u.T @ fit_x2 @ v) / sigma)
    coeffs = (v / sigma) @ eig.eigenvectors
    if sketch is None:
        modes = row_blocked_matmul(u.astype(complex), eig.eigenvectors)
    else:
        modes = real_complex_matmul(x2, coeffs)
    keep = np.abs(eig.eigenvalues) > _ZERO_EIGENVALUE_CUTOFF
    if not np.all(keep):
        warnings.warn(
            f"dropping {int(np.sum(~keep))} eigenvalue(s) with modulus below "
            f"{_ZERO_EIGENVALUE_CUTOFF:g}; they have no finite continuous exponent",
            RuntimeWarning,
        )
    if not np.any(keep):
        raise DegenerateDataError("every eigenvalue collapsed to zero")
    mu, modes = eig.eigenvalues[keep], modes[:, keep]
    basis, coefficients = modes, None
    if raw is not None:
        n = x1.shape[1]
        basis = raw[:, :n] if sketch is None else raw[:, 1:n + 1]
        coefficients = coeffs[:, keep]
    return DmdModel(
        basis=basis,
        eigenvalues_discrete=mu,
        exponents=np.log(mu) / model_fields["dt"],
        amplitudes=pseudoinverse_apply(modes, first),
        rank=mu.size,
        coefficients=coefficients,
        **model_fields,
    )


def dmd_classic(x1, x2, dt: float, policy: RankPolicy = DEFAULT_RANK_POLICY,
                *, t0: float = 0.0) -> DmdModel:
    """Fit the best-fit linear map taking the columns of x1 to those of x2.

    Modes are the truncated left singular vectors rotated by the low-rank
    eigenvectors; amplitudes solve the least-squares projection of the first
    column of x1 onto the modes.
    """
    x1, x2 = check_array("x1", x1, (None, None)), check_array("x2", x2, (None, None))
    if x1.shape != x2.shape:
        raise ShapeMismatchError(f"x1 {x1.shape} and x2 {x2.shape} must match")
    return _fit(x1, x2, policy,
                q=1, base_m=x1.shape[0], dt=dt, t0=t0, variant="classic")


def dmd_tdc(x: SnapshotMatrix | DelayEmbedding, q: int,
            policy: RankPolicy = DEFAULT_RANK_POLICY) -> DmdModel:
    """Delay-embed the snapshots to depth q, then fit as in dmd_classic.

    With q = 1 this reduces exactly to the classic fit on the split pair.
    The model's modes are the raw-state block of the embedded modes, so it
    predicts the original state. ``x`` may also be a prebuilt
    :class:`~delaydmd.snapshots.DelayEmbedding` of depth q, compressed (which
    saves its QR when several fits share the data) or explicit.
    """
    emb = x if isinstance(x, DelayEmbedding) else delay_embed(x, q)
    if emb.q != q:
        raise InvalidParameterError(f"embedding has depth q = {emb.q}, fit asked for q = {q}")
    s = emb.snapshots
    return _fit(emb.x1, emb.x2, policy, raw=s.data,
                q=q, base_m=s.m, dt=s.dt, t0=s.t0, variant="tdc")


def dmd_projected(x: SnapshotMatrix | DelayEmbedding, q: int, op: ProjectionOperator,
                  policy: RankPolicy = DEFAULT_RANK_POLICY) -> DmdModel:
    """Sketch the delay-embedded pair through ``op``, fit in sketch space,
    and recover raw-state modes from the unprojected shifted matrix.

    The operator's width says where it acts. At q > 1 an operator P of width
    M sketches the raw snapshots and the sketch is embedded, which is the
    embedded-state sketch by I_q kron P, so the sketch has a*q rows. Any other
    operator acts on the embedded state and must have width q*M; its sketch
    has a rows. ``x`` may be snapshots or a prebuilt embedding of depth q, as
    in :func:`dmd_tdc`.

    The nominal truncation rank must not exceed the sketch's row count.
    """
    emb = x if isinstance(x, DelayEmbedding) else delay_embed(x, q)
    if emb.q != q:
        raise InvalidParameterError(f"embedding has depth q = {emb.q}, fit asked for q = {q}")
    s = emb.snapshots
    if q > 1 and op.d == s.m:
        # Sketching each delay block equals embedding the sketched snapshots.
        sketch = hankel_block(apply_operator(op, s), q)
        rank_limit = (op.a * q, "measurements*q")
    else:
        sketch = apply_operator(op, s, q)
        rank_limit = (op.a, "measurements")
    return _fit(emb.x1, emb.x2, policy, sketch=sketch, rank_limit=rank_limit,
                raw=s.data, q=q, base_m=s.m, dt=s.dt, t0=s.t0,
                variant=f"projected({op.kind})", measurements=op.a)


def predict(model: DmdModel, k) -> np.ndarray:
    """Raw state at step k (time t0 + k*dt).

    ``k`` may also be a 1-d array of steps; the states are then the columns of the
    result, one product formed in row blocks with the bits of ``(modes @ coeff).real``.
    The modes are formed once per call; a frequent caller keeps them formed, as the
    basis of a copy of the model. Extrapolation beyond the training window is
    permitted; the caller decides how far to trust it.
    """
    steps = as_array(k)
    if steps is None or not np.all(steps >= 0):  # NaN fails too
        raise InvalidParameterError(f"step index must be nonnegative, got {k}")
    modes = model.modes
    if modes is None:
        raise InvalidParameterError("model carries no modes; refit or reload with modes")
    times = np.atleast_1d(steps) * model.dt
    coeff = np.exp(np.outer(model.exponents, times)) * model.amplitudes[:, None]
    # Only the real part of each row block is kept, so no M-by-k complex product is held.
    states = row_blocked_matmul(modes, coeff, _real=True)
    return states if steps.ndim else states[:, 0]


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue with its continuous exponent, amplitude magnitude and
    position relative to the unit circle."""

    mu: complex
    omega: complex
    amp_abs: float
    circle: str


def spectrum(model: DmdModel) -> list[SpectrumEntry]:
    """Per-eigenvalue summary in the model's deterministic eigenvalue order.

    Eigenvalues with modulus within 1e-6 of 1 classify as "on" the unit
    circle; inside means decay, outside warns of long-run growth.
    """
    entries = []
    for mu, omega, b in zip(model.eigenvalues_discrete, model.exponents,
                            model.amplitudes):
        radius = abs(mu)
        if radius < 1.0 - _UNIT_CIRCLE_TOL:
            circle = "inside"
        elif radius > 1.0 + _UNIT_CIRCLE_TOL:
            circle = "outside"
        else:
            circle = "on"
        entries.append(SpectrumEntry(mu=complex(mu), omega=complex(omega),
                                     amp_abs=float(abs(b)), circle=circle))
    return entries


def _complex_list(values) -> list[dict]:
    return [{"re": float(v.real), "im": float(v.imag)} for v in values]


def _complex_array(items) -> np.ndarray:
    return np.array([complex(real(d["re"]), real(d["im"])) for d in items], dtype=complex)


# The model file: each field in the order it is written, with the reader load_model
# passes it through (``str.__str__`` refuses a non-string). A model holds only what
# these read back as itself.
_MODEL_FIELDS = {"variant": str.__str__, "rank": integral, "q": integral, "base_m": integral,
                 "dt": real, "t0": real,
                 "measurements": lambda value: None if value is None else integral(value),
                 "eigenvalues_discrete": _complex_array, "exponents": _complex_array,
                 "amplitudes": _complex_array}


def save_model(model: DmdModel, path, include_modes: bool = False) -> None:
    """Write the model JSON, modes excluded; with ``include_modes`` also write
    ``<path stem>.modes.csv`` holding 2*base_m rows per mode column (real
    block stacked on imaginary block)."""
    if include_modes:  # formed and checked before any file is written
        if model.basis is None:
            raise InvalidParameterError("model carries no modes to write")
        modes = model.modes
        check_array("modes", modes, (None, None), None)  # load_model would refuse them
    path = Path(path)
    write_json(path, model._record())
    if include_modes:
        write_csv(path.with_suffix(".modes.csv"), None, np.vstack([modes.real, modes.imag]))


def load_model(path) -> DmdModel:
    """Reload a model JSON; picks up ``<stem>.modes.csv`` when present.

    Raises
    ------
    ModelParseError
        If either file cannot be parsed, a field is missing or malformed, or
        the fields disagree (``rank`` is not the eigenvalue count, or the
        eigenvalue, exponent and amplitude lists differ in length).
    ShapeMismatchError
        If the modes file is not 2*base_m rows by rank columns.
    """
    path = Path(path)
    d = read_json(path, ModelParseError)
    if isinstance(d, dict):
        d.setdefault("measurements", None)  # optional
    fields = {key: read_field(d, key, reader, path, ModelParseError)
              for key, reader in _MODEL_FIELDS.items()}
    try:
        model = DmdModel(basis=None, **fields)
    except InvalidParameterError as exc:
        raise ModelParseError(f"{path}: {exc}") from exc
    modes_path = path.with_suffix(".modes.csv")
    if not modes_path.exists():
        return model
    stacked = read_matrix(modes_path, ModelParseError)
    base_m = model.base_m
    if stacked.shape != (2 * base_m, model.rank):
        raise ShapeMismatchError(
            f"{modes_path}: modes are {stacked.shape[0]}x{stacked.shape[1]}, expected "
            f"{2 * base_m}x{model.rank} (real and imaginary blocks of "
            f"base_m rows, one column per eigenvalue)"
        )
    return replace(model, basis=stacked[:base_m] + 1j * stacked[base_m:])
