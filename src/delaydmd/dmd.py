"""The three DMD fitting pipelines and model evaluation.

``dmd_classic`` fits a best-fit linear map between the before/after column
pairs of a data matrix. ``dmd_tdc`` first stacks q consecutive snapshots per
column (delay embedding), which lets purely oscillatory data carry complex
eigenvalue pairs a raw state cannot. ``dmd_projected`` additionally sketches
the embedded pair through a measurement-reduction operator and recovers
full-space modes from the unprojected shifted matrix, so the model still
predicts in the original state space.

Both delay fits run on the embedding held in the QR basis of the raw
snapshots (:func:`~delaydmd.snapshots.delay_embed`): one thin QR X = Q R of
the M-by-N training snapshots turns the (q*M)-row Hankel pair into a pair
with q*min(M, N) rows and the same singular values, right singular vectors,
pencil and least-squares solutions. The unsketched SVD, exact-mode recovery
and the amplitude solve all work on that compressed pair; full-space modes
are expanded blockwise through Q only when the model is built. A sketched
fit never forms the explicit Hankel matrix either: the operator is applied
one delay block at a time (:func:`~delaydmd.projections.apply` with depth
q), so the sketch allocates only its own a-by-(N-q+1) result. Mode columns
may differ from those of a fit on the explicit Hankel pair by a sign or
phase per column; the amplitudes compensate, so spectra and predictions
agree to roundoff.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientMeasurementsError,
    InvalidParameterError,
    ShapeMismatchError,
    ZeroInitialConditionError,
)
from .numerics import eig_dense, pseudoinverse_apply, real_complex_matmul, thin_svd
from .projections import ProjectionOperator, apply as apply_operator
from .snapshots import DelayEmbedding, SnapshotMatrix, delay_embed, hankel_block

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
        if self.mode == "fixed":
            if self.r is None or self.r < 1:
                raise InvalidParameterError("fixed rank must be >= 1")
        elif self.mode == "tol":
            if self.tol is None or not 0.0 < self.tol < 1.0:
                raise InvalidParameterError("relative threshold must lie in (0, 1)")
        else:
            raise InvalidParameterError(f"unknown rank policy mode {self.mode!r}")

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
    ``modes`` may be None for models reloaded from a spectrum-only file.
    """

    modes: np.ndarray | None
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

    def __post_init__(self):
        r = self.eigenvalues_discrete.shape[0]
        if self.exponents.shape != (r,) or self.amplitudes.shape != (r,):
            raise InvalidParameterError("eigenvalues, exponents and amplitudes must align")
        if self.modes is not None and self.modes.shape[1] != r:
            raise InvalidParameterError("modes must have one column per eigenvalue")
        if self.rank != r:
            raise InvalidParameterError("rank must equal the number of retained eigenvalues")


def _nonzero_rank(r_nominal: int, sigma: np.ndarray) -> int:
    """``r_nominal`` capped at the number of nonzero singular values, with a
    RuntimeWarning when the cap lowers it."""
    r = min(r_nominal, int(np.count_nonzero(sigma > 0.0)))
    if 0 < r < r_nominal:
        warnings.warn(f"requested rank {r_nominal} lowered to {r}, the number of "
                      f"nonzero singular values", RuntimeWarning)
    return r


def _truncated_pencil(x1, x2, policy, rank_limit=None):
    """SVD-truncate x1, form the low-rank map U* x2 V / sigma, eigendecompose.

    ``rank_limit`` is a (cap, name) pair that caps the nominal truncation
    rank; exceeding it means the sketch cannot support the requested rank.
    """
    svd = thin_svd(x1)
    sigma = svd.singular_values
    r_nominal = policy.resolve(sigma)
    if r_nominal < 1:
        raise DegenerateDataError("no singular values above the truncation threshold")
    if rank_limit is not None and r_nominal > rank_limit[0]:
        cap, name = rank_limit
        raise InsufficientMeasurementsError(
            f"truncation rank {r_nominal} exceeds {name} = {cap}; "
            f"the sketch needs {name} >= r"
        )
    r = _nonzero_rank(r_nominal, sigma)
    if r < 1:
        raise DegenerateDataError("data matrix is numerically zero")
    u = svd.u[:, :r]
    sigma_r = sigma[:r]
    v = svd.v[:, :r]
    low_rank_map = (u.T @ x2 @ v) / sigma_r
    eig = eig_dense(low_rank_map)
    return u, sigma_r, v, eig


def _drop_zero_eigenvalues(mu, modes):
    keep = np.abs(mu) > _ZERO_EIGENVALUE_CUTOFF
    if not np.all(keep):
        warnings.warn(
            f"dropping {int(np.sum(~keep))} eigenvalue(s) with modulus below "
            f"{_ZERO_EIGENVALUE_CUTOFF:g}; they have no finite continuous exponent",
            RuntimeWarning,
        )
        mu = mu[keep]
        modes = modes[:, keep]
    if mu.size == 0:
        raise DegenerateDataError("every eigenvalue collapsed to zero")
    return mu, modes


def _finish_model(coeffs, mu, first_column, dt, *, q, base_m, t0, variant,
                  measurements=None, expand=None) -> DmdModel:
    """Drop zero eigenvalues, solve for the amplitudes of ``first_column`` in
    the ``coeffs`` basis and build the model; ``expand`` maps the columns
    of ``coeffs`` to full-space modes when they are compressed coordinates."""
    mu, coeffs = _drop_zero_eigenvalues(mu, coeffs)
    exponents = np.log(mu) / dt
    amplitudes = pseudoinverse_apply(coeffs, first_column)
    return DmdModel(
        modes=coeffs if expand is None else expand(coeffs),
        eigenvalues_discrete=mu,
        exponents=exponents,
        amplitudes=amplitudes,
        rank=mu.size,
        q=q,
        base_m=base_m,
        dt=dt,
        t0=t0,
        variant=variant,
        measurements=measurements,
    )


def dmd_classic(x1, x2, dt: float, policy: RankPolicy = DEFAULT_RANK_POLICY,
                *, t0: float = 0.0) -> DmdModel:
    """Fit the best-fit linear map taking the columns of x1 to those of x2.

    Modes are the truncated left singular vectors rotated by the low-rank
    eigenvectors; amplitudes solve the least-squares projection of the first
    column of x1 onto the modes.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise ShapeMismatchError(f"x1 {x1.shape} and x2 {x2.shape} must match")
    if x1.ndim != 2 or x1.shape[1] < 1:
        raise ShapeMismatchError("x1 must be a matrix with at least one column")
    first = x1[:, 0]
    if not np.any(first != 0.0):
        raise ZeroInitialConditionError(
            "first snapshot is zero, so every mode amplitude would vanish; "
            "start the fit at a nonzero sample"
        )
    u, _, _, eig = _truncated_pencil(x1, x2, policy)
    modes = u.astype(complex) @ eig.eigenvectors
    return _finish_model(modes, eig.eigenvalues, first, dt,
                         q=1, base_m=x1.shape[0], t0=t0, variant="classic")


def _as_embedding(x, q: int) -> DelayEmbedding:
    if isinstance(x, DelayEmbedding):
        if x.q != q:
            raise InvalidParameterError(f"embedding has depth q = {x.q}, fit asked for q = {q}")
        return x
    return delay_embed(x, q)


def _fit_delay(emb: DelayEmbedding, policy: RankPolicy, op: ProjectionOperator | None,
               project_before_augment: bool) -> DmdModel:
    """The delay fit on a compressed embedding, sketched through ``op`` if given."""
    x, q = emb.snapshots, emb.q
    if not np.any(x.data[:, :q] != 0.0):
        raise ZeroInitialConditionError(
            "first embedded snapshot is zero; start the fit at a nonzero sample"
        )
    if op is None:
        u, _, _, eig = _truncated_pencil(emb.x1, emb.x2, policy)
        coeffs = u.astype(complex) @ eig.eigenvectors
        variant, measurements = "tdc", None
    else:
        if project_before_augment:
            if op.d != x.m:
                raise ShapeMismatchError(
                    f"operator acts on {op.d}-dim states but snapshots have {x.m} rows"
                )
            # Sketching each delay block equals embedding the sketched snapshots.
            sketch = hankel_block(apply_operator(op, x.data), q)
            rank_limit = (op.a * q, "measurements*q")
        else:
            sketch = apply_operator(op, x.data, q)
            rank_limit = (op.a, "measurements")
        _, sigma_z, v_z, eig = _truncated_pencil(sketch[:, :-1], sketch[:, 1:],
                                                 policy, rank_limit)
        # Exact-DMD modes from the unprojected shifted matrix, in compressed form.
        coeffs = real_complex_matmul(emb.x2, (v_z / sigma_z) @ eig.eigenvectors)
        variant, measurements = f"projected({op.kind})", op.a
    return _finish_model(coeffs, eig.eigenvalues, emb.x1[:, 0], x.dt,
                         q=q, base_m=x.m, t0=x.t0, variant=variant,
                         measurements=measurements, expand=emb.expand)


def dmd_tdc(x: SnapshotMatrix | DelayEmbedding, q: int,
            policy: RankPolicy = DEFAULT_RANK_POLICY) -> DmdModel:
    """Delay-embed the snapshots to depth q, then fit as in dmd_classic.

    With q = 1 this reduces exactly to the classic fit on the split pair.
    The model remembers q and the raw state size so predictions can be cut
    back down to the original state. ``x`` may also be a prebuilt
    :class:`~delaydmd.snapshots.DelayEmbedding` of depth q, which saves its
    QR when several fits share the data.
    """
    return _fit_delay(_as_embedding(x, q), policy, None, False)


def dmd_projected(x: SnapshotMatrix | DelayEmbedding, q: int, op: ProjectionOperator,
                  policy: RankPolicy = DEFAULT_RANK_POLICY,
                  *, project_before_augment: bool = False) -> DmdModel:
    """Sketch the delay-embedded pair through ``op``, fit in sketch space,
    and recover full-space modes from the unprojected shifted matrix.

    By default the operator acts on the embedded state (its column count
    must be q*M). With ``project_before_augment`` the raw snapshots are
    sketched first and the embedding applied to the sketch, which is a
    different factorization; the operator then acts on M-dimensional states.
    ``x`` may be snapshots or a prebuilt embedding of depth q, as in
    :func:`dmd_tdc`.

    The nominal truncation rank must not exceed the sketch's row count: a,
    the operator's measurement count, or a*q with ``project_before_augment``.
    """
    return _fit_delay(_as_embedding(x, q), policy, op, project_before_augment)


def predict(model: DmdModel, k) -> np.ndarray:
    """State at step k (time t0 + k*dt), cut to the raw state size.

    ``k`` may also be a 1-d array of steps; the states are then the columns
    of the result, computed in one product. Extrapolation beyond the
    training window is permitted; the caller decides how far to trust it.
    """
    if np.any(np.asarray(k) < 0):
        raise InvalidParameterError(f"step index must be nonnegative, got {k}")
    if model.modes is None:
        raise InvalidParameterError("model carries no modes; refit or reload with modes")
    times = np.atleast_1d(k) * model.dt
    coeff = np.exp(np.outer(model.exponents, times)) * model.amplitudes[:, None]
    states = (model.modes[: model.base_m] @ coeff).real
    return states if np.ndim(k) else states[:, 0]


def pod_modes(x: SnapshotMatrix, policy: RankPolicy = DEFAULT_RANK_POLICY) -> np.ndarray:
    """Energy-optimal orthonormal basis: truncated left singular vectors of
    the full snapshot matrix, sign-fixed by the shared convention."""
    if x.n < 2:
        raise DegenerateDataError("need at least 2 snapshots for a basis")
    svd = thin_svd(x.data)
    r = _nonzero_rank(policy.resolve(svd.singular_values), svd.singular_values)
    if r < 1:
        raise DegenerateDataError("no singular values above the truncation threshold")
    return svd.u[:, :r]


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
    return np.array([complex(d["re"], d["im"]) for d in items], dtype=complex)


def model_to_dict(model: DmdModel) -> dict:
    """JSON-friendly view of a model, modes excluded (they go to CSV)."""
    return {
        "variant": model.variant,
        "rank": model.rank,
        "q": model.q,
        "base_m": model.base_m,
        "dt": model.dt,
        "t0": model.t0,
        "measurements": model.measurements,
        "eigenvalues_discrete": _complex_list(model.eigenvalues_discrete),
        "exponents": _complex_list(model.exponents),
        "amplitudes": _complex_list(model.amplitudes),
    }


def save_model(model: DmdModel, path, include_modes: bool = False) -> None:
    """Write the model JSON; with ``include_modes`` also write ``<path
    stem>.modes.csv`` holding 2*D rows per mode column (real block stacked
    on imaginary block)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
    if include_modes:
        if model.modes is None:
            raise InvalidParameterError("model carries no modes to write")
        stacked = np.vstack([model.modes.real, model.modes.imag])
        np.savetxt(path.with_suffix(".modes.csv"), stacked,
                   fmt="%.17g", delimiter=",")


def load_model(path) -> DmdModel:
    """Reload a model JSON; picks up ``<stem>.modes.csv`` when present.

    Raises
    ------
    ShapeMismatchError
        If the modes file is not 2*q*base_m rows by rank columns.
    """
    path = Path(path)
    with open(path) as fh:
        d = json.load(fh)
    modes = None
    modes_path = path.with_suffix(".modes.csv")
    if modes_path.exists():
        stacked = np.loadtxt(modes_path, delimiter=",", ndmin=2)
        expected = (2 * int(d["q"]) * int(d["base_m"]), int(d["rank"]))
        if stacked.shape != expected:
            raise ShapeMismatchError(
                f"{modes_path}: modes are {stacked.shape[0]}x{stacked.shape[1]}, expected "
                f"{expected[0]}x{expected[1]} (real and imaginary blocks of "
                f"q*base_m rows, one column per eigenvalue)"
            )
        half = expected[0] // 2
        modes = stacked[:half] + 1j * stacked[half:]
    return DmdModel(
        modes=modes,
        eigenvalues_discrete=_complex_array(d["eigenvalues_discrete"]),
        exponents=_complex_array(d["exponents"]),
        amplitudes=_complex_array(d["amplitudes"]),
        rank=int(d["rank"]),
        q=int(d["q"]),
        base_m=int(d["base_m"]),
        dt=float(d["dt"]),
        t0=float(d["t0"]),
        variant=d["variant"],
        measurements=d.get("measurements"),
    )
