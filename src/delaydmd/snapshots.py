"""Snapshot data model: splitting, time-delay augmentation, and persistence.

A snapshot matrix stores one state vector per column at successive, equally
spaced times. Files are stored as a bare CSV of the matrix (one row per
spatial node, no header) plus a ``<name>.meta.json`` sidecar holding
``{m, n, dt, t0, grid?}``.

The delay embedding comes in two forms: the explicit Hankel matrix
(:func:`hankel_block`, :func:`hankel_augment`) and :func:`delay_embed`, which
holds the same matrix in the QR basis of the raw snapshots with q*min(M, N)
rows instead of q*M.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientSnapshotsError,
    InvalidDelayError,
    InvalidParameterError,
    InvalidSplitError,
    SnapshotConsistencyError,
    SnapshotParseError,
)
from .numerics import real_complex_matmul

# Enough significant digits to round-trip an IEEE double through text.
_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class GridMeta:
    """Rectangular grid layout used to reshape flat state vectors to 2-d fields."""

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InvalidParameterError("grid needs nx >= 1 and ny >= 1")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidParameterError("grid extents must satisfy min < max")

    @property
    def size(self) -> int:
        return self.nx * self.ny

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def to_dict(self) -> dict:
        return {
            "nx": self.nx, "ny": self.ny,
            "x_min": self.x_min, "x_max": self.x_max,
            "y_min": self.y_min, "y_max": self.y_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridMeta":
        return cls(int(d["nx"]), int(d["ny"]),
                   float(d["x_min"]), float(d["x_max"]),
                   float(d["y_min"]), float(d["y_max"]))


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real M-by-N matrix of states over time plus time-axis metadata.

    Immutable after construction; the data array is made read-only.
    """

    data: np.ndarray
    dt: float
    grid: GridMeta | None = None
    t0: float = 0.0

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if data.ndim != 2:
            raise InvalidParameterError(f"data must be 2-d, got shape {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise InvalidParameterError(f"data must be at least 1x1, got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidParameterError("data contains non-finite entries")
        if self.dt <= 0:
            raise InvalidParameterError(f"dt must be positive, got {self.dt}")
        if self.grid is not None and self.grid.size != data.shape[0]:
            raise SnapshotConsistencyError(
                f"grid has nx*ny = {self.grid.size} but data has {data.shape[0]} rows"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)


@dataclass(frozen=True)
class HankelPair:
    """Time-delay augmented pair: column j of ``x1_aug`` stacks q consecutive
    snapshots starting at j; ``x2_aug`` is the same stack shifted one step."""

    x1_aug: np.ndarray
    x2_aug: np.ndarray
    q: int
    base_m: int
    base_n: int


def split(x: SnapshotMatrix):
    """Split into the before/after column pairs (columns 1..N-1, 2..N)."""
    if x.n < 2:
        raise InsufficientSnapshotsError(f"need at least 2 snapshots, got {x.n}")
    return x.data[:, :-1], x.data[:, 1:]


def hankel_block(data: np.ndarray, q: int) -> np.ndarray:
    """The (q*M)-by-(N-q+1) Hankel matrix of M-by-N data: block b of column j
    is column j+b of the data. Its first N-q columns are ``x1_aug`` and its
    last N-q are ``x2_aug``."""
    n = data.shape[1]
    if not 1 <= q <= n - 1:
        raise InvalidDelayError(f"q must satisfy 1 <= q <= N-1 = {n - 1}, got {q}")
    return np.vstack([data[:, b:b + n - q + 1] for b in range(q)])


def hankel_augment(x: SnapshotMatrix, q: int) -> HankelPair:
    """Stack q consecutive snapshots per column to form the delay-embedded pair.

    With M-row data and N snapshots the result is a (q*M)-by-(N-q) pair of
    column views into one Hankel matrix; q = 1 reproduces ``split``.
    """
    block = hankel_block(x.data, q)
    return HankelPair(x1_aug=block[:, :-1], x2_aug=block[:, 1:],
                      q=q, base_m=x.m, base_n=x.n)


@dataclass(frozen=True)
class DelayEmbedding:
    """The depth-q Hankel matrix of some snapshots, held in their QR basis.

    With X = ``basis`` @ R a thin QR of the raw snapshots, every delay block
    X[:, b:b+n] equals ``basis`` @ R[:, b:b+n], so the Hankel matrix equals
    (I_q kron ``basis``) @ ``compressed``, where ``compressed`` stacks the q
    shifted column blocks of R. Since (I_q kron ``basis``) has orthonormal
    columns, SVDs, pencils and least-squares solves on ``compressed`` give
    those of the Hankel matrix, and :meth:`expand` maps compressed vectors
    back to the (q*M)-dim embedded state.
    """

    snapshots: SnapshotMatrix
    q: int
    basis: np.ndarray
    compressed: np.ndarray

    @property
    def x1(self) -> np.ndarray:
        """Compressed counterpart of ``HankelPair.x1_aug``."""
        return self.compressed[:, :-1]

    @property
    def x2(self) -> np.ndarray:
        """Compressed counterpart of ``HankelPair.x2_aug``."""
        return self.compressed[:, 1:]

    def expand(self, coeffs: np.ndarray) -> np.ndarray:
        """Embedded-state columns (q*M rows) from compressed ones (q*k rows)."""
        r = coeffs.shape[1]
        blocks = coeffs.reshape(self.q, self.basis.shape[1], r)
        return real_complex_matmul(self.basis, blocks).reshape(self.q * self.snapshots.m, r)


def delay_embed(x: SnapshotMatrix, q: int) -> DelayEmbedding:
    """Embed the snapshots to depth q through one thin QR of the raw data."""
    basis, r = np.linalg.qr(x.data)
    return DelayEmbedding(snapshots=x, q=q, basis=basis, compressed=hankel_block(r, q))


def train_test_split(x: SnapshotMatrix, n_train: int):
    """First ``n_train`` columns for training, the rest (with advanced t0) for testing."""
    if not 2 <= n_train < x.n:
        raise InvalidSplitError(f"n_train must satisfy 2 <= n_train < N = {x.n}, got {n_train}")
    train = SnapshotMatrix(x.data[:, :n_train], dt=x.dt, grid=x.grid, t0=x.t0)
    test = SnapshotMatrix(x.data[:, n_train:], dt=x.dt, grid=x.grid,
                          t0=x.t0 + n_train * x.dt)
    return train, test


def _base_path(path) -> Path:
    p = Path(path)
    if p.suffix == ".csv":
        p = p.with_suffix("")
    return p


def save(x: SnapshotMatrix, path) -> None:
    """Write ``<path>.csv`` and ``<path>.meta.json``; a trailing .csv is stripped."""
    base = _base_path(path)
    base.parent.mkdir(parents=True, exist_ok=True)
    meta = {"m": x.m, "n": x.n, "dt": x.dt, "t0": x.t0}
    if x.grid is not None:
        meta["grid"] = x.grid.to_dict()
    with open(f"{base}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    np.savetxt(f"{base}.csv", x.data, fmt=_FLOAT_FMT, delimiter=",")


def _parse_csv_slow(csv_path: Path) -> np.ndarray:
    """Line-by-line fallback parse that reports the position of bad fields."""
    rows = []
    width = None
    with open(csv_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise SnapshotParseError(
                    f"{csv_path}: line {line_no} has {len(fields)} fields, expected {width}"
                )
            row = []
            for field_no, field in enumerate(fields, start=1):
                try:
                    row.append(float(field))
                except ValueError:
                    raise SnapshotParseError(
                        f"{csv_path}: line {line_no}, field {field_no}: "
                        f"cannot parse {field!r} as a number"
                    ) from None
            rows.append(row)
    if not rows:
        raise SnapshotParseError(f"{csv_path}: no data rows")
    return np.asarray(rows, dtype=float)


def read_field(record, key, convert, source, error=SnapshotParseError):
    """``convert(record[key])`` for a record parsed from the file ``source``;
    raises ``error`` naming the file and the field if it is missing or
    ``convert`` rejects it."""
    if not isinstance(record, dict) or key not in record:
        raise error(f"{source}: missing required field {key!r}")
    try:
        return convert(record[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{source}: cannot read field {key!r} ({type(exc).__name__}: {exc})") from exc


def load(path) -> SnapshotMatrix:
    """Load a snapshot matrix written by :func:`save`.

    Raises
    ------
    SnapshotParseError
        For missing/malformed metadata or unparseable CSV content; the
        message names the offending sidecar field or CSV position.
    SnapshotConsistencyError
        When the sidecar dimensions disagree with the CSV data.
    """
    base = _base_path(path)
    meta_path = Path(f"{base}.meta.json")
    csv_path = Path(f"{base}.csv")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SnapshotParseError(f"{meta_path}: invalid JSON at line {exc.lineno}") from exc
    m, n, dt = (read_field(meta, key, kind, meta_path)
                for key, kind in (("m", int), ("n", int), ("dt", float)))
    try:
        data = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    except ValueError:
        data = _parse_csv_slow(csv_path)
    if data.shape != (m, n):
        raise SnapshotConsistencyError(
            f"{csv_path}: data is {data.shape[0]}x{data.shape[1]} "
            f"but sidecar declares {m}x{n}"
        )
    grid = read_field(meta, "grid", GridMeta.from_dict, meta_path) if "grid" in meta else None
    if grid is not None and grid.size != m:
        raise SnapshotConsistencyError(
            f"{meta_path}: grid nx*ny = {grid.size} does not match m = {m}"
        )
    return SnapshotMatrix(data, dt=dt, grid=grid,
                          t0=read_field(meta, "t0", float, meta_path) if "t0" in meta else 0.0)
