"""Snapshot data model: splitting, time-delay embedding, and the file formats.

A snapshot matrix stores one state vector per column at successive, equally
spaced times. Every file the package writes or reads goes through the JSON
and CSV writers and readers here (:func:`write_json`, :func:`read_json`,
:func:`write_csv`, :func:`read_matrix`; numbers as :data:`FLOAT_FMT`).
Snapshots are a bare CSV of the matrix (one row per spatial node, no header)
plus a ``<name>.meta.json`` sidecar holding ``{m, n, dt, t0, grid?}``.

The delay embedding has one type, :class:`DelayEmbedding`, and two
constructors: :func:`hankel_augment` keeps the explicit Hankel matrix, and
:func:`delay_embed` keeps it in the QR basis of the raw snapshots, with
q*min(M, N) rows instead of q*M and R from row blocks, R <- R of [R; X_block]
(sequential tall-skinny QR; Demmel, Grigori, Hoemmen & Langou 2012). A
training window (:func:`train_test_split`) is a view.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
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

# Enough significant digits to round-trip an IEEE double through text.
FLOAT_FMT = "%.17g"

# Rows of data per QR in delay_embed, so that its copies stay a few MB.
_QR_ROWS = 2048


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
        check_count("grid nx", self.nx, 1)
        check_count("grid ny", self.ny, 1)
        check_count("grid size nx*ny", int(self.nx) * int(self.ny), 1)
        check_written(x_min=self.x_min, x_max=self.x_max, y_min=self.y_min, y_max=self.y_max)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidParameterError("grid extents must satisfy min < max")

    @property
    def size(self) -> int:
        return self.nx * self.ny

    def x_coords(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def y_coords(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    @classmethod
    def from_dict(cls, d: dict) -> "GridMeta":
        return cls(integral(d["nx"]), integral(d["ny"]),
                   real(d["x_min"]), real(d["x_max"]),
                   real(d["y_min"]), real(d["y_max"]))


@dataclass(frozen=True)
class SnapshotMatrix:
    """Real M-by-N matrix of states over time plus time-axis metadata.

    Immutable: a read-only float64 array is kept, any other input copied.
    """

    data: np.ndarray
    dt: float
    grid: GridMeta | None = None
    t0: float = 0.0

    def __post_init__(self):
        data = self.data
        if not (type(data) is np.ndarray and data.dtype == float and not data.flags.writeable):
            data = as_array(data, dtype=float)  # a copy, or None for check_array to refuse
        data = check_array("data", self.data if data is None else data, (None, None))
        check_time_axis(self.dt, self.t0)
        check_written(dt=self.dt, t0=self.t0)
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

    @cached_property
    def column_norms(self) -> np.ndarray:
        """``np.linalg.norm(data, axis=0)`` bit for bit, formed once by blocks
        of 16 to 31 columns, so without its two window-sized temporaries."""
        blocks = np.array_split(self.data, max(1, self.n // 16), axis=1)
        norms = np.sqrt(np.concatenate([np.add.reduce(b * b, axis=0) for b in blocks]))
        norms.setflags(write=False)
        return norms


def split(x: SnapshotMatrix):
    """Split into the before/after column pairs (columns 1..N-1, 2..N)."""
    if x.n < 2:
        raise InsufficientSnapshotsError(f"need at least 2 snapshots, got {x.n}")
    return x.data[:, :-1], x.data[:, 1:]


def hankel_block(data: np.ndarray, q: int) -> np.ndarray:
    """The (q*M)-by-(N-q+1) Hankel matrix of M-by-N data: block b of column j
    is column j+b of the data. Its first N-q columns are the ``x1`` of a
    :class:`DelayEmbedding` and its last N-q are the ``x2``."""
    n = data.shape[1]
    check_count("q", q, 1, n - 1, InvalidDelayError)
    return np.vstack([data[:, b:b + n - q + 1] for b in range(q)])


@dataclass(frozen=True)
class DelayEmbedding:
    """The depth-q Hankel matrix of some snapshots, in orthonormal coordinates.

    The Hankel matrix is Q @ ``compressed`` for a Q with orthonormal columns,
    so SVDs, pencils and least-squares solves on ``compressed`` give those of
    the Hankel matrix. :func:`hankel_augment` takes Q = I. :func:`delay_embed`
    takes Q = I_q kron Q_x for a thin QR X = Q_x R of the raw snapshots, since
    each delay block X[:, b:b+n] is Q_x R[:, b:b+n]. Q is not kept: Q_x maps
    the first delay block of a combination of compressed columns to the same
    combination of the snapshots' columns, so raw states come from the data.
    """

    snapshots: SnapshotMatrix
    q: int
    compressed: np.ndarray

    @property
    def x1(self) -> np.ndarray:
        """Columns 0..N-q-1 of ``compressed``: the embedded states before a step."""
        return self.compressed[:, :-1]

    @property
    def x2(self) -> np.ndarray:
        """Columns 1..N-q of ``compressed``: the same states one step later."""
        return self.compressed[:, 1:]

    @property
    def r(self) -> np.ndarray:
        """Q_x.T @ the snapshots: ``compressed``'s block 0, then each later block's last column."""
        k = self.compressed.shape[0] // self.q
        return np.hstack([self.compressed[:k], self.compressed[k:, -1].reshape(-1, k).T])


def hankel_augment(x: SnapshotMatrix, q: int) -> DelayEmbedding:
    """Embed the snapshots to depth q in the identity basis.

    ``x1`` and ``x2`` of the result are (q*M)-by-(N-q) column views into
    one explicit Hankel matrix; q = 1 reproduces ``split``.
    """
    return DelayEmbedding(snapshots=x, q=q, compressed=hankel_block(x.data, q))


def delay_embed(x: SnapshotMatrix, q: int) -> DelayEmbedding:
    """Embed the snapshots to depth q through the R of the raw data, by row blocks."""
    check_count("q", q, 1, x.n - 1, InvalidDelayError)  # before the QR
    r = np.linalg.qr(x.data[:_QR_ROWS], mode="r")
    for start in range(_QR_ROWS, x.m, _QR_ROWS):
        r = np.linalg.qr(np.vstack([r, x.data[start:start + _QR_ROWS]]), mode="r")
    return DelayEmbedding(snapshots=x, q=q, compressed=hankel_block(r, q))


def train_test_split(x: SnapshotMatrix, n_train: int):
    """First ``n_train`` columns for training, the rest (with advanced t0) for testing."""
    check_count("n_train", n_train, 2, x.n - 1, InvalidSplitError)
    train = SnapshotMatrix(x.data[:, :n_train], dt=x.dt, grid=x.grid, t0=x.t0)
    test = SnapshotMatrix(x.data[:, n_train:], dt=x.dt, grid=x.grid,
                          t0=x.t0 + n_train * x.dt)
    return train, test


def _base_path(path) -> Path:
    p = Path(path)
    if p.suffix == ".csv":
        p = p.with_suffix("")
    return p


def read_json(path, error):
    """The JSON value in the UTF-8 file ``path``; raises ``error`` naming the
    file and the line of invalid JSON or the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno} ({exc.msg})") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def write_json(path, record) -> None:
    """Write ``record`` to ``path`` as indented JSON, creating its directory. NumPy integers
    and floats are written as the Python numbers they hold; the text is formed first, so
    any other value JSON cannot hold raises TypeError before the file exists."""
    text = json.dumps(record, indent=2, default=_python_number) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _python_number(value):
    if isinstance(value, (np.integer, np.floating)):
        return int(value) if isinstance(value, np.integer) else float(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_csv(path, header, rows) -> None:
    """Write ``rows``, a float matrix or rows of numbers and text, under a
    ``header`` line unless it is None: text as is, numbers as ``FLOAT_FMT``,
    each row by the first row's format in one step, as numpy's ``savetxt`` does."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        row_format = None
        for row in rows:
            if row_format is None:
                row_format = ",".join("%s" if isinstance(v, str) else FLOAT_FMT
                                      for v in row) + "\n"
            fh.write(row_format % tuple(row))


def read_matrix(path, error) -> np.ndarray:
    """The comma-separated numbers of ``path``, one matrix row per line, as
    ``np.loadtxt`` reads them; raises ``error`` naming the file and where it
    can the position of the fault, a NaN or an infinity included."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:  # UnicodeDecodeError among them
        _locate_csv_fault(path, error)
        raise error(f"{path}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise error(f"{path}: row {row + 1}, field {col + 1}: "
                    f"{data[row, col]} is not a finite number")
    return data


def _locate_csv_fault(csv_path, error) -> None:
    """Raise ``error`` at the first line of a CSV that is not UTF-8 text,
    changes the field count or holds a field ``float`` cannot read; return
    if there is none."""
    width = None
    with open(csv_path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise error(f"{csv_path}: line {line_no} is not UTF-8 text") from None
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise error(f"{csv_path}: line {line_no} has {len(fields)} fields, "
                            f"expected {width}")
            for field_no, field in enumerate(fields, start=1):
                try:
                    float(field)
                except ValueError:
                    raise error(
                        f"{csv_path}: line {line_no}, field {field_no}: "
                        f"cannot parse {field!r} as a number"
                    ) from None


def read_field(record, key, convert, source, error=SnapshotParseError):
    """``convert(record[key])`` for a record parsed from the file ``source``;
    raises ``error`` naming the file and the field if it is missing or
    ``convert`` rejects it."""
    if not isinstance(record, dict) or key not in record:
        raise error(f"{source}: missing required field {key!r}")
    try:
        return convert(record[key])
    except (InvalidParameterError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"{source}: cannot read field {key!r} ({type(exc).__name__}: {exc})") from exc


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a NumPy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, low: int, high=np.iinfo(np.intp).max,
                error=InvalidParameterError) -> None:
    """Refuse ``value`` with ``error`` unless it is an integer, never a bool, in [low, high].
    The default ``high`` is the largest array size, so a count that passes is one NumPy can
    hold; an infinite ``high`` sets no ceiling. The last word of ``name`` stands for the value."""
    if not (is_integer(value) and low <= int(value) <= high):
        symbol = name.split()[-1]
        bounds = f"{low} <= {symbol} <= {high}" if high < math.inf else f"{symbol} >= {low}"
        shown = int(value) if is_integer(value) else repr(value)
        raise error(f"{name} must be an integer with {bounds}, got {shown}")


def as_array(value, convert=np.array, **kwargs):
    """``convert(value, **kwargs)``, or None if ``value`` is ragged, does not
    convert, is not numeric, or would lose an imaginary part to a real ``dtype``.
    ``convert=np.asarray`` leaves an array that needs no conversion uncopied."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns as it drops an imaginary part
        try:
            a = convert(value, **kwargs)
        except (OverflowError, TypeError, ValueError, Warning):
            return None
    return a if a.dtype.kind in "biufc" else None


def check_array(name: str, value, shape, dtype=float) -> np.ndarray:
    """``np.asarray(value, dtype)`` by :func:`as_array`, with no copy if none is needed; under
    ``dtype=None`` real stays real and complex complex. Refused, naming ``name``, if it is ragged,
    non-numeric or complex for a real ``dtype``, its axes miss ``shape`` (a length each, None for
    any >= 1), or the min or max of it, or of its real or imaginary part, is not finite."""
    a = as_array(value, np.asarray, dtype=dtype)
    parts = (a.real, a.imag) if a is not None and a.dtype.kind == "c" else (a,)  # views
    if a is None:
        got = f"a ragged, non-numeric{'' if dtype is None else ' or complex'} value"
    elif a.ndim != len(shape) or any(n < 1 if k is None else n != k
                                     for n, k in zip(a.shape, shape)):
        got = f"shape {a.shape}"
    elif a.size and not np.isfinite([f(p) for p in parts for f in (np.min, np.max)]).all():
        got = "a NaN or an infinity"
    else:
        return a
    wanted = str(tuple(">=1" if k is None else k for k in shape)).replace("'", "")
    raise InvalidParameterError(f"{name} must be a finite {'numeric' if dtype is None else 'real'}"
                                f" array of shape {wanted}, got {got}")


def _read_real(value, shown=False):
    """``value`` as a float (NaN for a bool, non-number or overflow), or as refusals show it."""
    if not (is_integer(value) or isinstance(value, (float, np.floating))):
        return repr(value) if shown else np.nan
    try:
        return str(float(value)) if shown else float(value)
    except OverflowError:
        return "a number beyond the float range" if shown else np.nan


def check_real(name: str, value, low=-np.inf, high=np.inf, closed=False) -> None:
    """Refuse ``value`` unless it reads as a float (see :func:`_read_real`) in (low, high),
    or in [low, high) when ``closed``. The message words the three common ranges
    (0, inf), [0, inf) and (-inf, inf) and shows any other as an interval."""
    number = _read_real(value)
    if not (low < number < high or closed and number == low):
        named = {(0, False): "be positive and finite", (0, True): "be nonnegative and finite",
                 (-np.inf, False): "be finite"}.get((low, closed)) if high == np.inf else None
        rule = named or f"lie in {'[' if closed else '('}{low:g}, {high:g})"
        raise InvalidParameterError(f"{name} must {rule}, got {_read_real(value, shown=True)}")


def check_time_axis(dt, t0, nt=None) -> None:
    """Refuse a time axis t0 + k*dt, k < nt, unless ``dt`` is a positive finite real,
    ``t0`` a finite real (see :func:`check_real`) and a given ``nt`` a count of at least 2."""
    check_real("dt", dt, 0)
    check_real("t0", t0)
    if nt is not None:
        check_count("nt", nt, 2)


def check_written(**fields) -> None:
    """Refuse a field unless :func:`check_real` passes it and its file reloads it equal."""
    for name, value in fields.items():  # int(value): NumPy compares an int64 as a float
        check_real(name, value)
        if real(value) != (int(value) if is_integer(value) else value):
            raise InvalidParameterError(f"{name} would reload as {real(value)!r}, not {value!r}")


def integral(value) -> int:
    """``value`` as an int if it is an integral number, for :func:`read_field`:
    an int, or a float with no fractional part, but never a bool."""
    if not (is_integer(value) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def real(value) -> float:
    """``value`` as a float if it reads as a finite one (see :func:`_read_real`), for
    :func:`read_field`: never a bool, a string, NaN, an infinity or an int past the float range."""
    number = _read_real(value)
    if not math.isfinite(number):
        raise ValueError(f"{_read_real(value, shown=True)} is not a finite number")
    return number


def save(x: SnapshotMatrix, path) -> None:
    """Write ``<path>.csv`` and ``<path>.meta.json``; a trailing .csv is stripped."""
    base = _base_path(path)
    meta = {"m": x.m, "n": x.n, "dt": x.dt, "t0": x.t0}
    if x.grid is not None:
        meta["grid"] = asdict(x.grid)
    write_json(f"{base}.meta.json", meta)
    write_csv(f"{base}.csv", None, x.data)


def load(path) -> SnapshotMatrix:
    """Load a snapshot matrix written by :func:`save`.

    Raises
    ------
    SnapshotParseError
        For missing/malformed metadata, unparseable or non-finite CSV
        content or either file not being UTF-8 text; the message names the
        file and the offending sidecar field or CSV position.
    SnapshotConsistencyError
        When the sidecar dimensions disagree with the CSV data.
    """
    base = _base_path(path)
    meta_path = Path(f"{base}.meta.json")
    csv_path = Path(f"{base}.csv")
    meta = read_json(meta_path, SnapshotParseError)
    m, n, dt = (read_field(meta, key, kind, meta_path)
                for key, kind in (("m", integral), ("n", integral), ("dt", real)))
    data = read_matrix(csv_path, SnapshotParseError)
    if data.shape != (m, n):
        raise SnapshotConsistencyError(
            f"{csv_path}: data is {data.shape[0]}x{data.shape[1]} "
            f"but sidecar declares {m}x{n}"
        )
    data.setflags(write=False)  # frozen here, so the snapshot matrix keeps it uncopied
    grid = read_field(meta, "grid", GridMeta.from_dict, meta_path) if "grid" in meta else None
    t0 = read_field(meta, "t0", real, meta_path) if "t0" in meta else 0.0
    try:
        return SnapshotMatrix(data, dt=dt, grid=grid, t0=t0)
    except InvalidParameterError as exc:
        raise SnapshotParseError(f"{meta_path}: {exc}") from exc
    except SnapshotConsistencyError as exc:  # the grid does not match m
        raise SnapshotConsistencyError(f"{meta_path}: {exc}") from exc
