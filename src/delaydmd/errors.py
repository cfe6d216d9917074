"""Exception types raised across the package."""


class DelayDmdError(Exception):
    """Base class for all errors raised by this package."""


class NumericalFailureError(DelayDmdError):
    """A dense linear-algebra kernel failed to converge."""

    def __init__(self, kernel, rows, cols):
        self.kernel = kernel
        self.rows = rows
        self.cols = cols
        super().__init__(f"{kernel} did not converge on a {rows}x{cols} matrix")


class DegenerateModesError(DelayDmdError):
    """Every singular value of the mode matrix fell below the cutoff."""


class DegenerateDataError(DelayDmdError):
    """Rank truncation kept no singular values; the data carry no signal."""


class InsufficientSnapshotsError(DelayDmdError):
    """Fewer than two snapshots; nothing to split into before/after pairs."""


class InvalidDelayError(DelayDmdError):
    """Delay depth q outside 1 <= q <= N - 1."""


class InvalidSplitError(DelayDmdError):
    """Requested train length outside 2 <= n_train < N."""


class SnapshotParseError(DelayDmdError):
    """Snapshot file is malformed; message carries the offending position."""


class ModelParseError(DelayDmdError):
    """Model file is malformed; message names the file and the field."""


class SnapshotConsistencyError(DelayDmdError):
    """Snapshot metadata disagrees with the stored data."""


class InvalidGridError(DelayDmdError):
    """Grid too small for the requested operation."""


class SamplingRateError(DelayDmdError):
    """Time step too coarse for the highest frequency in the signal."""


class InvalidParameterError(DelayDmdError):
    """A configuration or operator parameter violates its constraints."""


class InvalidStartVectorError(DelayDmdError):
    """Arnoldi start vector is zero."""


class RankDeficientBasisError(DelayDmdError):
    """A random block meant to span a basis lost rank in its QR factorization."""


class ShapeMismatchError(DelayDmdError):
    """Operands have incompatible dimensions."""


class ZeroInitialConditionError(DelayDmdError):
    """First snapshot is the zero vector, so mode amplitudes are degenerate."""


class InsufficientMeasurementsError(DelayDmdError):
    """The sketch has fewer rows than the truncation rank."""
