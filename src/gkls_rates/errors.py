"""Exception types shared across the package.

Every error raised on a contract violation derives from ``GklsError`` so
callers (in particular the CLI) can distinguish usage errors from bugs.
"""


class GklsError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# linear-algebra kernel
# ---------------------------------------------------------------------------

class NonSquareError(GklsError):
    """Operation requires a square matrix."""


class ShapeMismatchError(GklsError):
    """Operands do not have compatible shapes."""


class EigFailureError(GklsError):
    """An eigendecomposition failed in LAPACK."""


class RankDeficientError(GklsError):
    """Matrix is (numerically) rank deficient."""


# ---------------------------------------------------------------------------
# rate-expression language
# ---------------------------------------------------------------------------

class RateSyntaxError(GklsError):
    """Malformed rate expression; carries the offending position."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at position {position}: expected {expected}, found {found!r}"
        )


class UnknownFunctionError(GklsError):
    """Function name outside the allowed set."""

    def __init__(self, name, position=None):
        self.name = name
        self.position = position
        super().__init__(f"unknown function {name!r}")


class RateEvalError(GklsError):
    """Rate expression hit a numerical domain error during evaluation."""

    def __init__(self, operation, operands):
        self.operation = operation
        self.operands = operands
        super().__init__(f"domain error in {operation!r} with operands {operands}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class DimensionMismatchError(GklsError):
    """Operator dimension does not match the generator dimension."""


class NonHermitianHamiltonianError(GklsError):
    """Hamiltonian fails the Hermiticity tolerance."""


class NonHermitianKossakowskiError(GklsError):
    """Kossakowski matrix fails the Hermiticity tolerance."""


class TimeDependentError(GklsError):
    """Operation supports only time-autonomous generators."""


class BadChannelCountError(GklsError):
    """Requested channel count outside [1, d^2 - 1]."""


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

class SizeMismatchError(GklsError):
    """Spectrum size inconsistent with the stated dimension."""


class DegenerateZeroModeError(GklsError):
    """Multiple stationary states; no canonical selection is made."""

    def __init__(self, count):
        self.count = count
        super().__init__(f"zero mode is {count}-fold degenerate; no unique stationary state")


class NearDefectiveError(GklsError):
    """Eigenvectors too ill-conditioned for eigen-operator based analysis."""


class NonFaithfulStationaryStateError(GklsError):
    """Stationary state is singular; the weighted rate identity degenerates."""


# ---------------------------------------------------------------------------
# trajectories and tracking
# ---------------------------------------------------------------------------

class StepSizeUnderflowError(GklsError):
    """Requested integration accuracy unreachable within the step budget."""


class TrackingLostError(GklsError):
    """Eigenvector continuity lost between consecutive grid points."""

    def __init__(self, time, overlap):
        self.time = time
        self.overlap = overlap
        super().__init__(f"tracking lost at t={time}: best overlap {overlap:.3f} < 0.5")


class BoundaryIndexError(GklsError):
    """Central finite difference needs interior grid points."""


class NonCanonicalGeneratorError(GklsError):
    """Operation requires traceless orthonormal noise operators."""


# ---------------------------------------------------------------------------
# Lyapunov estimation
# ---------------------------------------------------------------------------

class NonGenericInitialStateError(GklsError):
    """Initial state does not excite the dominant relaxation mode."""


class UnconvergedError(GklsError):
    """Estimate did not converge on the requested horizon.

    The partial estimate is attached as ``estimate``.
    """

    def __init__(self, message, estimate=None):
        self.estimate = estimate
        super().__init__(message)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

class ZeroRateError(GklsError):
    """Relaxation time undefined because a rate vanishes."""


class UnknownPresetError(GklsError):
    """Preset name not recognised."""


# ---------------------------------------------------------------------------
# classical generators
# ---------------------------------------------------------------------------

class NegativeOffDiagonalError(GklsError):
    def __init__(self, i, j, value):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(f"off-diagonal K[{i},{j}] = {value} is negative")


class ColumnSumError(GklsError):
    def __init__(self, j, value):
        self.j = j
        self.value = value
        super().__init__(f"column {j} sums to {value}, expected 0")


class NegativeRateError(GklsError):
    """Classical rates must be nonnegative."""


# ---------------------------------------------------------------------------
# file interface
# ---------------------------------------------------------------------------

class SchemaError(GklsError):
    """Generator file violates the JSON schema; carries a document path."""

    def __init__(self, where, message):
        self.where = where
        super().__init__(f"{where}: {message}")


class ValidationError(GklsError):
    """Input file parsed but failed semantic validation."""
