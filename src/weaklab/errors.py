"""Exception hierarchy.

Two families matter to callers: ``InputError`` for malformed or
inconsistent inputs (CLI exit code 2) and ``NumericError`` for
computations that are undefined or failed at run time (exit code 1).
"""


class WeakLabError(Exception):
    """Base class for all weaklab errors."""


class InputError(WeakLabError):
    """Invalid or inconsistent input data."""


class NumericError(WeakLabError):
    """A numerically undefined or failed computation."""


class NonHermitianInput(InputError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class UnnormalizedKet(InputError):
    """State vector norm deviates from 1 beyond tolerance."""


class KindMismatch(InputError):
    """Tensor product of objects of different kinds."""


class DimensionMismatch(InputError):
    """Operands act on Hilbert spaces of different dimension."""


class EmptyList(InputError):
    """An operation requiring at least one element got none."""


class NotAProjector(InputError):
    """Matrix expected to be idempotent is not, beyond tolerance."""


class PatternLengthMismatch(InputError):
    """Moment pattern length differs from the number of measurement steps."""


class UnsupportedKind(InputError):
    """Pointer-operator kind not supported by the requested engine."""


class InvalidDimensions(InputError):
    """Optimizer called with an out-of-range length, dimension, restart count or budget."""


class UnknownScenario(InputError):
    """Scenario name not in the built-in catalogue."""


class UnknownParameter(InputError):
    """Sweep parameter does not name a step width."""


class ScenarioFileError(InputError):
    """Scenario file failed to parse or validate; message names the field."""


class ZeroPostSelectionProbability(NumericError):
    """Post-selection probability below threshold; weak value undefined."""
