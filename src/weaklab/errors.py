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


class DimensionMismatch(InputError):
    """Operands act on Hilbert spaces of different dimension."""


class ScenarioFileError(InputError):
    """Scenario file failed to parse or validate; message names the field."""


class ZeroPostSelectionProbability(NumericError):
    """Post-selection probability below threshold; weak value undefined."""
