"""Exception hierarchy.

Two families matter to callers: ``InputError`` for malformed or
inconsistent inputs (CLI exit code 2) and ``NumericError`` for
computations that are undefined or failed at run time (exit code 1).
``check_count`` is the one refusal of a count that is no integer or is
out of its range, and ``check_footprint`` holds the one memory limit
that the sampler and the searches refuse work beyond.
"""

import math
import operator


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


# Largest working set a search or a sampling run may allocate, in bytes.
MEMORY_LIMIT = 2 * 1024**3


def check_footprint(footprint: int, what: str) -> None:
    """Refuses work whose ``footprint`` in bytes passes ``MEMORY_LIMIT``;
    ``what`` names it, as in "4 restarts at n=2, d=2"."""
    if footprint > MEMORY_LIMIT:
        raise InputError(
            f"{what} need about {footprint / 1024**3:.1f} GiB, over the {MEMORY_LIMIT / 1024**3:.0f} GiB limit"
        )


def check_count(name: str, value: int, least: int, most: float = math.inf) -> int:
    """Refuses a count that is a bool or no integer, or is below ``least``
    or above ``most``; ``name`` is the CLI flag or the library parameter
    that gave it, as in "--shots" or "d". Returns the count as a Python int."""
    try:
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
    if value > most:
        raise InputError(f"{name} must be at most {most}, got {value}")
    return value
