"""JSON scenario files.

Schema::

    {
      "dimension": 2,
      "initial": <ket or matrix>,
      "steps": [{"observable": <matrix>, "sigma": 1.0}, ...],
      "postselect": <matrix> or null
    }

Complex entries are two-element arrays [re, im]; a ket is a flat array
of entries, a matrix an array of rows (row-major). Fields outside the
schema are refused. Validation errors name the offending field.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager

import numpy as np

from . import qm
from .errors import ScenarioFileError, WeakLabError
from .pointer import check_widths
from .simulator import Scenario


def _double(value, where: str) -> float:
    """``float(value)``, refusing an integer too large for a double."""
    try:
        return float(value)
    except OverflowError:
        raise ScenarioFileError(f"{where}: number too large for a double") from None


def _check_entry(entry, where: str) -> None:
    if not (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
    ):
        raise ScenarioFileError(f"{where}: expected an [re, im] pair, got {entry!r}")
    for part in entry:
        _double(part, where)


def _raise_first_fault(data, dim: int, where: str, matrix: bool) -> None:
    """Raise the error naming the first fault of ``data`` in row-major order."""
    if not isinstance(data, list) or len(data) != dim:
        expected = f"{dim} rows" if matrix else f"an array of {dim} entries"
        raise ScenarioFileError(f"{where}: expected {expected}")
    for i, item in enumerate(data):
        if not matrix:
            _check_entry(item, f"{where}[{i}]")
        elif not isinstance(item, list) or len(item) != dim:
            raise ScenarioFileError(f"{where}[{i}]: expected a row of {dim} entries")
        else:
            for j, entry in enumerate(item):
                _check_entry(entry, f"{where}[{i}][{j}]")


def _level_walk(data, shape: tuple[int, ...]) -> np.ndarray | None:
    """``data`` read as a complex array of ``shape`` from nested lists
    whose innermost lists are [re, im] pairs, or None if it has a fault.

    The nesting is checked one level at a time, each level in one pass:
    the array, then its rows, then its entries must be lists of the right
    length, and the leaves ints or floats, not bools, as ``_check_entry``
    asks. The leaves then become one float array viewed as complex numbers,
    which keeps every entry bit-for-bit ``complex(re, im)``, signed zeros
    included.
    """
    level = [data]
    for size in (*shape, 2):
        kinds = set(map(type, level))
        if (kinds != {list} and not all(issubclass(kind, list) for kind in kinds)) or set(map(len, level)) != {size}:
            return None
        level = list(itertools.chain.from_iterable(level))
    kinds = set(map(type, level))
    if kinds <= {int, float} or all(issubclass(kind, (int, float)) and not issubclass(kind, bool) for kind in kinds):
        try:
            return np.array(level, dtype=float).view(complex).reshape(shape)
        except OverflowError:
            pass
    return None


def _parse_complex(data, dim: int, where: str, matrix: bool) -> np.ndarray:
    """Read a ket (``matrix`` false) or a row-major matrix of [re, im]
    pairs by ``_level_walk``. Only refused data is walked entry by entry,
    to name its first fault."""
    parsed = _level_walk(data, (dim, dim) if matrix else (dim,))
    if parsed is None:
        _raise_first_fault(data, dim, where, matrix)
        raise AssertionError(f"{where}: the entry walk passed data the level check refused")
    return parsed


@contextmanager
def _field(where: str):
    """Re-raise a library error from the block as a ScenarioFileError naming ``where``."""
    try:
        yield
    except ScenarioFileError:
        raise
    except WeakLabError as exc:
        raise ScenarioFileError(f"{where}: {exc}") from exc


def _check_object(doc, where: str, required: tuple[str, ...], optional: tuple[str, ...]) -> None:
    """Refuses ``doc`` unless it is a JSON object with every ``required``
    field and no field beyond ``required`` and ``optional``, in that order
    of checks; ``where`` names a step, and is empty at the top level."""
    if not isinstance(doc, dict):
        raise ScenarioFileError(f"{where}: expected an object" if where else "top level: expected a JSON object")
    for name in required:
        if name not in doc:
            raise ScenarioFileError(f"{where}.{name}: field is required" if where else f"{name}: field is required")
    fields = required + optional
    for name in doc:
        if name not in fields:
            raise ScenarioFileError(f"{where or 'top level'}: unknown field {name!r}; expected {', '.join(fields)}")


def _step_fields(step_doc, where: str):
    """A step's observable document and its width as a float, after the
    checks of its fields; neither is yet checked as a matrix or a width."""
    _check_object(step_doc, where, ("observable", "sigma"), ())
    sigma = step_doc["sigma"]
    if not isinstance(sigma, (int, float)) or isinstance(sigma, bool):
        raise ScenarioFileError(f"{where}.sigma: expected a number, got {sigma!r}")
    return step_doc["observable"], _double(sigma, f"{where}.sigma")


def _raise_first_fault_in_order(initial_data, steps_data, post_data, dim: int, matrix: bool) -> None:
    """Raises the first fault that a reading one field at a time meets: the
    state's; each step's fields, observable and width; the post-selection's."""
    initial = _parse_complex(initial_data, dim, "initial", matrix)
    with _field("initial"):
        (qm.check_densities if matrix else qm.check_kets)(initial)
    if not isinstance(steps_data, list) or not steps_data:
        raise ScenarioFileError("steps: expected a nonempty array")
    for index, step_doc in enumerate(steps_data):
        where = f"steps[{index}]"
        observable, sigma = _step_fields(step_doc, where)
        with _field(f"{where}.observable"):
            qm.check_observables(_parse_complex(observable, dim, f"{where}.observable", matrix=True))
        with _field(f"{where}.sigma"):
            check_widths(sigma)
    if post_data is not None:
        with _field("postselect"):
            qm.check_effects(_parse_complex(post_data, dim, "postselect", matrix=True))


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document.

    One level walk reads the document's matrices into one (m, d, d) stack:
    the state when it is a matrix, the observables, then the effect; and
    ``Scenario`` checks them in its one pass. A refused document is walked
    again one field at a time, so the error is the first that such a
    reading meets: the state's, then each step's in turn, then the
    post-selection's."""
    _check_object(doc, "", ("dimension", "initial", "steps"), ("postselect",))
    dim = doc["dimension"]
    if not isinstance(dim, int) or dim < 2:
        raise ScenarioFileError(f"dimension: expected an integer >= 2, got {dim!r}")

    initial_data = doc["initial"]
    # A ket is an array of [re, im] pairs; a matrix is an array of rows of
    # pairs. The first leaf decides which.
    if not (isinstance(initial_data, list) and initial_data and isinstance(initial_data[0], list) and initial_data[0]):
        raise ScenarioFileError("initial: expected a ket or a matrix")
    matrix = isinstance(initial_data[0][0], list)

    steps_data, post_data = doc["steps"], doc.get("postselect")
    try:
        if not isinstance(steps_data, list) or not steps_data:
            raise ScenarioFileError("steps: expected a nonempty array")
        fields = [_step_fields(step_doc, f"steps[{index}]") for index, step_doc in enumerate(steps_data)]
        lead, n = int(matrix), len(fields)
        matrices = [initial_data] * lead + [observable for observable, _ in fields]
        matrices += [] if post_data is None else [post_data]
        stack = _level_walk(matrices, (len(matrices), dim, dim))
        initial = stack if matrix else _level_walk(initial_data, (dim,))
        if stack is None or initial is None:
            raise ScenarioFileError("a matrix or the ket is not an array of [re, im] pairs")
        post = None if post_data is None else stack[-1]
        return Scenario(stack[0] if matrix else initial, stack[lead:lead + n], [sigma for _, sigma in fields], post)
    except WeakLabError:
        _raise_first_fault_in_order(initial_data, steps_data, post_data, dim, matrix)
        raise


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {str(path)!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a number over 4300 digits, or nesting deeper than the stack
        raise ScenarioFileError(f"cannot parse JSON: {exc}") from exc
    return scenario_from_dict(doc)

