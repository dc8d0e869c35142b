"""JSON scenario files.

Schema::

    {
      "dimension": 2,
      "initial": <ket or matrix>,
      "steps": [{"observable": <matrix>, "sigma": 1.0}, ...],
      "postselect": <matrix> or null
    }

Complex entries are two-element arrays [re, im]; a ket is a flat array
of entries, a matrix an array of rows (row-major). Validation errors
name the offending field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import qm
from .errors import ScenarioFileError, WeakLabError
from .pointer import GaussianPointer
from .simulator import MeasurementStep, Scenario


def _entry_to_complex(entry, where: str) -> complex:
    if (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
    ):
        return complex(entry[0], entry[1])
    raise ScenarioFileError(f"{where}: expected an [re, im] pair, got {entry!r}")


def _parse_ket(data, dim: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != dim:
        raise ScenarioFileError(f"{where}: expected an array of {dim} entries")
    return np.array([_entry_to_complex(entry, f"{where}[{i}]") for i, entry in enumerate(data)])


def _parse_matrix(data, dim: int, where: str) -> np.ndarray:
    if not isinstance(data, list) or len(data) != dim:
        raise ScenarioFileError(f"{where}: expected {dim} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioFileError(f"{where}[{i}]: expected a row of {dim} entries")
        rows.append([_entry_to_complex(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows)


@contextmanager
def _field(where: str):
    """Re-raise a library error from the block as a ScenarioFileError naming ``where``."""
    try:
        yield
    except ScenarioFileError:
        raise
    except WeakLabError as exc:
        raise ScenarioFileError(f"{where}: {exc}") from exc


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ScenarioFileError("top level: expected a JSON object")
    try:
        dim = doc["dimension"]
    except KeyError:
        raise ScenarioFileError("dimension: field is required") from None
    if not isinstance(dim, int) or dim < 2:
        raise ScenarioFileError(f"dimension: expected an integer >= 2, got {dim!r}")

    if "initial" not in doc:
        raise ScenarioFileError("initial: field is required")
    initial_data = doc["initial"]
    # A ket is an array of [re, im] pairs; a matrix is an array of rows of
    # pairs. The first leaf decides which.
    if not (isinstance(initial_data, list) and initial_data and isinstance(initial_data[0], list) and initial_data[0]):
        raise ScenarioFileError("initial: expected a ket or a matrix")
    is_matrix = isinstance(initial_data[0][0], list)
    with _field("initial"):
        if is_matrix:
            initial = qm.MixedState(_parse_matrix(initial_data, dim, "initial"))
        else:
            initial = qm.PureState(_parse_ket(initial_data, dim, "initial")).to_density()

    steps_data = doc.get("steps")
    if not isinstance(steps_data, list) or not steps_data:
        raise ScenarioFileError("steps: expected a nonempty array")
    steps = []
    for index, step_doc in enumerate(steps_data):
        where = f"steps[{index}]"
        if not isinstance(step_doc, dict):
            raise ScenarioFileError(f"{where}: expected an object")
        if "observable" not in step_doc:
            raise ScenarioFileError(f"{where}.observable: field is required")
        with _field(f"{where}.observable"):
            observable = qm.Observable(_parse_matrix(step_doc["observable"], dim, f"{where}.observable"))
        sigma = step_doc.get("sigma")
        if not isinstance(sigma, (int, float)) or isinstance(sigma, bool):
            raise ScenarioFileError(f"{where}.sigma: expected a number, got {sigma!r}")
        with _field(f"{where}.sigma"):
            steps.append(MeasurementStep(observable, GaussianPointer(float(sigma))))

    post_data = doc.get("postselect")
    post = None
    if post_data is not None:
        with _field("postselect"):
            post = qm.PovmElement(_parse_matrix(post_data, dim, "postselect"))

    with _field("steps"):
        return Scenario(initial=initial, steps=tuple(steps), post=post)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {str(path)!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)

