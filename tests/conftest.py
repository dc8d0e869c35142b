"""A scenario-file writer for the tests; the package itself only reads them."""

import json

import numpy as np
import pytest


def _matrix_doc(matrix):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex).tolist()]


def scenario_document(scn):
    """A Scenario as a scenario-file document, its state as a density matrix."""
    return {
        "dimension": scn.dim,
        "initial": _matrix_doc(scn.initial),
        "steps": [{"observable": _matrix_doc(a), "sigma": s} for a, s in zip(scn.observables, scn.widths.tolist())],
        "postselect": None if scn.post is None else _matrix_doc(scn.post),
    }


@pytest.fixture
def write_scenario(tmp_path):
    """Write a Scenario as a JSON scenario file under ``tmp_path`` and
    return the file's path."""

    def write(scn, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(scenario_document(scn), indent=2) + "\n")
        return path

    return write
