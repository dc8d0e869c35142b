import json
import math

import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import ScenarioFileError
from weaklab.scenario_io import scenario_from_dict

KET_PLUS = wl.PureState(np.array([1.0, 1.0]) / np.sqrt(2.0))


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def matrix_doc(mat):
    return [[pair(cell) for cell in row] for row in np.asarray(mat, dtype=complex)]


def illustrative_doc(sigma1=1.0, sigma2=1.0):
    scn = wl.build_illustrative(sigma1, sigma2)
    return {
        "dimension": 2,
        "initial": [pair(1), pair(0)],
        "steps": [
            {"observable": matrix_doc(scn.steps[0].observable.matrix), "sigma": sigma1},
            {"observable": matrix_doc(scn.steps[1].observable.matrix), "sigma": sigma2},
        ],
        "postselect": None,
    }


class TestParsing:
    def test_ket_initial(self):
        scn = scenario_from_dict(illustrative_doc())
        assert np.allclose(scn.initial.matrix, np.diag([1.0, 0.0]))
        assert scn.n_steps == 2
        assert scn.post is None

    def test_matrix_initial(self):
        doc = illustrative_doc()
        doc["initial"] = matrix_doc(np.diag([0.5, 0.5]))
        scn = scenario_from_dict(doc)
        assert np.allclose(scn.initial.matrix, np.diag([0.5, 0.5]))

    def test_postselect_parsed(self):
        doc = illustrative_doc()
        doc["postselect"] = matrix_doc(np.diag([1.0, 0.0]))
        scn = scenario_from_dict(doc)
        assert scn.post is not None
        assert np.allclose(scn.post.matrix, np.diag([1.0, 0.0]))

    def test_complex_entries(self):
        doc = illustrative_doc()
        doc["steps"][0]["observable"] = matrix_doc(wl.SIGMA_Y.matrix)
        scn = scenario_from_dict(doc)
        assert np.allclose(scn.steps[0].observable.matrix, wl.SIGMA_Y.matrix)

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.pop("dimension"), "dimension"),
            (lambda d: d.update(dimension=1), "dimension"),
            (lambda d: d.pop("initial"), "initial"),
            (lambda d: d.update(initial=[pair(1)]), "initial"),
            (lambda d: d.update(steps=[]), "steps"),
            (lambda d: d["steps"][0].pop("observable"), "steps[0].observable"),
            (lambda d: d["steps"][0].update(sigma=-2.0), "steps[0].sigma"),
            (lambda d: d["steps"][1].update(sigma=float("inf")), "steps[1].sigma"),
            (lambda d: d["steps"][1].update(sigma=float("nan")), "steps[1].sigma"),
            (lambda d: d["steps"][1].update(sigma=1e200), "steps[1].sigma"),
            (lambda d: d["steps"][1]["observable"][0].__setitem__(1, [0.3, 0.0]), "steps[1].observable"),
            (lambda d: d.update(postselect=matrix_doc(np.diag([2.0, 0.0]))), "postselect"),
        ],
    )
    def test_errors_name_offending_field(self, mutate, field):
        doc = illustrative_doc()
        mutate(doc)
        with pytest.raises(ScenarioFileError) as excinfo:
            scenario_from_dict(doc)
        assert field in str(excinfo.value)

    def test_unnormalized_ket_rejected(self):
        doc = illustrative_doc()
        doc["initial"] = [pair(1), pair(1)]
        with pytest.raises(ScenarioFileError):
            scenario_from_dict(doc)


class TestRoundTrip:
    def test_save_load_preserves_moments(self, write_scenario):
        scn = wl.build_illustrative(1.7, 0.9)
        loaded = wl.load_scenario(write_scenario(scn))
        pattern = wl.MomentPattern.from_string("xx")
        assert wl.exact_moment(loaded, pattern).value == pytest.approx(
            wl.exact_moment(scn, pattern).value, abs=1e-15
        )

    def test_roundtrip_with_postselection(self, write_scenario):
        ket = wl.qubit_ket(0.3, 0.8)
        scn = wl.Scenario(
            initial=KET_PLUS.to_density(),
            steps=(
                wl.MeasurementStep(wl.SIGMA_Y, wl.GaussianPointer(2.0)),
                wl.MeasurementStep(wl.SIGMA_X, wl.GaussianPointer(3.0)),
            ),
            post=wl.PovmElement(np.outer(ket.amplitudes, ket.amplitudes.conj())),
        )
        loaded = wl.load_scenario(write_scenario(scn, "post.json"))
        for text in ("xx", "px", "pp", "XX"):
            pattern = wl.MomentPattern.from_string(text)
            assert wl.exact_moment(loaded, pattern).value == pytest.approx(
                wl.exact_moment(scn, pattern).value, abs=1e-15
            )

    def test_dict_roundtrip_identity(self, write_scenario):
        scn = wl.build_pauli_xy(2.0, 4.0)
        rebuilt = scenario_from_dict(json.loads(write_scenario(scn).read_text()))
        for original, loaded in zip(scn.steps, rebuilt.steps):
            assert np.array_equal(original.observable.matrix, loaded.observable.matrix)
            assert original.pointer.sigma == loaded.pointer.sigma

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFileError):
            wl.load_scenario(path)
