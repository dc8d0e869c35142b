import collections
import functools
import json
import math
import operator
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaklab as wl
from weaklab.errors import ScenarioFileError, WeakLabError
from weaklab.scenario_io import scenario_from_dict

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


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
            {"observable": matrix_doc(scn.observables[0]), "sigma": sigma1},
            {"observable": matrix_doc(scn.observables[1]), "sigma": sigma2},
        ],
        "postselect": None,
    }


class TestParsing:
    def test_ket_initial(self):
        scn = scenario_from_dict(illustrative_doc())
        assert np.allclose(scn.initial, np.diag([1.0, 0.0]))
        assert scn.n_steps == 2
        assert scn.post is None

    def test_matrix_initial(self):
        doc = illustrative_doc()
        doc["initial"] = matrix_doc(np.diag([0.5, 0.5]))
        scn = scenario_from_dict(doc)
        assert np.allclose(scn.initial, np.diag([0.5, 0.5]))

    def test_postselect_parsed(self):
        doc = illustrative_doc()
        doc["postselect"] = matrix_doc(np.diag([1.0, 0.0]))
        scn = scenario_from_dict(doc)
        assert scn.post is not None
        assert np.allclose(scn.post, np.diag([1.0, 0.0]))

    def test_complex_entries(self):
        doc = illustrative_doc()
        doc["steps"][0]["observable"] = matrix_doc(wl.SIGMA_Y)
        scn = scenario_from_dict(doc)
        assert np.allclose(scn.observables[0], wl.SIGMA_Y)

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

    def test_ket_norm_boundary_matches_the_density_trace(self):
        # the ket's rule reads |psi|^2, the trace of the density it becomes
        doc = illustrative_doc()
        doc["initial"] = [pair(1 + 0.4e-12), pair(0)]
        assert scenario_from_dict(doc).initial[0, 0] == (1 + 0.4e-12) ** 2
        doc["initial"] = [pair(1 + 0.9e-12), pair(0)]
        with pytest.raises(ScenarioFileError) as excinfo:
            scenario_from_dict(doc)
        assert str(excinfo.value) == "initial: state squared norm is 1.0000000000018, expected 1"


def skewed_doc(deviation):
    """A matrix document that deviates from Hermiticity by ``deviation``."""
    return matrix_doc([[1.0, deviation], [0.0, 0.0]])


def observable_doc(**replace):
    """An illustrative document whose first observable's rows are replaced."""
    doc = illustrative_doc()
    rows = doc["steps"][0]["observable"]
    for index, row in replace.items():
        rows[int(index[1:])] = row
    return doc


class TestReaderContract:
    """What the reader refuses, and where it says the fault is.

    Each bad document must raise a ScenarioFileError whose message names the
    field and the first offending entry in row-major order."""

    @pytest.mark.parametrize(
        "doc,message",
        [
            (observable_doc(r0=[[1.0, 0.0], [True, 0.0]]),
             "steps[0].observable[0][1]: expected an [re, im] pair, got [True, 0.0]"),
            (observable_doc(r0=[[1.0, 0.0], [0.0, "0"]]),
             "steps[0].observable[0][1]: expected an [re, im] pair, got [0.0, '0']"),
            (observable_doc(r1=[[0.0, 0.0], [None, 0.0]]),
             "steps[0].observable[1][1]: expected an [re, im] pair, got [None, 0.0]"),
            (observable_doc(r0=[[1.0], [0.0, 0.0]]),
             "steps[0].observable[0][0]: expected an [re, im] pair, got [1.0]"),
            (observable_doc(r1=[[0.0, 0.0], [0.0, 0.0, 0.0]]),
             "steps[0].observable[1][1]: expected an [re, im] pair, got [0.0, 0.0, 0.0]"),
            (observable_doc(r1=[[[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0]]),
             "steps[0].observable[1][0]: expected an [re, im] pair, got [[0.0, 0.0], [0.0, 0.0]]"),
            (observable_doc(r1=[[0.0, 0.0]]),
             "steps[0].observable[1]: expected a row of 2 entries"),
            (observable_doc(r1=[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
             "steps[0].observable[1]: expected a row of 2 entries"),
            (observable_doc(r1=[0.0, 0.0]),
             "steps[0].observable[1][0]: expected an [re, im] pair, got 0.0"),
            (observable_doc(r1=None),
             "steps[0].observable[1]: expected a row of 2 entries"),
            # The first fault in row-major order wins: a bad entry before a
            # ragged row, a ragged row before a bad entry.
            (observable_doc(r0=[[1.0, 0.0], [False, 0.0]], r1=[[0.0, 0.0]]),
             "steps[0].observable[0][1]: expected an [re, im] pair, got [False, 0.0]"),
            (observable_doc(r0=[[1.0, 0.0]], r1=[[0.0, 0.0], [None, 0.0]]),
             "steps[0].observable[0]: expected a row of 2 entries"),
        ],
    )
    def test_bad_matrix_entry(self, doc, message):
        with pytest.raises(ScenarioFileError) as excinfo:
            scenario_from_dict(doc)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d["steps"][1].update(observable=[pair(1), pair(0)]),
             "steps[1].observable[0][0]: expected an [re, im] pair, got 1.0"),
            (lambda d: d["steps"][1].update(observable=matrix_doc(np.eye(3))),
             "steps[1].observable: expected 2 rows"),
            (lambda d: d["steps"][1].update(observable=matrix_doc(np.eye(2))[:1]),
             "steps[1].observable: expected 2 rows"),
            (lambda d: d["steps"][1].update(observable={"re": 1}),
             "steps[1].observable: expected 2 rows"),
            (lambda d: d.update(postselect=[pair(1), pair(0)]),
             "postselect[0][0]: expected an [re, im] pair, got 1.0"),
            (lambda d: d.update(postselect=[[pair(1), [0.0, True]], [pair(0), pair(0)]]),
             "postselect[0][1]: expected an [re, im] pair, got [0.0, True]"),
            (lambda d: d.update(initial=[pair(1), [None, None]]),
             "initial[1]: expected an [re, im] pair, got [None, None]"),
            (lambda d: d.update(initial=[pair(1), [0.0]]),
             "initial[1]: expected an [re, im] pair, got [0.0]"),
            (lambda d: d.update(initial=[pair(1), [0.0, 0.0, 0.0]]),
             "initial[1]: expected an [re, im] pair, got [0.0, 0.0, 0.0]"),
            (lambda d: d.update(initial=[pair(1), pair(0), pair(0)]),
             "initial: expected an array of 2 entries"),
            (lambda d: d.update(initial=[[pair(1), pair(0)], [pair(0), "0"]]),
             "initial[1][1]: expected an [re, im] pair, got '0'"),
            (lambda d: d.update(initial=[[pair(1), pair(0)], [pair(0)]]),
             "initial[1]: expected a row of 2 entries"),
            (lambda d: d.update(initial=[[pair(1), pair(0)]]),
             "initial: expected 2 rows"),
            # Library callers get the same contract: tuples are not lists.
            (lambda d: d["steps"][1]["observable"][0].__setitem__(1, (0.0, 0.0)),
             "steps[1].observable[0][1]: expected an [re, im] pair, got (0.0, 0.0)"),
            (lambda d: d["steps"][1]["observable"].__setitem__(1, tuple(d["steps"][1]["observable"][1])),
             "steps[1].observable[1]: expected a row of 2 entries"),
            (lambda d: d["steps"][1].update(observable=tuple(d["steps"][1]["observable"])),
             "steps[1].observable: expected 2 rows"),
            (lambda d: d.update(initial=[pair(1), (0.0, 0.0)]),
             "initial[1]: expected an [re, im] pair, got (0.0, 0.0)"),
            # Fields outside the schema are refused, after the required ones.
            (lambda d: d.update(post_select=d.pop("postselect")),
             "top level: unknown field 'post_select'; expected dimension, initial, steps, postselect"),
            (lambda d: d.update({"": 0}), "top level: unknown field ''; expected dimension, initial, steps, postselect"),
            (lambda d: d["steps"][1].update(sigma2=3.0), "steps[1]: unknown field 'sigma2'; expected observable, sigma"),
            (lambda d: d["steps"][0].update(Observable=None),
             "steps[0]: unknown field 'Observable'; expected observable, sigma"),
            (lambda d: d.update(extra=1, initial=None) or d.pop("initial"), "initial: field is required"),
            (lambda d: d["steps"][0].update(sigma2=3.0) or d["steps"][0].pop("observable"),
             "steps[0].observable: field is required"),
            (lambda d: d.update(steps=[None]), "steps[0]: expected an object"),
            (lambda d: d.pop("steps"), "steps: field is required"),
            (lambda d: d["steps"][0].pop("sigma"), "steps[0].sigma: field is required"),
            # A document with several faults: the error names the one a
            # step-by-step reading meets first, and that step's own numbers.
            (lambda d: d["steps"][0].update(sigma=-1) or d["steps"][1]["observable"].__setitem__(1, [pair(0)]),
             "steps[0].sigma: pointer width must be positive and its square a positive finite float, got -1.0"),
            (lambda d: d["steps"][0].update(observable=skewed_doc(0.3)) or d["steps"][1].update(observable=skewed_doc(0.5)),
             "steps[0].observable: observable deviates from Hermiticity by 3.000e-01"),
            (lambda d: d["steps"][0].update(sigma="1") or d["steps"][1].update(observable=skewed_doc(0.5)),
             "steps[0].sigma: expected a number, got '1'"),
        ],
    )
    def test_bad_field(self, mutate, message):
        doc = illustrative_doc()
        mutate(doc)
        with pytest.raises(ScenarioFileError) as excinfo:
            scenario_from_dict(doc)
        assert str(excinfo.value) == message

    @staticmethod
    def oracle(rows):
        """Entry-by-entry reading of a matrix document."""
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    @staticmethod
    def assert_bitwise_equal(got, want):
        assert got.dtype == want.dtype == np.complex128
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))

    @staticmethod
    def entries(matrix, rng):
        """A document for ``matrix``: every zero part gets a random sign and
        integral values are sometimes written as JSON ints."""
        def part(x):
            if x == 0.0:
                return -0.0 if rng.random() < 0.5 else 0.0
            if x == int(x) and rng.random() < 0.5:
                return int(x)
            return float(x)

        return [[[part(z.real), part(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]

    @staticmethod
    def random_document(rng, d):
        def hermitian():
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = np.round(a + a.conj().T, 3)
            # Zeroed and integral Hermitian pairs and the real diagonal give
            # the reader signed zeros and JSON ints to keep.
            zeros = np.triu(rng.random((d, d)) < 0.3)
            a[zeros | zeros.T] = 0.0
            integral = np.triu(rng.random((d, d)) < 0.2)
            a[integral | integral.T] = np.round(a.real)[integral | integral.T]
            return a

        def density():
            # Support on the first d - 1 levels leaves a row and column of
            # exact zeros.
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            ket[-1] = 0.0
            mixed = np.outer(ket, ket.conj()) + np.diag(np.r_[np.ones(d - 1), 0.0])
            return mixed / mixed.trace().real

        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        ket[rng.random(d) < 0.3] = 0.0
        ket[0] = 1.0
        ket /= np.linalg.norm(ket)
        entries = TestReaderContract.entries
        use_ket = rng.random() < 0.5
        return {
            "dimension": d,
            "initial": entries([ket], rng)[0] if use_ket else entries(density(), rng),
            "steps": [{"observable": entries(hermitian(), rng), "sigma": float(rng.uniform(0.5, 3))} for _ in range(3)],
            "postselect": entries(density(), rng) if rng.random() < 0.5 else None,
        }

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 32])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_entry_by_entry_oracle(self, d, seed):
        rng = np.random.default_rng([d, seed])
        doc = json.loads(json.dumps(self.random_document(rng, d)))
        scn = scenario_from_dict(doc)
        observables = np.array([self.oracle(step_doc["observable"]) for step_doc in doc["steps"]])
        pairs = [(scn.observables, observables), *zip(scn.observables, observables)]
        if isinstance(doc["initial"][0][0], list):
            pairs.append((scn.initial, self.oracle(doc["initial"])))
        else:
            ket = np.array([complex(re, im) for re, im in doc["initial"]])
            pairs.append((scn.initial, wl.projector_from_ket(ket)))
        if doc["postselect"] is not None:
            pairs.append((scn.post, self.oracle(doc["postselect"])))
        for got, want in pairs:
            self.assert_bitwise_equal(got, want)
        assert any(np.signbit(parts[parts == 0]).any() for parts in (want.view(float) for _, want in pairs))
        widths = np.array([step_doc["sigma"] for step_doc in doc["steps"]])
        assert scn.widths.dtype == widths.dtype == np.float64 and scn.widths.tobytes() == widths.tobytes()
        assert scn.widths.tolist() == [step_doc["sigma"] for step_doc in doc["steps"]]

    def test_signed_zeros_kept(self):
        doc = illustrative_doc()
        doc["steps"][0]["observable"] = [[[1, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [0, -0.0]]]
        doc["initial"] = [[1.0, -0.0], [-0.0, 0.0]]
        scn = scenario_from_dict(doc)
        observable = scn.observables[0]
        self.assert_bitwise_equal(observable, self.oracle(doc["steps"][0]["observable"]))
        assert np.signbit(observable.real).tolist() == [[False, True], [True, False]]
        assert np.signbit(observable.imag).tolist() == [[True, False], [True, True]]
        want = wl.projector_from_ket(np.array([complex(1.0, -0.0), complex(-0.0, 0.0)]))
        self.assert_bitwise_equal(scn.initial, want)


def node_paths(node, prefix=()):
    """Paths to every node below ``node`` in a JSON document."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def replace_at(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# Any JSON value, with integers far outside a double's range.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.text(max_size=3)
    | st.floats()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.sampled_from([2**1024, -(2**1024), 10**400]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=6,
)


class TestArbitraryValues:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_reader_returns_scenario_or_weaklab_error(self, data):
        """Whatever JSON value replaces a node of a valid document, the
        reader returns a Scenario or raises a WeakLabError."""
        doc = illustrative_doc()
        if data.draw(st.booleans()):
            doc["initial"] = matrix_doc(np.diag([1.0, 0.0]))
            doc["postselect"] = matrix_doc(np.diag([0.0, 1.0]))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(node_paths(doc))))
            replace_at(doc, path, data.draw(JSON_VALUES))
        try:
            scn = scenario_from_dict(doc)
        except WeakLabError:
            return
        assert isinstance(scn, wl.Scenario)


# Fast-path refusal message that a refused document must never show: the
# field-by-field reading names the fault instead.
PLACEHOLDER = "a matrix or the ket is not an array of [re, im] pairs"


class TestEntryWalk:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_a_broken_matrix_is_named_by_its_field(self, data):
        """One matrix field of a valid document broken in its structure, by
        a node replaced with any JSON value, or a list shortened or
        lengthened: the reader returns a Scenario or raises a
        ScenarioFileError that names that field."""
        doc = illustrative_doc()
        if data.draw(st.booleans()):
            doc["initial"] = matrix_doc(np.diag([1.0, 0.0]))
            doc["postselect"] = matrix_doc(np.diag([0.0, 1.0]))
        names = ["initial", "steps[0].observable", "steps[1].observable"]
        names += [] if doc["postselect"] is None else ["postselect"]
        name = data.draw(st.sampled_from(names))
        field = doc["steps"][int(name[6])]["observable"] if name.startswith("steps") else doc[name]
        paths = list(node_paths(field))
        change = data.draw(st.sampled_from(["replace", "shorten", "lengthen"]))
        if change == "replace":
            replace_at(field, data.draw(st.sampled_from(paths)), data.draw(JSON_VALUES))
        else:
            nodes = [functools.reduce(operator.getitem, path, field) for path in paths]
            target = data.draw(st.sampled_from([field, *(node for node in nodes if isinstance(node, list))]))
            if change == "shorten" and target:
                target.pop(data.draw(st.integers(0, len(target) - 1)))
            else:
                target.append(data.draw(JSON_VALUES))
        try:
            scenario_from_dict(doc)
        except ScenarioFileError as exc:
            assert str(exc).startswith(name) and PLACEHOLDER not in str(exc)


class TestRoundTrip:
    def test_save_load_preserves_moments(self, write_scenario):
        scn = wl.build_illustrative(1.7, 0.9)
        loaded = wl.load_scenario(write_scenario(scn))
        pattern = wl.MomentPattern.from_string("xx")
        assert wl.exact_moment(loaded, pattern).value == pytest.approx(
            wl.exact_moment(scn, pattern).value, abs=1e-15
        )

    def test_roundtrip_with_postselection(self, write_scenario):
        ket = np.array([np.cos(0.3), np.exp(0.8j) * np.sin(0.3)])
        scn = wl.Scenario(
            initial=KET_PLUS,
            steps=(
                wl.MeasurementStep(wl.SIGMA_Y, wl.GaussianPointer(2.0)),
                wl.MeasurementStep(wl.SIGMA_X, wl.GaussianPointer(3.0)),
            ),
            post=np.outer(ket, ket.conj()),
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
        for original, loaded in zip(scn.observables, rebuilt.observables):
            assert np.array_equal(original, loaded)
        for original, loaded in zip(scn.widths, rebuilt.widths):
            assert original == loaded

    @pytest.mark.parametrize("seed", range(4))
    def test_steps_form_gives_the_reader_bits(self, write_scenario, seed):
        # A search point's scenario as bench/run.py builds it, from
        # MeasurementSteps, and as the reader builds it from a file of the
        # same numbers: the same stacks, so the same moment bits.
        rng = np.random.default_rng(seed)
        n, d, sigma = 3, 3, float(rng.uniform(0.3, 3.0))
        kets = wl.qm.kets_from_normals(rng.standard_normal((n + 1, 2, d)))
        state, projectors = wl.SearchSpacePoint(kets[0], kets[1:]).decode()
        steps = [wl.MeasurementStep(p, wl.GaussianPointer(sigma)) for p in projectors]
        built = wl.Scenario(initial=state.to_density(), steps=steps)
        read = wl.load_scenario(write_scenario(built))
        for got, want in ((read.observables, built.observables), (read.widths, built.widths)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for text in ("xxx", "".join(rng.choice(list("ixXpP"), size=n))):
            pattern = wl.MomentPattern.from_string(text)
            assert wl.exact_moment(read, pattern) == wl.exact_moment(built, pattern)
        for text in ("xxx", "".join(rng.choice(list("ixp"), size=n))):
            pattern = wl.MomentPattern.from_string(text)
            assert wl.weak_prediction(read, pattern) == wl.weak_prediction(built, pattern)

    def test_a_file_descriptor_is_refused_and_left_open(self):
        # A pipe's read end, its write end closed, so open() would read EOF
        # at once; fds 0-2 are the test runner's own streams.
        read_end, write_end = os.pipe()
        os.close(write_end)
        try:
            with pytest.raises(ScenarioFileError, match=f"^cannot read '{read_end}': expected str, bytes or os.PathLike"):
                wl.load_scenario(read_end)
            os.fstat(read_end)
        finally:
            os.close(read_end)

    @pytest.mark.parametrize(
        "path,reason",
        [(None, "expected str, bytes or os.PathLike object, not NoneType"),
         (1.5, "expected str, bytes or os.PathLike object, not float"),
         ("a\0b.json", "embedded null byte")],
    )
    def test_a_path_that_names_no_file_is_refused(self, path, reason):
        with pytest.raises(ScenarioFileError, match="^" + re.escape(f"cannot read {str(path)!r}: {reason}") + "$"):
            wl.load_scenario(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioFileError):
            wl.load_scenario(path)


class TestEachInputCheckedOnce:
    """Each path into a Scenario checks its inputs in one pass: one call of
    each rule over the stack [rho, A_1 ... A_n, E] and the widths, and one
    eigh, counted through ``qm``, ``pointer`` and ``simulator``; a ket state
    adds its own ``qm.check_kets``. No ``check_*`` runs on a valid input
    beyond that, and no engine decomposes or checks anything again."""

    QM_NAMES = ("check_kets", "check_densities", "check_observables", "check_effects",
                "refused_hermitian", "refused_norms", "refused_spectra")
    # The stack's Hermiticity, the widths' rule and the one eigh.
    ONE_PASS = collections.Counter(refused_hermitian=1, refused_widths=1, eigh=1)
    # A ket's own check, with its squared norm.
    KET = collections.Counter(check_kets=1, refused_norms=1)

    @pytest.fixture
    def calls(self, monkeypatch):
        from weaklab import pointer, qm, scenario_io, simulator

        counts = collections.Counter()

        def counting(name, check):
            def counted(*args):
                counts[name] += 1
                return check(*args)

            return counted

        for name in self.QM_NAMES:
            monkeypatch.setattr(qm, name, counting(name, getattr(qm, name)))
        for module in (pointer, simulator, scenario_io):
            monkeypatch.setattr(module, "check_widths", counting("check_widths", module.check_widths))
        for module in (pointer, simulator):
            monkeypatch.setattr(module, "refused_widths", counting("refused_widths", module.refused_widths))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        return counts

    def test_ket_file(self, tmp_path, calls):
        path = tmp_path / "ket.json"
        path.write_text(json.dumps(illustrative_doc()))
        calls.clear()
        wl.load_scenario(path)
        assert calls == self.ONE_PASS + self.KET

    def test_density_file_with_post_selection(self, write_scenario, calls):
        scn = wl.Scenario(wl.projector_from_ket(KET_PLUS), [wl.SIGMA_Y, wl.SIGMA_X], [2.0, 3.0], np.diag([1.0, 0.0]))
        path = write_scenario(scn)
        calls.clear()
        wl.load_scenario(path)
        # The state's and the effect's spectrum rules, and the state's trace.
        assert calls == self.ONE_PASS + collections.Counter(refused_spectra=2, refused_norms=1)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: wl.build_illustrative(1.0, 2.0),
            lambda: wl.build_pauli_xy(1.0, 2.0),
            lambda: wl.build_projector_chain(4, 1.0),
            lambda: wl.build_common_cause(
                np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), wl.SIGMA_X, wl.SIGMA_Y, 1.0, 2.0
            ),
        ],
        ids=["illustrative", "pauli-xy", "chain-n", "common-cause"],
    )
    def test_builders(self, build, calls):
        build()
        assert calls == self.ONE_PASS + self.KET

    def test_search_point_through_steps(self, calls):
        # The path of bench/run.py: a search point's state, checked only as
        # the Scenario's density matrix, and its projectors and widths,
        # checked only in the Scenario's stacks; the pointers hold their
        # widths unchecked.
        kets = wl.qm.kets_from_normals(np.random.default_rng(3).standard_normal((5, 2, 3)))
        state, projectors = wl.SearchSpacePoint(kets[0], kets[1:]).decode()
        steps = [wl.MeasurementStep(p, wl.GaussianPointer(0.7)) for p in projectors]
        wl.Scenario(initial=state.to_density(), steps=steps)
        assert calls == self.ONE_PASS + collections.Counter(refused_spectra=1, refused_norms=1)

    def test_decode_checks_nothing(self, calls):
        # decode() holds the state ket unchecked; its density matrix is the
        # ket's frozen projector, bit for bit, for the Scenario to check.
        kets = wl.qm.kets_from_normals(np.random.default_rng(4).standard_normal((4, 2, 3)))
        point = wl.SearchSpacePoint(kets[0], kets[1:])
        density = point.decode()[0].to_density()
        assert calls == {}
        assert density.tobytes() == wl.projector_from_ket(point.state).tobytes()
        assert density.dtype == complex and not density.flags.writeable

    def test_engines_check_nothing_again(self, calls):
        scn = wl.Scenario(KET_PLUS, [wl.SIGMA_Y, wl.SIGMA_X], [20.0, 30.0], np.diag([1.0, 0.0]))
        calls.clear()
        assert wl.steps_outside_weak_regime(scn) == ()
        wl.exact_moment(scn, wl.MomentPattern.from_string("xx"))
        wl.recover_weak_value(scn)
        wl.seq_weak_value(scn)
        assert calls == {}

    @pytest.mark.parametrize("post", [None, np.diag([1.0, 0.0])])
    @pytest.mark.parametrize("initial", [KET_PLUS, np.eye(2) / 2])
    def test_one_eigh_for_a_scenario_and_an_engine_call(self, calls, initial, post):
        scn = wl.Scenario(initial, [wl.SIGMA_Y, wl.SIGMA_X], [2.0, 3.0], post)
        wl.exact_moment(scn, wl.MomentPattern.from_string("xp"))
        assert calls["eigh"] == 1 and calls["eigvalsh"] == 0
