import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

import weaklab as wl
from weaklab import qm
from weaklab.errors import DimensionMismatch, InputError
from weaklab.scenario_io import scenario_from_dict

from instances import random_density, random_ket, random_observable

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
SIGMA_Z = np.diag([1.0, -1.0])


def scenario_with(initial=wl.KET_0, observable=SIGMA_Z, post=None):
    """A one-step scenario around the input under test."""
    return wl.Scenario(initial, [observable], [1.0], post)


class TestStates:
    def test_ket_norm_enforced(self):
        for theta in (0.0, 0.3, -2.0):
            qm.check_kets(wl.qubit_ket(theta))
        qm.check_kets(wl.KET_0)
        with pytest.raises(InputError, match=re.escape("state squared norm is 2.0, expected 1")):
            scenario_with(np.array([1.0, 1.0]))
        # cos and sin of a complex angle make a Hermitian |k><k| of any norm
        with pytest.raises(TypeError):
            wl.qubit_ket(1.0 + 1.0j)

    def test_a_ket_passes_exactly_when_its_density_does(self):
        # |psi|^2 = 1 + 0.8e-12 passes both checks, 1 + 1.8e-12 fails both;
        # a rule on |psi| itself once passed the second and failed its density.
        qm.check_densities(wl.projector_from_ket(np.array([1 + 0.4e-12, 0.0])))
        too_long = np.array([1 + 0.9e-12, 0.0])
        with pytest.raises(InputError, match=re.escape("state squared norm is 1.0000000000018, expected 1")):
            scenario_with(too_long)
        with pytest.raises(InputError, match=re.escape("density matrix trace is 1.0000000000018, expected 1")):
            scenario_with(np.outer(too_long, too_long))

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_to_density_needs_no_second_check(self, d):
        # A search point's to_density skips check_densities, and Scenario
        # checks a ket by check_kets alone: around the norm bound, a ket and
        # its density matrix must pass or fail together.
        rng = np.random.default_rng(d)
        for _ in range(400):
            ket = qm.kets_from_normals(rng.standard_normal((2, d))) * math.sqrt(1 + rng.uniform(-2e-12, 2e-12))
            verdicts = []
            for check, value in ((qm.check_kets, ket), (qm.check_densities, np.outer(ket, ket.conj()))):
                try:
                    check(value)
                    verdicts.append(True)
                except InputError:
                    verdicts.append(False)
            assert verdicts[0] == verdicts[1]

    def test_to_density(self):
        # a real ket gives the complex projector that a complex one does
        rho = wl.projector_from_ket(KET_PLUS)
        assert np.allclose(rho, np.full((2, 2), 0.5))
        assert rho.dtype == complex and not rho.flags.writeable
        assert np.array_equal(rho, wl.projector_from_ket(KET_PLUS.astype(complex)))

    def test_immutability(self):
        for ket in (wl.KET_0, wl.qubit_ket(0.3)):
            with pytest.raises(ValueError):
                ket[0] = 2.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 3, -2.0])
    def test_qubit_ket(self, theta):
        ket = wl.qubit_ket(theta)
        assert ket.shape == (2,) and ket.dtype == complex
        assert np.array_equal(ket, [math.cos(theta), math.sin(theta)])
        assert np.linalg.norm(ket) == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_qubit_constants_are_frozen_arrays(self):
        for array in (wl.KET_0, wl.SIGMA_X, wl.SIGMA_Y):
            assert array.dtype == complex and not array.flags.writeable
        assert np.array_equal(wl.KET_0, [1.0, 0.0]) and wl.KET_0.shape == (2,)
        assert wl.Scenario(wl.KET_0, [wl.SIGMA_X], [1.0]).dim == 2
        assert np.array_equal(wl.SIGMA_Y @ wl.SIGMA_X, np.diag([-1j, 1j]))


class TestScenarioInputs:
    """``Scenario`` checks its state and its effect, with the messages of
    the stacked checks, and holds both as frozen arrays."""

    # NaN passes every ">" check, so each input needs its own finiteness test.
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda z: scenario_with(np.array([1.0, z])), "state vector has a non-finite entry"),
            (lambda z: scenario_with(np.array([[1.0, 0.0], [0.0, z]])), "density matrix has a non-finite entry"),
            (lambda z: scenario_with(observable=np.array([[z, 0.0], [0.0, 1.0]])), "observable has a non-finite entry"),
            (lambda z: scenario_with(post=np.array([[z, 0.0], [0.0, 0.0]])), "POVM element has a non-finite entry"),
        ],
    )
    def test_non_finite_entries_rejected(self, make, message, bad):
        with pytest.raises(InputError, match=message):
            make(bad)

    @pytest.mark.parametrize(
        "inputs,message",
        [
            ({"initial": np.array([[0.5, 1.0], [0.0, 0.5]])}, "density matrix deviates from Hermiticity by 1.000e+00"),
            ({"initial": np.diag([1.5, -0.5])}, "density matrix has negative eigenvalue -5.000e-01"),
            ({"initial": np.diag([0.7, 0.7])}, "density matrix trace is 1.4, expected 1"),
            ({"initial": np.array([1.0, 1.0])}, "state squared norm is 2.0, expected 1"),
            ({"observable": np.array([[0.0, 1.0], [0.0, 0.0]])}, "observable deviates from Hermiticity by 1.000e+00"),
            ({"post": np.array([[0.5, 1.0], [0.0, 0.5]])}, "POVM element deviates from Hermiticity by 1.000e+00"),
            ({"post": np.diag([1.5, 0.0])}, "POVM element spectrum must lie in [0, 1], got [0.000e+00, 1.500e+00]"),
            ({"post": np.diag([-0.5, 1.0])}, "POVM element spectrum must lie in [0, 1], got [-5.000e-01, 1.000e+00]"),
        ],
    )
    def test_refusals_keep_their_messages(self, inputs, message):
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            scenario_with(**inputs)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 2, 2), ()])
    def test_non_square_state_and_effect(self, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"density matrix must be a square matrix, got shape {shape}")):
            scenario_with(np.zeros(shape))
        with pytest.raises(DimensionMismatch, match=re.escape(f"POVM element must be a square matrix, got shape {shape}")):
            scenario_with(post=np.zeros(shape))

    def test_a_ket_and_its_density_give_the_same_scenario(self):
        from_ket = scenario_with(KET_PLUS)
        from_density = scenario_with(wl.projector_from_ket(KET_PLUS))
        assert np.array_equal(from_ket.initial, from_density.initial)
        assert from_ket.dim == from_density.dim == 2

    def test_inputs_are_held_as_frozen_complex_copies(self):
        initial, post = np.eye(2) / 2, np.diag([1.0, 0.0])
        scn = scenario_with(initial, post=post)
        for held, given in ((scn.initial, initial), (scn.post, post)):
            assert held.dtype == complex and not held.flags.writeable
            assert np.array_equal(held, given) and held is not given
        with pytest.raises(dataclasses.FrozenInstanceError):
            scn.post = None

    def test_replace_checks_again(self):
        scn = scenario_with(post=np.diag([1.0, 0.0]))
        replaced = dataclasses.replace(scn, post=np.diag([0.0, 1.0]))
        assert not replaced.post.flags.writeable
        with pytest.raises(InputError, match="POVM element has a non-finite entry"):
            dataclasses.replace(scn, post=np.diag([np.nan, 1.0]))
        with pytest.raises(InputError, match="density matrix has a non-finite entry"):
            dataclasses.replace(scn, initial=np.diag([np.nan, 1.0]))


# A scenario's valid inputs, and refused values of each, in the documented
# order of its inputs, with the message each raises alone, as checking one
# input at a time gives it.
VALID = {"initial": wl.KET_0, "observables": [SIGMA_Z, SIGMA_Z], "widths": [1.0, 2.0], "post": None}
FAULTS = {
    "initial": [
        (np.array([1.0, 1.0]), "state squared norm is 2.0, expected 1"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "density matrix deviates from Hermiticity by 1.000e+00"),
        (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
        (np.diag([0.7, 0.7]), "density matrix trace is 1.4, expected 1"),
    ],
    "observables": [
        ([np.array([[0.0, 1.0], [0.0, 0.0]]), SIGMA_Z], "observable deviates from Hermiticity by 1.000e+00"),
        ([SIGMA_Z, np.diag([np.nan, 0.0])], "observable has a non-finite entry"),
        ([np.eye(3), np.eye(3)],
         "observables of shape (2, 3, 3) and widths of shape (2,) are not (n, 2, 2) and (n,) for state dimension 2"),
    ],
    "widths": [
        ([1.0, -1.0], "pointer width must be positive and its square a positive finite float, got -1.0"),
        ([1e-170, 1.0], "pointer width must be positive and its square a positive finite float, got 1e-170"),
        ([np.inf, 1.0], "pointer width must be positive and its square a positive finite float, got inf"),
    ],
    "post": [
        (np.diag([1.5, 0.0]), "POVM element spectrum must lie in [0, 1], got [0.000e+00, 1.500e+00]"),
        (np.array([[0.5, 1.0], [0.0, 0.5]]), "POVM element deviates from Hermiticity by 1.000e+00"),
        (np.diag([np.nan, 0.0]), "POVM element has a non-finite entry"),
        (np.eye(3), "post-selection dimension 3 != state dimension 2"),
    ],
}


class TestFaultOrder:
    """Of several refused inputs, the first in the documented order raises,
    state, observables, widths, effect, with the message it raises alone."""

    @pytest.mark.parametrize(
        "faulty", [names for size in range(1, 5) for names in itertools.combinations(FAULTS, size)], ids="+".join
    )
    def test_the_first_refused_input_raises(self, faulty):
        for refusals in itertools.product(*(FAULTS[name] for name in faulty)):
            inputs = dict(VALID, **{name: value for name, (value, _) in zip(faulty, refusals)})
            with pytest.raises(InputError, match="^" + re.escape(refusals[0][1]) + "$"):
                wl.Scenario(**inputs)

    @pytest.mark.parametrize(
        "name,value",
        [("widths", ["a"]), ("widths", [1j]), ("observables", "x"), ("initial", "ab"), ("post", "a"),
         ("observables", [SIGMA_Z, [[1.0]]])],
        ids=["string-width", "complex-width", "string-observables", "string-state", "string-effect", "ragged"],
    )
    def test_unreadable_values_are_refused_before_any_check(self, name, value):
        # Beside a refused state, or a refused effect for the state itself,
        # the value that cannot be read as an array raises first.
        other = ("post", np.diag([1.5, 0.0])) if name == "initial" else ("initial", np.diag([1.5, -0.5]))
        inputs = dict(VALID, **dict([other]), **{name: value})
        kind = "float" if name == "widths" else "complex"
        with pytest.raises(InputError, match=f"^{name} is not an array of {kind} numbers: "):
            wl.Scenario(**inputs)


class TestHermiticityScale:
    """The Hermiticity check's tolerance is relative to each matrix's
    largest entry, floored at 1, so rounding passes at any scale."""

    def test_large_observables_read_back_from_a_file_are_accepted(self):
        # V diag(a) V^H with eigenvalues of order 1e5 leaves rounding of
        # order 1e-11 off Hermitian, which an absolute 1e-12 refused.
        rng = np.random.default_rng(0)
        observables = []
        for _ in range(50):
            basis, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            observables.append((basis * (1e5 * rng.uniform(-1.0, 1.0, 3))) @ basis.conj().T)
        steps = [{"observable": [[[z.real, z.imag] for z in row] for row in obs.tolist()], "sigma": 1.0}
                 for obs in observables]
        doc = {"dimension": 3, "initial": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "steps": steps}
        scn = scenario_from_dict(json.loads(json.dumps(doc)))
        deviations = np.abs(scn.observables - scn.observables.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        assert (deviations > qm.HERMITICITY_TOL).sum() >= 25

    def test_large_matrices_are_refused_past_the_scaled_tolerance(self):
        skewed = np.array([[1e5, 0.0], [2e-6, -1e5]])
        with pytest.raises(InputError, match="^observable deviates from Hermiticity by 2.000e-06$"):
            scenario_with(observable=skewed)
        qm.check_observables(np.array([[1e5, 0.0], [5e-8, -1e5]]))

    def test_each_matrix_of_a_stack_has_its_own_scale(self):
        large = np.array([[1e5, 5e-8], [0.0, -1e5]])
        unit = np.array([[1.0, 2e-12], [0.0, -1.0]])
        qm.check_observables(np.array([large, SIGMA_Z]))
        with pytest.raises(InputError, match="^observable deviates from Hermiticity by 2.000e-12$"):
            qm.check_observables(np.array([large, unit]))


def scenario_of(*observables):
    """A scenario measuring ``observables`` in turn on a maximally mixed state."""
    d = len(observables[0])
    steps = [wl.MeasurementStep(obs, wl.GaussianPointer(1.0)) for obs in observables]
    return wl.Scenario(initial=np.eye(d) / d, steps=steps)


class TestScenarioSpectrum:
    """A scenario decomposes its observables once, as (n, d) eigenvalues and
    (n, d, d) eigenvector columns."""

    def test_sigma_z(self):
        eigenvalues, bases = scenario_of(SIGMA_Z).spectrum
        assert np.allclose(eigenvalues, [[-1.0, 1.0]])
        # ascending order puts |1> first
        assert np.allclose(np.abs(bases[0][:, 0]), [0.0, 1.0])
        assert np.allclose(np.abs(bases[0][:, 1]), [1.0, 0.0])

    def test_plus_projector_and_diagonal(self):
        eigenvalues, _ = scenario_of(wl.projector_from_ket(KET_PLUS), np.diag([0.0, 3.0])).spectrum
        assert np.allclose(eigenvalues, [[0.0, 1.0], [0.0, 3.0]], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InputError, match="observable deviates from Hermiticity"):
            scenario_of(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 8):
            observables = [random_observable(rng, d) for _ in range(20)]
            eigenvalues, bases = scenario_of(*observables).spectrum
            assert eigenvalues.shape == (20, d) and bases.shape == (20, d, d)
            for obs, values, v in zip(observables, eigenvalues, bases):
                assert np.max(np.abs((v * values) @ v.conj().T - obs)) < 1e-10
                assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-10
                assert np.all(np.diff(values) >= -1e-12)

    @pytest.mark.parametrize("with_post", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_spectrum_is_the_observables_own_eigh(self, d, with_post):
        # The one eigh runs on the stack [rho, A_1 ... A_n, E]; its
        # observables' rows are those of an eigh on the observables alone.
        rng = np.random.default_rng(d)
        for trial in range(50):
            n = int(rng.integers(1, 6))
            initial = random_density(rng, d) if trial % 2 else random_ket(rng, d)
            post = None
            if with_post:
                effect = random_density(rng, d)
                post = effect / np.linalg.eigh(effect)[0][-1]
            scn = wl.Scenario(initial, [random_observable(rng, d) for _ in range(n)], np.ones(n), post)
            for got, want in zip(scn.spectrum, np.linalg.eigh(scn.observables)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_spectrum_cached_and_frozen(self):
        scn = scenario_of(np.diag([1.0, 2.0]))
        assert scn.spectrum is scn.spectrum
        assert not any(array.flags.writeable for array in scn.spectrum)


class TestBatchedEigh:
    """Engines decompose a whole stack of observables with one eigh call.
    That call runs the same LAPACK routine on each matrix as a call per
    matrix does, so the two agree to the last bit; reports that must stay
    byte-identical rest on it."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32])
    def test_stack_equals_one_matrix_at_a_time(self, d):
        rng = np.random.default_rng(d)
        for n in range(1, 8):
            for _ in range(10):
                stack = wl.qm.observables_from_normals(rng.standard_normal((n, 2, d, d)))
                eigenvalues, eigenvectors = np.linalg.eigh(stack)
                for j in range(n):
                    one_values, one_vectors = np.linalg.eigh(stack[j])
                    assert np.array_equal(eigenvalues[j], one_values), (n, j)
                    assert np.array_equal(eigenvectors[j], one_vectors), (n, j)


class TestStackedInstances:
    """The stacked instance makers equal the one-at-a-time ones, and the
    stacked checks raise the error one instance gives for a bad entry."""

    def test_kets_match_random_ket_to_the_last_bit(self):
        for d in (2, 3, 4, 5):
            rng = np.random.default_rng(d)
            expected = np.array([random_ket(rng, d) for _ in range(40)])
            normals = np.random.default_rng(d).standard_normal((40, 2, d))
            assert np.array_equal(qm.kets_from_normals(normals), expected)

    def test_densities_and_observables_match(self):
        rng = np.random.default_rng(11)
        expected = [(random_density(rng, 3), random_observable(rng, 3)) for _ in range(30)]
        normals = np.random.default_rng(11).standard_normal((30, 2, 2, 3, 3))
        assert np.array_equal(qm.densities_from_normals(normals[:, 0]), [rho for rho, _ in expected])
        assert np.array_equal(qm.observables_from_normals(normals[:, 1]), [obs for _, obs in expected])

    def test_projectors_from_kets(self):
        kets = np.array([wl.KET_0, KET_PLUS])
        expected = [wl.projector_from_ket(wl.KET_0), wl.projector_from_ket(KET_PLUS)]
        assert np.array_equal(qm.projectors_from_kets(kets), expected)

    @pytest.mark.parametrize(
        "check,bad,message",
        [
            (qm.check_kets, np.array([1.0, 1.0]), re.escape("state squared norm is 2.0, expected 1")),
            (qm.check_kets, np.array([1.0, np.nan]), "state vector has a non-finite entry"),
            (qm.check_densities, np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -5.000e-01"),
            (qm.check_densities, np.diag([0.7, 0.7]), re.escape("density matrix trace is 1.4, expected 1")),
            (qm.check_densities, np.array([[0.5, 1.0], [0.0, 0.5]]), "density matrix deviates from Hermiticity"),
            (qm.check_observables, np.array([[0.0, 1.0], [0.0, 0.0]]), "observable deviates from Hermiticity"),
            (qm.check_observables, np.diag([np.inf, 0.0]), "observable has a non-finite entry"),
            (qm.check_effects, np.diag([np.nan, 0.0]), "POVM element has a non-finite entry"),
            (qm.check_effects, np.array([[0.5, 1.0], [0.0, 0.5]]), "POVM element deviates from Hermiticity"),
            (qm.check_effects, np.diag([1.5, 0.0]),
             re.escape("POVM element spectrum must lie in [0, 1], got [0.000e+00, 1.500e+00]")),
            (qm.check_effects, np.diag([-0.5, 1.0]),
             re.escape("POVM element spectrum must lie in [0, 1], got [-5.000e-01, 1.000e+00]")),
        ],
    )
    def test_one_bad_entry_fails_the_stack(self, check, bad, message):
        good = np.array([1.0, 0.0]) if bad.ndim == 1 else np.diag([1.0, 0.0])
        check(np.array([good, good]))
        with pytest.raises(InputError, match=message):
            check(np.array([[good, good], [good, bad]]))


class TestProjectorFromKet:
    @pytest.mark.parametrize("ket", [np.eye(2), np.array(1.0), np.ones((1, 2))], ids=["matrix", "scalar", "row"])
    def test_only_a_ket_is_taken(self, ket):
        with pytest.raises(DimensionMismatch, match=re.escape(f"ket must be one-dimensional, got shape {ket.shape}")):
            wl.projector_from_ket(ket)

    def test_ket_zero(self):
        projector = wl.projector_from_ket(wl.KET_0)
        assert np.allclose(projector, np.diag([1.0, 0.0]))
        assert projector.dtype == complex and not projector.flags.writeable

    def test_ket_plus(self):
        assert np.allclose(wl.projector_from_ket(KET_PLUS), np.full((2, 2), 0.5))

    def test_tilted_state_corner_entry(self):
        # amplitudes (1/2, sqrt(3)/2): top-left entry is |1/2|^2 = 1/4
        ket = np.array([0.5, np.sqrt(3.0) / 2.0])
        assert wl.projector_from_ket(ket)[0, 0] == pytest.approx(0.25)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            proj = wl.projector_from_ket(random_ket(rng, d))
            assert np.max(np.abs(proj @ proj - proj)) < 1e-12


class TestCommutes:
    def test_disjoint_supports_commute(self):
        a = np.kron(wl.SIGMA_X, np.eye(2))
        b = np.kron(np.eye(2), wl.SIGMA_Y)
        assert np.linalg.norm(a @ b - b @ a, ord=2) <= 1e-12
