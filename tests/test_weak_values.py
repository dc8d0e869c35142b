import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import DimensionMismatch, InputError, ZeroPostSelectionProbability
from weaklab.weak_values import (
    PROJECTOR_PAIR_FLOOR,
    ZERO_PROBABILITY_TOL,
    check_probability,
    norm_products,
    sequence_traces,
)

from instances import (
    bits,
    norm_product_bound,
    ordered_trace,
    random_density,
    random_ket,
    random_observable,
    stack,
    unit_scenario,
)

KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
SIGMA_Z = np.diag([1.0, -1.0])


def illustrative_pair():
    psi_1 = np.array([0.5, math.sqrt(3.0) / 2.0])
    psi_2 = np.array([0.5, -math.sqrt(3.0) / 2.0])
    return wl.projector_from_ket(psi_1), wl.projector_from_ket(psi_2)


def product_hull(observables):
    """Least and greatest product of one eigenvalue per observable, by
    enumerating every choice."""
    spectra = [np.linalg.eigvalsh(obs) for obs in observables]
    products = [math.prod(choice) for choice in itertools.product(*spectra)]
    return min(products), max(products)


def norm_product(observables):
    """``norm_products`` of one sequence."""
    return float(norm_products(stack(observables)))


def pair_value(psi, first, second):
    """Re <psi| second first |psi>, the no-post-selection weak value of a pair."""
    return wl.seq_weak_value(unit_scenario(psi, stack([first, second]))).real


class TestSequence:
    def test_empty_rejected(self):
        with pytest.raises(InputError, match="^a scenario needs at least one measurement step$"):
            wl.seq_weak_value(unit_scenario(wl.KET_0, np.empty((0, 2, 2))))

    @pytest.mark.parametrize(
        "observables",
        [np.eye(2), np.zeros((1, 2, 3)), np.array([np.eye(3)])],
        ids=["one-matrix-unstacked", "not-square", "wrong-dimension"],
    )
    def test_wrong_shape_stack_rejected(self, observables):
        with pytest.raises(DimensionMismatch, match=r"are not \(n, 2, 2\)"):
            wl.seq_weak_value(unit_scenario(wl.KET_0, observables))

    def test_effect_dimension_rejected(self):
        with pytest.raises(DimensionMismatch, match="^post-selection dimension 3 != state dimension 2$"):
            wl.seq_weak_value(unit_scenario(wl.KET_0, stack([SIGMA_Z]), np.eye(3)))

    @pytest.mark.parametrize(
        "rho,post,message",
        [
            (np.diag([1.0, np.nan]), None, "density matrix has a non-finite entry"),
            (np.array([[0.5, 1.0], [0.0, 0.5]]), None, "density matrix deviates from Hermiticity by 1.000e+00"),
            (np.diag([1.5, -0.5]), None, "density matrix has negative eigenvalue -5.000e-01"),
            (np.diag([0.7, 0.7]), None, "density matrix trace is 1.4, expected 1"),
            (np.diag([1.0, 0.0]), np.diag([np.inf, 0.0]), "POVM element has a non-finite entry"),
            (np.diag([1.0, 0.0]), np.array([[0.5, 1.0], [0.0, 0.5]]), "POVM element deviates from Hermiticity by 1.000e+00"),
            (np.diag([1.0, 0.0]), np.diag([1.5, 0.0]), "POVM element spectrum must lie in [0, 1], got [0.000e+00, 1.500e+00]"),
        ],
    )
    def test_bad_state_or_effect_rejected(self, rho, post, message):
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            wl.seq_weak_value(unit_scenario(rho, stack([SIGMA_Z]), post))

    def test_non_square_state_and_effect_rejected(self):
        # A one-dimensional state is a ket, which ``Scenario`` accepts.
        with pytest.raises(DimensionMismatch, match=re.escape("density matrix must be a square matrix, got shape (2, 3)")):
            wl.seq_weak_value(unit_scenario(np.zeros((2, 3)), stack([SIGMA_Z])))
        with pytest.raises(DimensionMismatch, match=re.escape("POVM element must be a square matrix, got shape (2, 3)")):
            wl.seq_weak_value(unit_scenario(wl.KET_0, stack([SIGMA_Z]), np.zeros((2, 3))))

    def test_ordered_product_order(self):
        # Tr(E X Y rho), not Tr(E Y X rho): the first factor acts first, and
        # the effect E is the last.
        rho = wl.projector_from_ket(wl.KET_0)
        post = wl.projector_from_ket(KET_PLUS)
        factors = np.array([wl.SIGMA_Y, wl.SIGMA_X, post])
        want = np.trace(post @ wl.SIGMA_X @ wl.SIGMA_Y @ rho)
        assert np.isclose(sequence_traces(rho, factors), want, rtol=0.0, atol=1e-15)


class TestSeqWeakValues:
    def test_illustrative_pair_value(self):
        first, second = illustrative_pair()
        wv = wl.seq_weak_value(unit_scenario(wl.KET_0, stack([first, second])))
        assert wv == pytest.approx(-0.125, abs=1e-15)
        assert type(wv) is complex

    def test_pauli_pair_imaginary(self):
        wv = wl.seq_weak_value(unit_scenario(wl.KET_0, stack([wl.SIGMA_Y, wl.SIGMA_X])))
        assert wv == pytest.approx(1.0j, abs=1e-15)

    def test_chain_of_two(self):
        scn = wl.build_projector_chain(2, 1.0)
        wv = wl.seq_weak_value(scn)
        assert wv == pytest.approx(-((math.cos(math.pi / 3.0)) ** 3), abs=1e-14)

    def test_single_observable_postselected(self):
        post = np.diag([1.0, 0.0])
        wv = wl.seq_weak_value(unit_scenario(KET_PLUS, stack([SIGMA_Z]), post))
        assert wv == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-6])
    def test_amplification_scaling(self, eps):
        vec = np.array([eps, 1.0])
        psi = vec / np.linalg.norm(vec)
        post = np.diag([1.0, 0.0])
        wv = wl.seq_weak_value(unit_scenario(psi, stack([wl.SIGMA_X]), post))
        assert wv == pytest.approx(1.0 / eps, rel=1e-9)

    def test_orthogonal_postselection_rejected(self):
        post = np.diag([0.0, 1.0])
        with pytest.raises(ZeroPostSelectionProbability):
            wl.seq_weak_value(unit_scenario(wl.KET_0, stack([wl.SIGMA_X]), post))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wl.seq_weak_value(unit_scenario(np.eye(3) / 3.0, stack([SIGMA_Z])))

    def test_no_postselection_value_is_expectation_in_spectrum(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            obs = random_observable(rng, 3)
            rho = random_density(rng, 3)
            wv = wl.seq_weak_value(unit_scenario(rho, stack([obs])))
            assert abs(wv.imag) < 1e-12
            expectation = np.trace(obs @ rho).real
            assert wv.real == pytest.approx(expectation, abs=1e-12)
            lo, hi = product_hull([obs])
            assert lo - 1e-10 <= wv.real <= hi + 1e-10


class TestScenarioWeakValue:
    """``seq_weak_value(scn)`` is the plain-loop ordered trace over Tr(E rho)
    of the scenario's own arrays, bit for bit, and refuses a probability at
    or below the threshold with the threshold's message."""

    @staticmethod
    def refused(scn):
        """Checks one scenario; True when its weak value is refused."""
        numerator = ordered_trace(scn.initial, scn.observables, scn.post)
        if scn.post is None:
            assert bits(wl.seq_weak_value(scn)) == bits(numerator)
            return False
        probability = float(np.trace(scn.post @ scn.initial).real)
        if probability > ZERO_PROBABILITY_TOL:
            assert bits(wl.seq_weak_value(scn)) == bits(numerator / probability)
            return False
        message = f"post-selection probability {probability:.3e} is at or below {ZERO_PROBABILITY_TOL:g}"
        with pytest.raises(ZeroPostSelectionProbability, match="^" + re.escape(message) + "$"):
            wl.seq_weak_value(scn)
        return True

    @pytest.mark.parametrize(
        "build",
        [
            lambda: wl.build_illustrative(1.0, 2.0),
            lambda: wl.build_pauli_xy(1.0, 2.0),
            *(lambda n=n: wl.build_projector_chain(n, 1.0) for n in range(1, 7)),
            lambda: wl.build_common_cause(
                np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0), wl.SIGMA_X, wl.SIGMA_Y, 1.0, 2.0
            ),
        ],
        ids=["illustrative", "pauli-xy", *(f"chain-{n}" for n in range(1, 7)), "common-cause"],
    )
    def test_builtins_with_no_effect_their_state_and_its_complement(self, build):
        # Each built-in starts from a pure state rho: reselecting it keeps
        # every run, and its complement I - rho none.
        scn = build()
        complement = np.eye(scn.dim) - scn.initial
        assert [self.refused(scn), self.refused(replace(scn, post=scn.initial))] == [False, False]
        assert self.refused(replace(scn, post=complement))

    def test_random_scenarios(self):
        # d 2-4, n 1-5, half post-selected; one in five of those starts from
        # a pure state and selects its complement, which the threshold refuses.
        rng = np.random.default_rng(37)
        refusals = 0
        for trial in range(400):
            d, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            rho = random_density(rng, d)
            post = None
            if trial % 2:
                post = wl.projector_from_ket(random_ket(rng, d))
                if trial % 10 == 1:
                    rho, post = post, np.eye(d) - post
            observables = stack([random_observable(rng, d) for _ in range(n)])
            scn = wl.Scenario(rho, observables, rng.uniform(0.5, 5.0, n), post)
            refusals += self.refused(scn)
        assert refusals == 40


class TestBounds:
    def test_projector_norm_product(self):
        first, second = illustrative_pair()
        assert norm_product([first, second]) == pytest.approx(1.0)

    def test_pauli_pair_saturates(self):
        seq = [wl.SIGMA_Y, wl.SIGMA_X]
        bound = norm_product(seq)
        assert bound == pytest.approx(1.0)
        wv = wl.seq_weak_value(unit_scenario(wl.KET_0, stack(seq)))
        assert abs(wv) == pytest.approx(bound)

    def test_scaled_paulis(self):
        scaled = [2.0 * SIGMA_Z, 3.0 * wl.SIGMA_X]
        assert norm_product(scaled) == pytest.approx(6.0)

    def test_magnitude_bound_random_sequences(self):
        rng = np.random.default_rng(2)
        for _ in range(250):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            rho = random_density(rng, d)
            seq = [random_observable(rng, d) for _ in range(n)]
            wv = wl.seq_weak_value(unit_scenario(rho, stack(seq)))
            assert abs(wv) <= norm_product(seq) + 1e-12

    def test_linearity_in_preparation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            seq = [random_observable(rng, 3) for _ in range(3)]
            kets = [random_ket(rng, 3) for _ in range(3)]
            q = rng.dirichlet(np.ones(3))
            mixed = sum(w * wl.projector_from_ket(k) for w, k in zip(q, kets))
            direct = wl.seq_weak_value(unit_scenario(mixed, stack(seq)))
            combined = sum(w * wl.seq_weak_value(unit_scenario(k, stack(seq))) for w, k in zip(q, kets))
            assert direct == pytest.approx(combined, abs=1e-12)

    def test_reselection_matches_no_postselection(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_ket(rng, 3)
            seq = [random_observable(rng, 3) for _ in range(2)]
            no_post = wl.seq_weak_value(unit_scenario(psi, stack(seq)))
            reselect = wl.seq_weak_value(unit_scenario(psi, stack(seq), wl.projector_from_ket(psi)))
            assert no_post == pytest.approx(reselect, abs=1e-12)

    def test_commuting_sequence_stays_in_hull(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            # commuting observables: random diagonals in one random basis
            basis = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
            observables = [
                basis @ np.diag(rng.uniform(-1.5, 1.5, 3)) @ basis.conj().T
                for _ in range(3)
            ]
            rho = random_density(rng, 3)
            wv = wl.seq_weak_value(unit_scenario(rho, stack(observables)))
            lo, hi = product_hull(observables)
            assert lo - 1e-12 <= wv.real <= hi + 1e-12

    def test_symmetric_spectrum_pair_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            pair = []
            for _ in range(2):
                basis = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
                pair.append(basis @ np.diag([1.0, -1.0]) @ basis.conj().T)
            psi = random_ket(rng, 2)
            wv = wl.seq_weak_value(unit_scenario(psi, stack(pair)))
            assert abs(wv) <= 1.0 + 1e-12

    def test_chain_closed_form_and_monotonicity(self):
        previous = 0.0
        for n in range(2, 9):
            scn = wl.build_projector_chain(n, 1.0)
            wv = wl.seq_weak_value(scn)
            expected = -((math.cos(math.pi / (n + 1))) ** (n + 1))
            assert wv == pytest.approx(expected, abs=1e-12)
            assert wv.real < previous
            assert wv.real > -1.0
            previous = wv.real


class TestProbabilityCheck:
    def test_array_raises_for_the_first_low_entry(self):
        check_probability(np.array([0.5, 0.2]), 1.0)
        with pytest.raises(ZeroPostSelectionProbability, match=r"probability 3\.000e-15 is at or below 1e-14"):
            check_probability(np.array([[0.5, 3e-15], [0.0, 0.2]]), 1.0)


class TestStackedEvaluators:
    """The stacked kernels against one instance at a time, by plain loops."""

    def test_norm_of_projector(self):
        assert norm_product([wl.projector_from_ket(KET_PLUS)]) == pytest.approx(1.0)

    def test_norm_of_pauli(self):
        assert norm_product([wl.SIGMA_X]) == pytest.approx(1.0)

    def test_norm_of_diagonal(self):
        assert norm_product([np.diag([-2.0, 3.0])]) == pytest.approx(3.0)

    def test_norm_matches_singleton_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            obs = random_observable(rng, 4)
            eigenvalues = np.linalg.eigvalsh(obs)
            lo, hi = eigenvalues[0], eigenvalues[-1]
            assert norm_product([obs]) == pytest.approx(max(abs(lo), abs(hi)))

    @pytest.mark.parametrize("with_effect", [False, True], ids=["no-effect", "rank-1-effect"])
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("d", range(2, 5))
    def test_stacks_match_one_sequence_at_a_time(self, d, n, with_effect):
        rng = np.random.default_rng([d, n, int(with_effect)])
        states = [random_density(rng, d) for _ in range(20)]
        sequences = [[random_observable(rng, d) for _ in range(n)] for _ in range(20)]
        effects = [wl.projector_from_ket(random_ket(rng, d)) if with_effect else None for _ in range(20)]
        rho, observables = np.array(states), np.array(sequences)
        factors = np.array([[*seq, effect] for seq, effect in zip(sequences, effects)]) if with_effect else observables
        values = [ordered_trace(*instance) for instance in zip(states, sequences, effects)]
        assert np.allclose(sequence_traces(rho, factors), values, rtol=0.0, atol=1e-14)
        bounds = [norm_product_bound(seq) for seq in sequences]
        assert np.allclose(norm_products(observables), bounds, rtol=0.0, atol=1e-14)


class TestProjectorPairReport:
    """The -1/8 floor that the ``bounds`` report checks for projector pairs."""

    def test_illustrative_pair_sits_on_floor(self):
        first, second = illustrative_pair()
        assert pair_value(wl.KET_0, first, second) == pytest.approx(PROJECTOR_PAIR_FLOOR, abs=1e-15)

    def test_aligned_projectors(self):
        proj = wl.projector_from_ket(wl.KET_0)
        assert pair_value(wl.KET_0, proj, proj) == pytest.approx(1.0)

    def test_grid_minimum_is_minus_one_eighth(self):
        # Exhaustive scan over real qubit states/projectors at 1 degree
        # resolution: Re <psi|BA|psi> = cos(p-b) cos(b-a) cos(a-p).
        degrees = np.deg2rad(np.arange(0.0, 180.0, 1.0))
        grid_min = math.inf
        b, a = np.meshgrid(degrees, degrees, indexing="ij")
        for p in degrees:
            values = np.cos(p - b) * np.cos(b - a) * np.cos(a - p)
            grid_min = min(grid_min, float(values.min()))
        assert grid_min >= -0.125 - 1e-12
        assert grid_min == pytest.approx(-0.125, abs=1e-3)

    def test_random_pairs_always_satisfied(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            value = pair_value(
                random_ket(rng, 2),
                wl.projector_from_ket(random_ket(rng, 2)),
                wl.projector_from_ket(random_ket(rng, 2)),
            )
            assert value >= PROJECTOR_PAIR_FLOOR - 1e-12
