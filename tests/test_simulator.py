"""Simulator engines against independent oracles.

The exact engine is cross-checked by a literal double sum over
eigenindex tuples (built here from explicit eigenprojector products, a
different code path from the engine's sandwich transforms), the
weak-regime engine by directly transcribed two-measurement trace
formulas and by the operator-ordering sum, weak-value recovery by the
sum over momentum subsets, and the sampler by the exact engine itself.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaklab as wl
from weaklab import simulator
from weaklab.errors import (
    InputError,
    NumericError,
    PatternLengthMismatch,
    UnsupportedKind,
    ZeroPostSelectionProbability,
)
from weaklab.pointer import PointerOperatorKind, matrix_element

X = PointerOperatorKind.POSITION
P = PointerOperatorKind.MOMENTUM
I = PointerOperatorKind.IDENTITY


def random_unit_hermitian(rng, d):
    """Random Hermitian rescaled so its spectrum sits in [-1, 1]."""
    obs = wl.random_observable(rng, d)
    return wl.Observable(obs.matrix / wl.spectral_norm(obs))


def random_scenario(rng, d, n, with_post, sigma_range=(0.5, 5.0)):
    steps = tuple(
        wl.MeasurementStep(wl.random_observable(rng, d), wl.GaussianPointer(float(rng.uniform(*sigma_range))))
        for _ in range(n)
    )
    post = None
    if with_post:
        ket = wl.random_ket(rng, d)
        post = wl.PovmElement(np.outer(ket.amplitudes, ket.amplitudes.conj()))
    return wl.Scenario(initial=wl.random_density(rng, d), steps=steps, post=post)


def brute_force_moment(scn, pattern):
    """Literal double sum over eigenindex tuples, via projector products."""
    d = scn.dim
    n = scn.n_steps
    effect = np.eye(d, dtype=complex) if scn.post is None else scn.post.matrix
    decomps = [step.observable.decomposition for step in scn.steps]
    projectors = [
        [np.outer(dec.eigenvectors[:, k], dec.eigenvectors[:, k].conj()) for k in range(d)]
        for dec in decomps
    ]

    def term(k_tuple, l_tuple, kinds):
        left = scn.initial.matrix
        for j, k in enumerate(k_tuple):
            left = projectors[j][k] @ left
        for j, l in enumerate(l_tuple):
            left = left @ projectors[j][l]
        weight = complex(np.trace(effect @ left))
        for j in range(n):
            weight *= matrix_element(
                scn.steps[j].pointer,
                kinds[j],
                decomps[j].eigenvalues[l_tuple[j]],
                decomps[j].eigenvalues[k_tuple[j]],
            )
        return weight

    numerator = 0.0 + 0.0j
    denominator = 0.0 + 0.0j
    identity_kinds = [I] * n
    for k_tuple in itertools.product(range(d), repeat=n):
        for l_tuple in itertools.product(range(d), repeat=n):
            numerator += term(k_tuple, l_tuple, pattern.kinds)
            denominator += term(k_tuple, l_tuple, identity_kinds)
    return (numerator / denominator).real


def ordering_sum_weak(scn, pattern):
    """Weak-regime moment as the signed sum over 2^(m-1) operator orderings
    of the m non-identity slots (Mitchison, Jozsa & Popescu, "Sequential
    weak measurement", PRA 76, 062105 (2007)), one 1/(2 sigma^2) per
    momentum slot."""
    effect = np.eye(scn.dim, dtype=complex) if scn.post is None else scn.post.matrix
    rho = scn.initial.matrix
    slots = []
    for step, kind in zip(scn.steps, pattern.kinds):
        if kind is I:
            continue
        if kind not in (X, P):
            raise UnsupportedKind(str(kind))
        slots.append((step.observable.matrix, step.pointer.sigma, kind))
    if not slots:
        return 1.0
    m = len(slots)
    momentum = [j for j, (_, _, kind) in enumerate(slots) if kind is P]
    prefactor = (-1.0) ** (len(momentum) // 2) / 2.0 ** (m - 1)
    for j in momentum:
        prefactor /= 2.0 * slots[j][1] ** 2
    total = 0.0
    for exponents in itertools.product((0, 1), repeat=m - 1):
        # exponents[j-1] puts slot j >= 1 left of the running product (0)
        # or right of rho (1); slot 0 always sits immediately left of rho.
        left = slots[0][0]
        right = rho
        for j in range(1, m):
            if exponents[j - 1] == 0:
                left = slots[j][0] @ left
            else:
                right = right @ slots[j][0]
        term = complex(np.trace(effect @ left @ right))
        sign = (-1.0) ** sum(exponents[j - 1] for j in momentum if j >= 1)
        total += sign * (term.imag if len(momentum) % 2 else term.real)
    return prefactor * total / np.trace(effect @ rho).real


def subset_sum_recovery(scn, moment):
    """Weak value as the sum over momentum subsets P of
    prod_{j in P} (2i sigma_j^2) m_P, one moment per subset; without
    post-selection the final slot never reads momentum."""
    n = scn.n_steps
    candidates = range(n - 1) if scn.post is None else range(n)
    total = 0j
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            weight = complex(moment(scn, wl.MomentPattern(P if j in subset else X for j in range(n))))
            for j in subset:
                weight *= 2j * scn.steps[j].pointer.sigma ** 2
            total += weight
    return total


def operator_scale(scn, kinds):
    """Size of the terms a moment sums: prod ||A_j|| over read slots, with
    1/(2 sigma_j^2) per momentum slot, over Tr(E rho)."""
    effect = np.eye(scn.dim) if scn.post is None else scn.post.matrix
    scale = 1.0 / np.trace(effect @ scn.initial.matrix).real
    for step, kind in zip(scn.steps, kinds):
        if kind is not I:
            scale *= wl.spectral_norm(step.observable)
            if kind is P:
                scale /= 2.0 * step.pointer.sigma**2
    return scale


class TestScenarioTypes:
    def test_pattern_parsing(self):
        pat = wl.MomentPattern.from_string("ixXpP")
        assert [k.value for k in pat.kinds] == ["i", "x", "X", "p", "P"]
        assert str(pat) == "ixXpP"

    def test_pattern_bad_character(self):
        with pytest.raises(wl.errors.InputError):
            wl.MomentPattern.from_string("xq")

    def test_scenario_dimension_check(self):
        with pytest.raises(wl.errors.DimensionMismatch):
            wl.Scenario(
                initial=wl.MixedState(np.eye(3) / 3.0),
                steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(1.0)),),
            )

    def test_pattern_length_check(self):
        scn = wl.build_illustrative(1.0, 1.0)
        with pytest.raises(PatternLengthMismatch):
            wl.exact_moment(scn, wl.MomentPattern.from_string("xxx"))


class TestExactEngine:
    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(42)
        kinds = list(PointerOperatorKind)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, d, n, with_post=bool(rng.integers(2)))
            pattern = wl.MomentPattern(rng.choice(kinds, size=n))
            try:
                got = wl.exact_moment(scn, pattern)
            except ZeroPostSelectionProbability:
                continue
            want = brute_force_moment(scn, pattern)
            assert got.value == pytest.approx(want, abs=1e-11)

    def test_illustrative_closed_form(self):
        for sigma1 in (0.05, 0.7, 1.0, 13.0, 100.0):
            scn = wl.build_illustrative(sigma1, 2.0)
            got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
            want = (1.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 16.0
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_first_pointer_mean_quarter(self):
        for sigma1, sigma2 in [(0.3, 0.3), (1.0, 9.0), (40.0, 0.1)]:
            scn = wl.build_illustrative(sigma1, sigma2)
            got = wl.exact_moment(scn, wl.MomentPattern.from_string("xi")).value
            assert got == pytest.approx(0.25, abs=1e-12)

    def test_second_pointer_mean_closed_form(self):
        for sigma1 in (0.2, 1.0, 6.0):
            scn = wl.build_illustrative(sigma1, 3.3)
            got = wl.exact_moment(scn, wl.MomentPattern.from_string("ix")).value
            want = (5.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 8.0
            assert got == pytest.approx(want, abs=1e-12)
            assert 0.25 - 1e-12 <= got <= 0.625 + 1e-12

    def test_final_slot_momentum_vanishes(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, 2, n, with_post=False)
            kinds = [X] * (n - 1) + [P]
            got = wl.exact_moment(scn, wl.MomentPattern(kinds)).value
            assert abs(got) < 1e-12

    def test_last_pointer_strength_irrelevant_without_post(self):
        rng = np.random.default_rng(2)
        for final_kind in (X, I):
            for _ in range(20):
                n = int(rng.integers(1, 4))
                scn = random_scenario(rng, 2, n, with_post=False)
                kinds = [X] * (n - 1) + [final_kind]
                base = wl.exact_moment(scn, wl.MomentPattern(kinds)).value
                for sigma_n in (0.05, 1.7, 80.0):
                    steps = list(scn.steps)
                    steps[-1] = wl.MeasurementStep(steps[-1].observable, wl.GaussianPointer(sigma_n))
                    varied = wl.Scenario(initial=scn.initial, steps=tuple(steps), post=None)
                    got = wl.exact_moment(varied, wl.MomentPattern(kinds)).value
                    assert got == pytest.approx(base, abs=1e-12)

    def test_single_measurement_mean_is_expectation(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho = wl.random_density(rng, d)
            obs = wl.random_observable(rng, d)
            sigma = float(rng.uniform(0.05, 50.0))
            scn = wl.Scenario(
                initial=rho,
                steps=(wl.MeasurementStep(obs, wl.GaussianPointer(sigma)),),
            )
            got = wl.exact_moment(scn, wl.MomentPattern([X])).value
            assert got == pytest.approx(np.trace(obs.matrix @ rho.matrix).real, abs=1e-12)

    def test_postselection_probability_reported(self):
        scn = wl.Scenario(
            initial=wl.KET_PLUS.to_density(),
            steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(100.0)),),
            post=wl.PovmElement(np.diag([1.0, 0.0])),
        )
        result = wl.exact_moment(scn, wl.MomentPattern([X]))
        assert result.postselection_probability == pytest.approx(0.5, abs=1e-3)

    def test_wide_squared_readouts_are_finite(self):
        # the imaginary residue grows with the sigma^2n size of XXX moments
        rng = np.random.default_rng(20)
        for sigma in (100.0, 1e4, 1e6):
            for _ in range(20):
                scn = random_scenario(rng, 3, 3, with_post=False, sigma_range=(sigma, sigma))
                value = wl.exact_moment(scn, wl.MomentPattern.from_string("XXX")).value
                assert np.isfinite(value)

    def test_imaginary_residue_check_fires(self, monkeypatch):
        rng = np.random.default_rng(21)
        scn = random_scenario(rng, 3, 3, with_post=False, sigma_range=(100.0, 100.0))
        original = simulator.matrix_element
        tampered = []

        def leaky(ptr, kind, left, right):
            table = original(ptr, kind, left, right)
            if kind is PointerOperatorKind.POSITION_SQUARED and not tampered:
                tampered.append(kind)
                return table + 1e-6j * np.abs(table).max()
            return table

        monkeypatch.setattr(simulator, "matrix_element", leaky)
        with pytest.raises(NumericError):
            wl.exact_moment(scn, wl.MomentPattern.from_string("XXX"))
        assert tampered

    def test_orthogonal_postselection_raises(self):
        scn = wl.Scenario(
            initial=wl.KET_0.to_density(),
            steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(1.0)),),
            post=wl.PovmElement(np.diag([0.0, 1.0])),
        )
        with pytest.raises(ZeroPostSelectionProbability):
            wl.exact_moment(scn, wl.MomentPattern([X]))
        with pytest.raises(ZeroPostSelectionProbability):
            wl.sample_outcomes(scn, 100, seed=1)


def two_step_weak_oracle(scn, kinds):
    """Direct transcription of the two-measurement weak-regime formulas."""
    a = scn.steps[0].observable.matrix
    b = scn.steps[1].observable.matrix
    s1 = scn.steps[0].pointer.sigma
    s2 = scn.steps[1].pointer.sigma
    rho = scn.initial.matrix
    effect = np.eye(scn.dim, dtype=complex) if scn.post is None else scn.post.matrix
    denom = np.trace(effect @ rho).real
    seq = np.trace(effect @ b @ a @ rho) / denom
    swapped = np.trace(effect @ a @ rho @ b) / denom
    if kinds == (X, X):
        return 0.5 * (seq.real + swapped.real)
    if kinds == (P, X):
        return 1.0 / (2.0 * s1**2) * 0.5 * (seq.imag + swapped.imag)
    if kinds == (X, P):
        return 1.0 / (2.0 * s2**2) * 0.5 * (seq.imag - swapped.imag)
    if kinds == (P, P):
        return -1.0 / (4.0 * s1**2 * s2**2) * 0.5 * (seq.real - swapped.real)
    raise AssertionError(kinds)


class TestWeakEngine:
    def test_illustrative_any_width(self):
        for sigma1, sigma2 in [(0.1, 0.1), (1.0, 3.0), (50.0, 0.4)]:
            scn = wl.build_illustrative(sigma1, sigma2)
            got = wl.weak_prediction(scn, wl.MomentPattern.from_string("xx")).value
            assert got == pytest.approx(-0.125, abs=1e-14)

    def test_pauli_momentum_position(self):
        scn = wl.build_pauli_xy(2.0, 5.0)
        got = wl.weak_prediction(scn, wl.MomentPattern.from_string("px")).value
        assert got == pytest.approx(1.0 / (2.0 * 4.0), abs=1e-14)

    def test_chain_three_all_position(self):
        # oracle: the two operator-ordering traces evaluated directly
        scn = wl.build_projector_chain(3, 7.0)
        a1, a2, a3 = (step.observable.matrix for step in scn.steps)
        rho = scn.initial.matrix
        want = 0.5 * (np.trace(a3 @ a2 @ a1 @ rho).real + np.trace(a2 @ a3 @ a1 @ rho).real)
        assert want == pytest.approx(-0.125, abs=1e-14)
        got = wl.weak_prediction(scn, wl.MomentPattern.all_position(3)).value
        assert got == pytest.approx(want, abs=1e-14)

    def test_rejects_squared_kinds(self):
        scn = wl.build_illustrative(1.0, 1.0)
        with pytest.raises(UnsupportedKind):
            wl.weak_prediction(scn, wl.MomentPattern.from_string("Xx"))

    def test_two_step_formulas_with_postselection(self):
        rng = np.random.default_rng(5)
        cases = [(X, X), (P, X), (X, P), (P, P)]
        for _ in range(25):
            scn = random_scenario(rng, int(rng.integers(2, 4)), 2, with_post=True)
            try:
                wl.weak_prediction(scn, wl.MomentPattern([X, X]))
            except ZeroPostSelectionProbability:
                continue
            for kinds in cases:
                got = wl.weak_prediction(scn, wl.MomentPattern(kinds)).value
                assert got == pytest.approx(two_step_weak_oracle(scn, kinds), abs=1e-12)

    def test_identity_slot_marginalizes(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            scn = random_scenario(rng, 2, 3, with_post=True)
            try:
                full = wl.weak_prediction(scn, wl.MomentPattern([X, I, X])).value
            except ZeroPostSelectionProbability:
                continue
            reduced = wl.Scenario(
                initial=scn.initial,
                steps=(scn.steps[0], scn.steps[2]),
                post=scn.post,
            )
            want = wl.weak_prediction(reduced, wl.MomentPattern([X, X])).value
            assert full == pytest.approx(want, abs=1e-12)

    def test_pure_postselected_pair_identity(self):
        # weak (x, x) = (Re[(BA)] + Re[A B*]) / 2 for pure pre/post states
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = wl.random_ket(rng, 2)
            phi = wl.random_ket(rng, 2)
            if abs(psi.amplitudes.conj() @ phi.amplitudes) < 1e-3:
                continue
            first = wl.random_observable(rng, 2)
            second = wl.random_observable(rng, 2)
            scn = wl.Scenario(
                initial=psi.to_density(),
                steps=(
                    wl.MeasurementStep(first, wl.GaussianPointer(3.0)),
                    wl.MeasurementStep(second, wl.GaussianPointer(4.0)),
                ),
                post=wl.PovmElement(np.outer(phi.amplitudes, phi.amplitudes.conj())),
            )
            got = wl.weak_prediction(scn, wl.MomentPattern([X, X])).value
            overlap = phi.amplitudes.conj() @ psi.amplitudes
            wv_seq = (phi.amplitudes.conj() @ second.matrix @ first.matrix @ psi.amplitudes) / overlap
            wv_a = (phi.amplitudes.conj() @ first.matrix @ psi.amplitudes) / overlap
            wv_b = (phi.amplitudes.conj() @ second.matrix @ psi.amplitudes) / overlap
            want = 0.5 * (wv_seq.real + (wv_a * wv_b.conjugate()).real)
            assert got == pytest.approx(want, abs=1e-12)

    def test_three_step_patterns_converge_with_postselection(self):
        # every x/p pattern, rescaled to O(1) by the momentum prefactors,
        # must match between engines once the pointers are wide
        rng = np.random.default_rng(77)
        sigma = 200.0
        for _ in range(10):
            steps = tuple(
                wl.MeasurementStep(random_unit_hermitian(rng, 2), wl.GaussianPointer(sigma))
                for _ in range(3)
            )
            ket = wl.random_ket(rng, 2)
            scn = wl.Scenario(
                initial=wl.random_density(rng, 2),
                steps=steps,
                post=wl.PovmElement(np.outer(ket.amplitudes, ket.amplitudes.conj())),
            )
            if wl.exact_moment(scn, wl.MomentPattern([X, X, X])).postselection_probability < 0.05:
                continue
            for kinds in itertools.product((X, P), repeat=3):
                pattern = wl.MomentPattern(kinds)
                rescale = np.prod([2.0 * sigma**2 for kind in kinds if kind is P])
                exact = wl.exact_moment(scn, pattern).value * rescale
                weak = wl.weak_prediction(scn, pattern).value * rescale
                assert exact == pytest.approx(weak, abs=5e-3)

    def test_recovery_identity_exercises_four_step_patterns(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            scn = random_scenario(rng, 2, 4, with_post=True, sigma_range=(1.0, 3.0))
            try:
                wv = wl.seq_weak_value(scn.initial, scn.post, scn.sequence()).value
            except ZeroPostSelectionProbability:
                continue
            got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
            assert got == pytest.approx(wv, abs=1e-10)

    def test_exact_converges_to_weak(self):
        rng = np.random.default_rng(8)
        pattern = wl.MomentPattern([X, X])
        checked = 0
        for _ in range(20):
            steps = tuple(
                wl.MeasurementStep(random_unit_hermitian(rng, 2), wl.GaussianPointer(5.0))
                for _ in range(2)
            )
            scn = wl.Scenario(initial=wl.random_density(rng, 2), steps=steps, post=None)
            errors = []
            for factor in (1.0, 2.0, 4.0):
                scaled = wl.Scenario(
                    initial=scn.initial,
                    steps=tuple(
                        wl.MeasurementStep(s.observable, wl.GaussianPointer(s.pointer.sigma * factor))
                        for s in scn.steps
                    ),
                    post=None,
                )
                errors.append(
                    abs(
                        wl.exact_moment(scaled, pattern).value
                        - wl.weak_prediction(scaled, pattern).value
                    )
                )
            if errors[0] < 1e-12:
                continue
            checked += 1
            assert errors[0] / max(errors[2], 1e-300) >= 8.0
        assert checked >= 10


class TestRecovery:
    def test_pauli_weak_source_is_exactly_i(self):
        scn = wl.build_pauli_xy(3.0, 1.0)
        got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
        assert got == pytest.approx(1.0j, abs=1e-14)

    def test_illustrative_exact_source_wide(self):
        scn = wl.build_illustrative(50.0, 50.0)
        got = wl.recover_weak_value(scn, wl.EvaluationMethod.EXACT)
        assert got == pytest.approx(-0.125 + 0.0j, abs=1e-3)

    def test_single_step_exact_is_expectation(self):
        rng = np.random.default_rng(9)
        for sigma in (0.1, 1.0, 25.0):
            rho = wl.random_density(rng, 3)
            obs = wl.random_observable(rng, 3)
            scn = wl.Scenario(
                initial=rho, steps=(wl.MeasurementStep(obs, wl.GaussianPointer(sigma)),)
            )
            got = wl.recover_weak_value(scn, wl.EvaluationMethod.EXACT)
            assert got == pytest.approx(
                complex(np.trace(obs.matrix @ rho.matrix).real), abs=1e-12
            )

    def test_weak_source_inverts_to_weak_value_with_post(self):
        rng = np.random.default_rng(10)
        count = 0
        for _ in range(25):
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, 2, n, with_post=True, sigma_range=(1.0, 4.0))
            try:
                wv = wl.seq_weak_value(scn.initial, scn.post, scn.sequence()).value
            except ZeroPostSelectionProbability:
                continue
            got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
            assert got == pytest.approx(wv, abs=1e-10)
            count += 1
        assert count >= 15

    def test_weak_source_inverts_without_post(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, 2, n, with_post=False)
            wv = wl.seq_weak_value(scn.initial, None, scn.sequence()).value
            got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
            assert got == pytest.approx(wv, abs=1e-10)


class TestWeakRegime:
    @pytest.mark.parametrize("sigma,outside", [(0.5, (0, 1)), (100.0, ())])
    def test_steps_outside_weak_regime(self, sigma, outside):
        assert wl.steps_outside_weak_regime(wl.build_illustrative(sigma, sigma)) == outside


class TestChainAgainstReferences:
    def test_weak_engine_matches_ordering_sum(self):
        rng = np.random.default_rng(30)
        checked = 0
        for index in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            scn = random_scenario(rng, d, n, with_post=index % 2 == 1)
            kinds = list(rng.choice([I, X, P], size=n))
            try:
                got = wl.weak_prediction(scn, wl.MomentPattern(kinds)).value
            except ZeroPostSelectionProbability:
                continue
            want = ordering_sum_weak(scn, wl.MomentPattern(kinds))
            assert abs(got - want) <= 1e-12 * max(abs(want), operator_scale(scn, kinds))
            checked += 1
        assert checked >= 180

    def test_recovery_matches_subset_sum(self):
        rng = np.random.default_rng(31)
        checked = 0
        for index in range(60):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            scn = random_scenario(rng, d, n, with_post=index % 2 == 1)
            try:
                exact_want = subset_sum_recovery(scn, lambda s, p: wl.exact_moment(s, p).value)
            except ZeroPostSelectionProbability:
                continue
            weak_want = subset_sum_recovery(scn, ordering_sum_weak)
            scale = operator_scale(scn, [X] * n)
            exact_got = wl.recover_weak_value(scn, wl.EvaluationMethod.EXACT)
            weak_got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
            assert abs(exact_got - exact_want) <= 1e-12 * max(abs(exact_want), scale)
            assert abs(weak_got - weak_want) <= 1e-12 * max(abs(weak_want), scale)
            checked += 1
        assert checked >= 50

    def test_weak_recovery_of_ten_step_chain(self):
        scn = wl.build_projector_chain(10, 100.0)
        got = wl.recover_weak_value(scn, wl.EvaluationMethod.WEAK_REGIME)
        want = wl.chain_weak_value(10)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_batched_chain_matches_serial(self):
        # One chain over a batch of scenarios against each engine run alone.
        rng = np.random.default_rng(32)
        for d, n, with_post in ((2, 2, False), (2, 5, True), (3, 3, True), (4, 4, False), (4, 5, True)):
            batch = [random_scenario(rng, d, n, with_post) for _ in range(5)]
            initial = np.stack([scn.initial.matrix for scn in batch])
            bases = [np.stack([scn.steps[j].observable.decomposition.eigenvectors for scn in batch]) for j in range(n)]
            post = np.stack([scn.post.matrix for scn in batch]) if with_post else None
            for letters, engine, exact in (("ixp", wl.weak_prediction, False), ("ixXpP", wl.exact_moment, True)):
                kinds = [PointerOperatorKind(code) for code in rng.choice(list(letters), size=n)]
                tables = [
                    np.stack([simulator._step_tables(scn.steps[j], (kind, I), exact) for scn in batch], axis=1)
                    for j, kind in enumerate(kinds)
                ]
                moments, probability = simulator._chain(initial, bases, tables, post).real
                for scn, moment, prob in zip(batch, moments, probability):
                    want = engine(scn, wl.MomentPattern(kinds))
                    assert abs(moment / prob - want.value) <= 1e-13 * max(1.0, abs(want.value))
                    assert abs(prob - want.postselection_probability) <= 1e-13


@st.composite
def random_cases(draw, with_post):
    """A scenario with d 2-4, n 1-4, widths log-uniform in [0.3, 300] and
    random states and observables, plus any i/x/X/p/P pattern. With
    ``with_post`` it may carry a full-rank effect whose largest eigenvalue is 1."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    pattern = wl.MomentPattern.from_string(draw(st.text("ixXpP", min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = np.exp(rng.uniform(math.log(0.3), math.log(300.0), size=n))
    steps = tuple(wl.MeasurementStep(wl.random_observable(rng, d), wl.GaussianPointer(float(w))) for w in widths)
    post = None
    if with_post and draw(st.booleans()):
        effect = wl.random_density(rng, d).matrix
        post = wl.PovmElement(effect / np.linalg.eigvalsh(effect).max())
    return wl.Scenario(wl.random_density(rng, d), steps, post), pattern


def term_scale(scn, pattern):
    """max(1, prod_j max|F_j|): the size of the chain's terms, which the
    engine's imaginary-residue check also uses."""
    scale = 1.0
    for step, kind in zip(scn.steps, pattern.kinds):
        a = step.observable.decomposition.eigenvalues
        scale *= np.abs(matrix_element(step.pointer, kind, a[np.newaxis, :], a[:, np.newaxis])).max()
    return max(1.0, scale)


class TestEngineProperties:
    @given(random_cases(with_post=False))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_identity_effect_is_no_postselection(self, case):
        scn, pattern = case
        plain = wl.exact_moment(scn, pattern)
        identity = wl.exact_moment(dataclasses.replace(scn, post=wl.PovmElement(np.eye(scn.dim))), pattern)
        # Cancellation can leave the value far below its terms, so the
        # difference is measured against the terms, not the value.
        assert abs(identity.value - plain.value) <= 1e-12 * term_scale(scn, pattern)
        assert abs(identity.postselection_probability - plain.postselection_probability) <= 1e-12

    @given(random_cases(with_post=True))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_imaginary_residue_stays_below_check(self, case):
        scn, pattern = case
        wl.exact_moment(scn, pattern)  # raises NumericError if the check trips


class TestNestedAnticommutator:
    """The weak-limit all-position moment without post-selection is
    2^(1-n) Tr[{A_1, {A_2, ..., {A_{n-1}, A_n}...}} rho]."""

    def test_pair_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            steps = [wl.MeasurementStep(wl.random_observable(rng, 3), wl.GaussianPointer(1.0)) for _ in range(2)]
            scn = wl.Scenario(wl.random_density(rng, 3), steps)
            got = wl.weak_prediction(scn, wl.MomentPattern.all_position(2)).value
            first, second = (step.observable.matrix for step in steps)
            want = np.trace(second @ first @ scn.initial.matrix).real
            assert got == pytest.approx(want, abs=1e-12)

    def test_illustrative_value(self):
        scn = wl.build_illustrative(1.0, 1.0)
        got = wl.weak_prediction(scn, wl.MomentPattern.all_position(2)).value
        assert got == pytest.approx(-0.125, abs=1e-14)

    def test_chain_three(self):
        scn = wl.build_projector_chain(3, 1.0)
        got = wl.weak_prediction(scn, wl.MomentPattern.all_position(3)).value
        assert got == pytest.approx(-0.125, abs=1e-14)


class TestSampler:
    def test_eigenstate_single_measurement(self):
        scn = wl.Scenario(
            initial=wl.KET_0.to_density(),
            steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(1.0)),),
        )
        samples, stats = wl.sample_outcomes(scn, 20000, seed=3)
        assert stats.retained_shots == 20000
        se = samples[:, 0].std(ddof=1) / math.sqrt(samples.shape[0])
        assert abs(samples[:, 0].mean() - 1.0) < 4.0 * se

    def test_illustrative_product_matches_exact(self):
        scn = wl.build_illustrative(5.0, 1.0)
        samples, stats = wl.sample_outcomes(scn, 30000, seed=7)
        product = samples[:, 0] * samples[:, 1]
        se = product.std(ddof=1) / math.sqrt(product.size)
        exact = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        assert abs(product.mean() - exact) < 4.0 * se
        assert 0.0 < stats.acceptance_rate <= 1.0

    def test_deterministic_stream(self):
        scn = wl.build_illustrative(2.0, 0.7)
        first, _ = wl.sample_outcomes(scn, 5000, seed=11)
        second, _ = wl.sample_outcomes(scn, 5000, seed=11)
        assert first.tobytes() == second.tobytes()
        third, _ = wl.sample_outcomes(scn, 5000, seed=12)
        assert first.tobytes() != third.tobytes()

    def test_postselection_retention(self):
        scn = wl.Scenario(
            initial=wl.KET_PLUS.to_density(),
            steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(3.0)),),
            post=wl.PovmElement(np.diag([1.0, 0.0])),
        )
        samples, stats = wl.sample_outcomes(scn, 40000, seed=5)
        assert stats.postselection_probability == pytest.approx(0.5, abs=1e-6)
        assert abs(stats.retained_shots - 20000) < 4.0 * math.sqrt(40000 * 0.25)
        assert samples.shape == (stats.retained_shots, 1)
        exact = wl.exact_moment(scn, wl.MomentPattern([X])).value
        se = samples[:, 0].std(ddof=1) / math.sqrt(samples.shape[0])
        assert abs(samples[:, 0].mean() - exact) < 4.0 * se

    def test_three_step_chain_sampling(self):
        scn = wl.build_projector_chain(3, 2.0)
        samples, _ = wl.sample_outcomes(scn, 30000, seed=9)
        product = samples.prod(axis=1)
        se = product.std(ddof=1) / math.sqrt(product.size)
        exact = wl.exact_moment(scn, wl.MomentPattern.all_position(3)).value
        assert abs(product.mean() - exact) < 4.0 * se

    def test_random_scenarios_match_exact(self):
        # Mixed states, d <= 4, n <= 4, half of them post-selected: every
        # position mean the sampler can show, and the retained count.
        rng = np.random.default_rng(20)
        shots = 20000
        checked = 0
        for trial in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 5))
            scn = random_scenario(rng, d, n, with_post=trial % 2 == 1)
            try:
                samples, stats = wl.sample_outcomes(scn, shots, seed=trial)
            except ZeroPostSelectionProbability:
                continue
            checked += 1
            p = stats.postselection_probability
            if scn.post is None:
                assert stats.retained_shots == shots
            else:
                assert abs(stats.retained_shots - shots * p) < 4.0 * math.sqrt(shots * p * (1.0 - p))
            readings = {"x" * n: samples.prod(axis=1), "X" + "i" * (n - 1): samples[:, 0] ** 2}
            for j in range(n):
                readings["i" * j + "x" + "i" * (n - j - 1)] = samples[:, j]
            for pattern, values in readings.items():
                exact = wl.exact_moment(scn, wl.MomentPattern.from_string(pattern)).value
                se = values.std(ddof=1) / math.sqrt(values.size)
                assert abs(values.mean() - exact) < 4.0 * se, (trial, pattern)
        assert checked >= 18

    def test_six_step_chain_sampling(self):
        scn = wl.build_projector_chain(6, 2.0)
        samples, _ = wl.sample_outcomes(scn, 20000, seed=13)
        product = samples.prod(axis=1)
        se = product.std(ddof=1) / math.sqrt(product.size)
        exact = wl.exact_moment(scn, wl.MomentPattern.all_position(6)).value
        assert abs(product.mean() - exact) < 4.0 * se

    def test_shots_over_memory_limit_raise_before_work(self, monkeypatch):
        scn = wl.build_illustrative(5.0, 1.0)

        def untouched(*args):
            raise AssertionError("sampler started work before checking its memory bound")

        monkeypatch.setattr(simulator, "_chain", untouched)
        shots = simulator.SAMPLE_MEMORY_LIMIT // ((scn.n_steps + 4 * scn.dim) * 8) + 1
        with pytest.raises(InputError, match="GiB"):
            wl.sample_outcomes(scn, shots, seed=1)

    def test_moment_reality_random(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            scn = random_scenario(rng, 2, int(rng.integers(1, 4)), with_post=bool(rng.integers(2)))
            try:
                result = wl.exact_moment(scn, wl.MomentPattern.all_position(scn.n_steps))
            except ZeroPostSelectionProbability:
                continue
            assert np.isfinite(result.value)


class TestProductVariance:
    def test_wide_pointer_asymptotics_without_post(self):
        # Var(x1 x2) from squared-position patterns approaches
        # s1^2 s2^2 + s1^2 <B^2> + s2^2 <A^2> as both widths grow.
        rng = np.random.default_rng(19)
        for _ in range(10):
            first = random_unit_hermitian(rng, 2)
            second = random_unit_hermitian(rng, 2)
            rho = wl.random_density(rng, 2)
            s1, s2 = 30.0, 45.0
            scn = wl.Scenario(
                initial=rho,
                steps=(
                    wl.MeasurementStep(first, wl.GaussianPointer(s1)),
                    wl.MeasurementStep(second, wl.GaussianPointer(s2)),
                ),
            )
            second_moment = wl.exact_moment(scn, wl.MomentPattern.from_string("XX")).value
            mean = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
            variance = second_moment - mean**2
            leading = (
                s1**2 * s2**2
                + s1**2 * np.trace(second.matrix @ second.matrix @ rho.matrix).real
                + s2**2 * np.trace(first.matrix @ first.matrix @ rho.matrix).real
            )
            # remaining terms are O(1) while the kept ones are O(sigma^2)
            assert variance == pytest.approx(leading, abs=10.0)
