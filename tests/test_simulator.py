"""Simulator engines against independent oracles.

The exact engine is cross-checked by a literal double sum over
eigenindex tuples (built here from explicit eigenprojector products, a
different code path from the engine's sandwich transforms), the
weak-regime engine by directly transcribed two-measurement trace
formulas and by the operator-ordering sum, weak-value recovery by the
sum over momentum subsets, and the sampler by the exact engine itself.
"""

import dataclasses
import hashlib
import itertools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import kolmogi, ndtr

import weaklab as wl
from weaklab import errors, pointer, qm, simulator
from weaklab.errors import InputError, NumericError, ZeroPostSelectionProbability
from weaklab.pointer import PointerOperatorKind

from instances import (
    bits,
    chain_peak,
    matrix_element,
    random_density,
    random_ket,
    random_observable,
    random_scenario,
    spectral_norm,
)

X = PointerOperatorKind.POSITION
P = PointerOperatorKind.MOMENTUM
I = PointerOperatorKind.IDENTITY
KET_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
SIGMA_Z = np.diag([1.0, -1.0])
WIDEST = math.sqrt(sys.float_info.max)  # the widest pointer width accepted


def random_unit_hermitian(rng, d):
    """Random Hermitian rescaled so its spectrum sits in [-1, 1]."""
    obs = random_observable(rng, d)
    return obs / spectral_norm(obs)


def brute_force_moment(scn, pattern):
    """Literal double sum over eigenindex tuples, via projector products."""
    d = scn.dim
    n = scn.n_steps
    effect = np.eye(d, dtype=complex) if scn.post is None else scn.post
    eigenvalues, bases = scn.spectrum
    projectors = [[np.outer(vectors[:, k], vectors[:, k].conj()) for k in range(d)] for vectors in bases]

    def term(k_tuple, l_tuple, kinds):
        left = scn.initial
        for j, k in enumerate(k_tuple):
            left = projectors[j][k] @ left
        for j, l in enumerate(l_tuple):
            left = left @ projectors[j][l]
        weight = complex(np.trace(effect @ left))
        for j in range(n):
            weight *= matrix_element(
                scn.widths[j],
                kinds[j],
                eigenvalues[j][l_tuple[j]],
                eigenvalues[j][k_tuple[j]],
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
    effect = np.eye(scn.dim, dtype=complex) if scn.post is None else scn.post
    rho = scn.initial
    slots = []
    for observable, sigma, kind in zip(scn.observables, scn.widths.tolist(), pattern.kinds):
        if kind is I:
            continue
        if kind not in (X, P):
            raise ValueError(f"no first-order formula for {kind}")
        slots.append((observable, sigma, kind))
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
                weight *= 2j * scn.widths[j] ** 2
            total += weight
    return total


def operator_scale(scn, kinds):
    """Size of the terms a moment sums: prod ||A_j|| over read slots, with
    1/(2 sigma_j^2) per momentum slot, over Tr(E rho)."""
    effect = np.eye(scn.dim) if scn.post is None else scn.post
    scale = 1.0 / np.trace(effect @ scn.initial).real
    for observable, sigma, kind in zip(scn.observables, scn.widths.tolist(), kinds):
        if kind is not I:
            scale *= spectral_norm(observable)
            if kind is P:
                scale /= 2.0 * sigma**2
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
                initial=np.eye(3) / 3.0,
                steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(1.0)),),
            )

    @pytest.mark.parametrize("given", [{"observables": [SIGMA_Z]}, {"widths": [1.0]}])
    def test_steps_refused_beside_stacks(self, given):
        steps = (wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(1.0)),)
        with pytest.raises(InputError, match="give a scenario's steps or its observables and widths, not both"):
            wl.Scenario(wl.KET_0, steps=steps, **given)

    def test_scenario_needs_a_step(self):
        with pytest.raises(InputError, match="needs at least one measurement step"):
            wl.Scenario(wl.KET_0, [])

    def test_post_selection_dimension_check(self):
        scn = wl.build_illustrative(1.0, 1.0)
        with pytest.raises(wl.errors.DimensionMismatch, match="post-selection dimension 3 != state dimension 2"):
            wl.Scenario(scn.initial, scn.observables, scn.widths, np.eye(3))

    def test_stacks_become_frozen_arrays_and_kinds_tuples(self):
        scn = wl.build_illustrative(1.0, 1.0)
        replaced = dataclasses.replace(scn, observables=scn.observables.tolist(), widths=scn.widths.tolist())
        for got, want in ((replaced.observables, scn.observables), (replaced.widths, scn.widths)):
            assert type(got) is np.ndarray and not got.flags.writeable
            assert got.dtype == want.dtype and np.array_equal(got, want)
        kinds = [PointerOperatorKind.POSITION, PointerOperatorKind.MOMENTUM]
        assert wl.MomentPattern(iter(kinds)).kinds == tuple(kinds)
        assert wl.MomentPattern(kinds=kinds) == wl.MomentPattern(tuple(kinds))

    def test_pattern_takes_kinds_or_their_letters(self):
        pattern = wl.MomentPattern(["x", "p"])
        assert pattern == wl.MomentPattern.from_string("xp") == wl.MomentPattern([X, P])
        assert pattern.kinds == (X, P) and str(pattern) == "xp"
        scn = wl.build_illustrative(1.0, 1.0)
        assert wl.exact_moment(scn, wl.MomentPattern(["x", "x"])) == wl.exact_moment(scn, wl.MomentPattern([X, X]))

    @pytest.mark.parametrize(
        "build, shown, reason",
        [
            (lambda: wl.MomentPattern(["q"]), "['q']", "'q' is not a valid PointerOperatorKind"),
            (lambda: wl.MomentPattern.from_string("xq"), "'xq'", "'q' is not a valid PointerOperatorKind"),
            (lambda: wl.MomentPattern(None), "None", "'NoneType' object is not iterable"),
            (lambda: wl.MomentPattern(5), "5", "'int' object is not iterable"),
        ],
        ids=["constructor", "from-string", "none", "integer"],
    )
    def test_pattern_refuses_other_kinds_when_built(self, build, shown, reason):
        message = f"bad pattern {shown}: {reason}; use i/x/X/p/P"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            build()

    def test_pattern_length_check(self):
        scn = wl.build_illustrative(1.0, 1.0)
        with pytest.raises(InputError, match="pattern has 3 slots for 2 measurement steps"):
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
                    varied = dataclasses.replace(scn, widths=[*scn.widths[:-1], sigma_n])
                    got = wl.exact_moment(varied, wl.MomentPattern(kinds)).value
                    assert got == pytest.approx(base, abs=1e-12)

    def test_single_measurement_mean_is_expectation(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d)
            obs = random_observable(rng, d)
            sigma = float(rng.uniform(0.05, 50.0))
            scn = wl.Scenario(
                initial=rho,
                steps=(wl.MeasurementStep(obs, wl.GaussianPointer(sigma)),),
            )
            got = wl.exact_moment(scn, wl.MomentPattern([X])).value
            assert got == pytest.approx(np.trace(obs @ rho).real, abs=1e-12)

    def test_postselection_probability_reported(self):
        scn = wl.Scenario(
            initial=KET_PLUS,
            steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(100.0)),),
            post=np.diag([1.0, 0.0]),
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
        original = pointer._factor
        tampered = []

        def leaky(kind, s2, mean, gap):
            table = original(kind, s2, mean, gap)
            if kind is PointerOperatorKind.POSITION_SQUARED and not tampered:
                tampered.append(kind)
                return table + 1e-6j * np.abs(table).max()
            return table

        monkeypatch.setattr(pointer, "_factor", leaky)
        with pytest.raises(NumericError):
            wl.exact_moment(scn, wl.MomentPattern.from_string("XXX"))
        assert tampered

    @staticmethod
    def single_slot_oracle(scn):
        """The all-position moment, then each single-slot position moment,
        from one exact_moment call per pattern."""
        n = scn.n_steps
        patterns = [wl.MomentPattern.all_position(n)]
        patterns += [wl.MomentPattern(X if k == j else I for k in range(n)) for j in range(n)]
        return [wl.exact_moment(scn, pattern) for pattern in patterns]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_position_moments_match_single_moments(self, d):
        # The forward-backward pass against one exact_moment per slot: the
        # product and Tr(eta) ride the same [x, i] chain, so they match to
        # the last bit; the slots are a different contraction order.
        rng = np.random.default_rng(23 + d)
        checked = 0
        for trial in range(48):
            n = int(rng.integers(1, 9))
            scn = random_scenario(rng, d, n, with_post=trial % 2 == 1, sigma_range=(0.3, 300.0))
            if trial % 4 < 2:
                scn = dataclasses.replace(scn, initial=wl.projector_from_ket(random_ket(rng, d)))
            try:
                expected = self.single_slot_oracle(scn)
            except ZeroPostSelectionProbability:
                continue
            checked += 1
            got = wl.position_moments(scn)
            assert len(got) == n + 1
            assert got[0] == expected[0], trial
            for slot, (have, want) in enumerate(zip(got, expected)):
                assert have.postselection_probability == want.postselection_probability, (trial, slot)
                assert have.value == pytest.approx(want.value, rel=0, abs=1e-12), (trial, slot)
        assert checked >= 40

    def test_position_moments_match_on_a_long_chain(self):
        scn = wl.build_projector_chain(300, 0.7)
        got = wl.position_moments(scn)
        expected = self.single_slot_oracle(scn)
        assert got[0] == expected[0]
        for have, want in zip(got, expected):
            assert have.postselection_probability == want.postselection_probability
            assert have.value == pytest.approx(want.value, rel=0, abs=1e-12)

    def test_batched_residue_check_is_per_row(self, monkeypatch):
        # A zero observable on step 3 zeroes the product row, so only slot
        # 2's row carries the residue planted in step 2's x table, and it
        # must trip at that row's own scale, step 2's x peak / Tr(eta).
        rng = np.random.default_rng(21)
        scn = random_scenario(rng, 3, 3, with_post=False, sigma_range=(100.0, 100.0))
        observables = scn.observables.copy()
        observables[2] = 0.0
        scn = dataclasses.replace(scn, observables=observables)
        clean = wl.position_moments(scn)
        assert clean[0].value == 0.0
        eigenvalues = scn.spectrum[0][1]
        peak = np.abs(matrix_element(scn.widths[1], X, eigenvalues[np.newaxis, :], eigenvalues[:, np.newaxis])).max()
        original = pointer._factor

        def leaky(kind, s2, mean, gap):
            table = original(kind, s2, mean, gap)
            if kind is PointerOperatorKind.POSITION:
                # every step's x table, built in one broadcast: plant in step 2's
                table = table + 0j
                table[1] += 1e-6j * np.abs(table[1]).max()
            return table

        monkeypatch.setattr(pointer, "_factor", leaky)
        with pytest.raises(NumericError, match="at scale") as caught:
            wl.position_moments(scn)
        scale = float(str(caught.value).rsplit(" ", 1)[-1])
        assert scale == pytest.approx(max(1.0, peak / clean[0].postselection_probability), rel=1e-3)

    def test_position_moments_memory_is_linear_in_steps(self):
        # The pass keeps a few d x d arrays per step and nothing that grows
        # as n^2: at d = 2, 5 x the steps may cost at most 6 x the peak.
        peaks = {}
        for n in (800, 4000):
            scn = random_scenario(np.random.default_rng(n), 2, n, with_post=False, sigma_range=(5.0, 5.0))
            wl.position_moments(scn)  # the scenario's cached eigenbases stay out
            tracemalloc.start()
            try:
                wl.position_moments(scn)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 6 * peaks[800]

    def test_orthogonal_postselection_raises(self):
        scn = wl.Scenario(
            initial=wl.KET_0,
            steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(1.0)),),
            post=np.diag([0.0, 1.0]),
        )
        with pytest.raises(ZeroPostSelectionProbability):
            wl.exact_moment(scn, wl.MomentPattern([X]))
        with pytest.raises(ZeroPostSelectionProbability):
            wl.sample_outcomes(scn, 100, seed=1)


def two_step_weak_oracle(scn, kinds):
    """Direct transcription of the two-measurement weak-regime formulas."""
    a = scn.observables[0]
    b = scn.observables[1]
    s1 = scn.widths[0]
    s2 = scn.widths[1]
    rho = scn.initial
    effect = np.eye(scn.dim, dtype=complex) if scn.post is None else scn.post
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
        a1, a2, a3 = scn.observables
        rho = scn.initial
        want = 0.5 * (np.trace(a3 @ a2 @ a1 @ rho).real + np.trace(a2 @ a3 @ a1 @ rho).real)
        assert want == pytest.approx(-0.125, abs=1e-14)
        got = wl.weak_prediction(scn, wl.MomentPattern.all_position(3)).value
        assert got == pytest.approx(want, abs=1e-14)

    def test_rejects_squared_kinds(self):
        scn = wl.build_illustrative(1.0, 1.0)
        with pytest.raises(InputError, match="covers first-order x/p moments only"):
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
            reduced = wl.Scenario(scn.initial, scn.observables[[0, 2]], scn.widths[[0, 2]], scn.post)
            want = wl.weak_prediction(reduced, wl.MomentPattern([X, X])).value
            assert full == pytest.approx(want, abs=1e-12)

    def test_pure_postselected_pair_identity(self):
        # weak (x, x) = (Re[(BA)] + Re[A B*]) / 2 for pure pre/post states
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = random_ket(rng, 2)
            phi = random_ket(rng, 2)
            if abs(psi.conj() @ phi) < 1e-3:
                continue
            first = random_observable(rng, 2)
            second = random_observable(rng, 2)
            scn = wl.Scenario(
                initial=psi,
                steps=(
                    wl.MeasurementStep(first, wl.GaussianPointer(3.0)),
                    wl.MeasurementStep(second, wl.GaussianPointer(4.0)),
                ),
                post=np.outer(phi, phi.conj()),
            )
            got = wl.weak_prediction(scn, wl.MomentPattern([X, X])).value
            overlap = phi.conj() @ psi
            wv_seq = (phi.conj() @ second @ first @ psi) / overlap
            wv_a = (phi.conj() @ first @ psi) / overlap
            wv_b = (phi.conj() @ second @ psi) / overlap
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
            ket = random_ket(rng, 2)
            scn = wl.Scenario(
                initial=random_density(rng, 2),
                steps=steps,
                post=np.outer(ket, ket.conj()),
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
                wv = wl.seq_weak_value(scn)
            except ZeroPostSelectionProbability:
                continue
            _, (_, got) = wl.recover_weak_value(scn)
            assert got == pytest.approx(wv, abs=1e-10)

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        n=st.integers(1, 4),
        letters=st.lists(st.sampled_from("ixp"), min_size=4, max_size=4),
        with_post=st.booleans(),
    )
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_exact_converges_to_weak(self, seed, d, n, letters, with_post):
        # The exact engine's distance from the first-order one is O(1/sigma^2):
        # from pointers 40 x the unit spectra, four times wider pointers must
        # shrink it at least 8 x.
        rng = np.random.default_rng(seed)
        steps = tuple(wl.MeasurementStep(random_unit_hermitian(rng, d), wl.GaussianPointer(40.0)) for _ in range(n))
        post = qm.projectors_from_kets(random_ket(rng, d)) if with_post else None
        scn = wl.Scenario(initial=random_density(rng, d), steps=steps, post=post)
        pattern = wl.MomentPattern.from_string("".join(letters[:n]))
        gaps = []
        for factor in (1.0, 4.0):
            scaled = dataclasses.replace(scn, widths=[step.pointer.sigma * factor for step in steps])
            gaps.append(abs(wl.exact_moment(scaled, pattern).value - wl.weak_prediction(scaled, pattern).value))
        assume(gaps[0] > 1e-12)
        assert gaps[0] >= 8.0 * gaps[1], gaps

    def test_imaginary_residue_check_fires(self, monkeypatch):
        rng = np.random.default_rng(21)
        scn = random_scenario(rng, 3, 3, with_post=False, sigma_range=(100.0, 100.0))
        original = pointer._factor
        tampered = []

        def leaky(kind, s2, mean, gap):
            table = original(kind, s2, mean, gap)
            if kind is PointerOperatorKind.POSITION and not tampered:
                tampered.append(kind)
                return table + 1e-6j * np.abs(table).max()
            return table

        monkeypatch.setattr(pointer, "_factor", leaky)
        with pytest.raises(NumericError, match="at scale"):
            wl.weak_prediction(scn, wl.MomentPattern.from_string("xxx"))
        assert tampered


def separate_recovery(scn):
    """Both engines' recovered weak values as the sum over momentum subsets
    gives them: each step's x + 2i (sigma^2 p) table beside the identity, in
    a chain of their own, exact then weak on a leading axis. Its momentum
    table overflows at narrow widths, where it raises NumericError."""
    eigenvalues, bases = scn.spectrum
    with np.errstate(all="ignore"):
        tables = pointer._step_tables(eigenvalues, scn.widths, (X, P, I), "both")
        tables[:, :, 0] += 2j * (np.float_power(scn.widths, 2)[:, np.newaxis, np.newaxis] * tables[:, :, 1])
        traces, probability = simulator._chain(scn.initial, bases, tables[:, :, ::2], scn.post, scn.post_norm)
    return [complex(trace) / p for (trace,), p in zip(traces.tolist(), probability.tolist())]


def builtin_scenarios(sigma1, sigma2):
    shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    projector = wl.projector_from_ket(qm.KET_0)
    return [
        wl.build_illustrative(sigma1, sigma2),
        wl.build_pauli_xy(sigma1, sigma2),
        wl.build_projector_chain(3, sigma1),
        wl.build_common_cause(shared, projector, projector, sigma1, sigma2),
    ]


class TestRecovery:
    def test_pauli_weak_source_is_exactly_i(self):
        scn = wl.build_pauli_xy(3.0, 1.0)
        _, (_, got) = wl.recover_weak_value(scn)
        assert got == pytest.approx(1.0j, abs=1e-14)

    def test_illustrative_exact_source_wide(self):
        scn = wl.build_illustrative(50.0, 50.0)
        (_, got), _ = wl.recover_weak_value(scn)
        assert got == pytest.approx(-0.125 + 0.0j, abs=1e-3)

    def test_single_step_exact_is_expectation(self):
        rng = np.random.default_rng(9)
        for sigma in (0.1, 1.0, 25.0):
            rho = random_density(rng, 3)
            obs = random_observable(rng, 3)
            scn = wl.Scenario(
                initial=rho, steps=(wl.MeasurementStep(obs, wl.GaussianPointer(sigma)),)
            )
            (_, got), _ = wl.recover_weak_value(scn)
            assert got == pytest.approx(
                complex(np.trace(obs @ rho).real), abs=1e-12
            )

    def test_weak_source_inverts_to_weak_value_with_post(self):
        rng = np.random.default_rng(10)
        count = 0
        for _ in range(25):
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, 2, n, with_post=True, sigma_range=(1.0, 4.0))
            try:
                wv = wl.seq_weak_value(scn)
            except ZeroPostSelectionProbability:
                continue
            _, (_, got) = wl.recover_weak_value(scn)
            assert got == pytest.approx(wv, abs=1e-10)
            count += 1
        assert count >= 15

    @pytest.mark.parametrize("widths", [(1.0, 1.2e154), (1.2e154, 1.0)], ids=["last", "first"])
    def test_widths_whose_gain_overflows(self, widths):
        # At 1.2e154 the momentum-subset gain 2 sigma^2 overflows to inf; the
        # recovery row a_k ov reads no sigma^2, and ov is 1 from 1e153 on.
        narrower = [1e153 if sigma > 1.0 else sigma for sigma in widths]
        want = [value for _, value in wl.recover_weak_value(wl.build_illustrative(*narrower))]
        assert [value for _, value in wl.recover_weak_value(wl.build_illustrative(*widths))] == want

    @pytest.mark.parametrize("first", [1.2e154, WIDEST])
    @pytest.mark.parametrize("build,want", [(wl.build_illustrative, -0.125), (wl.build_pauli_xy, 1j)])
    def test_widest_first_pointer_recovers_the_weak_value(self, build, want, first):
        for _, got in wl.recover_weak_value(build(first, 1.0)):
            assert np.isfinite(got) and abs(got - want) <= 1e-15

    def test_one_pass_for_both_engines(self, monkeypatch):
        calls = []
        original = simulator._forward

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "_forward", counted)
        simulator.recover_weak_value(random_scenario(np.random.default_rng(12), 3, 4, with_post=True))
        assert len(calls) == 1

    def test_moments_and_weak_values_match_the_separate_engines(self):
        # Each engine's moment is exact_moment's or weak_prediction's of the
        # all-position pattern to the last bit, and its weak value the
        # momentum-subset chain's within 1e-13 at its terms' scale, the
        # eigenvalue peaks' product over Tr(eta); a scenario the engines
        # refuse, recovery refuses alike. Where that chain's momentum table
        # overflows, the recovery row, which reads none, stays finite.
        rng = np.random.default_rng(36)
        grid = ((0.3, 0.7), (1.0, 1.0), (50.0, 2.0), (1.2e154, 1e-150), (1e-160, 1.0))
        scenarios = [scn for widths in grid for scn in builtin_scenarios(*widths)]
        scenarios += [random_scenario(rng, int(rng.integers(2, 5)), int(rng.integers(1, 6)), index % 2 == 1)
                      for index in range(400)]
        checked = narrow = 0
        for scn in scenarios:
            pattern = wl.MomentPattern.all_position(scn.n_steps)
            try:
                exact, weak = wl.exact_moment(scn, pattern), wl.weak_prediction(scn, pattern)
            except errors.WeakLabError as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    wl.recover_weak_value(scn)
                continue
            (exact_got, from_exact), (weak_got, from_weak) = wl.recover_weak_value(scn)
            for got, want in ((exact_got, exact), (weak_got, weak)):
                assert bits(*dataclasses.astuple(got)) == bits(*dataclasses.astuple(want))
            try:
                reference = separate_recovery(scn)
            except NumericError:
                assert np.isfinite([from_exact, from_weak]).all()
                narrow += 1
                continue
            peak = np.abs(scn.spectrum[0]).max(axis=1).prod()
            for got, want, moment in zip((from_exact, from_weak), reference, (exact, weak)):
                assert abs(got - want) <= 1e-13 * max(1.0, peak / moment.postselection_probability)
            checked += 1
        assert checked >= 400 and narrow >= 4

    def test_weak_source_inverts_without_post(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            scn = random_scenario(rng, 2, n, with_post=False)
            wv = wl.seq_weak_value(scn)
            _, (_, got) = wl.recover_weak_value(scn)
            assert got == pytest.approx(wv, abs=1e-10)


def weak_regime_reference(scn):
    """The weak-regime rule one step at a time: step j is outside unless
    sigma_j >= 10 max|a_j| and sigma_j >= 10 |weak value|."""
    magnitude = abs(wl.seq_weak_value(scn))
    outside = []
    for index, (sigma, eigenvalues) in enumerate(zip(scn.widths.tolist(), scn.spectrum[0])):
        scale = max(abs(float(a)) for a in eigenvalues)
        if not (sigma >= 10.0 * scale and sigma >= 10.0 * magnitude):
            outside.append(index)
    return tuple(outside)


class TestWeakRegime:
    @pytest.mark.parametrize("sigma,outside", [(0.5, (0, 1)), (100.0, ())])
    def test_steps_outside_weak_regime(self, sigma, outside):
        assert wl.steps_outside_weak_regime(wl.build_illustrative(sigma, sigma)) == outside

    def test_narrow_pointer_fails(self):
        # |0, 1| eigenvalues and |weak value| 1/8: the bar is sigma = 10
        assert wl.steps_outside_weak_regime(wl.build_illustrative(1.0, 100.0)) == (0,)

    def test_boundary_inclusive(self):
        # eigenvalues +-1 and weak value i: the bar is sigma = 10 itself
        assert wl.steps_outside_weak_regime(wl.build_pauli_xy(10.0, 10.0)) == ()
        below = math.nextafter(10.0, 0.0)
        assert below == 9.999999999999998
        assert wl.steps_outside_weak_regime(wl.build_pauli_xy(below, below)) == (0, 1)

    @given(
        d=st.integers(2, 4),
        n=st.integers(1, 5),
        with_post=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        at_bar=st.lists(st.sampled_from(["drawn", "eigenvalue", "weak value"]), min_size=5, max_size=5),
    )
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_matches_a_per_step_loop(self, d, n, with_post, seed, at_bar):
        # Widths straddle the bar: log-uniform over it, or exactly on it.
        rng = np.random.default_rng(seed)
        scn = random_scenario(rng, d, n, with_post)
        magnitude = abs(wl.seq_weak_value(scn))
        scales = np.abs(scn.spectrum[0]).max(axis=1)
        bars = {"eigenvalue": 10.0 * scales, "weak value": np.full(n, 10.0 * magnitude)}
        drawn = np.exp(rng.uniform(math.log(1.0), math.log(1000.0), size=n))
        widths = [drawn[j] if at_bar[j] == "drawn" else bars[at_bar[j]][j] for j in range(n)]
        scn = dataclasses.replace(scn, widths=[float(w) for w in widths])
        assert wl.steps_outside_weak_regime(scn) == weak_regime_reference(scn)


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
            (_, exact_got), (_, weak_got) = wl.recover_weak_value(scn)
            assert abs(exact_got - exact_want) <= 1e-12 * max(abs(exact_want), scale)
            assert abs(weak_got - weak_want) <= 1e-12 * max(abs(weak_want), scale)
            checked += 1
        assert checked >= 50

    def test_weak_recovery_of_ten_step_chain(self):
        scn = wl.build_projector_chain(10, 100.0)
        _, (_, got) = wl.recover_weak_value(scn)
        want = wl.chain_weak_value(10)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestStackedChain:
    """``_chain`` with leading batch axes against one scenario at a time."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_exact_moments_match_one_at_a_time(self, d):
        # One batched eigh over the whole stack calls the same LAPACK routine
        # per matrix as one per scenario does, so the values agree to the last bit.
        rng = np.random.default_rng(40 + d)
        for n in range(1, 5):
            scenarios = [random_scenario(rng, d, n, with_post=False, sigma_range=(0.3, 30.0)) for _ in range(12)]
            pattern = wl.MomentPattern.from_string("".join(rng.choice(list("ixXpP"), size=n)))
            got = simulator.stacked_exact_moments(
                np.array([scn.initial for scn in scenarios]),
                np.array([scn.observables for scn in scenarios]),
                np.array([scn.widths for scn in scenarios]),
                pattern,
            )
            assert got.tolist() == [wl.exact_moment(scn, pattern).value for scn in scenarios]

    def test_batch_axes_broadcast(self):
        # A (3, 2) grid of step-2 widths against one shared scenario.
        rng = np.random.default_rng(44)
        scn = random_scenario(rng, 3, 3, with_post=True)
        pattern = wl.MomentPattern([X, P, X])
        widths = np.array([[0.4, 1.0], [2.5, 7.0], [30.0, 300.0]])
        grid = scn.widths * np.ones((3, 2, 1))
        grid[..., 1] = widths
        tables = simulator._pattern_tables(scn.spectrum[0], grid, pattern)
        traces, probability = simulator._chain(scn.initial, scn.spectrum[1], tables, scn.post, scn.post_norm)
        assert traces.shape == (3, 2, 1) and probability.shape == (3, 2)
        for (row, column), width in np.ndenumerate(widths):
            varied = scn.widths.copy()
            varied[1] = width
            one = wl.exact_moment(dataclasses.replace(scn, widths=varied), pattern)
            assert probability[row, column] == one.postselection_probability
            assert traces[row, column, 0].real / probability[row, column] == one.value

    def test_residue_raises_for_the_first_failing_entry(self):
        numerator = np.array([1.0, 1.0 + 2e-3j, 1.0 + 1e-3j, 1.0])
        with pytest.raises(NumericError, match=r"residue 2\.000e-03 at scale 1\.000e\+00"):
            simulator._values(numerator, 1.0, np.ones(4))

    def test_closing_checks_run_one_at_a_time(self):
        # Finiteness is checked over the whole stack before Tr(eta) is, so
        # entry 3's nan raises before entry 0's zero probability.
        traces = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 1.0], [math.nan, 1.0]], dtype=complex)
        with pytest.raises(NumericError, match="not finite"):
            simulator._checked(traces, 1.0)
        traces[3, 0] = 4.0
        with pytest.raises(ZeroPostSelectionProbability, match=r"^post-selection probability 0\.000e\+00"):
            simulator._checked(traces, 1.0)
        traces[0, 1] = 0.5
        numerators, probability = simulator._checked(traces, 1.0)
        assert numerators[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert probability.tolist() == [0.5, 1.0, 1.0, 1.0]


class TestSweepMoments:
    def test_one_point_at_each_step_matches_both_engines(self):
        # Swept at its own width, step j reads the backward pass's effect,
        # which carries the conjugates of the later tables: a p slot after j
        # has a complex one.
        rng = np.random.default_rng(5)
        for trial in range(40):
            d, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            scn = random_scenario(rng, d, n, with_post=trial % 2 == 1)
            pattern = wl.MomentPattern.from_string("".join(rng.choice(list("ixp"), size=n)))
            engines = ((wl.exact_moment, True), (wl.weak_prediction, False))
            for j in range(n):
                swept = simulator.sweep_moments(scn, pattern, j, scn.widths[j:j + 1])
                for got, (engine, exact) in zip(swept, engines):
                    want = engine(scn, pattern)
                    scale = max(1.0, chain_peak(scn, pattern, exact) / want.postselection_probability)
                    assert abs(got[0] - want.value) <= 1e-12 * scale, (trial, str(pattern), j, exact)


    def test_one_pass_pair_and_one_contraction_per_chunk(self, monkeypatch):
        # Both engines ride one forward and one backward pass, and each chunk
        # of the grid is one slot contraction, one closing check and one
        # residue check for both.
        scn = random_scenario(np.random.default_rng(9), 3, 4, with_post=True)
        calls = dict.fromkeys(("_forward", "_backward", "_slot", "_checked", "_values", "_moment"), 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(simulator, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(simulator, name, counted)
        grid = np.geomspace(0.5, 40.0, 2 * (simulator.SWEEP_CHUNK_ENTRIES // scn.dim**2) + 1)
        simulator.sweep_moments(scn, wl.MomentPattern.from_string("xpix"), 1, grid)
        assert calls == {"_forward": 1, "_backward": 1, "_slot": 3, "_checked": 3, "_values": 3, "_moment": 0}

    @pytest.mark.parametrize(
        "index,message",
        [(-1, "index must be at least 0, got -1"), (2, "index must be at most 1, got 2"),
         (5, "index must be at most 1, got 5"), (1.0, "index must be an integer, got 1.0")],
    )
    def test_step_index_out_of_range_is_refused_before_work(self, monkeypatch, index, message):
        def untouched(*args):
            raise AssertionError("sweep started work before checking its step index")

        monkeypatch.setattr(simulator, "_forward", untouched)
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            simulator.sweep_moments(wl.build_illustrative(1.0, 1.0), wl.MomentPattern.all_position(2), index, np.ones(3))

    @pytest.mark.parametrize("widths", [np.ones((2, 2)), np.ones((1, 3)), 1.0], ids=["2x2", "1x3", "scalar"])
    def test_widths_that_are_not_one_dimensional_are_refused_before_work(self, monkeypatch, widths):
        def untouched(*args):
            raise AssertionError("sweep started work before checking its widths")

        monkeypatch.setattr(simulator, "_forward", untouched)
        message = f"swept widths must be one-dimensional, got shape {np.shape(widths)}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            simulator.sweep_moments(wl.build_illustrative(1.0, 1.0), wl.MomentPattern.all_position(2), 0, widths)

    @pytest.mark.parametrize("widths", [["a"], [1 + 2j]], ids=["string", "complex"])
    def test_unreadable_widths_are_refused_before_work(self, monkeypatch, widths):
        def untouched(*args):
            raise AssertionError("sweep started work before reading its widths")

        monkeypatch.setattr(simulator, "_forward", untouched)
        with pytest.raises(InputError, match="^widths is not an array of float numbers: "):
            simulator.sweep_moments(wl.build_illustrative(1.0, 1.0), wl.MomentPattern.all_position(2), 0, widths)

    def test_a_list_of_widths_sweeps_as_its_array(self):
        scn, pattern = wl.build_illustrative(1.0, 1.0), wl.MomentPattern.from_string("xp")
        want = simulator.sweep_moments(scn, pattern, 0, np.array([1.0, 2.0, 3.0]))
        got = simulator.sweep_moments(scn, pattern, 0, [1.0, 2, 3.0])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_numpy_integer_index_sweeps_the_same_step(self):
        scn, pattern, widths = wl.build_illustrative(1.0, 1.0), wl.MomentPattern.from_string("xp"), np.geomspace(0.5, 5.0, 7)
        want = simulator.sweep_moments(scn, pattern, 1, widths)
        got = simulator.sweep_moments(scn, pattern, np.int64(1), widths)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@st.composite
def random_cases(draw, with_post):
    """A scenario with d 2-4, n 1-4, widths log-uniform in [0.3, 300] and
    random states and observables, plus any i/x/X/p/P pattern. With
    ``with_post`` it may carry a full-rank effect whose largest eigenvalue is 1."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    pattern = wl.MomentPattern.from_string(draw(st.text("ixXpP", min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = np.exp(rng.uniform(math.log(0.3), math.log(300.0), size=n))
    observables = [random_observable(rng, d) for _ in widths]
    post = None
    if with_post and draw(st.booleans()):
        effect = random_density(rng, d)
        post = effect / np.linalg.eigvalsh(effect).max()
    return wl.Scenario(random_density(rng, d), observables, widths, post), pattern


class TestEngineProperties:
    @given(random_cases(with_post=False))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_identity_effect_is_no_postselection(self, case):
        scn, pattern = case
        plain = wl.exact_moment(scn, pattern)
        identity = wl.exact_moment(dataclasses.replace(scn, post=np.eye(scn.dim)), pattern)
        # Cancellation can leave the value far below its terms, so the
        # difference is measured against the terms, not the value.
        assert abs(identity.value - plain.value) <= 1e-12 * max(1.0, chain_peak(scn, pattern, exact=True))
        assert abs(identity.postselection_probability - plain.postselection_probability) <= 1e-12

    @given(random_cases(with_post=True))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_imaginary_residue_stays_below_check(self, case):
        scn, pattern = case
        # each raises NumericError if the check trips; the weak engine reads
        # the pattern with its squared slots made first-order
        wl.exact_moment(scn, pattern)
        wl.weak_prediction(scn, wl.MomentPattern.from_string(str(pattern).lower()))


class TestNestedAnticommutator:
    """The weak-limit all-position moment without post-selection is
    2^(1-n) Tr[{A_1, {A_2, ..., {A_{n-1}, A_n}...}} rho]."""

    def test_pair_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            steps = [wl.MeasurementStep(random_observable(rng, 3), wl.GaussianPointer(1.0)) for _ in range(2)]
            scn = wl.Scenario(random_density(rng, 3), steps=steps)
            got = wl.weak_prediction(scn, wl.MomentPattern.all_position(2)).value
            first, second = (step.observable for step in steps)
            want = np.trace(second @ first @ scn.initial).real
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
            initial=wl.KET_0,
            steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(1.0)),),
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

    @pytest.mark.parametrize(
        "case,shots,seed,digest",
        [
            ("illustrative", 5000, 11, "5dea6c53a956fc90c90714686b163996a319164a538ef51f830516bfe0e30e88"),
            ("chain-5", 3000, 4, "ae5becb72e24628d997da2ca566b8244a0b3bbaf1fb1f6501c5fd103e3d5fbd2"),
            ("random-post", 4000, 5, "1253f57167fd81d8f2a5ed7daecba8eed5aa6c83b1117b3d0086c8c27cc1c3e0"),
            # Three shot blocks and a remainder each, at d = 2, 4 and 3.
            ("illustrative", 100_000, 21, "97ca514688cd5721e8e3a1c92dc4a5101010697e8c2ec54c526db4b0389322e5"),
            ("common-cause", 50_000, 22, "8ae4b7a7181b1a769d1d0016fb1e74ee5e52f5f218eac436174df48c2675aebf"),
            ("random-post", 70_000, 23, "6b2b8281962589c9aa722427d9db9de0de9d5b5fe7f4db93c44f1b5ddd7479db"),
        ],
    )
    def test_pinned_stream(self, case, shots, seed, digest):
        # A seed names one sample set for good: a rewrite of the sampler
        # must draw the same random numbers in the same order.
        shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        proj = wl.projector_from_ket(wl.KET_0)
        scn = {
            "illustrative": lambda: wl.build_illustrative(2.0, 0.7),
            "chain-5": lambda: wl.build_projector_chain(5, 1.0),
            "random-post": lambda: random_scenario(np.random.default_rng(30), 3, 2, with_post=True),
            "common-cause": lambda: wl.build_common_cause(shared, proj, proj, 1.5, 0.8),
        }[case]()
        size = simulator._block_shots(scn.dim)
        assert shots <= 5000 or (shots > 3 * size and shots % size)
        samples, _ = wl.sample_outcomes(scn, shots, seed=seed)
        assert hashlib.sha256(samples.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_scenario(np.random.default_rng(32), 3, 2, with_post=True),
            lambda: random_scenario(np.random.default_rng(33), 2, 3, with_post=False),
        ],
        ids=["random-post-d3-n2", "mixed-d2-n3"],
    )
    def test_stream_does_not_depend_on_block_size(self, build, monkeypatch):
        # Each block redraws its uniforms from its own offset into their
        # run, so any block size, one shot up to all of them, gives the same bits.
        scn = build()
        runs = []
        for entries in (1, 7, 4096, 2**15, 10**6):
            monkeypatch.setattr(simulator, "SAMPLE_BLOCK_ENTRIES", entries)
            samples, stats = wl.sample_outcomes(scn, 5001, seed=3)
            runs.append((samples.tobytes(), stats.retained_shots))
        assert len(set(runs)) == 1
        assert scn.post is None or 0 < runs[0][1] < 5001

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: wl.build_illustrative(1.0, 1.0),
            lambda: wl.build_illustrative(0.5, 0.7),
            lambda: wl.build_pauli_xy(1.0, 1.0),
            lambda: wl.build_projector_chain(3, 0.6),
        ],
        ids=["illustrative-1-1", "illustrative-0.5-0.7", "pauli-xy", "chain-3"],
    )
    def test_second_moments_match_exact(self, build, seed):
        # Readout noise has mean zero, so a slot whose noise is drawn at the
        # wrong scale keeps every mean; its squared readings see the scale.
        scn = build()
        n = scn.n_steps
        squares = wl.sample_outcomes(scn, 200_000, seed=seed)[0] ** 2
        readouts = [*squares.T, squares.prod(axis=1)]
        patterns = ["i" * j + "X" + "i" * (n - 1 - j) for j in range(n)] + ["X" * n]
        for readout, text in zip(readouts, patterns):
            exact = wl.exact_moment(scn, wl.MomentPattern.from_string(text)).value
            z = (readout.mean() - exact) / (readout.std(ddof=1) / math.sqrt(readout.size))
            assert abs(z) < 4.0, (text, z)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize(
        "build",
        [
            lambda: wl.build_illustrative(2.0, 0.7),
            lambda: wl.build_pauli_xy(1.0, 1.0),
            lambda: wl.build_projector_chain(5, 1.0),
            lambda: wl.Scenario([1, 0], [wl.SIGMA_Y, wl.SIGMA_X], [0.8, 1.3], post=[[1, 0], [0, 0]]),
        ],
        ids=["illustrative-2-0.7", "pauli-xy", "chain-5", "pauli-yx-post"],
    )
    def test_position_marginals_follow_the_exact_law(self, build, seed):
        # Slot j's exact CDF is P(x_j <= t) = Tr(E_j (F(t) o rho_j)) / Tr(eta),
        # F(t)[k, l] = ov_kl Phi((t - m_kl) / sigma_j) with m_kl = (a_k + a_l)/2,
        # between the identity-table passes, as position_moments contracts
        # slot j. The largest sqrt(m) D_KS of the k slots is held to the
        # family-wise 5% Kolmogorov quantile.
        scn = build()
        samples = wl.sample_outcomes(scn, 200_000, seed=seed)[0]
        eigenvalues, bases = scn.spectrum
        turns = simulator._turns(bases)
        tables = pointer._step_tables(eigenvalues, scn.widths, (I,))
        *states, after = simulator._forward(scn.initial, turns, tables)
        effects = list(simulator._backward(simulator._last_effect(bases, scn.post), turns, tables))[::-1]
        probability = simulator._close(after, bases, scn.post)[0].real
        bound = kolmogi(1 - 0.95 ** (1 / scn.n_steps))
        for j, (state, effect) in enumerate(zip(states, effects)):
            readings = np.sort(samples[:, j])[:, np.newaxis, np.newaxis]
            mean = 0.5 * (eigenvalues[j, :, np.newaxis] + eigenvalues[j, np.newaxis, :])
            table = tables[j, 0] * ndtr((readings - mean) / scn.widths[j])
            cdf = simulator._slot(effect[0], table, state[0]).real / probability
            m = len(cdf)
            distance = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
            assert math.sqrt(m) * distance < bound, (j, math.sqrt(m) * distance, bound)

    def test_postselection_retention(self):
        scn = wl.Scenario(
            initial=KET_PLUS,
            steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(3.0)),),
            post=np.diag([1.0, 0.0]),
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

    @staticmethod
    def wide_first_pointer(sigma1):
        """Illustrative's two projectors, then the first again, on |0>."""
        illustrative = wl.build_illustrative(1.0, 1.0)
        observables = [*illustrative.observables, illustrative.observables[0]]
        return wl.Scenario(illustrative.initial, observables, [sigma1, 0.5, 0.5])

    # From 1.3e154 on, a reading's unscaled distance to either eigenvalue
    # squares to inf for about a third of the shots; scaled first, it stays finite.
    @pytest.mark.parametrize("sigma1", [1e153, 1.3e154, WIDEST], ids=["1e153", "1.3e154", "widest"])
    def test_wide_first_pointer_matches_exact(self, sigma1):
        # Pointers 2 and 3; the wide first pointer's mean has no finite stderr.
        scn = self.wide_first_pointer(sigma1)
        samples, _ = wl.sample_outcomes(scn, 40000, seed=2)
        for j, moment in enumerate(wl.position_moments(scn)[2:], start=1):
            se = samples[:, j].std(ddof=1) / math.sqrt(len(samples))
            assert abs(samples[:, j].mean() - moment.value) < 5.0 * se

    def test_shots_over_memory_limit_raise_before_work(self, monkeypatch):
        scn = wl.build_illustrative(5.0, 1.0)

        def untouched(*args):
            raise AssertionError("sampler started work before checking its memory bound")

        monkeypatch.setattr(simulator, "_chain", untouched)
        # The smallest shot count past the limit: one block's work arrays
        # are a constant beside the per-shot bytes.
        block = simulator.sample_footprint(scn, 0)
        shots = (errors.MEMORY_LIMIT - block) // (simulator.sample_footprint(scn, 1) - block) + 1
        assert simulator.sample_footprint(scn, shots - 1) <= errors.MEMORY_LIMIT
        with pytest.raises(InputError, match="GiB"):
            wl.sample_outcomes(scn, shots, seed=1)

    def test_negative_seed_raises_input_error(self):
        with pytest.raises(InputError, match="^seed must be at least 0, got -1$"):
            wl.sample_outcomes(wl.build_illustrative(5.0, 1.0), 10, seed=-1)

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_counts_draw_the_python_ints_bits(self, integer):
        scn = wl.build_illustrative(5.0, 1.0)
        want, _ = wl.sample_outcomes(scn, 3, 7)
        got, _ = wl.sample_outcomes(scn, integer(3), integer(7))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "name,value", [("shots", 3.0), ("shots", True), ("shots", np.float64(3.0)), ("seed", 1.5), ("seed", np.True_)]
    )
    def test_counts_that_are_not_integers_are_refused(self, name, value):
        counts = {"shots": 3, "seed": 0} | {name: value}
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(InputError, match="^" + re.escape(message) + "$"):
            wl.sample_outcomes(wl.build_illustrative(5.0, 1.0), counts["shots"], counts["seed"])

    def test_no_post_selection_runs_no_identity_chain(self, monkeypatch):
        # Nothing is discarded, so Tr(eta) is 1 without a chain.
        def untouched(*args):
            raise AssertionError("sampler ran an identity chain without post-selection")

        monkeypatch.setattr(simulator, "_chain", untouched)
        scn = random_scenario(np.random.default_rng(31), 3, 2, with_post=False)
        samples, stats = wl.sample_outcomes(scn, 300, seed=6)
        assert (samples.shape, stats.postselection_probability) == ((300, 2), 1.0)

    def test_zero_probability_raises_before_draws(self, monkeypatch):
        def undrawn(*args):
            raise AssertionError("sampler drew shots for a zero post-selection probability")

        monkeypatch.setattr(np.random, "default_rng", undrawn)
        scn = wl.Scenario(qm.KET_0, [SIGMA_Z], [1.0], np.diag([0.0, 1.0]))
        with pytest.raises(ZeroPostSelectionProbability):
            wl.sample_outcomes(scn, 100, seed=1)

    def test_footprint_per_shot(self):
        # Only the readings span every shot, 8n bytes; post-selection adds
        # the kept mask and the retained copy. Kets and uniforms span a block.
        scn = wl.build_illustrative(1.0, 1.0)
        assert simulator.sample_footprint(scn, 2) - simulator.sample_footprint(scn, 1) == 16
        post = dataclasses.replace(scn, post=np.diag([1.0, 0.0]))
        assert simulator.sample_footprint(post, 2) - simulator.sample_footprint(post, 1) == 16 + 17

    @pytest.mark.parametrize(
        "d,n,with_post,shots",
        [(2, 2, False, 20000), (2, 6, True, 20000), (3, 4, False, 20000), (4, 2, True, 20000), (8, 3, False, 20000),
         (2, 3, True, 140_000), (2, 2, False, 100_000), (4, 2, True, 100_000), (16, 6, False, 6161),
         (32, 6, False, 3089)],
        ids=["2-2-False", "2-6-True", "3-4-False", "4-2-True", "8-3-False", "2-3-True-four-blocks",
             "2-2-False-seven-blocks", "4-2-True-thirteen-blocks", "16-6-False-four-blocks", "32-6-False-four-blocks"],
    )
    def test_peak_memory_within_footprint(self, d, n, with_post, shots):
        scn = random_scenario(np.random.default_rng(d * 10 + n), d, n, with_post=with_post)
        wl.sample_outcomes(scn, 10, seed=1)  # first-call set-up stays out of the measurement
        tracemalloc.start()
        try:
            wl.sample_outcomes(scn, shots, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= simulator.sample_footprint(scn, shots)

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
            rho = random_density(rng, 2)
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
                + s1**2 * np.trace(second @ second @ rho).real
                + s2**2 * np.trace(first @ first @ rho).real
            )
            # remaining terms are O(1) while the kept ones are O(sigma^2)
            assert variance == pytest.approx(leading, abs=10.0)


class TestProbabilityScale:
    """The post-selection refusal compares Tr(E eta) with the threshold
    times E's largest eigenvalue: an effect E = c I reads as no
    post-selection at any c, and an effect orthogonal to the state is still
    refused with the threshold's message."""

    @staticmethod
    def values(scn):
        pattern = wl.MomentPattern.all_position(scn.n_steps)
        (exact, from_exact), (weak, from_weak) = wl.recover_weak_value(scn)
        return [
            wl.exact_moment(scn, pattern).value,
            wl.weak_prediction(scn, pattern).value,
            *(moment.value for moment in wl.position_moments(scn)),
            exact.value,
            weak.value,
            from_exact,
            from_weak,
            wl.seq_weak_value(scn),
        ]

    @pytest.mark.parametrize("c", [1e-13, 1e-14, 1e-20])
    def test_scaled_identity_effect_reads_as_none(self, c):
        plain = wl.build_illustrative(100.0, 1.0)
        scaled = dataclasses.replace(plain, post=c * np.eye(2))
        assert (plain.post_norm, scaled.post_norm) == (1.0, c)
        for got, want in zip(self.values(scaled), self.values(plain), strict=True):
            unit = np.spacing(abs(want))
            assert abs(complex(got).real - complex(want).real) <= 4 * unit, (got, want)
            assert abs(complex(got).imag - complex(want).imag) <= 4 * unit, (got, want)

    def test_sampler_accepts_a_scaled_identity_effect(self):
        scn = dataclasses.replace(wl.build_illustrative(100.0, 1.0), post=1e-14 * np.eye(2))
        _, stats = wl.sample_outcomes(scn, 200, seed=1)
        assert stats.postselection_probability == wl.position_moments(scn)[0].postselection_probability

    def test_orthogonal_effect_is_refused(self):
        scn = wl.Scenario(qm.KET_0, [SIGMA_Z], [1.0], np.diag([0.0, 1.0]))
        message = "^" + re.escape("post-selection probability 0.000e+00 is at or below 1e-14") + "$"
        for engine in (
            lambda: wl.exact_moment(scn, wl.MomentPattern.from_string("x")),
            lambda: wl.recover_weak_value(scn),
            lambda: wl.seq_weak_value(scn),
            lambda: wl.sample_outcomes(scn, 10, seed=0),
        ):
            with pytest.raises(ZeroPostSelectionProbability, match=message):
                engine()
