import math

import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import DimensionMismatch, InputError
from weaklab.scenarios import (
    illustrative_joint_position_moment,
    illustrative_second_pointer_mean,
)


class TestIllustrative:
    def test_step_states(self):
        scn = wl.build_illustrative(1.0, 1.0)
        root3_half = math.sqrt(3.0) / 2.0
        psi_1 = np.array([0.5, root3_half])
        psi_2 = np.array([0.5, -root3_half])
        assert np.allclose(scn.steps[0].observable.matrix, np.outer(psi_1, psi_1))
        assert np.allclose(scn.steps[1].observable.matrix, np.outer(psi_2, psi_2))
        assert np.allclose(scn.initial.matrix, np.diag([1.0, 0.0]))
        assert scn.post is None

    def test_closed_forms_across_widths(self):
        pattern = wl.MomentPattern.from_string("xx")
        for sigma1 in np.geomspace(0.05, 100.0, 20):
            scn = wl.build_illustrative(float(sigma1), 1.0)
            got = wl.exact_moment(scn, pattern).value
            want = illustrative_joint_position_moment(float(sigma1))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            got_x2 = wl.exact_moment(scn, wl.MomentPattern.from_string("ix")).value
            assert got_x2 == pytest.approx(illustrative_second_pointer_mean(float(sigma1)), rel=1e-12)

    def test_strong_limit(self):
        scn = wl.build_illustrative(0.05, 1.0)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        assert got == pytest.approx(1.0 / 16.0, abs=1e-3)

    def test_weak_limit(self):
        scn = wl.build_illustrative(100.0, 1.0)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        assert got == pytest.approx(-0.125, abs=5e-4)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InputError):
            wl.build_illustrative(-1.0, 1.0)


class TestPauliXY:
    def test_weak_value(self):
        scn = wl.build_pauli_xy(1.0, 1.0)
        wv = wl.seq_weak_value(scn.initial, None, scn.sequence())
        assert wv.value == pytest.approx(1.0j, abs=1e-15)

    def test_momentum_position_moment(self):
        scn = wl.build_pauli_xy(4.0, 2.0)
        got = wl.weak_prediction(scn, wl.MomentPattern.from_string("px")).value
        assert got == pytest.approx(1.0 / 32.0, abs=1e-14)

    def test_position_position_vanishes(self):
        scn = wl.build_pauli_xy(4.0, 2.0)
        got = wl.weak_prediction(scn, wl.MomentPattern.from_string("xx")).value
        assert got == pytest.approx(0.0, abs=1e-14)


class TestProjectorChain:
    def test_two_step_value(self):
        scn = wl.build_projector_chain(2, 1.0)
        wv = wl.seq_weak_value(scn.initial, None, scn.sequence())
        assert wv.value == pytest.approx(-0.125, abs=1e-14)

    def test_four_step_value(self):
        scn = wl.build_projector_chain(4, 1.0)
        wv = wl.seq_weak_value(scn.initial, None, scn.sequence())
        assert wv.value == pytest.approx(-(math.cos(math.pi / 5.0) ** 5), abs=1e-14)
        assert wl.chain_weak_value(4) == pytest.approx(-(math.cos(math.pi / 5.0) ** 5))

    def test_monotone_approach_to_minus_one(self):
        values = [wl.chain_weak_value(n) for n in range(2, 30)]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] > -1.0
        assert wl.chain_weak_value(4000) == pytest.approx(-1.0, abs=2e-3)

    def test_rejects_bad_length(self):
        with pytest.raises(InputError):
            wl.build_projector_chain(0, 1.0)


class TestCommonCause:
    def test_product_state_aligned_projectors(self):
        shared = wl.PureState(np.kron(wl.KET_0.amplitudes, wl.KET_0.amplitudes))
        proj = wl.projector_from_ket(wl.KET_0)
        scn = wl.build_common_cause(shared, proj, proj, 1.0, 1.0)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_half(self):
        shared = wl.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        proj = wl.projector_from_ket(wl.KET_0)
        scn = wl.build_common_cause(shared, proj, proj, 2.0, 0.5)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        # direct arithmetic: <psi| P0 (x) P0 |psi> = |<00|psi>|^2 = 1/2
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_moment_is_joint_expectation(self):
        rng = np.random.default_rng(23)
        pattern = wl.MomentPattern.from_string("xx")
        for _ in range(25):
            shared = wl.random_ket(rng, 4)
            first = wl.projector_from_ket(wl.random_ket(rng, 2))
            second = wl.projector_from_ket(wl.random_ket(rng, 2))
            scn = wl.build_common_cause(
                shared, first, second, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))
            )
            got = wl.exact_moment(scn, pattern).value
            joint = np.kron(first.matrix, second.matrix)
            want = (shared.amplitudes.conj() @ joint @ shared.amplitudes).real
            assert got == pytest.approx(want, abs=1e-12)
            assert -1e-12 <= got <= 1.0 + 1e-12

    def test_lifted_observables_commute(self):
        shared = wl.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
        scn = wl.build_common_cause(
            shared, wl.SIGMA_X, wl.SIGMA_Y, 1.0, 1.0
        )
        a, b = scn.steps[0].observable.matrix, scn.steps[1].observable.matrix
        assert np.linalg.norm(a @ b - b @ a, ord=2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wl.build_common_cause(wl.KET_0, wl.SIGMA_X, wl.SIGMA_Y, 1.0, 1.0)


class TestCausalWitness:
    def test_anomalous_moment_witnesses(self):
        assert wl.causal_witness(-0.125, (0.0, 1.0), 0.01) is wl.CausalStructure.DIRECT_CAUSE_WITNESSED

    def test_in_hull_inconclusive(self):
        assert wl.causal_witness(0.5, (0.0, 1.0), 0.0) is wl.CausalStructure.INCONCLUSIVE

    def test_margin_absorbs_noise(self):
        assert wl.causal_witness(-0.005, (0.0, 1.0), 0.01) is wl.CausalStructure.INCONCLUSIVE

    def test_negative_margin_rejected(self):
        with pytest.raises(InputError):
            wl.causal_witness(0.0, (0.0, 1.0), -0.1)

    def test_never_witnesses_common_cause(self):
        rng = np.random.default_rng(29)
        pattern = wl.MomentPattern.from_string("xx")
        for _ in range(50):
            shared = wl.random_ket(rng, 4)
            scn = wl.build_common_cause(
                shared,
                wl.projector_from_ket(wl.random_ket(rng, 2)),
                wl.projector_from_ket(wl.random_ket(rng, 2)),
                1.0,
                1.0,
            )
            moment = wl.exact_moment(scn, pattern).value
            assert wl.causal_witness(moment, (0.0, 1.0), 1e-9) is wl.CausalStructure.INCONCLUSIVE

    def test_witnesses_illustrative_direct_cause(self):
        scn = wl.build_illustrative(100.0, 1.0)
        moment = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        hull = wl.spectrum_hull([step.observable for step in scn.steps])
        assert wl.causal_witness(moment, hull, 0.01) is wl.CausalStructure.DIRECT_CAUSE_WITNESSED
