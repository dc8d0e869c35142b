import math

import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import DimensionMismatch, InputError

from instances import random_ket


def illustrative_joint_position_moment(sigma1):
    """Closed form (1 - 3 exp(-1/(8 sigma1^2))) / 16 of the illustrative xx moment."""
    return (1.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 16.0


def illustrative_second_pointer_mean(sigma1):
    """Closed form (5 - 3 exp(-1/(8 sigma1^2))) / 8 of the illustrative ix moment."""
    return (5.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 8.0


class TestIllustrative:
    def test_step_states(self):
        scn = wl.build_illustrative(1.0, 1.0)
        root3_half = math.sqrt(3.0) / 2.0
        psi_1 = np.array([0.5, root3_half])
        psi_2 = np.array([0.5, -root3_half])
        assert np.allclose(scn.observables[0], np.outer(psi_1, psi_1))
        assert np.allclose(scn.observables[1], np.outer(psi_2, psi_2))
        assert np.allclose(scn.initial, np.diag([1.0, 0.0]))
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
        wv = wl.seq_weak_value(scn)
        assert wv == pytest.approx(1.0j, abs=1e-15)

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
        wv = wl.seq_weak_value(scn)
        assert wv == pytest.approx(-0.125, abs=1e-14)

    def test_four_step_value(self):
        scn = wl.build_projector_chain(4, 1.0)
        wv = wl.seq_weak_value(scn)
        assert wv == pytest.approx(-(math.cos(math.pi / 5.0) ** 5), abs=1e-14)
        assert wl.chain_weak_value(4) == pytest.approx(-(math.cos(math.pi / 5.0) ** 5))

    def test_monotone_approach_to_minus_one(self):
        values = [wl.chain_weak_value(n) for n in range(2, 30)]
        assert all(later < earlier for earlier, later in zip(values, values[1:]))
        assert values[-1] > -1.0
        assert wl.chain_weak_value(4000) == pytest.approx(-1.0, abs=2e-3)

    def test_kets_sit_at_the_chain_angles(self):
        n = 4
        scn = wl.build_projector_chain(n, 1.0)
        assert np.array_equal(scn.initial, np.diag([1.0, 0.0]))
        for j, observable in enumerate(scn.observables, 1):
            angle = j * math.pi / (n + 1)
            ket = np.array([math.cos(angle), math.sin(angle)])
            assert np.array_equal(observable, np.outer(ket, ket))

    def test_rejects_bad_length(self):
        with pytest.raises(InputError):
            wl.build_projector_chain(0, 1.0)

    def test_length_must_be_an_integer(self):
        with pytest.raises(InputError, match=r"^n must be an integer, got 2\.5$"):
            wl.build_projector_chain(2.5, 1.0)
        with pytest.raises(InputError, match="^n must be an integer, got True$"):
            wl.build_projector_chain(True, 1.0)
        assert np.array_equal(wl.build_projector_chain(np.int64(3), 1.0).observables, wl.build_projector_chain(3, 1.0).observables)


class TestCommonCause:
    def test_product_state_aligned_projectors(self):
        shared = np.kron(wl.KET_0, wl.KET_0)
        proj = wl.projector_from_ket(wl.KET_0)
        scn = wl.build_common_cause(shared, proj, proj, 1.0, 1.0)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_maximally_entangled_half(self):
        shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        proj = wl.projector_from_ket(wl.KET_0)
        scn = wl.build_common_cause(shared, proj, proj, 2.0, 0.5)
        got = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        # direct arithmetic: <psi| P0 (x) P0 |psi> = |<00|psi>|^2 = 1/2
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_moment_is_joint_expectation(self):
        rng = np.random.default_rng(23)
        pattern = wl.MomentPattern.from_string("xx")
        for _ in range(25):
            shared = random_ket(rng, 4)
            first = wl.projector_from_ket(random_ket(rng, 2))
            second = wl.projector_from_ket(random_ket(rng, 2))
            scn = wl.build_common_cause(
                shared, first, second, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))
            )
            got = wl.exact_moment(scn, pattern).value
            joint = np.kron(first, second)
            want = (shared.conj() @ joint @ shared).real
            assert got == pytest.approx(want, abs=1e-12)
            assert -1e-12 <= got <= 1.0 + 1e-12

    def test_lifted_observables_commute(self):
        shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        scn = wl.build_common_cause(
            shared, wl.SIGMA_X, wl.SIGMA_Y, 1.0, 1.0
        )
        a, b = scn.observables[0], scn.observables[1]
        assert np.linalg.norm(a @ b - b @ a, ord=2) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"are not \(n, 2, 2\) and \(n,\) for state dimension 2"):
            wl.build_common_cause(wl.KET_0, wl.SIGMA_X, wl.SIGMA_Y, 1.0, 1.0)

    def test_a_shared_density_matrix_serves_as_well(self):
        shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        proj = wl.projector_from_ket(wl.KET_0)
        from_ket = wl.build_common_cause(shared, proj, proj, 2.0, 0.5)
        from_density = wl.build_common_cause(np.outer(shared, shared), proj, proj, 2.0, 0.5)
        assert np.array_equal(from_ket.initial, from_density.initial)


class TestCausalWitness:
    def test_anomalous_moment_witnesses(self):
        assert wl.causal_witness(-0.125, (0.0, 1.0), 0.01) is wl.CausalStructure.DIRECT_CAUSE_WITNESSED

    def test_in_hull_inconclusive(self):
        assert wl.causal_witness(0.5, (0.0, 1.0), 0.0) is wl.CausalStructure.INCONCLUSIVE

    def test_margin_absorbs_noise(self):
        assert wl.causal_witness(-0.005, (0.0, 1.0), 0.01) is wl.CausalStructure.INCONCLUSIVE

    @pytest.mark.parametrize(
        "moment, hull, margin",
        [
            (0.0, (0.0, 1.0), -0.1),
            (-0.5, (0.0, 1.0), math.nan),
            (math.nan, (0.0, 1.0), 0.0),
            (-math.inf, (0.0, 1.0), 0.0),
            (0.5, (math.nan, 1.0), 0.0),
            (0.5, (0.0, math.inf), 0.0),
            (0.5, (1.0, 0.0), 0.0),
        ],
        ids=["negative-margin", "nan-margin", "nan-moment", "inf-moment", "nan-hull", "inf-hull", "reversed-hull"],
    )
    def test_negative_margin_rejected(self, moment, hull, margin):
        # Each would otherwise read INCONCLUSIVE, or witness an empty hull.
        with pytest.raises(InputError):
            wl.causal_witness(moment, hull, margin)

    def test_never_witnesses_common_cause(self):
        rng = np.random.default_rng(29)
        pattern = wl.MomentPattern.from_string("xx")
        for _ in range(50):
            shared = random_ket(rng, 4)
            scn = wl.build_common_cause(
                shared,
                wl.projector_from_ket(random_ket(rng, 2)),
                wl.projector_from_ket(random_ket(rng, 2)),
                1.0,
                1.0,
            )
            moment = wl.exact_moment(scn, pattern).value
            assert wl.causal_witness(moment, (0.0, 1.0), 1e-9) is wl.CausalStructure.INCONCLUSIVE

    @staticmethod
    def fixed_point():
        """Two real rank-1 projectors, at 58.2 and 116.5 degrees from |0>,
        measured on |0> without post-selection at widths 0.81 and 8e-9,
        with its <x1 x2> and <x1^2 x2^2>."""
        def projector(degrees):
            angle = math.radians(degrees)
            return wl.projector_from_ket(np.array([math.cos(angle), math.sin(angle)]))

        scn = wl.Scenario(wl.KET_0, np.array([projector(58.2), projector(116.5)]), np.array([0.81, 8e-9]))
        xx, XX = (wl.exact_moment(scn, wl.MomentPattern.from_string(letters)).value for letters in ("xx", "XX"))
        return scn, xx, XX

    def test_fewest_shots_at_the_fixed_point(self):
        # The witness needs N = 9 Var(x1 x2) / <x1 x2>^2 shots for the mean
        # of x1 x2 to sit three standard errors below the hull. Near its
        # least over two real projectors measured on |0> without
        # post-selection, N is 185.0928: a fact about this scenario, pinned
        # without a search.
        _, xx, XX = self.fixed_point()
        assert xx == pytest.approx(-0.0888190, rel=1e-6)
        assert XX == pytest.approx(0.1701291, rel=1e-6)
        assert 9.0 * (XX - xx**2) / xx**2 == pytest.approx(185.0928, rel=1e-6)

    def test_witness_rate_at_the_fewest_shots(self):
        # At N = 186 shots, the fewest above 185.0928, the sampled mean of
        # x1 x2 falls below the hull (margin 0) at the normal approximation's
        # rate Phi(-<x1 x2> / sqrt(Var(x1 x2) / N)), about 0.9987, within 4
        # binomial standard errors over 4,000 seeds. At N = 40 the skew of
        # x1 x2 already moves the rate z = +2.3 off that approximation.
        scn, xx, XX = self.fixed_point()
        shots, seeds = 186, 4000
        predicted = 0.5 * math.erfc(xx / math.sqrt(2.0 * (XX - xx**2) / shots))
        witnessed = 0
        for seed in range(seeds):
            samples, _ = wl.sample_outcomes(scn, shots, seed)
            verdict = wl.causal_witness(float(samples.prod(axis=1).mean()), (0.0, 1.0), 0.0)
            witnessed += verdict is wl.CausalStructure.DIRECT_CAUSE_WITNESSED
        z = (witnessed / seeds - predicted) / math.sqrt(predicted * (1.0 - predicted) / seeds)
        assert abs(z) < 4.0

    def test_witnesses_illustrative_direct_cause(self):
        scn = wl.build_illustrative(100.0, 1.0)
        moment = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
        hull = (0.0, 1.0)  # products of the projectors' eigenvalues 0 and 1
        assert wl.causal_witness(moment, hull, 0.01) is wl.CausalStructure.DIRECT_CAUSE_WITNESSED
