import math

import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import InvalidDimensions
from weaklab.optimize import SearchSpacePoint, decode_state, encode_state


class TestStateCoding:
    def test_roundtrip_up_to_global_phase(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4):
            for _ in range(20):
                vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                vec /= np.linalg.norm(vec)
                recovered = decode_state(encode_state(vec))
                assert abs(abs(vec.conj() @ recovered) - 1.0) < 1e-12

    def test_decoded_states_normalized(self):
        rng = np.random.default_rng(32)
        for d in (2, 3, 5):
            params = rng.uniform(-10.0, 10.0, size=2 * (d - 1))
            assert np.linalg.norm(decode_state(params)) == pytest.approx(1.0, abs=1e-12)

    def test_known_angles(self):
        amp = decode_state(np.array([math.pi / 3.0, 0.0]))
        assert np.allclose(amp, [0.5, math.sqrt(3.0) / 2.0])


def illustrative_point():
    return SearchSpacePoint(
        state_params=encode_state(np.array([1.0, 0.0])),
        projector_params=(
            encode_state(np.array([0.5, math.sqrt(3.0) / 2.0])),
            encode_state(np.array([0.5, -math.sqrt(3.0) / 2.0])),
        ),
    )


class TestPointerProductSearch:
    def test_two_measurements_reach_floor(self):
        result = wl.minimize_pointer_product(n=2, d=2, restarts=16, seed=7, budget=20000)
        assert result.best_value == pytest.approx(-0.125, abs=1e-6)
        assert result.best_value == min(value for _, value in result.trace)

    def test_start_from_known_optimum(self):
        result = wl.minimize_pointer_product(
            n=2, d=2, restarts=1, seed=0, budget=20000, initial_point=illustrative_point()
        )
        assert result.best_value == pytest.approx(-0.125, abs=1e-9)

    def test_never_below_conjectured_floor(self):
        for n in (2, 3):
            result = wl.minimize_pointer_product(n=n, d=2, restarts=8, seed=5, budget=8000)
            assert result.best_value >= -0.125 - 1e-9

    def test_best_point_reproduces_value(self):
        result = wl.minimize_pointer_product(n=2, d=2, restarts=8, seed=3, budget=10000)
        state, projectors = result.best_point.decode()
        check = wl.nested_anticommutator_value(
            state.to_density(), wl.MeasurementSequence(projectors)
        )
        assert check == pytest.approx(result.best_value, abs=1e-12)

    def test_determinism(self):
        first = wl.minimize_pointer_product(n=3, d=2, restarts=6, seed=11, budget=4000)
        second = wl.minimize_pointer_product(n=3, d=2, restarts=6, seed=11, budget=4000)
        assert first.best_value == second.best_value
        assert first.evaluations == second.evaluations
        assert first.trace == second.trace
        assert np.array_equal(first.best_point.flatten(), second.best_point.flatten())

    def test_finite_sigma_objective(self):
        result = wl.minimize_pointer_product(
            n=2, d=2, restarts=1, seed=0, budget=300, sigma=1.0, initial_point=illustrative_point()
        )
        # at sigma = 1 the landscape is the exact moment, whose value at the
        # starting point is the illustrative closed form
        assert result.best_value <= (1.0 - 3.0 * math.exp(-0.125)) / 16.0 + 1e-9

    def test_invalid_dimensions(self):
        with pytest.raises(InvalidDimensions):
            wl.minimize_pointer_product(n=1, d=2, restarts=4, seed=0, budget=100)
        with pytest.raises(InvalidDimensions):
            wl.minimize_pointer_product(n=2, d=1, restarts=4, seed=0, budget=100)
        with pytest.raises(InvalidDimensions):
            wl.minimize_pointer_product(n=2, d=2, restarts=0, seed=0, budget=100)
        with pytest.raises(InvalidDimensions):
            wl.minimize_pointer_product(n=2, d=2, restarts=1, seed=0, budget=0)


class TestWeakValueSearch:
    def test_two_measurements(self):
        result = wl.minimize_weak_value_real(n=2, d=2, restarts=16, seed=7, budget=20000)
        assert result.best_value == pytest.approx(-0.125, abs=1e-6)

    def test_chain_family_feasible(self):
        for n in (3, 6):
            result = wl.minimize_weak_value_real(
                n=n, d=2, restarts=4, seed=1, budget=20000, initial_point=wl.chain_point(n)
            )
            assert result.best_value <= wl.chain_weak_value(n) + 1e-6

    def test_respects_magnitude_bound(self):
        for n in (2, 4, 6):
            result = wl.minimize_weak_value_real(n=n, d=2, restarts=6, seed=9, budget=10000)
            assert result.best_value >= -1.0 - 1e-9

    def test_chain_point_decodes_to_chain(self):
        n = 4
        point = wl.chain_point(n)
        state, projectors = point.decode()
        scn = wl.build_projector_chain(n, 1.0)
        assert np.allclose(state.amplitudes, [1.0, 0.0])
        for built, expected in zip(projectors, scn.steps):
            assert np.allclose(built.matrix, expected.observable.matrix, atol=1e-12)
