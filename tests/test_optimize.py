import math

import numpy as np
import pytest

import weaklab as wl
from weaklab import optimize
from weaklab.errors import InputError, InvalidDimensions
from weaklab.optimize import SearchSpacePoint, decode_state


# One-point references for the batched objectives: each decodes one flat
# point and evaluates it alone, the finite-width one through a Scenario.
def decode_raw(flat, n, d):
    width = 2 * (d - 1)
    psi = decode_state(flat[:width])
    kets = [decode_state(flat[width * (j + 1) : width * (j + 2)]) for j in range(n)]
    return psi, kets


def pointer_product_reference(flat, n, d):
    """Weak-limit all-position moment: 2^(1-n) <psi|{A_1,{...,A_n}...}|psi>."""
    psi, kets = decode_raw(flat, n, d)
    nested = np.outer(kets[-1], kets[-1].conj())
    for ket in kets[-2::-1]:
        projected = np.outer(ket, ket.conj() @ nested)
        nested = projected + projected.conj().T
    return float(2.0 ** (1 - n) * (psi.conj() @ nested @ psi).real)


def weak_value_real_reference(flat, n, d):
    """Re <psi| A_n ... A_1 |psi> for rank-1 projectors."""
    psi, kets = decode_raw(flat, n, d)
    vec = psi
    for ket in kets:
        vec = ket * (ket.conj() @ vec)
    return float((psi.conj() @ vec).real)


def finite_sigma_reference(flat, n, d, sigma):
    state, projectors = SearchSpacePoint.from_flat(flat, n, d).decode()
    scn = wl.Scenario(
        initial=state.to_density(),
        steps=tuple(wl.MeasurementStep(proj, wl.GaussianPointer(sigma)) for proj in projectors),
    )
    return wl.exact_moment(scn, wl.MomentPattern.all_position(n)).value


class TestStateCoding:
    def test_decoded_states_normalized(self):
        rng = np.random.default_rng(32)
        for d in (2, 3, 5):
            params = rng.uniform(-10.0, 10.0, size=2 * (d - 1))
            assert np.linalg.norm(decode_state(params)) == pytest.approx(1.0, abs=1e-12)

    def test_known_angles(self):
        amp = decode_state(np.array([math.pi / 3.0, 0.0]))
        assert np.allclose(amp, [0.5, math.sqrt(3.0) / 2.0])

    def test_decodes_over_leading_axes(self):
        params = np.random.default_rng(33).uniform(-10.0, 10.0, size=(3, 4, 6))
        batched = decode_state(params)
        assert batched.shape == (3, 4, 4)
        for index in np.ndindex(3, 4):
            assert np.allclose(batched[index], decode_state(params[index]), rtol=0, atol=1e-15)


class TestBatchedObjectives:
    def test_match_one_point_references(self):
        rng = np.random.default_rng(34)
        for d in (2, 3, 4):
            for n in (2, 3, 4, 5):
                points = rng.uniform(0.0, 2.0 * math.pi, size=(6, 2 * (d - 1) * (n + 1)))
                sigma = float(np.exp(rng.uniform(math.log(0.5), math.log(5.0))))
                kinds = (wl.PointerOperatorKind.POSITION, wl.PointerOperatorKind.IDENTITY)
                tables = optimize._tables(np.eye(d)[-1], wl.GaussianPointer(sigma), kinds)[:, np.newaxis]
                pairs = (
                    (optimize._pointer_products(points, n, d), pointer_product_reference, ()),
                    (optimize._weak_value_reals(points, n, d), weak_value_real_reference, ()),
                    (optimize._finite_sigma_products(points, n, d, tables), finite_sigma_reference, (sigma,)),
                )
                for got, reference, extra in pairs:
                    want = [reference(flat, n, d, *extra) for flat in points]
                    assert np.abs(got - want).max() <= 1e-13

    def test_projector_bases_are_eigenbases(self):
        kets = decode_state(np.random.default_rng(35).uniform(0.0, 2.0 * math.pi, size=(5, 2, 6)))
        bases = optimize._projector_bases(kets)
        for ket, basis in zip(kets.reshape(-1, 4), bases.reshape(-1, 4, 4)):
            assert np.allclose(basis.conj().T @ basis, np.eye(4), atol=1e-14)
            assert abs(abs(basis[:, -1].conj() @ ket) - 1.0) <= 1e-14
            assert np.abs(basis[:, :-1].conj().T @ ket).max() <= 1e-14


class TestLockstepNelderMead:
    def test_convex_quadratic_reaches_minimum(self):
        rng = np.random.default_rng(36)
        centre = rng.uniform(-2.0, 2.0, size=6)
        curvature = rng.uniform(0.5, 4.0, size=6)
        starts = rng.uniform(-3.0, 3.0, size=(5, 6))
        starts[1, 2] = 0.0
        objective = lambda points: (curvature * (points - centre) ** 2).sum(axis=1)
        values, points, evaluations = optimize._nelder_mead(objective, starts, budget=20_000)
        assert np.abs(points - centre).max() <= optimize.SIMPLEX_DIAMETER_TOL
        assert values.max() <= 1e-18
        assert evaluations.max() < 20_000

    @pytest.mark.parametrize("budget", [1, 7, 8, 9, 10, 40, 97])
    def test_follows_scipy_rules(self, budget):
        # Short runs of scipy's Nelder-Mead on the same one-point objective
        # meet no value ties, so its unstable sort picks the same vertices
        # and both must agree exactly, shrinks cut by the budget included.
        minimize = pytest.importorskip("scipy.optimize").minimize
        starts = np.random.default_rng(37).uniform(0.0, 2.0 * math.pi, size=(4, 8))
        starts[1, 3] = 0.0  # a phase at 0: its simplex step is 0.00025
        objective = lambda flat: pointer_product_reference(flat, 3, 2)
        values, points, evaluations = optimize._nelder_mead(
            lambda batch: np.array([objective(flat) for flat in batch]), starts, budget
        )
        options = {"maxfev": budget, "xatol": optimize.SIMPLEX_DIAMETER_TOL, "fatol": optimize.VALUE_SPREAD_TOL}
        for start, value, point, count in zip(starts, values, points, evaluations):
            reference = minimize(objective, start, method="Nelder-Mead", options=options)
            assert (value, count) == (reference.fun, reference.nfev)
            assert np.array_equal(point, reference.x)

    @pytest.mark.parametrize("search", ["product", "weak-value", "finite-sigma"])
    def test_restart_ignores_its_neighbours(self, search):
        minimize = {
            "product": wl.minimize_pointer_product,
            "weak-value": wl.minimize_weak_value_real,
            "finite-sigma": lambda **kw: wl.minimize_pointer_product(sigma=1.5, **kw),
        }[search]
        few = minimize(n=3, d=2, restarts=4, seed=12, budget=600)
        many = minimize(n=3, d=2, restarts=7, seed=12, budget=600)
        assert few.trace == many.trace[:4]

    @pytest.mark.parametrize("budget", [1, 5, 8, 9, 10, 300])
    def test_evaluations_within_budget(self, budget):
        result = wl.minimize_pointer_product(n=3, d=2, restarts=5, seed=13, budget=budget)
        assert result.evaluations <= 5 * budget
        if budget == 1:
            assert result.evaluations == 5


def illustrative_point():
    """|0>, then the kets (1/2, sqrt(3)/2) and (1/2, -sqrt(3)/2)."""
    return SearchSpacePoint(
        state_params=np.array([0.0, 0.0]),
        projector_params=(np.array([math.pi / 3.0, 0.0]), np.array([math.pi / 3.0, math.pi])),
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
        steps = [wl.MeasurementStep(proj, wl.GaussianPointer(1.0)) for proj in projectors]
        scn = wl.Scenario(state.to_density(), steps)
        check = wl.weak_prediction(scn, wl.MomentPattern.all_position(2)).value
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

    def test_restarts_over_memory_limit_raise_before_work(self, monkeypatch):
        class Untouched:
            def __init__(self, *args):
                pass

            def spawn(self, count):
                raise AssertionError("search spawned seeds before checking its memory bound")

        monkeypatch.setattr(np.random, "SeedSequence", Untouched)
        with pytest.raises(AssertionError):
            wl.minimize_pointer_product(n=2, d=2, restarts=2, seed=0, budget=10)
        with pytest.raises(InputError, match="GiB"):
            wl.minimize_pointer_product(n=2, d=2, restarts=10**8, seed=0, budget=10)


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
