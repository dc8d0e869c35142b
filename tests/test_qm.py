import numpy as np
import pytest

import weaklab as wl
from weaklab.errors import (
    DimensionMismatch,
    EmptyList,
    InputError,
    NonHermitianInput,
    UnnormalizedKet,
)


class TestStates:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(UnnormalizedKet):
            wl.PureState(np.array([1.0, 1.0]))

    def test_pure_state_min_dimension(self):
        with pytest.raises(DimensionMismatch):
            wl.PureState(np.array([1.0]))

    def test_density_must_be_psd(self):
        with pytest.raises(InputError):
            wl.MixedState(np.diag([1.5, -0.5]))

    def test_density_trace_one(self):
        with pytest.raises(InputError):
            wl.MixedState(np.diag([0.7, 0.7]))

    def test_to_density(self):
        rho = wl.KET_PLUS.to_density()
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_immutability(self):
        ket = wl.PureState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ket.amplitudes[0] = 2.0


class TestSpectralDecompose:
    def test_sigma_z(self):
        dec = wl.spectral_decompose(wl.SIGMA_Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        # ascending order puts |1> first
        assert np.allclose(np.abs(dec.eigenvectors[:, 0]), [0.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors[:, 1]), [1.0, 0.0])

    def test_plus_projector(self):
        proj = wl.projector_from_ket(wl.KET_PLUS)
        assert np.allclose(proj.decomposition.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        dec = wl.spectral_decompose(wl.Observable(np.diag([0.0, 3.0])))
        assert np.allclose(dec.eigenvalues, [0.0, 3.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            wl.Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 8):
            for _ in range(20):
                obs = wl.random_observable(rng, d)
                dec = obs.decomposition
                v = dec.eigenvectors
                assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - obs.matrix)) < 1e-10
                gram = dec.eigenvectors.conj().T @ dec.eigenvectors
                assert np.max(np.abs(gram - np.eye(d))) < 1e-10
                assert np.all(np.diff(dec.eigenvalues) >= -1e-12)

    def test_decomposition_cached(self):
        obs = wl.Observable(np.diag([1.0, 2.0]))
        assert obs.decomposition is obs.decomposition


class TestSpectralNorm:
    def test_projector(self):
        assert wl.spectral_norm(wl.projector_from_ket(wl.KET_PLUS)) == pytest.approx(1.0)

    def test_pauli(self):
        assert wl.spectral_norm(wl.SIGMA_X) == pytest.approx(1.0)

    def test_diagonal(self):
        assert wl.spectral_norm(wl.Observable(np.diag([-2.0, 3.0]))) == pytest.approx(3.0)

    def test_matches_singleton_hull(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            obs = wl.random_observable(rng, 4)
            lo, hi = wl.spectrum_hull([obs])
            assert wl.spectral_norm(obs) == pytest.approx(max(abs(lo), abs(hi)))


class TestSpectrumHull:
    def test_two_binary_projectors(self):
        proj_a = wl.projector_from_ket(wl.KET_0)
        proj_b = wl.projector_from_ket(wl.KET_PLUS)
        assert wl.spectrum_hull([proj_a, proj_b]) == pytest.approx((0.0, 1.0))

    def test_pauli_pair(self):
        assert wl.spectrum_hull([wl.SIGMA_X, wl.SIGMA_Y]) == pytest.approx((-1.0, 1.0))

    def test_singleton_is_spectrum_range(self):
        obs = wl.Observable(np.diag([-0.3, 0.1, 2.0]))
        assert wl.spectrum_hull([obs]) == pytest.approx((-0.3, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(EmptyList):
            wl.spectrum_hull([])

    def test_matches_exhaustive_products(self):
        rng = np.random.default_rng(11)
        import itertools

        for _ in range(20):
            observables = [wl.random_observable(rng, 3) for _ in range(3)]
            lo, hi = wl.spectrum_hull(observables)
            spectra = [obs.decomposition.eigenvalues for obs in observables]
            products = [np.prod(choice) for choice in itertools.product(*spectra)]
            assert lo == pytest.approx(min(products))
            assert hi == pytest.approx(max(products))


class TestProjectorFromKet:
    def test_ket_zero(self):
        assert np.allclose(wl.projector_from_ket(wl.KET_0).matrix, np.diag([1.0, 0.0]))

    def test_ket_plus(self):
        assert np.allclose(wl.projector_from_ket(wl.KET_PLUS).matrix, np.full((2, 2), 0.5))

    def test_tilted_state_corner_entry(self):
        # amplitudes (1/2, sqrt(3)/2): top-left entry is |1/2|^2 = 1/4
        ket = wl.PureState(np.array([0.5, np.sqrt(3.0) / 2.0]))
        assert wl.projector_from_ket(ket).matrix[0, 0] == pytest.approx(0.25)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 4):
            proj = wl.projector_from_ket(wl.random_ket(rng, d)).matrix
            assert np.max(np.abs(proj @ proj - proj)) < 1e-12


class TestCommutes:
    def test_disjoint_supports_commute(self):
        a = np.kron(wl.SIGMA_X.matrix, np.eye(2))
        b = np.kron(np.eye(2), wl.SIGMA_Y.matrix)
        assert np.linalg.norm(a @ b - b @ a, ord=2) <= 1e-12
