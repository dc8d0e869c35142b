"""Per-instance random states and observables, and an eigh-based norm
product. The package builds these as stacks for its bound suites; the
tests keep the one-at-a-time forms as oracles and as instance makers."""

import numpy as np

import weaklab as wl


def random_density(rng, d):
    """Density matrix G G* / Tr(G G*) with G complex Ginibre."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = raw @ raw.conj().T
    return wl.MixedState(mat / mat.trace().real)


def random_observable(rng, d):
    """Hermitian part of a complex Ginibre matrix."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return wl.Observable((raw + raw.conj().T) / 2.0)


def spectral_norm(obs):
    """Largest absolute eigenvalue."""
    return float(np.max(np.abs(obs.decomposition.eigenvalues)))


def norm_product_bound(seq):
    """Product of spectral norms of a MeasurementSequence."""
    bound = 1.0
    for obs in seq.observables:
        bound *= spectral_norm(obs)
    return bound
