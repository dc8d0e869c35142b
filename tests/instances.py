"""Per-instance random kets, density matrices and observables (arrays), a
unit-width scenario, a random scenario, bitwise comparison, a plain-loop
ordered trace, an eigh-based norm product, the pointer's closed-form matrix
elements and the size of a chain's terms built from them. The package
builds and evaluates these as stacks; the tests keep the one-at-a-time
forms as oracles and as instance makers."""

import numpy as np

import weaklab as wl


def random_ket(rng, d):
    """Haar-random unit ket (d,): d real parts, then d imaginary parts."""
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def random_density(rng, d):
    """Density matrix G G* / Tr(G G*) with G complex Ginibre."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = raw @ raw.conj().T
    return mat / mat.trace().real


def random_observable(rng, d):
    """Hermitian part of a complex Ginibre matrix."""
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (raw + raw.conj().T) / 2.0


def spectral_norm(obs):
    """Largest absolute eigenvalue."""
    return float(np.max(np.abs(np.linalg.eigh(obs)[0])))


def stack(observables):
    """Observables as the (n, d, d) stack that ``Scenario`` reads."""
    return np.array(observables)


def unit_scenario(rho, observables, post=None):
    """The ``Scenario`` of a state, an (n, d, d) stack of observables and an
    effect, every pointer of unit width: ``seq_weak_value`` reads no width."""
    return wl.Scenario(rho, observables, np.ones(len(observables)), post)


def random_scenario(rng, d, n, with_post, sigma_range=(0.5, 5.0)):
    """Random state and observables, each width uniform in ``sigma_range``
    and, with ``with_post``, a rank-1 effect."""
    steps = tuple(
        wl.MeasurementStep(random_observable(rng, d), wl.GaussianPointer(float(rng.uniform(*sigma_range))))
        for _ in range(n)
    )
    post = None
    if with_post:
        ket = random_ket(rng, d)
        post = np.outer(ket, ket.conj())
    return wl.Scenario(initial=random_density(rng, d), steps=steps, post=post)


def bits(*values):
    """Floats and complex numbers as the hex strings of their parts, so that
    equality is bit for bit and tells 0.0 from -0.0."""
    return [part.hex() for value in values for part in (complex(value).real, complex(value).imag)]


def ordered_trace(rho, observables, post=None):
    """Tr(E A_n ... A_1 rho) of one instance, first-measured observable
    rightmost, E = identity when ``post`` is None."""
    product = observables[0]
    for obs in observables[1:]:
        product = obs @ product
    if post is not None:
        product = post @ product
    return complex(np.trace(product @ rho))


def norm_product_bound(observables):
    """Product of spectral norms of a sequence of observables."""
    bound = 1.0
    for obs in observables:
        bound *= spectral_norm(obs)
    return bound


def matrix_element(sigma, kind, left, right):
    """<phi(left)| O |phi(right)> for the packet displaced to each center,
    transcribed from the closed forms in ``weaklab.pointer``'s docstring;
    centers may be arrays, which broadcast."""
    s2 = sigma**2
    mean, gap = 0.5 * np.add(right, left), np.subtract(right, left)
    ov = np.exp(-(gap**2) / (8.0 * s2))
    element = {
        wl.PointerOperatorKind.IDENTITY: np.ones_like(mean),
        wl.PointerOperatorKind.POSITION: mean,
        wl.PointerOperatorKind.POSITION_SQUARED: s2 + mean**2,
        wl.PointerOperatorKind.MOMENTUM: (1.0 / (2.0 * s2)) * (gap / 2j),
        wl.PointerOperatorKind.MOMENTUM_SQUARED: (1.0 / (4.0 * s2**2)) * (s2 - (gap / 2.0) ** 2),
    }[kind]
    return element * ov


def chain_peak(scn, pattern, exact):
    """prod_j max|F_j| over the tables of ``pattern``, a ``MomentPattern``,
    with the overlap dropped unless ``exact``: the size of the chain's
    terms, which the engine's imaginary-residue check also reads."""
    peak = 1.0
    for sigma, kind, a in zip(scn.widths.tolist(), pattern.kinds, scn.spectrum[0]):
        left, right = a[np.newaxis, :], a[:, np.newaxis]
        table = matrix_element(sigma, kind, left, right)
        if not exact:
            table = table / matrix_element(sigma, wl.PointerOperatorKind.IDENTITY, left, right)
        peak *= float(np.abs(table).max())
    return peak
