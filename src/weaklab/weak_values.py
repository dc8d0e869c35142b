"""Weak values for single and sequential measurements, and their bounds.

The central quantity is Tr(E A_n ... A_1 rho) / Tr(E rho): the ordered
product of the measured observables sandwiched between preparation rho
and post-selection effect E. Passing E = identity (``post=None``)
describes runs where no data is discarded; the magnitude of the value is
then bounded by the product of the spectral norms, and for a pair of 0/1
projectors its real part can reach, but never beat, -1/8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qm
from .errors import DimensionMismatch, InputError, ZeroPostSelectionProbability

ZERO_PROBABILITY_TOL = 1e-14
PROJECTOR_PAIR_FLOOR = -0.125


@dataclass(frozen=True)
class WeakValue:
    """A weak value with its post-selection odds (exactly 1 without post-selection)."""

    value: complex
    postselection_probability: float


@dataclass(frozen=True)
class MeasurementSequence:
    """Ordered observables measured first-to-last, all of one dimension."""

    observables: tuple[qm.Observable, ...]

    def __init__(self, observables):
        observables = tuple(observables)
        if not observables:
            raise InputError("a measurement sequence needs at least one observable")
        dims = {obs.dim for obs in observables}
        if len(dims) != 1:
            raise DimensionMismatch(f"sequence mixes dimensions {sorted(dims)}")
        object.__setattr__(self, "observables", observables)

    @property
    def dim(self) -> int:
        return self.observables[0].dim

    def __len__(self) -> int:
        return len(self.observables)

    def ordered_product(self) -> np.ndarray:
        """A_n ... A_1 (first measured observable rightmost)."""
        product = self.observables[0].matrix
        for obs in self.observables[1:]:
            product = obs.matrix @ product
        return product


def seq_weak_value(
    rho: qm.MixedState,
    post: qm.PovmElement | None,
    seq: MeasurementSequence,
) -> WeakValue:
    """Sequential weak value Tr(E A_n ... A_1 rho) / Tr(E rho).

    ``post=None`` means E = identity: the denominator is 1 and nothing is
    discarded. Raises ZeroPostSelectionProbability when Tr(E rho) is below
    threshold; the value is undefined there, not merely large.
    """
    if rho.dim != seq.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != sequence dimension {seq.dim}")
    product = seq.ordered_product()
    if post is None:
        value = complex(np.trace(product @ rho.matrix))
        return WeakValue(value, 1.0)
    if post.dim != rho.dim:
        raise DimensionMismatch(f"post-selection dimension {post.dim} != state dimension {rho.dim}")
    # Tr(E rho) is real for Hermitian E, rho; drop the float residue.
    probability = float(np.trace(post.matrix @ rho.matrix).real)
    if probability <= ZERO_PROBABILITY_TOL:
        raise ZeroPostSelectionProbability(
            f"Tr(E rho) = {probability:.3e} is below {ZERO_PROBABILITY_TOL:g}"
        )
    value = complex(np.trace(post.matrix @ product @ rho.matrix)) / probability
    return WeakValue(value, probability)


# The bound suites evaluate many instances at once: stacks of states
# (..., d, d) and of sequences (..., n, d, d), first-measured observable first.

def sequence_traces(rho: np.ndarray, observables: np.ndarray) -> np.ndarray:
    """Tr(A_n ... A_1 rho) per instance: the no-post-selection sequential
    weak values, multiplied in the order ``seq_weak_value`` uses."""
    product = observables[..., 0, :, :]
    for j in range(1, observables.shape[-3]):
        product = observables[..., j, :, :] @ product
    return np.trace(product @ rho, axis1=-2, axis2=-1)


def norm_products(observables: np.ndarray) -> np.ndarray:
    """Product of spectral norms per instance: the magnitude cap on
    ``sequence_traces``. The eigenvalues come from ``eigh``, as in
    ``Observable.decomposition``; ``eigvalsh`` can differ in the last bit."""
    eigenvalues = np.linalg.eigh(observables)[0]
    return np.abs(eigenvalues).max(axis=-1).prod(axis=-1)
