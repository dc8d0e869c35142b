"""Weak values for single and sequential measurements, and their bounds.

The central quantity is Tr(E A_n ... A_1 rho) / Tr(E rho): the ordered
product of the measured observables sandwiched between preparation rho
and post-selection effect E. E = identity describes runs where no data
is discarded; the magnitude of the value is then bounded by the product
of the spectral norms, and for a pair of 0/1 projectors its real part
can reach, but never beat, -1/8.

One stacked kernel, ``sequence_traces``, forms Tr(F_m ... F_1 rho), E its
last factor, for one instance and the ``bounds`` stacks alike;
``seq_weak_value`` reads one ``Scenario``'s state, observables and effect,
which the scenario checked, and returns its complex weak value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ZeroPostSelectionProbability

if TYPE_CHECKING:  # simulator imports this module
    from .simulator import Scenario

ZERO_PROBABILITY_TOL = 1e-14
PROJECTOR_PAIR_FLOOR = -0.125


# Stacks hold states as (..., d, d) and sequences as (..., m, d, d),
# first-applied factor first.

def sequence_traces(rho: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Tr(F_m ... F_1 rho) per instance: for factors A_1 ... A_n, then a
    post-selection effect E, the numerators of the sequential weak values."""
    product = factors[..., 0, :, :]
    for j in range(1, factors.shape[-3]):
        product = factors[..., j, :, :] @ product
    return np.trace(product @ rho, axis1=-2, axis2=-1)


def check_probability(probability, norm: float) -> None:
    """Raises ZeroPostSelectionProbability when a post-selection probability
    Tr(E eta), or the first in C order of an array of them, is at or below
    ``ZERO_PROBABILITY_TOL`` times E's largest eigenvalue ``norm``, 1 for E = I."""
    threshold = ZERO_PROBABILITY_TOL * norm
    low = np.less_equal(probability, threshold)
    if low.any():
        first = np.ravel(probability)[low.argmax()]
        raise ZeroPostSelectionProbability(f"post-selection probability {first:.3e} is at or below {threshold:g}")


def seq_weak_value(scn: Scenario) -> complex:
    """Sequential weak value Tr(E A_n ... A_1 rho) / Tr(E rho) of a
    scenario's state, observables and effect, which ``Scenario`` checked;
    the pointer widths do not enter.

    ``scn.post`` None means E = identity: the denominator is 1 and nothing
    is discarded. Raises ZeroPostSelectionProbability when Tr(E rho) is at
    or below threshold; the value is undefined there, not merely large.
    """
    if scn.post is None:
        return complex(sequence_traces(scn.initial, scn.observables))
    # Tr(E rho) is real for Hermitian E, rho; drop the float residue.
    probability = float(np.trace(scn.post @ scn.initial).real)
    check_probability(probability, scn.post_norm)
    return complex(sequence_traces(scn.initial, np.concatenate([scn.observables, [scn.post]]))) / probability


def norm_products(observables: np.ndarray) -> np.ndarray:
    """Product of spectral norms per instance: the magnitude cap on
    ``sequence_traces``. The eigenvalues come from ``eigh``, as in
    ``Scenario.spectrum``; ``eigvalsh`` can differ in the last bit."""
    eigenvalues = np.linalg.eigh(observables)[0]
    return np.abs(eigenvalues).max(axis=-1).prod(axis=-1)
