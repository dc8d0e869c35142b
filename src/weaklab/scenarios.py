"""Canonical scenario builders and the causal-structure witness.

The builders cover the standard demonstrations: the qubit projector pair
whose joint pointer reading reaches -1/8, the Pauli y-then-x pair with a
purely imaginary weak value, projector chains whose weak value walks
toward -1, and the bipartite "both measure half of a shared state"
arrangement where no anomaly is possible.

The witness turns that last fact into an inference rule: a mean product
of pointer positions outside the classically expected product range can
only arise when one measurement acts on the other's output system.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import qm
from .errors import InputError, check_count
from .simulator import Scenario


def build_illustrative(sigma1: float, sigma2: float) -> Scenario:
    """Two qubit projectors measured on |0>, 120 degrees apart on the
    Bloch sphere; the joint x1*x2 reading dips to -1/8 for wide first
    pointers."""
    half = 0.5
    root3_half = math.sqrt(3.0) / 2.0
    kets = np.array([[half, root3_half], [half, -root3_half]], dtype=complex)
    return Scenario(qm.KET_0, qm.projectors_from_kets(kets), [sigma1, sigma2])


def build_pauli_xy(sigma1: float, sigma2: float) -> Scenario:
    """sigma_y then sigma_x on |0>: weak value i, visible in p1*x2."""
    return Scenario(qm.KET_0, [qm.SIGMA_Y, qm.SIGMA_X], [sigma1, sigma2])


def build_projector_chain(n: int, sigma: float) -> Scenario:
    """n rank-1 projectors onto cos(j pi/(n+1)) |0> + sin(j pi/(n+1)) |1>,
    j = 1 ... n, all with the same pointer width, measured on |0>."""
    n = check_count("n", n, 1)
    angles = [j * math.pi / (n + 1) for j in range(1, n + 1)]
    kets = np.array([[math.cos(a), math.sin(a)] for a in angles], dtype=complex)
    return Scenario(qm.KET_0, qm.projectors_from_kets(kets), [sigma] * n)


def chain_weak_value(n: int) -> float:
    """-(cos(pi/(n+1)))^(n+1), the chain's no-post-selection weak value."""
    return -math.cos(math.pi / (n + 1)) ** (n + 1)


def build_common_cause(
    psi_ab: np.ndarray, first: np.ndarray, second: np.ndarray, sigma1: float, sigma2: float
) -> Scenario:
    """Both parties measure their half of a shared bipartite state.

    Realized inside the sequential engine with the commuting lifted
    observables A (x) 1 and 1 (x) B; ordering is then immaterial and the
    joint reading is an honest expectation value.
    """
    return Scenario(psi_ab, lift_pair(first, second), [sigma1, sigma2])


def lift_pair(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (x) 1 and 1 (x) B for stacks of (..., p, p) matrices A and
    (..., q, q) matrices B, from the products np.kron forms: entry
    (i q + k, j q + l) is A[i, j] 1[k, l], or 1[i, j] B[k, l]."""
    p, q = first.shape[-1], second.shape[-1]
    lifted_first = first[..., :, np.newaxis, :, np.newaxis] * np.eye(q)[:, np.newaxis, :]
    lifted_second = np.eye(p)[:, np.newaxis, :, np.newaxis] * second[..., np.newaxis, :, np.newaxis, :]
    return (
        lifted_first.reshape(*first.shape[:-2], p * q, p * q),
        lifted_second.reshape(*second.shape[:-2], p * q, p * q),
    )


class CausalStructure(enum.Enum):
    DIRECT_CAUSE_WITNESSED = "direct-cause-witnessed"
    INCONCLUSIVE = "inconclusive"


def causal_witness(moment: float, hull: tuple[float, float], margin: float) -> CausalStructure:
    """Flag a direct causal link when the moment escapes the product hull.

    A value inside the hull proves nothing (both structures can produce
    it), so the only verdicts are "witnessed" and "inconclusive". The
    margin guards against statistical noise in estimated moments. A margin
    that is not >= 0, a moment or hull end that is not finite, and hull
    ends out of order raise InputError: none of them has a verdict.
    """
    if not margin >= 0:
        raise InputError(f"margin must be nonnegative, got {margin!r}")
    lo, hi = hull
    if not all(map(math.isfinite, (moment, lo, hi))):
        raise InputError(f"moment {moment!r} and hull ({lo!r}, {hi!r}) must be finite")
    if lo > hi:
        raise InputError(f"hull ends out of order: ({lo!r}, {hi!r})")
    outside = moment < lo - margin or moment > hi + margin
    return CausalStructure.DIRECT_CAUSE_WITNESSED if outside else CausalStructure.INCONCLUSIVE
