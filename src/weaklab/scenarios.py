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
from .errors import DimensionMismatch, InputError
from .pointer import GaussianPointer
from .simulator import MeasurementStep, Scenario


def build_illustrative(sigma1: float, sigma2: float) -> Scenario:
    """Two qubit projectors measured on |0>, 120 degrees apart on the
    Bloch sphere; the joint x1*x2 reading dips to -1/8 for wide first
    pointers."""
    half = 0.5
    root3_half = math.sqrt(3.0) / 2.0
    psi_1 = qm.PureState(np.array([half, root3_half]))
    psi_2 = qm.PureState(np.array([half, -root3_half]))
    return Scenario(
        initial=qm.KET_0.to_density(),
        steps=(
            MeasurementStep(qm.projector_from_ket(psi_1), GaussianPointer(sigma1)),
            MeasurementStep(qm.projector_from_ket(psi_2), GaussianPointer(sigma2)),
        ),
        post=None,
    )


def illustrative_joint_position_moment(sigma1: float) -> float:
    """Closed form (1 - 3 exp(-1/(8 sigma1^2))) / 16 for the scenario above."""
    return (1.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 16.0


def illustrative_second_pointer_mean(sigma1: float) -> float:
    """Closed form (5 - 3 exp(-1/(8 sigma1^2))) / 8."""
    return (5.0 - 3.0 * math.exp(-1.0 / (8.0 * sigma1**2))) / 8.0


def build_pauli_xy(sigma1: float, sigma2: float) -> Scenario:
    """sigma_y then sigma_x on |0>: weak value i, visible in p1*x2."""
    return Scenario(
        initial=qm.KET_0.to_density(),
        steps=(
            MeasurementStep(qm.SIGMA_Y, GaussianPointer(sigma1)),
            MeasurementStep(qm.SIGMA_X, GaussianPointer(sigma2)),
        ),
        post=None,
    )


def chain_ket(j: int, n: int) -> qm.PureState:
    """j-th chain state: cos(j pi / (n+1)) |0> + sin(j pi / (n+1)) |1>."""
    angle = j * math.pi / (n + 1)
    return qm.PureState(np.array([math.cos(angle), math.sin(angle)]))


def build_projector_chain(n: int, sigma: float) -> Scenario:
    """n rank-1 projectors at equally spaced angles j pi/(n+1), all with
    the same pointer width, measured on |0>."""
    if n < 1:
        raise InputError(f"chain length must be at least 1, got {n}")
    steps = tuple(
        MeasurementStep(qm.projector_from_ket(chain_ket(j, n)), GaussianPointer(sigma))
        for j in range(1, n + 1)
    )
    return Scenario(initial=qm.KET_0.to_density(), steps=steps, post=None)


def chain_weak_value(n: int) -> float:
    """-(cos(pi/(n+1)))^(n+1), the chain's no-post-selection weak value."""
    return -math.cos(math.pi / (n + 1)) ** (n + 1)


def build_common_cause(
    psi_ab: qm.PureState,
    first: qm.Observable,
    second: qm.Observable,
    sigma1: float,
    sigma2: float,
) -> Scenario:
    """Both parties measure their half of a shared bipartite state.

    Realized inside the sequential engine with the commuting lifted
    observables A (x) 1 and 1 (x) B; ordering is then immaterial and the
    joint reading is an honest expectation value.
    """
    if psi_ab.dim != first.dim * second.dim:
        raise DimensionMismatch(
            f"shared state dimension {psi_ab.dim} != {first.dim} * {second.dim}"
        )
    lifted_first = qm.Observable(np.kron(first.matrix, np.eye(second.dim)))
    lifted_second = qm.Observable(np.kron(np.eye(first.dim), second.matrix))
    return Scenario(
        initial=psi_ab.to_density(),
        steps=(
            MeasurementStep(lifted_first, GaussianPointer(sigma1)),
            MeasurementStep(lifted_second, GaussianPointer(sigma2)),
        ),
        post=None,
    )


class CausalStructure(enum.Enum):
    DIRECT_CAUSE_WITNESSED = "direct-cause-witnessed"
    INCONCLUSIVE = "inconclusive"


def causal_witness(moment: float, hull: tuple[float, float], margin: float) -> CausalStructure:
    """Flag a direct causal link when the moment escapes the product hull.

    A value inside the hull proves nothing (both structures can produce
    it), so the only verdicts are "witnessed" and "inconclusive". The
    margin guards against statistical noise in estimated moments.
    """
    if margin < 0:
        raise InputError(f"margin must be nonnegative, got {margin!r}")
    lo, hi = hull
    outside = moment < lo - margin or moment > hi + margin
    return CausalStructure.DIRECT_CAUSE_WITNESSED if outside else CausalStructure.INCONCLUSIVE
