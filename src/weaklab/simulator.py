"""Joint pointer moments for sequences of weak measurements.

Both analytic engines contract one chain of per-step linear maps on a
d x d operator, Tr(E T_n(... T_1(rho))), with E the post-selection
effect; Tr(eta), the chain whose every slot reads the identity, runs
stacked beside it as the normalization. Only the step maps differ:

* ``exact_moment`` works in the eigenbases of the measured observables.
  After each coupling the pointers' reduced state is a combination of
  displaced-Gaussian dyads whose moments have closed forms, so the joint
  moment is an exact finite sum over eigenindex pairs; no approximation
  and no discretization enters. Step j is the sandwich transform
  X -> V (F o (V* X V)) V*, with F the table of pointer matrix elements
  for that step's readout kind.

* ``weak_prediction`` keeps the first order in 1/sigma, valid when
  pointers are wide: step j is X -> (AX + XA)/2 for a position readout,
  X -> (AX - XA)/(4i sigma^2) for momentum and X -> X for identity.

Their difference is a measurable weak-regime error, which is the point:
the exact engine never borrows the approximation it is used to test.
Because moments are linear in each slot's readout, ``recover_weak_value``
sums its momentum-subset combination of moments as a single chain.

``sample_outcomes`` simulates shots one Kraus update at a time: each
shot carries a system ket, and each pointer is read right after its
coupling, from the positive mixture of d Gaussians that the ket's
populations define. No envelope and no rejection is needed, and
Monte-Carlo runs agree with ``exact_moment`` up to shot noise.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import qm
from .errors import (
    DimensionMismatch,
    InputError,
    NumericError,
    PatternLengthMismatch,
    UnsupportedKind,
    ZeroPostSelectionProbability,
)
from .pointer import GaussianPointer, PointerOperatorKind, matrix_element, weak_regime_check
from .weak_values import MeasurementSequence, ZERO_PROBABILITY_TOL, seq_weak_value

MOMENT_IMAG_TOL = 1e-10

_KIND_CODES = {
    "i": PointerOperatorKind.IDENTITY,
    "x": PointerOperatorKind.POSITION,
    "X": PointerOperatorKind.POSITION_SQUARED,
    "p": PointerOperatorKind.MOMENTUM,
    "P": PointerOperatorKind.MOMENTUM_SQUARED,
}


class WeakRegimeWarning(UserWarning):
    """Weak-regime formula requested outside its validity region."""


@dataclass(frozen=True)
class MeasurementStep:
    """One weak coupling: the observable and the pointer that records it."""

    observable: qm.Observable
    pointer: GaussianPointer


@dataclass(frozen=True)
class Scenario:
    """Initial state, ordered measurement steps, optional post-selection."""

    initial: qm.MixedState
    steps: tuple[MeasurementStep, ...]
    post: qm.PovmElement | None = None

    def __init__(self, initial, steps, post=None):
        steps = tuple(steps)
        if not steps:
            raise InputError("a scenario needs at least one measurement step")
        for index, step in enumerate(steps):
            if step.observable.dim != initial.dim:
                raise DimensionMismatch(
                    f"step {index + 1} dimension {step.observable.dim} != state dimension {initial.dim}"
                )
        if post is not None and post.dim != initial.dim:
            raise DimensionMismatch(
                f"post-selection dimension {post.dim} != state dimension {initial.dim}"
            )
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "post", post)

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def sequence(self) -> MeasurementSequence:
        return MeasurementSequence(step.observable for step in self.steps)

    def sigmas(self) -> tuple[float, ...]:
        return tuple(step.pointer.sigma for step in self.steps)


@dataclass(frozen=True)
class MomentPattern:
    """Per-step readout choice defining one joint pointer moment."""

    kinds: tuple[PointerOperatorKind, ...]

    def __init__(self, kinds):
        object.__setattr__(self, "kinds", tuple(kinds))

    @classmethod
    def from_string(cls, text: str) -> "MomentPattern":
        """Parse one character per step: i, x, X, p, P."""
        try:
            return cls(_KIND_CODES[ch] for ch in text)
        except KeyError as exc:
            raise InputError(f"unknown pattern character {exc.args[0]!r}; use i/x/X/p/P") from None

    @classmethod
    def all_position(cls, n: int) -> "MomentPattern":
        return cls([PointerOperatorKind.POSITION] * n)

    def __str__(self) -> str:
        return "".join(kind.value for kind in self.kinds)

    def __len__(self) -> int:
        return len(self.kinds)


class EvaluationMethod(enum.Enum):
    EXACT = "exact"
    WEAK_REGIME = "weak"


@dataclass(frozen=True)
class MomentResult:
    value: float
    postselection_probability: float


def _check_pattern(scn: Scenario, pat: MomentPattern) -> None:
    if len(pat) != scn.n_steps:
        raise PatternLengthMismatch(
            f"pattern has {len(pat)} slots for {scn.n_steps} measurement steps"
        )


def _effect_matrix(scn: Scenario) -> np.ndarray:
    return np.eye(scn.dim, dtype=complex) if scn.post is None else scn.post.matrix


# An engine is a pair (readout, step_map). ``readout(step, kind)`` is a
# step's readout as an array that is linear in the pointer operator, so
# readouts can be added, scaled and stacked; ``step_map(step, readout, x)``
# applies the map T_j that a readout (or a stack of them) defines.

def _factor_table(step: MeasurementStep, kind: PointerOperatorKind) -> np.ndarray:
    """F[k, l] = <phi(a_l)| O |phi(a_k)>, the weight of the P_k X P_l dyad."""
    a = step.observable.decomposition.eigenvalues
    return matrix_element(step.pointer, kind, a[np.newaxis, :], a[:, np.newaxis])


def _sandwich(step: MeasurementStep, table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact step map X -> V (F o (V* X V)) V*, the sum of F[k, l] P_k X P_l."""
    v = step.observable.decomposition.eigenvectors
    vh = v.conj().T
    return v @ (table * (vh @ x @ v)) @ vh


def _weak_readout(step: MeasurementStep, kind: PointerOperatorKind) -> np.ndarray:
    """(L, R) of the first-order step map X -> L X + X R.

    These are the exact tables' leading terms in 1/sigma: i reads X,
    x reads (AX + XA)/2 and p reads (AX - XA)/(4i sigma^2). An identity
    slot thus drops out, as its observable sums back to the identity.
    """
    a = step.observable.matrix
    if kind is PointerOperatorKind.POSITION:
        return np.array([a, a]) / 2.0
    if kind is PointerOperatorKind.MOMENTUM:
        return np.array([a, -a]) / (4j * step.pointer.sigma**2)
    if kind is PointerOperatorKind.IDENTITY:
        half = np.eye(a.shape[0]) / 2.0
        return np.array([half, half])
    raise UnsupportedKind(
        "the weak-regime engine covers first-order x/p moments only; "
        "use the exact engine for squared readouts"
    )


def _weak_map(step: MeasurementStep, readout: np.ndarray, x: np.ndarray) -> np.ndarray:
    return readout[..., 0, :, :] @ x + x @ readout[..., 1, :, :]


_ENGINES = {
    EvaluationMethod.EXACT: (_factor_table, _sandwich),
    EvaluationMethod.WEAK_REGIME: (_weak_readout, _weak_map),
}


def _chain(scn: Scenario, method: EvaluationMethod, readouts) -> tuple[complex, float]:
    """Tr(E T_n(... T_1(rho))) with T_j the map of ``readouts[j]``, and
    Tr(eta), the chain whose every slot reads the identity.

    This is the transfer-operator core of every analytic engine; the two
    chains run as one stack.
    """
    readout, step_map = _ENGINES[method]
    state = scn.initial.matrix
    for step, chosen in zip(scn.steps, readouts):
        state = step_map(step, np.array([chosen, readout(step, PointerOperatorKind.IDENTITY)]), state)
    numerator, probability = (_effect_matrix(scn).T * state).sum(axis=(-2, -1))
    if probability.real <= ZERO_PROBABILITY_TOL:
        raise ZeroPostSelectionProbability(
            f"{method.value} post-selection probability {probability.real:.3e} below threshold"
        )
    return complex(numerator), float(probability.real)


def exact_moment(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """Exact joint moment Tr(M eta) / Tr(eta) for the requested pattern.

    Supports all five readout kinds. Normalization uses the exact
    post-selection probability Tr(eta), not its weak-limit stand-in.
    """
    _check_pattern(scn, pat)
    tables = [_factor_table(step, kind) for step, kind in zip(scn.steps, pat.kinds)]
    numerator, probability = _chain(scn, EvaluationMethod.EXACT, tables)
    value = numerator / probability
    # Rounding leaves an imaginary residue relative to the chain's terms,
    # which reach prod_j max|F_j| / Tr(eta) (about sigma^2n for X readouts).
    scale = max(1.0, math.prod(float(np.abs(table).max()) for table in tables) / probability)
    if abs(value.imag) > MOMENT_IMAG_TOL * scale:
        raise NumericError(f"moment has imaginary residue {value.imag:.3e} at scale {scale:.3e}")
    return MomentResult(value.real, probability)


def weak_prediction(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """First-order weak-regime value of the requested moment.

    Identity slots are marginalized out; remaining slots must read
    position or momentum. Each momentum slot carries a factor
    1/(2 sigma^2); the result is normalized by Tr(E rho).
    """
    _check_pattern(scn, pat)
    readouts = [_weak_readout(step, kind) for step, kind in zip(scn.steps, pat.kinds)]
    numerator, probability = _chain(scn, EvaluationMethod.WEAK_REGIME, readouts)
    return MomentResult(numerator.real / probability, probability)


def steps_outside_weak_regime(scn: Scenario) -> tuple[int, ...]:
    """Indices of the steps whose pointer fails ``weak_regime_check``,
    judged against the scenario's sequential weak value."""
    magnitude = abs(seq_weak_value(scn.initial, scn.post, scn.sequence()).value)
    return tuple(
        index
        for index, step in enumerate(scn.steps)
        if not weak_regime_check(step.pointer, step.observable.decomposition.eigenvalues, magnitude)
    )


def recover_weak_value(scn: Scenario, source: EvaluationMethod = EvaluationMethod.EXACT) -> complex:
    """Reassemble the sequential weak value from joint pointer moments.

    The weak value is the sum over momentum subsets P of
    prod_{j in P} (2i sigma_j^2) m_P, where m_P reads p on the slots in P
    and x on the others: even subsets give the real part, odd ones the
    imaginary part. Every m_P is linear in each slot's readout and shares
    the denominator Tr(eta), so the sum is one chain whose step j reads
    x + 2i sigma_j^2 p. Without post-selection the final slot reads x only
    (momentum there vanishes at first order and carries no information).
    """
    for index in steps_outside_weak_regime(scn):
        warnings.warn(
            f"step {index + 1} width sigma={scn.steps[index].pointer.sigma:g} is not in the weak "
            "regime; recovered values may be biased",
            WeakRegimeWarning,
            stacklevel=2,
        )
    readout = _ENGINES[source][0]
    gains = [2j * sigma**2 for sigma in scn.sigmas()]
    if scn.post is None:
        gains[-1] = 0.0
    readouts = [
        readout(step, PointerOperatorKind.POSITION) + gain * readout(step, PointerOperatorKind.MOMENTUM)
        for step, gain in zip(scn.steps, gains)
    ]
    numerator, probability = _chain(scn, source, readouts)
    return numerator / probability


def nested_anticommutator_value(rho: qm.MixedState, seq: MeasurementSequence) -> float:
    """2^(1-n) Tr[{A_1, {A_2, ..., {A_{n-1}, A_n}...}} rho].

    Equals the weak-limit all-position moment without post-selection.
    """
    if rho.dim != seq.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != sequence dimension {seq.dim}")
    # position readouts do not depend on the pointer width
    scn = Scenario(rho, (MeasurementStep(obs, GaussianPointer(1.0)) for obs in seq.observables))
    return weak_prediction(scn, MomentPattern.all_position(len(seq))).value


@dataclass(frozen=True)
class PointerStats:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float


def single_measurement_stats(
    rho: qm.MixedState,
    post: qm.PovmElement | None,
    observable: qm.Observable,
    ptr: GaussianPointer,
) -> PointerStats:
    """Weak-regime mean and variance of one pointer's position and momentum."""
    if rho.dim != observable.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} != observable dimension {observable.dim}")
    effect = np.eye(rho.dim, dtype=complex) if post is None else post.matrix
    probability = float(np.trace(effect @ rho.matrix).real)
    if probability <= ZERO_PROBABILITY_TOL:
        raise ZeroPostSelectionProbability(
            f"post-selection probability {probability:.3e} below threshold"
        )
    a = observable.matrix
    wv = complex(np.trace(effect @ a @ rho.matrix)) / probability
    wv_sq = complex(np.trace(effect @ a @ a @ rho.matrix)) / probability
    cross = float(np.trace(effect @ a @ rho.matrix @ a).real) / probability
    s2 = ptr.sigma**2
    mean_x = wv.real
    mean_p = wv.imag / (2.0 * s2)
    var_x = s2 + 0.5 * (wv_sq.real + cross) - mean_x**2
    var_p = (s2 - 0.5 * (wv_sq.real - cross) - wv.imag**2) / (4.0 * s2**2)
    return PointerStats(mean_x, mean_p, var_x, var_p)


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of pointer positions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleStatistics:
    """Bookkeeping for one sampling run.

    Every draw is kept, so ``acceptance_rate`` is always 1.0 and
    ``method`` always reads "sequential".
    """

    requested_shots: int
    retained_shots: int
    postselection_probability: float
    acceptance_rate: float
    method: str
    seed: int


# Largest working set sample_outcomes may allocate, in bytes.
SAMPLE_MEMORY_LIMIT = 2 * 1024**3


def sample_outcomes(
    scn: Scenario,
    shots: int,
    seed: int,
) -> tuple[np.ndarray, SampleStatistics]:
    """Simulate ``shots`` runs; returns retained pointer-position tuples.

    Each shot carries one system ket, drawn from the eigen-ensemble of the
    initial state. Pointer j is never touched after step j, so it is read
    right after its coupling: the eigenindex k is drawn from the ket's
    populations in that step's eigenbasis, x = a_k + sigma_j z, and the
    ket is updated by the Kraus operator K(x) = sum_k phi(x - a_k) P_k and
    renormalized. Post-selection keeps a shot with probability
    <psi|E|psi>, so the retained count is Binomial(shots, Tr(eta)) and
    retained shots are i.i.d. draws from the conditional joint density.
    Cost is O(shots n d^2) time and O(shots (n + d)) memory. The stream
    is deterministic in ``seed``.
    """
    if shots < 1:
        raise InputError(f"shots must be at least 1, got {shots}")
    footprint = shots * (scn.n_steps + 4 * scn.dim) * 8
    if footprint > SAMPLE_MEMORY_LIMIT:
        raise InputError(
            f"{shots} shots need about {footprint / 1024**3:.1f} GiB, "
            f"over the {SAMPLE_MEMORY_LIMIT / 1024**3:.0f} GiB limit"
        )
    identity = [_factor_table(step, PointerOperatorKind.IDENTITY) for step in scn.steps]
    _, probability = _chain(scn, EvaluationMethod.EXACT, identity)

    rng = np.random.default_rng(seed)
    weights, basis = np.linalg.eigh(scn.initial.matrix)
    weights = np.clip(weights, 0.0, None)
    # Row s holds shot s's ket in the columns of ``basis``.
    amplitudes = np.eye(scn.dim, dtype=complex)[rng.choice(scn.dim, size=shots, p=weights / weights.sum())]
    samples = np.empty((shots, scn.n_steps))
    for j, step in enumerate(scn.steps):
        decomposition = step.observable.decomposition
        a, sigma = decomposition.eigenvalues, step.pointer.sigma
        amplitudes = amplitudes @ (basis.T @ decomposition.eigenvectors.conj())
        basis = decomposition.eigenvectors
        cumulative = np.cumsum(np.abs(amplitudes) ** 2, axis=1)
        threshold = rng.random(shots) * cumulative[:, -1]
        k = (cumulative[:, :-1] <= threshold[:, np.newaxis]).sum(axis=1)
        x = a[k] + sigma * rng.standard_normal(shots)
        samples[:, j] = x
        gap = (x[:, np.newaxis] - a) ** 2
        amplitudes = amplitudes * np.exp(-(gap - gap.min(axis=1, keepdims=True)) / (4.0 * sigma**2))
        amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)

    if scn.post is not None:
        effect = basis.conj().T @ scn.post.matrix @ basis
        kept = (amplitudes.conj() * (amplitudes @ effect.T)).sum(axis=1).real
        samples = samples[rng.random(shots) < kept]
    stats = SampleStatistics(
        requested_shots=shots,
        retained_shots=samples.shape[0],
        postselection_probability=probability,
        acceptance_rate=1.0,
        method="sequential",
        seed=seed,
    )
    return samples, stats
