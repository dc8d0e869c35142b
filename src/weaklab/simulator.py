"""Joint pointer moments for sequences of weak measurements.

Every analytic engine contracts one chain of per-step linear maps on a
d x d operator, Tr(E T_n(... T_1(rho))), with E the post-selection
effect. Step j is the sandwich X -> sum_kl F[k, l] P_k X P_l over the
eigenprojectors P_k of the measured observable, with F the table of
pointer matrix elements for that step's readout kind. The state is
carried in each step's eigenbasis, where the sandwich is the entrywise
product F o X. Tr(eta), the chain whose every slot reads the identity,
runs stacked beside it as the normalization. The chain also takes a
leading batch axis, which the optimizer uses to evaluate many projector
sequences in one call. Only the tables differ:

* ``exact_moment`` uses the exact tables. After each coupling the
  pointers' reduced state is a combination of displaced-Gaussian dyads
  whose moments have closed forms, so the joint moment is an exact
  finite sum over eigenindex pairs; no approximation and no
  discretization enters.

* ``weak_prediction`` uses the same tables with the Gaussian overlap set
  to 1, the first order in 1/sigma that holds for wide pointers: a
  position slot then maps X to (AX + XA)/2, a momentum slot to
  (AX - XA)/(4i sigma^2), and an identity slot leaves X alone.

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
from .pointer import GaussianPointer, PointerOperatorKind, _factor, matrix_element, weak_regime_check
from .weak_values import MeasurementSequence, ZERO_PROBABILITY_TOL, seq_weak_value

MOMENT_IMAG_TOL = 1e-10


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
            return cls([PointerOperatorKind(ch) for ch in text])
        except ValueError as exc:
            raise InputError(f"bad pattern {text!r}: {exc}; use i/x/X/p/P") from None

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


def _tables(eigenvalues, ptr: GaussianPointer, kinds, exact: bool = True) -> np.ndarray:
    """Stacked F[k, l] = <phi(a_l)| O |phi(a_k)>, the weights of the
    P_k X P_l dyads, one table per kind; at overlap 1 unless ``exact``."""
    left, right = eigenvalues[np.newaxis, :], eigenvalues[:, np.newaxis]
    if exact:
        return np.array([matrix_element(ptr, kind, left, right) for kind in kinds])
    mean, gap, s2 = 0.5 * (left + right), right - left, ptr.sigma**2
    return np.array([_factor(kind, s2, mean, gap) for kind in kinds])


def _step_tables(step: MeasurementStep, kinds, exact: bool = True) -> np.ndarray:
    return _tables(step.observable.decomposition.eigenvalues, step.pointer, kinds, exact)


def _chain(initial, bases, tables, post=None) -> np.ndarray:
    """Tr(E T_n(... T_1(rho))) for each chain of a stack, with
    T_j(X) = sum_kl F[k, l] P_k X P_l, the P_k read off the columns of
    the eigenbasis ``bases[j]`` and F the matching table of the stack
    ``tables[j]``. ``post`` is the effect E, or None for E = I.

    ``initial`` (..., d, d) and every basis (..., d, d) may carry leading
    batch axes; a table stack is (K, ..., d, d), so one (K, 1, d, d) stack
    serves a whole batch. Returns the (K, ...) traces.

    This is the transfer-operator core of every analytic engine.
    """
    state, basis = initial, None
    for vectors, table in zip(bases, tables):
        turn = vectors.conj().swapaxes(-1, -2)
        if basis is not None:
            turn = turn @ basis
        state = table * (turn @ state @ turn.conj().swapaxes(-1, -2))
        basis = vectors
    if post is None:
        traces = np.trace(state, axis1=-2, axis2=-1)
    else:
        effect = basis.conj().swapaxes(-1, -2) @ post @ basis
        traces = (effect.swapaxes(-1, -2) * state).sum(axis=(-2, -1))
    if not np.isfinite(traces).all():
        raise NumericError("moment chain is not finite; a pointer width is too extreme for floating point")
    return traces


def _scenario_chain(scn: Scenario, tables) -> tuple[np.ndarray, float]:
    """``_chain`` on one scenario. The last chain of each stack must read
    the identity on every slot; its trace, Tr(eta), is returned apart as
    the post-selection probability."""
    bases = [step.observable.decomposition.eigenvectors for step in scn.steps]
    traces = _chain(scn.initial.matrix, bases, tables, None if scn.post is None else scn.post.matrix)
    probability = float(traces[-1].real)
    if probability <= ZERO_PROBABILITY_TOL:
        raise ZeroPostSelectionProbability(f"post-selection probability {probability:.3e} below threshold")
    return traces[:-1], probability


# Very narrow widths overflow table entries: the overlap reads exp(-inf) = 0,
# its right limit, and an inf or nan that reaches a trace makes ``_chain``
# raise NumericError, so the analytic engines run with numpy's warnings off.
@np.errstate(all="ignore")
def exact_moment(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """Exact joint moment Tr(M eta) / Tr(eta) for the requested pattern.

    Supports all five readout kinds. Normalization uses the exact
    post-selection probability Tr(eta), not its weak-limit stand-in.
    """
    _check_pattern(scn, pat)
    tables = [_step_tables(step, (kind, PointerOperatorKind.IDENTITY)) for step, kind in zip(scn.steps, pat.kinds)]
    (numerator,), probability = _scenario_chain(scn, tables)
    value = complex(numerator) / probability
    # Rounding leaves an imaginary residue relative to the chain's terms,
    # which reach prod_j max|F_j| / Tr(eta) (about sigma^2n for X readouts).
    scale = max(1.0, math.prod(float(np.abs(table[0]).max()) for table in tables) / probability)
    if abs(value.imag) > MOMENT_IMAG_TOL * scale:
        raise NumericError(f"moment has imaginary residue {value.imag:.3e} at scale {scale:.3e}")
    return MomentResult(value.real, probability)


@np.errstate(all="ignore")
def weak_prediction(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """First-order weak-regime value of the requested moment.

    Identity slots are marginalized out; remaining slots must read
    position or momentum. Each momentum slot carries a factor
    1/(2 sigma^2); the result is normalized by Tr(E rho).
    """
    _check_pattern(scn, pat)
    squared = (PointerOperatorKind.POSITION_SQUARED, PointerOperatorKind.MOMENTUM_SQUARED)
    if any(kind in squared for kind in pat.kinds):
        raise UnsupportedKind(
            "the weak-regime engine covers first-order x/p moments only; "
            "use the exact engine for squared readouts"
        )
    tables = [
        _step_tables(step, (kind, PointerOperatorKind.IDENTITY), exact=False) for step, kind in zip(scn.steps, pat.kinds)
    ]
    (numerator,), probability = _scenario_chain(scn, tables)
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


@np.errstate(all="ignore")
def recover_weak_value(scn: Scenario, source: EvaluationMethod = EvaluationMethod.EXACT) -> complex:
    """Reassemble the sequential weak value from joint pointer moments.

    The weak value is the sum over momentum subsets P of
    prod_{j in P} (2i sigma_j^2) m_P, where m_P reads p on the slots in P
    and x on the others: even subsets give the real part, odd ones the
    imaginary part. Every m_P is linear in each slot's readout and shares
    the denominator Tr(eta), so the sum is one chain whose step j reads
    x + 2i sigma_j^2 p. Without post-selection the final slot reads x only
    (momentum there vanishes at first order and carries no information).

    Exact-source recovery is biased at finite widths; nothing here judges
    that. ``steps_outside_weak_regime`` names the steps whose pointers are
    too narrow for the result to be read as the weak value.
    """
    gains = [2j * sigma**2 for sigma in scn.sigmas()]
    if scn.post is None:
        gains[-1] = 0.0
    kinds = [PointerOperatorKind(code) for code in "xpi"]
    tables = []
    for step, gain in zip(scn.steps, gains):
        x, p, identity = _step_tables(step, kinds, exact=source is EvaluationMethod.EXACT)
        tables.append(np.array([x + gain * p, identity]))
    (numerator,), probability = _scenario_chain(scn, tables)
    return complex(numerator) / probability


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


# Largest working set sample_outcomes may allocate, in bytes.
SAMPLE_MEMORY_LIMIT = 2 * 1024**3


# The Kraus weights of a very narrow pointer overflow to exp(-inf) = 0.
@np.errstate(over="ignore")
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
    _, probability = _scenario_chain(scn, [_step_tables(step, (PointerOperatorKind.IDENTITY,)) for step in scn.steps])

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
    )
    return samples, stats
