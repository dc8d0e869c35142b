"""Joint pointer moments for sequences of weak measurements.

Every analytic engine contracts one chain of per-step linear maps on a
d x d operator, Tr(E T_n(... T_1(rho))), with E the post-selection
effect. Step j is the sandwich X -> sum_kl F[k, l] P_k X P_l over the
eigenprojectors P_k of the measured observable, with F the table of
pointer matrix elements for that step's readout kind. The state is
carried in each step's eigenbasis, where the sandwich is the entrywise
product F o X. Tr(eta), the chain whose every slot reads the identity,
runs stacked beside it as the normalization. Only the tables differ:

* ``exact_moment`` uses the exact tables. After each coupling the
  pointers' reduced state is a combination of displaced-Gaussian dyads
  whose moments have closed forms, so the joint moment is an exact
  finite sum over eigenindex pairs; no approximation and no
  discretization enters. ``position_moments`` gives the all-position
  moment and every single-slot position moment from one forward and one
  backward pass over the chain, in O(n d^3) time and O(n d^2) memory.

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
Monte-Carlo runs agree with ``exact_moment`` up to shot noise. The kets
are held shot-contiguous, real and imaginary parts stacked as one
(2d, shots) array, so every step is a (2d, 2d) @ (2d, shots) rotation
and length-shots vector operations: O(shots n d^2) time, and at most
``sample_footprint`` bytes, which is checked before any allocation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import qm
from .errors import DimensionMismatch, InputError, NumericError, check_footprint
from .pointer import GaussianPointer, PointerOperatorKind, _factor, matrix_element, weak_regime_check
from .weak_values import check_probability, seq_weak_value

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

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise InputError("a scenario needs at least one measurement step")
        for index, step in enumerate(steps):
            if step.observable.dim != self.initial.dim:
                raise DimensionMismatch(
                    f"step {index + 1} dimension {step.observable.dim} != state dimension {self.initial.dim}"
                )
        if self.post is not None and self.post.dim != self.initial.dim:
            raise DimensionMismatch(
                f"post-selection dimension {self.post.dim} != state dimension {self.initial.dim}"
            )
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def sigmas(self) -> tuple[float, ...]:
        return tuple(step.pointer.sigma for step in self.steps)


@dataclass(frozen=True)
class MomentPattern:
    """Per-step readout choice defining one joint pointer moment."""

    kinds: tuple[PointerOperatorKind, ...]

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(self.kinds))

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
        raise InputError(
            f"pattern has {len(pat)} slots for {scn.n_steps} measurement steps"
        )


def _step_tables(step: MeasurementStep, kinds, exact: bool = True) -> np.ndarray:
    """Stacked F[k, l] = <phi(a_l)| O |phi(a_k)>, the weights of the
    P_k X P_l dyads, one table per kind; at overlap 1 unless ``exact``."""
    eigenvalues = step.observable.decomposition.eigenvalues
    left, right = eigenvalues[np.newaxis, :], eigenvalues[:, np.newaxis]
    if exact:
        return np.array([matrix_element(step.pointer, kind, left, right) for kind in kinds])
    mean, gap, s2 = 0.5 * (left + right), right - left, step.pointer.sigma**2
    return np.array([_factor(kind, s2, mean, gap) for kind in kinds])


def _chain(scn: Scenario, tables) -> tuple[np.ndarray, float]:
    """Tr(E T_n(... T_1(rho))) on the scenario for each chain of a stack,
    with T_j(X) = sum_kl F[k, l] P_k X P_l, the P_k the eigenprojectors of
    step j's observable and F the matching table of the (K, d, d) stack
    ``tables[j]``; E is the post-selection effect, or I. The last chain of
    each stack must read the identity on every slot: its trace, Tr(eta),
    is checked and returned apart, after the other K - 1 traces.

    This is the transfer-operator core of every analytic engine.
    """
    state, basis = scn.initial.matrix, None
    for step, table in zip(scn.steps, tables):
        vectors = step.observable.decomposition.eigenvectors
        turn = vectors.conj().T if basis is None else vectors.conj().T @ basis
        state = table * (turn @ state @ turn.conj().T)
        basis = vectors
    if scn.post is None:
        traces = np.trace(state, axis1=1, axis2=2)
    else:
        traces = ((basis.conj().T @ scn.post.matrix @ basis).T * state).sum(axis=(1, 2))
    if not np.isfinite(traces).all():
        raise NumericError("moment chain is not finite; a pointer width is too extreme for floating point")
    probability = float(traces[-1].real)
    check_probability(probability)
    return traces[:-1], probability


def _result(numerator, peak: float, probability: float) -> MomentResult:
    """numerator / Tr(eta), whose imaginary rounding residue is judged at the
    chain's term size: ``peak``, the row's table peaks' product (about
    sigma^2n for X readouts), over Tr(eta)."""
    value = complex(numerator) / probability
    scale = max(1.0, float(peak) / probability)
    if abs(value.imag) > MOMENT_IMAG_TOL * scale:
        raise NumericError(f"moment has imaginary residue {value.imag:.3e} at scale {scale:.3e}")
    return MomentResult(value.real, probability)


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
    identity = PointerOperatorKind.IDENTITY
    tables = [_step_tables(step, (kind, identity)) for step, kind in zip(scn.steps, pat.kinds)]
    (numerator,), probability = _chain(scn, tables)
    return _result(numerator, math.prod(np.abs(table[0]).max() for table in tables), probability)


@np.errstate(all="ignore")
def position_moments(scn: Scenario) -> list[MomentResult]:
    """``exact_moment`` of the all-position pattern, then of the pattern
    reading x on slot j alone, j = 1 ... n: O(n d^3) time, O(n d^2) bytes.

    A forward pass carries the [x, i] stack as ``_chain`` does, keeping
    rho_j, the identity row's state just before step j's table. A backward
    pass carries the effect in the Heisenberg picture, where the sandwich
    with the Hermitian identity table F turns into the one with conj(F)
    and the inverse basis turn, giving E_j, the effect just after step j.
    Slot j reads Tr(E_j (F^x_j o rho_j)). Each row's imaginary residue is
    judged at its own scale: the x peaks' product, or slot j's x peak
    alone, as identity tables peak at 1.
    """
    kinds = (PointerOperatorKind.POSITION, PointerOperatorKind.IDENTITY)
    n, d = scn.n_steps, scn.dim
    tables = np.empty((n, 2, d, d), dtype=complex)
    turns = np.empty((n, d, d), dtype=complex)
    before = np.empty((n, d, d), dtype=complex)
    state, basis = np.stack([scn.initial.matrix] * 2), None
    for j, step in enumerate(scn.steps):
        tables[j] = _step_tables(step, kinds)
        vectors = step.observable.decomposition.eigenvectors
        turns[j] = turn = vectors.conj().T if basis is None else vectors.conj().T @ basis
        state = turn @ state @ turn.conj().T
        before[j] = state[1]
        state = tables[j] * state
        basis = vectors
    if scn.post is None:
        effect = np.eye(d, dtype=complex)
        traces = np.trace(state, axis1=1, axis2=2)
    else:
        effect = basis.conj().T @ scn.post.matrix @ basis
        traces = (effect.T * state).sum(axis=(1, 2))
    slots = np.empty(n, dtype=complex)
    for j in reversed(range(n)):
        x, identity = tables[j]
        slots[j] = (effect.T * x * before[j]).sum()
        effect = turns[j].conj().T @ (effect * identity.conj()) @ turns[j]
    if not (np.isfinite(traces).all() and np.isfinite(slots).all()):
        raise NumericError("moment chain is not finite; a pointer width is too extreme for floating point")
    probability = float(traces[1].real)
    check_probability(probability)
    peaks = np.abs(tables[:, 0]).max(axis=(1, 2))
    return [_result(value, peak, probability) for value, peak in zip([traces[0], *slots], [math.prod(peaks), *peaks])]


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
        raise InputError(
            "the weak-regime engine covers first-order x/p moments only; "
            "use the exact engine for squared readouts"
        )
    tables = [
        _step_tables(step, (kind, PointerOperatorKind.IDENTITY), exact=False) for step, kind in zip(scn.steps, pat.kinds)
    ]
    (numerator,), probability = _chain(scn, tables)
    return _result(numerator, math.prod(np.abs(table[0]).max() for table in tables), probability)


def steps_outside_weak_regime(scn: Scenario) -> tuple[int, ...]:
    """Indices of the steps whose pointer fails ``weak_regime_check``,
    judged against the scenario's sequential weak value."""
    magnitude = abs(seq_weak_value(scn.initial, scn.post, [step.observable for step in scn.steps]))
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
    (numerator,), probability = _chain(scn, tables)
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


def sample_footprint(scn: Scenario, shots: int) -> int:
    """Bytes of per-shot arrays ``sample_outcomes`` holds at once, at most;
    the scenario-sized arrays beside them (O(n d^2) bytes) are not counted.

    Per shot: the n samples; the kets before and after a rotation, or the
    kets beside the populations and one (d, shots) work array, 4d floats
    either way; four per-shot vectors and a (d - 1)-row boolean mask while
    an eigenindex is drawn. Post-selection adds the retained copy of the
    samples.
    """
    n, d = scn.n_steps, scn.dim
    return shots * (8 * (n + 4 * d + 4) + d + (8 * n if scn.post is not None else 0))


def _draw_index(rng, populations, shots: int) -> np.ndarray:
    """One index per shot, k with probability populations[k] / sum_k, from
    one uniform u each: k counts the running sums at or below u * total.
    ``populations`` is (d, shots), or (d, 1) for one law shared by all."""
    cumulative = populations.copy()
    for row in range(1, len(cumulative)):
        cumulative[row] += cumulative[row - 1]
    threshold = rng.random(shots) * cumulative[-1]
    return (cumulative[:-1] <= threshold).sum(axis=0)


def _realify(matrix: np.ndarray) -> np.ndarray:
    """The real (2d, 2d) matrix acting on stacked [Re psi; Im psi] as
    ``matrix`` acts on psi."""
    return np.block([[matrix.real, -matrix.imag], [matrix.imag, matrix.real]])


def _read_pointer(rng, kets: np.ndarray, a: np.ndarray, sigma: float) -> np.ndarray:
    """Read one pointer on every shot and apply its Kraus update in place.

    ``kets`` is the (2, d, shots) stack of real and imaginary parts in the
    eigenbasis of the measured observable, whose eigenvalues are ``a``.
    Returns the readings x = a_k + sigma z. The work arrays die on return,
    before the next rotation allocates, as ``sample_footprint`` counts.
    """
    shots = kets.shape[-1]
    populations = kets[0] ** 2
    populations += kets[1] ** 2
    x = a[_draw_index(rng, populations, shots)] + sigma * rng.standard_normal(shots)
    weights = np.subtract.outer(a, x)
    weights **= 2
    weights -= weights.min(axis=0)
    weights /= -4.0 * sigma**2
    np.exp(weights, out=weights)
    # The updated ket's squared norm is sum_k populations_k weights_k^2.
    populations *= weights
    populations *= weights
    weights /= np.sqrt(populations.sum(axis=0))
    kets *= weights
    return x


# The Kraus weights of a very narrow pointer overflow to exp(-inf) = 0.
@np.errstate(over="ignore")
def sample_outcomes(
    scn: Scenario,
    shots: int,
    seed: int,
    probability: float | None = None,
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

    The kets are held shot-contiguous, as a (2d, shots) stack of real and
    imaginary parts, so each step is one (2d, 2d) @ (2d, shots) rotation
    and a few length-shots vector operations per eigenindex. Cost is
    O(shots n d^2) time; memory is ``sample_footprint``, checked against
    ``errors.MEMORY_LIMIT`` before anything is allocated. The stream is
    deterministic in ``seed``.

    ``probability`` is the scenario's Tr(eta) when the caller already
    holds it, as the rows of ``position_moments`` do; by default the
    identity chain is run here. Either way a probability at or below the
    threshold raises ZeroPostSelectionProbability before any shot is drawn.
    """
    if shots < 1:
        raise InputError(f"shots must be at least 1, got {shots}")
    if seed < 0:
        raise InputError(f"seed must be at least 0, got {seed}")
    check_footprint(sample_footprint(scn, shots), f"{shots} shots")
    if probability is None:
        identity = [_step_tables(step, (PointerOperatorKind.IDENTITY,)) for step in scn.steps]
        _, probability = _chain(scn, identity)
    else:
        check_probability(probability)

    rng = np.random.default_rng(seed)
    weights, basis = np.linalg.eigh(scn.initial.matrix)
    weights = np.clip(weights, 0.0, None)[:, np.newaxis]
    samples = np.empty((shots, scn.n_steps))
    kets = None
    for j, step in enumerate(scn.steps):
        decomposition = step.observable.decomposition
        turn = _realify(decomposition.eigenvectors.conj().T @ basis)
        basis = decomposition.eigenvectors
        # Every initial ket is a column of ``basis``, so the first turn gathers.
        kets = np.take(turn, _draw_index(rng, weights, shots), axis=1) if kets is None else turn @ kets
        samples[:, j] = _read_pointer(
            rng, kets.reshape(2, scn.dim, shots), decomposition.eigenvalues, step.pointer.sigma
        )

    if scn.post is not None:
        projected = _realify(basis.conj().T @ scn.post.matrix @ basis) @ kets
        projected *= kets
        kept = projected.sum(axis=0)
        samples = samples[rng.random(shots) < kept]
    stats = SampleStatistics(
        requested_shots=shots,
        retained_shots=samples.shape[0],
        postselection_probability=probability,
        acceptance_rate=1.0,
        method="sequential",
    )
    return samples, stats
