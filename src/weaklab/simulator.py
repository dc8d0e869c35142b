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

``sample_outcomes`` draws i.i.d. pointer-position tuples from the exact
joint density (a signed mixture of Gaussian products) by rejection
against a nonnegative envelope mixture, so Monte-Carlo runs agree with
``exact_moment`` up to shot noise.
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
    EnvelopeConstructionFailure,
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
    method: EvaluationMethod


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
    return MomentResult(value.real, probability, EvaluationMethod.EXACT)


def weak_prediction(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """First-order weak-regime value of the requested moment.

    Identity slots are marginalized out; remaining slots must read
    position or momentum. Each momentum slot carries a factor
    1/(2 sigma^2); the result is normalized by Tr(E rho).
    """
    _check_pattern(scn, pat)
    readouts = [_weak_readout(step, kind) for step, kind in zip(scn.steps, pat.kinds)]
    numerator, probability = _chain(scn, EvaluationMethod.WEAK_REGIME, readouts)
    return MomentResult(numerator.real / probability, probability, EvaluationMethod.WEAK_REGIME)


def steps_outside_weak_regime(scn: Scenario, ratio: float = 10.0) -> tuple[int, ...]:
    """Indices of the steps whose pointer fails ``weak_regime_check`` at
    ``ratio``, judged against the scenario's sequential weak value."""
    magnitude = abs(seq_weak_value(scn.initial, scn.post, scn.sequence()).value)
    return tuple(
        index
        for index, step in enumerate(scn.steps)
        if not weak_regime_check(step.pointer, step.observable.decomposition.eigenvalues, magnitude, ratio)
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
    """Bookkeeping for one sampling run."""

    requested_shots: int
    retained_shots: int
    postselection_probability: float
    envelope_mass: float
    acceptance_rate: float
    method: str
    seed: int


@dataclass(frozen=True)
class _JointDensity:
    """Exact joint pointer-position density as a signed Gaussian mixture.

    Term t picks one eigenindex pair (k, l) per step; its weight is the
    system coefficient times the per-step overlap factors, and its shape
    is a product of Gaussians centered at the midpoints (a_k + a_l)/2.
    """

    weights: np.ndarray          # (d^2,) * n, signed term weights W
    pair_means: list[np.ndarray]     # per step: (d^2,) Gaussian centers
    sigmas: np.ndarray           # (n,)
    eigenvalues: list[np.ndarray]    # per step: (d,) diagonal centers
    envelope_weights: np.ndarray     # (d,) * n, nonnegative
    total_mass: float            # Tr(eta), the exact retention probability

    @property
    def n_steps(self) -> int:
        return self.sigmas.size


def _joint_density(scn: Scenario) -> _JointDensity:
    """Enumerate the signed mixture and its dominating envelope.

    The envelope distributes each term's |coefficient| over the 2^n
    corner tuples of its eigenindex pairs, using the pointwise bound
    N(x; (a+b)/2) <= exp((a-b)^2 / (8 s^2)) (N(x; a) + N(x; b)) / 2,
    whose inflation factor exactly cancels the term's overlap factor.
    """
    n = scn.n_steps
    d = scn.dim
    decomps = [step.observable.decomposition for step in scn.steps]
    effect = _effect_matrix(scn)

    # Chain amplitudes amp[k_1, ..., k_n] = prod <v_{j+1, k_{j+1}} | v_j, k_j>.
    amp = np.ones((d,), dtype=complex)
    for j in range(n - 1):
        overlap = decomps[j + 1].eigenvectors.conj().T @ decomps[j].eigenvectors  # [k_{j+1}, k_j]
        amp = amp[..., :, None] * overlap.T[(None,) * j + (slice(None), slice(None))]
    # amp now has shape (d,) * n with axes ordered k_1 ... k_n.

    v_first = decomps[0].eigenvectors
    v_last = decomps[-1].eigenvectors
    rho_elements = v_first.conj().T @ scn.initial.matrix @ v_first
    effect_elements = v_last.conj().T @ effect @ v_last

    # Coefficients C[k_vec, l_vec] = amp(k) conj(amp(l)) <v_k1|rho|v_l1> <v_ln|E|v_kn>.
    c = amp.reshape(amp.shape + (1,) * n) * amp.conj().reshape((1,) * n + amp.shape)
    k1 = np.arange(d).reshape((d,) + (1,) * (2 * n - 1))
    l1 = np.arange(d).reshape((1,) * n + (d,) + (1,) * (n - 1))
    kn = np.arange(d).reshape((1,) * (n - 1) + (d,) + (1,) * n)
    ln = np.arange(d).reshape((1,) * (2 * n - 1) + (d,))
    c = c * rho_elements[k1, l1] * effect_elements[ln, kn]

    # Reorder axes to pairs (k_j, l_j) per step and flatten each pair axis.
    order = []
    for j in range(n):
        order.extend([j, n + j])
    c = np.transpose(c, order).reshape((d * d,) * n)

    pair_means, overlaps = [], []
    for j in range(n):
        a = decomps[j].eigenvalues
        right, left = np.meshgrid(a, a, indexing="ij")  # pair index = k * d + l
        right = right.reshape(-1)
        left = left.reshape(-1)
        pair_means.append(0.5 * (right + left))
        overlaps.append(np.exp(-((right - left) ** 2) / (8.0 * scn.steps[j].pointer.sigma ** 2)))

    weights = c
    for j in range(n):
        shape = [1] * n
        shape[j] = d * d
        weights = weights * overlaps[j].reshape(shape)

    total_mass = float(weights.sum().real)
    if total_mass <= ZERO_PROBABILITY_TOL:
        raise ZeroPostSelectionProbability(
            f"exact post-selection probability {total_mass:.3e} below threshold"
        )

    # Envelope: contract |C| with the per-step corner-splitting matrix.
    split = np.zeros((d * d, d))
    for k in range(d):
        for l in range(d):
            split[k * d + l, k] += 0.5
            split[k * d + l, l] += 0.5
    envelope = np.abs(c)
    for _ in range(n):
        # Contracting axis 0 each round cycles the axes, so after n rounds
        # the envelope axes are back in step order.
        envelope = np.tensordot(envelope, split, axes=([0], [0]))

    if not np.all(np.isfinite(envelope)) or envelope.sum() <= 0:
        raise EnvelopeConstructionFailure("envelope weights are not finite and positive")

    return _JointDensity(
        weights=weights,
        pair_means=pair_means,
        sigmas=np.array(scn.sigmas()),
        eigenvalues=[dec.eigenvalues for dec in decomps],
        envelope_weights=envelope,
        total_mass=total_mass,
    )


def _gaussian_pdf(x: np.ndarray, mean: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))


def _density_at(density: _JointDensity, points: np.ndarray) -> np.ndarray:
    """Unnormalized exact density at each row of ``points``."""
    n = density.n_steps
    acc = np.broadcast_to(density.weights, (points.shape[0],) + density.weights.shape)
    for j in range(n):
        g = _gaussian_pdf(points[:, j:j + 1], density.pair_means[j][None, :], density.sigmas[j])
        shape = (points.shape[0],) + tuple(
            g.shape[1] if axis == 0 else 1 for axis in range(n - j)
        )
        acc = acc * g.reshape(shape)
        acc = acc.sum(axis=1)
    return acc.real


def _envelope_at(density: _JointDensity, points: np.ndarray) -> np.ndarray:
    """Envelope mixture (unnormalized) at each row of ``points``."""
    n = density.n_steps
    acc = np.broadcast_to(density.envelope_weights, (points.shape[0],) + density.envelope_weights.shape)
    for j in range(n):
        g = _gaussian_pdf(points[:, j:j + 1], density.eigenvalues[j][None, :], density.sigmas[j])
        shape = (points.shape[0],) + tuple(
            g.shape[1] if axis == 0 else 1 for axis in range(n - j)
        )
        acc = acc * g.reshape(shape)
        acc = acc.sum(axis=1)
    return acc


_REJECTION_BATCH = 8192


def _sample_rejection(
    density: _JointDensity,
    count: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Draw ``count`` tuples by rejection; returns (samples, proposals used)."""
    n = density.n_steps
    flat_weights = density.envelope_weights.reshape(-1)
    mixture = flat_weights / flat_weights.sum()
    shape = density.envelope_weights.shape
    out = np.empty((count, n))
    filled = 0
    proposals = 0
    while filled < count:
        batch = min(_REJECTION_BATCH, max(256, 2 * (count - filled)))
        component = rng.choice(mixture.size, size=batch, p=mixture)
        centers = np.column_stack(
            [density.eigenvalues[j][idx] for j, idx in enumerate(np.unravel_index(component, shape))]
        )
        points = centers + rng.standard_normal((batch, n)) * density.sigmas[None, :]
        target = _density_at(density, points)
        envelope = _envelope_at(density, points)
        # far tails can underflow both densities to 0; treat 0/0 as reject
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(envelope > 0.0, target / envelope, 0.0)
        if np.any(ratio > 1.0 + 1e-6):
            raise EnvelopeConstructionFailure(
                f"density exceeded its envelope by {np.max(ratio) - 1.0:.3e}"
            )
        accept = rng.random(batch) < np.clip(ratio, 0.0, 1.0)
        proposals += batch
        accepted = points[accept]
        take = min(accepted.shape[0], count - filled)
        out[filled:filled + take] = accepted[:take]
        filled += take
    return out, proposals


_GRID_TOTAL_CELLS = 2**18
_GRID_PAD_SIGMAS = 10.0


def _sample_grid(
    density: _JointDensity,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fallback: inverse-CDF sampling on a dense product grid."""
    n = density.n_steps
    per_axis = max(16, int(round(_GRID_TOTAL_CELLS ** (1.0 / n))))
    axes = []
    for j in range(n):
        a = density.eigenvalues[j]
        pad = _GRID_PAD_SIGMAS * density.sigmas[j]
        axes.append(np.linspace(a.min() - pad, a.max() + pad, per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.reshape(-1) for m in mesh])
    cell_density = np.clip(_density_at(density, points), 0.0, None)
    cdf = np.cumsum(cell_density)
    if cdf[-1] <= 0:
        raise EnvelopeConstructionFailure("grid fallback found no probability mass")
    cdf /= cdf[-1]
    cells = np.searchsorted(cdf, rng.random(count))
    sample = points[cells]
    half_widths = np.array([(axis[1] - axis[0]) / 2.0 for axis in axes])
    return sample + rng.uniform(-1.0, 1.0, size=sample.shape) * half_widths[None, :]


def sample_outcomes(
    scn: Scenario,
    shots: int,
    seed: int,
) -> tuple[np.ndarray, SampleStatistics]:
    """Simulate ``shots`` runs; returns retained pointer-position tuples.

    Post-selection retains each shot with the exact probability Tr(eta);
    retained shots are i.i.d. draws from the conditional joint density.
    The stream is deterministic in ``seed``.
    """
    if shots < 1:
        raise InputError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    density = _joint_density(scn)
    probability = density.total_mass
    if scn.post is None:
        retained = shots
    else:
        retained = int(np.count_nonzero(rng.random(shots) < probability))
    if retained == 0:
        empty = np.empty((0, scn.n_steps))
        stats = SampleStatistics(shots, 0, probability, float(density.envelope_weights.sum()), 0.0, "rejection", seed)
        return empty, stats

    try:
        samples, proposals = _sample_rejection(density, retained, rng)
        method = "rejection"
        acceptance = retained / proposals
    except EnvelopeConstructionFailure:
        samples = _sample_grid(density, retained, rng)
        method = "grid"
        acceptance = float("nan")
    stats = SampleStatistics(
        requested_shots=shots,
        retained_shots=retained,
        postselection_probability=probability,
        envelope_mass=float(density.envelope_weights.sum()),
        acceptance_rate=acceptance,
        method=method,
        seed=seed,
    )
    return samples, stats
