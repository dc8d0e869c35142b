"""Joint pointer moments for sequences of weak measurements.

A ``Scenario`` holds its four inputs as frozen arrays, checked in one pass
on the way in: the state as a density matrix rho, the observables and
pointer widths as stacks, and the post-selection effect E or None.

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
  discretization enters.

* ``weak_prediction`` uses the same tables with the Gaussian overlap set
  to 1, the first order in 1/sigma that holds for wide pointers: a
  position slot then maps X to (AX + XA)/2, a momentum slot to
  (AX - XA)/(4i sigma^2), and an identity slot leaves X alone.

Their difference is a measurable weak-regime error, which is the point:
the exact engine never borrows the approximation it is used to test.
Moments are linear in each slot's readout: ``recover_weak_value`` sums
momentum-subset moments beside the x moment, both engines in one pass.

One forward-backward core carries these engines, over the eigenvalues
and eigenbases, ``Scenario.spectrum``, that its one eigh gives.
The forward pass carries a stack of rows, one chain each, and yields the
state before each step's table; the backward pass carries the effect the
other way and yields the effect after each step. ``_chain``, the forward
pass closed by the effect, serves the one-scenario engines and
``stacked_exact_moments``, which runs a stack of scenarios.
``position_moments`` contracts every slot between the two passes, and
``sweep_moments`` only the swept one, once per grid point, both engines
in one pass pair. Arrays carry leading batch axes that broadcast. The
finiteness, post-selection and imaginary-residue checks run one at a
time, each over every batch entry, and raise with the message one
scenario would give for the first entry, in C order, that fails the
check: a not-finite entry 3 raises before a zero-probability entry 0.

``sample_outcomes`` simulates shots one Kraus update at a time: each
shot carries a system ket, and each pointer is read right after its
coupling, from the positive mixture of d Gaussians that the ket's
populations define. No envelope and no rejection is needed, and
Monte-Carlo runs agree with ``exact_moment`` up to shot noise. A first
pass over the random stream draws every step's normals into the
readings; a second runs one cache-sized block of shots at a time through
every step, so only the readings span every shot. It takes O(shots n d^2)
time and the memory that ``sample_footprint`` counts before any allocation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from . import qm
from .errors import DimensionMismatch, InputError, NumericError, WeakLabError, check_count, check_footprint
from .pointer import GaussianPointer, PointerOperatorKind, _step_tables, check_widths, refused_widths
from .weak_values import check_probability, seq_weak_value

MOMENT_IMAG_TOL = 1e-10
# A pointer counts as weak when its width is this many times the largest
# eigenvalue and weak-value magnitudes. A convention, not a sharp boundary.
WEAK_REGIME_RATIO = 10.0
_SQUARED = (PointerOperatorKind.POSITION_SQUARED, PointerOperatorKind.MOMENTUM_SQUARED)
_IDENTITY = PointerOperatorKind.IDENTITY
_NOT_FINITE = "moment chain is not finite; a pointer width or an eigenvalue is too extreme for floating point"


@dataclass(frozen=True)
class MeasurementStep:
    """One weak coupling: the observable (d, d) and the pointer that
    records it. A sequence of them is ``Scenario``'s ``steps`` form."""

    observable: np.ndarray
    pointer: GaussianPointer


@dataclass(frozen=True, eq=False)
class Scenario:
    """Initial state, the measured observables (n, d, d), first measured
    first, their pointer widths (n,), and an optional post-selection
    effect (d, d), None for E = I. The state is a unit ket (d,) or a
    density matrix (d, d), told apart by shape, and is held as a density
    matrix. ``steps``, a sequence of ``MeasurementStep``s, is another way
    to give the two stacks.

    Each input is read as an array, or refused naming its argument, then
    checked in one pass and held frozen: finiteness and Hermiticity over the
    stack [rho, A_1 ... A_n, E], rho if given as a matrix, the width rule,
    and one eigh of the stack for the state's and the effect's spectrum
    rules and ``spectrum``, the observables' eigenvalues (n, d), ascending,
    and eigenvector columns (n, d, d), any orthonormal basis of a degenerate
    subspace. A refusal, or shapes that do not fit, raise the first fault
    that ``_raise_first_fault`` meets."""

    initial: np.ndarray
    observables: np.ndarray = None
    widths: np.ndarray = None
    post: np.ndarray | None = None
    steps: InitVar[Sequence[MeasurementStep] | None] = None
    post_norm: float = field(init=False, default=1.0)  # E's largest eigenvalue; 1 for E = I
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, default=None, repr=False)

    @np.errstate(over="ignore")
    def __post_init__(self, steps):
        observables, widths = self.observables, self.widths
        if steps is not None:
            if observables is not None or widths is not None:
                raise InputError("give a scenario's steps or its observables and widths, not both")
            steps = tuple(steps)
            observables, widths = [step.observable for step in steps], [step.pointer.sigma for step in steps]
        initial = qm.read_array(self.initial, complex, "initial")
        observables = qm.read_array(observables, complex, "observables")
        widths = qm.read_array(widths, float, "widths")
        post = None if self.post is None else qm.read_array(self.post, complex, "post")
        if initial.ndim == 1:
            qm.check_kets(initial)
        d, lead = initial.shape[-1] if initial.ndim else 0, int(initial.ndim == 2)
        faults = not (
            observables.size and initial.shape in ((d,), (d, d)) and widths.ndim == 1
            and observables.shape == (len(widths), d, d) and (post is None or post.shape == (d, d))
        )
        if not faults:
            parts = [observables] if post is None else [observables, post[np.newaxis]]
            stack = np.concatenate([initial[np.newaxis], *parts] if lead else parts)
            faults = not np.isfinite(stack).all() or qm.refused_hermitian(stack)[1].any()
            faults = faults or refused_widths(widths).any()
        if not faults:
            values, vectors = np.linalg.eigh(stack)
            faults = lead and (qm.refused_spectra(values[0]) or qm.refused_norms(np.trace(initial).real))
            faults = faults or post is not None and qm.refused_spectra(values[-1], 1.0)
        if faults:
            _raise_first_fault(initial, observables, widths, post)
        stack, rows = qm._freeze(stack), slice(lead, lead + len(widths))
        object.__setattr__(self, "initial", stack[0] if lead else qm._freeze(qm.projectors_from_kets(initial)))
        object.__setattr__(self, "observables", stack[rows])
        object.__setattr__(self, "widths", qm._freeze(np.array(widths)))
        object.__setattr__(self, "spectrum", (qm._freeze(values)[rows], qm._freeze(vectors)[rows]))
        if post is not None:
            object.__setattr__(self, "post", stack[-1])
            object.__setattr__(self, "post_norm", float(values[-1, -1]))

    @property
    def dim(self) -> int:
        return len(self.initial)

    @property
    def n_steps(self) -> int:
        return len(self.widths)


def _raise_first_fault(initial, observables, widths, post) -> None:
    """Raises the first fault of a scenario's inputs, read as arrays, a ket
    state checked, in this order: the density matrix's shape and check; the
    stacks' shapes, ``qm.check_observables`` and ``pointer.check_widths``;
    the effect's shape and ``qm.check_effects``."""
    if initial.ndim != 1:
        qm.check_densities(qm.square_matrix(initial, "density matrix"))
    if not observables.size:
        raise InputError("a scenario needs at least one measurement step")
    d = len(initial)
    if widths.ndim != 1 or observables.shape != (len(widths), d, d):
        raise DimensionMismatch(
            f"observables of shape {observables.shape} and widths of shape {widths.shape} "
            f"are not (n, {d}, {d}) and (n,) for state dimension {d}"
        )
    qm.check_observables(observables)
    check_widths(widths)
    if post is not None:
        post = qm.square_matrix(post, "POVM element")
        if len(post) != d:
            raise DimensionMismatch(f"post-selection dimension {len(post)} != state dimension {d}")
        qm.check_effects(post)


@dataclass(frozen=True)
class MomentPattern:
    """Per-step readout choice defining one joint pointer moment: each step
    takes a ``PointerOperatorKind`` or its letter, i, x, X, p or P."""

    kinds: tuple[PointerOperatorKind, ...]

    def __post_init__(self):
        try:
            kinds = tuple(PointerOperatorKind(kind) for kind in self.kinds)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad pattern {self.kinds!r}: {exc}; use i/x/X/p/P") from None
        object.__setattr__(self, "kinds", kinds)

    @classmethod
    def from_string(cls, text: str) -> "MomentPattern":
        """Parse one character per step: i, x, X, p, P."""
        return cls(text)

    @classmethod
    def all_position(cls, n: int) -> "MomentPattern":
        return cls([PointerOperatorKind.POSITION] * n)

    def __str__(self) -> str:
        return "".join(kind.value for kind in self.kinds)

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class MomentResult:
    value: float
    postselection_probability: float


def _adjoint(matrices: np.ndarray) -> np.ndarray:
    return matrices.conj().swapaxes(-1, -2)


# The transfer-operator core. Each pass carries a stack of rows, (..., K, d, d),
# one chain per row, through the steps in their eigenbases. Leading batch axes
# may differ between the arrays it reads, and broadcast.

def _turns(bases: np.ndarray) -> np.ndarray:
    """The turns U_j = V_j^H V_{j-1} into each step's eigenbasis from the one
    before, U_1 = V_1^H from the computational basis, for eigenvector
    columns V_j, ``bases`` (..., n, d, d)."""
    turns = _adjoint(bases)
    return np.concatenate([turns[..., :1, :, :], turns[..., 1:, :, :] @ bases[..., :-1, :, :]], axis=-3)


def _last_effect(bases: np.ndarray, effect: np.ndarray | None) -> np.ndarray:
    """The effect in the last step's eigenbasis; the identity for None."""
    if effect is None:
        return np.eye(bases.shape[-1], dtype=complex)
    last = bases[..., -1, :, :]
    return _adjoint(last) @ effect @ last


def _forward(initial, turns, tables):
    """The forward pass: yields rho_j, the rows just before step j's table
    in its eigenbasis, for each step, then the rows after the last table.
    Step j maps X to F_j o (U_j X U_j^H), with F_j the (..., K, d, d) stack
    ``tables[..., j, :, :, :]`` of the tables (..., n, K, d, d); ``initial``
    is (..., d, d). The turns' adjoints are taken once, before the first step."""
    state = initial[..., np.newaxis, :, :]
    turns, inverses = turns[..., np.newaxis, :, :], _adjoint(turns)[..., np.newaxis, :, :]
    for j in range(tables.shape[-4]):
        state = turns[..., j, :, :, :] @ state @ inverses[..., j, :, :, :]
        yield state
        state = tables[..., j, :, :, :] * state
    yield state


def _backward(effect, turns, tables):
    """The backward pass: yields E_j, the effect just after step j in its
    eigenbasis, last step first, so each row's trace is Tr(E_j (F_j o rho_j)),
    from ``_last_effect``'s. In the Heisenberg picture the sandwich with a
    Hermitian table F is the one with conj(F) and the inverse turn, taken once."""
    effect = effect[..., np.newaxis, :, :]
    turns, inverses = turns[..., np.newaxis, :, :], _adjoint(turns)[..., np.newaxis, :, :]
    for j in reversed(range(tables.shape[-4])):
        yield effect
        effect = inverses[..., j, :, :, :] @ (effect * tables[..., j, :, :, :].conj()) @ turns[..., j, :, :, :]


def _close(state, bases, effect):
    """Tr(E X) for each row X of the stack after the last table."""
    if effect is None:
        return np.trace(state, axis1=-2, axis2=-1)
    return (_last_effect(bases, effect).swapaxes(-1, -2)[..., np.newaxis, :, :] * state).sum(axis=(-2, -1))


def _slot(effect, table, state):
    """Tr(E (F o rho)) per row: one slot's tables between the two passes."""
    return (effect.swapaxes(-1, -2) * table * state).sum(axis=(-2, -1))


def _checked(traces, norm) -> tuple[np.ndarray, np.ndarray]:
    """Splits closed chains (..., K), whose last reads Tr(eta), into the
    K - 1 others, (..., K - 1), and Tr(eta), (...), after two checks, each
    over every batch entry: every trace finite, else NumericError; then
    ``check_probability`` on Tr(eta) and the effect's ``norm``. A not-finite
    entry thus raises before an earlier one whose probability is too low."""
    if not np.isfinite(traces).all():
        raise NumericError(_NOT_FINITE)
    probability = traces[..., -1].real
    check_probability(probability, norm)
    return traces[..., :-1], probability


def _chain(initial, bases, tables, effect, norm) -> tuple[np.ndarray, np.ndarray]:
    """Tr(E T_n(... T_1(rho))) for each chain of a stack, the forward pass
    closed by the effect: T_j(X) = sum_kl F[k, l] P_k X P_l, with P_k the
    eigenprojectors of ``bases[..., j, :, :]`` and F the matching table of
    ``tables[..., j, :, :, :]``; E is ``effect`` of largest eigenvalue ``norm``,
    or I. The last chain of each stack must read the identity on every
    slot: ``_checked`` splits its trace, Tr(eta), from the other K - 1."""
    for state in _forward(initial, _turns(bases), tables):
        pass
    return _checked(_close(state, bases, effect), norm)


def _values(numerator, peak, probability) -> np.ndarray:
    """numerator / Tr(eta) per batch entry; the first entry whose imaginary
    residue passes MOMENT_IMAG_TOL x max(1, peak / Tr(eta)) raises NumericError,
    ``peak`` being the chain's term size: its table peaks' product (about sigma^2n for X)."""
    # Python's complex / float, as one scenario at a time divided: (re + im * 0) / p.
    value = (numerator.real + numerator.imag * 0.0) / probability
    residue, scale = numerator.imag / probability, np.fmax(1.0, peak / probability)
    leaks = np.abs(residue) > MOMENT_IMAG_TOL * scale
    if leaks.any():
        first = leaks.argmax()
        raise NumericError(f"moment has imaginary residue {residue.flat[first]:.3e} at scale {scale.flat[first]:.3e}")
    return value


def _moments(initial, bases, tables, effect, norm) -> tuple[np.ndarray, np.ndarray]:
    """Moment and Tr(eta) of each [pattern, identity] chain of a stack."""
    traces, probability = _chain(initial, bases, tables, effect, norm)
    peak = np.abs(tables[..., 0, :, :]).max(axis=(-2, -1)).prod(axis=-1)
    return _values(traces[..., 0], peak, probability), probability


def _pattern_tables(eigenvalues, widths, pat: MomentPattern, engine: str = "exact") -> np.ndarray:
    """Each step's [pattern, identity] tables, (..., n, 2, d, d), from
    eigenvalues (..., n, d) and widths (..., n) that broadcast, for the
    ``_step_tables`` ``engine`` (on its leading axis for "both"), after the
    pattern checks each engine makes first. One ``_step_tables`` call builds the pattern's distinct kinds and
    the identity on every step, gathered unless already in that order."""
    n = eigenvalues.shape[-2]
    if len(pat) != n:
        raise InputError(f"pattern has {len(pat)} slots for {n} measurement steps")
    if engine != "exact" and any(kind in _SQUARED for kind in pat.kinds):
        raise InputError(
            "the weak-regime engine covers first-order x/p moments only; "
            "use the exact engine for squared readouts"
        )
    kinds = tuple(dict.fromkeys((*pat.kinds, _IDENTITY)))
    picks = [[kinds.index(kind), kinds.index(_IDENTITY)] for kind in pat.kinds]
    tables = _step_tables(eigenvalues, widths, kinds, engine)
    return tables if picks == [[0, 1]] * n else tables[..., np.arange(n)[:, np.newaxis], picks, :, :]


def _moment(scn: Scenario, pat: MomentPattern, engine: str) -> MomentResult:
    eigenvalues, bases = scn.spectrum
    tables = _pattern_tables(eigenvalues, scn.widths, pat, engine)
    value, probability = _moments(scn.initial, bases, tables, scn.post, scn.post_norm)
    return MomentResult(float(value), float(probability))


# Very narrow widths overflow table entries: the overlap reads exp(-inf) = 0,
# its right limit, and an inf or nan that reaches a trace makes ``_chain``
# raise NumericError, so the analytic engines run with numpy's warnings off.
@np.errstate(all="ignore")
def exact_moment(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """Exact joint moment Tr(M eta) / Tr(eta) for the requested pattern.

    Supports all five readout kinds. Normalization uses the exact
    post-selection probability Tr(eta), not its weak-limit stand-in.
    """
    return _moment(scn, pat, "exact")


@np.errstate(all="ignore")
def position_moments(scn: Scenario) -> list[MomentResult]:
    """``exact_moment`` of the all-position pattern, then of the pattern
    reading x on slot j alone, j = 1 ... n, in O(n d^3) time; per step it
    holds the [x, i] tables, the turn, its adjoint and rho_j: 5 d x d arrays.

    The forward pass carries the [x, i] rows, as ``_chain`` does, and keeps
    the identity row's rho_j; the backward pass carries the identity row's
    effect, and slot j reads Tr(E_j (F^x_j o rho_j)). Each row's imaginary
    residue is judged at its own scale: the x peaks' product, or slot j's."""
    n, d = scn.n_steps, scn.dim
    eigenvalues, bases = scn.spectrum
    tables = _step_tables(eigenvalues, scn.widths, (PointerOperatorKind.POSITION, _IDENTITY))
    turns = _turns(bases)
    before = np.empty((n + 1, d, d), dtype=complex)  # rho_j, then the identity row after the last table
    for j, state in enumerate(_forward(scn.initial, turns, tables)):
        before[j] = state[-1]
    # [product, slot 1, ..., slot n, Tr(eta)]
    traces = np.empty(n + 2, dtype=complex)
    traces[0], traces[-1] = _close(state, bases, scn.post)
    for j, effect in zip(reversed(range(n)), _backward(_last_effect(bases, scn.post), turns, tables[:, 1:])):
        traces[1 + j] = _slot(effect[0], tables[j, 0], before[j])
    numerators, probability = _checked(traces, scn.post_norm)
    peaks = np.abs(tables[:, 0]).max(axis=(1, 2))
    values = _values(numerators, np.array([math.prod(peaks), *peaks]), probability)
    return [MomentResult(value, float(probability)) for value in values.tolist()]


@np.errstate(all="ignore")
def weak_prediction(scn: Scenario, pat: MomentPattern) -> MomentResult:
    """First-order weak-regime value of the requested moment.

    Identity slots are marginalized out; remaining slots must read
    position or momentum. Each momentum slot carries a factor
    1/(2 sigma^2); the result is normalized by Tr(E rho).
    """
    return _moment(scn, pat, "weak")


@np.errstate(all="ignore")
def stacked_exact_moments(
    initial: np.ndarray, observables: np.ndarray, sigmas: np.ndarray, pat: MomentPattern
) -> np.ndarray:
    """``exact_moment`` of each scenario of a stack without post-selection,
    given as valid arrays, which it does not check: initial density matrices
    (..., d, d), observables (..., n, d, d), first measured first, and
    widths (..., n). One batched eigh decomposes every observable."""
    eigenvalues, bases = np.linalg.eigh(observables)
    return _moments(initial, bases, _pattern_tables(eigenvalues, sigmas, pat), None, 1.0)[0]


# Table entries, points times d^2, that one chunk of ``sweep_moments``
# contracts at once. A point holds both engines' swept [pattern, identity]
# tables and two products of their size, beside smaller work arrays: 3.3 to
# 3.7 MB per chunk at the peak (tracemalloc, d = 2 to 32).
SWEEP_CHUNK_ENTRIES = 2**14


@np.errstate(all="ignore")
def sweep_moments(scn: Scenario, pat: MomentPattern, index: int, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exact_moment`` and ``weak_prediction`` of ``pat`` with step
    ``index``'s pointer width set to each of ``widths`` in turn.

    Only the swept slot's tables depend on the width. With both engines'
    tables on one leading axis, one forward pass gives that slot's rho and
    one backward pass its E, and each chunk of widths costs one slot
    contraction: O(n d^3 + G d^2). The grid runs in chunks, to bound memory,
    through the engines' own checks. A run of points that fails one is
    halved, first half first; a single point that fails reruns alone through
    both engines, in a copy of the scenario with that width, which
    ``Scenario`` checks, so the error is the one a loop over the widths
    meets first; a point that passes alone keeps the values it gets there.
    An ``index`` outside [0, n) and ``widths`` unreadable or not 1-D are
    refused first."""
    index = check_count("index", index, 0, scn.n_steps - 1)
    widths = qm.read_array(widths, float, "widths")
    if widths.ndim != 1:
        raise DimensionMismatch(f"swept widths must be one-dimensional, got shape {widths.shape}")
    eigenvalues, bases = scn.spectrum
    turns, unswept = _turns(bases), np.arange(scn.n_steps) != index
    values, passes = np.empty((2, len(widths))), []

    def fill(start, stop):
        points = widths[start:stop]
        try:
            if not refused_widths(points).any():
                if not passes:  # built in the first run, so a pass that fails reaches point 0 by halving
                    # Exact, then weak, on a leading engine axis, which the passes carry; the swept step's are never read.
                    fixed = _pattern_tables(eigenvalues, scn.widths, pat, "both")
                    state = next(itertools.islice(_forward(scn.initial, turns, fixed), index, None))
                    effects = _backward(_last_effect(bases, scn.post), turns, fixed)
                    effect = next(itertools.islice(effects, scn.n_steps - 1 - index, None))
                    peak = np.abs(fixed[:, unswept, 0]).max(axis=(-2, -1)).prod(axis=-1)
                    # A point axis before the rows, as the points' tables (2, points, 2, d, d) have.
                    passes[:] = state[..., np.newaxis, :, :, :], effect[..., np.newaxis, :, :, :], peak[:, np.newaxis]
                state, effect, peak = passes
                tables = _step_tables(eigenvalues[index], points, (pat.kinds[index], _IDENTITY), "both")
                numerators, probability = _checked(_slot(effect, tables, state), scn.post_norm)
                peaks = peak * np.abs(tables[..., 0, :, :]).max(axis=(-2, -1))
                values[:, start:stop] = _values(numerators[..., 0], peaks, probability)
                return
        except WeakLabError:
            pass
        if stop - start == 1:
            varied = replace(scn, widths=np.where(unswept, scn.widths, widths[start]))
            values[:, start] = _moment(varied, pat, "exact").value, _moment(varied, pat, "weak").value
        else:
            fill(start, (start + stop) // 2)
            fill((start + stop) // 2, stop)

    size = max(1, SWEEP_CHUNK_ENTRIES // scn.dim**2)
    for start in range(0, len(widths), size):
        fill(start, min(start + size, len(widths)))
    return values[0], values[1]


def steps_outside_weak_regime(scn: Scenario) -> tuple[int, ...]:
    """Indices of the steps whose pointer is not weak: its width is below
    ``WEAK_REGIME_RATIO`` times its observable's largest eigenvalue
    magnitude or the magnitude of the scenario's sequential weak value. A
    magnitude that is not a number marks every step."""
    magnitude = abs(seq_weak_value(scn))
    widths, scale = scn.widths, np.abs(scn.spectrum[0]).max(axis=1)
    outside = ~((widths >= WEAK_REGIME_RATIO * scale) & (widths >= WEAK_REGIME_RATIO * magnitude))
    return tuple(np.flatnonzero(outside).tolist())


@np.errstate(all="ignore")
def recover_weak_value(scn: Scenario) -> tuple[tuple[MomentResult, complex], tuple[MomentResult, complex]]:
    """Each engine's all-position moment beside the sequential weak value
    that joint pointer moments reassemble: ``((exact, from_exact), (weak,
    from_weak))``, the moments those of ``exact_moment`` and ``weak_prediction``.

    The weak value is the sum over momentum subsets P of
    prod_{j in P} (2i sigma_j^2) m_P, where m_P reads p on the slots in P
    and x on the others: even subsets give the real part, odd ones the
    imaginary part. Every m_P is linear in each slot's readout and shares
    the denominator Tr(eta), so the sum is one chain whose step j reads
    x + 2i sigma_j^2 p = a_k ov entry by entry, with no sigma^2: finite at
    every accepted width, and A_n ... A_1 rho in the weak engine (ov = 1).
    Both engines' [x, recovery, identity] tables ride one leading axis through
    one forward pass, whose checks include the x moment's imaginary residue.

    Exact recovery is biased at finite widths; nothing here judges that.
    ``steps_outside_weak_regime`` names the steps whose pointers are too
    narrow to read it as the weak value.
    """
    eigenvalues, bases = scn.spectrum
    tables = _step_tables(eigenvalues, scn.widths, [PointerOperatorKind(code) for code in "xii"], "both")
    tables[:, :, 1] *= eigenvalues[:, :, np.newaxis]
    traces, probability = _chain(scn.initial, bases, tables, scn.post, scn.post_norm)
    moments = _values(traces[:, 0], np.abs(tables[:, :, 0]).max(axis=(-2, -1)).prod(axis=-1), probability).tolist()
    return tuple((MomentResult(m, p), t / p) for m, t, p in zip(moments, traces[:, 1].tolist(), probability.tolist()))


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of pointer positions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleStatistics:
    """Bookkeeping for one sampling run."""

    requested_shots: int
    retained_shots: int
    postselection_probability: float
    # Every draw is kept, so these are constants, not fields.
    acceptance_rate = 1.0
    method = "sequential"


# Table entries, shots times d, that one block of ``sample_outcomes`` works
# on at once: 16,384 shots at d = 2. Over the benchmark's sampling
# requests (800 to 100k shots, d = 2 to 4), one process per variant on a
# 2-core shared x86-64 VM, blocks of 2^15 entries took 0.80 of the
# whole-run arrays' time per request in the median, and 2^16 took 0.97.
SAMPLE_BLOCK_ENTRIES = 2**15


def _block_shots(d: int) -> int:
    return max(1, SAMPLE_BLOCK_ENTRIES // d)


def sample_footprint(scn: Scenario, shots: int) -> int:
    """Bytes that ``sample_outcomes`` holds at once, at most, beyond the
    scenario's own arrays.

    Per shot, 8n bytes: the n readings. Post-selection adds the kept mask
    and the retained copy of the readings, 8n + 1. One block's arrays add
    a constant of 52d + 40 bytes per block shot: the block's ket buffer,
    16d, and its uniforms, 8, then its work arrays, 36d + 32: the turned
    ket beside the buffer it replaces, 16d, then the populations, their
    running sums and the index draw beside numpy's reduction buffer. Per
    step, 64 d^2 + 256 bytes: the identity chain, run under post-selection
    only but counted always, its table beside the turns and their two work
    arrays, 64 d^2, or later the complex turns beside their realified
    copies, 48 d^2, and about 200 bytes of Python objects, each step's
    uniform-run start, width and realified-turn header (tracemalloc, 3 full
    blocks and a remainder at d = 2, 8 and 64 and n = 2, 200 and 2,000,
    with and without post-selection: 0.55 to 0.999 of this count).
    """
    n, d = scn.n_steps, scn.dim
    per_shot = 8 * n + (8 * n + 1 if scn.post is not None else 0)
    return shots * per_shot + _block_shots(d) * (52 * d + 40) + n * (64 * d * d + 256)


def _draw_index(uniforms: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """One index per shot, k with probability populations[k] / sum_k, from
    its uniform u: k counts the running sums at or below u * total.
    ``populations`` is (d, shots), or (d, 1) for one law shared by all."""
    cumulative = populations.copy()
    for row in range(1, len(cumulative)):
        cumulative[row] += cumulative[row - 1]
    threshold = uniforms * cumulative[-1]
    return (cumulative[:-1] <= threshold).sum(axis=0)


def _realify(matrix: np.ndarray) -> np.ndarray:
    """The real (2d, 2d) matrix acting on stacked [Re psi; Im psi] as
    ``matrix`` acts on psi."""
    d = len(matrix)
    real = np.empty((2 * d, 2 * d))
    real[:d, :d] = real[d:, d:] = matrix.real
    real[:d, d:], real[d:, :d] = -matrix.imag, matrix.imag
    return real


def _redraw(rng, inc: int, start: int, offset: int, out: np.ndarray) -> None:
    """Fills ``out`` with the uniforms ``offset`` doubles into a run that
    starts at the PCG64 state ``start`` of increment ``inc``; ``random``
    takes one 64-bit draw per double, so advancing skips them exactly."""
    state = {"state": start, "inc": inc}
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    rng.bit_generator.advance(offset)
    rng.random(out=out)


def _read_pointer(
    kets: np.ndarray, a: np.ndarray, sigma: float, uniforms: np.ndarray, x: np.ndarray, out: np.ndarray
) -> None:
    """Read one pointer on a block of shots and write the Kraus-updated kets
    into ``out``, which may be ``kets`` itself.

    ``kets`` is the block's (2d, shots) stack of real and imaginary parts
    in the eigenbasis of the measured observable, whose eigenvalues are
    ``a``; ``uniforms`` draw the eigenindices. ``x`` holds the block's
    standard normals z, and the readings x = a_k + sigma z overwrite them.
    """
    kets = kets.reshape(2, len(a), -1)
    populations = kets[0] ** 2
    populations += kets[1] ** 2
    np.add(a[_draw_index(uniforms, populations)], sigma * x, out=x)
    # Scaled before squaring, so the least term, about (z / 2)^2, stays finite.
    weights = np.subtract.outer(a, x)
    weights /= 2.0 * sigma
    weights **= 2
    np.subtract(weights.min(axis=0), weights, out=weights)
    np.exp(weights, out=weights)
    # The updated ket's squared norm is sum_k populations_k weights_k^2.
    populations *= weights
    populations *= weights
    weights /= np.sqrt(populations.sum(axis=0))
    np.multiply(kets, weights, out=out.reshape(kets.shape))


# The Kraus weights of a very narrow pointer overflow to exp(-inf) = 0.
@np.errstate(over="ignore")
def sample_outcomes(scn: Scenario, shots: int, seed: int) -> tuple[np.ndarray, SampleStatistics]:
    """Simulate ``shots`` runs; returns retained pointer-position tuples.

    Each shot carries one system ket, drawn from the eigen-ensemble of the
    initial state. Pointer j is never touched after step j, so it is read
    right after its coupling: the eigenindex k is drawn from the ket's
    populations in that step's eigenbasis, x = a_k + sigma_j z, and the
    ket is updated by the Kraus operator K(x) = sum_k phi(x - a_k) P_k and
    renormalized. Post-selection keeps a shot with probability
    <psi|E|psi>, so the retained count is Binomial(shots, Tr(eta)) and
    retained shots are i.i.d. draws from the conditional joint density.

    The stream is deterministic in ``seed`` and does not depend on the
    block size: the initial eigenindices' uniforms come first; per step,
    every shot's uniforms, then every shot's normals in shot order; last,
    the post-selection uniforms. Two passes walk it. The first touches no
    ket: it notes where each run of uniforms starts, skips the run, and
    draws each step's normals into that step's row of the readings. The
    second runs the shots in blocks of ``SAMPLE_BLOCK_ENTRIES`` // d
    through every step, each block's uniforms redrawn from their run's
    start, advanced by the block's first shot. A block's kets are one
    contiguous (2d, block) stack of real and imaginary parts, so each step
    is one (2d, 2d) @ (2d, block) rotation and a few block-length vector
    operations per eigenindex, and only the readings span every shot. Cost
    is O(shots n d^2) time; memory is ``sample_footprint``, checked
    against ``errors.MEMORY_LIMIT`` before anything is allocated.

    Without post-selection nothing is discarded and the probability is 1;
    with it, the identity chain gives Tr(eta), and a value at or below the
    threshold raises ZeroPostSelectionProbability before any shot is drawn.
    """
    shots, seed = check_count("shots", shots, 1), check_count("seed", seed, 0)
    check_footprint(sample_footprint(scn, shots), f"{shots} shots")
    eigenvalues, bases = scn.spectrum
    probability = 1.0
    if scn.post is not None:
        identity = _step_tables(eigenvalues, scn.widths, (_IDENTITY,))
        probability = float(_chain(scn.initial, bases, identity, scn.post, scn.post_norm)[1])
        del identity  # 16 n d^2 bytes that the shots need not hold

    rng = np.random.default_rng(seed)
    inc = rng.bit_generator.state["state"]["inc"]
    # Pass 1 walks the stream and touches no ket: it notes the PCG64 state
    # where each run of uniforms starts, skips the run, and draws each
    # step's normals into that step's row of the readings.
    starts = []

    def skip():
        starts.append(rng.bit_generator.state["state"]["state"])
        rng.bit_generator.advance(shots)

    rows = np.empty((scn.n_steps, shots))
    skip()
    for j in range(scn.n_steps):
        skip()
        rng.standard_normal(out=rows[j])
    if scn.post is not None:
        skip()
        effect, kept = _realify(_last_effect(bases, scn.post)), np.empty(shots, dtype=bool)

    weights, basis = np.linalg.eigh(scn.initial)
    weights = np.clip(weights, 0.0, None)[:, np.newaxis]
    # The first turn starts from ``basis``, whose columns are the initial kets, so it gathers.
    turns = _turns(bases)
    turns[0] = turns[0] @ basis
    turns = [_realify(turn) for turn in turns]
    size, width = min(_block_shots(scn.dim), shots), 2 * scn.dim
    # Pass 2 runs one block of shots at a time through every step. One
    # buffer holds the block's kets, a contiguous (2d, block) stack that
    # each Kraus update rewrites, and one its uniforms. Fresh arrays per
    # block and step doubled the page faults of a long run of mixed
    # requests, as glibc then trimmed its heap between them.
    buffer, drawn = np.empty(width * size), np.empty(size)
    for first in range(0, shots, size):
        span = slice(first, min(first + size, shots))
        count = span.stop - first
        block, uniforms = buffer[:width * count].reshape(width, count), drawn[:count]
        _redraw(rng, inc, starts[0], first, uniforms)
        np.take(turns[0], _draw_index(uniforms, weights), axis=1, out=block, mode="clip")
        for j, (a, turn, sigma) in enumerate(zip(eigenvalues, turns, scn.widths.tolist())):
            _redraw(rng, inc, starts[1 + j], first, uniforms)
            _read_pointer(turn @ block if j else block, a, sigma, uniforms, rows[j, span], out=block)
        if scn.post is not None:
            _redraw(rng, inc, starts[-1], first, uniforms)
            block *= effect @ block
            np.less(uniforms, block.sum(axis=0), out=kept[span])
    if scn.post is not None:
        rows = rows[:, kept]
    stats = SampleStatistics(shots, rows.shape[1], probability)
    # Row j holds every shot's reading of pointer j; the (shots, n) view of
    # the rows lets a product over each shot's readings run row by row.
    return rows.T, stats
