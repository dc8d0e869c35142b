"""Multi-start search for the most anomalous no-post-selection readings.

Searches run over an initial pure state psi and a sequence of n rank-1
projectors A_j = |k_j><k_j|. Two objectives are offered:

* the mean product of all pointer positions, at a finite width or in
  the weak limit, conjectured to be at least -1/8 for rank-1 projectors
  at any n (other ranks: ROADMAP item 15);
* the real part of the sequential weak value itself, which projector
  chains push toward -1.

Both share one sweep and differ only in their step map on stacks of
projectors A: the exact position step Y -> (c {A, Y} + 2 (1 - c) AYA)/2 at
the pointers' overlap c, half an anti-commutator at c = 1, and Y -> AY for
the weak value. In the weak limit both objectives are multilinear in
(psi, A_1, ..., A_n): with every other factor fixed, each reads <v|M|v>
for the ket v of one factor and a Hermitian block operator M, so its exact
minimizer over unit kets is the eigenvector of lambda_min(M). The searches
are see-saw sweeps of block updates (Werner & Wolf, PRA 64, 032112 (2001);
Pal & Vertesi, PRA 82, 022116 (2010)): psi from the whole operator first,
then k_1, ..., k_n in turn.

At a finite width the pointer product is quadratic in each A_j, so the
block of each k_j but the last is a quartic in the ket. Its update takes
the least eigenvector of the block's linearization at k_j, and only where
the quartic is lower there; psi and k_n keep their exact eigenvector
updates. So at any width no update can raise the value.

Near an optimum the see-saw can crawl: each sweep moves the kets a
little further along nearly the same line, and lowers the value by a
nearly constant fraction of the sweep before. A restart whose last sweep
lowered its value by more than ``PROPOSAL_RATE`` times the sweep before
it proposes kets extrapolated along that sweep's change, to where such a
geometric series of changes would end (Rajih, Comon & Harshman, SIAM J.
Matrix Anal. Appl. 30, 1128 (2008), extrapolate alternating least squares
in the same way). The proposal enters psi's update of the next sweep: the
proposed kets' whole operator is weighed beside the current one, as more
rows of the same environments and of the same batched eigh, and the
restart takes the proposed kets only where their least eigenvalue is
lower. So no update raises the value, with or without a proposal.

One evaluation is one block update, with one batched eigh, proposal or
not, and a sweep costs n + 1 of them. A restart stops when its budget of
evaluations is used up, even part way through a sweep, or when a full
sweep lowers its value by at most ``VALUE_SPREAD_TOL``; a one-evaluation
search returns its start with psi set to the least eigenvector there.

Every search starts from seeded Haar-random kets. All restarts move in
lockstep, one batched numpy call per step for all of them. Each restart's
seed derives from the master seed, and no restart's path, proposals
included, depends on the others, so results are reproducible and do not
change with the number of restarts beside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qm
from .errors import InputError, check_count, check_footprint
from .pointer import _overlap, check_widths

VALUE_SPREAD_TOL = 1e-14
# A restart proposes when its last sweep's gain is more than PROPOSAL_RATE
# times the sweep before; its step is r/(1 - r) times that sweep's change,
# r the square root of the gain ratio capped at RATIO_CAP, and at most
# STEP_CAP. Rates 0.3-0.7 and caps 16-256 were scanned with the great-circle
# k_j update that the quartic one replaced (d = 2, 16 restarts, seed 1). At
# 0.5 and 64 the n = 3 finite-width floor takes 1,688 (sigma = 2) and 3,080
# (sigma = 4) evaluations and the n = 6 one at sigma = 4 takes 7,049; the
# great-circle update took 5,908, 20,096 and 51,947 without proposals. The
# weak-limit n = 5 worst case over seeds 0-19 took 426, against 432 at 0.3,
# 660 at 0.7 and 1,260 without proposals.
PROPOSAL_RATE = 0.5
RATIO_CAP = 0.999
STEP_CAP = 64.0
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class _State:
    """A search point's state ket, unchecked: ``Scenario`` checks its density."""

    ket: np.ndarray

    def to_density(self) -> np.ndarray:
        return qm.projector_from_ket(self.ket)


@dataclass(frozen=True, eq=False)
class SearchSpacePoint:
    """The initial state and each measured projector, as unit kets:
    ``state`` has shape (d,) and ``projector_kets`` (n, d)."""

    state: np.ndarray
    projector_kets: np.ndarray

    def decode(self) -> tuple[_State, np.ndarray]:
        return _State(self.state), qm._freeze(qm.projectors_from_kets(self.projector_kets))


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    best_value: float
    best_point: SearchSpacePoint
    evaluations: int
    trace: tuple[tuple[int, float], ...]


def _hermitian(operators: np.ndarray) -> np.ndarray:
    """The Hermitian parts (Y + Y^H)/2 of (B, d, d) operators Y."""
    return 0.5 * (operators + operators.conj().swapaxes(1, 2))


def _step(projectors: np.ndarray, operators: np.ndarray, overlap: float | None) -> np.ndarray:
    """One step of an objective on (B, d, d) operators Y at (B, d, d)
    projectors A. For the pointer product at the Gaussian ``overlap`` c, the
    exact position step Y -> (c {A, Y} + 2 (1 - c) AYA)/2, the Hermitian
    part of P = c AY + (1 - c) AYA; for the weak value (``overlap`` None),
    Y -> AY. Either map carries the effect backward and the state forward."""
    product = projectors @ operators
    if overlap is None:
        return product
    if overlap < 1.0:
        product = overlap * product + (1 - overlap) * (product @ projectors)
    return _hermitian(product)


def _environments(projectors: np.ndarray, overlap: float | None):
    """Yields the right environments N_n, ..., N_1 of the (B, n, d, d)
    projectors: N_n = A_n and N_j = step_j(N_(j+1)) (``_step``). Re Tr(rho N_1)
    is the objective: the all-position moment at an overlap, and Re of the
    weak value at None, where N_1 = A_1 ... A_n is its chain's adjoint."""
    nested = projectors[:, -1]
    yield nested
    for projector in projectors.swapaxes(0, 1)[-2::-1]:
        nested = _step(projector, nested, overlap)
        yield nested


def _least_eigenpairs(operators: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each (B, d, d) Hermitian operator; its
    eigenvector is written to the (B, d) ``vectors``."""
    values, eigenvectors = np.linalg.eigh(operators)
    vectors[...] = eigenvectors[:, :, 0]
    return values[:, 0]


def _quartic_update(blocks: np.ndarray, kets: np.ndarray, overlap: float) -> np.ndarray:
    """Lowers f(k) = c <k|P|k> + (1 - c) <k|N|k> <k|L|k> at the overlap
    c < 1 for the (B, 3, d, d) ``blocks`` (P, N, L) over the (B, d) kets,
    updated in place; returns the values f after the update.

    f is quartic in k, so no eigenvector minimizes it. Its linearization
    G = c P + (1 - c)(<L> N + <N> L) at k has f's gradient there, and G's
    least eigenvector v replaces k only where f(v) is below f(k): no update
    raises f."""
    count, d = kets.shape
    quartic = 1 - overlap

    def expectations(vectors):
        """(<v|P|v>, <v|N|v>, <v|L|v>) of each (B, d) ket v, (B, 3), and f(v)."""
        terms = (vectors.conj()[:, np.newaxis, np.newaxis, :] @ blocks @ vectors[:, np.newaxis, :, np.newaxis])[..., 0, 0].real
        return terms, overlap * terms[:, 0] + quartic * terms[:, 1] * terms[:, 2]

    here, values = expectations(kets)
    weights = np.full((count, 1, 3), overlap)
    weights[:, 0, 1:] = quartic * here[:, :0:-1]
    linearized = (weights @ blocks.reshape(count, 3, d * d)).reshape(count, d, d)
    proposed = np.empty_like(kets)
    _least_eigenpairs(linearized, proposed)
    lowered = expectations(proposed)[1]
    lower = lowered < values
    kets[lower] = proposed[lower]
    return np.where(lower, lowered, values)


def _taken(rows: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """The first B of the 2B ``rows``, each replaced in place by its
    counterpart in the last B where the (B,) mask ``taken`` is set."""
    count = len(taken)
    np.copyto(rows[:count], rows[count:], where=taken.reshape(count, *(1,) * (rows.ndim - 1)))
    return rows[:count]


def _state_update(operators: np.ndarray, kets: np.ndarray, states: np.ndarray, proposal: tuple | None) -> tuple:
    """psi's exact update, the least eigenvector of the whole operator, for
    the B restarts' (B, n, d) kets and (B, d) states, updated in place.
    ``proposal`` is None or (crawling, proposed): the (B,) mask of the
    restarts that propose, and (B, n, d) kets whose whole operators are the
    last B of the (2B, d, d) ``operators``. A restart takes its proposed
    kets only where it proposes and their least eigenvalue is lower, so the
    update raises no value. Returns the B values, and the mask of the
    restarts that took their proposal (None without a proposal)."""
    if proposal is None:
        return _least_eigenpairs(operators, states), None
    crawling, proposed = proposal
    values, vectors = np.linalg.eigh(operators)
    count = len(states)
    taken = crawling & (values[count:, 0] < values[:count, 0])
    np.copyto(kets, proposed, where=taken[:, np.newaxis, np.newaxis])
    states[...] = _taken(vectors[:, :, 0], taken)
    return _taken(values[:, 0], taken), taken


def _sweep(kets: np.ndarray, states: np.ndarray, overlap: float | None = 1.0, proposal: tuple | None = None):
    """One see-saw sweep of Re Tr(rho N_1), the right environments N_j of
    ``_environments`` at ``overlap`` (the pointer product, 1 in the weak
    limit; the weak value at None), over (B, n, d) projector kets and (B, d)
    states, updated in place, with psi's update weighing a ``proposal``
    (``_state_update``); yields the values after each update. With the left
    environments L_1 = rho and L_(j+1) = step_j(L_j), the objective equals
    Re Tr(N_(j+1)^H step_j(L_j)), so each block is a Hermitian part: psi's
    of N_1, k_j's of N_(j+1) L_j^H and k_n's of L_n, and its update is the
    least eigenvector. Below overlap 1 the pointer product is quartic in
    each k_j but the last: f_j(k) = c <k|M_j|k> + (1 - c) <k|N_(j+1)|k>
    <k|L_j|k>, with M_j that Hermitian part (``_quartic_update``). N_(j+1)
    holds only kets that the sweep has not yet updated."""
    weighed = kets if proposal is None else np.concatenate([kets, proposal[1]])
    right = list(_environments(qm.projectors_from_kets(weighed), overlap))[::-1]
    values, taken = _state_update(_hermitian(right[0]), kets, states, proposal)
    yield values
    right = right[1:] if taken is None else [_taken(environment, taken) for environment in right[1:]]
    left = qm.projectors_from_kets(states)
    for j, following in enumerate(right):
        block = _hermitian(following @ left.conj().swapaxes(1, 2))
        if overlap is not None and overlap < 1.0:
            blocks = np.empty((len(kets), 3, *left.shape[1:]), dtype=complex)
            blocks[:, 0], blocks[:, 1], blocks[:, 2] = block, following, left
            yield _quartic_update(blocks, kets[:, j], overlap)
        else:
            yield _least_eigenpairs(block, kets[:, j])
        left = _step(qm.projectors_from_kets(kets[:, j]), left, overlap)
    yield _least_eigenpairs(_hermitian(left), kets[:, -1])


def _extrapolate(start: np.ndarray, end: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Kets proposed along a sweep's change from the (B, n, d) ``start`` to
    the ``end`` kets, for restarts whose last two sweeps lowered their
    values in the ``ratios``: each start ket is phase-aligned to its end,
    and the end moves on by r/(1 - r) times the change at r = sqrt(ratio),
    the rest of a geometric series of such changes, and is renormalized."""
    rates = np.sqrt(np.clip(ratios, 0.0, RATIO_CAP))
    steps = np.minimum(rates / (1.0 - rates), STEP_CAP)[:, np.newaxis, np.newaxis]
    # a start ket orthogonal to its end gets phase 0 and leaves the end as it is
    inner = (start.conj() * end).sum(axis=2, keepdims=True)
    moved = end + steps * (end - inner / np.maximum(abs(inner), _TINY) * start)
    return moved / np.sqrt((abs(moved) ** 2).sum(axis=2, keepdims=True))


def _see_saw(sweep, kets: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """See-saw ``sweep``s from every restart's (n, d) start kets at once,
    updating ``kets`` in place. Restarts whose last full sweep lowered
    their value by at most ``VALUE_SPREAD_TOL`` leave the batch; all stop
    once ``budget`` evaluations are used. A restart whose last sweep
    lowered its value by more than ``PROPOSAL_RATE`` times the sweep
    before it crawls, and proposes kets extrapolated along that sweep's
    change (``_extrapolate``) to psi's update of its next sweep. Returns
    the values, the states and the evaluations of each restart."""
    count, _, d = kets.shape
    values, states = np.full(count, np.inf), np.zeros((count, d), dtype=complex)
    evaluations = np.zeros(count, dtype=int)
    live, used, proposal = np.arange(count), 0, None
    batch_kets, batch_states, before = kets, states, np.full(count, np.inf)
    thresholds = before
    while True:
        start = batch_kets.copy()
        for used, current in enumerate(sweep(batch_kets, batch_states, proposal=proposal), used + 1):
            if used == budget:
                break
        gains = before - current
        moving = gains > VALUE_SPREAD_TOL
        crawling = gains > thresholds
        everyone = moving.all()
        if used == budget or not everyone:
            kets[live], states[live], values[live], evaluations[live] = batch_kets, batch_states, current, used
            if used == budget or not moving.any():
                return values, states, evaluations
            batch = (live, batch_kets, batch_states, start, current, gains, crawling, thresholds)
            live, batch_kets, batch_states, start, current, gains, crawling, thresholds = (a[moving] for a in batch)
        proposal = None
        if crawling.any():
            proposal = crawling, _extrapolate(start, batch_kets, PROPOSAL_RATE * gains / thresholds)
        before, thresholds = current, PROPOSAL_RATE * gains


def _search_footprint(n: int, d: int, restarts: int) -> int:
    """Bytes a search holds at its peak, at most: 1024 16-byte units for
    the Python objects of the search itself, and units per restart.

    Each restart holds its kets and their working copies (ten per ket
    entry: the start normals, the kets built from them, the start-of-sweep
    copy, the proposed kets and the temporaries of their extrapolation, the
    kets a sweep weighs with them), the n projectors of its kets and of its
    proposed kets with their n right environments, and 20 d x d operators
    of one block update. The finite-width block is the largest: its
    (3, d, d) stack and the three operators it is built from, the
    linearization and its temporaries, the copies and eigenvectors of eigh,
    the least eigenvector with its products with the stack, and the next
    left environment with its projector and temporaries; psi's update adds
    the proposed kets' whole operator and its eigenvectors. Add 64 units
    for the restart's seed and generator and the block's expectations."""
    per_restart = 4 * n * d * d + 10 * n * d + 20 * d * d + 64
    return (restarts * per_restart + 1024) * 16


def _start_kets(n: int, d: int, restarts: int, seed: int, budget: int) -> np.ndarray:
    """Checks a search's arguments and memory bound, then draws each
    restart's Haar-random start kets from its own seed: (restarts, n, d)."""
    n, d, restarts = check_count("n", n, 2), check_count("d", d, 2), check_count("restarts", restarts, 1)
    check_count("budget", budget, 1)
    seed = check_count("seed", seed, 0)
    check_footprint(_search_footprint(n, d, restarts), f"{restarts} restarts at n={n}, d={d}")
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    return qm.kets_from_normals(np.array([np.random.default_rng(s).standard_normal((n, 2, d)) for s in seeds]))


def _see_saw_search(sweep, n: int, d: int, restarts: int, seed: int, budget: int) -> OptimizationResult:
    kets = _start_kets(n, d, restarts, seed, budget)
    values, states, evaluations = _see_saw(sweep, kets, budget)
    best = int(np.argmin(values))
    return OptimizationResult(
        best_value=float(values[best]),
        best_point=SearchSpacePoint(states[best], kets[best]),
        evaluations=int(evaluations.sum()),
        trace=tuple(enumerate(values.tolist())),
    )


def minimize_pointer_product(
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    sigma: float | None = None,
) -> OptimizationResult:
    """Minimize the weak-limit mean product of the pointer positions over
    projector sequences of length ``n`` in dimension ``d`` and over
    initial states, by see-saw sweeps.

    ``sigma`` switches to the exact moment at that pointer width, the
    same recursion at the overlap c = exp(-1/(8 sigma^2)) < 1, for
    landscape exploration; the default (None) is the weak-limit objective
    the -1/8 conjecture is about. The finite-width sweep keeps the exact
    least-eigenvector updates of psi and k_n, but each other k_j meets a
    quartic block, whose linearization's least eigenvector it takes only
    where that lowers the value (``_quartic_update``).

    At every width an evaluation is one block update with one batched eigh,
    and ``budget`` caps each restart's evaluations. A restart whose sweeps
    crawl proposes extrapolated kets, which psi's update of its next sweep
    weighs beside the current ones in the same eigh and takes only where
    their least eigenvalue is lower. As every update, psi's included, keeps
    what it has where it finds nothing lower, no update raises the value.
    Each restart's path, proposals included, depends on its own seed alone.
    """
    overlap = 1.0
    if sigma is not None:
        if np.ndim(sigma) or np.asarray(sigma).dtype.kind not in "fiu":
            raise InputError(f"sigma must be a single pointer width, got {sigma!r}")
        check_widths(sigma)
        # c is the overlap of the pointers centred at 0 and 1. A subnormal
        # sigma^2 overflows the exponent to -inf: overlap 0.
        with np.errstate(over="ignore"):
            overlap = _overlap(np.float_power(sigma, 2), 1.0)
    return _see_saw_search(functools.partial(_sweep, overlap=overlap), n, d, restarts, seed, budget)


def minimize_weak_value_real(n: int, d: int, restarts: int, seed: int, budget: int) -> OptimizationResult:
    """Minimize Re of the no-post-selection sequential weak value over
    projector sequences of length ``n`` in dimension ``d`` and over
    initial states, by see-saw sweeps."""
    return _see_saw_search(functools.partial(_sweep, overlap=None), n, d, restarts, seed, budget)
