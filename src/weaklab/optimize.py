"""Multi-start search for the most anomalous no-post-selection readings.

Searches run over an initial pure state psi and a sequence of n rank-1
projectors A_j = |k_j><k_j|. Two objectives are offered:

* the mean product of all pointer positions, at a finite width or in
  the weak limit (the nested anti-commutator form), whose conjectured
  floor is -1/8 for projector sequences of any length;
* the real part of the sequential weak value itself, which projector
  chains push toward -1.

In the weak limit both objectives are multilinear in (psi, A_1, ..., A_n):
with every other factor fixed, each reads <v|M|v> for the ket v of one
factor and a Hermitian block operator M, so its exact minimizer over unit
kets is the eigenvector of lambda_min(M). Those searches are see-saw
sweeps of such block updates (Werner & Wolf, PRA 64, 032112 (2001); Pal &
Vertesi, PRA 82, 022116 (2010)): psi from the whole operator first, then
k_1, ..., k_n in turn, so no update can raise the value. One evaluation is
one block eigenpair, and a sweep costs n + 1 of them. A restart stops
when its budget of evaluations is used up, even part way through a sweep,
or when a full sweep lowers its value by at most ``VALUE_SPREAD_TOL``; a
one-evaluation search returns its start with psi set to the least
eigenvector there.

At a finite width the pointer product is quadratic in each A_j, and its
search is Nelder-Mead over hyperspherical angles and phases of the
projector kets (2(d-1) reals per ket, norm 1 by construction, no
constraints for the local method to fight). The initial state is not
searched: for fixed projectors the objective is <psi|H|psi>, so each
evaluation is lambda_min(H), and the returned state is its eigenvector
(variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)).

Every search starts from seeded uniform angles, decoded to kets for the
see-saw. All restarts move in lockstep, one batched numpy call per step
for all of them. Each restart's seed derives from the master seed, and no
restart's path depends on the others, so results are reproducible and do
not change with the number of restarts beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qm
from .errors import InputError
from .pointer import GaussianPointer, PointerOperatorKind, matrix_element

SIMPLEX_DIAMETER_TOL = 1e-10
VALUE_SPREAD_TOL = 1e-14

# Largest working set a search may allocate, in bytes.
SEARCH_MEMORY_LIMIT = 2 * 1024**3


def decode_state(params: np.ndarray) -> np.ndarray:
    """Hyperspherical angles + phases -> normalized complex amplitudes,
    over the last axis: (..., 2(d-1)) -> (..., d)."""
    params = np.asarray(params, dtype=float)
    d = params.shape[-1] // 2 + 1
    # cos + i sin of every angle, and the phase factor of every phase
    unit = np.exp(1j * params)
    amplitudes = np.empty(params.shape[:-1] + (d,), dtype=complex)
    amplitudes[..., 0] = unit[..., 0].real
    amplitudes[..., 1:] = np.cumprod(unit[..., : d - 1].imag, axis=-1) * unit[..., d - 1 :]
    amplitudes[..., 1:-1] *= unit[..., 1 : d - 1].real
    return amplitudes


def _encode_state(kets: np.ndarray) -> np.ndarray:
    """Unit kets -> angles and phases that ``decode_state`` maps back to
    them up to a global phase, over the last axis: (..., d) -> (..., 2(d-1)).
    Amplitude m is cos t_m times the norm of amplitudes m..d-1, so
    t_m = atan2(norm of amplitudes m+1..d-1, |amplitude m|)."""
    kets = np.asarray(kets, dtype=complex)
    magnitudes = np.abs(kets)
    tails = np.sqrt(np.cumsum(magnitudes[..., ::-1] ** 2, axis=-1))[..., ::-1]
    angles = np.arctan2(tails[..., 1:], magnitudes[..., :-1])
    phases = np.angle(kets[..., 1:]) - np.angle(kets[..., :1])
    return np.concatenate([angles, phases], axis=-1)


@dataclass(frozen=True)
class SearchSpacePoint:
    """The initial state and each measured projector, as unit kets:
    ``state`` has shape (d,) and ``projector_kets`` (n, d).

    A search returns the state it found with the projectors; an
    ``initial_point`` seeds restart 0 with its projector kets alone."""

    state: np.ndarray
    projector_kets: np.ndarray

    def decode(self) -> tuple[qm.PureState, list[qm.Observable]]:
        state = qm.PureState(self.state)
        projectors = [qm.projector_from_ket(qm.PureState(ket)) for ket in self.projector_kets]
        return state, projectors


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_point: SearchSpacePoint
    evaluations: int
    trace: tuple[tuple[int, float], ...]


def _anticommutator(kets: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """{A, Y} = |k> (<k|Y) + h.c. for A = |k><k|, over (B, d) kets and
    (B, d, d) Hermitian operators Y."""
    product = kets[:, :, np.newaxis] * (kets.conj()[:, np.newaxis, :] @ operators)
    return product + product.conj().swapaxes(1, 2)


def _environments(kets: np.ndarray, overlap: float):
    """Yields Y_n, ..., Y_1 for the (B, n, d) projector kets: the (B, d, d)
    operators of the Heisenberg picture from Y_n = A_n, with 2^(1-n) Y_1
    the all-position moment's operator. For a rank-1 projector the exact
    position step is Y -> (c/2)(AY + YA) + (1 - c) AYA at the Gaussian
    ``overlap`` c of its eigenvalues 0 and 1, where AYA = <k|Y|k> A; each
    Y_j omits its step's factor 1/2. At c = 1, Y_j is the nested
    anti-commutator {A_j,{...,A_n}...}."""
    kets = kets.swapaxes(0, 1)
    nested = kets[-1][:, :, np.newaxis] * kets[-1].conj()[:, np.newaxis, :]
    yield nested
    for ket in kets[-2::-1]:
        column, row = ket[:, :, np.newaxis], ket.conj()[:, np.newaxis, :]
        projected = row @ nested
        product = column * projected
        following = product + product.conj().swapaxes(1, 2)
        if overlap < 1.0:
            following = overlap * following + 2 * (1 - overlap) * (projected @ column) * (column * row)
        nested = following
        yield nested


def _pointer_operators(kets: np.ndarray, overlap: float) -> np.ndarray:
    """The (B, d, d) operators 2^(1-n) Y_1 whose expectation in the
    initial state is the all-position moment (``_environments``)."""
    for nested in _environments(kets, overlap):
        pass
    return 2.0 ** (1 - kets.shape[1]) * nested


def _least_eigenpairs(operators: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The least eigenvalue of each (B, d, d) Hermitian operator; its
    eigenvector is written to the (B, d) ``vectors``."""
    values, eigenvectors = np.linalg.eigh(operators)
    vectors[...] = eigenvectors[:, :, 0]
    return values[:, 0]


def _pointer_sweep(kets: np.ndarray, states: np.ndarray):
    """One see-saw sweep of the weak-limit pointer product over (B, n, d)
    projector kets and (B, d) states, updated in place; yields the values
    after each update. The moment is 2^(1-n) Tr(rho N_1) with the right
    environments N_j = Y_j of ``_environments``. With R_1 = rho and
    R_(j+1) = {A_j, R_j}, it equals 2^(1-n) Tr(R_j {A_j, N_(j+1)}), so
    the block of k_j is M_j = 2^(1-n) {N_(j+1), R_j}, and M_n = 2^(1-n) R_n.
    N_(j+1) holds only kets that the sweep has not yet updated."""
    scale = 2.0 ** (1 - kets.shape[1])
    right = list(_environments(kets, 1.0))[::-1]
    yield _least_eigenpairs(scale * right[0], states)
    left = states[:, :, np.newaxis] * states.conj()[:, np.newaxis, :]
    for j, following in enumerate(right[1:]):
        joint = following @ left
        yield _least_eigenpairs(scale * (joint + joint.conj().swapaxes(1, 2)), kets[:, j])
        left = _anticommutator(kets[:, j], left)
    yield _least_eigenpairs(scale * left, kets[:, -1])


def _hermitian_parts(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(|u><v| + |v><u|)/2 over (B, d) vectors u (``columns``) and v (``rows``)."""
    half = 0.5 * columns[:, :, np.newaxis] * rows.conj()[:, np.newaxis, :]
    return half + half.conj().swapaxes(1, 2)


def _project(kets: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """A v = |k> <k|v> over (B, d) kets and vectors."""
    return kets * (kets.conj() * vectors).sum(axis=1, keepdims=True)


def _weak_value_sweep(kets: np.ndarray, states: np.ndarray):
    """One see-saw sweep of Re <psi|A_n ... A_1|psi> over (B, n, d)
    projector kets and (B, d) states, updated in place; yields the values
    after each update. The whole operator is the Hermitian part of
    A_n ... A_1 = c |k_n><k_1|, c = <k_n|k_(n-1)> ... <k_2|k_1>. The
    block of k_j is the Hermitian part of |a_j><b_j|, with the running
    prefix a_j = A_(j-1) ... A_1 psi and the suffix b_j = A_(j+1) ... A_n psi,
    which holds only kets that the sweep has not yet updated."""
    overlaps = (kets[:, 1:].conj() * kets[:, :-1]).sum(axis=2)
    last = overlaps.prod(axis=1)[:, np.newaxis] * kets[:, -1]
    yield _least_eigenpairs(_hermitian_parts(last, kets[:, 0]), states)
    suffixes = [states]
    for j in range(kets.shape[1] - 1, 0, -1):
        suffixes.append(_project(kets[:, j], suffixes[-1]))
    prefix = states
    for j, suffix in enumerate(reversed(suffixes)):
        yield _least_eigenpairs(_hermitian_parts(prefix, suffix), kets[:, j])
        prefix = _project(kets[:, j], prefix)


def _see_saw(sweep, kets: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """See-saw ``sweep``s from every restart's (n, d) start kets at once,
    updating ``kets`` in place. Restarts whose last full sweep lowered
    their value by at most ``VALUE_SPREAD_TOL`` leave the batch; all stop
    once ``budget`` evaluations are used. Returns the values, the states
    and the evaluations of each restart."""
    count, _, d = kets.shape
    values, states = np.full(count, np.inf), np.zeros((count, d), dtype=complex)
    evaluations = np.zeros(count, dtype=int)
    live, used = np.arange(count), 0
    while True:
        batch_kets, batch_states, before = kets[live], states[live], values[live]
        for used, current in enumerate(sweep(batch_kets, batch_states), used + 1):
            if used == budget:
                break
        kets[live], states[live], values[live], evaluations[live] = batch_kets, batch_states, current, used
        live = live[before - current > VALUE_SPREAD_TOL]
        if used == budget or not live.size:
            return values, states, evaluations


def _nelder_mead(objective, starts: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nelder-Mead from every row of ``starts`` at once.

    Each restart follows Nelder & Mead, Comput. J. 7, 308 (1965), with
    the ordering and tie rules of Lagarias, Reeds, Wright & Wright, SIAM
    J. Optim. 9, 112 (1998): coefficients 1, 2, 1/2 and 1/2; an initial
    simplex that steps each coordinate by 5 % (to 0.00025 where it is 0);
    at most ``budget`` evaluations, even part way through a shrink; and a
    stop once every vertex is within ``SIMPLEX_DIAMETER_TOL`` and every
    value within ``VALUE_SPREAD_TOL`` of the best. Simplices are sorted
    stably, so ties keep their order.

    ``objective`` maps (B, dim) points to B values. Each iteration makes
    one batched call for the reflections, one for the expansions and
    contractions the restarts need, and one for the points of those that
    shrink. Restarts that stop leave the batch, and no restart's path
    depends on the others. Returns the best values, the best points and
    the evaluations of each restart.
    """
    count, dim = starts.shape
    sim = np.repeat(starts[:, np.newaxis], dim + 1, axis=1)
    steps = np.arange(dim)
    sim[:, steps + 1, steps] = np.where(starts != 0, 1.05 * starts, 0.00025)
    first = min(dim + 1, budget)
    fsim = np.full((count, dim + 1), np.inf)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, dim)).reshape(count, first)
    nfev = np.full(count, first)
    best_values, best_points, evaluations = np.empty(count), np.empty((count, dim)), np.empty(count, dtype=int)
    live = np.arange(count)
    rows = live[:, np.newaxis]
    while True:
        order = fsim.argsort(axis=1, kind="stable")
        fsim, sim = fsim[rows, order], sim[rows, order]
        done = nfev >= budget
        flat = fsim[:, -1] - fsim[:, 0] <= VALUE_SPREAD_TOL
        if flat.any():
            done |= flat & (np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= SIMPLEX_DIAMETER_TOL)
        if done.any():
            ids = live[done]
            best_values[ids], best_points[ids], evaluations[ids] = fsim[done, 0], sim[done, 0], nfev[done]
            live, sim, fsim, nfev = live[~done], sim[~done], fsim[~done], nfev[~done]
            if not live.size:
                return best_values, best_points, evaluations
            rows = rows[: live.size]

        centroid, worst = sim[:, :-1].sum(axis=1) / dim, sim[:, -1]
        reflected = 2.0 * centroid - worst
        freflected = objective(reflected)
        nfev += 1
        expand = freflected < fsim[:, 0]
        keep = ~expand & (freflected < fsim[:, -2])
        # The restarts that need a second point and still have budget for
        # it; a restart whose budget ran out first changes nothing.
        probe = (~keep & (nfev < budget)).nonzero()[0]
        shrink = probe[:0]
        if probe.size:
            grow, fr, fworst = expand[probe], freflected[probe], fsim[probe, -1]
            outside = fr < fworst
            # expansion 3c - 2w, outside contraction 1.5c - 0.5w, inside 0.5c + 0.5w
            coefficient = np.where(grow, 2.0, np.where(outside, 0.5, -0.5))[:, np.newaxis]
            trial = (1.0 + coefficient) * centroid[probe] - coefficient * worst[probe]
            ftrial = objective(trial)
            nfev[probe] += 1
            better = np.where(grow, ftrial < fr, np.where(outside, ftrial <= fr, ftrial < fworst))
            sim[probe[better], -1], fsim[probe[better], -1] = trial[better], ftrial[better]
            keep[probe[grow & ~better]] = True
            shrink = probe[~grow & ~better]
        sim[keep, -1], fsim[keep, -1] = reflected[keep], freflected[keep]

        if shrink.size:
            # Vertex j of a shrinking restart moves halfway to its best
            # vertex if the restart has an evaluation left for it.
            room = np.arange(1, dim + 1) <= (budget - nfev[shrink])[:, np.newaxis]
            at, vertices = room.nonzero()
            at, vertices = shrink[at], vertices + 1
            moved = sim[at, 0] + 0.5 * (sim[at, vertices] - sim[at, 0])
            sim[at, vertices], fsim[at, vertices] = moved, objective(moved)
            nfev[shrink] += room.sum(axis=1)


def _search_footprint(n: int, d: int, restarts: int, simplex: bool) -> int:
    """Bytes a search holds at its peak, at most: 1024 16-byte units for
    the Python objects of the search itself, and units per restart.

    A see-saw search (``simplex`` false) holds each restart's kets and
    their working copies (six per ket entry: the start angles and their
    decoding, the batch copy, the weak value's suffixes), its n right
    environments, a dozen d x d operators of one block update (the
    products, the block, and the copies and eigenvectors of eigh), and 64
    units for the restart's seed and generator.

    Nelder-Mead (``simplex`` true) holds every simplex, plus one objective
    call over all their vertices at once, as the first evaluation and a
    shrink of every restart make. Per vertex: two per angle (the simplex,
    its sorted copy, the angles' phase factors), three per entry of the n
    projector kets (the kets, their conjugates, the decoding work) and six
    d x d operators (the recursion's and the copy eigvalsh factors)."""
    if simplex:
        dim = 2 * (d - 1) * n
        per_restart = (dim + 1) * (2 * dim + 3 * n * d + 6 * d * d)
    else:
        per_restart = n * d * d + 6 * n * d + 12 * d * d + 64
    return (restarts * per_restart + 1024) * 16


def _start_angles(n: int, d: int, restarts: int, seed: int, budget: int, simplex: bool) -> np.ndarray:
    """Checks a search's arguments and memory bound, then draws each
    restart's uniform start angles from its own seed: (restarts, n, 2(d-1))."""
    if n < 2 or d < 2:
        raise InputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if restarts < 1:
        raise InputError(f"need at least one restart, got {restarts}")
    if budget < 1:
        raise InputError(f"need a budget of at least one evaluation, got {budget}")
    if seed < 0:
        raise InputError(f"need a seed of at least 0, got {seed}")
    footprint = _search_footprint(n, d, restarts, simplex)
    if footprint > SEARCH_MEMORY_LIMIT:
        raise InputError(
            f"{restarts} restarts at n={n}, d={d} need about {footprint / 1024**3:.1f} GiB, "
            f"over the {SEARCH_MEMORY_LIMIT / 1024**3:.0f} GiB limit"
        )
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    return np.array([np.random.default_rng(s).uniform(0.0, 2.0 * math.pi, size=(n, 2 * (d - 1))) for s in seeds])


def _initial_kets(initial_point: SearchSpacePoint, n: int, d: int) -> np.ndarray:
    """An initial point's projector kets, checked to be n unit kets of dimension d."""
    kets = np.asarray(initial_point.projector_kets, dtype=complex)
    if kets.shape != (n, d):
        raise InputError(f"initial point has projector kets of shape {kets.shape}, need ({n}, {d})")
    qm.check_kets(kets)
    return kets


def _result(values: np.ndarray, evaluations: np.ndarray, best_point) -> OptimizationResult:
    return OptimizationResult(
        best_value=float(values.min()),
        best_point=best_point,
        evaluations=int(evaluations.sum()),
        trace=tuple(enumerate(values.tolist())),
    )


def _see_saw_search(
    sweep, n: int, d: int, restarts: int, seed: int, budget: int, initial_point: SearchSpacePoint | None
) -> OptimizationResult:
    kets = decode_state(_start_angles(n, d, restarts, seed, budget, simplex=False))
    if initial_point is not None:
        kets[0] = _initial_kets(initial_point, n, d)
    values, states, evaluations = _see_saw(sweep, kets, budget)
    best = int(np.argmin(values))
    return _result(values, evaluations, SearchSpacePoint(states[best], kets[best]))


def minimize_pointer_product(
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    initial_point: SearchSpacePoint | None = None,
    sigma: float | None = None,
) -> OptimizationResult:
    """Minimize the weak-limit mean product of the pointer positions over
    projector sequences of length ``n`` in dimension ``d`` and over
    initial states, by see-saw sweeps.

    ``sigma`` switches to the exact moment at that pointer width, the
    same recursion at the overlap exp(-1/(8 sigma^2)) < 1, for landscape
    exploration by Nelder-Mead over the projector angles, with the initial
    state taken exactly, as a least eigenvector; the default (None) is the
    weak-limit objective the -1/8 conjecture is about.
    """
    if sigma is None:
        return _see_saw_search(_pointer_sweep, n, d, restarts, seed, budget, initial_point)
    # A subnormal sigma^2 overflows the exponent to -inf: overlap 0.
    with np.errstate(over="ignore"):
        overlap = matrix_element(GaussianPointer(sigma), PointerOperatorKind.IDENTITY, 0.0, 1.0).real
    width = 2 * (d - 1)
    starts = _start_angles(n, d, restarts, seed, budget, simplex=True)
    if initial_point is not None:
        starts[0] = _encode_state(_initial_kets(initial_point, n, d))
    kets_at = lambda points: decode_state(points.reshape(-1, n, width))
    objective = lambda points: np.linalg.eigvalsh(_pointer_operators(kets_at(points), overlap))[:, 0]
    values, points, evaluations = _nelder_mead(objective, starts.reshape(restarts, -1), budget)
    best = int(np.argmin(values))
    kets = kets_at(points[best])[0]
    _, vectors = np.linalg.eigh(_pointer_operators(kets[np.newaxis], overlap))
    return _result(values, evaluations, SearchSpacePoint(vectors[0, :, 0], kets))


def minimize_weak_value_real(
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    initial_point: SearchSpacePoint | None = None,
) -> OptimizationResult:
    """Minimize Re of the no-post-selection sequential weak value over
    projector sequences of length ``n`` in dimension ``d`` and over
    initial states, by see-saw sweeps."""
    return _see_saw_search(_weak_value_sweep, n, d, restarts, seed, budget, initial_point)


def chain_point(n: int) -> SearchSpacePoint:
    """The projector-chain configuration as a search-space point (d=2)."""
    thetas = np.arange(1, n + 1) * math.pi / (n + 1)
    return SearchSpacePoint(
        state=np.array([1.0, 0.0], dtype=complex),
        projector_kets=np.stack([np.cos(thetas), np.sin(thetas)], axis=1).astype(complex),
    )
