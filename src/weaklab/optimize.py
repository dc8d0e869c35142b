"""Multi-start search for the most anomalous no-post-selection readings.

Searches run over a sequence of n rank-1 projectors, each ket
parameterized by hyperspherical angles and phases (2(d-1) reals, norm 1
by construction, no constraints for the local method to fight). Two
objectives are offered:

* the mean product of all pointer positions, at a finite width or in
  the weak limit (the nested anti-commutator form), whose conjectured
  floor is -1/8 for projector sequences of any length;
* the real part of the sequential weak value itself, which projector
  chains push toward -1.

The initial state is not searched. For fixed projectors both objectives
read <psi|H|psi> with H Hermitian, so by Rayleigh-Ritz their least value
over pure states is the least eigenvalue of H, attained by its
eigenvector: the objective is lambda_min(H), and the state of the
returned point is that eigenvector (variable projection; Golub & Pereyra,
SIAM J. Numer. Anal. 10, 413 (1973)).

Local descent is Nelder-Mead from seeded uniform starts. All restarts
move in lockstep: each iteration evaluates every restart's trial point in
one batched objective call. Each restart's seed derives from the master
seed, and no restart's path depends on the others, so results are
reproducible and do not change with the number of restarts beside it.
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


@dataclass(frozen=True)
class SearchSpacePoint:
    """The initial state as a unit ket, and angles for each measured projector.

    A search moves the projector angles only; the state of the point it
    returns is the least eigenvector there, and an ``initial_point`` seeds
    restart 0 with its projector angles alone."""

    state: np.ndarray
    projector_params: tuple[np.ndarray, ...]

    def decode(self) -> tuple[qm.PureState, list[qm.Observable]]:
        state = qm.PureState(self.state)
        projectors = [
            qm.projector_from_ket(qm.PureState(decode_state(p))) for p in self.projector_params
        ]
        return state, projectors


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_point: SearchSpacePoint
    evaluations: int
    trace: tuple[tuple[int, float], ...]


def _decode_points(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """(B, 2(d-1)n) search points -> (B, n, d) projector kets."""
    return decode_state(points.reshape(points.shape[0], n, 2 * (d - 1)))


def _pointer_operators(points: np.ndarray, n: int, d: int, overlap: float) -> np.ndarray:
    """The (B, d, d) operators 2^(1-n) Y_1 whose expectation in the initial
    state is the all-position moment, built in the Heisenberg picture from
    Y_n = A_n. For a rank-1 projector A = |k><k| the exact position step
    is Y -> (c/2)(AY + YA) + (1 - c) AYA at the Gaussian ``overlap`` c of
    its eigenvalues 0 and 1, with AY = |k> (<k|Y) and AYA = <k|Y|k> A; at
    c = 1 it is the weak limit, the nested anti-commutator
    {A_1,{...,A_n}...}/2^(n-1)."""
    kets = _decode_points(points, n, d).swapaxes(0, 1)
    columns, rows = kets[..., np.newaxis], kets.conj()[..., np.newaxis, :]
    nested = columns[-1] * rows[-1]
    for column, row in zip(columns[-2::-1], rows[-2::-1]):
        projected = row @ nested
        product = column * projected
        nested = product + product.conj().swapaxes(1, 2)
        if overlap < 1.0:
            nested = overlap * nested + 2 * (1 - overlap) * (projected @ column) * (column * row)
    return 2.0 ** (1 - n) * nested


def _pointer_products(points: np.ndarray, n: int, d: int, overlap: float) -> np.ndarray:
    """Least all-position moment over initial states at each point: the
    least eigenvalue of its ``_pointer_operators`` operator."""
    return np.linalg.eigvalsh(_pointer_operators(points, n, d, overlap))[:, 0]


def _weak_value_factors(points: np.ndarray, n: int, d: int):
    """The kets k_1 and k_n of each point and c = <k_n|k_(n-1)> ... <k_2|k_1>,
    so that <psi| A_n ... A_1 |psi> = c <psi|k_n> <k_1|psi>."""
    kets = _decode_points(points, n, d)
    overlaps = (kets[:, 1:].conj() * kets[:, :-1]).sum(axis=2)
    return kets[:, 0], kets[:, -1], overlaps.prod(axis=1)


def _weak_value_operators(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """The (B, d, d) Hermitian parts of c |k_n><k_1|, whose expectation in
    the initial state is Re <psi| A_n ... A_1 |psi>."""
    first, last, c = _weak_value_factors(points, n, d)
    half = 0.5 * c[:, np.newaxis, np.newaxis] * last[:, :, np.newaxis] * first[:, np.newaxis, :].conj()
    return half + half.conj().swapaxes(1, 2)


def _weak_value_reals(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """Least Re <psi| A_n ... A_1 |psi> over initial states at each point,
    the least eigenvalue of its ``_weak_value_operators`` operator. That
    operator has rank at most 2, on the span of k_1 and k_n; with
    s = <k_1|k_n> its eigenvalues there sum to Re(cs) and multiply to
    (|cs|^2 - |c|^2)/4 <= 0, so the least is
    (Re(cs) - sqrt(|c|^2 - Im(cs)^2))/2. The root's argument is formed as
    |c|^2 |k_n - s k_1|^2 + Re(cs)^2, which equals it for unit kets but
    does not cancel to rounding noise where k_n is almost parallel to k_1."""
    first, last, c = _weak_value_factors(points, n, d)
    s = (first.conj() * last).sum(axis=1)
    cs = c * s
    residual = last - s[:, np.newaxis] * first
    spread = np.abs(c) ** 2 * (np.abs(residual) ** 2).sum(axis=1) + cs.real**2
    return 0.5 * (cs.real - np.sqrt(spread))


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


def _search_footprint(n: int, d: int, restarts: int) -> int:
    """Bytes a search holds at its peak, at most: every simplex, plus one
    objective call over all their vertices at once, as the first
    evaluation and a shrink of every restart make. Per vertex, in 16-byte
    units: two per angle (the simplex, its sorted copy, the angles' phase
    factors), three per entry of the n projector kets (the kets, their
    conjugates, the decoding work) and six d x d operators (the
    recursion's and the copy eigvalsh factors)."""
    dim = 2 * (d - 1) * n
    return restarts * (dim + 1) * (2 * dim + 3 * n * d + 6 * d * d) * 16


def _search(
    objective,
    operators,
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    initial_point: SearchSpacePoint | None,
) -> OptimizationResult:
    """Nelder-Mead over the projector angles only. ``objective`` maps
    (B, 2(d-1)n) points to the least eigenvalues of the (B, d, d) Hermitian
    ``operators`` at them; the best restart's state is the eigenvector of
    that least eigenvalue."""
    if n < 2 or d < 2:
        raise InputError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if restarts < 1:
        raise InputError(f"need at least one restart, got {restarts}")
    if budget < 1:
        raise InputError(f"need a budget of at least one evaluation, got {budget}")
    if seed < 0:
        raise InputError(f"need a seed of at least 0, got {seed}")
    footprint = _search_footprint(n, d, restarts)
    if footprint > SEARCH_MEMORY_LIMIT:
        raise InputError(
            f"{restarts} restarts at n={n}, d={d} need about {footprint / 1024**3:.1f} GiB, "
            f"over the {SEARCH_MEMORY_LIMIT / 1024**3:.0f} GiB limit"
        )
    width = 2 * (d - 1)
    dim = width * n
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    starts = np.array([np.random.default_rng(s).uniform(0.0, 2.0 * math.pi, size=dim) for s in seeds])
    if initial_point is not None:
        starts[0] = np.concatenate(initial_point.projector_params)

    values, points, evaluations = _nelder_mead(objective, starts, budget)
    best = int(np.argmin(values))
    _, vectors = np.linalg.eigh(operators(points[best : best + 1]))
    return OptimizationResult(
        best_value=float(values[best]),
        best_point=SearchSpacePoint(vectors[0, :, 0], tuple(points[best].reshape(n, width))),
        evaluations=int(evaluations.sum()),
        trace=tuple(enumerate(values.tolist())),
    )


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
    initial states, the latter exactly, as a least eigenvalue.

    ``sigma`` switches to the exact moment at that pointer width, the
    same recursion at the overlap exp(-1/(8 sigma^2)) < 1, for landscape
    exploration; the default (None) is the weak-limit objective the -1/8
    conjecture is about.
    """
    overlap = 1.0
    if sigma is not None:
        # A subnormal sigma^2 overflows the exponent to -inf: overlap 0.
        with np.errstate(over="ignore"):
            overlap = matrix_element(GaussianPointer(sigma), PointerOperatorKind.IDENTITY, 0.0, 1.0).real
    objective = lambda points: _pointer_products(points, n, d, overlap)
    operators = lambda points: _pointer_operators(points, n, d, overlap)
    return _search(objective, operators, n, d, restarts, seed, budget, initial_point)


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
    initial states, the latter exactly, as a least eigenvalue."""
    objective = lambda points: _weak_value_reals(points, n, d)
    operators = lambda points: _weak_value_operators(points, n, d)
    return _search(objective, operators, n, d, restarts, seed, budget, initial_point)


def chain_point(n: int) -> SearchSpacePoint:
    """The projector-chain configuration as a search-space point (d=2)."""
    thetas = [j * math.pi / (n + 1) for j in range(1, n + 1)]
    return SearchSpacePoint(
        state=np.array([1.0, 0.0], dtype=complex),
        projector_params=tuple(np.array([theta, 0.0]) for theta in thetas),
    )
