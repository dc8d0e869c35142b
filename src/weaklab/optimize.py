"""Multi-start search for the most anomalous no-post-selection readings.

Searches run over a pure initial state plus a sequence of rank-1
projectors, each parameterized by hyperspherical angles and phases
(2(d-1) reals per state, norm 1 by construction, no constraints for the
local method to fight). Two objectives are offered:

* the weak-limit mean product of all pointer positions (the nested
  anti-commutator form), whose conjectured floor is -1/8 for projector
  sequences of any length;
* the real part of the sequential weak value itself, which projector
  chains push toward -1.

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
from .errors import InputError, InvalidDimensions
from .pointer import GaussianPointer, PointerOperatorKind
from .simulator import _chain, _tables

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
    """Angles for the initial state and for each measured projector."""

    state_params: np.ndarray
    projector_params: tuple[np.ndarray, ...]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.state_params, *self.projector_params])

    @classmethod
    def from_flat(cls, flat: np.ndarray, n: int, d: int) -> "SearchSpacePoint":
        width = 2 * (d - 1)
        flat = np.asarray(flat, dtype=float)
        return cls(
            state_params=flat[:width].copy(),
            projector_params=tuple(
                flat[width * (j + 1) : width * (j + 2)].copy() for j in range(n)
            ),
        )

    def decode(self) -> tuple[qm.PureState, list[qm.Observable]]:
        state = qm.PureState(decode_state(self.state_params))
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
    """(B, 2(d-1)(n+1)) search points -> (B, n+1, d) kets: the state, then
    the ket of each projector."""
    return decode_state(points.reshape(points.shape[0], n + 1, 2 * (d - 1)))


def _pointer_products(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """Weak-limit all-position moment 2^(1-n) <psi|{A_1,{...,A_n}...}|psi>
    of each point, built as the nested product of rank-1 projectors."""
    kets = _decode_points(points, n, d)
    projectors = (kets[:, :, :, np.newaxis] * kets[:, :, np.newaxis, :].conj()).swapaxes(0, 1)
    nested = projectors[n]
    for projector in projectors[n - 1 : 0 : -1]:
        product = projector @ nested
        nested = product + product.conj().swapaxes(1, 2)
    moment = kets[:, 0, np.newaxis, :].conj() @ nested @ kets[:, 0, :, np.newaxis]
    return 2.0 ** (1 - n) * moment[:, 0, 0].real


def _weak_value_reals(points: np.ndarray, n: int, d: int) -> np.ndarray:
    """Re <psi| A_n ... A_1 |psi> of each point for rank-1 projectors,
    the product of overlaps <psi|k_n> <k_n|k_(n-1)> ... <k_1|psi>."""
    kets = _decode_points(points, n, d)
    chain = np.concatenate([kets, kets[:, :1]], axis=1)
    overlaps = (chain[:, 1:].conj() * chain[:, :-1]).sum(axis=2)
    return overlaps.prod(axis=1).real


def _projector_bases(kets: np.ndarray) -> np.ndarray:
    """Eigenbases of the projectors |k><k| for eigenvalues (0, ..., 0, 1):
    the Householder reflections that map e_d to each ket up to a phase,
    so their last column is the ket and the others span its complement."""
    mirror = kets.copy()
    mirror[..., -1] += np.exp(1j * np.angle(kets[..., -1]))
    outer = mirror[..., :, np.newaxis] * mirror[..., np.newaxis, :].conj()
    return np.eye(kets.shape[-1]) - 2.0 * outer / (np.abs(mirror) ** 2).sum(axis=-1)[..., np.newaxis, np.newaxis]


def _finite_sigma_products(points: np.ndarray, n: int, d: int, tables: np.ndarray) -> np.ndarray:
    """Exact all-position moment of each point at one pointer width, one
    batched chain whose every step reads the (x, identity) ``tables``."""
    kets = _decode_points(points, n, d)
    bases = _projector_bases(kets[:, 1:])
    initial = kets[:, 0, :, np.newaxis] * kets[:, 0, np.newaxis, :].conj()
    moment, norm = _chain(initial, bases.swapaxes(0, 1), [tables] * n).real
    return moment / norm


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


def _search(
    objective,
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    initial_point: SearchSpacePoint | None,
) -> OptimizationResult:
    if n < 2 or d < 2:
        raise InvalidDimensions(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    if restarts < 1:
        raise InvalidDimensions(f"need at least one restart, got {restarts}")
    if budget < 1:
        raise InvalidDimensions(f"need a budget of at least one evaluation, got {budget}")
    dim = 2 * (d - 1) * (n + 1)
    # Every simplex, plus one objective call over all their vertices at
    # once, as the first evaluation and a shrink of every restart make.
    footprint = restarts * (dim + 1) * (dim + 4 * (n + 1) * d * d) * 16
    if footprint > SEARCH_MEMORY_LIMIT:
        raise InputError(
            f"{restarts} restarts at n={n}, d={d} need about {footprint / 1024**3:.1f} GiB, "
            f"over the {SEARCH_MEMORY_LIMIT / 1024**3:.0f} GiB limit"
        )
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    starts = np.array([np.random.default_rng(s).uniform(0.0, 2.0 * math.pi, size=dim) for s in seeds])
    if initial_point is not None:
        starts[0] = initial_point.flatten()

    values, points, evaluations = _nelder_mead(objective, starts, budget)
    best = int(np.argmin(values))
    return OptimizationResult(
        best_value=float(values[best]),
        best_point=SearchSpacePoint.from_flat(points[best], n, d),
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
    projector sequences of length ``n`` in dimension ``d``.

    ``sigma`` switches to the finite-width exact moment for landscape
    exploration; the default (None) is the weak-limit objective the
    -1/8 conjecture is about.
    """
    if sigma is None:
        objective = lambda points: _pointer_products(points, n, d)
    else:
        # Every rank-1 projector has eigenvalues (0, ..., 0, 1), so one
        # (x, identity) stack serves every step of every point.
        kinds = (PointerOperatorKind.POSITION, PointerOperatorKind.IDENTITY)
        tables = _tables(np.eye(d)[-1], GaussianPointer(sigma), kinds)[:, np.newaxis]
        objective = lambda points: _finite_sigma_products(points, n, d, tables)
    return _search(objective, n, d, restarts, seed, budget, initial_point)


def minimize_weak_value_real(
    n: int,
    d: int,
    restarts: int,
    seed: int,
    budget: int,
    initial_point: SearchSpacePoint | None = None,
) -> OptimizationResult:
    """Minimize Re of the no-post-selection sequential weak value over
    projector sequences of length ``n`` in dimension ``d``."""
    objective = lambda points: _weak_value_reals(points, n, d)
    return _search(objective, n, d, restarts, seed, budget, initial_point)


def chain_point(n: int) -> SearchSpacePoint:
    """The projector-chain configuration as a search-space point (d=2)."""
    thetas = [j * math.pi / (n + 1) for j in range(1, n + 1)]
    return SearchSpacePoint(
        state_params=np.zeros(2),
        projector_params=tuple(np.array([theta, 0.0]) for theta in thetas),
    )
