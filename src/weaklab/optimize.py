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

Local descent is Nelder-Mead (scipy) from seeded uniform starts; each
restart's seed derives from the master seed, so results are reproducible
and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from . import qm
from .errors import InvalidDimensions
from .pointer import GaussianPointer
from .simulator import MeasurementStep, MomentPattern, Scenario, exact_moment

SIMPLEX_DIAMETER_TOL = 1e-10


def decode_state(params: np.ndarray) -> np.ndarray:
    """Hyperspherical angles + phases -> normalized complex amplitudes."""
    params = np.asarray(params, dtype=float)
    d = params.size // 2 + 1
    thetas = params[: d - 1]
    phases = params[d - 1 :]
    amplitudes = np.empty(d, dtype=complex)
    radial = 1.0
    for j in range(d - 1):
        phase = 1.0 if j == 0 else np.exp(1j * phases[j - 1])
        amplitudes[j] = radial * math.cos(thetas[j]) * phase
        radial *= math.sin(thetas[j])
    amplitudes[d - 1] = radial * np.exp(1j * phases[d - 2])
    return amplitudes


def encode_state(amplitudes: np.ndarray) -> np.ndarray:
    """Inverse of ``decode_state`` up to global phase."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    if abs(vec[0]) > 0:
        vec = vec * (vec[0].conj() / abs(vec[0]))
    d = vec.size
    thetas = np.zeros(d - 1)
    radial = 1.0
    for j in range(d - 1):
        cosine = abs(vec[j]) / radial if radial > 1e-300 else 1.0
        thetas[j] = math.acos(min(1.0, max(-1.0, cosine)))
        radial *= math.sin(thetas[j])
    phases = np.angle(vec[1:])
    return np.concatenate([thetas, phases])


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


def _decode_raw(flat: np.ndarray, n: int, d: int):
    width = 2 * (d - 1)
    psi = decode_state(flat[:width])
    kets = [decode_state(flat[width * (j + 1) : width * (j + 2)]) for j in range(n)]
    return psi, kets


def _pointer_product_objective(flat: np.ndarray, n: int, d: int) -> float:
    """Weak-limit all-position moment: 2^(1-n) <psi|{A_1,{...,A_n}...}|psi>."""
    psi, kets = _decode_raw(flat, n, d)
    nested = np.outer(kets[-1], kets[-1].conj())
    for ket in kets[-2::-1]:
        projected = np.outer(ket, ket.conj() @ nested)
        nested = projected + projected.conj().T
    return float(2.0 ** (1 - n) * (psi.conj() @ nested @ psi).real)


def _weak_value_real_objective(flat: np.ndarray, n: int, d: int) -> float:
    """Re <psi| A_n ... A_1 |psi> for rank-1 projectors."""
    psi, kets = _decode_raw(flat, n, d)
    vec = psi
    for ket in kets:
        vec = ket * (ket.conj() @ vec)
    return float((psi.conj() @ vec).real)


def _finite_sigma_objective(flat: np.ndarray, n: int, d: int, sigma: float) -> float:
    point = SearchSpacePoint.from_flat(flat, n, d)
    state, projectors = point.decode()
    scn = Scenario(
        initial=state.to_density(),
        steps=tuple(MeasurementStep(proj, GaussianPointer(sigma)) for proj in projectors),
        post=None,
    )
    return exact_moment(scn, MomentPattern.all_position(n)).value


def _run_restart(objective, x0: np.ndarray, budget: int):
    result = _scipy_minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "maxfev": budget,
            "xatol": SIMPLEX_DIAMETER_TOL,
            "fatol": 1e-14,
        },
    )
    return float(result.fun), np.asarray(result.x, dtype=float), int(result.nfev)


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
    seeds = np.random.SeedSequence(seed).spawn(restarts)

    def start_for(index: int) -> np.ndarray:
        if index == 0 and initial_point is not None:
            return initial_point.flatten()
        rng = np.random.default_rng(seeds[index])
        return rng.uniform(0.0, 2.0 * math.pi, size=dim)

    outcomes = [_run_restart(objective, start_for(index), budget) for index in range(restarts)]

    evaluations = sum(nfev for _, _, nfev in outcomes)
    trace = tuple((index, value) for index, (value, _, _) in enumerate(outcomes))
    best_index = min(range(restarts), key=lambda index: (outcomes[index][0], index))
    best_value, best_x, _ = outcomes[best_index]
    return OptimizationResult(
        best_value=best_value,
        best_point=SearchSpacePoint.from_flat(best_x, n, d),
        evaluations=evaluations,
        trace=trace,
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
        objective = lambda flat: _pointer_product_objective(flat, n, d)
    else:
        objective = lambda flat: _finite_sigma_objective(flat, n, d, sigma)
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
    objective = lambda flat: _weak_value_real_objective(flat, n, d)
    return _search(objective, n, d, restarts, seed, budget, initial_point)


def chain_point(n: int) -> SearchSpacePoint:
    """The projector-chain configuration as a search-space point (d=2)."""
    thetas = [j * math.pi / (n + 1) for j in range(1, n + 1)]
    return SearchSpacePoint(
        state_params=np.zeros(2),
        projector_params=tuple(np.array([theta, 0.0]) for theta in thetas),
    )
