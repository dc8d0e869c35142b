"""Machine-speed reference for a shared host.

On a shared machine the speed one process gets drifts, by up to a factor
of two over seconds to minutes, as other tenants load the same cores; a
fixed computation measured back to back showed it. Raw times would then
measure the neighbours as much as the program. The benchmark therefore
runs small fixed reference kernels, independent of weaklab, between
requests, and reports every time scaled to a nominal machine speed (see
Speedometer.factor). Medians over a hundred or more points ignore short bursts,
which the medians of the metrics themselves absorb; they follow the slow
drift between runs, which nothing inside one run can. A change to the
program does not change the kernels.

Neighbours do not slow all code alike: Python-driven small linear algebra
(what most requests do) and vectorised arithmetic on long arrays (what the
sampler and the large-d tail do) drift differently. So there are two
kernels, one of each kind, and the factor is the geometric mean of theirs.
On the host the benchmark was built on, one block of requests was repeated
for 3.5-5 minutes per workload with both kernels after each block (the
vector kernel then took 25k vectors through three rounds); over
windows of a tenth of that, the spread (interquartile range over median)
of the block's total request time fell from 0.10 to 0.06 (sampling), 0.13
to 0.08 (moments) and 0.28 to 0.06 (search) when scaled this way. Either
kernel alone did worse on at least one workload.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

INTERVAL_S = 0.2     # request time between two reference points, at most

_MATRIX = np.array(
    [[2.0, 1.0 - 1.0j, 0.5j, 0.0], [1.0 + 1.0j, -1.0, 0.25, 1.0j], [-0.5j, 0.25, 0.5, 2.0], [0.0, -1.0j, 2.0, 1.0]]
)


def python_kernel() -> float:
    """Fixed work: eigendecompositions and sandwich products of a 4x4
    Hermitian matrix in a Python loop."""
    x = _MATRIX
    total = 0.0
    for _ in range(100):
        _, v = np.linalg.eigh(_MATRIX)
        x = v @ (x * 0.5) @ v.conj().T
        total += float(np.trace(x).real)
    return total


def vector_kernel() -> float:
    """Fixed work: Gaussian weights of 20k random complex 4-vectors pushed
    through a 4x4 matrix, as a sampler handles a batch of shots."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 20_000)) + 1j * rng.standard_normal((4, 20_000))
    total = 0.0
    for _ in range(2):
        y = _MATRIX @ x
        total += float(np.sum(np.exp(-0.5 * np.abs(y) ** 2)))
        x = y / np.linalg.norm(y, axis=0)
    return total


# name -> (kernel, nominal time in ms, which sets the scale of reported times)
KERNELS = {"python": (python_kernel, 2.0), "vector": (vector_kernel, 7.0)}


class Speedometer:
    """Reference points of both kernels taken over a run, and the speed
    factor they give."""

    def __init__(self):
        self._last = None
        self._seconds: dict[str, list[float]] = {kind: [] for kind in KERNELS}

    def measure(self) -> None:
        self._last = time.perf_counter()
        for kind, seconds in self._seconds.items():
            start = time.perf_counter()
            KERNELS[kind][0]()
            seconds.append(time.perf_counter() - start)

    def due(self) -> bool:
        return self._last is None or time.perf_counter() - self._last >= INTERVAL_S

    def factor(self) -> float:
        """Geometric mean over the kernels of nominal over median time:
        multiply a time by it (divide a rate by it) to get the value at
        nominal speed."""
        ratios = [KERNELS[kind][1] / 1e3 / statistics.median(seconds) for kind, seconds in self._seconds.items()]
        return math.prod(ratios) ** (1 / len(ratios))
