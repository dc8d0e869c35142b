"""Seeded request lists for the three benchmark workloads.

A workload is an endless sequence of blocks. Every block holds the same
stratified mix of request classes, so the share of cheap and expensive
requests is the same in every run whatever the seed; the seed draws the
inputs inside each class and the order of the requests within a block.
Per-class sizes (dimensions, chain lengths, shots, budgets, sweep lengths,
restarts) come from seeded permutations of equal strata, so every run sees
the same mix of sizes too.

Random scenarios are JSON files in the format the README documents; the
runner writes them to disk before the block runs, so the program only
ever receives generated files and command lines.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("moments", "sampling", "search")

SIGMA_RANGE = (0.3, 300.0)        # pointer widths for the analytic engines
SAMPLER_SIGMA_RANGE = (0.5, 5.0)  # where sampled pointer products show the anomaly
TAIL_DIMS = (8, 16, 32)           # the large-d tail of the moments workload
# Per-restart evaluation budgets for optimize, by (n, d): about twice what
# reaching the known optimum within 1e-6 needed in trials, and small enough
# that most restarts use all of it, so a request's work hardly depends on
# the seed.
OPTIMIZE_BUDGET = {(2, 2): 600, (3, 2): 800, (4, 2): 1000, (5, 2): 1600, (2, 3): 1000}


@dataclass
class Request:
    """One closed-loop request: a CLI command line or a library search call."""

    label: str                          # request class, e.g. "simulate-exact"
    argv: tuple[str, ...] = ()          # CLI arguments (empty for library calls)
    call: dict | None = None            # keyword arguments of minimize_pointer_product
    files: dict = field(default_factory=dict)   # relative path -> JSON text, until written
    expect: dict = field(default_factory=dict)  # what the output check needs
    fingerprint: str = ""               # digest of all of the above, files included

    def __post_init__(self):
        body = json.dumps([self.label, self.argv, self.call, self.files, self.expect], sort_keys=True)
        self.fingerprint = hashlib.sha256(body.encode()).hexdigest()

    @property
    def command(self) -> str:
        return self.argv[2] if self.argv else "library"


# ---------------------------------------------------------------------------
# Random scenario documents
# ---------------------------------------------------------------------------

def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _ket(rng: np.random.Generator, d: int) -> np.ndarray:
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (raw + raw.conj().T) / 2.0


def _density(rng: np.random.Generator, d: int) -> np.ndarray:
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = raw @ raw.conj().T
    return mat / mat.trace().real


def _entry(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def _matrix_doc(matrix: np.ndarray) -> list:
    return [[_entry(cell) for cell in row] for row in matrix]


def random_scenario(
    rng: np.random.Generator,
    d: int,
    n: int,
    postselect: bool,
    sigma_range: tuple[float, float] = SIGMA_RANGE,
) -> tuple[str, dict]:
    """A scenario file (JSON text) with a random state, observables and
    log-uniform widths, and a rank-1 post-selection projector when
    ``postselect`` is set; plus the widths and the largest |eigenvalue| of
    each observable, which the exact/weak agreement check needs."""
    initial = (
        [_entry(c) for c in _ket(rng, d)] if rng.random() < 0.5 else _matrix_doc(_density(rng, d))
    )
    observables = [_hermitian(rng, d) for _ in range(n)]
    sigmas = [_log_uniform(rng, *sigma_range) for _ in range(n)]
    steps = [{"observable": _matrix_doc(a), "sigma": s} for a, s in zip(observables, sigmas)]
    post = None
    if postselect:
        ket = _ket(rng, d)
        post = _matrix_doc(np.outer(ket, ket.conj()))
    doc = {"dimension": d, "initial": initial, "steps": steps, "postselect": post}
    norms = [float(np.max(np.abs(np.linalg.eigvalsh(a)))) for a in observables]
    return json.dumps(doc), {"sigmas": sigmas, "norms": norms}


def _pattern(rng: np.random.Generator, n: int, alphabet: str) -> str:
    return "".join(str(ch) for ch in rng.choice(list(alphabet), size=n))


class _Balanced:
    """Draws from ``values`` in seeded permutations, so each appears equally
    often over any window of len(values) draws."""

    def __init__(self, rng: np.random.Generator, values):
        self._rng = rng
        self._values = list(values)
        self._queue: list = []

    def __call__(self):
        if not self._queue:
            self._queue = [self._values[i] for i in self._rng.permutation(len(self._values))]
        return self._queue.pop()


class _Strata:
    """Draws spread evenly over [lo, hi]: the range (log-scaled if ``log``)
    is cut into ``parts`` equal strata, each used once per ``parts`` draws in
    seeded order, with a uniform draw inside the stratum. Per-class sizes
    drawn this way have the same distribution in every run, whatever the
    seed, which keeps run-to-run spread down."""

    def __init__(self, rng: np.random.Generator, lo: float, hi: float, log: bool, parts: int = 4):
        self._rng = rng
        self._part = _Balanced(rng, range(parts))
        self._parts = parts
        self._log = log
        self._lo, self._hi = (math.log(lo), math.log(hi)) if log else (lo, hi)

    def __call__(self) -> float:
        u = (self._part() + self._rng.random()) / self._parts
        x = self._lo + u * (self._hi - self._lo)
        return float(math.exp(x)) if self._log else float(x)


def _cli(label: str, *argv, files=None, **expect) -> Request:
    return Request(label, ("--format", "json", *argv), files=files or {}, expect=expect)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class _Workload:
    """Endless seeded sequence of request blocks."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._draws: dict = {}

    def draw(self, key, lo, hi, log=False) -> float:
        """Stratified draw for the request class ``key``."""
        if key not in self._draws:
            self._draws[key] = _Strata(self.rng, lo, hi, log)
        return self._draws[key]()

    def pick(self, key, values):
        """Balanced pick from ``values`` for the request class ``key``."""
        if key not in self._draws:
            self._draws[key] = _Balanced(self.rng, values)
        return self._draws[key]()

    def _path(self, block: int, index: int) -> str:
        return f"{self.workdir}/b{block:04d}-{index:02d}.json"

    def blocks(self):
        for block in itertools.count():
            requests = self._make_block(block)
            order = self.rng.permutation(len(requests))
            yield [requests[i] for i in order]

    def _make_block(self, block: int) -> list[Request]:
        raise NotImplementedError


class Moments(_Workload):
    """Analytic engines through simulate, sweep, scenario and bounds."""

    def _make_block(self, block):
        rng = self.rng
        requests = []
        files = []
        # 12 random files: 10 with d 2-4 and 2 from the large-d tail;
        # every other file has rank-1 post-selection. Each file slot cycles
        # through its sizes, so the costly tail has the same mix in every run.
        for index in range(12):
            d = self.pick("tail-dim", TAIL_DIMS) if index >= 10 else self.pick(("d", index), (2, 3, 4))
            n = self.pick(("n", index), range(2, 6))
            path = self._path(block, index)
            doc, facts = random_scenario(rng, d, n, postselect=index % 2 == 0)
            files.append((path, doc, n, facts))
            pattern = _pattern(rng, n, "ixXpP")
            requests.append(
                _cli("simulate-exact", "simulate", path, "--pattern", pattern, "--method", "exact",
                     files={path: doc}, pattern=pattern)
            )
        # Exact/weak pairs on the same i/x/p pattern, for the O(1/sigma^2) check.
        for pair, (path, doc, n, facts) in enumerate(files[:4]):
            pattern = _pattern(rng, n, "ixp")
            for method in ("exact", "weak"):
                requests.append(
                    _cli(f"simulate-{method}", "simulate", path, "--pattern", pattern, "--method", method,
                         files={path: doc}, pattern=pattern, pair=f"{block}-{pair}", **facts)
                )
        for method, (path, doc, n, _) in zip(("exact", "weak"), files[4:6]):
            requests.append(
                _cli(f"simulate-{method}", "simulate", path, "--pattern", "i" * n, "--method", method,
                     files={path: doc}, pattern="i" * n)
            )
        sigma1, sigma2 = _log_uniform(rng, *SIGMA_RANGE), _log_uniform(rng, *SIGMA_RANGE)
        requests.append(
            _cli("simulate-illustrative", "simulate", "illustrative", "--pattern", "xx", "--method", "exact",
                 "--sigma1", repr(sigma1), "--sigma2", repr(sigma2), pattern="xx", sigma1=sigma1)
        )
        requests.append(self._sweep_illustrative(rng))
        requests.append(self._sweep_file(rng, block))
        requests.append(self._scenario("chain-n", rng))
        requests.append(self._scenario(self.pick("builtin", ("illustrative", "pauli-xy", "common-cause")), rng))
        trials = int(self.draw("trials", 50, 151))
        requests.append(
            _cli("bounds", "bounds", "--trials", str(trials), "--seed", str(int(rng.integers(2**31))),
                 trials=trials)
        )
        return requests

    def _sweep_illustrative(self, rng):
        lo, hi = sorted(_log_uniform(rng, *SIGMA_RANGE) for _ in range(2))
        steps = self.pick("steps-illustrative", range(10, 21))
        sigma2 = _log_uniform(rng, *SIGMA_RANGE)
        return _cli("sweep-illustrative", "sweep", "illustrative", "--param", "sigma1",
                    "--from", repr(lo), "--to", repr(hi), "--steps", str(steps), "--pattern", "xx",
                    "--sigma2", repr(sigma2), steps=steps)

    def _sweep_file(self, rng, block):
        d, n = self.pick("sweep-d", (2, 3)), self.pick("sweep-n", (2, 3))
        path = self._path(block, 12)
        doc, _ = random_scenario(rng, d, n, postselect=bool(rng.random() < 0.5))
        lo, hi = sorted(_log_uniform(rng, *SIGMA_RANGE) for _ in range(2))
        steps = self.pick("steps-file", range(10, 21))
        param = f"sigma{int(rng.integers(1, n + 1))}"
        pattern = _pattern(rng, n, "ixp")
        return _cli("sweep-file", "sweep", path, "--param", param, "--from", repr(lo), "--to", repr(hi),
                    "--steps", str(steps), "--pattern", pattern, files={path: doc}, steps=steps,
                    pattern=pattern)

    def _scenario(self, name, rng):
        if name == "chain-n":
            n, sigma = self.pick("chain-n", range(2, 8)), _log_uniform(rng, *SIGMA_RANGE)
            return _cli("scenario-chain-n", "scenario", "chain-n", "--n", str(n), "--sigma", repr(sigma),
                        name=name, n=n, sigma1=sigma)
        sigma1, sigma2 = _log_uniform(rng, *SIGMA_RANGE), _log_uniform(rng, *SIGMA_RANGE)
        return _cli(f"scenario-{name}", "scenario", name, "--sigma1", repr(sigma1), "--sigma2", repr(sigma2),
                    name=name, sigma1=sigma1)


# Shot range per chain length n for the chain-n sampler requests:
# rejection cost grows like d^(2n), so shots shrink as n grows.
# The two costliest classes set the 90th percentile and the peak RSS, so
# their shots are fixed and their requests differ only in their inputs.
_CHAIN_SHOTS = {2: (20_000, 100_000), 3: (5_000, 30_000), 4: (3_000, 10_000), 5: (3_000, 3_000), 6: (800, 800)}


class Sampling(_Workload):
    """The Monte-Carlo sampler on built-ins and small random files."""

    def _sample(self, label, target, lo, hi, flags=(), files=None, postselected=False):
        shots = int(self.draw(("shots", label), lo // 100, hi // 100 + 1)) * 100
        seed = int(self.rng.integers(2**31))
        return _cli(label, "sample", target, *flags, "--shots", str(shots), "--seed", str(seed),
                    files=files, shots=shots, postselected=postselected)

    def _sigma(self, label, slot):
        return repr(self.draw(("sigma", label, slot), *SAMPLER_SIGMA_RANGE, log=True))

    def _builtin(self, name, lo, hi):
        label = f"sample-{name}"
        flags = ("--sigma1", self._sigma(label, 1), "--sigma2", self._sigma(label, 2))
        return self._sample(label, name, lo, hi, flags=flags)

    def _make_block(self, block):
        requests = [
            self._builtin("illustrative", 20_000, 100_000),
            self._builtin("pauli-xy", 5_000, 50_000),
            self._builtin("common-cause", 5_000, 20_000),
        ]
        for n, (lo, hi) in _CHAIN_SHOTS.items():
            label = f"sample-chain-n{n}"
            requests.append(
                self._sample(label, "chain-n", lo, hi, flags=("--n", str(n), "--sigma", self._sigma(label, 1)))
            )
        # Random files: (d, n, post-selected) classes.
        for index, (d, n, post) in enumerate(
            ((2, 2, False), (2, 2, True), (2, 3, False), (2, 3, True), (3, 2, False), (3, 2, True))
        ):
            path = self._path(block, index)
            doc, _ = random_scenario(self.rng, d, n, postselect=post, sigma_range=SAMPLER_SIGMA_RANGE)
            label = f"sample-file-d{d}n{n}{'-post' if post else ''}"
            requests.append(self._sample(label, path, 5_000, 50_000, files={path: doc}, postselected=post))
        return requests


class Search(_Workload):
    """The optimizer: weak-limit CLI searches and finite-width library searches."""

    def _optimize(self, objective, n, d):
        label = f"optimize-{objective}-n{n}d{d}"
        # 4-6 restarts; always 4 for the costliest class, whose requests set
        # the 90th percentile and so should differ only in their inputs.
        restarts = 4 if n == 5 else self.pick(("restarts", label), (4, 5, 6))
        return _cli(label, "optimize", "--objective", objective, "--n", str(n), "--dim", str(d),
                    "--restarts", str(restarts), "--seed", str(int(self.rng.integers(2**31))),
                    "--budget", str(OPTIMIZE_BUDGET[n, d]), objective=objective, n=n, restarts=restarts)

    def _make_block(self, block):
        objectives = ("pointer-product", "weak-value")
        requests = [self._optimize(objective, n, 2) for objective in objectives for n in (2, 3, 5)]
        # The middle-cost classes alternate their objective between blocks.
        for offset, (n, d) in enumerate(((2, 3), (4, 2))):
            requests.append(self._optimize(objectives[(block + offset) % 2], n, d))
        for index, n in enumerate((2, 2, 3)):
            label = f"library-finite-sigma-n{n}"
            call = {
                "n": n,
                "d": 2,
                "restarts": 4,
                "seed": int(self.rng.integers(2**31)),
                "budget": int(self.draw(("budget", index), 80, 151)),
                "sigma": self.draw(("sigma", index), 0.5, 5.0, log=True),
            }
            requests.append(Request(label, call=call))
        return requests


def make(workload: str, seed: int, workdir: str) -> _Workload:
    return {"moments": Moments, "sampling": Sampling, "search": Search}[workload](seed, workdir)
