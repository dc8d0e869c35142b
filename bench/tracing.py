"""Layer tracing from outside the program.

The tracer wraps the public functions of each ``weaklab`` module (the
layers: cli, scenario_io, scenarios, qm, pointer, weak_values, simulator,
optimize) and rebinds every reference to them inside the package, so calls
made through ``from .x import f`` are seen too. Each wrapped call records a
span (name, start, end, parent span, request id) in memory. Functions that
run inside the innermost loops get a call counter instead of a span,
because a span there would cost more than the work it measures.

Nothing in the program changes: ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "scenario_io", "scenarios", "qm", "pointer", "weak_values", "simulator", "optimize")

# Per-element helpers: counted, not timed.
COUNT_ONLY = {
    "pointer.matrix_element",
    "pointer.wavefunction",
    "pointer.displaced_norm",
    "pointer.linearization_error",
    "pointer.weak_regime_check",
    "optimize.decode_state",
    "optimize.encode_state",
}


def _sample_facts(result):
    samples, stats = result
    return samples.shape[1], stats.requested_shots, stats.retained_shots, stats.acceptance_rate, stats.method


def _search_facts(result):
    return result.evaluations, result.best_value, tuple(value for _, value in result.trace)


# Calls whose results the per-layer metrics need, with what to keep of them.
OBSERVED = {
    "simulator.sample_outcomes": _sample_facts,
    "optimize.minimize_pointer_product": _search_facts,
    "optimize.minimize_weak_value_real": _search_facts,
}


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list = []        # (name, start_ns, end_ns, parent index, request id)
        self.counts: Counter = Counter()
        self.observed: dict[str, list] = defaultdict(list)  # name -> [(span index, facts)]
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [mod for name, mod in sys.modules.items() if name == "weaklab" or name.startswith("weaklab.")]
        for layer in LAYERS:
            module = sys.modules[f"weaklab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._counter(name, fn) if name in COUNT_ONLY else self._span(name, fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        facts = OBSERVED.get(name)
        observed = self.observed[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id)
            if facts is not None:
                observed.append((index, facts(result)))
            return result

        return spanned

    # -- analysis ---------------------------------------------------------

    def call_counts(self) -> Counter:
        """Calls per function name, spans and counters together."""
        counts = Counter(span[0] for span in self.spans)
        counts.update(self.counts)
        return counts

    def summary(self) -> dict:
        """Per name: calls, inclusive and self nanoseconds, inclusive durations."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - covered[index]
            entry["durations_ns"].append(end - start)
        return out

    def root_ns(self) -> int:
        """Time covered by top-level spans (those no other span encloses)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def children_of(self, names) -> Counter:
        """Child span names counted under spans whose name is in ``names``."""
        parents = {index for index, span in enumerate(self.spans) if span[0] in names}
        return Counter(span[0] for span in self.spans if span[3] in parents)

    def overhead_ns(self) -> float:
        """Estimated time the wrappers added: calls made times the cost of
        one wrapped call over a plain one, measured on a no-op here."""
        def noop():
            return None

        probe = Tracer()
        timed = {"span": probe._span("probe", noop), "count": probe._counter("probe", noop), "plain": noop}
        cost = {}
        for kind, fn in timed.items():
            start = time.perf_counter_ns()
            for _ in range(20_000):
                fn()
            cost[kind] = (time.perf_counter_ns() - start) / 20_000
        spans, counted = len(self.spans), sum(self.counts.values())
        return spans * (cost["span"] - cost["plain"]) + counted * (cost["count"] - cost["plain"])

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                out.write(f"{name}\t{start}\t{end}\t{parent}\t{request}\n")


def median_us(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e3 if durations_ns else 0.0
