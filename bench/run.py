"""weaklab benchmark: one seeded, closed-loop, single-client workload per run.

    python3 bench/run.py --workload {moments,sampling,search} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. With ``--trace 0`` the run measures
the end-to-end metrics: fresh-interpreter set-up time, request latency
(median and 90th percentile), requests per second and peak RSS. With
``--trace 1`` a separate pass wraps every layer of the program from the
outside (see tracing.py) and reports per-layer counts and times instead.
Every output is checked (see checks.py) and a seeded subset of requests is
replayed to confirm byte-identical reports. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The run is single-threaded on purpose (BLAS/OpenMP pools pinned to one
thread, WEAKLAB_THREADS unset): that is the baseline configuration.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # must happen before numpy is first imported
    os.environ[_var] = "1"
os.environ.pop("WEAKLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = "bench/.work"     # scenario files and span dumps, relative to ROOT
SETUP_REPEATS = 5           # fresh interpreters per set-up measurement, at least (after one warm-up)
REPLAYS = 3                 # requests replayed for the byte-identical check
MIN_REQUESTS = 100          # so the 90th percentile has ten requests beyond it
REPLAYED_COMMANDS = ("sample", "optimize", "bounds")
# Request time of one block at nominal machine speed (see speed.py), from
# the seed commit's scaled requests/s. A run executes a fixed number of
# whole blocks, so its requests, and which of them fail, repeat exactly for
# a seed; the number is set by --seconds (see block_count).
NOMINAL_BLOCK_SECONDS = {"moments": 28 / 192.3, "sampling": 14 / 9.84, "search": 11 / 6.78}
# Small fixed requests that load lazily imported code before timing starts.
WARMUP = {
    "moments": [
        ("simulate", "illustrative", "--pattern", "xX", "--method", "exact"),
        ("simulate", "pauli-xy", "--pattern", "px", "--method", "weak"),
        ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "2", "--steps", "3", "--pattern", "xx"),
        ("scenario", "common-cause"),
        ("bounds", "--trials", "5"),
    ],
    "sampling": [("sample", "pauli-xy", "--shots", "1000"), ("sample", "common-cause", "--shots", "1000")],
    "search": [("optimize", "--n", "2", "--restarts", "1", "--budget", "200")],
}


@dataclass
class Done:
    """One executed request."""

    request: workloads.Request
    rc: int | None          # CLI exit code; None when the call raised
    stdout: str
    result: object          # library return value
    error: str              # last stderr line or exception, when rc != 0
    latency: float          # seconds


class Runner:
    def __init__(self, workload: str, seed: int):
        import weaklab
        import weaklab.cli

        self.weaklab = weaklab
        self.cli = weaklab.cli
        self.name = workload
        self.workload = workloads.make(workload, seed, WORKDIR)
        self.blocks = self.workload.blocks()
        self.used: list[list[workloads.Request]] = []

    def next_block(self) -> list[workloads.Request]:
        block = next(self.blocks)
        for req in block:
            for path, text in req.files.items():
                Path(path).write_text(text)
            req.files = {}  # a long run need not hold every file in memory
        self.used.append(block)
        return block

    def plan(self, seconds: int) -> list[list[workloads.Request]]:
        """The run's blocks, made and written out before any is timed."""
        blocks = [self.next_block()]
        blocks += [self.next_block() for _ in range(block_count(self.name, seconds, len(blocks[0])) - 1)]
        return blocks

    def execute(self, req: workloads.Request) -> Done:
        out, err = io.StringIO(), io.StringIO()
        result, error = None, ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if req.argv:
                    rc = self.cli.main(list(req.argv))
                else:
                    result = self.weaklab.minimize_pointer_product(**req.call)
                    rc = 0
        except SystemExit as exc:  # argparse rejects a command line by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not the end of the run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if rc != 0 and not error:
            lines = err.getvalue().strip().splitlines()
            error = lines[-1] if lines else f"exit code {rc}"
        return Done(req, rc, out.getvalue(), result, error, latency)

    def run_block(self, block, tracer=None) -> list[Done]:
        done = []
        for req in block:
            if tracer is not None:
                tracer.request_id += 1
            done.append(self.execute(req))
        return done

    def closed_loop(self, blocks, meter: speed.Speedometer) -> list[Done]:
        """Run the blocks' requests back to back, with reference points
        between them (see speed.py). Reference points are not request time."""
        done: list[Done] = []
        for block in blocks:
            for req in block:
                if meter.due():
                    meter.measure()
                done.append(self.execute(req))
        return done


def block_count(workload: str, seconds: int, block_size: int) -> int:
    """Whole blocks in a run: ``seconds`` of request time at nominal machine
    speed, and at least MIN_REQUESTS requests. It depends on neither the
    seed nor the machine, so attempted and failed repeat exactly for a seed."""
    return max(round(seconds / NOMINAL_BLOCK_SECONDS[workload]), math.ceil(MIN_REQUESTS / block_size))


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def _fresh_import(*flags: str) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import weaklab.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def import_times_ms() -> dict:
    """Cumulative import time of weaklab and scipy.optimize, from -X importtime."""
    _fresh_import()
    samples: dict = {"weaklab": [], "scipy.optimize": []}
    for _ in range(SETUP_REPEATS):
        found = dict.fromkeys(samples, 0.0)
        for line in _fresh_import("-X", "importtime")[1].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()] = int(parts[1]) / 1e3
        for key, value in found.items():
            samples[key].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_outputs(done: list[Done], weaklab) -> tuple[int, list[str]]:
    """Returns (failed requests, failure reasons). Each reason starts with
    "wrong:" (a wrong output), "miss:" (a search short of its target) or
    "error:" (a nonzero exit or an exception)."""
    reasons: dict[int, str] = {}
    parsed = []
    for index, item in enumerate(done):
        doc, problem = None, None
        if item.rc != 0:
            reasons[index] = f"error: {item.request.label}: {item.error}"
        elif item.request.argv:
            try:
                doc = json.loads(item.stdout)
                problem = checks.check_cli(item.request, doc)
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable report ({type(exc).__name__}: {exc})"
        else:
            exact = _exact_at_best(weaklab, item.request.call, item.result)
            problem = checks.check_library(item.request, item.result, exact)
        if problem:
            kind = "miss" if isinstance(problem, checks.Miss) else "wrong"
            reasons[index] = f"{kind}: {item.request.label}: {problem}"
        parsed.append((item.request, doc))
    for index, problem in checks.check_pairs(parsed).items():
        reasons.setdefault(index, f"wrong: simulate-pair: {problem}")
    return len(reasons), list(reasons.values())


def _exact_at_best(weaklab, call, result) -> float:
    state, projectors = result.best_point.decode()
    steps = [weaklab.MeasurementStep(p, weaklab.GaussianPointer(call["sigma"])) for p in projectors]
    scenario = weaklab.Scenario(initial=state.to_density(), steps=steps)
    return weaklab.exact_moment(scenario, weaklab.MomentPattern.all_position(call["n"])).value


def replay_check(runner: Runner, done: list[Done], seed: int) -> list[str]:
    """Re-run a seeded subset of sample/optimize/bounds requests; their
    stdout must be byte-identical."""
    candidates = [item for item in done if item.request.command in REPLAYED_COMMANDS and item.rc == 0]
    rng = np.random.default_rng([seed, 1])
    picks = rng.choice(len(candidates), size=min(REPLAYS, len(candidates)), replace=False) if candidates else []
    problems = []
    for pick in sorted(picks):
        first = candidates[pick]
        again = runner.execute(first.request)
        if again.rc != first.rc or again.stdout != first.stdout:
            problems.append(f"replay of {first.request.label} gave different stdout")
    return problems


def request_list_check(workload: str, seed: int, used) -> list[str]:
    """The same seed must give the same request list."""
    fresh = workloads.make(workload, seed, WORKDIR).blocks()
    for number, block in enumerate(used):
        if [r.fingerprint for r in next(fresh)] != [r.fingerprint for r in block]:
            return [f"block {number} differs when regenerated from seed {seed}"]
    return []


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def timings(latencies_s: list[float]) -> dict:
    """Median and 90th-percentile latency, and requests per second of
    request time, from a closed loop's latencies."""
    latencies = sorted(value * 1e3 for value in latencies_s)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": deciles[8],
        "requests_per_s": len(latencies) / sum(latencies_s),
    }


def end_to_end(done: list[Done], setup_s: float, factor: float) -> dict:
    """The end-to-end metrics, times scaled to nominal machine speed."""
    metrics = timings([item.latency for item in done])
    metrics["latency_p50_ms"] *= factor
    metrics["latency_p90_ms"] *= factor
    metrics["requests_per_s"] /= factor
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["setup_s"] = setup_s * factor
    units = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "requests_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def per_layer(tracer: tracing.Tracer, done: list[Done], imports: dict) -> dict:
    summary = tracer.summary()
    counts = tracer.call_counts()
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def calls_and_self(metric, names):
        put(f"{metric}.calls", sum(counts[n] for n in names), "count")
        put(f"{metric}.self_ms", sum(summary[n]["self_ns"] for n in names if n in summary) / 1e6, "ms")

    def durations(name):
        return summary[name]["durations_ns"] if name in summary else []

    put("pointer.matrix_element.calls", counts["pointer.matrix_element"], "count")
    for name in ("simulator.exact_moment", "simulator.weak_prediction"):
        calls_and_self(name, [name])
        put(f"{name}.p50_us", tracing.median_us(durations(name)), "us")

    recover = "simulator.recover_weak_value"
    calls_and_self(recover, [recover])
    moments = tracer.children_of({recover})
    inner = moments["simulator.exact_moment"] + moments["simulator.weak_prediction"]
    put(f"{recover}.moments_per_call", inner / counts[recover] if counts[recover] else 0.0, "count")

    sampler = "simulator.sample_outcomes"
    calls_and_self(sampler, [sampler])
    facts = [(tracer.spans[i], f) for i, f in tracer.observed.get(sampler, [])]
    rejection = [f for _, f in facts if f[4] == "rejection" and f[2] > 0]
    proposals = sum(f[2] / f[3] for f in rejection)
    put(f"{sampler}.acceptance_rate", sum(f[2] for f in rejection) / proposals if proposals else 0.0, "ratio")
    put(f"{sampler}.grid_fallbacks", sum(f[4] == "grid" for _, f in facts), "count")
    put(f"{sampler}.retained_shots", sum(f[2] for _, f in facts), "count")
    for n in range(2, 7):
        spans = [(span, f) for span, f in facts if f[0] == n]
        shots = sum(f[1] for _, f in spans)
        elapsed_ms = sum(span[2] - span[1] for span, _ in spans) / 1e6
        put(f"{sampler}.kshot_ms.n{n}", 1e3 * elapsed_ms / shots if shots else 0.0, "ms")

    searches = ("optimize.minimize_pointer_product", "optimize.minimize_weak_value_real")
    calls_and_self("optimize.minimize", searches)
    search_facts = [f for name in searches for _, f in tracer.observed.get(name, [])]
    evaluations = sum(f[0] for f in search_facts)
    search_ns = sum(sum(durations(name)) for name in searches)
    put("optimize.minimize.evaluations", evaluations, "count")
    put("optimize.minimize.eval_us", search_ns / 1e3 / evaluations if evaluations else 0.0, "us")
    restarts = sum(len(f[2]) for f in search_facts)
    hits = sum(sum(abs(v - f[1]) <= checks.REACH_TOL for v in f[2]) for f in search_facts)
    put("optimize.minimize.restart_hit_frac", hits / restarts if restarts else 0.0, "ratio")

    for name in ("qm.spectral_decompose", "weak_values.seq_weak_value", "weak_values.projector_pair_report",
                 "scenario_io.load_scenario", "cli.main"):
        calls_and_self(name, [name])
    calls_and_self("scenarios.build", [n for n in counts if n.startswith("scenarios.build_")])

    put("setup.import_weaklab_ms", imports["weaklab"], "ms")
    put("setup.import_scipy_optimize_ms", imports["scipy.optimize"], "ms")
    request_ns = sum(item.latency for item in done) * 1e9
    put("trace.overhead_frac", tracer.overhead_ns() / (request_ns - tracer.overhead_ns()), "ratio")
    put("trace.unaccounted_frac", 1.0 - tracer.root_ns() / request_ns, "ratio")
    return metrics


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), model)
    except OSError:
        pass
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "WEAKLAB_THREADS": "unset",
        "baseline": "single-threaded, one client, closed loop",
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_traced(runner: Runner, args) -> tuple[list[Done], dict, list[str], list[str]]:
    """Warm-up, a fixed number of traced blocks, then block 0 again under a
    fresh tracer, whose call counts must repeat. Returns (requests,
    per-layer metrics, notes, problems)."""
    imports = import_times_ms()
    blocks = runner.plan(args.seconds)
    first = blocks[0]
    runner.run_block(first)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        done = runner.run_block(first, tracer)
        first_counts = tracer.call_counts()
        for block in blocks[1:]:
            done += runner.run_block(block, tracer)
    finally:
        tracer.uninstall()
    again = tracing.Tracer()
    again.install()
    try:
        runner.run_block(first, again)
    finally:
        again.uninstall()
    problems = [] if again.call_counts() == first_counts else ["per-layer call counts differ on a replay of block 0"]
    tracer.write(Path(WORKDIR) / f"spans-{args.workload}-{args.seed}.tsv")
    return done, per_layer(tracer, done, imports), [], problems


def run_untraced(runner: Runner, args) -> tuple[list[Done], dict, list[str], list[str]]:
    """Warm-up, the timed closed loop with set-up measurements spread over
    it, then the replay check. Returns (requests, end-to-end metrics,
    notes, problems).

    Set-up time is the median wall time of SETUP_REPEATS or more fresh
    interpreters importing weaklab.cli, one before each stretch of blocks,
    so that it sees the same machine speed as the reference points that
    scale it."""
    _fresh_import()  # compiles bytecode on a fresh checkout
    for argv in WARMUP[args.workload]:
        runner.execute(workloads.Request("warmup", ("--format", "json", *argv)))
    meter = speed.Speedometer()
    blocks = runner.plan(args.seconds)
    stride = max(1, len(blocks) // SETUP_REPEATS)
    done, setups = [], []
    for start in range(0, len(blocks), stride):
        setups.append(_fresh_import()[0])
        done += runner.closed_loop(blocks[start:start + stride], meter)
    setup_s = statistics.median(setups)
    metrics = end_to_end(done, setup_s, meter.factor())
    raw = dict(timings([item.latency for item in done]), setup_s=setup_s)
    notes = [f"unscaled: {json.dumps(raw)}; machine-speed factor {meter.factor():.4f}"]
    return done, metrics, notes, replay_check(runner, done, args.seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "weaklab" / "cli.py").is_file():
        print(f"no weaklab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import weaklab

    if Path(weaklab.__file__).resolve().parent != SRC / "weaklab":
        print(f"imported weaklab from {weaklab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    Path(WORKDIR).mkdir(parents=True, exist_ok=True)

    runner = Runner(args.workload, args.seed)
    done, metrics, notes, problems = (run_traced if args.trace else run_untraced)(runner, args)
    problems += request_list_check(args.workload, args.seed, runner.used)
    failed, reasons = check_outputs(done, weaklab)

    wrong = [r for r in reasons if r.startswith("wrong:")]
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {len(done)} requests, {failed} failed "
          f"(failed_frac {failed / len(done):.4f}), {len(wrong)} wrong outputs")
    for line in notes + reasons + problems:
        print(f"# {line}")
    correct = not wrong and not problems
    print(json.dumps({"correct": correct, "attempted": len(done), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
