"""Command-line front end.

Subcommands: scenario, simulate, sweep, optimize, sample, bounds.
Reports go to stdout as CSV (default; comment lines carry the command
echo, configuration and summary) or JSON. Reports are byte-identical
across runs with equal inputs and seeds, so timing is written to stderr.
Exit codes: 0 success, 1 numeric failure, 2 input error.

``main`` may be called repeatedly in one process. The argument parser is
built on the first call, not at import, and reused by every later call.
Sizes that would exhaust memory are input errors, checked before the
allocation they would need: ``sweep --steps`` over SWEEP_MAX_POINTS and a
``chain-n`` ``--n`` over CHAIN_MAX_STEPS. ``sweep`` runs its grid through
``simulator.sweep_moments``: one pass pair for both engines, then one slot
contraction per chunk of ``simulator.SWEEP_CHUNK_ENTRIES`` table entries.
``sample`` checks ``--shots`` and ``--seed``, then runs the sampler,
whose footprint check comes before any engine work, and the exact
column last. That column needs no limit of its own:
``simulator.position_moments`` holds five d x d arrays per step, on the
order of the scenario's bytes. ``bounds --trials`` needs no limit: one draw
loop, ``_stacks``, serves all three suites. It draws BOUNDS_CHUNK trials
at a time for the projector-pair and magnitude suites, and BOUNDS_CHUNK //
10 for the hull suite, in the order a one-at-a-time loop would, and yields
one stack per shape for the suite to check and evaluate, so memory is flat
in the trial count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__, qm
from .errors import InputError, NumericError, check_count
from .optimize import minimize_pointer_product, minimize_weak_value_real
from .scenario_io import load_scenario
from .scenarios import (
    CausalStructure,
    build_common_cause,
    build_illustrative,
    build_pauli_xy,
    build_projector_chain,
    causal_witness,
    lift_pair,
)
from .simulator import (
    MomentPattern,
    Scenario,
    exact_moment,
    position_moments,
    recover_weak_value,
    sample_outcomes,
    stacked_exact_moments,
    steps_outside_weak_regime,
    sweep_moments,
    weak_prediction,
)
from .weak_values import PROJECTOR_PAIR_FLOOR, norm_products, sequence_traces

SCENARIO_NAMES = ("illustrative", "pauli-xy", "chain-n", "common-cause")

# Most points one sweep may take. A point adds about 340 B to the report's
# peak in JSON and 60 B in CSV (tracemalloc, 20,000 to 40,000 illustrative
# points), beside one chunk of slot contractions of 3.3 to 3.7 MB, so the
# largest sweep stays under errors.MEMORY_LIMIT, the 2 GiB that sample and
# optimize allow.
SWEEP_MAX_POINTS = 1_000_000

# Longest chain-n chain. scenario, simulate and a two-point sweep on it peak
# at 0.48-0.74 kB per step in CSV or JSON, sweep and scenario highest with
# both engines' tables in one array; sample --shots 1 at 0.72-0.78 kB in CSV,
# the sampler's note of where each step's uniforms start included, and at
# 0.81-0.91 kB in JSON, written a batch of the encoder's chunks at a time
# (tracemalloc, n = 2,000 and 20,000, after a warm-up call). So a million
# steps stay under errors.MEMORY_LIMIT, the 2 GiB that sample and optimize
# allow.
CHAIN_MAX_STEPS = 1_000_000

# Trials that bounds draws and then evaluates together in its projector-pair
# and magnitude suites, and ten times the hull suite's, so their memory
# stays flat in --trials.
BOUNDS_CHUNK = 1024


def _reject_flags(args, flags, target: str) -> None:
    """Refuse width or length flags that ``target`` would not read."""
    for flag in flags:
        if getattr(args, flag, None) is not None:
            raise InputError(f"--{flag} does not apply to {target}")


def _builtin_scenario(name: str, args) -> Scenario:
    _reject_flags(args, ("sigma1", "sigma2") if name == "chain-n" else ("n",), f"the {name} scenario")
    sigma = 1.0 if args.sigma is None else args.sigma
    sigma1 = args.sigma1 if args.sigma1 is not None else sigma
    sigma2 = args.sigma2 if args.sigma2 is not None else sigma
    if name == "illustrative":
        return build_illustrative(sigma1, sigma2)
    if name == "pauli-xy":
        return build_pauli_xy(sigma1, sigma2)
    if name == "chain-n":
        n = 2 if args.n is None else args.n
        check_count("--n", n, 1, CHAIN_MAX_STEPS)
        return build_projector_chain(n, sigma)
    # common-cause: a maximally entangled qubit pair, both parties
    # measuring the |0><0| projector on their half.
    shared = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    proj = qm.projector_from_ket(qm.KET_0)
    return build_common_cause(shared, proj, proj, sigma1, sigma2)


def _resolve_scenario(spec: str, args) -> tuple[Scenario, str]:
    if spec in SCENARIO_NAMES:
        return _builtin_scenario(spec, args), spec
    if os.path.exists(spec):
        _reject_flags(args, ("sigma", "sigma1", "sigma2", "n"), "a scenario file")
        return load_scenario(spec), spec
    raise InputError(f"{spec!r} is neither a built-in scenario ({', '.join(SCENARIO_NAMES)}) nor a file")


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def _json_object(pairs) -> dict:
    """JSON has no NaN or infinity, so a float that is not finite reads null."""
    return {key: None if isinstance(value, float) and not math.isfinite(value) else value for key, value in pairs}


def _emit(args, config: dict, header: tuple[str, ...], rows, summary: dict | None = None) -> None:
    """Writes the report to stdout, headed by the command echo built from
    ``args.raw_argv``. ``rows`` is an iterable of tuples of plain Python
    values, one value per name in ``header``. A CSV report streams the rows
    straight to the writer, so it holds no copy of them, and writes a float
    that is not finite as ``nan`` or ``inf``; a JSON report builds each
    row's object once and writes such a float as null."""
    command = "weaklab " + " ".join(args.raw_argv)
    summary = summary or {}
    versions = {"weaklab": __version__, "numpy": np.__version__}
    if args.format == "json":
        document = {
            "command": command,
            "config": _json_object(config.items()),
            "summary": _json_object(summary.items()),
            "results": [_json_object(zip(header, row)) for row in rows],
            "versions": versions,
        }
        # The chunks of the encoder that json.dumps joins, 1,024 to a write, so
        # the whole text is never in memory and a short report is one write.
        encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
        chunks = itertools.chain(encoder.iterencode(document), ("\n",))
        while batch := list(itertools.islice(chunks, 1024)):
            sys.stdout.write("".join(batch))
        return
    out = sys.stdout
    out.write(f"# command: {command}\n")
    for key in sorted(config):
        out.write(f"# config {key} = {config[key]}\n")
    for key in sorted(summary):
        out.write(f"# summary {key} = {summary[key]}\n")
    for key in sorted(versions):
        out.write(f"# version {key} = {versions[key]}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_scenario(args) -> None:
    scn = _builtin_scenario(args.name, args)
    (exact, from_exact), (weak, from_weak) = recover_weak_value(scn)
    ok = not steps_outside_weak_regime(scn)
    config = {
        "scenario": args.name,
        "steps": scn.n_steps,
        "dimension": scn.dim,
        "sigmas": ",".join(repr(s) for s in scn.widths.tolist()),
    }
    results = [
        ("exact_all_position_moment", exact.value),
        ("weak_all_position_moment", weak.value),
        ("recovered_from_exact_re", from_exact.real),
        ("recovered_from_exact_im", from_exact.imag),
        ("recovered_from_weak_re", from_weak.real),
        ("recovered_from_weak_im", from_weak.imag),
        ("postselection_probability", exact.postselection_probability),
        ("weak_regime_ok", ok),
    ]
    _emit(args, config, ("quantity", "value"), results)


def _cmd_simulate(args) -> None:
    scn, source = _resolve_scenario(args.file, args)
    pattern = MomentPattern.from_string(args.pattern)
    result = (exact_moment if args.method == "exact" else weak_prediction)(scn, pattern)
    config = {
        "scenario": source,
        "pattern": str(pattern),
        "method": args.method,
        "dimension": scn.dim,
        "steps": scn.n_steps,
    }
    results = [("moment", result.value), ("postselection_probability", result.postselection_probability)]
    _emit(args, config, ("quantity", "value"), results)


def _cmd_sweep(args) -> None:
    scn, source = _resolve_scenario(args.file, args)
    if not args.param.startswith("sigma"):
        raise InputError(f"sweep parameter must name a step width (sigmaK), got {args.param!r}")
    digits = args.param[len("sigma"):]
    if not re.fullmatch("0|[1-9][0-9]*", digits):
        raise InputError(f"sweep parameter must look like sigma1, got {args.param!r}")
    step_index = int(digits) - 1
    if not 0 <= step_index < scn.n_steps:
        raise InputError(f"{args.param!r} is out of range for a {scn.n_steps}-step scenario")
    _reject_flags(args, (f"sigma{step_index + 1}",), f"a sweep of {args.param}")
    if not (0 < args.start < math.inf and 0 < args.stop < math.inf):
        raise InputError("sweep endpoints must be positive and finite for geometric spacing")
    check_count("--steps", args.steps, 1, SWEEP_MAX_POINTS)
    grid = np.geomspace(args.start, args.stop, args.steps)
    exact, weak = sweep_moments(scn, MomentPattern.from_string(args.pattern), step_index, grid)
    results = ((value, e, w, abs(e - w)) for value, e, w in zip(grid.tolist(), exact.tolist(), weak.tolist()))
    config = {
        "scenario": source,
        "pattern": args.pattern,
        "param": args.param,
        "from": args.start,
        "to": args.stop,
        "points": args.steps,
    }
    _emit(args, config, (args.param, "exact", "weak", "abs_difference"), results)


def _cmd_optimize(args) -> None:
    minimize = minimize_pointer_product if args.objective == "pointer-product" else minimize_weak_value_real
    result = minimize(
        n=args.n,
        d=args.dim,
        restarts=args.restarts,
        seed=args.seed,
        budget=args.budget,
    )
    config = {
        "objective": args.objective,
        "n": args.n,
        "dim": args.dim,
        "restarts": args.restarts,
        "seed": args.seed,
        "budget": args.budget,
    }
    # The pointer product's floor is the conjectured -1/8; a weak value of
    # projectors is bounded in magnitude by the product of their norms, 1.
    floor = PROJECTOR_PAIR_FLOOR if args.objective == "pointer-product" else -1.0
    summary = {
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "floor": floor,
        "below_floor": result.best_value < floor - 1e-9,
    }
    results = [(index, value, value == result.best_value) for index, value in result.trace]
    _emit(args, config, ("restart", "converged_value", "is_best"), results, summary)


def _cmd_sample(args) -> None:
    check_count("--shots", args.shots, 1)
    check_count("--seed", args.seed, 0)
    scn, source = _resolve_scenario(args.file, args)
    samples, _ = sample_outcomes(scn, args.shots, args.seed)
    exact = position_moments(scn)
    config = {
        "scenario": source,
        "shots": args.shots,
        "seed": args.seed,
    }
    summary = {"retained_shots": len(samples), "postselection_probability": exact[0].postselection_probability}
    with np.errstate(over="ignore"):
        products = samples.prod(axis=1)
    columns = [("mean_position_product", products)]
    columns += [(f"mean_position_{j + 1}", samples[:, j]) for j in range(scn.n_steps)]
    results = [_sample_row(quantity, values, moment.value) for (quantity, values), moment in zip(columns, exact)]
    _emit(args, config, ("quantity", "sample_mean", "stderr", "exact", "abs_difference"), results, summary)


def _sample_row(quantity: str, values: np.ndarray, exact: float) -> tuple:
    """Sample mean and standard error of ``values`` beside the exact moment."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean()) if values.size else float("nan")
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else float("nan")
    # Undefined statistics read NaN; statistics that overflow are errors.
    if values.size and not math.isfinite(mean) or values.size >= 2 and not math.isfinite(stderr):
        raise NumericError(f"sample statistics of {quantity} overflow; the pointer widths are too wide")
    return quantity, mean, stderr, exact, abs(mean - exact)


def _stacks(rng: np.random.Generator, trials: int, size: int, draw):
    """Trials drawn ``size`` at a time, in the order a one-at-a-time loop
    draws them: ``draw(rng)`` gives one trial's shape and row of draws.
    Yields each chunk's (shape, stack of rows) once per shape."""
    for start in range(0, trials, size):
        drawn = {}
        for _ in range(min(size, trials - start)):
            shape, row = draw(rng)
            drawn.setdefault(shape, []).append(row)
        yield from ((shape, np.array(rows)) for shape, rows in drawn.items())


# Each suite draws one trial's row and gives a stack's worst value and
# violation count; ``_cmd_bounds`` folds them over every stack.

def _draw_pair(rng: np.random.Generator):
    # The real, then the imaginary, parts of psi, then of the kets of A and B.
    d = int(rng.integers(2, 4))
    return d, rng.standard_normal(6 * d)


def _pair_floor(d: int, normals: np.ndarray) -> tuple[float, int]:
    """Projector pairs: the Re <psi|BA|psi> floor of -1/8 (d = 2 and 3)."""
    projectors = qm.projectors_from_kets(qm.kets_from_normals(normals.reshape(-1, 3, 2, d)))
    rho, pair = projectors[:, 0], projectors[:, 1:]
    values = sequence_traces(rho, pair).real
    return float(values.min()), int(np.count_nonzero(values < PROJECTOR_PAIR_FLOOR - 1e-12))


def _draw_magnitude(rng: np.random.Generator):
    # A Ginibre density matrix's normals, then each observable's Ginibre matrix's.
    d, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
    return (d, n), rng.standard_normal(2 * d * d * (n + 1))


def _magnitude_excess(shape: tuple[int, int], normals: np.ndarray) -> tuple[float, int]:
    """The magnitude cap on the no-post-selection weak value: |Tr(A_n ... A_1
    rho)| at most the product of spectral norms (d = 2 to 4, n = 1 to 5)."""
    d, n = shape
    normals = normals.reshape(-1, n + 1, 2, d, d)
    rho = qm.densities_from_normals(normals[:, 0])
    observables = qm.observables_from_normals(normals[:, 1:])
    values = sequence_traces(rho, observables)
    # np.hypot rounds as Python's abs(complex) does; np.abs may not.
    excess = np.hypot(values.real, values.imag) - norm_products(observables)
    return float(excess.max()), int(np.count_nonzero(excess > 1e-12))


def _draw_hull(rng: np.random.Generator):
    # The shared d = 4 ket's normals, then the two d = 2 projectors' kets', then two widths.
    return 4, np.concatenate([rng.standard_normal(16), rng.uniform(0.5, 5.0, 2)])


def _hull_margin(_, rows: np.ndarray) -> tuple[float, int]:
    """Common-cause scenarios stay inside the product hull [0, 1]: the exact
    x1 x2 moment of a shared d = 4 ket whose d = 2 halves are measured by
    projectors, as ``build_common_cause`` lifts them. Gives the smallest
    margin to the hull's ends (negative outside) and the witnessed count."""
    rho = qm.projectors_from_kets(qm.kets_from_normals(rows[:, :8].reshape(-1, 2, 4)))
    projectors = qm.projectors_from_kets(qm.kets_from_normals(rows[:, 8:16].reshape(-1, 2, 2, 2)))
    lifted = np.stack(lift_pair(projectors[:, 0], projectors[:, 1]), axis=1)
    values = stacked_exact_moments(rho, lifted, rows[:, 16:], MomentPattern.all_position(2))
    witnessed = sum(
        causal_witness(value, (0.0, 1.0), margin=1e-9) is not CausalStructure.INCONCLUSIVE
        for value in values.tolist()
    )
    return min(float(values.min()), 1.0 - float(values.max())), witnessed


def _cmd_bounds(args) -> None:
    check_count("--trials", args.trials, 1)
    check_count("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    trials = args.trials
    hull_trials = max(1, trials // 10)  # each trial runs the exact engine in d = 4
    suites = [
        # suite, trials, chunk, draw, evaluation, fold of the worst values, bound
        ("projector_pair_floor", trials, BOUNDS_CHUNK, _draw_pair, _pair_floor, min, PROJECTOR_PAIR_FLOOR),
        ("magnitude_vs_norm_product", trials, BOUNDS_CHUNK, _draw_magnitude, _magnitude_excess, max, 0.0),
        ("common_cause_hull", hull_trials, BOUNDS_CHUNK // 10, _draw_hull, _hull_margin, min, 0.0),
    ]
    results = []
    for suite, count, size, draw, evaluate, fold, bound in suites:
        worsts, violations = zip(*(evaluate(*stack) for stack in _stacks(rng, count, size, draw)))
        results.append((suite, count, fold(worsts), bound, sum(violations)))
    summary = {"total_violations": sum(row[-1] for row in results)}
    header = ("suite", "trials", "worst", "bound", "violations")
    _emit(args, {"trials": trials, "seed": args.seed}, header, results, summary)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_sigma_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=None, help="default pointer width (1)")
    parser.add_argument("--sigma1", type=float, default=None, help="first pointer width override")
    parser.add_argument("--sigma2", type=float, default=None, help="second pointer width override")
    parser.add_argument("--n", type=int, default=None, help="chain length for chain-n (2)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    ``parse_args`` keeps no state between calls: each returns a fresh
    namespace filled from the defaults declared here."""
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description="Sequential weak measurements with Gaussian pointers.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_scn = sub.add_parser("scenario", help="evaluate a built-in scenario")
    p_scn.add_argument("name", choices=SCENARIO_NAMES)
    _add_sigma_options(p_scn)
    p_scn.set_defaults(handler=_cmd_scenario)

    p_sim = sub.add_parser("simulate", help="evaluate one moment of a scenario file")
    p_sim.add_argument("file", help="scenario file path or built-in name")
    p_sim.add_argument("--pattern", required=True, help="one of i/x/X/p/P per step, e.g. xx")
    p_sim.add_argument("--method", choices=("exact", "weak"), default="exact")
    _add_sigma_options(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_swp = sub.add_parser("sweep", help="sweep one pointer width geometrically")
    p_swp.add_argument("file", help="scenario file path or built-in name")
    p_swp.add_argument("--param", required=True, help="which width to sweep, e.g. sigma1")
    p_swp.add_argument("--from", dest="start", type=float, required=True)
    p_swp.add_argument("--to", dest="stop", type=float, required=True)
    p_swp.add_argument("--steps", type=int, default=20)
    p_swp.add_argument("--pattern", required=True)
    _add_sigma_options(p_swp)
    p_swp.set_defaults(handler=_cmd_sweep)

    p_opt = sub.add_parser("optimize", help="search for the most anomalous value")
    p_opt.add_argument("--objective", choices=("pointer-product", "weak-value"), default="pointer-product")
    p_opt.add_argument("--n", type=int, required=True)
    p_opt.add_argument("--dim", type=int, default=2)
    p_opt.add_argument("--restarts", type=int, default=64)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--budget", type=int, default=20000)
    p_opt.set_defaults(handler=_cmd_optimize)

    p_smp = sub.add_parser("sample", help="Monte-Carlo pointer readout sampling")
    p_smp.add_argument("file", help="scenario file path or built-in name")
    p_smp.add_argument("--shots", type=int, required=True)
    p_smp.add_argument("--seed", type=int, default=0)
    _add_sigma_options(p_smp)
    p_smp.set_defaults(handler=_cmd_sample)

    p_bnd = sub.add_parser("bounds", help="random-instance bound suites")
    p_bnd.add_argument("--trials", type=int, default=10000)
    p_bnd.add_argument("--seed", type=int, default=0)
    p_bnd.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    started = time.perf_counter()
    try:
        args.handler(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
