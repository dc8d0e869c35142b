"""Command-line front end.

Subcommands: scenario, simulate, sweep, optimize, sample, bounds.
Reports go to stdout as CSV (default; comment lines carry the command
echo, configuration and summary) or JSON. Reports are byte-identical
across runs with equal inputs and seeds, so timing is written to stderr.
Exit codes: 0 success, 1 numeric failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, qm
from .errors import InputError, NumericError, WeakLabError
from .optimize import minimize_pointer_product, minimize_weak_value_real
from .pointer import GaussianPointer, PointerOperatorKind
from .scenario_io import load_scenario
from .scenarios import (
    CausalStructure,
    build_common_cause,
    build_illustrative,
    build_pauli_xy,
    build_projector_chain,
    causal_witness,
)
from .simulator import (
    EvaluationMethod,
    MomentPattern,
    Scenario,
    exact_moment,
    recover_weak_value,
    sample_outcomes,
    steps_outside_weak_regime,
    weak_prediction,
)
from .weak_values import MeasurementSequence, norm_product_bound, projector_pair_report, seq_weak_value

SCENARIO_NAMES = ("illustrative", "pauli-xy", "chain-n", "common-cause")


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
        return build_projector_chain(2 if args.n is None else args.n, sigma)
    # common-cause: a maximally entangled qubit pair, both parties
    # measuring the |0><0| projector on their half.
    shared = qm.PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
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

def _fmt(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return str(value)


def _emit(args, command: str, config: dict, results: list[dict], summary: dict | None = None) -> None:
    config = {key: _fmt(value) for key, value in config.items()}
    summary = {key: _fmt(value) for key, value in (summary or {}).items()}
    results = [{key: _fmt(value) for key, value in row.items()} for row in results]
    versions = {"weaklab": __version__, "numpy": np.__version__}
    if args.format == "json":
        document = {
            "command": command,
            "config": config,
            "summary": summary,
            "results": results,
            "versions": versions,
        }
        sys.stdout.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return
    out = io.StringIO()
    out.write(f"# command: {command}\n")
    for key in sorted(config):
        out.write(f"# config {key} = {config[key]}\n")
    for key in sorted(summary):
        out.write(f"# summary {key} = {summary[key]}\n")
    for key in sorted(versions):
        out.write(f"# version {key} = {versions[key]}\n")
    if results:
        writer = csv.DictWriter(out, fieldnames=list(results[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(results)
    sys.stdout.write(out.getvalue())


def _command_echo(args) -> str:
    return "weaklab " + " ".join(args.raw_argv)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_scenario(args) -> None:
    scn = _builtin_scenario(args.name, args)
    pattern = MomentPattern.all_position(scn.n_steps)
    exact = exact_moment(scn, pattern)
    weak = weak_prediction(scn, pattern)
    from_exact = recover_weak_value(scn, EvaluationMethod.EXACT)
    from_weak = recover_weak_value(scn, EvaluationMethod.WEAK_REGIME)
    ok = not steps_outside_weak_regime(scn)
    config = {
        "scenario": args.name,
        "steps": scn.n_steps,
        "dimension": scn.dim,
        "sigmas": ",".join(repr(s) for s in scn.sigmas()),
    }
    results = [
        {"quantity": "exact_all_position_moment", "value": exact.value},
        {"quantity": "weak_all_position_moment", "value": weak.value},
        {"quantity": "recovered_from_exact_re", "value": from_exact.real},
        {"quantity": "recovered_from_exact_im", "value": from_exact.imag},
        {"quantity": "recovered_from_weak_re", "value": from_weak.real},
        {"quantity": "recovered_from_weak_im", "value": from_weak.imag},
        {"quantity": "postselection_probability", "value": exact.postselection_probability},
        {"quantity": "weak_regime_ok", "value": ok},
    ]
    _emit(args, _command_echo(args), config, results)


def _cmd_simulate(args) -> None:
    scn, source = _resolve_scenario(args.file, args)
    pattern = MomentPattern.from_string(args.pattern)
    method = EvaluationMethod(args.method)
    result = exact_moment(scn, pattern) if method is EvaluationMethod.EXACT else weak_prediction(scn, pattern)
    config = {
        "scenario": source,
        "pattern": str(pattern),
        "method": method.value,
        "dimension": scn.dim,
        "steps": scn.n_steps,
    }
    results = [
        {"quantity": "moment", "value": result.value},
        {"quantity": "postselection_probability", "value": result.postselection_probability},
    ]
    _emit(args, _command_echo(args), config, results)


def _cmd_sweep(args) -> None:
    scn, source = _resolve_scenario(args.file, args)
    if not args.param.startswith("sigma"):
        raise InputError(f"sweep parameter must name a step width (sigmaK), got {args.param!r}")
    try:
        step_index = int(args.param[len("sigma"):]) - 1
    except ValueError:
        raise InputError(f"sweep parameter must look like sigma1, got {args.param!r}") from None
    if not 0 <= step_index < scn.n_steps:
        raise InputError(f"{args.param!r} is out of range for a {scn.n_steps}-step scenario")
    _reject_flags(args, (f"sigma{step_index + 1}",), f"a sweep of {args.param}")
    if not (0 < args.start < math.inf and 0 < args.stop < math.inf):
        raise InputError("sweep endpoints must be positive and finite for geometric spacing")
    _require_count("--steps", args.steps)
    grid = np.geomspace(args.start, args.stop, args.steps)
    pattern = MomentPattern.from_string(args.pattern)
    results = []
    swept, varied_steps = scn.steps[step_index], list(scn.steps)
    for value in grid:
        varied_steps[step_index] = dataclasses.replace(swept, pointer=GaussianPointer(float(value)))
        varied = dataclasses.replace(scn, steps=varied_steps)
        exact = exact_moment(varied, pattern).value
        weak = weak_prediction(varied, pattern).value
        results.append(
            {
                args.param: float(value),
                "exact": exact,
                "weak": weak,
                "abs_difference": abs(exact - weak),
            }
        )
    config = {
        "scenario": source,
        "pattern": args.pattern,
        "param": args.param,
        "from": args.start,
        "to": args.stop,
        "points": args.steps,
    }
    _emit(args, _command_echo(args), config, results)


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
    summary = {
        "best_value": result.best_value,
        "evaluations": result.evaluations,
        "conjecture_floor": -0.125,
        "below_floor": result.best_value < -0.125 - 1e-9,
    }
    results = [
        {"restart": index, "converged_value": value, "is_best": value == result.best_value}
        for index, value in result.trace
    ]
    _emit(args, _command_echo(args), config, results, summary)


def _cmd_sample(args) -> None:
    scn, source = _resolve_scenario(args.file, args)
    samples, stats = sample_outcomes(scn, args.shots, args.seed)
    config = {
        "scenario": source,
        "shots": args.shots,
        "seed": args.seed,
    }
    summary = {
        "retained_shots": stats.retained_shots,
        "postselection_probability": stats.postselection_probability,
    }
    n = scn.n_steps
    results = [_sample_row("mean_position_product", samples.prod(axis=1), scn, MomentPattern.all_position(n))]
    for j in range(n):
        single = MomentPattern(
            PointerOperatorKind.POSITION if k == j else PointerOperatorKind.IDENTITY for k in range(n)
        )
        results.append(_sample_row(f"mean_position_{j + 1}", samples[:, j], scn, single))
    _emit(args, _command_echo(args), config, results, summary)


def _sample_row(quantity: str, values: np.ndarray, scn: Scenario, pattern: MomentPattern) -> dict:
    """Sample mean and standard error of ``values`` beside the exact moment."""
    mean = float(values.mean()) if values.size else float("nan")
    stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size >= 2 else float("nan")
    exact = exact_moment(scn, pattern).value
    return {
        "quantity": quantity,
        "sample_mean": mean,
        "stderr": stderr,
        "exact": exact,
        "abs_difference": abs(mean - exact),
    }


def _cmd_bounds(args) -> None:
    _require_count("--trials", args.trials)
    rng = np.random.default_rng(args.seed)
    trials = args.trials

    # Projector pairs: Re <psi|BA|psi> floor of -1/8 (d = 2 and 3).
    worst_pair = math.inf
    pair_violations = 0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        psi = qm.random_ket(rng, d)
        report = projector_pair_report(
            psi,
            qm.projector_from_ket(qm.random_ket(rng, d)),
            qm.projector_from_ket(qm.random_ket(rng, d)),
        )
        worst_pair = min(worst_pair, report.re_value)
        pair_violations += not report.bound_satisfied

    # Magnitude bound on the no-post-selection weak value.
    worst_excess = -math.inf
    magnitude_violations = 0
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        rho = qm.random_density(rng, d)
        seq = MeasurementSequence(qm.random_observable(rng, d) for _ in range(n))
        excess = abs(seq_weak_value(rho, None, seq).value) - norm_product_bound(seq)
        worst_excess = max(worst_excess, excess)
        magnitude_violations += excess > 1e-12

    # Common-cause scenarios stay inside the product hull.
    worst_low, worst_high = math.inf, -math.inf
    hull_violations = 0
    hull_trials = max(1, trials // 10)  # each trial runs the exact engine in d = 4
    for _ in range(hull_trials):
        shared = qm.random_ket(rng, 4)
        scn = build_common_cause(
            shared,
            qm.projector_from_ket(qm.random_ket(rng, 2)),
            qm.projector_from_ket(qm.random_ket(rng, 2)),
            sigma1=float(rng.uniform(0.5, 5.0)),
            sigma2=float(rng.uniform(0.5, 5.0)),
        )
        value = exact_moment(scn, MomentPattern.all_position(2)).value
        worst_low = min(worst_low, value)
        worst_high = max(worst_high, value)
        hull_violations += causal_witness(value, (0.0, 1.0), margin=1e-9) is not CausalStructure.INCONCLUSIVE

    config = {"trials": trials, "seed": args.seed}
    results = [
        {
            "suite": "projector_pair_floor",
            "trials": trials,
            "worst": worst_pair,
            "bound": -0.125,
            "violations": pair_violations,
        },
        {
            "suite": "magnitude_vs_norm_product",
            "trials": trials,
            "worst": worst_excess,
            "bound": 0.0,
            "violations": magnitude_violations,
        },
        {
            "suite": "common_cause_hull",
            "trials": hull_trials,
            "worst": min(worst_low, 1.0 - worst_high),
            "bound": 0.0,
            "violations": hull_violations,
        },
    ]
    summary = {"total_violations": pair_violations + magnitude_violations + hull_violations}
    _emit(args, _command_echo(args), config, results, summary)


def _require_count(flag: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{flag} must be at least 1, got {value}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_sigma_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma", type=float, default=None, help="default pointer width (1)")
    parser.add_argument("--sigma1", type=float, default=None, help="first pointer width override")
    parser.add_argument("--sigma2", type=float, default=None, help="second pointer width override")
    parser.add_argument("--n", type=int, default=None, help="chain length for chain-n (2)")


def _build_parser() -> argparse.ArgumentParser:
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
    except WeakLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
