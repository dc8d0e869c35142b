"""Perf record: the benchmark's end-to-end metrics for one or two source
trees, in alternating pairs, written to one JSON file.

Each tree gets a directory of its own, holding its ``src/`` and a copy of
the checkout's ``bench/`` without ``bench/.work``, so both sides run the
same benchmark. For each seed, one timed run per side (``--trace 0``)
makes a pair, and the side that goes first alternates from pair to pair;
after the pairs, one traced run per side (``--trace 1``) at the first
seed. A run is one ``bench/run.py`` process with no ``PYTHONPATH``,
started from its tree moved to a directory that every run shares, so the
two sides differ in no path: run from their own directories, ``base`` and
``new``, two copies of one commit read ``peak_rss_mb`` apart by 0.15 MB in
the median, the same side lower in 17 of 20 pairs.

The record holds each run's last line and ``# env`` line; per workload and
metric, each side's median, quartiles and quartile spread, and the pairs
that each side wins by ``BENCHMARK.json``'s sense of better; both commits,
the last commit that changed ``bench/``, and the record's wall time.

Run from the repository root:

    python tests/perf_record.py --new HEAD --out BENCH_base.json
    python tests/perf_record.py --base HEAD --workload sampling --out BENCH_new.json

``--base`` and ``--new`` name a commit, whose ``src/`` is extracted with
``git archive``, or ``worktree`` for the working tree's ``src/``; with no
``--base``, one tree is recorded. The exit status is 1 when a run does not
read ``correct: true`` with 0 failed. Standard library only; pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checkouts import ROOT, commit, tree

WORKLOADS = ("moments", "sampling", "search")


def prepare(spec: str, into: Path) -> Path:
    """A directory holding the ``src/`` of ``spec`` beside the checkout's ``bench/``."""
    into.mkdir()
    source = tree(spec, into)
    if source != into / "src":
        shutil.copytree(source, into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", into / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    return into


def run(directory: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process, from ``directory`` moved to its sibling ``run``
    while it lasts: its last line, its ``# env`` line and its exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    shared = directory.rename(directory.parent / "run")
    try:
        done = subprocess.run(command, cwd=shared, env=env, capture_output=True, text=True)
    finally:
        shared.rename(directory)
    lines = done.stdout.splitlines()
    env_line = next((line[len("# env "):] for line in lines if line.startswith("# env ")), "null")
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    return {"seed": seed, "trace": trace, "exit_code": done.returncode, "last": last, "env": json.loads(env_line),
            "stderr": done.stderr[-2000:] if done.returncode else ""}


def sound(result: dict) -> bool:
    last = result["last"]
    return result["exit_code"] == 0 and last is not None and last["correct"] is True and last["failed"] == 0


def summary(values: list[float]) -> dict:
    """Median, quartiles and the quartile spread, also as a share of the median."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "spread": q3 - q1,
            "spread_frac": (q3 - q1) / median if median else None, "runs": len(values)}


def compare(pairs: list[dict], sides: tuple[str, ...], better: dict[str, str]) -> dict:
    """Per metric, each side's summary and, with two sides, the pairs each wins."""
    out = {}
    for name, sense in better.items():
        values = {side: [pair[side]["last"]["metrics"][name]["value"] for pair in pairs
                         if pair[side]["last"] and name in pair[side]["last"]["metrics"]] for side in sides}
        if not all(values.values()):
            continue
        entry = {"better": sense, **{side: summary(values[side]) for side in sides}}
        if len(sides) == 2 and len(values["base"]) == len(values["new"]):
            sign = 1.0 if sense == "lower" else -1.0
            gains = [sign * (old - new) for old, new in zip(values["base"], values["new"])]
            entry["wins"] = {"new": sum(g > 0 for g in gains), "base": sum(g < 0 for g in gains),
                             "ties": sum(g == 0 for g in gains)}
            base_median = entry["base"]["median"]
            entry["median_change_frac"] = (entry["new"]["median"] - base_median) / base_median if base_median else None
        out[name] = entry
    return out


def main(arguments: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="commit or 'worktree'; none records the new tree alone")
    parser.add_argument("--new", default="worktree", help="commit or 'worktree' (worktree)")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(101, 111)))
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--out", type=Path, required=True, help="the record, BENCH_<tag>.json")
    args = parser.parse_args(arguments)
    specs = {"base": args.base, "new": args.new} if args.base else {"new": args.new}
    sides = tuple(specs)
    better = {row["name"]: row["better"] for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    bench_commit = subprocess.run(["git", "log", "-1", "--format=%H", "--", "bench"], cwd=ROOT,
                                  capture_output=True, text=True, check=True).stdout.strip()
    bench_edited = bool(subprocess.run(["git", "status", "--porcelain", "--", "bench"], cwd=ROOT,
                                       capture_output=True, text=True, check=True).stdout.strip())
    record = {
        "commits": {side: commit(spec) or "worktree" for side, spec in specs.items()},
        "bench_commit": bench_commit + (" with uncommitted edits" if bench_edited else ""),
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    started, unsound = time.perf_counter(), []
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: prepare(spec, Path(scratch) / side) for side, spec in specs.items()}
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = sides if k % 2 == 0 else sides[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], workload, seed, args.seconds, trace=0)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['last'])}", flush=True)
                pairs.append(pair)
            traced = {side: run(trees[side], workload, args.seeds[0], args.seconds, trace=1) for side in sides}
            for side, result in traced.items():
                print(f"{workload} traced {side}: correct {result['last'] and result['last']['correct']}, "
                      f"failed {result['last'] and result['last']['failed']}", flush=True)
            results = [pair[side] for pair in pairs for side in sides] + list(traced.values())
            unsound += [f"{workload} seed {r['seed']} trace {r['trace']}" for r in results if not sound(r)]
            record["workloads"][workload] = {"metrics": compare(pairs, sides, better), "pairs": pairs, "traced": traced}
    record["wall_s"] = round(time.perf_counter() - started, 1)
    record["unsound_runs"] = unsound
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, entry in record["workloads"].items():
        for name, row in entry["metrics"].items():
            medians = ", ".join(f"{side} {row[side]['median']:.4g} (spread {row[side]['spread']:.3g})" for side in sides)
            wins = f"; wins new {row['wins']['new']} base {row['wins']['base']}" if "wins" in row else ""
            print(f"{workload} {name}: {medians}{wins}")
    print(f"wrote {args.out}: {len(unsound)} unsound runs, {record['wall_s']} s wall")
    return 1 if unsound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
