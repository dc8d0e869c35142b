"""Differential corpus: the CLI's reports from two source trees, compared.

A seeded corpus of command lines covers all six subcommands: the four
built-in scenarios at pointer widths from 1e-170, below the narrowest
accepted, 1.57e-162, to the widest accepted, 1.34e154, and chain-n
lengths; random scenario files (d 2-5, n 1-4, half post-selected) under
simulate, sweep and sample; observables at eigenvalue scales up to 1e7;
refused documents and bad options for exit code 2; and small optimize and
bounds runs. Each tree runs the whole
corpus in one subprocess of its own, calling ``weaklab.cli.main`` once
per command line, with the scenario files both trees read written once.

Two results differ when their stdout, their stderr or their exit code
does. Before the comparison, stderr loses its ``# elapsed`` line, and
each tree's own path and the line numbers of warnings are replaced by
placeholders, so a warning does not differ by where its source lies.
Differences are counted by subcommand. A difference that ``ALLOWED``
names, one that a change makes on purpose against the base commit it
was written for, is counted apart and fails nothing.

Run from the repository root:

    python tests/differential.py                       # the working tree against HEAD
    python tests/differential.py --base HEAD~1 --new HEAD
    python tests/differential.py --mutant backward-table-unconjugated

``--base`` and ``--new`` name a commit, whose ``src/`` is extracted with
``git archive``, or ``worktree`` for the working tree's ``src/``.
``--mutant`` applies a kept mutant from ``tests/mutants.py`` to a copy of
the new tree. The exit status is 1 when a difference is not allowed.
Standard library and numpy only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkouts import ROOT, commit, tree

SUBCOMMANDS = ("scenario", "simulate", "sweep", "optimize", "sample", "bounds")
BUILTINS = ("illustrative", "pauli-xy", "chain-n", "common-cause")
WIDEST = math.sqrt(sys.float_info.max)  # the widest pointer width accepted, about 1.34e154
COMMANDS = 4000  # command lines in the corpus
EXAMPLES = 3  # differences printed per subcommand


@dataclass(frozen=True)
class Allowance:
    """Differences that a change makes on purpose against the commit
    ``base``: those of ``subcommand`` (any when None) where the stderr of
    ``side``, "base" or "new", matches ``pattern``. With a ``tolerance``
    and ``side`` "stdout", instead, those whose stderr and exit code agree
    and whose reports differ only in the values of the quantities that
    ``pattern`` names, each pair within ``tolerance`` relative, and in the
    ``is_best`` flags of optimize rows whose values agree within it
    (``flips_within``). Against any other base, the allowance does not
    apply."""

    name: str
    base: str
    subcommand: str | None
    side: str
    pattern: str
    tolerance: float | None = None


PARENT = "7d8b8443570b70b160735890935cb57d05be0887"  # the commit these allowances were written against
ALLOWED: tuple[Allowance, ...] = ()

# Where a named value lies in a report: a quantity's value in CSV and in
# JSON, a summary entry in CSV, a field of a JSON object, and the value of
# an optimize row in CSV (restart,converged_value,is_best), which only the
# allowance's subcommand scopes.
VALUE_FORMS = (
    r"^(?:{}),(\S+)$",
    r'"quantity": "(?:{})",\n *"value": (\S+)$',
    r"^# summary (?:{}) = (\S+)$",
    r'^ *"(?:{})": ([^\s,]+),?$',
    r"^\d+,([^\s,]+),(?:True|False)$",
)

# An optimize row's value and is_best flag, in CSV and in JSON; and the
# flag alone, also in a row whose value ``values_apart`` has cut out.
ROW_FORMS = (r"^\d+,([^\s,]+),(True|False)$", r'"converged_value": ([^\s,]+),\n *"is_best": (true|false)')
FLAG_FORM = re.compile(r'(?:^\d+,[^\s,]*,|"is_best": )(True|False|true|false)', re.M)

# Runs inside each tree's subprocess: argv[1] is the corpus, argv[2] the
# tree's src directory, argv[3] the file the results go to.
RUNNER = r"""
import contextlib, io, json, pathlib, re, sys, traceback, warnings
corpus, src, out = sys.argv[1:4]
sys.path.insert(0, src)
from weaklab.cli import main
warnings.simplefilter("always")
results = []
for argv in json.loads(pathlib.Path(corpus).read_text(encoding="utf-8")):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "uncaught " + type(exc).__name__
            stderr.write(traceback.format_exc().splitlines()[-1] + "\n")
    err = "".join(line for line in stderr.getvalue().splitlines(True) if not line.startswith("# elapsed"))
    err = re.sub(r'(\.py)(:\d+:|", line \d+)', r"\1:<line>:", err.replace(src, "<src>"))
    results.append([stdout.getvalue(), err, code])
pathlib.Path(out).write_text(json.dumps(results), encoding="utf-8")
"""


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------

def _pairs(matrix: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(matrix, dtype=complex).tolist()]


def _ginibre(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _density(rng, d):
    raw = _ginibre(rng, d)
    mat = raw @ raw.conj().T
    return mat / mat.trace().real


def _observable(rng, d, scale=1.0):
    """A random Hermitian matrix; at a scale other than 1, V diag(a) V^H,
    whose rounding leaves it slightly off Hermitian."""
    if scale == 1.0:
        raw = _ginibre(rng, d)
        return (raw + raw.conj().T) / 2.0
    basis, _ = np.linalg.qr(_ginibre(rng, d))
    return (basis * (scale * rng.uniform(-1.0, 1.0, d))) @ basis.conj().T


def _projector(ket):
    return np.outer(ket, np.conj(ket))


def _random_projector(rng, d):
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return _projector(ket / np.linalg.norm(ket))


def _log_uniform(rng, low, high):
    return float(math.exp(rng.uniform(math.log(low), math.log(high))))


def _width(rng):
    """Mostly ordinary widths, with a tail over every width the rule accepts."""
    draw = rng.random()
    if draw < 0.6:
        return _log_uniform(rng, 0.05, 200.0)
    if draw < 0.9:
        return _log_uniform(rng, 1e-170, WIDEST)
    return float(rng.choice([1e-170, 1e-160, 1e-154, 1e153, 9.5e153, 1.2e154, 1.3e154, WIDEST]))


class Corpus:
    """Command lines and the scenario files they read, from one seed."""

    def __init__(self, seed: int, directory: Path):
        self.rng = np.random.default_rng(seed)
        self.directory = directory
        self.files = 0

    def write(self, doc, text: str | None = None) -> str:
        path = self.directory / f"scenario-{self.files}.json"
        self.files += 1
        path.write_text(json.dumps(doc) if text is None else text, encoding="utf-8")
        return str(path)

    def random_file(self, scale=1.0) -> tuple[str, int]:
        rng = self.rng
        d, n = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        widths = [_log_uniform(rng, 0.3, 30.0) if rng.random() < 0.9 else _width(rng) for _ in range(n)]
        initial = _density(rng, d)
        doc = {
            "dimension": d,
            "initial": _pairs(initial),
            "steps": [{"observable": _pairs(_observable(rng, d, scale)), "sigma": s} for s in widths],
            "postselect": _pairs(_random_projector(rng, d)) if rng.random() < 0.5 else None,
        }
        return self.write(doc), n

    def refused_file(self) -> str:
        """A document that the reader refuses, for exit code 2."""
        rng = self.rng
        good = {
            "dimension": 2,
            "initial": [[1.0, 0.0], [0.0, 0.0]],
            "steps": [{"observable": _pairs(np.diag([1.0, -1.0])), "sigma": 1.0}],
            "postselect": None,
        }
        kind = int(rng.integers(0, 9))
        if kind == 0:
            return self.write(None, "{not json")
        if kind == 1:
            good["extra"] = 1
        elif kind == 2:
            good["dimension"] = 1
        elif kind == 3:
            good["steps"][0]["observable"] = _pairs([[0.0, 0.1], [0.0, 0.0]])
        elif kind == 4:
            good["steps"][0]["sigma"] = float(rng.choice([-1.0, 0.0, 2e154]))
        elif kind == 5:
            good["postselect"] = _pairs(np.diag([1.5, 0.0]))
        elif kind == 6:
            good["initial"] = [[1.0, 0.0], [1.0, 0.0]]
        elif kind == 7:
            good["steps"] = []
        else:
            good["steps"][0]["sigma"] = "wide"
        return self.write(good)

    def source(self) -> tuple[list[str], int]:
        """A scenario argument, a file or a built-in with its width flags,
        and its step count."""
        rng = self.rng
        if rng.random() < 0.6:
            path, n = self.random_file()
            return [path], n
        name = str(rng.choice(BUILTINS))
        if name == "chain-n":
            n = int(rng.integers(1, 6))
            return [name, "--n", str(n), "--sigma", repr(_width(rng))], n
        return [name, "--sigma1", repr(_width(rng)), "--sigma2", repr(_width(rng))], 2

    def scenario(self) -> list[str]:
        rng = self.rng
        name = str(rng.choice(BUILTINS))
        draw = rng.random()
        if draw < 0.03:  # options the scenario refuses
            flag = "--sigma1" if name == "chain-n" else "--n"
            argv = [name, flag, "2"] if rng.random() < 0.5 else [name, "--sigma", repr(float(rng.choice([-1.0, 2e154])))]
        elif name == "chain-n":
            argv = [name, "--n", str(int(rng.integers(0 if draw < 0.05 else 1, 41))), "--sigma", repr(_width(rng))]
        elif draw < 0.2:
            argv = [name, "--sigma", repr(_width(rng))]
        else:
            argv = [name, "--sigma1", repr(_width(rng)), "--sigma2", repr(_width(rng))]
        return ["scenario", *argv]

    def simulate(self) -> list[str]:
        rng = self.rng
        if rng.random() < 0.08:
            return ["simulate", self.refused_file(), "--pattern", "x"]
        if rng.random() < 0.1:
            path, n = self.random_file(scale=10.0 ** rng.uniform(2.0, 7.0))
            return ["simulate", path, "--pattern", "x" * n]
        argv, n = self.source()
        method = str(rng.choice(["exact", "weak"]))
        # The weak engine refuses squared readouts.
        letters = "ixXpP" if method == "exact" or rng.random() < 0.1 else "ixp"
        pattern = "".join(rng.choice(list(letters), size=n))
        if rng.random() < 0.05:
            pattern = pattern + "x" if rng.random() < 0.5 else pattern.replace(pattern[0], "q", 1)
        return ["simulate", *argv, "--pattern", pattern, "--method", method]

    def sweep(self) -> list[str]:
        rng = self.rng
        argv, n = self.source()
        k = int(rng.integers(1, n + 2)) if rng.random() < 0.05 else int(rng.integers(1, n + 1))
        if argv[0] in BUILTINS and argv[0] != "chain-n":  # the swept width's flag is refused
            argv = [argv[0], "--sigma", repr(_width(rng))]
        elif argv[0] == "chain-n":
            argv = argv[:3]
        if rng.random() < 0.7:
            start, stop = _log_uniform(rng, 0.05, 50.0), _log_uniform(rng, 0.05, 50.0)
        else:
            start, stop = _log_uniform(rng, 1e-170, WIDEST), _log_uniform(rng, 1e-170, WIDEST)
        # A sweep runs the weak engine too, which refuses squared readouts.
        pattern = "".join(rng.choice(list("ixXpP" if rng.random() < 0.1 else "ixp"), size=n))
        return ["sweep", *argv, "--param", f"sigma{k}", "--from", repr(start), "--to", repr(stop),
                "--steps", str(int(rng.integers(1, 30))), "--pattern", pattern]

    def sample(self) -> list[str]:
        rng = self.rng
        shots, seed = int(rng.integers(1, 3000)), int(rng.integers(0, 1000))
        draw = rng.random()
        if draw < 0.05:
            return ["sample", self.refused_file(), "--shots", str(shots)]
        if draw < 0.1:
            shots = int(rng.choice([0, -3]))
        if draw < 0.25:
            # Illustrative's projectors and the first again, the first pointer wide.
            first, second = (_projector(np.array([0.5, sign * math.sqrt(3.0) / 2.0])) for sign in (1.0, -1.0))
            sigma = float(rng.choice([1e153, 1.3e154, WIDEST, _log_uniform(rng, 1e150, WIDEST)]))
            doc = {
                "dimension": 2,
                "initial": [[1.0, 0.0], [0.0, 0.0]],
                "steps": [{"observable": _pairs(m), "sigma": s} for m, s in ((first, sigma), (second, 0.5), (first, 0.5))],
            }
            return ["sample", self.write(doc), "--shots", str(shots), "--seed", str(seed)]
        if draw < 0.3:
            path, _ = self.random_file(scale=10.0 ** rng.uniform(2.0, 7.0))
            return ["sample", path, "--shots", str(shots), "--seed", str(seed)]
        argv, _ = self.source()
        return ["sample", *argv, "--shots", str(shots), "--seed", str(seed)]

    def optimize(self) -> list[str]:
        rng = self.rng
        n = int(rng.integers(0 if rng.random() < 0.05 else 2, 5))
        return ["optimize", "--objective", str(rng.choice(["pointer-product", "weak-value"])), "--n", str(n),
                "--dim", str(int(rng.integers(2, 4))), "--restarts", str(int(rng.integers(1, 4))),
                "--seed", str(int(rng.integers(0, 100))), "--budget", str(int(rng.integers(20, 200)))]

    def bounds(self) -> list[str]:
        rng = self.rng
        trials = int(rng.integers(0 if rng.random() < 0.05 else 1, 200))
        return ["bounds", "--trials", str(trials), "--seed", str(int(rng.integers(0, 1000)))]

    def commands(self) -> list[list[str]]:
        """``COMMANDS`` command lines: half scenario, then simulate, sample,
        sweep, optimize and bounds in shares of 6:5:4:1:1; one in eight
        asks for JSON."""
        shares = (("simulate", 6), ("sample", 5), ("sweep", 4), ("optimize", 1), ("bounds", 1))
        counts = {"scenario": COMMANDS - COMMANDS // 2}
        for name, share in shares:
            counts[name] = COMMANDS // 2 * share // 17
        counts["simulate"] += COMMANDS - sum(counts.values())
        lines = [getattr(self, name)() for name, k in counts.items() for _ in range(k)]
        return [["--format", "json", *argv] if self.rng.random() < 0.125 else argv for argv in lines]


def subcommand(argv: list[str]) -> str:
    return next(word for word in argv if word in SUBCOMMANDS)


# ---------------------------------------------------------------------------
# Trees and runs
# ---------------------------------------------------------------------------

def mutate(source: Path, name: str, into: Path) -> Path:
    """A copy of ``source`` with the kept mutant ``name`` applied."""
    sys.path.insert(0, str(ROOT / "tests"))
    from mutants import MUTANTS, mutated_text

    (mutant,) = [m for m in MUTANTS if m.name == name]
    copy = into / "src"
    shutil.copytree(source, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "weaklab" / mutant.path).write_text(mutated_text(copy, mutant), encoding="utf-8")
    return copy


def start(source: Path, corpus: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "-c", RUNNER, str(corpus), str(source), str(out)]
    return subprocess.Popen(command, cwd=out.parent, env=env)


def values_apart(pattern: str, report: str) -> tuple[str, list[str]]:
    """A report with the value of each quantity that ``pattern`` names cut
    out, and those values in order."""
    values = []
    for form in VALUE_FORMS:
        regex = re.compile(form.format(pattern), re.M)
        values += regex.findall(report)
        report = regex.sub(lambda match: match.string[match.start(0):match.start(1)]
                           + match.string[match.end(1):match.end(0)], report)
    return report, values


def close(old: str, new: str, tolerance: float) -> bool:
    try:
        return old == new or math.isclose(float(old), float(new), rel_tol=tolerance)
    except ValueError:
        return False


def flips_within(old: str, new: str, tolerance: float) -> bool:
    """Whether each optimize row whose ``is_best`` flag differs between two
    reports has a value that agrees within ``tolerance`` with the value of
    every row flagged in either report, in both reports."""
    old_rows, new_rows = ([(value, flag in ("True", "true")) for form in ROW_FORMS
                           for value, flag in re.findall(form, report, re.M)] for report in (old, new))
    if len(old_rows) != len(new_rows):
        return False
    flagged = [k for k, (a, b) in enumerate(zip(old_rows, new_rows)) if a[1] or b[1]]
    flipped = [k for k, (a, b) in enumerate(zip(old_rows, new_rows)) if a[1] != b[1]]
    return all(close(rows[i][0], rows[j][0], tolerance) for rows in (old_rows, new_rows) for i in flipped for j in flagged)


def allowed_by(allowed, base, new) -> bool:
    if allowed.tolerance is None:
        return re.search(allowed.pattern, {"base": base[1], "new": new[1]}[allowed.side], re.M) is not None
    (old_rest, old_values), (new_rest, new_values) = (values_apart(allowed.pattern, run[0]) for run in (base, new))
    if flips_within(base[0], new[0], allowed.tolerance):
        old_rest, new_rest = (FLAG_FORM.sub(lambda match: match.group(0)[: match.start(1) - match.start(0)], rest)
                              for rest in (old_rest, new_rest))
    return (base[1:] == new[1:] and old_rest == new_rest and len(old_values) == len(new_values)
            and all(close(a, b, allowed.tolerance) for a, b in zip(old_values, new_values)))


def allowance(commit, argv, base, new) -> str | None:
    for allowed in ALLOWED:
        if allowed.base == commit and allowed.subcommand in (None, subcommand(argv)) and allowed_by(allowed, base, new):
            return allowed.name
    return None


def describe(argv, base, new) -> str:
    """The command line, then the first line that differs in each of
    stdout and stderr, and the exit codes if they differ."""
    lines = [f"  weaklab {' '.join(argv)}"]
    for label, index in (("stdout", 0), ("stderr", 1), ("exit code", 2)):
        old, now = (str(result[index]).splitlines() or [""] for result in (base, new))
        if old != now:
            line = next((k for k, (a, b) in enumerate(zip(old, now)) if a != b), min(len(old), len(now)))
            first = [text[line] if line < len(text) else "<end>" for text in (old, now)]
            lines += [f"    {label} line {line + 1}:", f"      base {first[0][:200]!r}", f"      new  {first[1][:200]!r}"]
    return "\n".join(lines)


def main(arguments: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit or 'worktree' (HEAD)")
    parser.add_argument("--new", default="worktree", help="commit or 'worktree' (worktree)")
    parser.add_argument("--mutant", help="a kept mutant to apply to the new tree")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(arguments)
    base_commit = commit(args.base)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for part in ("files", "base", "new"):
            (scratch / part).mkdir()
        corpus = Corpus(args.seed, scratch / "files").commands()
        (scratch / "corpus.json").write_text(json.dumps(corpus), encoding="utf-8")
        sources = {side: tree(spec, scratch / side) for side, spec in (("base", args.base), ("new", args.new))}
        if args.mutant:
            sources["new"] = mutate(sources["new"], args.mutant, scratch / "new" / "mutant")
        runs = {side: start(source, scratch / "corpus.json", scratch / f"{side}.json") for side, source in sources.items()}
        for side, run in runs.items():
            if run.wait():
                print(f"the {side} tree's runner failed with exit code {run.returncode}")
                return 1
        base, new = (json.loads((scratch / f"{side}.json").read_text(encoding="utf-8")) for side in ("base", "new"))

    per_subcommand = Counter(subcommand(argv) for argv in corpus)
    failing = Counter(subcommand(argv) for argv, result in zip(corpus, base) if result[2] != 0)
    differences, allowed, examples = Counter(), Counter(), {}
    for argv, old, now in zip(corpus, base, new):
        if old == now:
            continue
        name = allowance(base_commit, argv, old, now)
        if name:
            allowed[name] += 1
            continue
        differences[subcommand(argv)] += 1
        examples.setdefault(subcommand(argv), []).append(describe(argv, old, now))

    new_label = args.new + (f" with mutant {args.mutant}" if args.mutant else "")
    print(f"corpus: {len(corpus)} command lines at seed {args.seed}; base {args.base}, new {new_label}")
    for name in SUBCOMMANDS:
        print(f"  {name}: {per_subcommand[name]} lines, {failing[name]} exiting non-zero at base, "
              f"{differences[name]} differences")
    for name in SUBCOMMANDS:
        for example in examples.get(name, [])[:EXAMPLES]:
            print(example)
    allowed_text = ", ".join(f"{name} {count}" for name, count in allowed.items()) or "none"
    print(f"differences: {sum(differences.values())}; allowed: {allowed_text}; "
          f"{time.perf_counter() - started:.1f} s wall")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
