"""Kept mutants that the test suite must kill.

Each mutant puts one small fault into a copy of ``src/``: an exact
snippet of one file, which must occur there exactly once, and its
replacement. The tests it names must then fail. The runner first runs
every named test on ``src/`` itself, where all must pass; then, per
mutant, it copies ``src/`` to a temporary directory, applies the
replacement and runs the mutant's tests against the copy. A mutant whose
tests all pass survives. A known gap is a mutant that the suite cannot
kill yet, named with the ROADMAP item that closes it.

Run from the repository root, for every mutant or for those whose name
contains one of the arguments:

    python tests/mutants.py
    python tests/mutants.py conj overlap

The exit status is 2, before any test runs, when an argument is in no
mutant's name, and 1 when a snippet does not match exactly once, when a
named test fails unmutated, or when a mutant that is not a known gap
survives. Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/weaklab
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    gap: str | None = None  # the ROADMAP item that closes a known gap


# The body of ``simulator._raise_first_fault``, and the same checks with the
# four inputs' own in reverse order, after the shape checks they need.
_FIRST_FAULT_ORDER = """\
    if initial.ndim != 1:
        qm.check_densities(qm.square_matrix(initial, "density matrix"))
    if not observables.size:
        raise InputError("a scenario needs at least one measurement step")
    d = len(initial)
    if widths.ndim != 1 or observables.shape != (len(widths), d, d):
        raise DimensionMismatch(
            f"observables of shape {observables.shape} and widths of shape {widths.shape} "
            f"are not (n, {d}, {d}) and (n,) for state dimension {d}"
        )
    qm.check_observables(observables)
    check_widths(widths)
    if post is not None:
        post = qm.square_matrix(post, "POVM element")
        if len(post) != d:
            raise DimensionMismatch(f"post-selection dimension {len(post)} != state dimension {d}")
        qm.check_effects(post)
"""
_LAST_FAULT_ORDER = """\
    d = len(initial)
    if post is not None:
        if qm.square_matrix(post, "POVM element").shape == (d, d):
            qm.check_effects(post)
    check_widths(widths)
    if observables.shape == (len(widths), d, d):
        qm.check_observables(observables)
    if initial.ndim != 1:
        qm.check_densities(qm.square_matrix(initial, "density matrix"))
"""

MUTANTS = (
    Mutant(
        "momentum-sign",
        "pointer.py",
        "return -0.25j * gap / s2",
        "return 0.25j * gap / s2",
        ("tests/test_pointer.py::TestMatrixElement",),
    ),
    Mutant(
        "overlap-exponent-4",
        "pointer.py",
        "np.exp(gap * gap / (-8.0 * s2))",
        "np.exp(gap * gap / (-4.0 * s2))",
        ("tests/test_pointer.py::TestMatrixElement",),
    ),
    Mutant(
        # A width whose square underflows to 0 passes the rule.
        "narrowest-width-square-zero-accepted",
        "pointer.py",
        "(sigmas > 0) & (s2 > 0)",
        "(sigmas > 0)",
        ("tests/test_pointer.py::TestWidthArrays",),
    ),
    Mutant(
        # A width whose square overflows to inf passes the rule.
        "widest-width-square-inf-accepted",
        "pointer.py",
        "(s2 < np.inf)",
        "(s2 <= np.inf)",
        ("tests/test_pointer.py::TestWidthArrays",),
    ),
    Mutant(
        "backward-table-unconjugated",
        "simulator.py",
        "(effect * tables[..., j, :, :, :].conj())",
        "(effect * tables[..., j, :, :, :])",
        ("tests/test_simulator.py::TestSweepMoments",),
    ),
    Mutant(
        # Both engines' tables written weak first: the one site of the
        # leading [exact, weak] axis that the sweep and the recovery read.
        "table-engines-swapped",
        "pointer.py",
        '"both": (True, False)}',
        '"both": (False, True)}',
        ("tests/test_simulator.py::TestSweepMoments", "tests/test_simulator.py::TestRecovery"),
    ),
    Mutant(
        # The recovery row scaled by the left eigenvalue, a_l ov: the chain
        # then reads the observables in reverse order.
        "recovery-row-reads-a_l",
        "simulator.py",
        "tables[:, :, 1] *= eigenvalues[:, :, np.newaxis]",
        "tables[:, :, 1] *= eigenvalues[:, np.newaxis, :]",
        ("tests/test_simulator.py::TestRecovery::test_moments_and_weak_values_match_the_separate_engines",),
    ),
    Mutant(
        # The returned moments read from the recovery row, not the x row.
        "recovery-moment-from-recovery-row",
        "simulator.py",
        "_values(traces[:, 0],",
        "_values(traces[:, 1],",
        ("tests/test_simulator.py::TestRecovery::test_moments_and_weak_values_match_the_separate_engines",),
    ),
    Mutant(
        "residue-scale-one",
        "simulator.py",
        "np.fmax(1.0, peak / probability)",
        "np.fmax(1.0, 0.0 * peak / probability)",
        ("tests/test_simulator.py::TestExactEngine::test_wide_squared_readouts_are_finite",),
    ),
    Mutant(
        "proposal-taken-when-higher",
        "optimize.py",
        "taken = crawling & (values[count:, 0] < values[:count, 0])",
        "taken = crawling",
        ("tests/test_optimize.py::TestSeeSaw::test_no_block_update_raises_the_value",),
    ),
    Mutant(
        # The finite-width step loses its 2 (1 - c) AYA term.
        "projector-step-drops-AYA",
        "optimize.py",
        "product = overlap * product + (1 - overlap) * (product @ projectors)",
        "product = overlap * product",
        ("tests/test_optimize.py::TestEnvironments",),
    ),
    Mutant(
        # The finite-width k_j update takes its linearization's least
        # eigenvector even where the quartic is higher there.
        "quartic-update-takes-higher",
        "optimize.py",
        "lower = lowered < values",
        "lower = lowered < np.inf",
        ("tests/test_optimize.py::TestSeeSaw::test_no_block_update_raises_the_value",),
    ),
    Mutant(
        # The linearization loses its quartic weights: G = c P, no longer
        # the gradient of the block at k_j.
        "linearization-drops-quartic",
        "optimize.py",
        "weights[:, 0, 1:] = quartic * here[:, :0:-1]",
        "weights[:, 0, 1:] = 0.0",
        ("tests/test_optimize.py::TestPointerProductSearch::test_wide_pointers_need_half_the_crawling_evaluations",),
    ),
    Mutant(
        # The weak value's step keeps only the Hermitian part of AY, so its
        # environments no longer carry the chain's phases.
        "weak-value-step-hermitized",
        "optimize.py",
        "if overlap is None:\n        return product",
        "if overlap is None:\n        return _hermitian(product)",
        ("tests/test_optimize.py::TestBatchedObjectives::test_match_one_point_references",),
    ),
    Mutant(
        # k_j's block reads N_(j+1) L_j, not N_(j+1) L_j^H: the same at
        # Hermitian L_j, the pointer product's, but not the weak value's.
        "block-adjoint-dropped",
        "optimize.py",
        "_hermitian(following @ left.conj().swapaxes(1, 2))",
        "_hermitian(following @ left)",
        ("tests/test_optimize.py::TestSeeSaw::test_no_block_update_raises_the_value",),
    ),
    Mutant(
        "sampler-slot-2-noise-wide",
        "simulator.py",
        "rng.standard_normal(out=rows[j])",
        "rng.standard_normal(out=rows[j])\n        rows[j] *= 1.02 if j == 1 else 1.0",
        # The sampler's checks against the exact engine; a pinned stream
        # digest fails on any change to the draws, right or wrong. Only the
        # second moments and the marginal laws see a noise scale: the noise
        # has mean zero.
        tuple(
            f"tests/test_simulator.py::TestSampler::{name}"
            for name in (
                "test_eigenstate_single_measurement",
                "test_illustrative_product_matches_exact",
                "test_postselection_retention",
                "test_three_step_chain_sampling",
                "test_random_scenarios_match_exact",
                "test_six_step_chain_sampling",
                "test_second_moments_match_exact",
                "test_position_marginals_follow_the_exact_law",
            )
        ),
    ),
    Mutant(
        # A reading's distance squared before it is scaled overflows near the
        # widest widths, and inf - inf turns the shot's ket to nan.
        "sampler-squares-before-scaling",
        "simulator.py",
        "weights /= 2.0 * sigma\n    weights **= 2",
        "weights **= 2\n    weights /= 2.0 * sigma\n    weights /= 2.0 * sigma",
        ("tests/test_simulator.py::TestSampler::test_wide_first_pointer_matches_exact",),
    ),
    Mutant(
        # Every block redraws its uniforms from the start of their run, so
        # the blocks after the first reuse the first block's uniforms.
        "sampler-uniform-offset-dropped",
        "simulator.py",
        "rng.bit_generator.advance(offset)",
        "rng.bit_generator.advance(0)",
        (
            "tests/test_simulator.py::TestSampler::test_pinned_stream",
            "tests/test_simulator.py::TestSampler::test_stream_does_not_depend_on_block_size",
        ),
    ),
    Mutant(
        # The first pass draws a step's normals before it skips the step's
        # uniforms, so both come from the wrong places in the stream.
        "sampler-normals-before-uniforms",
        "simulator.py",
        "skip()\n        rng.standard_normal(out=rows[j])",
        "rng.standard_normal(out=rows[j])\n        skip()",
        ("tests/test_simulator.py::TestSampler::test_pinned_stream",),
    ),
    Mutant(
        # The JSON writer drops its last batch, short of a whole batch.
        "json-last-batch-dropped",
        "cli.py",
        "while batch := list(itertools.islice(chunks, 1024)):",
        "while len(batch := list(itertools.islice(chunks, 1024))) == 1024:",
        ("tests/test_cli.py::TestJsonBytes",
         "tests/test_cli.py::TestSampleCommand::test_json_writes_null_where_csv_writes_nan"),
    ),
    Mutant(
        # Post-selected scenarios read without their effect.
        "weak-value-effect-dropped",
        "weak_values.py",
        "if scn.post is None:",
        "if True:",
        ("tests/test_weak_values.py::TestScenarioWeakValue", "tests/test_weak_values.py::TestSeqWeakValues"),
    ),
    Mutant(
        # The post-selection refusal absolute again, whatever the effect's norm.
        "probability-scale-dropped",
        "weak_values.py",
        "threshold = ZERO_PROBABILITY_TOL * norm",
        "threshold = ZERO_PROBABILITY_TOL",
        ("tests/test_simulator.py::TestProbabilityScale",),
    ),
    Mutant(
        # The sampler skips the identity chain under post-selection too, so
        # an effect orthogonal to the state is sampled at probability 1.
        "sampler-post-selected-chain-skipped",
        "simulator.py",
        "probability = 1.0\n    if scn.post is not None:",
        "probability = 1.0\n    if False:",
        (
            "tests/test_simulator.py::TestProbabilityScale::test_orthogonal_effect_is_refused",
            "tests/test_simulator.py::TestSampler::test_zero_probability_raises_before_draws",
        ),
    ),
    Mutant(
        # A pattern holds whatever it was given: letters reach the engines
        # unconverted, and an unknown kind is not refused when built.
        "pattern-kinds-unchecked",
        "simulator.py",
        "tuple(PointerOperatorKind(kind) for kind in self.kinds)",
        "tuple(self.kinds)",
        (
            "tests/test_simulator.py::TestScenarioTypes::test_pattern_takes_kinds_or_their_letters",
            "tests/test_simulator.py::TestScenarioTypes::test_pattern_refuses_other_kinds_when_built",
        ),
    ),
    Mutant(
        # A pattern of something that is not iterable escapes as a bare TypeError.
        "pattern-type-error-escapes",
        "simulator.py",
        "except (TypeError, ValueError) as exc:",
        "except ValueError as exc:",
        ("tests/test_simulator.py::TestScenarioTypes::test_pattern_refuses_other_kinds_when_built",),
    ),
    Mutant(
        # A sweep takes widths of any shape, and a grid that is not one
        # row of widths fails inside the work, or not at all.
        "sweep-widths-any-shape",
        "simulator.py",
        "if widths.ndim != 1:",
        "if False:",
        ("tests/test_simulator.py::TestSweepMoments::test_widths_that_are_not_one_dimensional_are_refused_before_work",),
    ),
    Mutant(
        # The one pass skips the effect's spectrum rule.
        "scenario-effect-unchecked",
        "simulator.py",
        "qm.refused_spectra(values[-1], 1.0)",
        "False",
        ("tests/test_qm.py::TestScenarioInputs",),
    ),
    Mutant(
        # The one pass skips the density matrix's spectrum and trace rules.
        "scenario-density-unchecked",
        "simulator.py",
        "qm.refused_spectra(values[0]) or qm.refused_norms(np.trace(initial).real)",
        "False",
        ("tests/test_qm.py::TestScenarioInputs",),
    ),
    Mutant(
        # The spectrum reads the stacked eigh one row off: from the second
        # observable on, then the effect's row or past the stack's end.
        "stacked-spectrum-wrong-slice",
        "simulator.py",
        "(qm._freeze(values)[rows], qm._freeze(vectors)[rows])",
        "(qm._freeze(values)[rows.start + 1:rows.stop + 1], qm._freeze(vectors)[rows.start + 1:rows.stop + 1])",
        ("tests/test_qm.py::TestScenarioSpectrum::test_spectrum_is_the_observables_own_eigh",),
    ),
    Mutant(
        # A refused scenario raises the last refused input's fault: the
        # checks run effect, widths, observables, then the density matrix.
        "stacked-fault-order-reversed",
        "simulator.py",
        _FIRST_FAULT_ORDER,
        _LAST_FAULT_ORDER,
        ("tests/test_qm.py::TestFaultOrder",),
    ),
    Mutant(
        # A complex angle gives a ket of any norm, whose projector passes
        # as an observable.
        "qubit-ket-complex-angle",
        "qm.py",
        "theta = float(theta)",
        "theta = theta",
        ("tests/test_qm.py::TestStates::test_ket_norm_enforced",),
    ),
    Mutant(
        "hermiticity-absolute",
        "qm.py",
        "HERMITICITY_TOL * np.fmax(1.0, np.abs(matrices).max(axis=(-2, -1)))",
        "HERMITICITY_TOL",
        ("tests/test_qm.py::TestHermiticityScale",),
    ),
)


def copy_source(into: Path) -> Path:
    source = into / "src"
    shutil.copytree(ROOT / "src", source, ignore=shutil.ignore_patterns("__pycache__"))
    return source


def mutated_text(source: Path, mutant: Mutant) -> str:
    """The mutant's file under ``source`` with its snippet replaced."""
    text = (source / "weaklab" / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.snippet)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: snippet occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.snippet, mutant.replacement)


def run_tests(source: Path, tests) -> tuple[int, str]:
    """pytest's exit code for ``tests`` against the package in ``source``,
    whose ``pythonpath`` option replaces the project's ``src``, and the
    first test that failed, if any. A run past ``TIMEOUT_S`` counts as
    failed: a mutant that hangs the tests is caught."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(source))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={source}", *tests]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"a run over {TIMEOUT_S} s"
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or [""])[0]


def main(names: list[str]) -> int:
    started = time.perf_counter()
    unmatched = [name for name in names if not any(name in m.name for m in MUTANTS)]
    if unmatched:
        print(f"no mutant name contains {', '.join(map(repr, unmatched))}")
        return 2
    chosen = [m for m in MUTANTS if not names or any(name in m.name for name in names)]
    for mutant in chosen:
        mutated_text(ROOT / "src", mutant)
    tests = list(dict.fromkeys(test for mutant in chosen for test in mutant.tests))
    code, failed = run_tests(ROOT / "src", tests)
    if code:
        print(f"the named tests fail unmutated (pytest exit code {code}): {failed or ' '.join(tests)}")
        return 1
    unexpected = []
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in chosen:
            clock = time.perf_counter()
            mutated = copy_source(Path(scratch) / mutant.name)
            (mutated / "weaklab" / mutant.path).write_text(mutated_text(mutated, mutant), encoding="utf-8")
            code, failed = run_tests(mutated, mutant.tests)
            verdict = f"killed by {failed or f'pytest exit code {code}'}" if code else "SURVIVED"
            if not code and mutant.gap:
                verdict += f", a known gap that {mutant.gap} closes"
            elif not code:
                unexpected.append(mutant.name)
            print(f"{mutant.name} ({time.perf_counter() - clock:.1f} s): {verdict}")
    print(f"{len(chosen)} mutants, {len(unexpected)} unexpected survivors, {time.perf_counter() - started:.1f} s wall")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
