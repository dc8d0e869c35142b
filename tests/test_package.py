"""The public surface: every name in ``weaklab.__all__`` exists, once,
is read by the program, a demo or the benchmark, and every defaulted
parameter of its functions is passed there; no module imports a name it
never reads, every private top-level name is read in the package, each
closing tolerance is read in one function, the value types that hold
arrays compare by identity, and importing the CLI pulls in no dependency
beyond numpy and builds no parser."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weaklab as wl
from weaklab import errors
from weaklab.errors import InputError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_star_import_binds_every_entry():
    # A stale entry naming a deleted function makes the import itself raise.
    namespace = {}
    exec("from weaklab import *", namespace)
    assert set(wl.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(wl.__all__) == len(set(wl.__all__))


def test_every_entry_is_read_outside_the_tests():
    # A name only the tests read is not part of what the package is for.
    readers = [p for p in (SRC / "weaklab").glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    loaded = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert sorted(set(wl.__all__) - loaded) == []


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports to re-export; every other module reads what it imports.
    unread = []
    for path in sorted((SRC / "weaklab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unread == []


def test_every_error_is_an_input_or_a_numeric_error():
    # ``cli.main`` maps these two families to exit codes 2 and 1 and has no
    # other handler, so no module may define an error outside them.
    paths = sorted((SRC / "weaklab").glob("*.py"))
    modules = [wl, *(importlib.import_module(f"weaklab.{path.stem}") for path in paths if path.stem != "__init__")]
    defined = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
    ]
    assert {value.__module__ for value in defined} == {"weaklab.errors"}
    families = (errors.InputError, errors.NumericError)
    assert [value for value in defined if not issubclass(value, families)] == [errors.WeakLabError]


def test_every_private_top_level_name_is_read():
    # A helper folded into another must go with the fold, not linger unread.
    defined, read = [], set()
    for path in sorted((SRC / "weaklab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [target.id for target in nodes if isinstance(target, ast.Name)]
            else:
                targets = []
            defined += [f"{path.name}: {name}" for name in targets if name[:1] == "_" and name[:2] != "__"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [entry for entry in defined if entry.split(": ")[1] not in read] == []


def count_refusals_outside_errors(root: Path) -> list[str]:
    """Every raise of ``InputError`` or a subclass of it outside errors.py
    whose message text words a count bound, as "<file>:<line>"."""
    refusals = {name for name, value in vars(errors).items() if isinstance(value, type) and issubclass(value, InputError)}
    found = []
    for path in sorted(root.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if not isinstance(call, ast.Call):
                continue
            name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
            if name in refusals:
                text = " ".join(
                    part.value for part in ast.walk(call) if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
                if "must be at least" in text or "must be at most" in text:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_counts_are_refused_by_check_count_alone(tmp_path):
    # errors.check_count is the one home of the count rule's wording.
    assert count_refusals_outside_errors(SRC / "weaklab") == []
    (tmp_path / "inline.py").write_text(
        'def f(n):\n    raise InputError(f"n must be at least 1, got {n}")\n'
        'def g(v):\n    raise errors.DimensionMismatch("dimension must be at least 2")\n'
        'def h(v):\n    raise ValueError("v must be at most 2")\n'
    )
    assert count_refusals_outside_errors(tmp_path) == ["inline.py:2", "inline.py:4"]


def readers_of(root: Path, name: str) -> list[str]:
    """Every top-level function or class of the modules in ``root`` that
    reads ``name``, bare or as an attribute, as "<file>:<definition>"; a
    read outside them counts as "<file>:<module>"."""
    readers = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for part in ast.walk(node):
                read = part.id if isinstance(part, ast.Name) else getattr(part, "attr", None)
                if read == name and isinstance(getattr(part, "ctx", None), ast.Load):
                    readers.add(f"{path.name}:{owner}")
    return sorted(readers)


def test_each_closing_tolerance_is_read_in_one_function(tmp_path):
    # A second reader of a tolerance is a second copy of the rule it sets.
    assert readers_of(SRC / "weaklab", "ZERO_PROBABILITY_TOL") == ["weak_values.py:check_probability"]
    assert readers_of(SRC / "weaklab", "MOMENT_IMAG_TOL") == ["simulator.py:_values"]
    (tmp_path / "copy.py").write_text(
        "TOL = 1e-3\n"
        "LIMIT = 2 * TOL\n"
        "def f(x):\n    return x > TOL\n"
        "def g(x):\n    def inner():\n        return tolerances.TOL\n    return inner\n"
        "def h(TOL):\n    return 0\n"
    )
    assert readers_of(tmp_path, "TOL") == ["copy.py:<module>", "copy.py:f", "copy.py:g"]


def constructed(path: Path) -> set[str]:
    """Every name that a call in ``path`` calls, bare or as an attribute."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            calls.add(node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
    return calls


def test_the_file_path_builds_no_per_step_objects(tmp_path):
    # The reader and the builders fill Scenario's stacks, which it checks
    # once per kind; a value object per step would check every step again.
    package = SRC / "weaklab"
    assert constructed(package / "scenario_io.py") & {"GaussianPointer", "MeasurementStep"} == set()
    assert constructed(package / "scenarios.py") & {"GaussianPointer", "MeasurementStep"} == set()
    (tmp_path / "steps.py").write_text(
        "steps = [wl.MeasurementStep(a, GaussianPointer(s)) for a, s in pairs]\n"
        "pointer = GaussianPointer\n"
    )
    assert constructed(tmp_path / "steps.py") == {"MeasurementStep", "GaussianPointer"}


def unpassed_defaults(modules: list[Path], names, callers: list[Path]) -> list[str]:
    """Every defaulted parameter of a top-level function of ``modules``
    named in ``names`` that no call in ``callers`` passes by keyword and
    no dict literal there holds as a key, as "<function>.<parameter>"."""
    passed = set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                passed.update(keyword.arg for keyword in node.keywords)
            elif isinstance(node, ast.Dict):
                passed.update(key.value for key in node.keys if isinstance(key, ast.Constant))
    unpassed = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                positional = node.args.posonlyargs + node.args.args
                defaulted = positional[len(positional) - len(node.args.defaults):]
                defaulted += [arg for arg, value in zip(node.args.kwonlyargs, node.args.kw_defaults) if value is not None]
                unpassed += [f"{node.name}.{arg.arg}" for arg in defaulted if arg.arg not in passed]
    return unpassed


def test_every_public_default_is_passed_outside_the_tests(tmp_path):
    # An option only the tests set is a knob the package does not need.
    modules = sorted((SRC / "weaklab").glob("*.py"))
    callers = [*modules, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    assert unpassed_defaults(modules, wl.__all__, callers) == []
    (tmp_path / "knob.py").write_text("def f(x, used=1, unused=2):\n    return f(x, used=0)\n")
    assert unpassed_defaults([tmp_path / "knob.py"], ["f"], [tmp_path / "knob.py"]) == ["f.unused"]


@pytest.mark.parametrize(
    "make",
    [
        lambda: wl.SearchSpacePoint(np.array([1.0, 0.0]), np.array([[0.0, 1.0]])).decode()[0],
        lambda: wl.build_illustrative(1.0, 1.0),
        lambda: wl.SearchSpacePoint(np.array([1.0, 0.0]), np.array([[0.0, 1.0]])),
        lambda: wl.OptimizationResult(-0.125, wl.SearchSpacePoint(np.ones(2), np.ones((1, 2))), 7, ((7, -0.125),)),
    ],
    ids=["decoded state", "Scenario", "SearchSpacePoint", "OptimizationResult"],
)
def test_array_holding_values_compare_by_identity(make):
    # Field equality on arrays could only raise ValueError, and a field hash TypeError.
    first, second = make(), make()
    assert first == first and not first == second and first != second
    assert len({first, second, first}) == 2


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, weaklab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_builds_no_parser():
    # The parser is built by the first main call, never by the import.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import weaklab.cli\n"
        "print(len(built))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
