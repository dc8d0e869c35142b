import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaklab as wl
from weaklab import cli, simulator
from weaklab.cli import BOUNDS_CHUNK, CHAIN_MAX_STEPS, SWEEP_MAX_POINTS, main
from weaklab.errors import InputError, NumericError

from conftest import scenario_document
from instances import (
    chain_peak,
    norm_product_bound,
    ordered_trace,
    random_density,
    random_ket,
    random_observable,
    random_scenario,
)

SIGMA_Z = np.diag([1.0, -1.0])
WIDTH_RULE = "pointer width must be positive and its square a positive finite float"
# The narrowest width whose square is a positive float, and the widest whose
# square is finite.
NARROWEST, WIDEST = 1.5717277847026288e-162, math.sqrt(sys.float_info.max)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def assert_json_dumps_bytes(out):
    """A JSON report's bytes are json.dumps' with the report's options, and a newline."""
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True, allow_nan=False) + "\n"


def csv_rows(output):
    lines = [line for line in output.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def value_of(rows, quantity):
    matches = [row for row in rows if row["quantity"] == quantity]
    assert matches, f"no row for {quantity}"
    return matches[0]


class TestScenarioCommand:
    def test_illustrative_weak_limit(self, capsys):
        code, out = run_cli(capsys, "scenario", "illustrative", "--sigma1", "100")
        assert code == 0
        rows = csv_rows(out)
        exact = float(value_of(rows, "exact_all_position_moment")["value"])
        assert exact == pytest.approx(-0.125, abs=5e-4)

    def test_chain_two_weak_value(self, capsys):
        code, out = run_cli(capsys, "scenario", "chain-n", "--n", "2")
        assert code == 0
        rows = csv_rows(out)
        weak = float(value_of(rows, "weak_all_position_moment")["value"])
        assert weak == pytest.approx(-0.125, abs=1e-12)

    def test_pauli_recovered_imaginary_unit(self, capsys):
        code, out = run_cli(capsys, "scenario", "pauli-xy")
        assert code == 0
        rows = csv_rows(out)
        assert float(value_of(rows, "recovered_from_weak_re")["value"]) == pytest.approx(0.0, abs=1e-12)
        assert float(value_of(rows, "recovered_from_weak_im")["value"]) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "--format", "json", "scenario", "pauli-xy")
        assert code == 0
        document = json.loads(out)
        assert document["config"]["scenario"] == "pauli-xy"
        assert any(r["quantity"] == "recovered_from_weak_im" for r in document["results"])

    @pytest.mark.parametrize("name", ["illustrative", "pauli-xy"])
    def test_widest_first_pointer_recovers(self, capsys, name):
        # The recovery's gain 2 sigma^2 overflows here; sigma^2 p does not.
        code, out = run_cli(capsys, "scenario", name, "--sigma1", "1.2e154")
        assert code == 0
        rows = csv_rows(out)
        for source in ("exact", "weak"):
            got = complex(*(float(value_of(rows, f"recovered_from_{source}_{part}")["value"]) for part in ("re", "im")))
            assert abs(got - (-0.125 if name == "illustrative" else 1j)) <= 1e-15

    def test_one_pass(self, capsys, monkeypatch):
        # Both engines' moments and recoveries come out of one chain.
        calls = []
        original = simulator._forward

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(simulator, "_forward", counted)
        assert run_cli(capsys, "scenario", "illustrative")[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("sigma,ok", [("0.5", "False"), ("100", "True")])
    def test_weak_regime_row(self, capsys, sigma, ok):
        code, out = run_cli(capsys, "scenario", "illustrative", "--sigma", sigma)
        assert code == 0
        assert value_of(csv_rows(out), "weak_regime_ok")["value"] == ok


class TestSimulateCommand:
    def test_illustrative_file_exact(self, capsys, write_scenario):
        path = write_scenario(wl.build_illustrative(1.0, 1.0), "illustrative.json")
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "xx", "--method", "exact")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx((1.0 - 3.0 * math.exp(-0.125)) / 16.0, abs=1e-12)

    def test_leading_position_is_expectation(self, capsys, write_scenario):
        path = write_scenario(wl.build_pauli_xy(1.3, 2.4), "pauli.json")
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "xi", "--method", "exact")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx(0.0, abs=1e-12)  # Tr(sigma_y |0><0|) = 0

    def test_pauli_weak_momentum_readout(self, capsys, write_scenario):
        path = write_scenario(wl.build_pauli_xy(2.0, 1.0), "pauli.json")
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "px", "--method", "weak")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_builtin_name_accepted(self, capsys):
        code, out = run_cli(capsys, "simulate", "illustrative", "--pattern", "xx", "--sigma1", "100")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx(-0.125, abs=5e-4)

    def test_weak_rejects_squared_kind(self, capsys):
        code, _ = run_cli(capsys, "simulate", "illustrative", "--pattern", "Xx", "--method", "weak")
        assert code == 2

    def test_unknown_scenario_exit_code(self, capsys):
        code, _ = run_cli(capsys, "simulate", "no-such-scenario", "--pattern", "xx")
        assert code == 2

    def test_numeric_failure_exit_code(self, capsys, write_scenario):
        scn = wl.Scenario(
            initial=wl.KET_0,
            steps=(wl.MeasurementStep(SIGMA_Z, wl.GaussianPointer(1.0)),),
            post=np.diag([0.0, 1.0]),
        )
        path = write_scenario(scn, "orthogonal.json")
        code, _ = run_cli(capsys, "simulate", str(path), "--pattern", "x")
        assert code == 1

    def test_malformed_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dimension": 2}')
        code, _ = run_cli(capsys, "simulate", str(path), "--pattern", "xx")
        assert code == 2

    def test_directory_exit_code(self, capsys, tmp_path):
        code, out = run_cli(capsys, "simulate", str(tmp_path), "--pattern", "x")
        assert code == 2
        assert out == ""

    def test_non_utf8_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dimension": 2, "note": "\xe9"}')
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "x")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "place,field",
        [
            (lambda doc: doc["steps"][0]["observable"][0].__setitem__(0, [10**400, 0]), "steps[0].observable[0][0]"),
            (lambda doc: doc["steps"][0]["observable"][1].__setitem__(1, [0, -(10**309)]), "steps[0].observable[1][1]"),
            (lambda doc: doc["steps"][0].update(sigma=10**400), "steps[0].sigma"),
        ],
        ids=["real", "imaginary", "sigma"],
    )
    def test_integer_too_large_for_a_double_exit_code(self, capsys, write_scenario, place, field):
        path = write_scenario(wl.build_illustrative(1.0, 1.0))
        doc = json.loads(path.read_text())
        place(doc)
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--pattern", "xx"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: {field}: number too large for a double\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"dimension": 2, "sigma": ' + "1" * 5000 + "}",  # over Python's 4300-digit int parsing limit
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["long-integer", "deep-nesting"],
    )
    def test_unparseable_json_exit_code(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code = main(["simulate", str(path), "--pattern", "x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot parse JSON: ")


class TestSweepCommand:
    def test_illustrative_limits(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "illustrative",
            "--param", "sigma1", "--from", "0.05", "--to", "100", "--steps", "20",
            "--pattern", "xx",
        )
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 20
        assert float(rows[0]["exact"]) == pytest.approx(1.0 / 16.0, abs=1e-3)
        assert float(rows[-1]["exact"]) == pytest.approx(-0.125, abs=5e-4)

    def test_difference_shrinks_quadratically(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "illustrative",
            "--param", "sigma1", "--from", "10", "--to", "40", "--steps", "3",
            "--pattern", "xx",
        )
        assert code == 0
        rows = csv_rows(out)
        first = float(rows[0]["abs_difference"])
        last = float(rows[-1]["abs_difference"])
        # sigma grows 4x, so the gap should shrink about 16x
        assert first / last == pytest.approx(16.0, rel=0.2)

    def test_second_width_has_no_effect(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "illustrative",
            "--param", "sigma2", "--from", "0.1", "--to", "10", "--steps", "5",
            "--pattern", "xx",
        )
        assert code == 0
        exact_column = [float(row["exact"]) for row in csv_rows(out)]
        assert max(exact_column) - min(exact_column) < 1e-12

    def test_unknown_parameter(self, capsys):
        code, _ = run_cli(
            capsys,
            "sweep", "illustrative",
            "--param", "sigma9", "--from", "1", "--to", "2", "--steps", "2",
            "--pattern", "xx",
        )
        assert code == 2

    # int() reads each odd spelling as a step number, sigma1_0 as step 10.
    @pytest.mark.parametrize(
        "param,message",
        [
            *((odd, f"sweep parameter must look like sigma1, got {odd!r}")
              for odd in ("sigma+1", "sigma 1", "sigma1 ", "sigma01", "sigma\u0661", "sigma1_0", "sigma")),
            *((param, f"{param!r} is out of range for a 12-step scenario") for param in ("sigma0", "sigma13")),
            *((param, f"sweep parameter must name a step width (sigmaK), got {param!r}")
              for param in ("width1", "Sigma1", "1", "")),
        ],
    )
    def test_param_spelling(self, capsys, param, message):
        code = main(["sweep", "chain-n", "--n", "12", "--param", param, "--from", "1", "--to", "2", "--steps", "2",
                     "--pattern", "x" * 12])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", f"input error: {message}\n")

    @pytest.mark.parametrize("steps", [SWEEP_MAX_POINTS + 1, 10**18])
    def test_steps_over_limit_exit_code(self, capsys, monkeypatch, steps):
        def untouched(*args, **kwargs):
            raise AssertionError("sweep built its grid before checking the point count")

        monkeypatch.setattr(np, "geomspace", untouched)
        code = main(
            ["sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "2", "--steps", str(steps),
             "--pattern", "xx"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: --steps must be at most {SWEEP_MAX_POINTS}, got {steps}\n"

    @pytest.mark.parametrize("report,bound", [((), 200), (("--format", "json"), 420)], ids=["csv", "json"])
    def test_report_memory_per_point(self, report, bound):
        # Rows reach the writer as tuples: CSV streams them, JSON builds one
        # object per row. The report's peak grows by 60 B a point in CSV and
        # 337 B in JSON (tracemalloc, 20,000 to 40,000 illustrative points,
        # after a warm-up call).
        def peak(points):
            tracemalloc.start()
            try:
                assert main([*report, "sweep", "illustrative", "--param", "sigma1", "--from", "0.5", "--to", "4",
                             "--steps", str(points), "--pattern", "xx"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            peak(5)  # load everything a first call loads
            slope = (peak(40_000) - peak(20_000)) / 20_000
        assert slope <= bound, slope


def with_width(scn, index, value):
    """``scn`` with step ``index``'s pointer width set to ``value``."""
    widths = scn.widths.copy()
    widths[index] = value
    return dataclasses.replace(scn, widths=widths)


def per_point_sweep(scn, pattern, index, start, stop, steps):
    """The sweep one grid point at a time, as the CLI ran it before its
    grid became one stack: a validated scenario per point, then
    exact_moment and weak_prediction. Returns (0, rows) with rows of
    (width, exact result, weak result), or (exit code, stderr line) for
    the first error the loop meets."""
    rows = []
    try:
        pat = wl.MomentPattern.from_string(pattern)
        for value in np.geomspace(start, stop, steps):
            varied = with_width(scn, index, float(value))
            exact = wl.exact_moment(varied, pat)
            rows.append((float(value), exact, wl.weak_prediction(varied, pat)))
    except NumericError as exc:
        return 1, f"numeric failure: {exc}\n"
    except InputError as exc:
        return 2, f"input error: {exc}\n"
    return 0, rows


def assert_sweep_matches_loop(source, scn, pattern, index, start, stop, steps, *flags):
    """``weaklab sweep`` against ``per_point_sweep``: the same exit code and
    stderr line, or values within 1e-12 x max(1, peak / Tr(eta)) per point."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["sweep", str(source), "--param", f"sigma{index + 1}", "--from", repr(start), "--to", repr(stop),
            "--steps", str(steps), "--pattern", pattern, *flags]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    want_code, want = per_point_sweep(scn, pattern, index, start, stop, steps)
    assert code == want_code, (err.getvalue(), want)
    if code:
        assert (out.getvalue(), err.getvalue()) == ("", want)
        return
    rows, pat = csv_rows(out.getvalue()), wl.MomentPattern.from_string(pattern)
    assert len(rows) == len(want)
    for row, (value, exact, weak) in zip(rows, want):
        varied = with_width(scn, index, value)
        assert float(row[f"sigma{index + 1}"]) == value
        for column, result, is_exact in (("exact", exact, True), ("weak", weak, False)):
            scale = max(1.0, chain_peak(varied, pat, is_exact) / result.postselection_probability)
            assert float(row[column]) == pytest.approx(result.value, rel=0.0, abs=1e-12 * scale), (column, value)


def count_reruns(monkeypatch) -> list:
    """A list that records each call of ``simulator._moment``, through
    which ``sweep_moments`` reruns a point alone, until the patch is undone."""
    calls, original = [], simulator._moment
    monkeypatch.setattr(simulator, "_moment", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


class TestSweepAgainstPerPointLoop:
    """The stacked sweep reports what the loop over grid points reported."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        n=st.integers(1, 4),
        with_post=st.booleans(),
        letters=st.lists(st.sampled_from("ixXpP"), min_size=4, max_size=4),
        index=st.integers(0, 3),
        ends=st.tuples(st.floats(0.3, 300.0), st.floats(0.3, 300.0)),
        steps=st.integers(1, 12),
    )
    @settings(derandomize=True, deadline=None, max_examples=120)
    def test_random_files_patterns_and_grids(
        self, tmp_path_factory, seed, d, n, with_post, letters, index, ends, steps
    ):
        scn = random_scenario(np.random.default_rng(seed), d, n, with_post)
        path = tmp_path_factory.mktemp("sweep") / "scenario.json"
        path.write_text(json.dumps(scenario_document(scn)))
        assert_sweep_matches_loop(path, scn, "".join(letters[:n]), index % n, *ends, steps)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_edges(self, write_scenario, offset):
        scn = random_scenario(np.random.default_rng(8), 4, 3, with_post=True)
        points = simulator.SWEEP_CHUNK_ENTRIES // 4**2 + offset
        assert_sweep_matches_loop(write_scenario(scn), scn, "xpx", 1, 0.4, 40.0, points)

    @pytest.mark.parametrize(
        "name,build,pattern,index,start,stop,steps",
        [
            # the first point's width squares to 0, which the width rule refuses: exit 2
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xx", 0, 1e-170, 1.0, 7),
            # the weak engine refuses an X slot once point 0's exact value is in: exit 2
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xX", 0, 0.5, 4.0, 6),
            # a mid-grid width whose square overflows: exit 2 after four good points
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xx", 1, 0.5, 1e200, 6),
            # a momentum table overflows at point 7 before the width rule
            # refuses point 8's: the first failure is the first in the grid
            ("pauli-xy", lambda: wl.build_pauli_xy(1.0, 1.0), "px", 0, 1e-100, 1e-170, 9),
            ("pauli-xy", lambda: wl.build_pauli_xy(1.0, 1.0), "xp", 1, 1e-100, 1e-170, 15),
            ("pauli-xy", lambda: wl.build_pauli_xy(1.0, 1.0), "px", 0, 1.0, 1e-170, 9),
            # point 0's exact engine fails before the weak one can refuse the X slot: exit 1
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "pX", 0, 1e-160, 1.0, 5),
            # point 0's width fails before its exact engine sees the pattern's length
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xxx", 0, 1e200, 1.0, 4),
        ],
    )
    def test_failure_matches_the_loop(self, name, build, pattern, index, start, stop, steps):
        assert per_point_sweep(build(), pattern, index, start, stop, steps)[0] != 0
        assert_sweep_matches_loop(name, build(), pattern, index, start, stop, steps)

    @pytest.mark.parametrize(
        "name,build,pattern,index,start,stop",
        [
            # a width whose square overflows at point 7,710: exit 2
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xx", 1, 0.5, 1e200),
            # a width whose square underflows at point 9,517: exit 2
            ("illustrative", lambda: wl.build_illustrative(1.0, 1.0), "xx", 0, 1.0, 1e-170),
            # a momentum table overflows at point 9,066: exit 1
            ("pauli-xy", lambda: wl.build_pauli_xy(1.0, 1.0), "px", 0, 1.0, 1e-170),
        ],
    )
    def test_failure_past_the_first_chunk(self, monkeypatch, name, build, pattern, index, start, stop):
        # Halving finds the failing point, the only one that reruns alone.
        scn, pat, grid = build(), wl.MomentPattern.from_string(pattern), np.geomspace(start, stop, 10_000)
        first_chunk = simulator.SWEEP_CHUNK_ENTRIES // scn.dim**2
        simulator.sweep_moments(scn, pat, index, grid[:first_chunk + 1])
        calls = count_reruns(monkeypatch)
        with pytest.raises((InputError, NumericError)):
            simulator.sweep_moments(scn, pat, index, grid)
        assert len(calls) <= 2
        monkeypatch.undo()
        assert_sweep_matches_loop(name, scn, pattern, index, start, stop, len(grid))

    def test_memory_is_flat_in_points(self):
        # Beside its results, 16 bytes a point, a sweep holds one chunk's
        # work arrays, whatever the size of its grid.
        scn, pattern = wl.build_illustrative(1.0, 1.0), wl.MomentPattern.from_string("xx")

        def peak(points):
            grid = np.geomspace(0.5, 50.0, points)
            simulator.sweep_moments(scn, pattern, 0, grid[:5])  # load everything a first call loads
            tracemalloc.start()
            try:
                simulator.sweep_moments(scn, pattern, 0, grid)
                return tracemalloc.get_traced_memory()[1] - 16 * points
            finally:
                tracemalloc.stop()

        small, large = peak(20_000), peak(200_000)
        assert large <= small + 256 * 1024, (small, large)

    def test_swept_steps_own_tables_are_never_read(self, write_scenario, monkeypatch):
        # At the file's own width for the swept step, its momentum table is
        # not finite, but the sweep never reads it, so no point reruns alone.
        scn = random_scenario(np.random.default_rng(3), 3, 3, with_post=True)
        scn = with_width(scn, 0, NARROWEST)
        calls = count_reruns(monkeypatch)
        simulator.sweep_moments(scn, wl.MomentPattern.from_string("pxp"), 0, np.geomspace(0.5, 4.0, 4000))
        assert len(calls) == 0
        monkeypatch.undo()
        assert_sweep_matches_loop(write_scenario(scn), scn, "pxp", 0, 0.5, 4.0, 4000)

    def test_unswept_width_underflow_fails_every_point(self):
        # chain-n's other widths square to a subnormal, so step 1's momentum
        # table overflows and point 0's exact engine fails
        assert_sweep_matches_loop("chain-n", wl.build_projector_chain(3, 1e-160), "pxx", 1, 0.5, 4.0, 5,
                                  "--n", "3", "--sigma", "1e-160")


class TestChainLength:
    @pytest.mark.parametrize("n", [CHAIN_MAX_STEPS + 1, 10**9])
    @pytest.mark.parametrize(
        "command",
        [
            ("scenario", "chain-n"),
            ("simulate", "chain-n", "--pattern", "xx"),
            ("sweep", "chain-n", "--param", "sigma1", "--from", "1", "--to", "2", "--pattern", "xx"),
            ("sample", "chain-n", "--shots", "10"),
        ],
    )
    def test_n_over_limit_exit_code(self, capsys, monkeypatch, command, n):
        def untouched(*args, **kwargs):
            raise AssertionError("the chain was built before its length was checked")

        monkeypatch.setattr(cli, "build_projector_chain", untouched)
        code = main([*command, "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"input error: --n must be at most {CHAIN_MAX_STEPS}, got {n}\n"

    @pytest.mark.parametrize("report", [(), ("--format", "json")], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "command",
        [
            ("scenario",),
            ("simulate", "--method", "exact"),
            ("simulate", "--method", "weak"),
            ("sweep", "--param", "sigma1", "--from", "1", "--to", "2", "--steps", "2"),
            ("sample", "--shots", "1"),
        ],
        ids=["scenario", "simulate-exact", "simulate-weak", "sweep", "sample"],
    )
    def test_memory_per_step(self, report, command):
        # The figures behind CHAIN_MAX_STEPS: a million steps stay under
        # errors.MEMORY_LIMIT at these peaks, 733, 540, 486, 744 and 781 B
        # per step at n = 2,000, the JSON sample 808 (tracemalloc, after a
        # warm-up call).
        def argv(n):
            pattern = ("--pattern", "x" * n) if command[0] in ("simulate", "sweep") else ()
            return [*report, command[0], "chain-n", "--n", str(n), *command[1:], *pattern]

        n = 2000
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            main(argv(50))  # load everything a first call loads
            tracemalloc.start()
            try:
                assert main(argv(n)) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1100 * n, peak / n


class TestRepeatedCalls:
    """main builds its parser once per process, and reusing it leaks nothing
    from one call into the next."""

    SWEEP = ("illustrative", "--param", "sigma1", "--from", "0.5", "--to", "4", "--steps", "3", "--pattern", "xx")
    # Neighbouring commands differ in one flag: set, then unset or defaulted.
    COMMANDS = [
        ("--format", "json", "sweep", *SWEEP),
        ("sweep", *SWEEP),
        ("simulate", "illustrative", "--pattern", "xx", "--sigma1", "0.3"),
        ("simulate", "illustrative", "--pattern", "xx"),
        ("sample", "chain-n", "--n", "3", "--shots", "50", "--seed", "4"),
        ("sample", "chain-n", "--shots", "50", "--seed", "4"),
        ("--format", "json", "optimize", "--n", "2", "--restarts", "2", "--budget", "100"),
        ("optimize", "--n", "2", "--restarts", "2", "--budget", "100"),
        ("bounds", "--trials", "20", "--seed", "1"),
        ("--format", "json", "bounds", "--trials", "20"),
    ]

    def test_reused_parser_matches_fresh_process(self, capsys):
        # Each reference report comes from a process of its own, so state
        # that leaks between calls cannot reach it.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        fresh = {}
        for argv in self.COMMANDS:
            done = subprocess.run(
                [sys.executable, "-m", "weaklab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            fresh[argv] = done.stdout

        cli._build_parser.cache_clear()
        for argv in self.COMMANDS + self.COMMANDS[::-1] + self.COMMANDS:
            assert main(list(argv)) == 0
            assert capsys.readouterr().out == fresh[argv], argv
        assert cli._build_parser.cache_info().misses == 1


class TestReportDigests:
    """Every report but optimize's is pinned byte for byte: the sha256 of
    stdout without its ``# version`` lines or its JSON ``versions`` field.
    The digests hold for the numpy named in those lines on x86-64; a
    refactor that is meant to leave the numbers alone must keep them."""

    DIGESTS = [
        ("scenario illustrative", "2b6f55422e6df51559e5c33427e17e588859b938c0c08bc6dba984b3b63047ab"),
        ("scenario pauli-xy", "9b8c61a9dcd8b4bd56a30d948ff9aae3551e9b82622c28a10dd0a267450a39e3"),
        # The recovery row a_k ov, which replaced x + 2i (sigma^2 p), moves
        # both recovered real parts by one ulp here (-0.125 now reads
        # -0.12499999999999999).
        ("scenario chain-n", "be91f17cfbf1709c26e3836cc29d3eb6578940b6e66b76387e4cc51399846f6e"),
        ("scenario common-cause", "e1a017dc22c034d1bbbb52fbc94f96eefa6cf8c5d11692fb13e1e66bbb10f23e"),
        ("--format json scenario chain-n --n 4", "b67e064bdd39afe6f5a534737eb385fd87b1adfebd49ae06a0fb8eb7d379bc35"),
        ("simulate illustrative --pattern xX", "a9b8689ad51f0cd7e79a7cbb490b8ac275d4213d4b565e8017071558422ad1fc"),
        ("simulate pauli-xy --pattern px --method weak", "408f10c714be9720ab2ee22516b7043b95ab53903d548bbdb06c28bfca37f5b5"),
        (
            "simulate chain-n --n 5 --pattern xpxix --method weak --sigma 0.4",
            "2cc80a3afcbab061521394549db42f21516a6b122f55e35ad092b4b61275b318",
        ),
        (
            "sweep illustrative --param sigma1 --from 0.5 --to 4 --steps 4 --pattern xx",
            "5f1146824fb457af209dbea2ef456b39b823c63aa6f40a0481feb954facee769",
        ),
        (
            "--format json sweep pauli-xy --param sigma2 --from 0.5 --to 3 --steps 3 --pattern xp",
            "fb66f6eb9ee63aeceb6a00a27996a1225001dcceb4f763342a344716b7aeaaf3",
        ),
        ("bounds --trials 2100 --seed 3", "2f16d266698ee6d13c98a13b379168e05701784348a4223d2f8aad960b339541"),
        ("sample illustrative --shots 2000 --seed 1", "c32ed3d2d5abedf19f6db5a07aa31cc70a2e0edf60282702104659205a73fc31"),
        ("sample chain-n --n 300 --shots 200 --seed 2", "5eb5bef1e7a7a92ecc8789e79363326d559aa948c3fb7028b0da87a2ad1edfb0"),
        ("sample common-cause --shots 2000 --seed 3", "2bbb3a2548b021bdb026cf0d2805139aad1d86e0ba2a63b91869e21d660201af"),
        ("sample illustrative --shots 100000 --seed 4", "c4b7cb4cb2f4cabf771ded44283f5879de32302b4bbc820488fb12615cbce8b3"),
    ]

    # Seeded random scenario files that the test writes into its working
    # directory, so the command echo names them the same way every run:
    # (seed, d, n, rank-1 post-selection).
    RANDOM_FILES = {"random-d3.json": (31, 3, 5, False), "random-d4-post.json": (32, 4, 5, True)}
    FILE_DIGESTS = [
        (
            "simulate random-d3.json --pattern pXPix",
            "3a124d19d0ef10c662a3d4ffb143f61f5dad989204aaa5f668cdd0ac30889589",
        ),
        (
            "simulate random-d3.json --pattern pxpxi --method weak",
            "d37f08ee5bcc418c08ee699214cf9a0f790f7befc4d9adff9b4bb23ff5054c57",
        ),
        (
            "simulate random-d4-post.json --pattern PpXxi",
            "e9fe7076ee127cb4e193ca36f135e32b182ac1f542e11668455ffd4ef1a153de",
        ),
        (
            "--format json simulate random-d4-post.json --pattern xpipx --method weak",
            "bf3926d167adf979340c8bdf9101e1448d4dde16fedaf265d2da7d343eb35201",
        ),
        (
            "sample random-d4-post.json --shots 3000 --seed 5",
            "785e33ca376013b3f360fc7e769037612b1bf889a1e49db00182445694e0ebc0",
        ),
    ]

    @staticmethod
    def digest(capsys, command):
        code, out = run_cli(capsys, *command.split())
        assert code == 0
        if out.startswith("{"):
            document = json.loads(out)
            del document["versions"]
            out = json.dumps(document, indent=2, sort_keys=True)
        else:
            out = "".join(line for line in out.splitlines(keepends=True) if not line.startswith("# version"))
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("command,digest", DIGESTS)
    def test_report_digest(self, capsys, command, digest):
        assert self.digest(capsys, command) == digest

    @pytest.mark.parametrize("command,digest", FILE_DIGESTS)
    def test_random_file_report_digest(self, capsys, monkeypatch, tmp_path, command, digest):
        monkeypatch.chdir(tmp_path)
        for name, (seed, d, n, with_post) in self.RANDOM_FILES.items():
            scn = random_scenario(np.random.default_rng(seed), d, n, with_post)
            Path(name).write_text(json.dumps(scenario_document(scn)))
        assert self.digest(capsys, command) == digest


class TestJsonBytes:
    """A JSON report is written in batches of the encoder's chunks, so its
    bytes are checked as written, not re-dumped as ``TestReportDigests`` does."""

    COMMANDS = [
        ("scenario", "chain-n", "--n", "4"),
        ("simulate", "pauli-xy", "--pattern", "px", "--method", "weak"),
        ("sweep", "illustrative", "--param", "sigma1", "--from", "0.5", "--to", "4", "--steps", "4", "--pattern", "xx"),
        ("optimize", "--n", "2", "--restarts", "2", "--budget", "100"),
        ("sample", "illustrative", "--shots", "200", "--seed", "1"),
        ("bounds", "--trials", "20", "--seed", "1"),
        # Thousands of chunks, so several batches.
        ("sample", "chain-n", "--n", "400", "--shots", "1"),
    ]

    @pytest.mark.parametrize(
        "command", COMMANDS, ids=["scenario", "simulate", "sweep", "optimize", "sample", "bounds", "sample-batches"]
    )
    def test_report_is_json_dumps(self, capsys, command):
        code, out = run_cli(capsys, "--format", "json", *command)
        assert code == 0
        assert_json_dumps_bytes(out)


class TestOptimizeCommand:
    def test_small_search(self, capsys):
        code, out = run_cli(
            capsys,
            "optimize", "--n", "2", "--dim", "2", "--restarts", "8", "--seed", "7",
            "--budget", "8000",
        )
        assert code == 0
        summary = {
            line.split(" = ")[0].removeprefix("# summary "): line.split(" = ")[1]
            for line in out.splitlines()
            if line.startswith("# summary")
        }
        assert float(summary["best_value"]) == pytest.approx(-0.125, abs=1e-5)
        assert summary["below_floor"] == "False"
        assert len(csv_rows(out)) == 8

    def test_weak_value_objective(self, capsys):
        code, out = run_cli(
            capsys,
            "optimize", "--objective", "weak-value", "--n", "2", "--dim", "2",
            "--restarts", "8", "--seed", "7", "--budget", "8000",
        )
        assert code == 0
        best = min(float(row["converged_value"]) for row in csv_rows(out))
        assert best == pytest.approx(-0.125, abs=1e-5)

    @pytest.mark.parametrize(
        "objective,best,floor", [("pointer-product", -0.125, -0.125), ("weak-value", -0.25, -1.0)]
    )
    def test_summary_compares_with_the_objectives_floor(self, capsys, objective, best, floor):
        # At n = 3 the weak value reaches -cos^4(pi/4) = -1/4: below the
        # pointer product's -1/8, and above its own floor -1.
        code, out = run_cli(
            capsys, "--format", "json", "optimize", "--objective", objective, "--n", "3", "--restarts", "8",
            "--seed", "1",
        )
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["best_value"] == pytest.approx(best, abs=1e-9)
        assert summary["floor"] == floor
        assert summary["below_floor"] is False

    def test_restarts_over_memory_limit_exit_code(self, capsys, monkeypatch):
        def untouched(*args):
            raise AssertionError("search spawned seeds before checking its memory bound")

        # Without the bound, 10^8 restarts would first spawn 10^8 seed sequences.
        monkeypatch.setattr(np.random, "SeedSequence", untouched)
        code, out = run_cli(capsys, "optimize", "--n", "2", "--restarts", str(10**8), "--budget", "10")
        assert code == 2
        assert out == ""


class TestSampleCommand:
    def test_mean_within_four_stderr(self, capsys):
        code, out = run_cli(
            capsys,
            "sample", "illustrative", "--sigma1", "5", "--shots", "20000", "--seed", "1",
        )
        assert code == 0
        row = value_of(csv_rows(out), "mean_position_product")
        gap = abs(float(row["sample_mean"]) - float(row["exact"]))
        assert gap < 4.0 * float(row["stderr"])

    def test_reports_are_byte_identical(self, capsys):
        _, first = run_cli(capsys, "sample", "illustrative", "--shots", "2000", "--seed", "3")
        _, second = run_cli(capsys, "sample", "illustrative", "--shots", "2000", "--seed", "3")
        assert first == second

    def test_identity_chain_only_under_post_selection(self, capsys, monkeypatch, write_scenario):
        # Without an effect the sampler keeps every shot and runs no chain;
        # with one, it runs the identity chain for Tr(eta). Either way the
        # exact column is one pass.
        chains, passes = [], []
        original_chain, original_pass = simulator._chain, cli.position_moments
        monkeypatch.setattr(simulator, "_chain", lambda *args: chains.append(args) or original_chain(*args))
        monkeypatch.setattr(cli, "position_moments", lambda *args: passes.append(args) or original_pass(*args))
        code, _ = run_cli(capsys, "sample", "chain-n", "--n", "4", "--shots", "500", "--seed", "2")
        assert code == 0
        assert (len(chains), len(passes)) == (0, 1)
        post = dataclasses.replace(wl.build_projector_chain(4, 1.0), post=np.diag([1.0, 0.0]))
        code, _ = run_cli(capsys, "sample", str(write_scenario(post)), "--shots", "500", "--seed", "2")
        assert code == 0
        assert (len(chains), len(passes)) == (1, 2)

    def test_json_writes_null_where_csv_writes_nan(self, capsys, write_scenario):
        # One kept shot has no standard error. JSON has no NaN, so a strict
        # parser must read null there; CSV keeps nan.
        scn = wl.Scenario(
            initial=wl.KET_0,
            steps=[
                wl.MeasurementStep(np.diag([1.0, 0.0]), wl.GaussianPointer(1.0)),
                wl.MeasurementStep(wl.SIGMA_X, wl.GaussianPointer(1.0)),
            ],
            post=np.full((2, 2), 0.5),
        )
        path = str(write_scenario(scn, "post.json"))

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        code, out = run_cli(capsys, "--format", "json", "sample", path, "--shots", "1", "--seed", "3")
        assert code == 0
        assert_json_dumps_bytes(out)
        rows = json.loads(out, parse_constant=refuse)["results"]
        assert [row["stderr"] for row in rows] == [None] * 3
        assert all(math.isfinite(row["sample_mean"]) for row in rows)
        code, out = run_cli(capsys, "sample", path, "--shots", "1", "--seed", "3")
        assert code == 0
        assert [row["stderr"] for row in csv_rows(out)] == ["nan"] * 3

    def test_reading_whose_square_overflows_exits_1_without_a_warning(self, write_scenario):
        # A process of its own, so numpy's warnings reach stderr as a user
        # sees them, not as the errors that the test settings make of them.
        illustrative = wl.build_illustrative(1.0, 1.0)
        observables = [*illustrative.observables, illustrative.observables[0]]
        path = write_scenario(wl.Scenario(illustrative.initial, observables, [1.3e154, 0.5, 0.5]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                                                          env.get("PYTHONPATH")]))
        argv = ["sample", str(path), "--shots", "40000", "--seed", "2"]
        done = subprocess.run(
            [sys.executable, "-m", "weaklab.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout) == (1, "")
        # The readings stay finite; their product's statistics overflow.
        assert done.stderr == (
            "numeric failure: sample statistics of mean_position_product overflow; the pointer widths are too wide\n"
        )

    def test_shots_over_memory_limit_exit_code(self, capsys):
        code, out = run_cli(capsys, "sample", "illustrative", "--shots", str(10**12), "--seed", "1")
        assert code == 2
        assert out == ""

    def test_oversized_run_exits_before_the_exact_column(self, capsys, monkeypatch):
        def untouched(*args, **kwargs):
            raise AssertionError("sample ran the exact column before refusing the sampler's footprint")

        monkeypatch.setattr(cli, "position_moments", untouched)
        code = main(["sample", "chain-n", "--n", "20000", "--shots", "20000"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert re.fullmatch(r"input error: 20000 shots need about [\d.]+ GiB, over the 2 GiB limit\n", captured.err)

    @pytest.mark.parametrize("from_file", [False, True])
    @pytest.mark.parametrize("counts", [("--shots", "0"), ("--shots", "-4"), ("--seed", "-1")])
    def test_bad_counts_exit_before_engine_work(self, capsys, monkeypatch, write_scenario, from_file, counts):
        def untouched(*args, **kwargs):
            raise AssertionError("sample started engine work before checking --shots and --seed")

        monkeypatch.setattr(cli, "position_moments", untouched)
        monkeypatch.setattr(cli, "sample_outcomes", untouched)
        source = [str(write_scenario(wl.build_projector_chain(6, 1.0)))] if from_file else ["chain-n", "--n", "6"]
        code = main(["sample", *source, "--shots", "10", *counts])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {counts[0]} must be at least ")


SWEEP_ARGS = ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "2", "--pattern", "xx")


class TestCountArguments:
    """Every count the CLI or the library refuses, worded by one rule:
    a CLI flag names itself, and a library parameter, met through the CLI
    or called directly, names the parameter."""

    @pytest.mark.parametrize(
        "call,message",
        [
            ((*SWEEP_ARGS, "--steps", "-1"), "--steps must be at least 1, got -1"),
            ((*SWEEP_ARGS, "--steps", "0"), "--steps must be at least 1, got 0"),
            ((*SWEEP_ARGS, "--steps", str(SWEEP_MAX_POINTS + 1)),
             f"--steps must be at most {SWEEP_MAX_POINTS}, got {SWEEP_MAX_POINTS + 1}"),
            (("scenario", "chain-n", "--n", "0"), "--n must be at least 1, got 0"),
            (("simulate", "chain-n", "--n", str(CHAIN_MAX_STEPS + 1), "--pattern", "x"),
             f"--n must be at most {CHAIN_MAX_STEPS}, got {CHAIN_MAX_STEPS + 1}"),
            (("sample", "illustrative", "--shots", "0"), "--shots must be at least 1, got 0"),
            (("sample", "illustrative", "--shots", "10", "--seed", "-1"), "--seed must be at least 0, got -1"),
            (("bounds", "--trials", "0"), "--trials must be at least 1, got 0"),
            (("bounds", "--trials", "-5"), "--trials must be at least 1, got -5"),
            (("bounds", "--trials", "5", "--seed", "-1"), "--seed must be at least 0, got -1"),
            (("optimize", "--n", "1"), "n must be at least 2, got 1"),
            (("optimize", "--n", "2", "--dim", "1"), "d must be at least 2, got 1"),
            (("optimize", "--n", "2", "--restarts", "0"), "restarts must be at least 1, got 0"),
            (("optimize", "--n", "2", "--restarts", "1", "--budget", "0"), "budget must be at least 1, got 0"),
            (("optimize", "--n", "2", "--restarts", "1", "--budget", "-3"), "budget must be at least 1, got -3"),
            (("optimize", "--objective", "weak-value", "--n", "2", "--seed", "-1", "--restarts", "2", "--budget", "10"),
             "seed must be at least 0, got -1"),
            (lambda: wl.minimize_pointer_product(n=1, d=2, restarts=1, seed=0, budget=1), "n must be at least 2, got 1"),
            (lambda: wl.minimize_weak_value_real(n=2, d=0, restarts=1, seed=0, budget=1), "d must be at least 2, got 0"),
            (lambda: wl.minimize_pointer_product(n=2, d=2, restarts=0, seed=0, budget=1, sigma=1.0),
             "restarts must be at least 1, got 0"),
            (lambda: wl.minimize_weak_value_real(n=2, d=2, restarts=1, seed=0, budget=0), "budget must be at least 1, got 0"),
            (lambda: wl.minimize_pointer_product(n=2, d=2, restarts=1, seed=-2, budget=1), "seed must be at least 0, got -2"),
            (lambda: wl.sample_outcomes(wl.build_illustrative(1.0, 1.0), 0, seed=0), "shots must be at least 1, got 0"),
            (lambda: wl.sample_outcomes(wl.build_illustrative(1.0, 1.0), 1, seed=-1), "seed must be at least 0, got -1"),
            (lambda: wl.build_projector_chain(0, 1.0), "n must be at least 1, got 0"),
        ],
    )
    def test_count_refusal(self, capsys, call, message):
        if callable(call):
            with pytest.raises(InputError) as excinfo:
                call()
            assert str(excinfo.value) == message
        else:
            code = main(list(call))
            captured = capsys.readouterr()
            assert code == 2
            assert (captured.out, captured.err) == ("", f"input error: {message}\n")


def per_trial_bounds(trials, seed):
    """The bound suites one validated instance at a time: the projector-pair
    and magnitude loops through the qm constructors, a plain-loop ordered
    trace and an eigh-based norm product, then the common-cause hull loop.
    Returns {suite: (trials, worst, violations)}."""
    rng = np.random.default_rng(seed)
    worst_pair, pair_violations = math.inf, 0
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        psi = random_ket(rng, d)
        pair = [wl.projector_from_ket(random_ket(rng, d)) for _ in range(2)]
        value = ordered_trace(wl.projector_from_ket(psi), pair).real
        worst_pair = min(worst_pair, value)
        pair_violations += value < cli.PROJECTOR_PAIR_FLOOR - 1e-12
    worst_excess, magnitude_violations = -math.inf, 0
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        rho = random_density(rng, d)
        seq = [random_observable(rng, d) for _ in range(n)]
        excess = abs(ordered_trace(rho, seq)) - norm_product_bound(seq)
        worst_excess = max(worst_excess, excess)
        magnitude_violations += excess > 1e-12
    worst_low, worst_high, hull_violations = math.inf, -math.inf, 0
    hull_trials = max(1, trials // 10)
    for _ in range(hull_trials):
        shared = random_ket(rng, 4)
        scn = wl.build_common_cause(
            shared,
            wl.projector_from_ket(random_ket(rng, 2)),
            wl.projector_from_ket(random_ket(rng, 2)),
            sigma1=float(rng.uniform(0.5, 5.0)),
            sigma2=float(rng.uniform(0.5, 5.0)),
        )
        value = wl.exact_moment(scn, wl.MomentPattern.all_position(2)).value
        worst_low, worst_high = min(worst_low, value), max(worst_high, value)
        hull_violations += wl.causal_witness(value, (0.0, 1.0), margin=1e-9) is not wl.CausalStructure.INCONCLUSIVE
    return {
        "projector_pair_floor": (trials, worst_pair, pair_violations),
        "magnitude_vs_norm_product": (trials, worst_excess, magnitude_violations),
        "common_cause_hull": (hull_trials, min(worst_low, 1.0 - worst_high), hull_violations),
    }


def bounds_report(trials, seed):
    """{suite: (trials, worst, violations)} as ``bounds`` reports it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["--format", "json", "bounds", "--trials", str(trials), "--seed", str(seed)]) == 0
    rows = json.loads(out.getvalue())["results"]
    return {row["suite"]: (row["trials"], row["worst"], row["violations"]) for row in rows}


def assert_same_report(trials, seed):
    report, oracle = bounds_report(trials, seed), per_trial_bounds(trials, seed)
    assert report.keys() == oracle.keys()
    for suite, (count, worst, violations) in oracle.items():
        assert report[suite][0] == count, suite
        assert report[suite][2] == violations, suite
        assert report[suite][1] == pytest.approx(worst, rel=0.0, abs=1e-12), suite
    return report


class TestBoundsCommand:
    def test_no_violations(self, capsys):
        code, out = run_cli(capsys, "bounds", "--trials", "400", "--seed", "1")
        assert code == 0
        rows = csv_rows(out)
        assert {row["suite"] for row in rows} == {
            "projector_pair_floor",
            "magnitude_vs_norm_product",
            "common_cause_hull",
        }
        assert all(int(row["violations"]) == 0 for row in rows)
        floor_row = [r for r in rows if r["suite"] == "projector_pair_floor"][0]
        assert float(floor_row["worst"]) >= -0.125 - 1e-12


class TestBoundsAgainstPerTrialLoop:
    """The chunked stacks report what one validated instance at a time does."""

    @pytest.mark.parametrize("seed", range(5))
    def test_seeds(self, seed):
        assert_same_report(300, seed)

    @pytest.mark.parametrize(
        "trials",
        [
            1,
            2,
            BOUNDS_CHUNK - 1,
            BOUNDS_CHUNK,
            BOUNDS_CHUNK + 1,
            # hull trials one below, at and one above the hull suite's chunk
            10 * (BOUNDS_CHUNK // 10 - 1),
            10 * (BOUNDS_CHUNK // 10),
            10 * (BOUNDS_CHUNK // 10 + 1),
        ],
    )
    def test_chunk_edges(self, trials):
        assert_same_report(trials, 17)

    @pytest.mark.parametrize("hull_trials", [1, BOUNDS_CHUNK // 10 - 1, BOUNDS_CHUNK // 10, BOUNDS_CHUNK // 10 + 1])
    def test_hull_runs_every_trial_once_in_chunks(self, monkeypatch, hull_trials):
        chunks, original = [], cli.stacked_exact_moments

        def counting(initial, *args):
            chunks.append(len(initial))
            return original(initial, *args)

        monkeypatch.setattr(cli, "stacked_exact_moments", counting)
        assert bounds_report(10 * hull_trials, 5)["common_cause_hull"][0] == hull_trials
        assert sum(chunks) == hull_trials
        assert max(chunks) <= BOUNDS_CHUNK // 10

    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 60))
    @settings(derandomize=True, deadline=None, max_examples=40)
    def test_any_seed_and_count(self, seed, trials):
        assert_same_report(trials, seed)

    def test_comparison_sees_violations(self, monkeypatch):
        # A floor above the attainable -1/8 is violated; both sides must
        # count the same violations, so the comparison can fail.
        monkeypatch.setattr(cli, "PROJECTOR_PAIR_FLOOR", -0.05)
        report = assert_same_report(400, 3)
        assert report["projector_pair_floor"][2] > 0

    def test_memory_is_flat_in_trials(self):
        def peak(trials):
            bounds_report(5, 0)  # load everything a first call loads
            tracemalloc.start()
            try:
                bounds_report(trials, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        assert large <= small + 256 * 1024, (small, large)


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ("scenario", "illustrative", "--sigma", "inf"),
            ("scenario", "illustrative", "--sigma1", "nan"),
            ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "inf", "--steps", "3",
             "--pattern", "xx"),
            ("simulate", "illustrative", "--pattern", "xX", "--sigma", "1e200"),
            ("sample", "illustrative", "--sigma", "1e200", "--shots", "100"),
            # a width whose square underflows to 0
            ("simulate", "illustrative", "--pattern", "xx", "--sigma", "1e-200"),
            ("simulate", "pauli-xy", "--pattern", "px", "--sigma", "1e-200"),
            ("scenario", "illustrative", "--sigma", "1e-200"),
        ],
    )
    def test_non_finite_width_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", [("simulate", "--pattern", "xx"), ("sample", "--shots", "10")])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "place,field",
        [
            (lambda doc, z: doc.update(initial=[[z, 0.0], [0.0, 0.0]]), "initial"),
            (lambda doc, z: doc.update(initial=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [z, 0.0]]]), "initial"),
            (lambda doc, z: doc["steps"][0]["observable"][0].__setitem__(0, [z, 0.0]), "steps[0].observable"),
            (lambda doc, z: doc.update(postselect=[[[z, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]), "postselect"),
        ],
    )
    def test_non_finite_file_entry_exit_code(self, capsys, write_scenario, command, bad, place, field):
        # json writes these as NaN and Infinity, which json.loads reads back.
        path = write_scenario(wl.build_illustrative(1.0, 1.0))
        doc = json.loads(path.read_text())
        place(doc, bad)
        path.write_text(json.dumps(doc))
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"input error: {field}: ")
        assert "has a non-finite entry" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "illustrative", "--pattern", "xp", "--sigma", "1e-160"),
            ("simulate", "pauli-xy", "--pattern", "px", "--method", "weak", "--sigma", "1e-160"),
            ("sample", "illustrative", "--sigma", "1e154", "--shots", "100"),
        ],
    )
    def test_non_finite_moment_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("cause", ["width", "eigenvalue"])
    def test_non_finite_chain_names_both_causes(self, capsys, write_scenario, cause):
        # A subnormal sigma^2 overflows the momentum table; eigenvalues of
        # +-1e308 overflow the position table's products at sigma = 1.
        if cause == "width":
            argv = ["simulate", "pauli-xy", "--pattern", "px", "--sigma", "1e-160"]
        else:
            huge = np.diag([1e308, -1e308])
            scn = wl.Scenario(initial=wl.KET_0, steps=(wl.MeasurementStep(huge, wl.GaussianPointer(1.0)),) * 2)
            argv = ["simulate", str(write_scenario(scn)), "--pattern", "xx"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert (captured.out, captured.err) == (
            "",
            "numeric failure: moment chain is not finite; a pointer width or an eigenvalue is too extreme "
            "for floating point\n",
        )

    def test_misspelled_field_exit_code(self, capsys, write_scenario):
        # A misspelled post-selection key must not run the scenario unselected.
        path = write_scenario(wl.build_illustrative(1.0, 1.0))
        doc = json.loads(path.read_text())
        doc["post_select"] = doc.pop("postselect")
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--pattern", "xx"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == (
            "",
            "input error: top level: unknown field 'post_select'; expected dimension, initial, steps, postselect\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # sigma^2 is subnormal, so 1/sigma^2 and 1/sigma^4 overflow
            ("simulate", "pauli-xy", "--pattern", "px", "--sigma", "1e-160"),
            ("simulate", "pauli-xy", "--pattern", "PX", "--sigma", "1e-80"),
            ("simulate", "pauli-xy", "--pattern", "px", "--sigma", repr(NARROWEST)),
            # at the wide end the sampled products overflow their statistics
            ("sample", "illustrative", "--sigma", "1e150", "--shots", "50"),
            ("sample", "chain-n", "--n", "4", "--sigma", "1e150", "--shots", "50"),
            # one shot has no standard error, but its product still overflows
            ("sample", "chain-n", "--n", "4", "--sigma", "1e150", "--shots", "1"),
        ],
    )
    def test_width_squared_underflow_fails_cleanly(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("numeric failure: ")

    @pytest.mark.parametrize(
        "argv,key,column",
        [
            (("simulate", "illustrative", "--pattern", "xx", "--sigma", "1e-160"), "moment", "value"),
            (("sample", "illustrative", "--sigma", "1e-160", "--shots", "100"), "mean_position_product", "exact"),
            (("sweep", "illustrative", "--param", "sigma1", "--from", "1e-160", "--to", "1", "--steps", "3",
              "--pattern", "xx"), "1e-160", "exact"),
            # the recovery row a_k ov reads no sigma^2, so it is finite here too
            (("scenario", "illustrative", "--sigma1", "1e-160"), "exact_all_position_moment", "value"),
            (("scenario", "illustrative", "--sigma1", "1e-160"), "recovered_from_exact_re", "value"),
        ],
    )
    def test_narrow_width_prints_no_warning(self, capsys, argv, key, column):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("# elapsed ")
        # the overlap of so narrow a first pointer is exp(-inf) = 0, so x1*x2 reads 1/16
        row = next(row for row in csv_rows(captured.out) if next(iter(row.values())) == key)
        assert float(row[column]) == pytest.approx(1.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("edge,outward", [(NARROWEST, 0.0), (WIDEST, math.inf)], ids=["narrowest", "widest"])
    def test_width_rule_at_both_float_edges(self, capsys, write_scenario, edge, outward):
        # A built-in's width flag, a file's width and a sweep's grid accept
        # the edge and refuse the next double outward with the rule's message.
        refused = math.nextafter(edge, outward)
        path = write_scenario(wl.build_illustrative(1.0, 1.0))
        doc = json.loads(path.read_text())
        for sigma, want in ((edge, 0), (refused, 2)):
            doc["steps"][0]["sigma"] = sigma
            path.write_text(json.dumps(doc))
            for argv in (
                ("scenario", "illustrative", "--sigma1", repr(sigma)),
                ("simulate", str(path), "--pattern", "xx"),
                ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", repr(sigma), "--steps", "2",
                 "--pattern", "xx"),
            ):
                code = main(list(argv))
                captured = capsys.readouterr()
                assert code == want, argv
                if want:
                    assert captured.out == "" and captured.err.startswith("input error: ")
                    assert captured.err.endswith(f"{WIDTH_RULE}, got {refused!r}\n")

    def test_narrowest_width_recovers_the_imaginary_unit(self, capsys):
        code, out = run_cli(capsys, "scenario", "pauli-xy", "--sigma1", repr(NARROWEST))
        assert code == 0
        assert float(value_of(csv_rows(out), "recovered_from_weak_im")["value"]) == 1.0


class TestUnreadFlags:
    """A width or length flag that the run would not read is refused."""

    SWEEP = ("--from", "1", "--to", "2", "--steps", "2", "--pattern", "xx")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("simulate", "FILE", "--pattern", "xx", "--sigma1", "0.3"), "--sigma1"),
            (("simulate", "FILE", "--pattern", "xx", "--sigma", "2"), "--sigma"),
            (("sample", "FILE", "--shots", "10", "--sigma2", "2"), "--sigma2"),
            (("sweep", "FILE", "--param", "sigma1", *SWEEP, "--n", "3"), "--n"),
            (("scenario", "chain-n", "--n", "3", "--sigma1", "0.2"), "--sigma1"),
            (("simulate", "chain-n", "--pattern", "xx", "--sigma2", "0.2"), "--sigma2"),
            (("scenario", "illustrative", "--n", "5"), "--n"),
            (("simulate", "pauli-xy", "--pattern", "xx", "--n", "3"), "--n"),
            (("sample", "common-cause", "--shots", "10", "--n", "3"), "--n"),
            (("sweep", "illustrative", "--param", "sigma1", *SWEEP, "--sigma1", "0.3"), "--sigma1"),
            (("sweep", "pauli-xy", "--param", "sigma2", *SWEEP, "--sigma2", "0.3"), "--sigma2"),
        ],
    )
    def test_unread_flag_exit_code(self, capsys, write_scenario, argv, flag):
        path = write_scenario(wl.build_illustrative(1.0, 1.0), "illustrative.json")
        code = main([str(path) if arg == "FILE" else arg for arg in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: {flag} ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "illustrative", "--param", "sigma1", *SWEEP, "--sigma2", "0.3"),
            ("sweep", "chain-n", "--param", "sigma1", *SWEEP, "--n", "2", "--sigma", "0.5"),
            ("scenario", "chain-n", "--n", "3", "--sigma", "0.5"),
        ],
    )
    def test_read_flags_accepted(self, capsys, argv):
        code, _ = run_cli(capsys, *argv)
        assert code == 0
