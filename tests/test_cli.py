import csv
import io
import json
import math
import warnings

import numpy as np
import pytest

import weaklab as wl
from weaklab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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

    @pytest.mark.parametrize("sigma,ok", [("0.5", "False"), ("100", "True")])
    def test_weak_regime_row(self, capsys, sigma, ok):
        code, out = run_cli(capsys, "scenario", "illustrative", "--sigma", sigma)
        assert code == 0
        assert value_of(csv_rows(out), "weak_regime_ok")["value"] == ok


class TestSimulateCommand:
    def test_illustrative_file_exact(self, capsys, tmp_path):
        path = tmp_path / "illustrative.json"
        wl.save_scenario(wl.build_illustrative(1.0, 1.0), path)
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "xx", "--method", "exact")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx((1.0 - 3.0 * math.exp(-0.125)) / 16.0, abs=1e-12)

    def test_leading_position_is_expectation(self, capsys, tmp_path):
        path = tmp_path / "pauli.json"
        wl.save_scenario(wl.build_pauli_xy(1.3, 2.4), path)
        code, out = run_cli(capsys, "simulate", str(path), "--pattern", "xi", "--method", "exact")
        assert code == 0
        got = float(value_of(csv_rows(out), "moment")["value"])
        assert got == pytest.approx(0.0, abs=1e-12)  # Tr(sigma_y |0><0|) = 0

    def test_pauli_weak_momentum_readout(self, capsys, tmp_path):
        path = tmp_path / "pauli.json"
        wl.save_scenario(wl.build_pauli_xy(2.0, 1.0), path)
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

    def test_numeric_failure_exit_code(self, capsys, tmp_path):
        scn = wl.Scenario(
            initial=wl.KET_0.to_density(),
            steps=(wl.MeasurementStep(wl.SIGMA_Z, wl.GaussianPointer(1.0)),),
            post=wl.PovmElement(np.diag([0.0, 1.0])),
        )
        path = tmp_path / "orthogonal.json"
        wl.save_scenario(scn, path)
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

    def test_shots_over_memory_limit_exit_code(self, capsys):
        code, out = run_cli(capsys, "sample", "illustrative", "--shots", str(10**12), "--seed", "1")
        assert code == 2
        assert out == ""


class TestCountArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "2", "--steps", "-1",
             "--pattern", "xx"),
            ("sweep", "illustrative", "--param", "sigma1", "--from", "1", "--to", "2", "--steps", "0",
             "--pattern", "xx"),
            ("optimize", "--n", "2", "--restarts", "1", "--budget", "0"),
            ("optimize", "--n", "2", "--restarts", "1", "--budget", "-3"),
            ("bounds", "--trials", "0"),
            ("bounds", "--trials", "-5"),
        ],
    )
    def test_count_below_one_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


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
        ],
    )
    def test_non_finite_width_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "illustrative", "--pattern", "xx", "--sigma", "1e-300"),
            ("simulate", "pauli-xy", "--pattern", "px", "--method", "weak", "--sigma", "1e-300"),
            ("sample", "illustrative", "--sigma", "1e-300", "--shots", "100"),
        ],
    )
    def test_non_finite_moment_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "illustrative", "--pattern", "xx", "--sigma", "1e-200"),
            ("simulate", "pauli-xy", "--pattern", "px", "--sigma", "1e-200"),
            ("scenario", "illustrative", "--sigma", "1e-200"),
            # sigma^2 is subnormal, so 1/sigma^2 and 1/sigma^4 overflow
            ("simulate", "pauli-xy", "--pattern", "px", "--sigma", "1e-160"),
            ("simulate", "pauli-xy", "--pattern", "PX", "--sigma", "1e-80"),
            ("scenario", "illustrative", "--sigma", "1e-160"),
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
    def test_unread_flag_exit_code(self, capsys, tmp_path, argv, flag):
        path = tmp_path / "illustrative.json"
        wl.save_scenario(wl.build_illustrative(1.0, 1.0), path)
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
