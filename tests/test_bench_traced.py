"""The benchmark's traced run on each workload, from a copy of the
checkout: every public function of the package wrapped and rebound, and
block 0's per-function call counts repeated on a replay. A timed run makes
neither check, so a change that breaks them passes every other test."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["moments", "sampling", "search"])
def test_traced_run_is_correct(tmp_path, workload):
    # The copy leaves the checkout's bench/.work as it is.
    for part in ("bench", "src"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "101", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), done.stdout
