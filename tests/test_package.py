"""The public surface: every name in ``weaklab.__all__`` exists, once,
and importing the CLI pulls in no dependency beyond numpy."""

import os
import subprocess
import sys
from pathlib import Path

import weaklab as wl

SRC = Path(__file__).resolve().parent.parent / "src"


def test_star_import_binds_every_entry():
    # A stale entry naming a deleted function makes the import itself raise.
    namespace = {}
    exec("from weaklab import *", namespace)
    assert set(wl.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(wl.__all__) == len(set(wl.__all__))


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, weaklab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
