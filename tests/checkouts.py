"""Source trees of commits, read without touching the repository.

``tests/differential.py`` and ``tests/perf_record.py`` both compare the
program at two commits, or at a commit and the working tree; this module
gives them the one way to name such a tree and to get its ``src/``.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commit(spec: str) -> str | None:
    """The full hash of the commit ``spec`` names; None for "worktree"."""
    if spec == "worktree":
        return None
    done = subprocess.run(
        ["git", "rev-parse", "--verify", spec + "^{commit}"], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def tree(spec: str, into: Path) -> Path:
    """The ``src`` directory of ``spec``: the working tree's for
    "worktree", else a copy of the commit's from ``git archive``, which
    leaves the repository's metadata as it is."""
    if spec == "worktree":
        return ROOT / "src"
    archive = subprocess.run(["git", "archive", "--format=tar", spec, "src"], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"
