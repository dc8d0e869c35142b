"""The kept mutant list in ``tests/mutants.py`` still applies to the
source: each mutant's snippet occurs exactly once in its file, so a
refactor that moves or duplicates one fails here, not only in the
mutant runner, which is too slow for every test run; and the runner
refuses a name that selects no mutant before it runs any test."""

from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "weaklab"


def test_mutant_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_snippet_occurs_once(mutant):
    text = (PACKAGE / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


def test_name_that_matches_no_mutant_is_refused_before_pytest(monkeypatch, capsys):
    def untouched(*args):
        raise AssertionError("the runner started pytest for a name that matches no mutant")

    monkeypatch.setattr(mutants, "run_tests", untouched)
    monkeypatch.setattr(mutants.subprocess, "run", untouched)
    assert mutants.main(["conj", "no-such-mutant"]) == 2
    assert capsys.readouterr().out == "no mutant name contains 'no-such-mutant'\n"
