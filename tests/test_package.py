"""The public surface: every name in ``weaklab.__all__`` exists, once."""

import weaklab as wl


def test_star_import_binds_every_entry():
    # A stale entry naming a deleted function makes the import itself raise.
    namespace = {}
    exec("from weaklab import *", namespace)
    assert set(wl.__all__) <= namespace.keys()


def test_all_has_no_duplicates():
    assert len(wl.__all__) == len(set(wl.__all__))
