"""The package's export list."""

import dpplab


def test_all_is_unique_resolves_and_star_imports():
    names = dpplab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dpplab, name)] == []
    scope = {}
    exec("from dpplab import *", scope)
    assert set(names) <= set(scope)
