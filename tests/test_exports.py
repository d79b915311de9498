"""Every name a package exports resolves, so removals leave no stale entry."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["hozog", "hozog.harness", "hozog.problems"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
