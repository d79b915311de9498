"""Every name a module exports resolves, so removals leave no stale entry."""

import importlib
import pkgutil

import pytest

import hozog

# the package itself and every module under it that declares __all__
MODULES = ["hozog"] + [
    info.name
    for info in pkgutil.walk_packages(hozog.__path__, "hozog.")
    if hasattr(importlib.import_module(info.name), "__all__")
]


def test_every_module_with_an_all_is_checked():
    assert {"hozog.problems.hyperclean", "hozog.harness.cli", "hozog.zo_core"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
