"""Every name a ghmctune module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ghmctune

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(ghmctune.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry breaks ``from ghmctune.<module> import *``
    module = importlib.import_module(f"ghmctune.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
