"""Every name a ghmctune module exports in ``__all__`` exists, and importing
the package leaves ``scipy.optimize`` unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def _loads_scipy_optimize(imports: str) -> bool:
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; import {imports}; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip() == "True"


def test_import_leaves_out_scipy_optimize():
    # only find_h_lower and stability_interval import it, when called
    if _loads_scipy_optimize("scipy.linalg, scipy.fft"):
        pytest.skip("this scipy loads scipy.optimize with scipy.linalg or scipy.fft")
    assert not _loads_scipy_optimize("ghmctune, ghmctune.bench, ghmctune.cli")
