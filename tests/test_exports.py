"""Every name a ghmctune module exports in ``__all__`` exists, and importing
the package loads none of ``scipy.fft``, ``scipy.linalg`` and
``scipy.optimize``."""

import ast
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


SCIPY_SUBMODULES = ("scipy.fft", "scipy.linalg", "scipy.optimize")


def _scipy_submodules_loaded(code: str) -> list[str]:
    """The SCIPY_SUBMODULES in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code += f"\nimport sys; print(sorted(set({SCIPY_SUBMODULES!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize is imported only inside find_h_lower and
    # stability_interval, scipy.linalg inside sample_gaussian; the ESS
    # autocovariance uses numpy.fft
    assert _scipy_submodules_loaded("import ghmctune, ghmctune.bench, ghmctune.cli") == []


def test_diagnose_leaves_out_scipy_fft():
    code = """
import numpy as np
from ghmctune.diagnostics import ChainSet, diagnose
from ghmctune.samplers import ChainRecords
records = [ChainRecords.empty(3000) for _ in range(4)]
for rec in records:
    rec.accepted[:] = True
    rec.n_steps[:] = 1
    rec.grad_evals[:] = 1
samples = np.random.default_rng(11).standard_normal((4, 3000, 2))
assert diagnose(ChainSet(samples, records), window=1000).ess_mean > 0
"""
    assert "scipy.fft" not in _scipy_submodules_loaded(code)
