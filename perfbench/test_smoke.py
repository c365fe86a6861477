"""Smoke test of the benchmark: every workload once, untraced and traced.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q

``--seconds 0`` makes each run a single repetition (one untraced and one
traced with ``--trace 1``), so the whole test takes about two minutes on two
cores.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Traced self times of all layers over the traced repetition's wall time.
# The outermost spans enclose the whole repetition, so only the benchmark's
# own glue between them is missing.
SELF_SHARE_BAND = (0.9, 1.0)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, "\n".join(table)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    text = "\n".join(table)
    for name, unit in expected.items():
        assert re.search(rf"^{workload}\s+{re.escape(name)}\s+{re.escape(unit)}\s+median=",
                         text, re.M), name
    if trace:
        lo, hi = SELF_SHARE_BAND
        assert lo <= result["metrics"]["trace.self_share"]["value"] <= hi


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("gauss100-ghmc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
