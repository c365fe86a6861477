"""One fresh-process set-up of ghmctune, timed by run.py as ``setup_s``.

Imports the package from the given source directory, resolves the workload's
benchmark model and loads the s-AIA3 coefficient map, which it builds and
saves first because ``GHMCTUNE_CACHE`` points at an empty directory.  Then
prints one JSON line with the wall-clock time at which it was ready.

Usage: python3 setup_probe.py <src dir> <benchmark name or -> <seed>
"""

import json
import sys
import time

src, benchmark, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
sys.path.insert(0, src)

import ghmctune  # noqa: E402
from ghmctune.bench import RunConfig, resolve_benchmark  # noqa: E402
from ghmctune.saia import default_map  # noqa: E402

if benchmark != "-":
    resolve_benchmark(RunConfig(benchmark=benchmark, seed=seed))
default_map()
print(json.dumps({"ready_at": time.time(), "module": ghmctune.__file__}))
