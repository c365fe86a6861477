"""Benchmark of the ghmctune tune -> sample -> persist -> diagnose pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload gauss100-ghmc --seed 1 --seconds 20 --trace 0

The pipeline runs in this process through the package's public entry points
(``cmd_tune``, ``cmd_sample``, ``cmd_diagnose``; ``ghmctune.diagnose`` for the
diagnostics-only workload), with BLAS threads pinned to 1, one chain worker,
and a private coefficient cache and output root under ``perfbench/.work``.
Each repetition runs identical inputs, made from ``--seed``; repetitions start
until ``--seconds`` have passed and every timing is reported as the median
over them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics, which come
from spans installed around the package's callables by ``spans.py``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit, median, high percentile and sample count, the checks,
and the environment.  README.md in this directory says why each workload
exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Optional  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# ---------------------------------------------------------------------------
# Workloads


@dataclasses.dataclass(frozen=True)
class Workload:
    tune: dict = dataclasses.field(default_factory=dict)    # RunConfig fields for cmd_tune
    sample: dict = dataclasses.field(default_factory=dict)  # fields cmd_sample changes

    @property
    def benchmark(self) -> Optional[str]:
        """Model resolved during set-up; None for the in-memory AR(1) chains."""
        return self.tune.get("benchmark")


# The GHMC workloads sample with L = 1.  The tuner also picks L = 1 unless
# its fitting factor reaches 1.5, which happens for about one seed in ten
# (ROADMAP item 4) and would make the per-seed cost bimodal; the tuned rule
# is still recorded as tuning.l_mean.
# On gauss-100 the PSRF scan reaches 1.1 on some seeds and not on others, and
# the ESS that follows convergence nearly doubles the cost of diagnose.  A
# window as long as the production run keeps that cost the same on every seed:
# the PSRF scan runs, ESS does not (blr25-ghmc and diag-ar1-d500 time it).
GAUSS_GHMC = dict(benchmark="gauss-100", mode="ghmc", n_chains=4,
                  n_burnin=1000, n_prod=2000, window=2000, warm_start=True,
                  l_fixed=1, psrf_threshold=1.1, ess_method="geyer")

WORKLOADS = {
    "gauss100-ghmc": Workload(GAUSS_GHMC),
    "gauss100-hmc": Workload(GAUSS_GHMC, dict(
        mode="hmc", l_fixed=None, l_range=(1, 66), n_prod=500, window=500)),
    "blr25-ghmc": Workload(dict(
        benchmark="blr-synthetic-25-1000", mode="ghmc", n_chains=4,
        n_burnin=1000, n_prod=1500, l_fixed=1, binary_chains=True,
        psrf_threshold=1.1, ess_method="geyer", window=500)),
    "diag-ar1-d500": Workload(),
}

# diag-ar1-d500: C chains of N iterations, D independent AR(1) coordinates
# with coefficients spread evenly over [0, RHO_MAX].
AR1_SHAPE = (4, 6000, 500)
AR1_RHO_MAX = 0.95
AR1_WINDOW = 4500
AR1_THRESHOLD = 1.1
ESS_METHODS = ("geyer", "ar")

# Check tolerances.  Gaussian moments must lie within Z_MAX standard errors of
# their exact values; ESS estimates of the AR(1) chains must match their
# closed form within the given ratio bands.
Z_MAX = 5.0
ACCEPTANCE_BAND = (0.8, 0.999)
ESS_MEAN_BAND = (0.9, 1.1)
ESS_MIN_BAND = (0.5, 1.5)

# Metric names and units, and the reason for each workload, live in the
# BENCHMARK.json at the root of the checkout.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}  # --trace 0
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}    # --trace 1
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


# ---------------------------------------------------------------------------
# Run state


class Ops:
    """Operations attempted and failed; every command call and check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def call(self, label: str, fn: Callable, *args, **kwargs):
        """Run one package call; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - any exception is a failed operation
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
            raise OperationFailed(label)

    def check(self, label: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.lines.append(f"check {label}: {'ok' if ok else 'FAILED'} ({detail})")


class OperationFailed(RuntimeError):
    pass


def import_package():
    """Import ghmctune from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import ghmctune
    import ghmctune.bench  # noqa: F401
    if not Path(ghmctune.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ghmctune imported from {ghmctune.__file__}, "
                          f"not from {SRC}")
    return ghmctune


# ---------------------------------------------------------------------------
# Set-up


def measure_setup(workload: Workload, seed: int, work: Path, ops: Ops,
                  repeats: int) -> tuple[list[float], Path]:
    """Time fresh-process set-ups against empty caches; return a filled cache."""
    times, caches = [], []
    for i in range(repeats):
        cache = work / f"cache-{i}"
        cache.mkdir()
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
               workload.benchmark or "-", str(seed)]
        start = time.time()  # the probe reports its ready time on this clock
        try:
            proc = subprocess.run(cmd, env=dict(os.environ, GHMCTUNE_CACHE=str(cache)),
                                  capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
            ready = json.loads(proc.stdout.splitlines()[-1])
            elapsed = ready["ready_at"] - start
            ok = (proc.returncode == 0 and any(cache.iterdir())
                  and Path(ready["module"]).resolve().is_relative_to(SRC.resolve()))
            detail = f"{elapsed:.3f} s"
        except (subprocess.TimeoutExpired, IndexError, KeyError,
                json.JSONDecodeError) as exc:
            ok, detail = False, f"no ready line: {exc!r}"
        ops.check(f"setup[{i}]", ok, detail)
        if ok:
            times.append(elapsed)
            caches.append(cache)
    if not caches:
        raise OperationFailed("set-up")
    return times, caches[0]


# ---------------------------------------------------------------------------
# One repetition of a workload


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class PipelineRunner:
    """tune -> sample -> diagnose through ghmctune.bench, one output dir per rep."""

    def __init__(self, gt, workload: Workload, seed: int, work: Path):
        self.gt = gt
        self.tune_config = gt.bench.RunConfig(**workload.tune, seed=seed)
        self.sample_config = gt.bench.RunConfig(
            **{**workload.tune, **workload.sample}, seed=seed)
        self.work = work
        self.count = 0

    def rep(self, ops: Ops) -> dict:
        bench = self.gt.bench  # looked up per call so traced wrappers apply
        out = self.work / f"rep-{self.count}"
        self.count += 1
        sample_cfg = dataclasses.replace(self.sample_config, out_dir=str(out))
        t0 = time.perf_counter()
        report = ops.call("cmd_tune", bench.cmd_tune, self.tune_config,
                          out_dir=out)
        t1 = time.perf_counter()
        ops.call("cmd_sample", bench.cmd_sample, sample_cfg, report=report,
                 workers=1)
        t2 = time.perf_counter()
        diag = ops.call("cmd_diagnose", bench.cmd_diagnose, out)
        t3 = time.perf_counter()
        return {"out": out, "report": report, "diag": diag,
                "sample_s": t2 - t1, "diagnose_s": t3 - t2,
                "pipeline_s": t3 - t0}


class DiagRunner:
    """ghmctune.diagnose with each ESS method on in-memory AR(1) chains."""

    def __init__(self, gt, seed: int):
        self.gt = gt
        c, n, d = AR1_SHAPE
        rng = np.random.default_rng(seed)
        self.rho = np.linspace(0.0, AR1_RHO_MAX, d)
        scale = np.sqrt(1.0 - self.rho ** 2)
        x = np.empty(AR1_SHAPE)
        x[:, 0] = rng.standard_normal((c, d))
        for t in range(1, n):
            x[:, t] = self.rho * x[:, t - 1] + scale * rng.standard_normal((c, d))
        self.chain_set = gt.ChainSet(x)

    def rep(self, ops: Ops) -> dict:
        reports = {}
        t0 = time.perf_counter()
        for method in ESS_METHODS:
            reports[method] = ops.call(
                f"diagnose[{method}]", self.gt.diagnose, self.chain_set,
                threshold=AR1_THRESHOLD, window=AR1_WINDOW, ess_method=method)
        elapsed = time.perf_counter() - t0
        return {"reports": reports, "diagnose_s": elapsed, "pipeline_s": elapsed}

    def ess_ratios(self, report) -> dict:
        """Reported ESS over the closed form, C n (1-rho)/(1+rho) per coordinate.

        The true multivariate ESS of independent coordinates is the same
        count times the geometric mean of (1-rho)/(1+rho).
        """
        if report.ess_mean is None:
            return {}
        count = AR1_SHAPE[0] * (report.n_conv + report.window)
        factor = (1.0 - self.rho) / (1.0 + self.rho)
        true = count * factor
        true_multi = count * math.exp(float(np.mean(np.log(factor))))
        return {"mean": report.ess_mean / float(true.mean()),
                "min": report.ess_min / float(true.min()),
                "multi": report.ess_multi / true_multi}


# ---------------------------------------------------------------------------
# Output checks


def check_pipeline(gt, runner: PipelineRunner, rep: dict, ops: Ops) -> int:
    """Check one repetition's outputs; return its production gradient count."""
    chain_set = ops.call("load_chain_set", gt.bench.load_chain_set, rep["out"])
    x = chain_set.samples
    c, n, d = x.shape
    config = runner.sample_config
    ops.check("samples.finite", bool(np.all(np.isfinite(x))),
              f"{c}x{n}x{d} samples")
    records = chain_set.records
    if config.benchmark.startswith("gauss-"):
        check_gauss_moments(gt, config, x, ops)
    else:
        per_dim, top = gt.diagnostics.psrf(x[:, n // 2:])
        ops.check("convergence", top < config.psrf_threshold,
                  f"max PSRF over the second half {top:.4f} < "
                  f"{config.psrf_threshold}")
        acc = float(np.mean([r.accepted.mean() for r in records]))
        lo, hi = ACCEPTANCE_BAND
        ops.check("acceptance", lo <= acc <= hi,
                  f"acceptance {acc:.4f} in [{lo}, {hi}]")
        divergent = int(sum(r.divergent.sum() for r in records))
        ops.check("divergences", divergent == 0,
                  f"{divergent} divergent production iterations")
    return chain_set.total_grads()


def check_gauss_moments(gt, config, x, ops: Ops) -> None:
    """Marginal means and the overall scale against the exact Gaussian.

    The chains start from exact draws, so every sample is an exact draw and
    the mean over C independent chains has variance at most sigma^2 / C,
    however slowly a chain mixes.  The checks hold the means, and the mean of
    the whitened energy theta' P theta / D (exactly 1 on average, variance
    2 / D per draw), to Z_MAX of those bounds.  Tolerances from the run's own
    MCSE (per-coordinate Geyer ESS) would fail GHMC runs of gauss-100 that
    pass both bounds, because their slowest modes barely move in the run;
    the largest MCSE z-score is printed with the check for comparison.
    """
    c, n, d = x.shape
    precision = gt.models.gen_wishart_precision(d, seed=config.seed).precision
    sd_true = np.sqrt(np.diag(np.linalg.inv(precision)))
    mean = x.mean(axis=(0, 1))
    z_mean = np.abs(mean) / (sd_true / math.sqrt(c))
    ess = np.array([sum(gt.diagnostics.ess_univariate(x[ch, :, j], "geyer")
                        for ch in range(c)) for j in range(d)])
    z_mcse = np.abs(mean) / (sd_true / np.sqrt(ess))
    ops.check("gauss.means", float(z_mean.max()) <= Z_MAX,
              f"max |mean| / (sigma/sqrt(C)) {z_mean.max():.3f} <= {Z_MAX} over "
              f"{d} coordinates; max |mean| / MCSE {z_mcse.max():.2f}")
    scale = float(np.einsum("cnd,de,cne->", x, precision, x)) / (c * n * d)
    z_scale = abs(scale - 1.0) / math.sqrt(2.0 / (d * c))
    ops.check("gauss.scale", z_scale <= Z_MAX,
              f"mean theta'P theta / D = {scale:.4f}, |z| {z_scale:.3f} <= {Z_MAX}")


def check_diag(runner: DiagRunner, rep: dict, ops: Ops) -> None:
    for method, report in rep["reports"].items():
        ratios = runner.ess_ratios(report)
        ops.check(f"ess[{method}].computed", bool(ratios),
                  f"n_conv {report.n_conv}, window {report.window}")
        if not ratios:
            continue
        for key, (lo, hi) in (("mean", ESS_MEAN_BAND), ("min", ESS_MIN_BAND)):
            ops.check(f"ess[{method}].{key}", lo <= ratios[key] <= hi,
                      f"{key} ESS / true {ratios[key]:.4f} in [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced repetition


def layer_metrics(tracer, wall: float, extra: dict) -> dict:
    sp = tracer.spans
    counts = tracer.counts

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    iters = counts["iterations"]
    steps = tracer.calls("integrators.apply_step")
    run_chain = sp.get("samplers.run_chain")
    run_chain_s = run_chain.total if run_chain else 0.0
    run_chain_models = run_chain.models if run_chain else 0.0
    burnin = tracer.total("tuning.run_burnin") - tracer.total("tuning.collect_frequencies")
    geyer = sp.get("diagnostics.ess_univariate.geyer")
    ar = sp.get("diagnostics.ess_univariate.ar")
    integrators_self = tracer.layer_self["integrators"]
    out = {
        "models.grad_calls": tracer.calls("models.gradient"),
        "models.potential_calls": tracer.calls("models.potential"),
        "models.hessian_calls": tracer.calls("models.hessian"),
        "models.grad_us": per(tracer.total("models.gradient"),
                              tracer.calls("models.gradient"), 1e6),
        "models.potential_us": per(tracer.total("models.potential"),
                                   tracer.calls("models.potential"), 1e6),
        "models.self_s": tracer.layer_self["models"],
        "samplers.iterations": iters,
        "samplers.grads_per_iter": per(counts["grads"], iters),
        "samplers.acceptance": per(counts["accepted"], iters),
        "samplers.divergent": counts["divergent"],
        "samplers.run_chain_s": run_chain_s,
        "samplers.overhead_us_per_iter": per(run_chain_s - run_chain_models,
                                             iters, 1e6),
        "integrators.overhead_us_per_step": per(integrators_self, steps, 1e6),
        "saia.scheme_at_calls": tracer.calls("saia.scheme_at"),
        "saia.scheme_at_us": per(tracer.total("saia.scheme_at"),
                                 tracer.calls("saia.scheme_at"), 1e6),
        "tuning.atune_s": tracer.total("tuning.atune"),
        "tuning.burnin_iters": counts["burnin_iters"],
        "tuning.burnin_iter_us": per(burnin, counts["burnin_iters"], 1e6),
        "tuning.frequencies_s": tracer.total("tuning.collect_frequencies"),
        "bench.write_s": sp["bench.cmd_sample"].own if "bench.cmd_sample" in sp else 0.0,
        "bench.read_s": tracer.total("bench.load_chain_set"),
        "diagnostics.psrf_calls": tracer.calls("diagnostics.psrf"),
        "diagnostics.psrf_s": tracer.total("diagnostics.psrf"),
        "diagnostics.ess_calls": (geyer.calls if geyer else 0) + (ar.calls if ar else 0),
        "diagnostics.ess_us_per_series.geyer": per(geyer.total, geyer.calls, 1e6) if geyer else 0.0,
        "diagnostics.ess_us_per_series.ar": per(ar.total, ar.calls, 1e6) if ar else 0.0,
        "diagnostics.multi_ess_s": tracer.total("diagnostics.multi_ess"),
        "trace.self_share": per(sum(tracer.layer_self.values()), wall),
    }
    out.update(extra)
    return out


def quality_metrics(rep: dict, runner) -> dict:
    """Deterministic outputs of a repetition: tuning and diagnostics results."""
    out = {}
    if isinstance(runner, DiagRunner):
        diag = rep["reports"]["geyer"]
        for method, report in rep["reports"].items():
            ratios = runner.ess_ratios(report)
            out[f"diagnostics.ess_mean_over_true.{method}"] = ratios.get("mean", 0.0)
            out[f"diagnostics.ess_min_over_true.{method}"] = ratios.get("min", 0.0)
        # multi_ess does not depend on the univariate ESS method
        out["diagnostics.multi_ess_over_true"] = runner.ess_ratios(diag).get("multi", 0.0)
    else:
        diag = rep["diag"]
        report = rep["report"]
        out["tuning.s_f"] = report.s_f
        out["tuning.cf"] = report.cf
        out["tuning.l_mean"] = report.l_rule().mean
        out["bench.write_bytes"] = dir_bytes(rep["out"] / "chains") + \
            (rep["out"] / "manifest.json").stat().st_size
        manifest = json.loads((rep["out"] / "manifest.json").read_text())
        out["bench.read_bytes"] = (rep["out"] / "manifest.json").stat().st_size + sum(
            (rep["out"] / p).stat().st_size
            for p in manifest["chain_files"] + manifest["record_files"])
    out["diagnostics.n_conv"] = diag.n_conv or 0
    out["diagnostics.max_psrf_final"] = diag.max_psrf_final
    out["diagnostics.ess_mean"] = diag.ess_mean or 0.0
    out["diagnostics.ess_multi"] = diag.ess_multi or 0.0
    out["diagnostics.grad_per_multi_ess"] = diag.grad_per_multi_ess or 0.0
    return out


# ---------------------------------------------------------------------------
# Summaries and environment


def high_percentile(values: list[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return 100.0 * (k + 1) / n, sorted(values)[k]


def summary_line(workload: str, name: str, unit: str, values: list[float]) -> str:
    median = statistics.median(values)
    hp = high_percentile(values)
    high = (f"p{hp[0]:.0f}={hp[1]:.6g}" if hp
            else "p_hi=n/a (needs 11+ samples)")
    return (f"{workload:15s} {name:38s} {unit:6s} median={median:.6g} "
            f"{high} n={len(values)}")


def environment() -> dict:
    import scipy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - build info layout differs across numpy versions
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Driver


def run(args, work: Path) -> dict:
    env_info = environment()
    name, workload = args.workload, WORKLOADS[args.workload]
    ops = Ops()
    gt = import_package()
    os.environ["GHMCTUNE_OUTPUT_ROOT"] = str(work / "runs")
    setup_times: list[float] = []
    layer_extra: dict = {}
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        layer_extra = traced_setup(gt, tracer, work)
    else:
        setup_times, cache = measure_setup(workload, args.seed, work, ops,
                                           SETUP_REPEATS)
        os.environ["GHMCTUNE_CACHE"] = str(cache)

    runner = (DiagRunner(gt, args.seed) if workload.benchmark is None
              else PipelineRunner(gt, workload, args.seed, work / "runs"))
    plain, traced, layer_reps, grads = measure(gt, runner, tracer, ops,
                                               args.seconds)

    lines = [f"env: {json.dumps(env_info, sort_keys=True)}",
             f"workload: {name}: {WHY[name]}; seed {args.seed}"]
    if tracer is not None and tracer.unmeasured:
        lines.append("unmeasured (missing in the package): "
                     + ", ".join(tracer.unmeasured))
    series = {"pipeline_s": [r["pipeline_s"] for r in plain],
              "diagnose_s": [r["diagnose_s"] for r in plain]}
    if "sample_s" in plain[0]:
        series["sample_s"] = [r["sample_s"] for r in plain]
        series["sample_grads_per_s"] = [grads / r["sample_s"] for r in plain]
    metrics = {}
    if tracer is None:
        series["setup_s"] = setup_times
        series["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        units = {**END_TO_END, **PER_LAYER}
        for metric, values in series.items():
            lines.append(summary_line(name, metric, units[metric], values))
        for metric, unit in END_TO_END.items():
            metrics[metric] = {"value": statistics.median(series[metric]), "unit": unit}
    else:
        merged = {metric: statistics.median(r[metric] for r in layer_reps)
                  for metric in layer_reps[0]}
        merged.update(layer_extra)
        for metric in ("diagnose_s", "sample_s", "sample_grads_per_s"):
            merged[metric] = statistics.median(series.get(metric, [0.0]))
        merged["trace.overhead"] = (statistics.median(r["pipeline_s"] for r in traced)
                                    / statistics.median(series["pipeline_s"]))
        for metric, unit in PER_LAYER.items():
            metrics[metric] = {"value": merged.get(metric, 0.0), "unit": unit}
            lines.append(f"{name:15s} {metric:38s} {unit:6s} "
                         f"median={metrics[metric]['value']:.6g} n={len(layer_reps)}")
    lines.append(f"operations: attempted={ops.attempted} failed={ops.failed}")
    lines.extend(ops.lines)
    print("\n".join(lines))
    return {"correct": ops.failed == 0, "attempted": ops.attempted,
            "failed": ops.failed, "metrics": metrics}


def measure(gt, runner, tracer, ops: Ops, seconds: float):
    """Start repetitions until ``seconds`` passed; traced ones alternate in.

    Checks run on the first repetition's outputs.  A failed package call
    ends the loop; it is fatal only before a repetition of each kind ran.
    """
    plain, traced, layer_reps = [], [], []
    grads = None
    start = time.perf_counter()
    try:
        while (not plain or time.perf_counter() - start < seconds
               or (tracer is not None and not traced)):
            use_trace = tracer is not None and len(traced) < len(plain)
            if use_trace:
                tracer.reset()
                with tracer:
                    t0 = time.perf_counter()
                    rep = runner.rep(ops)
                    wall = time.perf_counter() - t0
            else:
                rep = runner.rep(ops)
            if grads is None:  # every repetition runs identical inputs
                if isinstance(runner, DiagRunner):
                    check_diag(runner, rep, ops)
                    grads = 0
                else:
                    grads = check_pipeline(gt, runner, rep, ops)
            if use_trace:
                traced.append(rep)
                layer_reps.append(layer_metrics(tracer, wall,
                                                quality_metrics(rep, runner)))
            else:
                plain.append(rep)
            if "out" in rep:
                shutil.rmtree(rep["out"])
    except OperationFailed:
        if not plain or (tracer is not None and not traced):
            raise
    return plain, traced, layer_reps, grads


def traced_setup(gt, tracer, work: Path) -> dict:
    """Build the coefficient map into an empty cache, then load it, traced."""
    cache = work / "cache-traced"
    cache.mkdir()
    os.environ["GHMCTUNE_CACHE"] = str(cache)
    default_map = gt.saia.default_map
    if not hasattr(default_map, "cache_clear"):
        tracer.note_unmeasured("ghmctune.saia.default_map.cache_clear")
        return {}
    with tracer:
        default_map.cache_clear()
        default_map()
        build_s = tracer.total("saia.build_saia3_map")
        default_map.cache_clear()
        default_map()
        load_s = tracer.total("saia.load")
    tracer.reset()
    return {"saia.build_s": build_s, "saia.load_s": load_s}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repetitions start until this many seconds passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, work)
    except (ImportError, OperationFailed) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
