"""Benchmark registry, run configuration, persistence and orchestration.

A run is described by a :class:`RunConfig` (benchmark, sampler mode, chain
count, iteration budget, seed, and optional overrides of the tuned
hyperparameters).  The command helpers mirror the CLI subcommands:

* :func:`cmd_tune` runs the burn-in and writes the tuning report,
* :func:`cmd_sample` runs seeded chains (in process or in a forked pool) and
  persists samples and records (``.npy`` by default, CSV as the text
  export) and a manifest with timings, gradient counts and environment,
* :func:`cmd_diagnose` computes convergence/efficiency metrics,
* :func:`cmd_compare` builds relative-efficiency tables for two runs,
* :func:`cmd_sensitivity` perturbs the lower end of the dimensionless step
  interval and re-runs the pipeline,
* :func:`cmd_sweep_phi_l` runs the full factorial of refresh-noise and
  trajectory-length rules,
* :func:`cmd_analyze_integrators` emits integrator accuracy/stability data
  tables.

Reproducibility: every chain draws from a private Philox stream keyed by
(seed, chain index), so identical manifests give bit-identical chain files
regardless of worker count.  Manifests carry a hash of the canonical config
serialization.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import sys
import time
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from . import integrators
from .diagnostics import (
    ESS_METHODS,
    PSRF_STATISTICS,
    ChainSet,
    DiagnosticsReport,
    diagnose,
    ref_metric,
)
from .integrators import H_COLSI3, H_LOWER, SCHEME_NAMES, build_scheme, scheme_key
from .models import (
    DatasetError,
    TargetModel,
    banana_model,
    blr_model,
    gaussian_model,
    gen_wishart_precision,
    load_dataset,
    make_banana_spec,
    make_synthetic_blr,
    sample_gaussian,
)
from .saia import MAP_H_MIN, default_map
from .samplers import (
    ChainRecords,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    chain_rng,
    check_rule,
    run_chains,
)
from .tuning import TuningReport, atune, config_from_report

__all__ = [
    "ConfigError",
    "RunConfig",
    "RunArtifacts",
    "resolve_benchmark",
    "cmd_tune",
    "cmd_sample",
    "cmd_diagnose",
    "cmd_compare",
    "cmd_sensitivity",
    "cmd_sweep_phi_l",
    "cmd_analyze_integrators",
    "parse_rule",
    "load_chain_set",
]

_OUTPUT_ROOT_ENV = "GHMCTUNE_OUTPUT_ROOT"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Benchmark run description; every field maps to a CLI flag.

    Overrides replace the corresponding tuned setting, at most one per
    quantity; leaving them unset keeps the values from the tuning report.
    ``integrator`` names a fixed scheme (``SCHEME_NAMES``), stored folded by
    ``scheme_key``; one of fewer than three stages needs a step override.
    None or "saia3" is the tuned adaptive one, stored as None.
    """

    benchmark: str
    mode: str = "ghmc"
    n_chains: int = 4
    n_burnin: int = 1000
    n_prod: int = 2000
    seed: int = 0
    out_dir: Optional[str] = None
    dataset_path: Optional[str] = None
    # overrides
    integrator: Optional[str] = None
    dt_fixed: Optional[float] = None
    dt_interval: Optional[tuple] = None
    l_fixed: Optional[int] = None
    l_range: Optional[tuple] = None
    l_choices: Optional[tuple] = None
    phi_fixed: Optional[float] = None
    phi_interval: Optional[tuple] = None
    # knobs
    ar_target: float = 0.95
    h_lower: float = H_LOWER
    prior_std: float = 10.0
    binary_chains: bool = True  # .npy chains and records; False writes CSV
    psrf_statistic: str = "max"
    psrf_threshold: float = 1.01
    window: Optional[int] = None
    ess_method: str = "geyer"
    warm_start: bool = False

    def __post_init__(self):
        if self.n_prod < 1 or self.n_chains < 1:
            raise ConfigError("n_prod and n_chains must be at least 1")
        if self.n_burnin < 100:
            raise ConfigError(f"n_burnin={self.n_burnin}: the burn-in needs at "
                              "least 100 iterations")
        if not 0.0 < self.ar_target < 1.0:
            raise ConfigError(f"ar_target={self.ar_target}: must lie in (0, 1)")
        # below the s-AIA3 map's first node the burn-in would leave the table
        if not MAP_H_MIN <= self.h_lower < H_COLSI3:
            raise ConfigError(f"h_lower={self.h_lower}: must lie in "
                              f"[{MAP_H_MIN:g}, {H_COLSI3:g})")
        if self.mode not in ("hmc", "ghmc"):
            raise ConfigError("mode must be 'hmc' or 'ghmc'")
        if self.mode == "hmc" and (self.phi_fixed not in (None, 1.0)
                                   or self.phi_interval is not None):
            raise ConfigError("phi overrides are forbidden in HMC mode")
        if self.benchmark.startswith("blr-file") and not self.dataset_path:
            raise ConfigError("blr-file benchmark requires dataset_path")
        if self.warm_start and not re.fullmatch(r"gauss-\d+", self.benchmark):
            raise ConfigError("warm_start draws exact initial points and is "
                              "only available for gauss-<D> benchmarks")
        if self.integrator is not None:
            known = SCHEME_NAMES + ("saia3",)
            key = scheme_key(self.integrator)
            if key not in known:
                raise ConfigError(f"unknown integrator '{self.integrator}'; "
                                  f"known: {', '.join(known)}")
            object.__setattr__(self, "integrator", None if key == "saia3" else key)
        if self.psrf_statistic not in PSRF_STATISTICS:
            raise ConfigError(f"psrf_statistic '{self.psrf_statistic}' is not "
                              f"one of {', '.join(PSRF_STATISTICS)}")
        if self.ess_method not in ESS_METHODS:
            raise ConfigError(f"ess_method '{self.ess_method}' is not one of "
                              f"{', '.join(ESS_METHODS)}")
        if not (math.isfinite(self.psrf_threshold) and self.psrf_threshold > 1.0):
            raise ConfigError(f"psrf_threshold={self.psrf_threshold}: must be "
                              "finite and above 1")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"window={self.window}: must be at least 1")
        for tpl_field in ("dt_interval", "l_range", "l_choices", "phi_interval"):
            val = getattr(self, tpl_field)
            if val is not None:
                object.__setattr__(self, tpl_field, tuple(val))
        for name in ("n_chains", "n_burnin", "n_prod", "seed", "window",
                     "l_fixed", "l_range", "l_choices"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.seed < 0:  # it keys every random stream of the run
            raise ConfigError(f"seed={self.seed}: must be non-negative")
        rules = _override_rules(self)  # range-check the overrides before any output
        # the tuned step interval is set for three-stage schemes
        if (self.integrator is not None and "dt" not in rules
                and build_scheme(self.integrator).stages < 3):
            raise ConfigError(f"integrator '{self.integrator}' has fewer than "
                              "three stages: give dt_fixed or dt_interval")

    def to_dict(self) -> dict:
        return {key: list(val) if isinstance(val, tuple) else val
                for key, val in asdict(self).items()}

    def hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def resolved_out_dir(self) -> Path:
        if self.out_dir:
            return Path(self.out_dir)
        root = os.environ.get(_OUTPUT_ROOT_ENV, "runs")
        return Path(root) / f"{self.benchmark}-{self.mode}-seed{self.seed}"


def _whole(name: str, value):
    """``value``, a number or a tuple of numbers, as ints.

    Counts, the seed and trajectory lengths are whole numbers (the kernel
    would truncate a trajectory length such as 2.5), so anything else, a
    string included, is a ConfigError naming ``name``.
    """
    values = value if isinstance(value, tuple) else (value,)
    try:
        ints = tuple(int(v) for v in values)
        if ints == values:
            return ints if isinstance(value, tuple) else ints[0]
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}={value!r}: each value must be a whole number")


def resolve_benchmark(config: RunConfig) -> TargetModel:
    """Build the target model named by ``config.benchmark``.

    Registered names: ``gauss-<D>`` (precision drawn from Wishart(I_D, D)
    with the run seed), ``blr-synthetic-<D>-<K>``, ``blr-file`` (reads
    ``dataset_path``), ``banana``.  Settings a model constructor rejects
    (``gauss-0``, a non-positive ``prior_std``) are a ConfigError; a
    malformed dataset stays a DatasetError.
    """
    name = config.benchmark
    try:
        m = re.fullmatch(r"gauss-(\d+)", name)
        if m:
            d = int(m.group(1))
            spec = gen_wishart_precision(d, seed=config.seed)
            return gaussian_model(spec, name=name)
        m = re.fullmatch(r"blr-synthetic-(\d+)-(\d+)", name)
        if m or name == "blr-file":
            data = (make_synthetic_blr(int(m.group(1)), int(m.group(2)), seed=config.seed)
                    if m else load_dataset(config.dataset_path))
            return blr_model(data.standardized(), prior_std=config.prior_std, name=name)
        if name == "banana":
            return banana_model(make_banana_spec(seed=config.seed), name=name)
    except DatasetError:
        raise
    except ValueError as exc:
        raise ConfigError(f"benchmark '{name}': {exc}") from None
    raise ConfigError(
        f"unknown benchmark '{name}'; expected gauss-<D>, "
        "blr-synthetic-<D>-<K>, blr-file or banana"
    )


@dataclass
class RunArtifacts:
    out_dir: Path
    manifest: dict
    chain_paths: list


# ---------------------------------------------------------------------------
# Persistence

_CHAIN_HEADER = "# ghmctune chain samples"
_RECORD_FIELDS = ("accepted", "delta_h", "n_steps", "dt", "phi",
                  "grad_evals", "divergent")
_RECORD_DTYPE = np.dtype([(name, getattr(ChainRecords.empty(0), name).dtype)
                          for name in _RECORD_FIELDS])


def _write_chain(path: Path, samples: np.ndarray, binary: bool) -> Path:
    """Write one (n, D) chain as ``.npy`` or, as the text export, as CSV."""
    if binary:
        path = path.with_suffix(".npy")
        np.save(path, samples, allow_pickle=False)
        return path
    path = path.with_suffix(".csv")
    with open(path, "w") as fh:
        fh.write(f"{_CHAIN_HEADER}\n")
        for row in samples:
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    return path


def _read_chain(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        return np.load(path, allow_pickle=False)
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


def _write_records(path: Path, rec: ChainRecords, binary: bool) -> Path:
    """Write one chain's records as a structured ``.npy`` array or as CSV."""
    if binary:
        path = path.with_suffix(".npy")
        table = np.empty(len(rec), dtype=_RECORD_DTYPE)
        for name in _RECORD_FIELDS:
            table[name] = getattr(rec, name)
        np.save(path, table, allow_pickle=False)
        return path
    path = path.with_suffix(".csv")
    with open(path, "w") as fh:
        fh.write(",".join(_RECORD_FIELDS) + "\n")
        for i in range(len(rec)):
            fh.write(f"{int(rec.accepted[i])},{float(rec.delta_h[i])!r},"
                     f"{rec.n_steps[i]},{float(rec.dt[i])!r},{float(rec.phi[i])!r},"
                     f"{rec.grad_evals[i]},{int(rec.divergent[i])}\n")
    return path


def _read_records(path: Path) -> ChainRecords:
    if path.suffix == ".npy":
        table = np.load(path, allow_pickle=False)
    else:
        table = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
    return ChainRecords(**{
        name: np.ascontiguousarray(table[name], dtype=_RECORD_DTYPE[name])
        for name in _RECORD_FIELDS})


def load_chain_set(out_dir: str | Path) -> ChainSet:
    """Reassemble a ChainSet from a sample run directory."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    chains = [_read_chain(out_dir / p) for p in manifest["chain_files"]]
    records = [_read_records(out_dir / p) for p in manifest["record_files"]]
    return ChainSet(np.stack(chains), records, stages=manifest["stages"])


# ---------------------------------------------------------------------------
# Sampler-config assembly and chains


# Draw rule of each override field, keyed by the quantity it draws.
_OVERRIDE_RULES = {
    "dt_fixed": ("dt", Fixed),
    "dt_interval": ("dt", lambda v: UniformInterval(*v)),
    "l_fixed": ("l", Fixed),
    "l_range": ("l", lambda v: DiscreteSet(range(v[0], v[1] + 1))),
    "l_choices": ("l", DiscreteSet),
    "phi_fixed": ("phi", Fixed),
    "phi_interval": ("phi", lambda v: UniformInterval(*v)),
}


def _override_rules(config: RunConfig) -> dict:
    """Checked draw rules of the set overrides, one per "dt", "l" or "phi"."""
    rules, given = {}, {}
    for name, (quantity, build) in _OVERRIDE_RULES.items():
        value = getattr(config, name)
        if value is None:
            continue
        if quantity in given:
            raise ConfigError(f"give at most one of {given[quantity]}, {name}")
        given[quantity] = name
        try:
            rules[quantity] = build(value)
            check_rule(quantity, rules[quantity])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}={value!r}: {exc}") from exc
    return rules


def _build_sampler_config(config: RunConfig,
                          report: Optional[TuningReport]) -> SamplerConfig:
    """The tuned settings with the overrides of ``config`` on top.

    ``cmd_sample`` tunes whenever the overrides leave the step size or the
    scheme to a report, so without a report both are overridden.  A step
    override for the tuned scheme must keep cf * dt on the s-AIA3 map.
    """
    rules = {f"{quantity}_rule": rule
             for quantity, rule in _override_rules(config).items()}
    if config.mode == "hmc":
        rules["phi_rule"] = Fixed(1.0)
    elif "phi_rule" not in rules and (report is None or report.mode != "ghmc"):
        # an HMC report's phi = 1 is no GHMC rule
        raise ConfigError("GHMC needs a phi rule: tune in GHMC mode or override phi")
    if config.integrator is not None:
        rules["scheme"] = build_scheme(config.integrator)
    if report is None:
        return SamplerConfig(**{"l_rule": Fixed(1), **rules}, seed=config.seed)
    sampler_config = replace(config_from_report(report), **rules, seed=config.seed)
    if "dt_rule" in rules:
        rule = rules["dt_rule"]
        name = "dt_fixed" if config.dt_fixed is not None else "dt_interval"
        for dt in ((rule.value,) if isinstance(rule, Fixed)
                   else (rule.lower, rule.upper)):
            try:
                sampler_config.scheme.step_coefficients(dt)
            except integrators.OutOfStabilityError as exc:
                raise ConfigError(f"{name}={getattr(config, name)!r}: {exc}") from exc
    return sampler_config


def _warm_starts(config: RunConfig) -> list:
    """Exact target draws used as warm starts, one per chain (gauss only).

    Chain c's draw is keyed by (seed, 10000 + c) so warm starts never
    collide with the chain streams themselves.
    """
    d = int(re.fullmatch(r"gauss-(\d+)", config.benchmark).group(1))
    spec = gen_wishart_precision(d, seed=config.seed)
    return [sample_gaussian(spec, 1, chain_rng(config.seed, 10_000 + c))[0]
            for c in range(config.n_chains)]


def _pool_context(workers: int):
    """None for chains in process, else the ``fork`` context of their pool.

    Its workers inherit the resolved model, whose closures cannot be pickled.
    """
    if workers < 1:
        raise ConfigError(f"workers={workers}: must be at least 1")
    if workers == 1:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigError("more than one worker needs the 'fork' start method")
    return multiprocessing.get_context("fork")


# The run a pool worker samples: (model, sampler config, chain length, start
# point per chain).  Empty in this process; the pool's initializer appends the
# run to each forked worker's copy.
_pool_run: list = []


def _chains(indices: list, run: Optional[tuple] = None) -> list:
    """Chains ``indices`` of ``run`` in lock-step (default: the worker's run)."""
    model, sampler_config, n_prod, starts = run or _pool_run[0]
    # looked up at call time, so a wrapper on ghmctune.bench.run_chains sees it
    return run_chains(model, sampler_config, n_prod,
                      [starts[i] for i in indices], indices)


# ---------------------------------------------------------------------------
# Commands


def cmd_tune(config: RunConfig, out_dir: Optional[Path] = None) -> TuningReport:
    """Run the burn-in and analysis, write tuning_report.json, return it."""
    return _tune(config, resolve_benchmark(config), out_dir)


def _tune(config: RunConfig, model: TargetModel,
          out_dir: Optional[Path]) -> TuningReport:
    t0 = time.perf_counter()
    report, _ = atune(
        model,
        mode=config.mode,
        n_burnin=config.n_burnin,
        target_ar=config.ar_target,
        seed=config.seed,
        h_lower=config.h_lower,
    )
    elapsed = time.perf_counter() - t0
    out = Path(out_dir) if out_dir else config.resolved_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / "tuning_report.json").write_text(report.to_json())
    (out / "tuning_timing.json").write_text(
        json.dumps({"burnin_seconds": elapsed}, sort_keys=True))
    return report


def cmd_sample(config: RunConfig, report: Optional[TuningReport] = None,
               workers: int = 1) -> RunArtifacts:
    """Run the production chains and persist samples, records and manifest.

    One model, sampler configuration and set of start points, resolved
    before any output, serve inline tuning and every chain.  Tunes inline
    when no report is supplied and the overrides leave the step size or the
    scheme to one.  The chains run in lock-step (``run_chains``): all of
    them in this process, or with ``workers`` > 1 one contiguous group per
    worker of a forked pool that inherits the run; results do not depend
    on the worker count.
    """
    return _sample(config, resolve_benchmark(config), report, workers)


def _sample(config: RunConfig, model: TargetModel,
            report: Optional[TuningReport], workers: int) -> RunArtifacts:
    pool_context = _pool_context(workers)
    out = config.resolved_out_dir()
    tuned_inline = report is None and (
        config.dt_fixed is None and config.dt_interval is None
        or config.integrator is None)
    if tuned_inline:
        report = _tune(config, model, out)
    elif report is not None and report.dimension != model.dimension:
        raise ConfigError(f"the tuning report is for dimension {report.dimension}, "
                          f"{config.benchmark} has dimension {model.dimension}")
    # without inline tuning, an invalid run is rejected before its directory exists
    sampler_config = _build_sampler_config(config, report)
    starts = (_warm_starts(config) if config.warm_start
              else [None] * config.n_chains)
    run = (model, sampler_config, config.n_prod, starts)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    if pool_context is None:
        results = _chains(list(range(config.n_chains)), run)
    else:
        # one contiguous group of chains per worker; row-wise model calls
        # make the chains independent of the grouping
        n_groups = min(workers, config.n_chains)
        bounds = [config.n_chains * g // n_groups for g in range(n_groups + 1)]
        groups = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        with pool_context.Pool(n_groups, initializer=_pool_run.append,
                               initargs=(run,)) as pool:
            results = [chain for group in pool.map(_chains, groups)
                       for chain in group]
    sampling_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    chains_dir = out / "chains"
    chains_dir.mkdir(exist_ok=True)
    chain_files, record_files = [], []
    for index, (samples, records) in enumerate(results):
        cpath = _write_chain(chains_dir / f"chain_{index:03d}",
                             samples, config.binary_chains)
        rpath = _write_records(chains_dir / f"records_{index:03d}",
                               records, config.binary_chains)
        chain_files.append(str(cpath.relative_to(out)))
        record_files.append(str(rpath.relative_to(out)))
    write_seconds = time.perf_counter() - t0
    total_grads = sum(records.total_grads() for _, records in results)

    manifest = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "package": "ghmctune 0.1.0",
        "chain_seeds": [[config.seed, i] for i in range(config.n_chains)],
        "stages": sampler_config.scheme.stages,
        "chain_files": chain_files,
        "record_files": record_files,
        "tuning_report": "tuning_report.json" if tuned_inline else None,
        "timings": {"sampling_seconds": sampling_seconds,
                    "write_seconds": write_seconds},
        "total_grads": total_grads,
        "grads_per_second": total_grads / sampling_seconds,
        "environment": _environment(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return RunArtifacts(out, manifest, chain_files)


def _environment() -> dict:
    """Library versions and thread settings that a run's timings depend on."""
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in _THREAD_VARS},
    }


def cmd_diagnose(out_dir: str | Path, statistic: Optional[str] = None,
                 threshold: Optional[float] = None,
                 window: Optional[int] = None,
                 ess_method: Optional[str] = None) -> DiagnosticsReport:
    """Compute and persist diagnostics for a finished sample run.

    Arguments left as None keep the run configuration's settings; the others
    are checked like ``RunConfig`` fields before any chain is read.
    """
    out_dir = Path(out_dir)
    if not (out_dir / "manifest.json").exists():
        raise FileNotFoundError(f"no manifest in {out_dir}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    overrides = {"psrf_statistic": statistic, "psrf_threshold": threshold,
                 "window": window, "ess_method": ess_method}
    names = {f.name for f in fields(RunConfig)}  # older manifests hold dropped ones
    config = replace(RunConfig(**{k: v for k, v in manifest["config"].items()
                                  if k in names}),
                     **{k: v for k, v in overrides.items() if v is not None})
    chain_set = load_chain_set(out_dir)
    report = diagnose(
        chain_set,
        threshold=config.psrf_threshold,
        statistic=config.psrf_statistic,
        window=config.window,
        ess_method=config.ess_method,
        wall_seconds=manifest.get("timings", {}).get("sampling_seconds"),
    )
    (out_dir / "diagnostics.json").write_text(report.to_json())
    report.write_tables(out_dir / "tables")
    return report


def cmd_compare(dir_a: str | Path, dir_b: str | Path,
                overhead_factor_b: float = 1.0,
                time_normalized: bool = False) -> dict:
    """Relative efficiency of run A over run B per ESS flavour.

    REF > 1 means A needed fewer gradients (or less time) per effective
    sample.  ``overhead_factor_b`` scales B's metrics to account for
    tuning-stage overheads measured outside the sampling loop; it must be
    positive, and is checked before either run is read.
    """
    if not overhead_factor_b > 0:
        raise ConfigError(f"overhead_factor_b={overhead_factor_b}: must be positive")
    table = {}
    rep_a = _load_or_diagnose(dir_a)
    rep_b = _load_or_diagnose(dir_b)
    for flavour in ("min", "mean", "multi"):
        key = f"grad_per_{flavour}_ess"
        ma, mb = getattr(rep_a, key), getattr(rep_b, key)
        if ma is None or mb is None:
            table[f"ref_{flavour}_ess"] = None
            continue
        table[f"ref_{flavour}_ess"] = ref_metric(ma, mb * overhead_factor_b)
    if time_normalized and rep_a.wall_seconds and rep_b.wall_seconds:
        for flavour in ("min", "mean", "multi"):
            ea, eb = getattr(rep_a, f"ess_{flavour}"), getattr(rep_b, f"ess_{flavour}")
            if ea is None or eb is None:
                continue
            ma = rep_a.wall_seconds / ea
            mb = rep_b.wall_seconds / eb * overhead_factor_b
            table[f"ref_{flavour}_ess_per_time"] = ref_metric(ma, mb)
    return table


def _load_or_diagnose(out_dir: str | Path) -> DiagnosticsReport:
    out_dir = Path(out_dir)
    path = out_dir / "diagnostics.json"
    if path.exists():
        return DiagnosticsReport.from_json(path.read_text())
    return cmd_diagnose(out_dir)


_GRAD_PER_ESS = ("grad_per_min_ess", "grad_per_mean_ess", "grad_per_multi_ess")


def cmd_sensitivity(config: RunConfig, deltas: Sequence[float] = (-0.05, 0.0, 0.05),
                    workers: int = 1) -> list[dict]:
    """Re-run tune/sample/diagnose with the interval lower endpoint perturbed.

    Each delta scales the canonical lower endpoint; the emitted rows carry
    the grad/ESS triple per perturbation.
    """
    base_out = config.resolved_out_dir()
    # every perturbed endpoint is checked before the first run
    subs = [replace(config, h_lower=config.h_lower * (1.0 + delta),
                    out_dir=str(base_out / f"hlower{delta:+.3f}"))
            for delta in deltas]
    model = resolve_benchmark(config)  # h_lower does not change the model
    rows = []
    for delta, sub in zip(deltas, subs):
        _sample(sub, model, None, workers)
        rep = cmd_diagnose(sub.resolved_out_dir())
        rows.append({"delta": delta, "h_lower": sub.h_lower,
                     **{k: getattr(rep, k) for k in (*_GRAD_PER_ESS, "n_conv")}})
    _write_dict_rows(base_out / "sensitivity.csv", rows)
    return rows


def cmd_sweep_phi_l(config: RunConfig, phi_rules: Sequence[str],
                    l_rules: Sequence[str], workers: int = 1) -> list[dict]:
    """Full factorial sweep over refresh-noise and trajectory-length rules.

    Rules are descriptors like ``fixed:1``, ``uniform:0,0.5``,
    ``range:1,66`` or ``choice:2,5,7``; "tuned" keeps the tuned setting.
    """
    if not phi_rules or not l_rules:
        raise ConfigError("rule lists must be nonempty")
    _pool_context(workers)  # a bad worker count or rule fails before tuning
    base_out = config.resolved_out_dir()
    cells = [(phi_desc, l_desc,
              replace(config, out_dir=str(base_out / f"cell_phi{pi}_l{li}"),
                      **_phi_override(phi_desc), **_l_override(l_desc)))
             for pi, phi_desc in enumerate(phi_rules)
             for li, l_desc in enumerate(l_rules)]
    model = resolve_benchmark(config)  # the cells differ in overrides only
    report = _tune(config, model, base_out)
    rows = []
    for phi_desc, l_desc, sub in cells:
        _sample(sub, model, report, workers)
        rep = cmd_diagnose(sub.resolved_out_dir())
        rows.append({"phi_rule": phi_desc, "l_rule": l_desc, **{
            k: getattr(rep, k) for k in (*_GRAD_PER_ESS, "ess_min", "ess_mean",
                                         "ess_multi", "grad", "n_conv")}})
    _write_dict_rows(base_out / "sweep_phi_l.csv", rows)
    return rows


def _phi_override(desc: str) -> dict:
    if desc == "tuned":
        return {}
    kind, value = parse_rule(desc)
    if kind == "fixed":
        if value == 1.0:
            return {"mode": "hmc"}
        return {"phi_fixed": float(value)}
    if kind == "uniform":
        lo, hi = value
        return {"phi_interval": (max(lo, 1e-12), hi)}
    raise ConfigError(f"phi rule '{desc}' must be fixed or uniform")


def _l_override(desc: str) -> dict:
    if desc == "tuned":
        return {}
    kind, value = parse_rule(desc)
    field_of = {"fixed": "l_fixed", "range": "l_range", "choice": "l_choices"}
    if kind not in field_of:
        raise ConfigError(f"L rule '{desc}' must be fixed, range or choice")
    return {field_of[kind]: value}  # RunConfig checks for whole numbers


def parse_rule(desc: str):
    """Parse a rule descriptor: kind:args with args comma-separated numbers."""
    try:
        kind, _, args = desc.partition(":")
        values = [float(v) for v in args.split(",")] if args else []
    except ValueError:
        raise ConfigError(f"cannot parse rule descriptor '{desc}'")
    if kind == "fixed" and len(values) == 1:
        return "fixed", values[0]
    if kind == "uniform" and len(values) == 2:
        return "uniform", (values[0], values[1])
    if kind == "range" and len(values) == 2:
        return "range", (values[0], values[1])
    if kind == "choice" and values:
        return "choice", tuple(values)
    raise ConfigError(f"cannot parse rule descriptor '{desc}'")


def cmd_analyze_integrators(out_dir: str | Path,
                            schemes: Sequence[str] = SCHEME_NAMES,
                            n_grid: int = 200) -> dict:
    """Emit integrator accuracy and stability tables as plot-ready data.

    Writes one-step expected energy error curves over each scheme's
    stability interval, the three-stage bound rho3 along representative
    kick coefficients, stability limits, and the adaptive-coefficient map.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary: dict = {"stability": {}, "schemes": list(schemes)}
    with open(out_dir / "energy_error_vs_h.csv", "w") as fh:
        fh.write("scheme,h,one_step_error,bound\n")
        for name in schemes:
            scheme = build_scheme(name)
            h_max = integrators.stability_interval(scheme)[1]
            summary["stability"][name] = h_max
            for h in np.linspace(h_max / n_grid, h_max * 0.999, n_grid):
                err = integrators.energy_error_one_step(scheme, h)
                try:
                    bound = integrators.energy_error_bound(scheme, h)
                except integrators.OutOfStabilityError:
                    bound = float("inf")
                fh.write(f"{name},{float(h)!r},{float(err)!r},{float(bound)!r}\n")
    with open(out_dir / "rho3_vs_h.csv", "w") as fh:
        fh.write("label,b,h,rho3\n")
        labels = {"bcss3": integrators.B_BCSS3,
                  "me3": integrators.B_ME3,
                  "vv3": 1.0 / 6.0}
        for label, b in labels.items():
            for h in np.linspace(0.02, 4.5, n_grid):
                try:
                    val = integrators.rho3(h, b)
                except integrators.OutOfStabilityError:
                    continue
                fh.write(f"{label},{b!r},{float(h)!r},{val!r}\n")
    saia = default_map()
    saia.save(out_dir / "saia3_map.txt")
    summary["h_lower_root"] = integrators.find_h_lower()
    summary["vv_ratio_roots_2"] = integrators.vv_ratio_roots(2)
    summary["vv_ratio_roots_3"] = integrators.vv_ratio_roots(3)
    (out_dir / "analysis.json").write_text(json.dumps(summary, sort_keys=True, indent=1))
    return summary


def _write_dict_rows(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        for row in rows:
            writer.writerow([repr(float(row[k])) if isinstance(row[k], float)
                             else str(row[k]) for k in keys])
