"""Command-line interface.

Subcommands: tune, sample, diagnose, compare, sensitivity, sweep,
analyze-integrators.  Every RunConfig field has a flag; a JSON config file
passed with --config takes precedence over individual flags.  The default
output root comes from the GHMCTUNE_OUTPUT_ROOT environment variable.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ConfigError,
    RunConfig,
    cmd_analyze_integrators,
    cmd_compare,
    cmd_diagnose,
    cmd_sample,
    cmd_sensitivity,
    cmd_sweep_phi_l,
    cmd_tune,
)
from .diagnostics import DiagnosticsError
from .integrators import SCHEME_NAMES, OutOfStabilityError
from .models import DatasetError
from .tuning import TuningError, TuningReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_CONFIG_FIELDS = [
    ("--benchmark", str, "benchmark name: gauss-<D>, blr-synthetic-<D>-<K>, blr-file, banana"),
    ("--mode", str, "sampler mode: hmc or ghmc"),
    ("--n-chains", int, "number of chains"),
    ("--n-burnin", int, "burn-in iterations for tuning"),
    ("--n-prod", int, "production iterations per chain"),
    ("--seed", int, "root seed"),
    ("--out-dir", str, "output directory"),
    ("--dataset-path", str, "dataset file for blr-file"),
    ("--integrator", str, f"integrator override: {', '.join(SCHEME_NAMES)}; "
                          "saia3, the tuned adaptive scheme, is the default"),
    ("--dt-fixed", float, "fixed step size override"),
    ("--l-fixed", int, "fixed trajectory length"),
    ("--phi-fixed", float, "fixed refresh noise"),
    ("--ar-target", float, "burn-in target acceptance rate"),
    ("--h-lower", float, "lower endpoint of the dimensionless step interval"),
    ("--prior-std", float, "logistic regression prior standard deviation"),
    ("--psrf-statistic", str, "convergence statistic: max or avg"),
    ("--psrf-threshold", float, "convergence threshold"),
    ("--window", int, "post-convergence metric window"),
    ("--ess-method", str, "univariate ESS estimator: geyer or ar"),
]
# (flag, count or None for any, help) of comma-separated fields
_LIST_FIELDS = [
    ("--dt-interval", 2, "step interval override 'lo,hi'"),
    ("--l-range", 2, "uniform integer trajectory range 'lo,hi'"),
    ("--l-choices", None, "equal-probability trajectory set 'v1,v2,...'"),
    ("--phi-interval", 2, "refresh noise interval 'lo,hi'"),
]
# (flag, field, value the flag sets, help) of the store_true switches
_SWITCHES = [
    ("--text-chains", "binary_chains", False, "write chains and records as CSV, not .npy"),
    ("--warm-start", "warm_start", True, "start gauss-<D> chains from exact target draws"),
]


def _field(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for flag, ftype, help_text in _CONFIG_FIELDS:
        parser.add_argument(flag, type=ftype, help=help_text)
    for flag, _, help_text in _LIST_FIELDS:
        parser.add_argument(flag, type=str, help=help_text)
    for flag, _, _, help_text in _SWITCHES:
        parser.add_argument(flag, action="store_true", help=help_text)
    parser.add_argument("--config", type=str,
                        help="JSON config file; its values override flags")


def _numbers(flag: str, text: str, count=None) -> tuple:
    """The comma-separated numbers of ``flag``, ``count`` of them if given."""
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        raise ConfigError(f"{flag} expects {count or 'some'} comma-separated "
                          f"numbers, got '{text}'")
    return values


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    for flag, _, _ in _CONFIG_FIELDS:
        value = getattr(args, _field(flag))
        if value is not None:
            data[_field(flag)] = value
    for flag, count, _ in _LIST_FIELDS:
        text = getattr(args, _field(flag))
        if text:
            data[_field(flag)] = _numbers(flag, text, count)
    for flag, field, value, _ in _SWITCHES:
        if getattr(args, _field(flag)):
            data[field] = value
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except ValueError as exc:  # malformed JSON
            raise ConfigError(f"--config {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"--config {args.config}: not a JSON object")
        data.update(file_values)
    if "benchmark" not in data:
        raise ConfigError("a benchmark must be given (flag or config file)")
    try:
        return RunConfig(**data)
    except TypeError as exc:  # an unknown key or a value of the wrong type
        raise ConfigError(f"invalid run configuration: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghmctune",
        description="Adaptively tuned HMC/GHMC benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tune = sub.add_parser("tune", help="run burn-in tuning and write the report")
    _add_config_flags(p_tune)

    p_sample = sub.add_parser("sample", help="run production chains")
    _add_config_flags(p_sample)
    p_sample.add_argument("--report", type=str, help="existing tuning report path")
    p_sample.add_argument("--workers", type=int, default=1,
                          help="chain workers, at least 1; more than 1 runs a "
                               "forked pool of at most n-chains processes")

    p_diag = sub.add_parser("diagnose", help="compute metrics for a finished run")
    p_diag.add_argument("run_dir", type=str)
    p_diag.add_argument("--psrf-statistic", type=str, default=None)
    p_diag.add_argument("--psrf-threshold", type=float, default=None)
    p_diag.add_argument("--window", type=int, default=None)
    p_diag.add_argument("--ess-method", type=str, default=None)

    p_cmp = sub.add_parser("compare", help="relative efficiency of run A over run B")
    p_cmp.add_argument("run_a", type=str)
    p_cmp.add_argument("run_b", type=str)
    p_cmp.add_argument("--overhead-factor-b", type=float, default=1.0)
    p_cmp.add_argument("--time-normalized", action="store_true")

    p_sens = sub.add_parser("sensitivity",
                            help="perturb the step-interval lower endpoint")
    _add_config_flags(p_sens)
    p_sens.add_argument("--deltas", type=str, default="-0.05,0,0.05",
                        help="relative perturbations, comma separated")
    p_sens.add_argument("--workers", type=int, default=1)

    p_sweep = sub.add_parser("sweep", help="factorial sweep over phi and L rules")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--phi-rules", type=str, required=True,
                         help="semicolon-separated: tuned;fixed:1;uniform:0,0.5")
    p_sweep.add_argument("--l-rules", type=str, required=True,
                         help="semicolon-separated: tuned;fixed:1;range:1,66;choice:2,5,7")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_an = sub.add_parser("analyze-integrators",
                          help="emit integrator accuracy/stability tables")
    p_an.add_argument("--out-dir", type=str, default="integrator-analysis")
    p_an.add_argument("--n-grid", type=int, default=200)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "tune":
            report = cmd_tune(_config_from_args(args))
            print(report.to_json())
        elif args.command == "sample":
            config = _config_from_args(args)
            report = None
            if args.report:
                text = Path(args.report).read_text()
                try:
                    report = TuningReport.from_json(text)
                except (ValueError, TypeError, AttributeError) as exc:
                    # bad JSON, not an object, a missing field, a broken invariant
                    raise ConfigError(f"--report {args.report}: {exc}") from None
            artifacts = cmd_sample(config, report=report, workers=args.workers)
            print(f"run written to {artifacts.out_dir}")
        elif args.command == "diagnose":
            report = cmd_diagnose(args.run_dir, statistic=args.psrf_statistic,
                                  threshold=args.psrf_threshold,
                                  window=args.window, ess_method=args.ess_method)
            print(report.to_json())
        elif args.command == "compare":
            table = cmd_compare(args.run_a, args.run_b,
                                overhead_factor_b=args.overhead_factor_b,
                                time_normalized=args.time_normalized)
            print(json.dumps(table, sort_keys=True, indent=1))
        elif args.command == "sensitivity":
            deltas = _numbers("--deltas", args.deltas)
            rows = cmd_sensitivity(_config_from_args(args), deltas,
                                   workers=args.workers)
            print(json.dumps(rows, sort_keys=True, indent=1))
        elif args.command == "sweep":
            rows = cmd_sweep_phi_l(_config_from_args(args),
                                   args.phi_rules.split(";"),
                                   args.l_rules.split(";"),
                                   workers=args.workers)
            print(json.dumps(rows, sort_keys=True, indent=1))
        elif args.command == "analyze-integrators":
            summary = cmd_analyze_integrators(args.out_dir, n_grid=args.n_grid)
            print(json.dumps(summary, sort_keys=True, indent=1))
    except (ConfigError, DatasetError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutOfStabilityError, TuningError, DiagnosticsError,
            FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
