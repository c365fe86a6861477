import csv
import json
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from ghmctune.bench import (
    ConfigError,
    RunConfig,
    _read_chain,
    _read_records,
    _write_chain,
    _write_records,
    cmd_analyze_integrators,
    cmd_compare,
    cmd_diagnose,
    cmd_sample,
    cmd_sensitivity,
    cmd_sweep_phi_l,
    cmd_tune,
    load_chain_set,
    parse_rule,
    resolve_benchmark,
)
from ghmctune.cli import _CONFIG_FIELDS, _LIST_FIELDS, _SWITCHES, _field, main
from ghmctune.models import DatasetError
from ghmctune.samplers import ChainRecords


def _small_config(tmp_path, **overrides):
    base = dict(benchmark="gauss-5", mode="ghmc", n_chains=2, n_burnin=300,
                n_prod=400, seed=3, out_dir=str(tmp_path / "run"))
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_phi_override_forbidden_in_hmc(self, tmp_path):
        with pytest.raises(ConfigError):
            _small_config(tmp_path, mode="hmc", phi_fixed=0.3)

    def test_single_l_override(self, tmp_path):
        with pytest.raises(ConfigError):
            _small_config(tmp_path, l_fixed=2, l_choices=(2, 5))

    @pytest.mark.parametrize("overrides,names", [
        (dict(dt_fixed=0.1, dt_interval=(0.1, 0.2)), "dt_fixed, dt_interval"),
        (dict(l_fixed=2, l_range=(1, 3)), "l_fixed, l_range"),
        (dict(integrator="vv", dt_fixed=0.1, phi_fixed=0.5,
              phi_interval=(0.1, 0.2)), "phi_fixed, phi_interval")],
        ids=["dt", "l", "phi"])
    def test_second_override_of_a_quantity_rejected(self, tmp_path, overrides,
                                                     names):
        with pytest.raises(ConfigError, match=names):
            _small_config(tmp_path, **overrides)

    @pytest.mark.parametrize("integrator", ["vv", "vv2", "bcss2", "me2"])
    def test_fixed_integrator_below_three_stages_needs_a_step(self, tmp_path,
                                                              integrator):
        with pytest.raises(ConfigError, match="fewer than three stages"):
            _small_config(tmp_path, integrator=integrator)
        for step in (dict(dt_fixed=0.1), dict(dt_interval=(0.1, 0.2))):
            assert _small_config(tmp_path, integrator=integrator,
                                 **step).integrator == integrator

    def test_blr_file_needs_path(self, tmp_path):
        with pytest.raises(ConfigError):
            _small_config(tmp_path, benchmark="blr-file")

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = _small_config(tmp_path)
        b = _small_config(tmp_path)
        c = _small_config(tmp_path, seed=4)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_warm_start_only_for_gaussians(self, tmp_path):
        with pytest.raises(ConfigError):
            _small_config(tmp_path, benchmark="banana", warm_start=True)

    @pytest.mark.parametrize("name", ["leapfrog", "saia2", "saia", ""])
    def test_unknown_integrator_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError, match="unknown integrator"):
            _small_config(tmp_path, integrator=name)

    def test_integrator_name_folded(self, tmp_path):
        # the tuned adaptive scheme has one spelling, the default None
        tuned = _small_config(tmp_path, integrator="S-AIA3")
        assert tuned.integrator is None
        assert tuned.hash() == _small_config(tmp_path).hash()
        assert _small_config(tmp_path, integrator="BCSS_3").integrator == "bcss3"

    @pytest.mark.parametrize("field,value", [("psrf_statistic", "maxx"),
                                             ("ess_method", "foo"),
                                             ("window", 0), ("window", -30),
                                             ("psrf_threshold", math.nan),
                                             ("psrf_threshold", 0.5),
                                             ("psrf_threshold", 1.0),
                                             ("psrf_threshold", math.inf)])
    def test_diagnose_settings_checked(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            _small_config(tmp_path, **{field: value})

    @pytest.mark.parametrize("field,value", [
        ("dt_fixed", 0.0), ("dt_fixed", -0.1), ("dt_interval", (0.5, 0.1)),
        ("l_fixed", 0), ("l_range", (0, 3)), ("l_range", ("a", 3)),
        ("l_choices", (0, 2)), ("phi_fixed", 1.5), ("phi_interval", (0.2, 1.5)),
        ("n_burnin", 50), ("ar_target", 1.5), ("ar_target", 0.0),
        ("h_lower", 5.0), ("h_lower", 0.0), ("l_fixed", 2.5),
        ("l_range", (1, 2.5)), ("l_choices", (2.5, 5)), ("l_range", (1, 1e400))])
    def test_out_of_range_override_rejected(self, tmp_path, field, value):
        with pytest.raises(ConfigError, match=field):
            _small_config(tmp_path, **{field: value})

    def test_whole_trajectory_lengths_become_ints(self, tmp_path):
        assert _small_config(tmp_path, l_fixed=2.0).l_fixed == 2
        config = _small_config(tmp_path, l_range=(1.0, 4.0))
        assert config.l_range == (1, 4) and type(config.l_range[0]) is int
        assert _small_config(tmp_path, l_choices=[2.0, 5]).l_choices == (2, 5)


class TestBenchmarks:
    def test_gauss_preset(self, tmp_path):
        model = resolve_benchmark(_small_config(tmp_path))
        assert model.dimension == 5
        assert model.hessian is not None

    def test_blr_synthetic_preset(self, tmp_path):
        model = resolve_benchmark(
            _small_config(tmp_path, benchmark="blr-synthetic-4-30"))
        assert model.dimension == 4

    def test_banana_preset(self, tmp_path):
        model = resolve_benchmark(_small_config(tmp_path, benchmark="banana"))
        assert model.dimension == 2

    def test_blr_file_preset(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.5,1\n0.2,-0.3,0\n0.7,0.1,1\n")
        config = _small_config(tmp_path, benchmark="blr-file",
                               dataset_path=str(path))
        assert resolve_benchmark(config).dimension == 3

    def test_unknown_benchmark(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_benchmark(_small_config(tmp_path, benchmark="funnel-9"))

    @pytest.mark.parametrize("name,overrides", [
        ("gauss-0", {}), ("blr-synthetic-1-50", {}),
        ("blr-synthetic-5-50", {"prior_std": -1.0})])
    def test_rejected_model_settings_are_config_errors(self, tmp_path, name,
                                                       overrides):
        config = _small_config(tmp_path, benchmark=name, **overrides)
        with pytest.raises(ConfigError, match=f"benchmark '{name}'"):
            resolve_benchmark(config)

    def test_malformed_dataset_stays_dataset_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.1,0.5,1\n0.2,-0.3,2\n")
        config = _small_config(tmp_path, benchmark="blr-file",
                               dataset_path=str(path))
        with pytest.raises(DatasetError, match="labels must be 0 or 1"):
            resolve_benchmark(config)


EDGE_CHAINS = pytest.mark.parametrize("samples", [
    np.array([[-0.0, 5e-324, 1e300, -1e-17],
              [1.0 / 3.0, -2.5, 0.1, 123456789.0]]),
    np.array([[-0.0, 5e-324, 1e300, -1e-17]]),      # one row
    np.array([[-0.0], [5e-324], [1e300], [-1e-17]]),  # D = 1
    np.random.default_rng(2).standard_normal((30, 7)),
], ids=["edge-values", "one-row", "one-column", "normal"])


RECORD_FIELDS = tuple(f.name for f in fields(ChainRecords))


def _records_with_every_value():
    rec = ChainRecords.empty(5)
    rec.accepted[:] = [True, False, True, True, False]
    rec.delta_h[:] = [0.1, 2.0, -0.3, -0.0, np.inf]
    rec.n_steps[:] = [1, 5, 7, 2, 5]
    rec.dt[:] = [0.123456789, 5e-324, 1e300, 0.1, 1.0 / 3.0]
    rec.phi[:] = 0.25
    rec.grad_evals[:] = rec.n_steps * 3
    rec.divergent[:] = [False, False, False, False, True]
    return rec


def _record_sets_identical(a, b):
    for rec_a, rec_b in zip(a, b, strict=True):
        for name in RECORD_FIELDS:
            x, y = getattr(rec_a, name), getattr(rec_b, name)
            if x.dtype != y.dtype or x.tobytes() != y.tobytes():
                return False
    return True


def _run_files(out_dir):
    manifest = json.loads((Path(out_dir) / "manifest.json").read_text())
    return manifest["chain_files"] + manifest["record_files"]


class TestPersistence:
    def test_chain_text_round_trip(self, tmp_path):
        samples = np.random.default_rng(0).standard_normal((40, 3))
        path = _write_chain(tmp_path / "chain_000", samples, binary=False)
        assert np.array_equal(_read_chain(path), samples)

    def test_chain_binary_round_trip(self, tmp_path):
        samples = np.random.default_rng(1).standard_normal((40, 3))
        path = _write_chain(tmp_path / "chain_000", samples, binary=True)
        assert path.name == "chain_000.npy"
        assert np.array_equal(_read_chain(path), samples)

    @EDGE_CHAINS
    def test_npy_chain_round_trip_bit_exact(self, tmp_path, samples):
        path = _write_chain(tmp_path / "chain_000", samples, binary=True)
        back = _read_chain(path)
        assert back.shape == samples.shape and back.dtype == np.float64
        assert back.tobytes() == samples.tobytes()

    @EDGE_CHAINS
    def test_text_chain_io_matches_loop_code(self, tmp_path, samples):
        def write_loop(path):
            with open(path, "w") as fh:
                fh.write("# ghmctune chain samples\n")
                for row in samples:
                    fh.write(",".join(repr(float(v)) for v in row) + "\n")

        def read_loop(path):
            rows = []
            with open(path) as fh:
                for line in fh:
                    if line.startswith("#"):
                        continue
                    rows.append([float(v) for v in line.strip().split(",")])
            return np.asarray(rows)

        path = _write_chain(tmp_path / "chain_000", samples, binary=False)
        write_loop(tmp_path / "loop.csv")
        assert path.read_bytes() == (tmp_path / "loop.csv").read_bytes()
        back, want = _read_chain(path), read_loop(path)
        assert back.shape == want.shape == samples.shape
        assert back.dtype == want.dtype
        assert back.tobytes() == want.tobytes() == samples.tobytes()

    def test_records_round_trip(self, tmp_path):
        rec = ChainRecords.empty(5)
        rec.accepted[:] = [True, False, True, True, False]
        rec.delta_h[:] = [0.1, 2.0, -0.3, 0.0, np.inf]
        rec.n_steps[:] = [1, 5, 7, 2, 5]
        rec.dt[:] = 0.123456789
        rec.phi[:] = 0.25
        rec.grad_evals[:] = rec.n_steps * 3
        rec.divergent[:] = [False, False, False, False, True]
        path = _write_records(tmp_path / "records_000", rec, binary=False)
        assert path.name == "records_000.csv"
        back = _read_records(path)
        assert np.array_equal(back.accepted, rec.accepted)
        assert np.array_equal(back.delta_h, rec.delta_h)
        assert np.array_equal(back.grad_evals, rec.grad_evals)
        assert np.array_equal(back.divergent, rec.divergent)

    @pytest.mark.parametrize("binary", [True, False], ids=["npy", "csv"])
    def test_records_round_trip_bit_exact(self, tmp_path, binary):
        rec = _records_with_every_value()
        path = _write_records(tmp_path / "records_000", rec, binary=binary)
        assert path.suffix == (".npy" if binary else ".csv")
        back = _read_records(path)
        assert _record_sets_identical([back], [rec])
        for name in RECORD_FIELDS:
            column = getattr(back, name)
            assert column.flags.c_contiguous and column.flags.owndata

    def test_npy_records_are_one_structured_array(self, tmp_path):
        path = _write_records(tmp_path / "records_000",
                              _records_with_every_value(), binary=True)
        table = np.load(path, allow_pickle=False)
        assert table.shape == (5,)
        assert [(name, table.dtype[name].str) for name in table.dtype.names] == [
            ("accepted", "|b1"), ("delta_h", "<f8"), ("n_steps", "<i8"),
            ("dt", "<f8"), ("phi", "<f8"), ("grad_evals", "<i8"),
            ("divergent", "|b1")]


class TestCommands:
    def test_tune_sample_diagnose_cycle(self, tmp_path):
        config = _small_config(tmp_path)
        report = cmd_tune(config)
        assert (Path(config.out_dir) / "tuning_report.json").exists()
        artifacts = cmd_sample(config, report=report)
        manifest = json.loads((artifacts.out_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == config.hash()
        assert len(manifest["chain_files"]) == 2
        diag = cmd_diagnose(config.out_dir, window=100)
        assert diag.n_chains == 2
        assert (Path(config.out_dir) / "diagnostics.json").exists()

    def test_rerun_bit_identical(self, tmp_path):
        config_a = _small_config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = RunConfig(**{**config_a.to_dict(), "out_dir": str(tmp_path / "b")})
        cmd_sample(config_a)
        cmd_sample(config_b)
        names = _run_files(config_a.out_dir)
        assert len(names) == 4 and names == _run_files(config_b.out_dir)
        for name in names:
            assert (Path(config_a.out_dir) / name).read_bytes() == \
                   (Path(config_b.out_dir) / name).read_bytes()

    def test_worker_count_does_not_change_chains(self, tmp_path):
        for warm_start in (False, True):
            config_a = _small_config(tmp_path, n_chains=4, warm_start=warm_start,
                                     out_dir=str(tmp_path / f"w1-{warm_start}"))
            config_b = replace(config_a, out_dir=str(tmp_path / f"w4-{warm_start}"))
            cmd_sample(config_a, workers=1)
            cmd_sample(config_b, workers=4)
            names = _run_files(config_a.out_dir)
            assert len(names) == 8 and names == _run_files(config_b.out_dir)
            for name in names:
                assert (Path(config_a.out_dir) / name).read_bytes() == \
                       (Path(config_b.out_dir) / name).read_bytes()

    @pytest.mark.parametrize("case", ["report", "inline-tuning", "warm-start"])
    def test_sample_resolves_the_benchmark_once(self, tmp_path, monkeypatch,
                                                case):
        config, report = _small_config(tmp_path), None
        if case == "report":
            report = cmd_tune(config)
        elif case == "warm-start":
            config = _small_config(tmp_path, mode="hmc", integrator="vv",
                                   dt_fixed=0.3, l_fixed=2, warm_start=True)
        calls = []

        def counting(run_config):
            calls.append(run_config.benchmark)
            return resolve_benchmark(run_config)

        monkeypatch.setattr("ghmctune.bench.resolve_benchmark", counting)
        cmd_sample(config, report=report)
        assert calls == ["gauss-5"]

    @pytest.mark.parametrize("command", ["sweep", "sensitivity"])
    def test_multi_run_commands_resolve_the_benchmark_once(
            self, tmp_path, monkeypatch, command):
        config = _small_config(tmp_path, n_prod=200)
        calls = []

        def counting(run_config):
            calls.append(run_config.benchmark)
            return resolve_benchmark(run_config)

        monkeypatch.setattr("ghmctune.bench.resolve_benchmark", counting)
        if command == "sweep":
            cmd_sweep_phi_l(config, ["tuned", "fixed:1"], ["tuned", "fixed:2"])
        else:
            cmd_sensitivity(config, deltas=(-0.05, 0.0, 0.05))
        assert calls == ["gauss-5"]

    def test_hmc_run_equals_ghmc_with_unit_phi(self, tmp_path):
        # HMC is GHMC with a full refresh: same chains, same records
        settings = dict(integrator="vv", dt_fixed=0.3, l_range=(1, 4))
        hmc = _small_config(tmp_path, mode="hmc", **settings,
                            out_dir=str(tmp_path / "hmc"))
        ghmc = _small_config(tmp_path, mode="ghmc", phi_fixed=1.0, **settings,
                             out_dir=str(tmp_path / "ghmc"))
        cmd_sample(hmc)
        cmd_sample(ghmc)
        names = _run_files(hmc.out_dir)
        assert len(names) == 4 and names == _run_files(ghmc.out_dir)
        for name in names:
            assert (Path(hmc.out_dir) / name).read_bytes() == \
                   (Path(ghmc.out_dir) / name).read_bytes()

    def test_sweep_csv_reads_back(self, tmp_path):
        config = _small_config(tmp_path, n_prod=200,
                               out_dir=str(tmp_path / "sweep"))
        phi_rules, l_rules = ["tuned", "uniform:0,0.5"], ["choice:2,5,7"]
        rows = cmd_sweep_phi_l(config, phi_rules, l_rules)
        with open(Path(config.out_dir) / "sweep_phi_l.csv", newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [(r["phi_rule"], r["l_rule"]) for r in read] == \
               [("tuned", "choice:2,5,7"), ("uniform:0,0.5", "choice:2,5,7")]
        for got, row in zip(read, rows):
            assert list(got) == list(row)  # no field spilled into extra columns
            assert got["grad"] == str(row["grad"])

    def test_pool_needs_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr("multiprocessing.get_all_start_methods",
                            lambda: ["spawn"])
        config = _small_config(tmp_path)
        with pytest.raises(ConfigError, match="fork"):
            cmd_sample(config, workers=2)
        assert not Path(config.out_dir).exists()
        cmd_sample(config, workers=1)

    def test_text_export_matches_default_run(self, tmp_path):
        config_npy = _small_config(tmp_path, out_dir=str(tmp_path / "npy"))
        config_csv = replace(config_npy, out_dir=str(tmp_path / "csv"),
                             binary_chains=False)
        cmd_sample(config_npy)
        cmd_sample(config_csv)
        assert [Path(p).suffix for p in _run_files(config_npy.out_dir)] == [".npy"] * 4
        assert [Path(p).suffix for p in _run_files(config_csv.out_dir)] == [".csv"] * 4
        set_npy = load_chain_set(config_npy.out_dir)
        set_csv = load_chain_set(config_csv.out_dir)
        assert set_npy.samples.tobytes() == set_csv.samples.tobytes()
        assert _record_sets_identical(set_npy.records, set_csv.records)
        rep_npy = asdict(cmd_diagnose(config_npy.out_dir, window=100))
        rep_csv = asdict(cmd_diagnose(config_csv.out_dir, window=100))
        for rep in (rep_npy, rep_csv):
            rep.pop("wall_seconds")  # each run's own sampling time
        assert json.dumps(rep_npy, sort_keys=True) == json.dumps(rep_csv, sort_keys=True)

    def test_manifest_telemetry(self, tmp_path):
        config = _small_config(tmp_path)
        manifest = cmd_sample(config).manifest
        records = load_chain_set(config.out_dir).records
        assert manifest["total_grads"] == sum(int(r.grad_evals.sum())
                                              for r in records)
        assert manifest["total_grads"] > 0
        timings = manifest["timings"]
        assert timings["sampling_seconds"] > 0 and timings["write_seconds"] > 0
        assert manifest["grads_per_second"] == pytest.approx(
            manifest["total_grads"] / timings["sampling_seconds"])
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert set(env) == {"python", "numpy", "scipy", "cpu_count", "threads"}
        assert set(env["threads"]) == {"OMP_NUM_THREADS",
                                       "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"}
        on_disk = json.loads((Path(config.out_dir) / "manifest.json").read_text())
        assert on_disk == manifest

    def test_load_chain_set(self, tmp_path):
        config = _small_config(tmp_path)
        cmd_sample(config)
        chain_set = load_chain_set(config.out_dir)
        assert chain_set.samples.shape == (2, 400, 5)
        assert chain_set.stages == 3

    def test_compare_self_is_unity(self, tmp_path):
        config = _small_config(tmp_path, n_prod=600)
        cmd_sample(config)
        cmd_diagnose(config.out_dir, window=100)
        table = cmd_compare(config.out_dir, config.out_dir)
        for key, value in table.items():
            if value is not None:
                assert value == pytest.approx(1.0, abs=1e-12)

    def test_compare_inverts_on_swap(self, tmp_path):
        cfg_a = _small_config(tmp_path, out_dir=str(tmp_path / "ca"), n_prod=600)
        cfg_b = RunConfig(**{**cfg_a.to_dict(), "seed": 4,
                             "out_dir": str(tmp_path / "cb")})
        cmd_sample(cfg_a)
        cmd_sample(cfg_b)
        cmd_diagnose(cfg_a.out_dir, window=100)
        cmd_diagnose(cfg_b.out_dir, window=100)
        ab = cmd_compare(cfg_a.out_dir, cfg_b.out_dir)
        ba = cmd_compare(cfg_b.out_dir, cfg_a.out_dir)
        for flavour in ("min", "mean", "multi"):
            key = f"ref_{flavour}_ess"
            if ab[key] is not None and ba[key] is not None:
                assert ab[key] * ba[key] == pytest.approx(1.0, rel=1e-9)

    def test_fixed_integrator_override_run(self, tmp_path):
        # pure-override run: no tuning, named integrator, fixed interval
        config = _small_config(tmp_path, mode="hmc", integrator="vv",
                               dt_interval=(0.05, 0.08), l_fixed=3,
                               out_dir=str(tmp_path / "ovr"))
        artifacts = cmd_sample(config)
        manifest = json.loads((artifacts.out_dir / "manifest.json").read_text())
        assert manifest["stages"] == 1
        assert manifest["tuning_report"] is None

    def test_sweep_single_cell_matches_sample(self, tmp_path):
        config = _small_config(tmp_path, n_prod=600,
                               out_dir=str(tmp_path / "sweep"))
        rows = cmd_sweep_phi_l(config, ["tuned"], ["fixed:1"])
        assert len(rows) == 1
        cell_dir = Path(config.out_dir) / "cell_phi0_l0"
        assert (cell_dir / "diagnostics.json").exists()
        assert rows[0]["grad"] is None or rows[0]["grad"] > 0

    def test_sweep_unit_phi_column_runs_hmc(self, tmp_path):
        config = _small_config(tmp_path, n_prod=500,
                               out_dir=str(tmp_path / "sweep-hmc"))
        cmd_sweep_phi_l(config, ["fixed:1"], ["fixed:2"])
        cell = Path(config.out_dir) / "cell_phi0_l0"
        manifest = json.loads((cell / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "hmc"

    def test_analyze_integrators_outputs(self, tmp_path):
        out = tmp_path / "analysis"
        summary = cmd_analyze_integrators(out, schemes=("vv", "bcss3"), n_grid=40)
        assert (out / "energy_error_vs_h.csv").exists()
        assert (out / "rho3_vs_h.csv").exists()
        assert (out / "saia3_map.txt").exists()
        assert summary["stability"]["vv"] == pytest.approx(2.0, abs=1e-5)
        assert summary["h_lower_root"] == pytest.approx(2.0772, abs=1e-3)

    def test_analyze_integrators_tables_are_numeric(self, tmp_path):
        out = tmp_path / "analysis"
        cmd_analyze_integrators(out, schemes=("vv", "bcss3"), n_grid=6)
        energy = np.loadtxt(out / "energy_error_vs_h.csv", delimiter=",",
                            skiprows=1, usecols=(1, 2, 3))
        rho3 = np.loadtxt(out / "rho3_vs_h.csv", delimiter=",",
                          skiprows=1, usecols=(1, 2, 3))
        assert energy.shape == (12, 3) and np.all(energy[:, 0] > 0)
        assert rho3.shape[1] == 3 and np.all(np.isfinite(rho3))


class TestParseRule:
    def test_forms(self):
        assert parse_rule("fixed:3") == ("fixed", 3.0)
        assert parse_rule("uniform:0.1,0.4") == ("uniform", (0.1, 0.4))
        assert parse_rule("range:1,66") == ("range", (1.0, 66.0))
        assert parse_rule("choice:2,5,7") == ("choice", (2.0, 5.0, 7.0))

    def test_rejects_malformed(self):
        for bad in ("fixed", "uniform:1", "nope:1,2", "choice:"):
            with pytest.raises(ConfigError):
                parse_rule(bad)


class TestCli:
    def test_unknown_benchmark_exits_config_error(self, tmp_path, capsys):
        code = main(["tune", "--benchmark", "nope-3",
                     "--out-dir", str(tmp_path)])
        assert code == 2

    def test_missing_run_dir_exits_io_error(self, tmp_path):
        code = main(["diagnose", str(tmp_path / "missing")])
        assert code == 4

    def test_unknown_integrator_exits_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-5", "--mode", "hmc",
                     "--integrator", "leapfrog", "--dt-fixed", "0.1",
                     "--out-dir", str(out)])
        assert code == 2
        assert "unknown integrator" in capsys.readouterr().err
        assert not out.exists()

    def test_ghmc_without_phi_rule_exits_before_output(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-5", "--integrator", "vv",
                     "--dt-fixed", "0.1", "--out-dir", str(out)])
        assert code == 2
        assert "phi rule" in capsys.readouterr().err
        assert not out.exists()

    def test_report_of_other_dimension_exits_before_output(self, tmp_path,
                                                            capsys):
        tuned = tmp_path / "tuned"
        assert main(["tune", "--benchmark", "gauss-4", "--n-burnin", "200",
                     "--seed", "1", "--out-dir", str(tuned)]) == 0
        capsys.readouterr()
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-50", "--n-prod", "100",
                     "--n-chains", "1", "--seed", "1",
                     "--report", str(tuned / "tuning_report.json"),
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "dimension 4" in err
        assert not out.exists()

    def test_hmc_report_gives_ghmc_sample_no_phi_rule(self, tmp_path, capsys):
        tuned = tmp_path / "tuned"
        assert main(["tune", "--benchmark", "gauss-4", "--mode", "hmc",
                     "--n-burnin", "200", "--seed", "1",
                     "--out-dir", str(tuned)]) == 0
        capsys.readouterr()
        sample = ["sample", "--benchmark", "gauss-4", "--mode", "ghmc",
                  "--n-prod", "100", "--n-chains", "1", "--seed", "1",
                  "--report", str(tuned / "tuning_report.json")]
        out = tmp_path / "never"
        code = main(sample + ["--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "phi rule" in err
        assert not out.exists()
        out = tmp_path / "phi"
        assert main(sample + ["--phi-fixed", "0.3", "--out-dir", str(out)]) == 0
        chain_set = load_chain_set(out)
        assert np.all(chain_set.records[0].phi == 0.3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "ghmc"

    @pytest.mark.parametrize("command", [
        ["sample"], ["sensitivity"],
        ["sweep", "--phi-rules", "tuned", "--l-rules", "tuned"]],
        ids=["sample", "sensitivity", "sweep"])
    def test_zero_workers_exits_before_output(self, tmp_path, capsys, command):
        out = tmp_path / "never"
        code = main([*command, "--benchmark", "gauss-5", "--n-burnin", "200",
                     "--workers", "0", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "workers=0" in err
        assert not out.exists()

    @pytest.mark.parametrize("rule,name", [("fixed:2.5", "l_fixed"),
                                           ("range:1.5,3", "l_range"),
                                           ("choice:2,5.5", "l_choices"),
                                           ("uniform:1,2", "L rule")])
    def test_bad_sweep_l_rule_exits_before_output(self, tmp_path, capsys, rule,
                                                  name):
        out = tmp_path / "never"
        code = main(["sweep", "--benchmark", "gauss-5", "--n-burnin", "200",
                     "--phi-rules", "tuned", "--l-rules", f"tuned;{rule}",
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("flags,code", [
        (["--benchmark", "nope-3"], 2),
        (["--benchmark", "blr-file", "--dataset-path", "missing.csv"], 4),
        (["--benchmark", "gauss-0"], 2),
        (["--benchmark", "blr-synthetic-1-50"], 2),
        (["--benchmark", "blr-synthetic-5-50", "--prior-std", "-1"], 2)],
        ids=["unknown-benchmark", "missing-dataset", "gauss-0",
             "blr-without-covariate", "negative-prior-std"])
    def test_untuned_run_of_unbuildable_model_exits_before_output(
            self, tmp_path, flags, code):
        out = tmp_path / "never"
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        assert main(["sample", *flags, "--mode", "hmc", "--integrator", "vv",
                     "--dt-fixed", "0.1", "--out-dir", str(out)]) == code
        assert not out.exists()

    def test_warm_start_flag(self, tmp_path):
        settings = dict(benchmark="gauss-4", mode="hmc", integrator="vv",
                        dt_fixed=0.3, l_fixed=2, n_prod=150, n_chains=2, seed=1)
        flag_out, api_out = tmp_path / "flag", tmp_path / "api"
        args = [f"--{key.replace('_', '-')}={value}"
                for key, value in settings.items()]
        assert main(["sample", *args, "--warm-start",
                     "--out-dir", str(flag_out)]) == 0
        cmd_sample(RunConfig(**settings, warm_start=True, out_dir=str(api_out)))
        manifest = json.loads((flag_out / "manifest.json").read_text())
        assert manifest["config"]["warm_start"] is True
        names = _run_files(flag_out)
        assert len(names) == 4 and names == _run_files(api_out)
        for name in names:
            assert (flag_out / name).read_bytes() == (api_out / name).read_bytes()

    @pytest.mark.parametrize("integrator", [[], ["--integrator", "vv"]])
    @pytest.mark.parametrize("flags,name", [
        (["--dt-fixed", "0"], "dt_fixed"),
        (["--dt-interval", "0.5,0.1"], "dt_interval"),
        (["--l-fixed", "0"], "l_fixed"),
        (["--l-range", "0,3"], "l_range"),
        (["--phi-fixed", "1.5"], "phi_fixed"),
        (["--dt-interval", "0.1,x"], "--dt-interval"),
        (["--l-range", "1,x"], "--l-range"),
        (["--l-choices", "2,five"], "--l-choices"),
        (["--phi-interval", "0.1,y"], "--phi-interval"),
        (["--n-burnin", "50"], "n_burnin"),
        (["--ar-target", "1.5"], "ar_target"),
        (["--h-lower", "5"], "h_lower"),
        (["--l-choices", "2.5,5"], "l_choices"),
        (["--l-range", "1,2.5"], "l_range"),
        (["--dt-fixed", "0.1", "--dt-interval", "0.1,0.2"],
         "dt_fixed, dt_interval"),
        (["--l-fixed", "2", "--l-range", "1,3"], "l_fixed, l_range"),
        (["--phi-fixed", "0.5", "--phi-interval", "0.1,0.2"],
         "phi_fixed, phi_interval")])
    def test_bad_override_exits_before_output(self, tmp_path, capsys, flags,
                                              name, integrator):
        # without --integrator the run would tune first
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-5", "--n-burnin", "200",
                     *integrator, *flags, "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("text,name", [
        ('{"benchmark": "gauss-4", "n_chain": 2}', "n_chain"),
        ('{"benchmark": "gauss-4", "n_chains": "4"}', "invalid run configuration"),
        ('{"benchmark": "gauss-4", "dt_interval": 5}', "invalid run configuration"),
        ('["gauss-4"]', "JSON object"),
        ('{"benchmark": "gauss-4",', "--config"),
        ('{"benchmark": "gauss-4", "l_fixed": 2.5}', "l_fixed"),
        ('{"benchmark": "gauss-4", "fitting_mode": "auto"}', "fitting_mode"),
        ('{"benchmark": "gauss-4", "standardize": false}', "standardize"),
        ('{"benchmark": "gauss-4", "n_burnin": 200, "n_prod": 100, "n_chains": 2.5}',
         "n_chains"),
        ('{"benchmark": "gauss-4", "n_burnin": 200, "n_prod": 100.5}', "n_prod"),
        ('{"benchmark": "gauss-4", "n_burnin": 150.5, "n_prod": 100}', "n_burnin"),
        ('{"benchmark": "gauss-4", "n_burnin": 200, "n_prod": 100, "seed": 1.5}',
         "seed"),
        ('{"benchmark": "gauss-4", "n_burnin": 200, "n_prod": 100, "window": 20.5}',
         "window")])
    def test_bad_config_file_exits_before_output(self, tmp_path, capsys, text,
                                                 name):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-4", "--out-dir", str(out),
                     "--config", str(cfg_file)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--psrf-statistic", "maxx"],
                                       ["--ess-method", "foo"],
                                       ["--window=-30"], ["--window", "0"],
                                       ["--psrf-threshold=nan"],
                                       ["--psrf-threshold", "0.5"],
                                       ["--psrf-threshold", "1.0"],
                                       ["--psrf-threshold", "inf"]])
    def test_diagnose_rejects_unknown_settings(self, tmp_path, flags):
        out = tmp_path / "run"
        cmd_sample(_small_config(tmp_path, mode="hmc", integrator="vv",
                                 dt_fixed=0.3, l_fixed=2, n_prod=100))
        assert main(["diagnose", str(out), *flags]) == 2
        assert not (out / "diagnostics.json").exists()
        assert main(["diagnose", str(out), "--window", "50"]) == 0

    @pytest.mark.parametrize("factor", ["0", "-1"])
    def test_compare_rejects_nonpositive_overhead_factor(self, tmp_path, capsys,
                                                         factor):
        # checked before either run is read: missing runs would exit 4
        code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                     f"--overhead-factor-b={factor}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "overhead_factor_b" in err

    @pytest.mark.parametrize("case", ["truncated", "doubled-dt-lower",
                                      "missing-cf", "negative-cf",
                                      "zero-l-fixed", "doubled-cf",
                                      "nan-dt-lower", "nan-h-lower", "nan-s-f"])
    def test_malformed_report_exits_before_output(self, tmp_path, capsys,
                                                  case):
        tuned = tmp_path / "tuned"
        assert main(["tune", "--benchmark", "gauss-4", "--n-burnin", "200",
                     "--seed", "1", "--out-dir", str(tuned)]) == 0
        capsys.readouterr()
        path = tuned / "tuning_report.json"
        text = path.read_text()
        report = json.loads(text)
        if case == "truncated":
            text = text[:len(text) // 2]
        else:
            if case == "doubled-dt-lower":
                report["dt_lower"] *= 2.0
            elif case == "missing-cf":
                del report["cf"]
            elif case == "negative-cf":
                report["cf"] = -1.0
            elif case == "zero-l-fixed":
                report["l_fixed"] = 0
            elif case == "doubled-cf":
                report["cf"] *= 2.0
            else:  # nan-<field>, written as NaN, which json reads back
                report[case[4:].replace("-", "_")] = float("nan")
            text = json.dumps(report)
        path.write_text(text)
        out = tmp_path / "never"
        code = main(["sample", "--benchmark", "gauss-4", "--n-prod", "100",
                     "--n-chains", "1", "--seed", "1", "--report", str(path),
                     "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "--report" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["sample"], ["sensitivity"],
        ["sweep", "--phi-rules", "tuned", "--l-rules", "tuned"]],
        ids=["sample", "sensitivity", "sweep"])
    @pytest.mark.parametrize("integrator", ["vv", "vv2", "bcss2", "me2"])
    def test_fixed_integrator_without_step_exits_before_output(
            self, tmp_path, capsys, command, integrator):
        # the tuned interval h in [2.08, 3] is past Verlet's stability limit 2
        out = tmp_path / "never"
        code = main([*command, "--benchmark", "gauss-20", "--integrator",
                     integrator, "--n-prod", "500", "--n-chains", "2",
                     "--seed", "1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "fewer than three stages" in err
        assert not out.exists()

    def test_three_stage_fixed_integrator_samples_on_tuned_interval(
            self, tmp_path):
        out = tmp_path / "vv3"
        assert main(["sample", "--benchmark", "gauss-5", "--integrator", "vv3",
                     "--n-burnin", "200", "--n-prod", "100", "--n-chains", "1",
                     "--seed", "1", "--out-dir", str(out)]) == 0
        report = json.loads((out / "tuning_report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"] == 3
        records = load_chain_set(out).records[0]
        assert np.all(records.dt >= report["dt_lower"])
        assert np.all(records.dt <= report["dt_colsi"])
        assert records.accepted.mean() > 0.5

    def test_manifest_with_dropped_field_diagnoses(self, tmp_path):
        # run directories written before a RunConfig field was removed
        out = tmp_path / "run"
        cmd_sample(_small_config(tmp_path, mode="hmc", integrator="vv",
                                 dt_fixed=0.3, l_fixed=2, n_prod=100))
        assert main(["diagnose", str(out), "--window", "50"]) == 0
        expected = (out / "diagnostics.json").read_text()
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["fitting_mode"] = "auto"
        path.write_text(json.dumps(manifest))
        (out / "diagnostics.json").unlink()
        assert main(["diagnose", str(out), "--window", "50"]) == 0
        assert (out / "diagnostics.json").read_text() == expected

    def test_bad_sensitivity_delta_exits_before_output(self, tmp_path, capsys):
        out = tmp_path / "sens"
        code = main(["sensitivity", "--benchmark", "gauss-5", "--n-burnin",
                     "200", "--n-prod", "100", "--n-chains", "1",
                     "--deltas=0,-2", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "h_lower" in err
        assert not out.exists()

    def test_every_config_field_has_a_flag(self):
        flags = ([_field(flag) for flag, _, _ in _CONFIG_FIELDS]
                 + [_field(flag) for flag, _, _ in _LIST_FIELDS]
                 + [field for _, field, _, _ in _SWITCHES])
        assert len(flags) == len(set(flags))
        assert set(flags) == {f.name for f in fields(RunConfig)}

    def test_tune_and_sample_flow(self, tmp_path, capsys):
        out = tmp_path / "cli-run"
        code = main(["tune", "--benchmark", "gauss-4", "--n-burnin", "250",
                     "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        assert "dt_lower" in capsys.readouterr().out
        code = main(["sample", "--benchmark", "gauss-4", "--n-burnin", "250",
                     "--n-prod", "200", "--n-chains", "2", "--seed", "1",
                     "--out-dir", str(out),
                     "--report", str(out / "tuning_report.json")])
        assert code == 0
        code = main(["diagnose", str(out), "--window", "50"])
        assert code == 0

    def test_text_chains_flag(self, tmp_path):
        base = ["sample", "--benchmark", "gauss-4", "--mode", "hmc",
                "--integrator", "vv", "--dt-fixed", "0.3", "--l-fixed", "2",
                "--n-prod", "150", "--n-chains", "2", "--seed", "1"]
        text, default = tmp_path / "text", tmp_path / "default"
        assert main(base + ["--out-dir", str(text), "--text-chains"]) == 0
        assert main(base + ["--out-dir", str(default)]) == 0
        for out, suffix in ((text, ".csv"), (default, ".npy")):
            for stem in ("chain_000", "records_000", "chain_001", "records_001"):
                assert (out / "chains" / f"{stem}{suffix}").exists()
            assert main(["diagnose", str(out), "--window", "50"]) == 0
        manifest = json.loads((text / "manifest.json").read_text())
        assert manifest["config"]["binary_chains"] is False
        assert load_chain_set(text).samples.tobytes() == \
            load_chain_set(default).samples.tobytes()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"benchmark": "gauss-4", "seed": 9,
                                        "n_burnin": 250,
                                        "out_dir": str(tmp_path / "fromfile")}))
        code = main(["tune", "--benchmark", "gauss-7", "--seed", "1",
                     "--config", str(cfg_file)])
        assert code == 0
        report = json.loads((tmp_path / "fromfile" / "tuning_report.json").read_text())
        assert report["dimension"] == 4
        assert report["seed"] == 9
