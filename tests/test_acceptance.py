"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they appear.  The desk-scale sampler comparison (criterion 8) follows the
production-after-burn-in workflow: chains start from exact target draws,
convergence uses the relaxed maxPSRF < 1.1 threshold for both samplers, and
effective sample sizes use the AR-spectral estimator.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from ghmctune.bench import RunConfig, cmd_sample, cmd_sensitivity
from ghmctune.diagnostics import (
    ChainSet,
    diagnose,
    ess_ar_spectral,
    ess_geyer,
    multi_ess,
    psrf,
)
from ghmctune.integrators import (
    H_LOWER,
    build_scheme,
    find_h_lower,
    harmonic_propagator,
    rotation_angle,
    vv_ratio_roots,
)
from ghmctune.models import (
    gaussian_model,
    gen_wishart_precision,
    sample_gaussian,
)
from ghmctune.samplers import (
    AdaptiveScheme,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    chain_rng,
    metropolis_accept,
    run_chain,
)
from ghmctune.tuning import (
    atune,
    config_from_report,
    l_candidates_from_eta,
    phi_interval,
    stepsize_interval,
)

warnings.filterwarnings("ignore", category=RuntimeWarning)


def _verdict(number, name, ok, detail):
    print(f"\nACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_h_lower():
    find_h_lower.cache_clear()
    t0 = time.perf_counter()
    root = find_h_lower()
    elapsed = time.perf_counter() - t0
    ok = abs(root - 2.0772) <= 1e-3 and elapsed < 1.0
    _verdict(1, "h_lower reproduction", ok,
             f"root={root:.6f} (target 2.0772 +- 1e-3), {elapsed * 1e3:.0f} ms")


def test_criterion_02_phi_products():
    rows = []
    ok = True
    for d in (25, 167, 500, 1000, 2000):
        lo, hi = phi_interval(d)
        rows.append(f"D={d}: lo*D={lo * d:.4f} hi*D={hi * d:.4f}")
        ok &= 0.42 <= lo * d <= 0.46
        ok &= 2.55 <= hi * d <= 2.75
    lo2, hi2 = phi_interval(2)
    ok &= hi2 == 1.0
    ok &= abs(lo2 - 0.21904) <= 0.05 * 0.21904
    rows.append(f"D=2: lo={lo2:.5f} (0.21904 +- 5%), hi={hi2} (clip at 1)")
    _verdict(2, "phi*D invariants", ok, "; ".join(rows))


def test_criterion_03_stepsize_ratio():
    ok = True
    details = []
    # reports across models and fitting factors
    for dim, seed in ((6, 1), (20, 2), (100, 0)):
        model = gaussian_model(gen_wishart_precision(dim, seed=seed))
        report, _ = atune(model, mode="ghmc", n_burnin=400, seed=seed)
        ratio = report.dt_colsi / report.dt_lower
        ok &= abs(ratio - 3.0 / 2.0772) <= 1e-9
        details.append(f"D={dim}: ratio={ratio:.12f}")
    lo, hi = stepsize_interval(57.7)
    inverse_ok = abs(lo - 0.036) <= 0.01 * 0.036 and abs(hi - 0.052) <= 0.01 * 0.052
    ok &= inverse_ok
    details.append(f"CF=57.7 -> ({lo:.4f}, {hi:.4f}) vs (0.036, 0.052)")
    _verdict(3, "step interval ratio", ok, "; ".join(details))


def test_criterion_04_root_identities():
    roots2 = vv_ratio_roots(2)
    roots3 = vv_ratio_roots(3)
    ok = (len(roots2) == 2
          and abs(roots2[0] - 1.0) <= 1e-9
          and abs(roots2[1] - math.sqrt(3.0)) <= 1e-9)
    ok &= any(abs(r - math.sqrt(2.0)) <= 1e-9 for r in roots3)
    ok &= abs(3.0 * roots3[0] - 2.296) <= 1e-3
    vv = build_scheme("vv")
    worst = 0.0
    for h in np.linspace(0.02, 1.98, 100):
        prop = harmonic_propagator(vv, h)
        closed = h**6 / 32.0
        worst = max(worst, abs(closed - 0.5 * (prop.b + prop.c) ** 2))
    ok &= worst <= 1e-12
    _verdict(4, "root identities", ok,
             f"roots2={[round(r, 9) for r in roots2]}, "
             f"3*min(roots3)={3 * roots3[0]:.4f}, max |h^6/32 - propagator|="
             f"{worst:.2e}")


def test_criterion_05_eta_anchor(saia_map):
    h_star = 0.5 * (H_LOWER + 3.0)
    eta = rotation_angle(saia_map.scheme_at(h_star), h_star)
    ok = abs(eta - 2.637354) <= 1e-3
    rounded_ok = True
    for s_f in (1.5, 2.0, 5.0, 1e6):
        rounded = [round(v) for v in l_candidates_from_eta(s_f, eta=eta)]
        rounded_ok &= rounded == [2, 5, 7]
    ok &= rounded_ok
    _verdict(5, "rotation angle anchor", ok,
             f"eta({h_star})={eta:.6f} (target 2.637354 +- 1e-3), "
             f"candidates round to {{2,5,7}}: {rounded_ok}")


def test_criterion_06_sampler_exactness(std_gauss_1d, saia_map):
    # (a) pooled stationarity KS at the 1% level
    lo, hi = phi_interval(1)
    config = SamplerConfig(dt_rule=UniformInterval(H_LOWER, 3.0),
                           l_rule=Fixed(1), phi_rule=UniformInterval(lo, hi),
                           scheme=AdaptiveScheme(1.0, saia_map), seed=77)
    pooled = []
    for chain in range(64):
        theta0 = chain_rng(1234, 500 + chain).standard_normal(1)
        samples, _ = run_chain(std_gauss_1d, config, 200,
                               initial_theta=theta0, chain_index=chain)
        pooled.append(samples[:, 0])
    pooled = np.concatenate(pooled)
    ks = sps.kstest(pooled, "norm").statistic
    ks_crit = 1.62762 / math.sqrt(pooled.size)
    ks_ok = ks < ks_crit

    # (b) Metropolis rate at dH = ln 2
    rng = np.random.default_rng(2024)
    n = 100_000
    rate = sum(metropolis_accept(math.log(2.0), rng) for _ in range(n)) / n
    metro_ok = abs(rate - 0.5) <= 0.01

    # (c) harmonic acceptance vs 2 Phi(-sqrt(E/2))
    h, l = 1.9, 5
    eta = rotation_angle(build_scheme("vv"), h)
    e_l = math.sin(l * eta) ** 2 / math.sin(eta) ** 2 * h**6 / 32.0
    predicted = 2.0 * sps.norm.cdf(-math.sqrt(e_l / 2.0))
    hmc = SamplerConfig(dt_rule=Fixed(h), l_rule=Fixed(l), phi_rule=Fixed(1.0),
                        scheme=build_scheme("vv"), seed=31)
    _, records = run_chain(std_gauss_1d, hmc, 10_000)
    ar_ok = abs(records.acceptance_rate - predicted) <= 0.03

    ok = ks_ok and metro_ok and ar_ok
    _verdict(6, "sampler exactness", ok,
             f"KS={ks:.5f} (crit {ks_crit:.5f}), metropolis(ln2)={rate:.4f}, "
             f"harmonic AR={records.acceptance_rate:.4f} vs {predicted:.4f}")


def test_criterion_07_diagnostics_calibration():
    rng = np.random.default_rng(5)
    n = 100_000
    x = rng.standard_normal(n)
    geyer = ess_geyer(x)
    spectral = ess_ar_spectral(x)
    n_multi = 20_000
    multi = multi_ess(rng.standard_normal((n_multi, 3)))
    iid_ok = (abs(geyer - n) <= 0.15 * n and abs(spectral - n) <= 0.15 * n
              and abs(multi - n_multi) <= 0.15 * n_multi)

    rng_p = np.random.default_rng(6)
    chains = rng_p.standard_normal((4, 10_000, 3))
    _, top = psrf(chains)
    psrf_ok = top < 1.01
    copies = np.repeat(rng.standard_normal((1, 500, 2)), 4, axis=0)
    _, top_same = psrf(copies)
    psrf_ok &= top_same <= 1.0

    rho = 0.5
    ar1 = np.empty(n)
    ar1[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        ar1[t] = rho * ar1[t - 1] + noise[t]
    ess_ar1 = ess_geyer(ar1)
    ar1_ok = abs(ess_ar1 - n / 3.0) <= 0.10 * n / 3.0

    ok = iid_ok and psrf_ok and ar1_ok
    _verdict(7, "diagnostics calibration", ok,
             f"iid ESS geyer/ar/multi = {geyer:.0f}/{spectral:.0f}/{multi:.0f} "
             f"(N={n}/{n}/{n_multi}), maxPSRF iid={top:.4f}, "
             f"identical={top_same:.4f}, AR(1) ESS={ess_ar1:.0f} "
             f"vs N/3={n / 3:.0f}")


@pytest.mark.slow
def test_criterion_08_desk_scale_replication():
    """AT-GHMC vs heuristically randomized HMC on gauss-100, five seeds.

    Protocol (production-after-burn-in): chains start from exact target
    draws; convergence at the relaxed maxPSRF < 1.1 for both samplers; ESS
    via the AR-spectral estimator; metrics over N_conv + 1000 iterations.
    """
    t_start = time.perf_counter()
    n_ghmc, n_hmc = 96_000, 6_000
    wins_mean = wins_multi = computed = 0
    lines = []
    for seed in range(5):
        spec = gen_wishart_precision(100, seed=seed)
        model = gaussian_model(spec, name="g100")
        report, _ = atune(model, mode="ghmc", n_burnin=1500, seed=seed)
        config = config_from_report(report)
        inits = sample_gaussian(spec, 4, chain_rng(seed, 10_000))

        def run_set(cfg, n_iter):
            chains, recs = [], []
            for c in range(4):
                s, r = run_chain(model, cfg, n_iter, initial_theta=inits[c],
                                 chain_index=c)
                chains.append(s)
                recs.append(r)
            return ChainSet(np.stack(chains), recs, stages=3)

        rep_g = diagnose(run_set(config, n_ghmc), statistic="max",
                         threshold=1.1, ess_method="ar")
        hmc = SamplerConfig(
            dt_rule=UniformInterval(report.dt_lower, report.dt_colsi),
            l_rule=DiscreteSet(range(1, 67)),
            phi_rule=Fixed(1.0),
            scheme=config.scheme,
            seed=seed,
        )
        rep_h = diagnose(run_set(hmc, n_hmc), statistic="max",
                         threshold=1.1, ess_method="ar")
        if rep_g.grad_per_mean_ess is None or rep_h.grad_per_mean_ess is None:
            lines.append(f"seed {seed}: unconverged "
                         f"(nG={rep_g.n_conv}, nH={rep_h.n_conv})")
            continue
        computed += 1
        ref_mean = rep_h.grad_per_mean_ess / rep_g.grad_per_mean_ess
        ref_multi = rep_h.grad_per_multi_ess / rep_g.grad_per_multi_ess
        wins_mean += ref_mean >= 2.0
        wins_multi += ref_multi >= 2.0
        lines.append(f"seed {seed}: REF_mean={ref_mean:.2f} "
                     f"REF_multi={ref_multi:.2f} "
                     f"(nG={rep_g.n_conv}, nH={rep_h.n_conv})")
    elapsed = time.perf_counter() - t_start
    time_ok = elapsed < 600.0
    ok = wins_mean >= 4 and wins_multi >= 4 and time_ok
    _verdict(8, "desk-scale sampler comparison", ok,
             f"mean-ESS wins {wins_mean}/5, multi-ESS wins {wins_multi}/5, "
             f"computed {computed}/5, {elapsed:.0f}s; " + "; ".join(lines))


@pytest.mark.slow
def test_criterion_09_sensitivity(tmp_path):
    # tuned-pipeline HMC on the Wishart Gaussian; the production-after-burn-in
    # protocol (warm starts, relaxed threshold) keeps the metric windows
    # comparable across perturbations
    config = RunConfig(
        benchmark="gauss-100",
        mode="hmc",
        n_chains=4,
        n_burnin=1500,
        n_prod=6_000,
        seed=0,
        out_dir=str(tmp_path / "sens"),
        warm_start=True,
        l_range=(1, 66),
        psrf_statistic="max",
        psrf_threshold=1.1,
        ess_method="geyer",
        window=4_000,
    )
    rows = cmd_sensitivity(config, deltas=(-0.05, 0.0, 0.05))
    base = next(r for r in rows if r["delta"] == 0.0)
    ok = base["grad_per_mean_ess"] is not None
    details = []
    for row in rows:
        if row["delta"] == 0.0 or row["grad_per_mean_ess"] is None:
            continue
        change = abs(row["grad_per_mean_ess"] - base["grad_per_mean_ess"]) \
            / base["grad_per_mean_ess"]
        details.append(f"delta={row['delta']:+.0%}: change={change:.1%}")
        ok &= change < 0.25
    ok &= len(details) == 2
    _verdict(9, "h_lower sensitivity", ok,
             f"baseline grad/meanESS={base['grad_per_mean_ess']:.1f}; "
             + "; ".join(details))


def test_criterion_10_reproducibility(tmp_path):
    byte_images = []
    for workers in (1, 4, 8):
        out = tmp_path / f"workers{workers}"
        config = RunConfig(benchmark="gauss-20", mode="ghmc", n_chains=8,
                           n_burnin=300, n_prod=300, seed=11,
                           out_dir=str(out))
        artifacts = cmd_sample(config, workers=workers)
        blob = b"".join((out / p).read_bytes()
                        for p in sorted(artifacts.chain_paths))
        byte_images.append(blob)
    ok = byte_images[0] == byte_images[1] == byte_images[2]
    _verdict(10, "reproducibility across workers", ok,
             f"chain bytes identical for 1/4/8 workers: {ok}")
