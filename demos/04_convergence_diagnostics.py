"""Convergence and efficiency metrics on controlled inputs.

Shows the two univariate effective-sample-size estimators against analytic
AR(1) values, the multivariate determinant-based ESS, the Brooks-Gelman
potential scale reduction factor on converged and unconverged chain sets,
the convergence-length scan and the relative efficiency factor.
"""

import math

import numpy as np

from ghmctune.diagnostics import (
    ess_ar_spectral,
    ess_geyer,
    find_n_conv,
    multi_ess,
    psrf,
    ref_metric,
)

rng = np.random.default_rng(0)
N = 50_000

print("=== univariate ESS on AR(1) chains, analytic ESS = N (1-rho)/(1+rho) ===")
print(f"{'rho':>6} {'analytic':>10} {'geyer':>10} {'ar-spectral':>12}")
for rho in (0.0, 0.3, 0.5, 0.8):
    x = np.empty(N)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(N) * math.sqrt(1 - rho * rho)
    for t in range(1, N):
        x[t] = rho * x[t - 1] + noise[t]
    analytic = N * (1 - rho) / (1 + rho)
    print(f"{rho:>6.1f} {analytic:>10.0f} {ess_geyer(x):>10.0f} "
          f"{ess_ar_spectral(x):>12.0f}")

print("\n=== multivariate ESS (batch-means determinant ratio) ===")
iid = rng.standard_normal((20_000, 4))
print(f"i.i.d. 4-dimensional, N=20000:  multiESS = {multi_ess(iid):.0f}")

print("\n=== potential scale reduction factor ===")
good = rng.standard_normal((4, 5_000, 3))
per_dim, top = psrf(good)
print(f"4 stationary chains:        maxPSRF = {top:.4f}")
bad = good.copy()
bad += 3.0 * np.arange(4)[:, None, None]
_, top_bad = psrf(bad)
print(f"4 chains with shifted means: maxPSRF = {top_bad:.3f}")

print("\n=== convergence length on a geometric checkpoint grid ===")
drift = np.linspace(0.5, 0.0, 100)
chains = rng.standard_normal((4, 6_000, 2))
chains[:, :100, :] += drift[None, :, None] * (1 + np.arange(4))[:, None, None]
n_max = find_n_conv(chains, statistic="max")
n_avg = find_n_conv(chains, statistic="avg")
print(f"chains forget distinct starting offsets: N_conv(max) = {n_max}, "
      f"N_conv(avg) = {n_avg}")

print("\n=== relative efficiency of two samplers' grad/ESS ===")
better, worse = 120.0, 300.0
print(f"relative efficiency factor of the cheaper sampler: "
      f"{ref_metric(better, worse):.2f}x")
