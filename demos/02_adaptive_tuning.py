"""The adaptive tuning pipeline end to end on a Wishart Gaussian.

A short velocity-Verlet burn-in with on-the-fly step adaptation feeds the
analysis stage: fitting factor, dimensionalization factor, and the three
production randomization intervals (step size, refresh noise, trajectory
length).  The refresh-noise interval depends on the dimension alone, which
the last section demonstrates across model sizes.
"""

import numpy as np

from ghmctune.models import gaussian_model, gen_wishart_precision
from ghmctune.samplers import run_chain
from ghmctune.tuning import atune, config_from_report, phi_interval

D = 25
SEED = 7

spec = gen_wishart_precision(D, seed=SEED)
model = gaussian_model(spec, name=f"gauss-{D}")
omegas = np.sqrt(np.linalg.eigvalsh(spec.precision))
print(f"target: {D}-dimensional Gaussian, precision ~ Wishart(I, {D})")
print(f"frequency range: [{omegas.min():.3f}, {omegas.max():.3f}], "
      f"std {omegas.std():.3f}")

print("\n=== burn-in + analysis ===")
report, stats = atune(model, mode="ghmc", n_burnin=1500, seed=SEED)
config = config_from_report(report)
print(f"burn-in acceptance rate:     {stats.ar:.3f}")
print(f"final burn-in step size:     {stats.dt_vv:.5f}")
print(f"mean |dH| in the window:     {stats.energy_error:.4f}")
print(f"fitting factor S_f:          {report.s_f:.4f}  (mode {report.fitting_mode})")
print(f"dimensionalization CF:       {report.cf:.4f}")
print(f"step interval:               ({report.dt_lower:.5f}, {report.dt_colsi:.5f})")
print(f"  ratio (always 3/2.0772):   {report.dt_colsi / report.dt_lower:.6f}")
print(f"refresh noise interval:      ({report.phi_lower:.5f}, {report.phi_upper:.5f})")
l_desc = report.l_fixed if report.l_fixed is not None else report.l_choices
print(f"trajectory length rule:      {l_desc}")

print("\n=== a short production run with the emitted settings ===")
# start at an exact draw: production follows burn-in, so chains begin warm
from ghmctune.models import sample_gaussian
from ghmctune.samplers import chain_rng

theta0 = sample_gaussian(spec, 1, chain_rng(SEED, 999))[0]
samples, records = run_chain(model, config, 12_000, initial_theta=theta0,
                             chain_index=0)
print(f"production acceptance rate:  {records.acceptance_rate:.3f}")
print(f"gradient evaluations:        {records.total_grads()} "
      f"(= iterations x L x 3 stages)")
h_drawn = report.cf * records.dt
print(f"dimensionless steps drawn:   [{h_drawn.min():.4f}, {h_drawn.max():.4f}] "
      "(inside (2.0772, 3))")
# check stationarity mode by mode: effective sample sizes grow with the
# mode frequency, and the variance ratio to the exact value tracks them
from ghmctune.diagnostics import ess_geyer

eigvals, eigvecs = np.linalg.eigh(spec.precision)
modes = samples @ eigvecs
mode_var = modes.var(axis=0) * eigvals  # ratio to the exact variance 1/lambda
print(f"{'mode':>5} {'omega':>8} {'var ratio':>10} {'ESS':>8}")
for i in (0, 2, D // 2, D - 1):
    print(f"{i:>5} {np.sqrt(eigvals[i]):>8.3f} {mode_var[i]:>10.3f} "
          f"{ess_geyer(modes[:, i]):>8.0f}")
print("the slowest mode carries few effective samples at this chain length;"
      "\nits variance estimate tightens only with far longer runs")

print("\n=== the refresh-noise interval only needs the dimension ===")
print(f"{'D':>6} {'phi_lower':>12} {'phi_upper':>12} {'lower*D':>9} {'upper*D':>9}")
for d in (2, 25, 100, 500, 1000, 2000):
    lo, hi = phi_interval(d)
    print(f"{d:>6} {lo:>12.6f} {hi:>12.6f} {lo * d:>9.4f} {hi * d:>9.4f}")
print("the products are pipeline constants unless an endpoint clips at 1")
