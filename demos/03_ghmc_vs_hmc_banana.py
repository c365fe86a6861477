"""Adaptively tuned GHMC against plain HMC on the banana posterior.

The two-dimensional banana target has strongly curved level sets; the tuned
refresh-noise interval for D = 2 clips at 1 from above.  Both samplers run
multiple chains and are scored with grad/ESS metrics at a relaxed
convergence threshold suitable for short desk-scale runs.
"""

import numpy as np

from ghmctune.diagnostics import ChainSet, diagnose, ref_metric
from ghmctune.models import banana_model, make_banana_spec
from ghmctune.samplers import Fixed, SamplerConfig, UniformIntRange, run_chain
from ghmctune.tuning import atune, config_from_report

SEED = 1
model = banana_model(make_banana_spec(100, seed=SEED))
print("target: banana posterior, D = 2, 100 observations")

report, stats = atune(model, mode="ghmc", n_burnin=2000, seed=SEED)
ghmc_config = config_from_report(report)
print(f"\ntuned settings: S_f={report.s_f:.3f}, "
      f"dt in ({report.dt_lower:.4f}, {report.dt_colsi:.4f}), "
      f"phi in ({report.phi_lower:.4f}, {report.phi_upper:.4f}), "
      f"L rule = {report.l_fixed or report.l_choices}")

N_PROD = 12_000
N_CHAINS = 4


def run_set(config):
    chains, recs = [], []
    for c in range(N_CHAINS):
        s, r = run_chain(model, config, N_PROD, chain_index=c)
        chains.append(s)
        recs.append(r)
    return ChainSet(np.stack(chains), recs, stages=config.scheme.stages)


print(f"\nrunning {N_CHAINS} chains x {N_PROD} iterations per sampler...")
ghmc_set = run_set(ghmc_config)
hmc_config = SamplerConfig(
    mode="hmc",
    dt_rule=ghmc_config.dt_rule,
    l_rule=UniformIntRange(1, 7),
    phi_rule=Fixed(1.0),
    scheme=ghmc_config.scheme,
    seed=SEED,
)
hmc_set = run_set(hmc_config)

ghmc_diag = diagnose(ghmc_set, window=1000, threshold=1.1)
hmc_diag = diagnose(hmc_set, window=1000, threshold=1.1)

print(f"\n{'':>22} {'AT-GHMC':>12} {'HMC':>12}")
print(f"{'acceptance rate':>22} {ghmc_set.records[0].acceptance_rate:>12.3f} "
      f"{hmc_set.records[0].acceptance_rate:>12.3f}")
print(f"{'N_conv (maxPSRF<1.1)':>22} {str(ghmc_diag.n_conv):>12} "
      f"{str(hmc_diag.n_conv):>12}")
for key in ("grad", "ess_min", "ess_mean", "ess_multi",
            "grad_per_min_ess", "grad_per_mean_ess", "grad_per_multi_ess"):
    g, h = getattr(ghmc_diag, key), getattr(hmc_diag, key)
    if g is None or h is None:
        continue
    print(f"{key:>22} {g:>12.1f} {h:>12.1f}")

if ghmc_diag.grad_per_mean_ess and hmc_diag.grad_per_mean_ess:
    print("\nrelative efficiency of AT-GHMC over HMC (REF > 1 favours GHMC):")
    for flavour in ("min", "mean", "multi"):
        g = getattr(ghmc_diag, f"grad_per_{flavour}_ess")
        h = getattr(hmc_diag, f"grad_per_{flavour}_ess")
        print(f"  {flavour + 'ESS':>9}: {ref_metric(g, h):.2f}x")
