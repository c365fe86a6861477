"""HMC and GHMC sampling with multi-stage splitting integrators and
adaptive hyperparameter tuning.

The package splits into target models (:mod:`ghmctune.models`), integrator
algebra (:mod:`ghmctune.integrators`, :mod:`ghmctune.saia`), chain kernels
(:mod:`ghmctune.samplers`), the tuning pipeline (:mod:`ghmctune.tuning`),
convergence metrics (:mod:`ghmctune.diagnostics`) and the benchmark harness
(:mod:`ghmctune.bench`, CLI in :mod:`ghmctune.cli`).
"""

from .models import (
    BananaSpec,
    BlrDataset,
    GaussianSpec,
    TargetModel,
    banana_model,
    blr_model,
    gaussian_model,
    gen_wishart_precision,
    load_dataset,
    make_banana_spec,
    make_synthetic_blr,
)
from .integrators import (
    H_COLSI3,
    H_LOWER,
    SplittingScheme,
    build_scheme,
    expected_energy_error_vv,
    find_h_lower,
    harmonic_propagator,
    lambda_k,
    rho3,
    rotation_angle,
    stability_interval,
    vv_ratio_roots,
)
from .saia import SAIA3Map, build_saia3_map, default_map
from .samplers import (
    AdaptiveScheme,
    ChainRecords,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    UniformIntRange,
    chain_rng,
    ghmc_iteration,
    metropolis_accept,
    partial_momentum_update,
    run_chain,
)
from .tuning import (
    BurninStats,
    TuningReport,
    atune,
    collect_frequencies,
    config_from_report,
    dimensionalization_factor,
    fitting_factor,
    l_candidates_from_eta,
    l_scheme,
    phi_interval,
    phi_opt,
    produce_settings,
    run_burnin,
    stepsize_interval,
)
from .diagnostics import (
    ChainSet,
    DiagnosticsReport,
    diagnose,
    ess_univariate,
    find_n_conv,
    multi_ess,
    psrf,
    ref_metric,
)

__version__ = "0.1.0"
