"""The tabulated kernel against a reference copy of the per-step kernel.

The reference below is the kernel as it was before coefficient tuples,
in-place records and single-copy legs: one ``SplittingScheme`` built and
validated per iteration, integration one step at a time with theta and p
copied every step, fresh state and record objects per iteration.  Both
consume the chain's Philox stream in the same order and perform the same
floating-point operations, so ``run_chain`` must reproduce its samples and
all seven record arrays byte for byte.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from ghmctune.integrators import SplittingScheme, build_scheme
from ghmctune.models import gaussian_model, gen_wishart_precision
from ghmctune.samplers import (
    DIVERGENCE_THRESHOLD,
    AdaptiveScheme,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    UniformIntRange,
    chain_rng,
    run_chain,
)
from ghmctune.tuning import phi_interval

RECORD_FIELDS = ("accepted", "delta_h", "n_steps", "dt", "phi",
                 "grad_evals", "divergent")


@dataclass
class _State:
    theta: np.ndarray
    p: np.ndarray
    potential: float
    grad: np.ndarray


@dataclass(frozen=True)
class _Record:
    accepted: bool
    delta_h: float
    n_steps: int
    dt: float
    phi: float
    grad_evals: int
    divergent: bool


def _scheme_at(selector, dt: float) -> SplittingScheme:
    if isinstance(selector, SplittingScheme):
        return selector
    assert isinstance(selector, AdaptiveScheme)
    return selector.saia_map.scheme_at(selector.cf * dt)


def _kinetic(p):
    return 0.5 * float(p @ p)


def _step(scheme, model, theta, p, dt, grad):
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    p -= scheme.kicks[0] * dt * grad
    for i, a in enumerate(scheme.drifts):
        theta += a * dt * p
        grad = model.gradient(theta)
        p -= scheme.kicks[i + 1] * dt * grad
    return theta, p, grad, scheme.stages


def _accept(delta_h, rng):
    if math.isnan(delta_h):
        return False
    if delta_h <= 0.0:
        return True
    if delta_h == math.inf:
        return False
    return rng.random() < math.exp(-delta_h)


def _iteration(state, config, model, rng):
    dt = float(config.dt_rule.draw(rng))
    n_steps = int(config.l_rule.draw(rng))
    phi = float(config.phi_rule.draw(rng))
    u = rng.standard_normal(state.p.shape)
    p = math.sqrt(1.0 - phi) * state.p + math.sqrt(phi) * u
    state = _State(state.theta, p, state.potential, state.grad)
    h0 = state.potential + _kinetic(p)

    scheme = _scheme_at(config.scheme, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        theta, p_new, grad, n_evals = state.theta, p, state.grad, 0
        for _ in range(n_steps):
            theta, p_new, grad, n = _step(scheme, model, theta, p_new, dt,
                                          grad)
            n_evals += n
        delta_h = math.inf
        u_new = math.nan
        if np.all(np.isfinite(theta)) and np.all(np.isfinite(p_new)):
            u_new = float(model.potential(theta))
            if math.isfinite(u_new):
                delta_h = u_new + _kinetic(p_new) - h0
    divergent = False
    if not math.isfinite(delta_h) or abs(delta_h) > DIVERGENCE_THRESHOLD:
        divergent = True
        delta_h = math.inf if not math.isfinite(delta_h) else delta_h
    accepted = (not divergent) and _accept(delta_h, rng)
    if accepted:
        new_state = _State(theta, p_new, u_new, grad)
    else:
        new_state = _State(state.theta, -state.p, state.potential, state.grad)
    return new_state, _Record(accepted, delta_h, n_steps, dt, phi, n_evals,
                              divergent)


def _reference_chain(model, config, n_iterations, initial_theta=None,
                     chain_index=0):
    rng = chain_rng(config.seed, chain_index)
    if initial_theta is None:
        theta = rng.standard_normal(model.dimension)
    else:
        theta = np.array(initial_theta, dtype=float)
    p = rng.standard_normal(model.dimension)
    state = _State(theta, p, float(model.potential(theta)),
                   np.asarray(model.gradient(theta), dtype=float))
    samples = np.empty((n_iterations, model.dimension))
    records = []
    for i in range(n_iterations):
        state, rec = _iteration(state, config, model, rng)
        samples[i] = state.theta
        records.append(rec)
    columns = {
        "accepted": np.array([r.accepted for r in records], dtype=bool),
        "delta_h": np.array([r.delta_h for r in records], dtype=float),
        "n_steps": np.array([r.n_steps for r in records], dtype=np.int64),
        "dt": np.array([r.dt for r in records], dtype=float),
        "phi": np.array([r.phi for r in records], dtype=float),
        "grad_evals": np.array([r.grad_evals for r in records], dtype=np.int64),
        "divergent": np.array([r.divergent for r in records], dtype=bool),
    }
    return samples, columns


@pytest.fixture(scope="module")
def gauss8():
    return gaussian_model(gen_wishart_precision(8, seed=5), name="gauss-8")


def _adaptive(saia_map, cf=6.0):
    return AdaptiveScheme(cf, saia_map)


def _dt_interval(cf=6.0):
    return UniformInterval(2.0772 / cf, 3.0 / cf)


def _phi():
    return UniformInterval(*phi_interval(8))


CASES = {
    "adaptive-ghmc-l1": lambda m: dict(
        mode="ghmc", dt_rule=_dt_interval(), l_rule=Fixed(1),
        phi_rule=_phi(), scheme=_adaptive(m), seed=3),
    "hmc-uniform-l-1-66": lambda m: dict(
        mode="hmc", dt_rule=_dt_interval(), l_rule=UniformIntRange(1, 66),
        scheme=_adaptive(m), seed=4),
    "ghmc-discrete-set": lambda m: dict(
        mode="ghmc", dt_rule=_dt_interval(), l_rule=DiscreteSet((2, 5, 7)),
        phi_rule=_phi(), scheme=_adaptive(m), seed=5),
    "fixed-bcss3": lambda m: dict(
        mode="ghmc", dt_rule=UniformInterval(0.5, 0.9), l_rule=Fixed(3),
        phi_rule=Fixed(0.3), scheme=build_scheme("bcss3"), seed=7),
    "divergent-steps": lambda m: dict(
        mode="hmc", dt_rule=UniformInterval(0.2, 0.8),
        l_rule=UniformIntRange(1, 12), scheme=build_scheme("vv"), seed=8),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_chain_matches_reference_bytes(case, gauss8, saia_map):
    config = SamplerConfig(**CASES[case](saia_map))
    n = 300
    for chain_index, init in ((0, None), (2, np.full(8, 0.3))):
        samples, records = run_chain(gauss8, config, n, initial_theta=init,
                                     chain_index=chain_index)
        ref_samples, ref_records = _reference_chain(
            gauss8, config, n, initial_theta=init, chain_index=chain_index)
        assert samples.dtype == ref_samples.dtype
        assert samples.tobytes() == ref_samples.tobytes()
        for field in RECORD_FIELDS:
            got, want = getattr(records, field), ref_records[field]
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        if case == "divergent-steps":
            assert 0 < records.divergent.sum() < n
