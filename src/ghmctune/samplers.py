"""HMC and GHMC Markov chain kernels.

One iteration performs a (partial) momentum refresh, integrates the
Hamiltonian dynamics for L steps of size dt with a splitting scheme, applies
the Metropolis test on the energy error, and on rejection keeps the position
while negating the momentum.  Full refresh (phi = 1) makes the momentum flip
irrelevant and recovers standard HMC, so the kernel has no mode: an HMC chain
is a GHMC chain whose phi rule is Fixed(1.0).

Per-iteration hyperparameters (dt, L, phi) are drawn independently from
configurable rules.  Every chain owns a private counter-based random stream
derived from (seed, chain_index), which makes multi-chain runs reproducible
regardless of scheduling:

    rng = Generator(Philox(SeedSequence(entropy=seed, spawn_key=(chain,))))

Within an iteration the stream is consumed in a fixed order: dt draw, L draw,
phi draw (when randomized), refresh noise, acceptance uniform.

An iteration does only these draws, numpy arithmetic and model calls.  The
integrator hands the kernel plain (kicks, drifts) coefficient tuples: a fixed
``SplittingScheme`` its own, ``AdaptiveScheme`` those looked up from the
tabulated s-AIA3 map at each drawn step; the iteration updates one
``ChainState`` per chain in place and writes its record straight into row i
of the chain's ``ChainRecords``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .integrators import apply_leg
from .saia import SAIA3Map

__all__ = [
    "Fixed",
    "UniformInterval",
    "DiscreteSet",
    "AdaptiveScheme",
    "SamplerConfig",
    "ChainState",
    "ChainRecords",
    "chain_rng",
    "check_rule",
    "partial_momentum_update",
    "metropolis_accept",
    "ghmc_iteration",
    "run_chain",
]

# Proposals with |dH| above this (or any non-finite quantity) count as
# divergent and are rejected outright.
DIVERGENCE_THRESHOLD = 1000.0


# ---------------------------------------------------------------------------
# Draw rules


@dataclass(frozen=True)
class Fixed:
    value: float

    def draw(self, rng):
        return self.value

    @property
    def mean(self):
        return self.value


@dataclass(frozen=True)
class UniformInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper):
            raise ValueError(f"need 0 < lower <= upper, got ({self.lower}, {self.upper})")

    def draw(self, rng):
        return self.lower + (self.upper - self.lower) * rng.random()

    @property
    def mean(self):
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class DiscreteSet:
    """Equal-probability draw from a fixed set of integers."""

    values: tuple

    def __post_init__(self):
        given = tuple(self.values)
        vals = tuple(int(v) for v in given)
        if not vals or any(v < 1 for v in vals) or vals != given:
            raise ValueError("values must be positive integers")
        object.__setattr__(self, "values", vals)

    def draw(self, rng):
        return self.values[int(rng.integers(0, len(self.values)))]

    @property
    def mean(self):
        return sum(self.values) / len(self.values)


# ---------------------------------------------------------------------------
# Adaptive scheme


# The kernel takes any scheme that maps the drawn step size to the
# (kicks, drifts) coefficient tuples of one integration step with
# ``step_coefficients(dt)`` and reports the gradient evaluations per step as
# ``stages``: a fixed ``SplittingScheme`` or the adaptive scheme below.


@dataclass(frozen=True)
class AdaptiveScheme:
    """Per-draw coefficients looked up at the dimensionless step h = cf * dt.

    The tuples are those of ``SplittingScheme.three_stage(b, a)`` with
    (b, a) interpolated from the map, which validated every node when it was
    built or loaded; the map raises ``OutOfStabilityError`` for an h outside
    its grid.
    """

    cf: float
    saia_map: SAIA3Map
    stages = 3  # not a field: every s-AIA3 step has three stages

    def step_coefficients(self, dt: float) -> tuple[tuple, tuple]:
        b, a = self.saia_map.coefficients(self.cf * dt)
        return (b, 0.5 - b, 0.5 - b, b), (a, 1.0 - 2.0 * a, a)


# ---------------------------------------------------------------------------
# Configuration and state


@dataclass(frozen=True)
class SamplerConfig:
    """Everything one chain needs apart from the model and iteration count.

    Attributes:
        dt_rule: Draw rule for the dimensional step size.
        l_rule: Draw rule for the number of integration steps per iteration.
        phi_rule: Draw rule for the refresh noise in (0, 1]; Fixed(1.0) is HMC.
        scheme: A ``SplittingScheme`` or an ``AdaptiveScheme``, or any
            object with a ``step_coefficients(dt)`` method and ``stages``.
        seed: Root seed; chains split private streams off it.
    """

    dt_rule: Union[Fixed, UniformInterval]
    l_rule: Union[Fixed, DiscreteSet]
    phi_rule: Union[Fixed, UniformInterval]
    scheme: object
    seed: int = 0

    def __post_init__(self):
        if not hasattr(self.scheme, "step_coefficients"):
            raise ValueError("scheme must be a SplittingScheme or an AdaptiveScheme")
        for quantity in ("dt", "l", "phi"):
            check_rule(quantity, getattr(self, f"{quantity}_rule"))


def check_rule(quantity: str, rule) -> None:
    """Raise ValueError if ``rule`` can draw an invalid "dt", "l" or "phi".

    Interval and set rules check their own bounds when built.
    """
    if quantity == "dt" and isinstance(rule, Fixed) and not rule.value > 0.0:
        raise ValueError("step size must be positive")
    if quantity == "l" and isinstance(rule, Fixed) and not (
            rule.value >= 1 and rule.value % 1 == 0):
        raise ValueError("L must be a whole number, at least 1")
    if quantity == "phi":
        if isinstance(rule, Fixed) and not 0.0 < rule.value <= 1.0:
            raise ValueError("phi must lie in (0, 1]")
        if isinstance(rule, UniformInterval) and rule.upper > 1.0:
            raise ValueError("phi interval must be contained in (0, 1]")


@dataclass
class ChainState:
    """Current position, momentum, and cached potential/gradient of one chain.

    ``ghmc_iteration`` updates it in place.
    """

    theta: np.ndarray
    p: np.ndarray
    potential: float
    grad: np.ndarray


@dataclass
class ChainRecords:
    """Per-iteration records of one chain, stored as flat arrays."""

    accepted: np.ndarray
    delta_h: np.ndarray
    n_steps: np.ndarray
    dt: np.ndarray
    phi: np.ndarray
    grad_evals: np.ndarray
    divergent: np.ndarray

    @staticmethod
    def empty(n: int) -> "ChainRecords":
        return ChainRecords(
            accepted=np.zeros(n, dtype=bool),
            delta_h=np.zeros(n),
            n_steps=np.zeros(n, dtype=np.int64),
            dt=np.zeros(n),
            phi=np.zeros(n),
            grad_evals=np.zeros(n, dtype=np.int64),
            divergent=np.zeros(n, dtype=bool),
        )

    def __len__(self) -> int:
        return len(self.accepted)

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accepted))

    def total_grads(self, upto: int | None = None) -> int:
        return int(np.sum(self.grad_evals[:upto]))

    def mean_l(self, upto: int | None = None) -> float:
        return float(np.mean(self.n_steps[:upto]))


def chain_rng(seed: int, chain_index: int = 0) -> np.random.Generator:
    """Private counter-based stream for one chain, keyed by (seed, chain)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chain_index,))
    return np.random.Generator(np.random.Philox(ss))


# ---------------------------------------------------------------------------
# Kernel pieces


def partial_momentum_update(p: np.ndarray, phi: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Mix the momentum with fresh Gaussian noise.

    p' = sqrt(1 - phi) p + sqrt(phi) u with u ~ N(0, I).  phi = 1 discards
    the old momentum entirely (standard HMC refresh); the orthogonal mixing
    leaves N(0, I) invariant for any phi in (0, 1].
    """
    if not 0.0 < phi <= 1.0:
        raise ValueError(f"phi must lie in (0, 1], got {phi}")
    u = rng.standard_normal(p.shape)
    return math.sqrt(1.0 - phi) * p + math.sqrt(phi) * u


def metropolis_accept(delta_h: float, rng: np.random.Generator) -> bool:
    """Accept with probability min(1, exp(-delta_h)); divergence rejects."""
    if math.isnan(delta_h):
        return False
    if delta_h <= 0.0:
        return True
    if delta_h == math.inf:
        return False
    return rng.random() < math.exp(-delta_h)


def ghmc_iteration(state: ChainState, dt: float, config: SamplerConfig, model,
                   rng: np.random.Generator, records: ChainRecords,
                   i: int) -> None:
    """One momentum-refresh / integrate / Metropolis-test cycle at step dt.

    The caller draws ``dt`` (the first draw of the iteration) or, during the
    burn-in, passes its adapted step.  On acceptance the integrated state is
    adopted as-is; on rejection the position is kept and the momentum
    negated.  ``state`` is updated in place and the iteration's record is
    written to row ``i`` of ``records``.  The proposal charges L * k fresh
    gradient evaluations (touching end-kicks of consecutive steps share one;
    the leading kick reuses the gradient cached in the state).
    """
    n_steps = int(config.l_rule.draw(rng))
    phi = float(config.phi_rule.draw(rng))

    p = partial_momentum_update(state.p, phi, rng)
    h0 = state.potential + 0.5 * float(p @ p)

    kicks, drifts = config.scheme.step_coefficients(dt)
    # divergent trajectories overflow by design and are rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        theta, p_new, grad, n_evals = apply_leg(
            kicks, drifts, model, state.theta, p, dt, n_steps, state.grad
        )
        delta_h = math.inf
        u_new = math.nan
        if np.isfinite(theta).all() and np.isfinite(p_new).all():
            u_new = float(model.potential(theta))
            if math.isfinite(u_new):
                delta_h = u_new + 0.5 * float(p_new @ p_new) - h0
    divergent = not math.isfinite(delta_h) or abs(delta_h) > DIVERGENCE_THRESHOLD
    if not math.isfinite(delta_h):
        delta_h = math.inf

    accepted = (not divergent) and metropolis_accept(delta_h, rng)
    if accepted:
        state.theta = theta
        state.p = p_new
        state.potential = u_new
        state.grad = grad
    else:
        state.p = np.negative(p, out=p)  # p is the refresh's own new array
    records.accepted[i] = accepted
    records.delta_h[i] = delta_h
    records.n_steps[i] = n_steps
    records.dt[i] = dt
    records.phi[i] = phi
    records.grad_evals[i] = n_evals
    records.divergent[i] = divergent


def _start_state(model, rng: np.random.Generator,
                 theta: Optional[np.ndarray] = None) -> ChainState:
    """First state: theta (unless given), then p, drawn from ``rng``."""
    d = model.dimension
    if theta is None:
        theta = rng.standard_normal(d)
    else:
        theta = np.array(theta, dtype=float)
        if theta.shape != (d,):
            raise ValueError("initial theta has the wrong dimension")
    p = rng.standard_normal(d)
    return ChainState(theta, p, float(model.potential(theta)),
                      np.asarray(model.gradient(theta), dtype=float))


def run_chain(model, config: SamplerConfig, n_iterations: int,
              initial_theta: Optional[np.ndarray] = None,
              chain_index: int = 0) -> tuple[np.ndarray, ChainRecords]:
    """Run one chain and return (samples, records).

    Args:
        model: Target model.
        config: Sampler configuration (the rng stream is derived from
            ``config.seed`` and ``chain_index``).
        n_iterations: Number of recorded iterations, at least 1.
        initial_theta: Starting point; a standard normal draw from the chain
            stream when omitted.
        chain_index: Index used to split the chain's private random stream.

    Returns:
        samples: Array of shape (n_iterations, D).
        records: Per-iteration ChainRecords.
    """
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    rng = chain_rng(config.seed, chain_index)
    state = _start_state(model, rng, initial_theta)
    samples = np.empty((n_iterations, model.dimension))
    records = ChainRecords.empty(n_iterations)
    draw_dt = config.dt_rule.draw
    for i in range(n_iterations):
        try:
            ghmc_iteration(state, float(draw_dt(rng)), config, model, rng,
                           records, i)
        except Exception as exc:
            raise RuntimeError(f"chain {chain_index} failed at iteration {i}: {exc}") from exc
        samples[i] = state.theta
    return samples, records
