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

There is one kernel path, a lock-step engine over (C, D) arrays:
``run_chains`` advances C chains in ticks, each tick one integration step of
every live chain with its own coefficient column (``apply_leg``).  A chain
whose L steps are done takes its Metropolis test, writes its record and
sample row and begins its next iteration before the next tick, so chains
with different L never wait for one another; a chain with all its
iterations done drops out.  The model's row-wise calls give each row what it
gives alone, so every chain is, byte for byte, the chain sampled on its own:
``run_chain`` is ``run_chains`` on one chain, and the burn-in builds and
steps the same engine on one chain, passing its adapted dt to each
``begin``.  The scheme hands the kernel plain (kicks, drifts) coefficient
tuples: a fixed ``SplittingScheme`` its own, ``AdaptiveScheme`` those looked
up from the tabulated s-AIA3 map at each drawn step.
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
    "ChainRecords",
    "chain_rng",
    "check_rule",
    "partial_momentum_update",
    "metropolis_accept",
    "run_chain",
    "run_chains",
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


@dataclass(eq=False)
class _Chain:
    """The per-chain part of a lock-step batch: stream, outputs, iteration.

    ``i`` is the iteration under way, ``potential`` U at the chain's current
    position, and the rest the draws of iteration ``i``: its step size,
    step count, refresh noise, the energy after the refresh, and the
    integration steps still to take.  Without ``samples`` no sample rows
    are kept.
    """

    index: int
    rng: np.random.Generator
    records: ChainRecords
    samples: Optional[np.ndarray] = None
    i: int = 0
    potential: float = 0.0
    dt: float = 0.0
    n_steps: int = 0
    phi: float = 0.0
    h0: float = 0.0
    left: int = 0


class _LockStep:
    """C chains advanced together on (C, D) arrays.

    Row r of every array belongs to ``chains[r]``.  ``theta``, ``p`` and
    ``grad`` hold each chain's position, momentum and gradient; while an
    iteration is under way they are its trajectory, and ``theta0``, ``p0``
    (the refreshed momentum) and ``grad0`` its start, which a rejection
    restores.  Row r of ``coef`` holds chain r's k + 1 kicks and k drifts
    times its step size; ``kicks`` and ``drifts`` are its (C, 1) columns.

    Each ``tick`` takes one integration step on every row.  A chain whose L
    steps are done is ``finish``-ed (Metropolis test and record) and may
    ``begin`` its next iteration before the next tick, so chains with
    different L never wait for one another.  Callers run the methods under
    ``np.errstate(over="ignore", invalid="ignore")``: divergent trajectories
    overflow by design and are rejected.
    """

    def __init__(self, model, config: SamplerConfig, chains: list, starts):
        """A batch at each chain's first state.

        Per chain, theta (unless given in ``starts``), then p, are drawn
        from its stream; U and its gradient at theta are evaluated for all
        chains at once.
        """
        d = model.dimension
        thetas, ps = [], []
        for chain, theta in zip(chains, starts):
            if theta is None:
                theta = chain.rng.standard_normal(d)
            else:
                theta = np.array(theta, dtype=float)
                if theta.shape != (d,):
                    raise ValueError("initial theta has the wrong dimension")
            thetas.append(theta)
            ps.append(chain.rng.standard_normal(d))
        self.model = model
        self.config = config
        self.chains = chains
        self.theta = np.array(thetas)
        self.p = np.array(ps)
        for chain, u in zip(chains, model.potential(self.theta).tolist()):
            chain.potential = u
        self.grad = np.array(model.gradient(self.theta), dtype=float)
        self.theta0 = np.empty_like(self.theta)
        self.p0 = np.empty_like(self.p)
        self.grad0 = np.empty_like(self.grad)
        self.tmp = np.empty_like(self.p)
        self.coef = np.empty((len(chains), 2 * config.scheme.stages + 1))
        self._split_coef()

    def _split_coef(self) -> None:
        columns = [self.coef[:, j:j + 1] for j in range(self.coef.shape[1])]
        k = len(columns) // 2
        self.kicks, self.drifts = columns[:k + 1], columns[k + 1:]

    def _failure(self, r: int, exc: Exception) -> RuntimeError:
        chain = self.chains[r]
        return RuntimeError(f"chain {chain.index} failed at iteration "
                            f"{chain.i}: {exc}")

    def _blame(self, rows, call, exc: Exception) -> RuntimeError:
        """The failure of the first of ``rows`` whose theta fails ``call`` alone.

        A batched model call does not say which row raised; a row-wise
        model gives each row the result it gives alone, so the row that
        raises alone is the one to name.
        """
        if len(rows) > 1:
            for r in rows:
                try:
                    call(self.theta[r])
                except Exception as row_exc:
                    return self._failure(r, row_exc)
        return self._failure(rows[0], exc)

    def begin(self, rows, dt: Optional[float] = None) -> None:
        """Start the next iteration of ``rows``.

        Per chain, draws dt (unless given, as the burn-in gives its adapted
        step), L and phi from its stream, refreshes the momentum and sets
        the coefficients; then saves each row's start.
        """
        config = self.config
        for r in rows:
            chain = self.chains[r]
            rng = chain.rng
            try:
                step = float(config.dt_rule.draw(rng)) if dt is None else dt
                chain.dt = step
                chain.n_steps = chain.left = int(config.l_rule.draw(rng))
                chain.phi = phi = float(config.phi_rule.draw(rng))
                p = partial_momentum_update(self.p[r], phi, rng)
                chain.h0 = chain.potential + 0.5 * float(p @ p)
                kicks, drifts = config.scheme.step_coefficients(step)
                self.coef[r] = [c * step for c in kicks + drifts]
            except Exception as exc:
                raise self._failure(r, exc) from exc
            self.p[r] = p
        every = len(rows) == len(self.chains)
        for start, now in ((self.theta0, self.theta), (self.p0, self.p),
                           (self.grad0, self.grad)):
            if every:
                np.copyto(start, now)
            else:
                start[rows] = now[rows]

    def tick(self) -> list:
        """One integration step on every row; the rows whose L steps are done."""
        try:
            self.grad = apply_leg(self.kicks, self.drifts, self.model,
                                  self.theta, self.p, self.grad, self.tmp)
        except Exception as exc:
            raise self._blame(range(len(self.chains)), self.model.gradient,
                              exc) from exc
        done = []
        for r, chain in enumerate(self.chains):
            chain.left -= 1
            if not chain.left:
                done.append(r)
        return done

    def finish(self, rows: list) -> None:
        """Metropolis test, record and sample of the rows whose L steps are done.

        On acceptance a row keeps the trajectory's end state; on rejection
        it returns to its start with the refreshed momentum negated.  The
        record and the position go to row ``i`` of the chain's records and
        samples, and ``i`` advances; a proposal charges L * k fresh gradient
        evaluations.
        """
        every = len(rows) == len(self.chains)
        theta = self.theta if every else self.theta[rows]
        p = self.p if every else self.p[rows]
        finite = (np.isfinite(theta).all(axis=1)
                  & np.isfinite(p).all(axis=1)).tolist()
        ok = [j for j, flag in enumerate(finite) if flag]
        potential = [math.nan] * len(rows)
        if ok:
            try:
                values = self.model.potential(
                    theta if len(ok) == len(rows) else theta[ok])
            except Exception as exc:
                raise self._blame([rows[j] for j in ok], self.model.potential,
                                  exc) from exc
            for j, u in zip(ok, values.tolist()):
                potential[j] = u
        stages = self.config.scheme.stages
        for r, u_new in zip(rows, potential):
            chain = self.chains[r]
            delta_h = math.inf
            if math.isfinite(u_new):
                p_new = self.p[r]
                delta_h = u_new + 0.5 * float(p_new @ p_new) - chain.h0
            divergent = (not math.isfinite(delta_h)
                         or abs(delta_h) > DIVERGENCE_THRESHOLD)
            if not math.isfinite(delta_h):
                delta_h = math.inf
            accepted = (not divergent) and metropolis_accept(delta_h, chain.rng)
            if accepted:
                chain.potential = u_new
            else:
                self.theta[r] = self.theta0[r]
                self.grad[r] = self.grad0[r]
                np.negative(self.p0[r], out=self.p[r])
            records, i = chain.records, chain.i
            records.accepted[i] = accepted
            records.delta_h[i] = delta_h
            records.n_steps[i] = chain.n_steps
            records.dt[i] = chain.dt
            records.phi[i] = chain.phi
            records.grad_evals[i] = chain.n_steps * stages
            records.divergent[i] = divergent
            if chain.samples is not None:
                chain.samples[i] = self.theta[r]
            chain.i = i + 1

    def drop(self, rows: list) -> None:
        """Remove the rows of chains that have finished their last iteration."""
        keep = [r for r in range(len(self.chains)) if r not in rows]
        self.chains = [self.chains[r] for r in keep]
        for name in ("theta", "p", "grad", "theta0", "p0", "grad0", "tmp",
                     "coef"):
            setattr(self, name, getattr(self, name)[keep])
        self._split_coef()


def run_chains(model, config: SamplerConfig, n_iterations: int, starts,
               chain_indices) -> list:
    """Run chains in lock-step; return one (samples, records) per chain.

    Every chain is, byte for byte, the chain run alone: each draws from its
    own stream in the order of a single chain, and the model's row-wise
    calls give each row the result it gives alone.

    Args:
        model: Target model, row-wise (see ``TargetModel``).
        config: Sampler configuration shared by the chains.
        n_iterations: Number of recorded iterations per chain, at least 1.
        starts: Starting point per chain; None draws a standard normal one
            from the chain's stream.
        chain_indices: Index per chain, keying its stream on
            (``config.seed``, index).

    Returns:
        A list of (samples of shape (n_iterations, D), ChainRecords), in the
        order of ``chain_indices``.

    Raises:
        RuntimeError: A chain failed; the message names the chain's index
            and iteration.
    """
    if n_iterations < 1:
        raise ValueError("need at least one iteration")
    chains = [_Chain(index, chain_rng(config.seed, index),
                     ChainRecords.empty(n_iterations),
                     np.empty((n_iterations, model.dimension)))
              for index in chain_indices]
    batch = _LockStep(model, config, chains, starts)
    with np.errstate(over="ignore", invalid="ignore"):
        batch.begin(range(len(chains)))
        while batch.chains:
            done = batch.tick()
            if not done:
                continue
            batch.finish(done)
            going = [r for r in done if batch.chains[r].i < n_iterations]
            ended = [r for r in done if batch.chains[r].i == n_iterations]
            if going:
                batch.begin(going)
            if ended:
                batch.drop(ended)
    return [(chain.samples, chain.records) for chain in chains]


def run_chain(model, config: SamplerConfig, n_iterations: int,
              initial_theta: Optional[np.ndarray] = None,
              chain_index: int = 0) -> tuple[np.ndarray, ChainRecords]:
    """Run one chain and return (samples, records): ``run_chains`` on one chain.

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
    return run_chains(model, config, n_iterations, [initial_theta],
                      [chain_index])[0]
