"""Adaptive tuning of HMC/GHMC hyperparameters from a burn-in run.

The pipeline runs a one-stage velocity Verlet burn-in with L = 1 and a step
size adapted on the fly towards a target acceptance rate, then converts the
collected statistics into production settings:

* a fitting factor quantifying anharmonicity of the target,
* a dimensionalization factor CF mapping dimensionless step sizes to
  dimensional ones (h = CF * dt),
* the step-size randomization interval (h_lower / CF, 3 / CF) with
  h_lower = 2.0772, the local maximum of the three-stage energy-error bound
  at the BCSS3 coefficient,
* the refresh-noise randomization interval derived from the target dimension
  alone (GHMC only),
* the trajectory-length rule: L = 1 for near-harmonic targets, otherwise a
  uniform draw from {2, 5, 7},
* the adaptive three-stage integrator with coefficients looked up per drawn
  step size.

Production runs then use these settings unchanged; no further adaptation
takes place.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, asdict, fields
from typing import Optional

import numpy as np

from . import integrators
from .integrators import H_COLSI3, H_LOWER, lambda_k, rotation_angle
from .saia import default_map
from .samplers import (
    AdaptiveScheme,
    ChainRecords,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    _Chain,
    _LockStep,
    chain_rng,
    check_rule,
)

__all__ = [
    "TuningError",
    "BurninStats",
    "TuningReport",
    "adapt_step_size",
    "run_burnin",
    "collect_frequencies",
    "fitting_factor",
    "dimensionalization_factor",
    "stepsize_interval",
    "phi_opt",
    "phi_interval",
    "l_scheme",
    "l_candidates_from_eta",
    "eta_at_interval_midpoint",
    "produce_settings",
    "config_from_report",
    "atune",
]

# Expected acceptance probability of the refreshed momentum used in the
# optimal-noise formula.
_PHI_LOG_ALPHA = -math.log(0.999)

_AR_TARGET_DEFAULT = 0.95
_AR_WINDOW = 40  # burn-in iterations in the step size's acceptance estimate
# Central-difference step scale: cbrt(machine eps) balances truncation and
# round-off error for second-order differences.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


class TuningError(RuntimeError):
    pass


@dataclass(frozen=True)
class BurninStats:
    """Summary of a burn-in run used by the tuning pipeline.

    Attributes:
        dimension: Target dimension D.
        ar: Acceptance rate over the measurement window.
        dt_vv: Final adapted step size.
        energy_error: Mean |dH| over the measurement window.
        omegas: Averaged frequency spectrum (``collect_frequencies``), kept
            sorted; the properties ``omega_max`` (its last entry) and
            ``omega_std`` (its standard deviation) derive from it.
        n_iterations: Burn-in length.
        n_divergent: Divergent proposals seen during burn-in.
        n_clamped: Negative Hessian eigenvalues clamped to zero.
    """

    dimension: int
    ar: float
    dt_vv: float
    energy_error: float
    omegas: np.ndarray
    n_iterations: int
    n_divergent: int = 0
    n_clamped: int = 0

    def __post_init__(self):
        if not 0.0 <= self.ar <= 1.0:
            raise ValueError("acceptance rate must lie in [0, 1]")
        if self.dt_vv <= 0:
            raise ValueError("dt_vv must be positive")
        object.__setattr__(self, "omegas",
                           np.sort(np.asarray(self.omegas, dtype=float)))

    @property
    def omega_max(self) -> float:
        return float(self.omegas[-1])

    @property
    def omega_std(self) -> float:
        return float(np.std(self.omegas))


def adapt_step_size(ar_estimate: float, dt: float, target_ar: float,
                    gain: float) -> float:
    """Multiplicative stochastic-approximation update of the step size.

    dt <- dt * exp(gain * (ar_estimate - target_ar)); the caller shrinks the
    gain like 1/sqrt(t) over the burn-in.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0.0 < target_ar < 1.0:
        raise ValueError("target acceptance rate must lie in (0, 1)")
    return dt * math.exp(gain * (ar_estimate - target_ar))


def run_burnin(model, n_burnin: int, mode: str = "ghmc",
               target_ar: float = _AR_TARGET_DEFAULT,
               seed: int = 0,
               h_lower: float = H_LOWER):
    """Run the adaptation burn-in and collect tuning statistics.

    One-stage velocity Verlet with L = 1 throughout, starting from the step
    1/sqrt(D) and adapting it to the acceptance rate of the last
    ``_AR_WINDOW`` iterations with gain 1/sqrt(t); in GHMC mode the
    momentum refresh noise is drawn from the dimension-derived interval (it
    needs nothing besides D, so it is available before the burn-in starts).
    The acceptance rate and mean |dH| are measured over the second half of
    the run, after the step-size adaptation has mostly settled; so is the
    frequency spectrum (``collect_frequencies``).

    Returns:
        (stats, samples): BurninStats plus the burn-in positions, shape
        (n_burnin, D).

    Raises:
        TuningError: When nothing was accepted in the measurement window,
            which indicates a far too large initial step size.
    """
    if n_burnin < 100:
        raise ValueError("burn-in needs at least 100 iterations")
    d = model.dimension
    if mode == "ghmc":
        lo, hi = phi_interval(d, h_lower=h_lower)
        phi_rule = UniformInterval(lo, hi)
    elif mode == "hmc":
        phi_rule = Fixed(1.0)
    else:
        raise ValueError("mode must be 'hmc' or 'ghmc'")

    dt = 1.0 / math.sqrt(d)
    # the loop passes its adapted dt to every iteration; dt_rule is unused
    config = SamplerConfig(
        dt_rule=Fixed(dt),
        l_rule=Fixed(1),
        phi_rule=phi_rule,
        scheme=integrators.build_scheme("vv"),
        seed=seed,
    )
    samples = np.empty((n_burnin, d))
    records = ChainRecords.empty(n_burnin)
    batch = _LockStep(model, config,
                      [_Chain(0, chain_rng(seed, 0), records, samples)], [None])
    window = []
    # divergent trajectories overflow by design and are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, n_burnin + 1):
            batch.begin([0], dt)
            batch.tick()  # L = 1: one step ends the iteration
            batch.finish([0])
            if records.divergent[t - 1]:
                dt = max(dt * 0.5, 1e-12)
                window.clear()
                continue
            window.append(1.0 if records.accepted[t - 1] else 0.0)
            if len(window) > _AR_WINDOW:
                window.pop(0)
            dt = adapt_step_size(float(np.mean(window)), dt, target_ar,
                                 1.0 / math.sqrt(t))

    half = n_burnin // 2
    ar = float(np.mean(records.accepted[half:]))
    if ar == 0.0:
        raise TuningError(
            "no accepted proposals in the burn-in measurement window; "
            "restart with a smaller initial step size"
        )
    # divergent proposals carry no energy-error information
    kept = ~records.divergent[half:]
    energy_error = float(np.mean(np.abs(records.delta_h[half:][kept])))

    omegas, n_clamped = collect_frequencies(model, samples[half:])
    stats = BurninStats(
        dimension=d,
        ar=ar,
        dt_vv=dt,
        energy_error=energy_error,
        omegas=omegas,
        n_iterations=n_burnin,
        n_divergent=int(records.divergent.sum()),
        n_clamped=n_clamped,
    )
    return stats, samples


def _gradient_difference_hessian(gradient, theta: np.ndarray) -> np.ndarray:
    """Central differences of ``gradient`` at ``theta``, symmetrised.

    Component i steps by cbrt(eps) * max(1, |theta_i|).  One row-wise
    gradient call on the 2 D shifted points: row i is theta + step_i e_i and
    row D + i theta - step_i e_i, every other entry theta's own.
    """
    d = theta.size
    step = _FD_STEP * np.maximum(1.0, np.abs(theta))
    points = np.tile(theta, (2 * d, 1))
    diagonal = np.arange(d)
    points[diagonal, diagonal] += step
    points[d + diagonal, diagonal] -= step
    grads = gradient(points)
    h = (grads[:d] - grads[d:]) / (2.0 * step)[:, None]
    return 0.5 * (h + h.T)


def collect_frequencies(model, samples: np.ndarray):
    """Average the Hessian eigenfrequencies over thinned samples.

    For each of ten evenly spaced samples the Hessian is
    eigendecomposed; frequencies are square roots of the eigenvalues with
    negative values clamped to zero and counted.  Sorted spectra are averaged
    position-wise.  The Hessian is ``model.hessian`` when the model has one,
    otherwise central differences of ``model.gradient``, one row-wise
    call on 2 D points per sample.

    Returns:
        (omegas, n_clamped): sorted averaged spectrum, clamped eigenvalues.
    """
    hessian = model.hessian or (
        lambda theta: _gradient_difference_hessian(model.gradient, theta))
    samples = np.atleast_2d(samples)
    idx = np.unique(np.linspace(0, samples.shape[0] - 1,
                                min(10, samples.shape[0])).astype(int))
    spectra = []
    n_clamped = 0
    for i in idx:
        eigvals = np.linalg.eigvalsh(hessian(samples[i]))
        n_clamped += int(np.sum(eigvals < 0.0))
        spectra.append(np.sqrt(np.clip(eigvals, 0.0, None)))
    omegas = np.sort(np.mean(np.sort(np.asarray(spectra), axis=1), axis=0))
    return omegas, n_clamped


def fitting_factor(stats: BurninStats) -> float:
    """Anharmonicity fitting factor S_omega from burn-in statistics.

        S_omega = max(1, (2 / dt_vv) * (2 pi (1 - AR)^2 / sum_j w_j^6)^(1/6))

    over the burn-in's frequency spectrum w.  AR = 1 returns exactly 1 with a
    warning (zero measured energy error carries no anharmonicity
    information).
    """
    if stats.ar >= 1.0:
        warnings.warn("acceptance rate is 1; fitting factor set to 1",
                      RuntimeWarning)
        return 1.0
    denom = float(np.sum(stats.omegas ** 6))
    value = (2.0 / stats.dt_vv) * (
        2.0 * math.pi * (1.0 - stats.ar) ** 2 / denom) ** (1.0 / 6.0)
    return max(1.0, value)


def dimensionalization_factor(s_f: float, omega_max: float,
                              omega_std: float) -> float:
    """CF converting dimensionless steps to dimensional ones, h = CF * dt.

    CF = S_f (w_max - sigma) for a dispersed spectrum (sigma > 1, strictly),
    CF = S_f w_max otherwise.
    """
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    if omega_std < 0:
        raise ValueError("omega_std cannot be negative")
    if omega_std > 1.0:
        spread = omega_max - omega_std
        if spread <= 0.0:
            raise TuningError(
                f"frequency spread {omega_std:g} is at least the maximum "
                f"frequency {omega_max:g}; the dispersed correction "
                "S_f (w_max - sigma) needs sigma < w_max"
            )
        return s_f * spread
    return s_f * omega_max


def stepsize_interval(cf: float, h_lower: float = H_LOWER) -> tuple[float, float]:
    """(dt_lower, dt_colsi) = (h_lower / CF, 3 / CF)."""
    if cf <= 0:
        raise ValueError("CF must be positive")
    return h_lower / cf, H_COLSI3 / cf


def phi_opt(h: float, dimension: int) -> float:
    """Optimal refresh noise at dimensionless step h for dimension D.

    phi_opt(h) = min(1, -ln(0.999) K(h) / D) with
    K(h) = (1 + 2 h^2 lambda3(h)) / (2 h^4 lambda3(h)^2) evaluated with the
    adaptive three-stage coefficients at h.
    """
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    lam = lambda_k(default_map().scheme_at(h))
    if lam == 0.0:
        raise TuningError(f"lambda3({h}) vanished; the noise formula is singular")
    k_h = (1.0 + 2.0 * h * h * lam) / (2.0 * h ** 4 * lam * lam)
    return min(1.0, _PHI_LOG_ALPHA * k_h / dimension)


def phi_interval(dimension: int, h_lower: float = H_LOWER) -> tuple[float, float]:
    """Refresh-noise randomization interval (phi_opt(3), phi_opt(h_lower)).

    K(h) decreases over (h_lower, 3), so the step-size endpoints map to the
    noise endpoints in reverse order.  Only the upper endpoint can clip at 1:
    the lower one is phi_opt(3, D) = 0.438 / D, below 1 for every D.
    """
    return phi_opt(H_COLSI3, dimension), phi_opt(h_lower, dimension)


def l_scheme(s_f: float):
    """Trajectory-length rule: fixed 1 below S_f = 1.5, else uniform {2, 5, 7}."""
    if s_f < 1.0:
        raise ValueError("fitting factor must be at least 1")
    if s_f < 1.5:
        return Fixed(1)
    return DiscreteSet((2, 5, 7))


def eta_at_interval_midpoint() -> float:
    """Rotation angle of the adaptive scheme at h* = (h_lower + 3) / 2."""
    h_star = 0.5 * (H_LOWER + H_COLSI3)
    return rotation_angle(default_map().scheme_at(h_star), h_star)


def l_candidates_from_eta(s_f: float, eta: float,
                          n_values: tuple = (1, 2, 3)) -> list[float]:
    """Trajectory lengths equalizing harmonic and anharmonic energy errors.

    Solutions of sin^2(eta L) = sin^2(eta) / S_f^6 for L >= 1:

        L_n = (arcsin(sin(eta) / S_f^3) + 2 pi n) / eta,   n = 1, 2, ...

    and for n = 0 the reflected branch (pi - arcsin(.)) / eta, which equals
    exactly 1 when S_f = 1.  With the rotation angle at the midpoint of the
    production step interval, ``eta_at_interval_midpoint()``, the n = 1..3
    values are near 2.4, 4.8 and 7.2 and round to the set {2, 5, 7}.
    """
    if s_f < 1.0:
        raise ValueError("fitting factor must be at least 1")
    if not 0.0 < eta < math.pi:
        raise ValueError("eta must lie in (0, pi)")
    s = math.sin(eta) / s_f ** 3
    base = math.asin(s)
    out = []
    for n in n_values:
        if n == 0:
            out.append((math.pi - base) / eta)
        else:
            out.append((base + 2.0 * math.pi * n) / eta)
    return out


# ---------------------------------------------------------------------------
# Production settings


@dataclass(frozen=True)
class TuningReport:
    """Production settings emitted by the tuning pipeline.

    ``s_f`` is the fitting factor S_omega.  A report is checked when built or
    loaded, and a NaN fails every check: CF is finite and positive, h_lower
    lies in (0, 3), CF * dt_lower = h_lower, dt_colsi / dt_lower = 3 /
    h_lower, S_f is finite and at least 1, exactly one of ``l_fixed`` and
    ``l_choices`` is a valid L rule, and phi endpoints in (0, 1] are present
    for GHMC only.  ``burnin_divergent`` and ``burnin_clamped`` count the
    burn-in's divergent proposals and clamped Hessian eigenvalues (None in
    older reports).  ``from_json`` ignores keys that are not fields.
    """

    mode: str
    dimension: int
    s_f: float
    cf: float
    h_lower: float
    dt_lower: float
    dt_colsi: float
    phi_lower: Optional[float]
    phi_upper: Optional[float]
    l_fixed: Optional[int]
    l_choices: Optional[tuple]
    burnin_ar: float
    burnin_dt: float
    burnin_energy_error: float
    burnin_iterations: int
    seed: int
    burnin_divergent: Optional[int] = None
    burnin_clamped: Optional[int] = None

    def __post_init__(self):
        # each check is stated so that a NaN fails it
        if not (math.isfinite(self.cf) and self.cf > 0.0):
            raise ValueError(f"cf={self.cf}: must be finite and positive")
        if not 0.0 < self.h_lower < H_COLSI3:
            raise ValueError(f"h_lower={self.h_lower}: must lie in (0, {H_COLSI3:g})")
        if not abs(self.cf * self.dt_lower - self.h_lower) <= 1e-9 * self.h_lower:
            raise ValueError("cf * dt_lower must equal h_lower")
        ratio = self.dt_colsi / self.dt_lower
        if not abs(ratio - H_COLSI3 / self.h_lower) <= 1e-9:
            raise ValueError("step interval endpoints violate the 3 / h_lower ratio")
        if not (math.isfinite(self.s_f) and self.s_f >= 1.0):
            raise ValueError(f"s_f={self.s_f}: the fitting factor must be finite "
                             "and at least 1")
        if (self.l_fixed is None) == (self.l_choices is None):
            raise ValueError("exactly one of l_fixed and l_choices must be set")
        check_rule("l", self.l_rule())
        if (self.phi_lower is not None) != (self.mode == "ghmc"):
            raise ValueError("a phi interval belongs to GHMC reports only")
        if self.phi_lower is not None and not (
                0.0 < self.phi_lower <= self.phi_upper <= 1.0):
            raise ValueError("phi interval must be contained in (0, 1]")

    def l_rule(self):
        if self.l_fixed is not None:
            return Fixed(self.l_fixed)
        return DiscreteSet(self.l_choices)

    def to_json(self) -> str:
        data = asdict(self)
        data["l_choices"] = list(self.l_choices) if self.l_choices else None
        return json.dumps(data, sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "TuningReport":
        names = {f.name for f in fields(TuningReport)}
        data = {k: v for k, v in json.loads(text).items() if k in names}
        if data.get("l_choices") is not None:
            data["l_choices"] = tuple(data["l_choices"])
        return TuningReport(**data)


def produce_settings(stats: BurninStats, mode: str = "ghmc", seed: int = 0,
                     h_lower: float = H_LOWER):
    """Assemble the tuning report; ``config_from_report`` builds its config.

    Args:
        stats: Burn-in statistics.
        mode: "ghmc" or "hmc"; HMC omits the refresh-noise interval.
        seed: Root seed of the production chains, stored in the report.
        h_lower: Lower endpoint of the dimensionless step interval
            (perturbed by the sensitivity harness, 2.0772 otherwise).
    """
    s_f = fitting_factor(stats)
    cf = dimensionalization_factor(s_f, stats.omega_max, stats.omega_std)
    dt_lower, dt_colsi = stepsize_interval(cf, h_lower)
    if mode == "ghmc":
        phi_lo, phi_hi = phi_interval(stats.dimension, h_lower)
    elif mode == "hmc":
        phi_lo = phi_hi = None
    else:
        raise ValueError("mode must be 'hmc' or 'ghmc'")
    rule = l_scheme(s_f)
    return TuningReport(
        mode=mode,
        dimension=stats.dimension,
        s_f=s_f,
        cf=cf,
        h_lower=h_lower,
        dt_lower=dt_lower,
        dt_colsi=dt_colsi,
        phi_lower=phi_lo,
        phi_upper=phi_hi,
        l_fixed=rule.value if isinstance(rule, Fixed) else None,
        l_choices=rule.values if isinstance(rule, DiscreteSet) else None,
        burnin_ar=stats.ar,
        burnin_dt=stats.dt_vv,
        burnin_energy_error=stats.energy_error,
        burnin_iterations=stats.n_iterations,
        seed=seed,
        burnin_divergent=stats.n_divergent,
        burnin_clamped=stats.n_clamped,
    )


def config_from_report(report: TuningReport) -> SamplerConfig:
    """The production sampler configuration of a tuning report.

    HMC is the full refresh phi = 1; GHMC draws phi from the report's interval.
    """
    phi_rule = Fixed(1.0)
    if report.mode == "ghmc":
        if report.phi_lower == report.phi_upper:
            phi_rule = Fixed(report.phi_lower)
        else:
            phi_rule = UniformInterval(report.phi_lower, report.phi_upper)
    return SamplerConfig(
        dt_rule=UniformInterval(report.dt_lower, report.dt_colsi),
        l_rule=report.l_rule(),
        phi_rule=phi_rule,
        scheme=AdaptiveScheme(report.cf, default_map()),
        seed=report.seed,
    )


def atune(model, mode: str = "ghmc", n_burnin: int = 1000,
          target_ar: float = _AR_TARGET_DEFAULT, seed: int = 0,
          h_lower: float = H_LOWER):
    """Burn-in plus analysis in one call.

    Returns:
        (TuningReport, BurninStats)
    """
    stats, _ = run_burnin(model, n_burnin, mode=mode, target_ar=target_ar,
                          seed=seed, h_lower=h_lower)
    report = produce_settings(stats, mode=mode, seed=seed, h_lower=h_lower)
    return report, stats
