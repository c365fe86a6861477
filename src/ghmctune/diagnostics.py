"""Convergence and efficiency metrics for multi-chain runs.

Implements the metric set used throughout the benchmark harness:

* univariate effective sample size with Geyer's initial-positive-sequence
  truncation (default) or an AR-spectral estimator,
* multivariate ESS from the determinant ratio of the sample covariance and a
  multivariate batch-means covariance,
* the Brooks-Gelman corrected potential scale reduction factor,
* the convergence length N_conv (smallest prefix with PSRF below threshold,
  scanned on geometric checkpoints),
* gradient accounting and the grad/ESS efficiency triple, plus the relative
  efficiency factor for comparing two samplers.

All functions are pure over sample arrays; chains enter as an array of shape
(C, N, D).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import solve_toeplitz

__all__ = [
    "DiagnosticsError",
    "ChainSet",
    "DiagnosticsReport",
    "ess_univariate",
    "ess_geyer",
    "ess_ar_spectral",
    "multi_ess",
    "psrf",
    "find_n_conv",
    "default_window",
    "grad_per_ess",
    "ref_metric",
    "diagnose",
]


class DiagnosticsError(ValueError):
    pass


ESS_METHODS = ("geyer", "ar")
PSRF_STATISTICS = ("max", "avg")


# ---------------------------------------------------------------------------
# Effective sample size


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance via FFT, lags 0..n-1."""
    n = x.size
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n]
    return acov / n


def ess_geyer(series: np.ndarray) -> float:
    """ESS with Geyer's initial-positive-sequence truncation.

    N / (1 + 2 sum rho_t) where the autocorrelation sum runs over the
    initial sequence of positive paired sums rho_{2m} + rho_{2m+1}.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 10:
        raise DiagnosticsError("need at least 10 samples")
    acov = _autocovariance(x)
    if acov[0] <= 0.0:
        raise DiagnosticsError("constant series has undefined ESS")
    rho = acov / acov[0]
    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        paired = rho[2 * m] + rho[2 * m + 1]
        if paired <= 0.0:
            break
        tau += 2.0 * paired
        m += 1
    return n / max(tau, 1e-3)


def ess_ar_spectral(series: np.ndarray, max_order: Optional[int] = None) -> float:
    """ESS from an AR(p) fit (Yule-Walker, AIC order selection).

    N var(x) / s(0), with s(0) = sigma_p^2 / (1 - sum a_i)^2 the fitted
    spectral density at frequency zero.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 10:
        raise DiagnosticsError("need at least 10 samples")
    acov = _autocovariance(x)
    if acov[0] <= 0.0:
        raise DiagnosticsError("constant series has undefined ESS")
    pmax = max_order if max_order is not None else int(min(n - 1, 10.0 * math.log10(n)))
    best_aic = n * math.log(acov[0]) + 2.0
    spec0 = acov[0]
    for p in range(1, pmax + 1):
        try:
            coefs = solve_toeplitz(acov[:p], acov[1:p + 1])
        except np.linalg.LinAlgError:
            break
        sigma2 = acov[0] - float(coefs @ acov[1:p + 1])
        if sigma2 <= 0.0:
            continue
        aic = n * math.log(sigma2) + 2.0 * (p + 1)
        if aic < best_aic:
            best_aic = aic
            denom = 1.0 - float(np.sum(coefs))
            if abs(denom) < 1e-12:
                continue
            spec0 = sigma2 / denom ** 2
    return n * acov[0] / spec0


def ess_univariate(series: np.ndarray, method: str = "geyer") -> float:
    """Univariate ESS; ``method`` is "geyer" (default) or "ar"."""
    if method == "geyer":
        return ess_geyer(series)
    if method == "ar":
        return ess_ar_spectral(series)
    raise ValueError("method must be 'geyer' or 'ar'")


def multi_ess(chain: np.ndarray) -> float:
    """Multivariate ESS: N (det Lambda / det Sigma_bm)^(1/D).

    Lambda is the sample covariance and Sigma_bm the multivariate
    batch-means covariance with batch size floor(sqrt(N)), capped so that at
    least D + 2 batches exist (fewer batches leave the batch-means
    covariance rank deficient).
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n <= d:
        raise DiagnosticsError(
            f"multivariate ESS needs more iterations than dimensions "
            f"(N={n} <= D={d}); extend the chains past D iterations"
        )
    lam = np.cov(x, rowvar=False).reshape(d, d)
    sign, logdet_lam = np.linalg.slogdet(lam)
    if sign <= 0 or not np.isfinite(logdet_lam):
        raise DiagnosticsError("sample covariance is singular")
    b = max(1, min(int(math.floor(math.sqrt(n))), n // (d + 2)))
    a = n // b
    means = x[: a * b].reshape(a, b, d).mean(axis=1)
    centered = means - means.mean(axis=0)
    sigma = b * (centered.T @ centered) / (a - 1)
    sign_s, logdet_sigma = np.linalg.slogdet(sigma)
    if sign_s <= 0 or not np.isfinite(logdet_sigma):
        raise DiagnosticsError("batch-means covariance is singular")
    return n * math.exp((logdet_lam - logdet_sigma) / d)


# ---------------------------------------------------------------------------
# Potential scale reduction factor


def psrf(chains: np.ndarray) -> tuple[np.ndarray, float]:
    """Brooks-Gelman corrected PSRF per dimension and its maximum.

    Args:
        chains: Array of shape (C, N, D) with C >= 2 and N >= 10.

    Returns:
        (per_dimension, max_over_dimensions).  Identical chains give exactly
        sqrt((N-1)/N) <= 1.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    c, n, d = x.shape
    if c < 2:
        raise DiagnosticsError("PSRF needs at least two chains")
    if n < 10:
        raise DiagnosticsError("PSRF needs at least 10 iterations")
    means = x.mean(axis=1)                      # (C, D)
    variances = x.var(axis=1, ddof=1)           # (C, D)
    w = variances.mean(axis=0)
    b_over_n = means.var(axis=0, ddof=1)
    sigma2 = (n - 1) / n * w + b_over_n
    v_hat = sigma2 + b_over_n / c

    # degrees-of-freedom correction (method of moments on V_hat)
    var_w = variances.var(axis=0, ddof=1) / c
    var_b = 2.0 * b_over_n ** 2 / (c - 1)
    mu = x.mean(axis=(0, 1))
    cov_s_m2 = _chain_cov(variances, means ** 2, c)
    cov_s_m = _chain_cov(variances, means, c)
    cov_term = 2.0 * ((c + 1) * (n - 1) / (c * n)) * (cov_s_m2 - 2.0 * mu * cov_s_m) / c
    var_v = (((n - 1) / n) ** 2 * var_w
             + ((c + 1) / c) ** 2 * var_b
             + cov_term)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = 2.0 * v_hat ** 2 / var_v
        correction = np.where(np.isfinite(df) & (df > 0), (df + 3.0) / (df + 1.0), 1.0)
        r2 = np.where(w > 0, v_hat / w * correction, 1.0)
    per_dim = np.sqrt(np.maximum(r2, 0.0))
    return per_dim, float(per_dim.max())


def _chain_cov(a: np.ndarray, b: np.ndarray, c: int) -> np.ndarray:
    am = a - a.mean(axis=0)
    bm = b - b.mean(axis=0)
    return (am * bm).sum(axis=0) / (c - 1)


def _psrf_scan(chains: np.ndarray, statistic: str, ratio: float = 1.2,
               min_n: int = 50):
    """PSRF over prefixes on a geometric checkpoint grid.

    Checkpoints start at max(min_n, 10), grow by ``ratio`` (rounded up) and
    end with the full length.  Yields (m, max_psrf, avg_psrf, stat) per
    checkpoint m, with ``stat`` the max or avg value named by ``statistic``.
    """
    if statistic not in PSRF_STATISTICS:
        raise ValueError(f"statistic must be one of {PSRF_STATISTICS}, "
                         f"got {statistic!r}")
    x = np.asarray(chains, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    n = x.shape[1]
    m = max(min_n, 10)
    while True:
        m = min(m, n)
        per_dim, top = psrf(x[:, :m, :])
        avg = float(per_dim.mean())
        yield m, top, avg, (top if statistic == "max" else avg)
        if m == n:
            return
        m = int(math.ceil(m * ratio))


def find_n_conv(chains: np.ndarray, threshold: float = 1.01,
                statistic: str = "max", ratio: float = 1.2,
                min_n: int = 50) -> Optional[int]:
    """Smallest prefix length with the PSRF statistic below threshold.

    Prefixes are scanned on a geometric checkpoint grid (ratio 1.2 by
    default, the full length always included); ``statistic`` is "max" or
    "avg" over dimensions.  Returns None when no checkpoint satisfies the
    threshold.
    """
    return next((m for m, _, _, stat in _psrf_scan(chains, statistic, ratio, min_n)
                 if stat < threshold), None)


# ---------------------------------------------------------------------------
# Efficiency metrics


def default_window(dimension: int) -> int:
    """Post-convergence metric window: 1000, or 2000 for dimension >= 2000."""
    return 2000 if dimension >= 2000 else 1000


def grad_per_ess(n_conv: int, window: int, mean_l: float, stages: int,
                 ess_min: float, ess_mean: float, ess_multi: float) -> dict:
    """grad = (N_conv + window) * mean_L * k and its ratio to each ESS flavour."""
    if min(ess_min, ess_mean, ess_multi) <= 0:
        raise DiagnosticsError("ESS values must be positive")
    grad = (n_conv + window) * mean_l * stages
    return {
        "grad": grad,
        "grad_per_min_ess": grad / ess_min,
        "grad_per_mean_ess": grad / ess_mean,
        "grad_per_multi_ess": grad / ess_multi,
    }


def ref_metric(metric_sampler1: float, metric_sampler2: float) -> float:
    """Relative efficiency factor M2 / M1 (> 1 means sampler 1 wins)."""
    if metric_sampler1 <= 0 or metric_sampler2 <= 0:
        raise DiagnosticsError("metrics must be positive")
    return metric_sampler2 / metric_sampler1


# ---------------------------------------------------------------------------
# Multi-chain container and the full report


@dataclass
class ChainSet:
    """Samples of C chains, shape (C, N, D), plus their iteration records."""

    samples: np.ndarray
    records: list = field(default_factory=list)
    stages: int = 1

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 3:
            raise ValueError("samples must have shape (chains, iterations, dimension)")
        self.samples = s
        if self.records and len(self.records) != s.shape[0]:
            raise ValueError("one record set per chain required")

    @property
    def n_chains(self) -> int:
        return self.samples.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.samples.shape[1]

    @property
    def dimension(self) -> int:
        return self.samples.shape[2]

    def total_grads(self, upto: Optional[int] = None) -> int:
        return int(sum(r.total_grads(upto) for r in self.records))

    def mean_l(self, upto: Optional[int] = None) -> float:
        return float(np.mean([r.mean_l(upto) for r in self.records]))


@dataclass
class DiagnosticsReport:
    """ESS flavours, PSRF trajectory, convergence length and grad/ESS ratios."""

    n_chains: int
    n_iterations: int
    dimension: int
    ess_method: str
    window: int
    n_conv: Optional[int]
    n_conv_statistic: str
    threshold: float
    ess_min: Optional[float] = None
    ess_mean: Optional[float] = None
    ess_multi: Optional[float] = None
    grad: Optional[float] = None
    grad_per_min_ess: Optional[float] = None
    grad_per_mean_ess: Optional[float] = None
    grad_per_multi_ess: Optional[float] = None
    mean_l: Optional[float] = None
    stages: Optional[int] = None
    acceptance_rate: Optional[float] = None
    max_psrf_final: Optional[float] = None
    psrf_trajectory: list = field(default_factory=list)
    wall_seconds: Optional[float] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @staticmethod
    def from_json(text: str) -> "DiagnosticsReport":
        return DiagnosticsReport(**json.loads(text))

    def write_tables(self, directory: str | Path) -> None:
        """Emit delimiter-separated tables (PSRF trajectory, ESS summary)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "psrf_trajectory.csv", "w") as fh:
            fh.write("n,max_psrf,avg_psrf\n")
            for n, top, avg in self.psrf_trajectory:
                fh.write(f"{n},{top!r},{avg!r}\n")
        with open(directory / "metrics.csv", "w") as fh:
            fh.write("metric,value\n")
            for key in ("ess_min", "ess_mean", "ess_multi", "grad",
                        "grad_per_min_ess", "grad_per_mean_ess",
                        "grad_per_multi_ess", "n_conv", "mean_l",
                        "acceptance_rate", "max_psrf_final"):
                fh.write(f"{key},{getattr(self, key)!r}\n")


def _ess_by_dimension(samples: np.ndarray, upto: int, method: str) -> np.ndarray:
    """Per-dimension ESS summed across chains over the prefix [0, upto)."""
    c, _, d = samples.shape
    out = np.zeros(d)
    for dim in range(d):
        for ch in range(c):
            out[dim] += ess_univariate(samples[ch, :upto, dim], method)
    return out


def diagnose(chain_set: ChainSet, threshold: float = 1.01,
             statistic: str = "max", window: Optional[int] = None,
             ess_method: str = "geyer",
             wall_seconds: Optional[float] = None) -> DiagnosticsReport:
    """Compute the full diagnostics report for a multi-chain run.

    The grad/ESS triple is evaluated over the first N_conv + window
    iterations, ESS summed across chains; when convergence is not reached
    within the run the ESS fields stay unset and only the PSRF trajectory is
    reported.  An unknown ``statistic`` or ``ess_method`` raises ValueError
    before any PSRF or ESS is computed.
    """
    if ess_method not in ESS_METHODS:
        raise ValueError(f"ess_method must be one of {ESS_METHODS}, got {ess_method!r}")
    samples = chain_set.samples
    c, n, d = samples.shape
    if window is None:
        window = default_window(d)
    trajectory = []
    n_conv = None
    for m, top, avg, stat in _psrf_scan(samples, statistic):
        trajectory.append((m, top, avg))
        if n_conv is None and stat < threshold:
            n_conv = m
    report = DiagnosticsReport(
        n_chains=c,
        n_iterations=n,
        dimension=d,
        ess_method=ess_method,
        window=window,
        n_conv=n_conv,
        n_conv_statistic=statistic,
        threshold=threshold,
        max_psrf_final=trajectory[-1][1],
        psrf_trajectory=trajectory,
        wall_seconds=wall_seconds,
    )
    if n_conv is None or n_conv + window > n:
        return report
    upto = n_conv + window
    per_dim_ess = _ess_by_dimension(samples, upto, ess_method)
    ess_min = float(per_dim_ess.min())
    ess_mean = float(per_dim_ess.mean())
    ess_multi = float(sum(multi_ess(samples[ch, :upto, :]) for ch in range(c)))
    if ess_multi > 1.1 * c * upto or ess_mean > 1.1 * c * upto:
        warnings.warn("ESS exceeds 1.1 x chains x window; estimator noise or "
                      "antithetic sampling", RuntimeWarning)
    report.ess_min = ess_min
    report.ess_mean = ess_mean
    report.ess_multi = ess_multi
    if chain_set.records:
        grad_total = chain_set.total_grads(upto)
        report.mean_l = chain_set.mean_l(upto)
        report.stages = chain_set.stages
        report.acceptance_rate = float(np.mean(
            [r.accepted[:upto].mean() for r in chain_set.records]
        ))
        report.grad = float(grad_total)
        report.grad_per_min_ess = grad_total / ess_min
        report.grad_per_mean_ess = grad_total / ess_mean
        report.grad_per_multi_ess = grad_total / ess_multi
    return report
