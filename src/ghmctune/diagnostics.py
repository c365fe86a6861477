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
from scipy import fft as sp_fft

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
    "ref_metric",
    "diagnose",
]


class DiagnosticsError(ValueError):
    pass


ESS_METHODS = ("geyer", "ar")
PSRF_STATISTICS = ("max", "avg")
ESS_BLOCK_ROWS = 16     # series per univariate ESS call in diagnose
_SCAN_MIN_N = 50        # first PSRF checkpoint
_SCAN_RATIO = 1.2       # growth of the PSRF checkpoints


# ---------------------------------------------------------------------------
# Effective sample size
#
# The univariate estimators take an array of shape (..., n) and estimate along
# the last axis, so a caller hands over a block of series at once; a 1-D input
# gives a Python float.


def _series_block(series: np.ndarray) -> np.ndarray:
    """Series as a contiguous (S, n) block; at least 10 samples each."""
    x = np.asarray(series, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 10:
        raise DiagnosticsError("need at least 10 samples")
    return np.ascontiguousarray(x.reshape(-1, x.shape[-1]))


def _per_series(values: np.ndarray, series: np.ndarray) -> float | np.ndarray:
    """Estimates in the shape of the input minus its last axis."""
    if np.ndim(series) == 1:
        return float(values[0])
    return values.reshape(np.shape(series)[:-1])


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of an (S, n) block via FFT, lags 0..n-1.

    Raises DiagnosticsError when a row is constant (zero lag-0 variance).
    """
    n = x.shape[-1]
    xc = x - x.mean(axis=-1, keepdims=True)
    m = sp_fft.next_fast_len(2 * n - 1, real=True)
    f = sp_fft.rfft(xc, m, axis=-1)
    acov = sp_fft.irfft(f * np.conj(f), m, axis=-1)[:, :n] / n
    if np.any(acov[:, 0] <= 0.0):
        raise DiagnosticsError("constant series has undefined ESS")
    return acov


def ess_geyer(series: np.ndarray) -> float | np.ndarray:
    """ESS with Geyer's initial-positive-sequence truncation.

    N / (1 + 2 sum rho_t) where the autocorrelation sum runs over the
    initial sequence of positive paired sums rho_{2m} + rho_{2m+1}.
    """
    x = _series_block(series)
    s, n = x.shape
    acov = _autocovariance(x)
    rho = acov / acov[:, :1]
    pairs = n // 2                               # pairs with 2m + 1 < n
    paired = rho[:, 0:2 * pairs:2] + rho[:, 1:2 * pairs:2]
    nonpositive = paired <= 0.0
    first = np.where(nonpositive.any(axis=1), nonpositive.argmax(axis=1), pairs)
    # tau = -1 + 2 paired_0 + 2 paired_1 + ..., accumulated left to right
    longest = first.max()
    steps = np.empty((s, longest + 1))
    steps[:, 0] = -1.0
    steps[:, 1:] = 2.0 * paired[:, :longest]
    tau = np.cumsum(steps, axis=1)[np.arange(s), first]
    return _per_series(n / np.maximum(tau, 1e-3), series)


def ess_ar_spectral(series: np.ndarray) -> float | np.ndarray:
    """ESS from an AR(p) fit (Yule-Walker, AIC order selection).

    N var(x) / s(0), with s(0) = sigma_p^2 / (1 - sum a_i)^2 the fitted
    spectral density at frequency zero.  One Levinson-Durbin recursion fits
    orders 1..min(N-1, 10 log10 N) and their innovation variances sigma_p^2.
    An order with sigma_p^2 <= 0 is skipped, and so is every higher one (the
    autocovariance is then not positive definite at that order).  The AIC
    minimum moves to an order even when |1 - sum a_i| < 1e-12 keeps s(0)
    from being updated there.
    """
    x = _series_block(series)
    s, n = x.shape
    acov = _autocovariance(x)
    r0 = acov[:, 0]
    pmax = int(min(n - 1, 10.0 * math.log10(n)))
    best_aic = n * np.log(r0) + 2.0
    spec0 = r0.copy()
    coefs = np.zeros((s, pmax))
    sigma2 = r0.copy()
    alive = np.ones(s, dtype=bool)
    for p in range(1, pmax + 1):
        prev = coefs[:, :p - 1]
        lagged = np.einsum("sj,sj->s", prev, acov[:, p - 1:0:-1])
        # rows that stopped keep kappa = 0, so their fit no longer changes
        divisor = np.where(alive, sigma2, 1.0)
        kappa = np.where(alive, (acov[:, p] - lagged) / divisor, 0.0)
        coefs[:, :p - 1] = prev - kappa[:, None] * prev[:, ::-1]
        coefs[:, p - 1] = kappa
        sigma2 = sigma2 * (1.0 - kappa * kappa)
        alive &= sigma2 > 0.0
        aic = n * np.log(np.where(alive, sigma2, 1.0)) + 2.0 * (p + 1)
        better = alive & (aic < best_aic)
        best_aic = np.where(better, aic, best_aic)
        denom = 1.0 - coefs[:, :p].sum(axis=1)
        update = better & (np.abs(denom) >= 1e-12)
        spec0 = np.where(update, sigma2 / np.where(update, denom, 1.0) ** 2, spec0)
    return _per_series(n * r0 / spec0, series)


def ess_univariate(series: np.ndarray, method: str = "geyer") -> float | np.ndarray:
    """Univariate ESS along the last axis; ``method`` is "geyer" (default) or "ar"."""
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
    variances = np.empty((c, d))                # one chain's deviations in memory at a time
    for ch in range(c):
        dev = x[ch] - means[ch]
        variances[ch] = np.einsum("nd,nd->d", dev, dev) / (n - 1)
    w = variances.mean(axis=0)
    b_over_n = means.var(axis=0, ddof=1)
    sigma2 = (n - 1) / n * w + b_over_n
    v_hat = sigma2 + b_over_n / c

    # degrees-of-freedom correction (method of moments on V_hat)
    var_w = variances.var(axis=0, ddof=1) / c
    var_b = 2.0 * b_over_n ** 2 / (c - 1)
    mu = means.mean(axis=0)
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


def _psrf_scan(chains: np.ndarray, statistic: str):
    """PSRF over prefixes on a geometric checkpoint grid.

    Checkpoints grow from ``_SCAN_MIN_N`` by ``_SCAN_RATIO``, rounded up, and
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
    m = _SCAN_MIN_N
    while True:
        m = min(m, n)
        per_dim, top = psrf(x[:, :m, :])
        avg = float(per_dim.mean())
        yield m, top, avg, (top if statistic == "max" else avg)
        if m == n:
            return
        m = int(math.ceil(m * _SCAN_RATIO))


def find_n_conv(chains: np.ndarray, threshold: float = 1.01,
                statistic: str = "max") -> Optional[int]:
    """Smallest prefix length with the PSRF statistic below threshold.

    Prefixes are scanned on a geometric checkpoint grid (ratio 1.2 from 50,
    the full length always included); ``statistic`` is "max" or
    "avg" over dimensions.  Returns None when no checkpoint satisfies the
    threshold.
    """
    return next((m for m, _, _, stat in _psrf_scan(chains, statistic)
                 if stat < threshold), None)


# ---------------------------------------------------------------------------
# Efficiency metrics


def default_window(dimension: int) -> int:
    """Post-convergence metric window: 1000, or 2000 for dimension >= 2000."""
    return 2000 if dimension >= 2000 else 1000


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
    ess_exceeds_window: bool = False

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
    """Per-dimension ESS summed across chains over the prefix [0, upto).

    Each chain's prefix is transposed into one contiguous (D, upto) buffer
    and estimated ESS_BLOCK_ROWS series at a time, which keeps the FFT
    temporaries small.
    """
    c, _, d = samples.shape
    out = np.zeros(d)
    series = np.empty((d, upto))
    for ch in range(c):
        series[...] = samples[ch, :upto, :].T
        for lo in range(0, d, ESS_BLOCK_ROWS):
            out[lo:lo + ESS_BLOCK_ROWS] += ess_univariate(
                series[lo:lo + ESS_BLOCK_ROWS], method)
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
    report.ess_exceeds_window = ess_multi > 1.1 * c * upto or ess_mean > 1.1 * c * upto
    if report.ess_exceeds_window:
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
