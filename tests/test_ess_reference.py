"""The batched ESS estimators and PSRF against reference per-series copies.

The reference below is the diagnostics code as it was before the estimators
worked on blocks of series: one series at a time, a power-of-two FFT, Geyer
truncation in a Python loop over lags, one ``solve_toeplitz`` solve per AR
order, and a PSRF that makes its own passes for the chain variances and the
grand mean.  The batched code pads the FFT differently and sums in a
different order, so the two agree to rounding, not bit for bit; every case
holds them to a relative tolerance of 1e-12.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_toeplitz

from ghmctune.diagnostics import (
    ChainSet,
    DiagnosticsError,
    diagnose,
    ess_ar_spectral,
    ess_geyer,
    ess_univariate,
    multi_ess,
    psrf,
)

RTOL = 1e-12


def _ref_autocovariance(x):
    n = x.size
    xc = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n]
    return acov / n


def _ref_ess_geyer(series):
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 10:
        raise DiagnosticsError("need at least 10 samples")
    acov = _ref_autocovariance(x)
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


def _ref_ess_ar_spectral(series):
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 10:
        raise DiagnosticsError("need at least 10 samples")
    acov = _ref_autocovariance(x)
    if acov[0] <= 0.0:
        raise DiagnosticsError("constant series has undefined ESS")
    pmax = int(min(n - 1, 10.0 * math.log10(n)))
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


_REF_ESS = {"geyer": _ref_ess_geyer, "ar": _ref_ess_ar_spectral}


def _ref_chain_cov(a, b, c):
    am = a - a.mean(axis=0)
    bm = b - b.mean(axis=0)
    return (am * bm).sum(axis=0) / (c - 1)


def _ref_psrf(chains):
    x = np.asarray(chains, dtype=float)
    c, n, d = x.shape
    means = x.mean(axis=1)
    variances = x.var(axis=1, ddof=1)
    w = variances.mean(axis=0)
    b_over_n = means.var(axis=0, ddof=1)
    sigma2 = (n - 1) / n * w + b_over_n
    v_hat = sigma2 + b_over_n / c
    var_w = variances.var(axis=0, ddof=1) / c
    var_b = 2.0 * b_over_n ** 2 / (c - 1)
    mu = x.mean(axis=(0, 1))
    cov_s_m2 = _ref_chain_cov(variances, means ** 2, c)
    cov_s_m = _ref_chain_cov(variances, means, c)
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


def _ref_diagnose(samples, threshold, window, method):
    """(n_conv, trajectory, ess_min, ess_mean, ess_multi) of the old diagnose."""
    c, n, d = samples.shape
    trajectory, n_conv, m = [], None, 50
    while True:
        m = min(m, n)
        per_dim, top = _ref_psrf(samples[:, :m, :])
        trajectory.append((m, top, float(per_dim.mean())))
        if n_conv is None and top < threshold:
            n_conv = m
        if m == n:
            break
        m = int(math.ceil(m * 1.2))
    upto = n_conv + window
    per_dim_ess = np.zeros(d)
    for dim in range(d):
        for ch in range(c):
            per_dim_ess[dim] += _REF_ESS[method](samples[ch, :upto, dim])
    ess_multi = float(sum(multi_ess(samples[ch, :upto, :]) for ch in range(c)))
    return (n_conv, trajectory, float(per_dim_ess.min()),
            float(per_dim_ess.mean()), ess_multi)


def _ar1(shape, rho, seed):
    """AR(1) series along the last axis, stationary from the first sample."""
    rng = np.random.default_rng(seed)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), shape[:-1])
    x = np.empty(shape)
    x[..., 0] = rng.standard_normal(shape[:-1])
    scale = np.sqrt(1.0 - rho ** 2)
    for t in range(1, shape[-1]):
        x[..., t] = rho * x[..., t - 1] + scale * rng.standard_normal(shape[:-1])
    return x


@pytest.mark.parametrize("method", ["geyer", "ar"])
@pytest.mark.parametrize("n", [10, 11, 1000, 5292])
@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5, 0.9, 0.99])
def test_single_series_matches_reference(method, n, rho):
    x = _ar1((n,), rho, seed=10_000 * int(100 * (rho + 1.0)) + n)
    got = ess_univariate(x, method)
    assert isinstance(got, float)
    assert got == pytest.approx(_REF_ESS[method](x), rel=RTOL, abs=0)


@pytest.mark.parametrize("method", ["geyer", "ar"])
def test_batch_matches_rows(method):
    rho = np.linspace(-0.5, 0.99, 12).reshape(3, 4)
    x = _ar1((3, 4, 700), rho, seed=5)
    got = ess_univariate(x, method)
    assert got.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert got[idx] == pytest.approx(_REF_ESS[method](x[idx]), rel=RTOL, abs=0)
        assert got[idx] == ess_univariate(x[idx], method)


@pytest.mark.parametrize("method", ["geyer", "ar"])
def test_diagnose_matches_reference(method):
    rho = np.linspace(0.0, 0.95, 30)
    x = np.moveaxis(_ar1((4, 30, 1500), rho, seed=8), 2, 1)
    report = diagnose(ChainSet(x), threshold=1.1, window=1000, ess_method=method)
    n_conv, trajectory, ess_min, ess_mean, ess_multi = _ref_diagnose(
        x, threshold=1.1, window=1000, method=method)
    assert report.n_conv == n_conv
    assert report.ess_min == pytest.approx(ess_min, rel=RTOL, abs=0)
    assert report.ess_mean == pytest.approx(ess_mean, rel=RTOL, abs=0)
    assert report.ess_multi == pytest.approx(ess_multi, rel=RTOL, abs=0)
    assert [m for m, _, _ in report.psrf_trajectory] == [m for m, _, _ in trajectory]
    got = np.array([(top, avg) for _, top, avg in report.psrf_trajectory])
    want = np.array([(top, avg) for _, top, avg in trajectory])
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


def test_psrf_matches_reference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 300, 7)) + 5.0 * rng.standard_normal((4, 1, 7))
    per_dim, top = psrf(x)
    want_dim, want_top = _ref_psrf(x)
    np.testing.assert_allclose(per_dim, want_dim, rtol=RTOL, atol=0)
    assert top == pytest.approx(want_top, rel=RTOL, abs=0)


@pytest.mark.parametrize("estimator", [ess_geyer, ess_ar_spectral])
def test_constant_row_in_batch_raises(estimator):
    x = _ar1((5, 200), 0.5, seed=3)
    x[2] = 1.5
    with pytest.raises(DiagnosticsError):
        estimator(x)


@pytest.mark.parametrize("estimator", [ess_geyer, ess_ar_spectral])
@pytest.mark.parametrize("shape", [(9,), (3, 9), (0,)])
def test_short_series_raise(estimator, shape):
    with pytest.raises(DiagnosticsError):
        estimator(np.arange(math.prod(shape), dtype=float).reshape(shape))
