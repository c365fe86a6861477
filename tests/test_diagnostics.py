import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sp_fft

from ghmctune.diagnostics import (
    _autocovariance,
    _next_fast_len,
    ChainSet,
    DiagnosticsError,
    DiagnosticsReport,
    default_window,
    diagnose,
    ess_ar_spectral,
    ess_geyer,
    ess_univariate,
    find_n_conv,
    multi_ess,
    psrf,
    ref_metric,
)
from ghmctune.integrators import build_scheme
from ghmctune.samplers import (
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    run_chain,
)


def _ar1(n, rho, rng, dims=1):
    out = np.empty((n, dims))
    out[0] = rng.standard_normal(dims)
    noise = rng.standard_normal((n, dims)) * math.sqrt(1 - rho * rho)
    for t in range(1, n):
        out[t] = rho * out[t - 1] + noise[t]
    return out


class TestUnivariateEss:
    @pytest.mark.parametrize("method", ["geyer", "ar"])
    def test_iid_near_n(self, method):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100_000)
        assert ess_univariate(x, method) == pytest.approx(x.size, rel=0.1)

    @pytest.mark.parametrize("method", ["geyer", "ar"])
    def test_ar1_analytic(self, method):
        # ESS of AR(1) is N (1-rho)/(1+rho) = N/3 at rho = 0.5
        rng = np.random.default_rng(1)
        x = _ar1(100_000, 0.5, rng)[:, 0]
        assert ess_univariate(x, method) == pytest.approx(x.size / 3.0, rel=0.1)

    def test_constant_series_errors(self):
        with pytest.raises(DiagnosticsError):
            ess_geyer(np.ones(100))
        with pytest.raises(DiagnosticsError):
            ess_ar_spectral(np.ones(100))

    def test_estimator_sanity_over_seeds(self):
        passes = 0
        n = 100_000
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(n)
            ok = (0.85 * n <= ess_geyer(x) <= 1.15 * n
                  and 0.85 * n <= ess_ar_spectral(x) <= 1.15 * n
                  and 0.85 * n <= multi_ess(x[:, None]) <= 1.15 * n)
            passes += ok
        assert passes >= 18

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ess_univariate(np.random.default_rng(0).standard_normal(100), "magic")


class TestAutocovariance:
    # scipy.fft stays the oracle here; the package computes with numpy.fft
    def test_next_fast_len_matches_scipy(self):
        large = [2**31 - 1, 2**31 + 1, 3**20 + 1, 10**12 + 7]
        for n in [*range(1, 20_001), *large]:
            assert _next_fast_len(n) == sp_fft.next_fast_len(n, real=True), n

    @pytest.mark.parametrize("s", [1, 16])
    @pytest.mark.parametrize("n", [50, 1060, 1451, 4500, 6000])
    def test_matches_scipy_formula(self, s, n):
        x = np.random.default_rng(n + s).standard_normal((s, n)).cumsum(axis=1)
        xc = x - x.mean(axis=-1, keepdims=True)
        m = sp_fft.next_fast_len(2 * n - 1, real=True)
        f = sp_fft.rfft(xc, m, axis=-1)
        expected = sp_fft.irfft(f * np.conj(f), m, axis=-1)[:, :n] / n
        got = _autocovariance(x)
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            # numpy.fft wraps the same pocketfft C++ code as scipy.fft
            assert got.tobytes() == expected.tobytes()
        else:
            # numpy < 2.0 ships the older C pocketfft, equal only to rounding;
            # lags near a zero crossing get an absolute floor at lag-0 scale
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-12 * expected[:, 0].max())


class TestMultiEss:
    def test_iid_multivariate(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10_000, 3))
        assert multi_ess(x) == pytest.approx(10_000, rel=0.15)

    def test_duplicated_coordinate_singular(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((500, 1))
        with pytest.raises(DiagnosticsError, match="singular"):
            multi_ess(np.hstack([base, base]))

    def test_too_few_iterations(self):
        with pytest.raises(DiagnosticsError, match="iterations"):
            multi_ess(np.random.default_rng(0).standard_normal((5, 10)))

    def test_independent_ar1_matches_univariate_geometric_mean(self):
        rng = np.random.default_rng(4)
        x = _ar1(100_000, 0.5, rng, dims=3)
        uni = [ess_univariate(x[:, d], "geyer") for d in range(3)]
        geo = float(np.exp(np.mean(np.log(uni))))
        assert multi_ess(x) == pytest.approx(geo, rel=0.15)


class TestPsrf:
    def test_identical_chains(self):
        x = np.random.default_rng(5).standard_normal((1, 200, 2))
        chains = np.repeat(x, 4, axis=0)
        per_dim, top = psrf(chains)
        n = 200
        assert top == pytest.approx(math.sqrt((n - 1) / n), abs=1e-12)
        assert top <= 1.0

    def test_iid_chains_converged(self):
        rng = np.random.default_rng(6)
        chains = rng.standard_normal((4, 10_000, 3))
        _, top = psrf(chains)
        assert top < 1.01

    def test_shifted_means_detected(self):
        rng = np.random.default_rng(7)
        chains = rng.standard_normal((4, 500, 1))
        chains += 5.0 * np.arange(4)[:, None, None]
        _, top = psrf(chains)
        assert top > 1.1

    def test_requires_two_chains(self):
        with pytest.raises(DiagnosticsError):
            psrf(np.zeros((1, 100, 2)))


class TestFindNConv:
    def test_iid_converges_within_first_checkpoints(self):
        # small prefixes carry estimator noise, so allow a checkpoint or two
        rng = np.random.default_rng(8)
        chains = rng.standard_normal((4, 5_000, 2))
        n = find_n_conv(chains)
        assert n is not None and n <= 150

    def test_diverging_trends_never_converge(self):
        t = np.linspace(0.0, 10.0, 2_000)
        chains = np.stack([(1.0 + 0.5 * c) * t
                           + 0.01 * np.random.default_rng(c).standard_normal(t.size)
                           for c in range(4)])[:, :, None]
        assert find_n_conv(chains) is None

    def test_reported_prefix_satisfies_threshold(self):
        rng = np.random.default_rng(9)
        chains = rng.standard_normal((4, 4_000, 2))
        chains[:, :50, :] += 0.5 * np.linspace(1.0, 0.0, 50)[None, :, None] \
            * np.arange(4)[:, None, None]
        n = find_n_conv(chains, statistic="max")
        assert n is not None
        _, top = psrf(chains[:, :n, :])
        assert top < 1.01

    def test_avg_statistic(self):
        rng = np.random.default_rng(10)
        chains = rng.standard_normal((4, 2_000, 3))
        n_avg = find_n_conv(chains, statistic="avg")
        n_max = find_n_conv(chains, statistic="max")
        assert n_avg is not None and n_max is not None
        assert n_avg <= n_max

    def test_unknown_statistic(self):
        chains = np.random.default_rng(10).standard_normal((4, 400, 3))
        with pytest.raises(ValueError, match="statistic"):
            find_n_conv(chains, statistic="maxx")


class TestGradPerEss:
    def test_window_default(self):
        assert default_window(100) == 1000
        assert default_window(2000) == 2000

    def test_grad_is_the_paper_count(self, std_gauss_2d):
        # grad = C (N_conv + window) mean_L k, with L drawn per iteration
        config = SamplerConfig(dt_rule=UniformInterval(0.05, 0.15),
                               l_rule=DiscreteSet(range(1, 10)), phi_rule=Fixed(1.0),
                               scheme=build_scheme("bcss3"), seed=5)
        runs = [run_chain(std_gauss_2d, config, 600, chain_index=c) for c in range(3)]
        chain_set = ChainSet(np.stack([s for s, _ in runs]), [r for _, r in runs],
                             stages=3)
        report = diagnose(chain_set, threshold=1.1, window=300)
        assert report.n_conv is not None
        assert len(set(runs[0][1].n_steps[:report.n_conv + 300])) > 1
        want = 3 * (report.n_conv + 300) * report.mean_l * report.stages
        assert report.grad == pytest.approx(want, rel=1e-12)


class TestRef:
    def test_identity(self):
        assert ref_metric(3.0, 3.0) == 1.0

    def test_direction(self):
        assert ref_metric(10.0, 20.0) == pytest.approx(2.0)

    @given(a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, a, b):
        assert ref_metric(a, b) * ref_metric(b, a) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DiagnosticsError):
            ref_metric(0.0, 1.0)


class TestDiagnose:
    def test_full_report_on_iid_chains(self):
        rng = np.random.default_rng(11)
        chains = rng.standard_normal((4, 3_000, 2))
        from ghmctune.samplers import ChainRecords

        records = []
        for _ in range(4):
            rec = ChainRecords.empty(3_000)
            rec.accepted[:] = True
            rec.n_steps[:] = 2
            rec.grad_evals[:] = 6
            records.append(rec)
        report = diagnose(ChainSet(chains, records, stages=3), window=1000)
        assert report.n_conv == 50
        upto = 1050
        assert report.ess_mean == pytest.approx(4 * upto, rel=0.15)
        assert report.grad == 4 * upto * 6
        assert report.grad_per_mean_ess == pytest.approx(report.grad / report.ess_mean)
        text = report.to_json()
        again = DiagnosticsReport.from_json(text)
        assert again.ess_mean == report.ess_mean

    def test_ess_above_window_flagged(self):
        # antithetic chains (x_{t+1} = -x_t + noise) have ESS far above N
        x = _ar1(4 * 600, -0.9, np.random.default_rng(15), dims=2)
        chains = x.reshape(4, 600, 2)
        with pytest.warns(RuntimeWarning, match="ESS exceeds"):
            report = diagnose(ChainSet(chains), window=300)
        assert report.ess_exceeds_window is True
        assert report.ess_mean > 1.1 * 4 * (report.n_conv + 300)
        again = DiagnosticsReport.from_json(report.to_json())
        assert again.ess_exceeds_window is True

    def test_ess_flag_defaults_for_old_reports(self):
        chains = _ar1(4 * 600, 0.5, np.random.default_rng(16), dims=2).reshape(4, 600, 2)
        report = diagnose(ChainSet(chains), threshold=1.1, window=300)
        assert report.ess_mean is not None
        assert report.ess_exceeds_window is False
        fields = json.loads(report.to_json())
        del fields["ess_exceeds_window"]
        assert DiagnosticsReport.from_json(json.dumps(fields)).ess_exceeds_window is False

    def test_unconverged_report_has_no_metrics(self):
        t = np.linspace(0.0, 5.0, 500)
        chains = np.stack([(1.0 + c) * t for c in range(3)])[:, :, None]
        chains += 0.01 * np.random.default_rng(0).standard_normal(chains.shape)
        report = diagnose(ChainSet(chains))
        assert report.n_conv is None
        assert report.ess_mean is None and report.grad is None

    @pytest.mark.parametrize("statistic", ["max", "avg"])
    def test_scan_matches_find_n_conv(self, statistic):
        chains = np.random.default_rng(13).standard_normal((4, 400, 3))
        report = diagnose(ChainSet(chains), statistic=statistic, window=100)
        assert report.n_conv == find_n_conv(chains, statistic=statistic)
        ms = [m for m, _, _ in report.psrf_trajectory]
        assert ms == [50, 60, 72, 87, 105, 126, 152, 183, 220, 264, 317, 381, 400]
        for m, top, avg in report.psrf_trajectory:
            per_dim, want = psrf(chains[:, :m, :])
            assert (top, avg) == (want, float(per_dim.mean()))

    def test_rejects_unknown_settings_before_work(self, monkeypatch):
        chain_set = ChainSet(np.random.default_rng(14).standard_normal((4, 400, 3)))

        def no_work(*args, **kwargs):
            raise AssertionError("PSRF computed before the settings were checked")

        monkeypatch.setattr("ghmctune.diagnostics.psrf", no_work)
        with pytest.raises(ValueError, match="ess_method"):
            diagnose(chain_set, ess_method="foo")
        with pytest.raises(ValueError, match="statistic"):
            diagnose(chain_set, statistic="maxx")

    def test_tables_written(self, tmp_path):
        rng = np.random.default_rng(12)
        chains = rng.standard_normal((3, 500, 2))
        report = diagnose(ChainSet(chains), window=100)
        report.write_tables(tmp_path)
        assert (tmp_path / "psrf_trajectory.csv").exists()
        assert (tmp_path / "metrics.csv").exists()

    def test_time_normalized_monotone_in_ess(self):
        # ESS/T at fixed wall time is ordered exactly like ESS
        wall = 12.5
        esses = [100.0, 250.0, 900.0]
        rates = [e / wall for e in esses]
        assert rates == sorted(rates)
