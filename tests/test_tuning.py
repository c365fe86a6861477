import dataclasses
import json
import math

import numpy as np
import pytest

from ghmctune.bench import RunConfig, resolve_benchmark
from ghmctune.integrators import H_LOWER
from ghmctune.models import (
    TargetModel,
    gaussian_model,
    gen_wishart_precision,
)
from ghmctune.samplers import DiscreteSet, Fixed, UniformInterval, run_chain
from ghmctune.tuning import (
    BurninStats,
    TuningError,
    TuningReport,
    adapt_step_size,
    atune,
    collect_frequencies,
    config_from_report,
    dimensionalization_factor,
    eta_at_interval_midpoint,
    fitting_factor,
    l_candidates_from_eta,
    l_scheme,
    phi_interval,
    phi_opt,
    produce_settings,
    run_burnin,
    stepsize_interval,
)


def _stats(dimension=10, ar=0.95, dt_vv=0.5, energy=0.01, omegas=None,
           omega_max=1.0):
    # a flat spectrum at omega_max unless one is given
    if omegas is None:
        omegas = np.full(dimension, omega_max)
    return BurninStats(dimension=dimension, ar=ar, dt_vv=dt_vv,
                       energy_error=energy, omegas=omegas, n_iterations=1000)


class TestAdaptStepSize:
    def test_on_target_leaves_dt(self):
        assert adapt_step_size(0.9, 0.3, 0.9, 0.5) == pytest.approx(0.3)

    def test_full_acceptance_grows_dt(self):
        dt = 0.1
        history = []
        for t in range(1, 101):
            dt_next = adapt_step_size(1.0, dt, 0.9, 1.0 / math.sqrt(t))
            history.append(dt_next > dt)
            dt = dt_next
        assert all(history)

    def test_closed_loop_reaches_target(self, std_gauss_1d):
        stats, _ = run_burnin(std_gauss_1d, 2000, mode="hmc", target_ar=0.95,
                              seed=5)
        assert stats.ar == pytest.approx(0.95, abs=0.03)


class TestRunBurnin:
    def test_unit_gaussian_frequencies(self):
        model = gaussian_model(np.eye(8))
        stats, _ = run_burnin(model, 600, mode="ghmc", seed=1)
        assert stats.omegas == pytest.approx(np.ones(8), abs=1e-12)
        assert stats.omega_std == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        model = gaussian_model(gen_wishart_precision(6, seed=4))
        a, _ = run_burnin(model, 500, mode="ghmc", seed=9)
        b, _ = run_burnin(model, 500, mode="ghmc", seed=9)
        assert a.ar == b.ar and a.dt_vv == b.dt_vv
        assert np.array_equal(a.omegas, b.omegas)

    def test_wishart_100_hits_target_band(self):
        model = gaussian_model(gen_wishart_precision(100, seed=0), name="g100")
        stats, _ = run_burnin(model, 1500, mode="ghmc", target_ar=0.95, seed=0)
        assert 0.9 <= stats.ar <= 1.0

    def test_minimum_length(self, std_gauss_1d):
        with pytest.raises(ValueError):
            run_burnin(std_gauss_1d, 50)


class TestCollectFrequencies:
    def test_diagonal_spectrum(self):
        model = gaussian_model(np.diag([1.0, 4.0, 9.0]))
        omegas, clamped = collect_frequencies(model, np.zeros((20, 3)))
        assert omegas == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
        assert clamped == 0
        stats = _stats(dimension=3, omegas=omegas[::-1])
        assert np.array_equal(stats.omegas, omegas)
        assert stats.omega_max == 3.0
        assert stats.omega_std == pytest.approx(np.std([1.0, 2.0, 3.0]),
                                                abs=1e-12)

    def test_negative_eigenvalues_clamped(self):
        model = TargetModel(2, lambda th: 0.0, lambda th: np.zeros(2),
                            lambda th: np.diag([-1.0, 4.0]), "saddle")
        omegas, clamped = collect_frequencies(model, np.zeros((5, 2)))
        assert clamped == 5
        assert omegas[0] == 0.0 and omegas[-1] == 2.0

    def test_gradient_differences_without_hessian(self):
        # the diagonal-spectrum case, from central differences of the gradient
        model = dataclasses.replace(gaussian_model(np.diag([1.0, 4.0, 9.0])),
                                    hessian=None)
        samples = 3.0 * np.random.default_rng(0).standard_normal((20, 3))
        omegas, clamped = collect_frequencies(model, samples)
        assert omegas == pytest.approx([1.0, 2.0, 3.0], abs=1e-8)
        assert clamped == 0


class TestFittingFactor:
    def test_perfect_acceptance_floors_at_one(self):
        with pytest.warns(RuntimeWarning):
            assert fitting_factor(_stats(ar=1.0)) == 1.0

    def test_frozen_example(self):
        stats = _stats(dimension=100, ar=0.95, dt_vv=0.5,
                       omegas=np.ones(100), omega_max=1.0)
        expected = max(1.0, (2.0 / 0.5) * (2 * math.pi * 0.05**2 / 100) ** (1 / 6))
        assert fitting_factor(stats) == pytest.approx(expected, rel=1e-12)

    def test_two_printed_forms_agree(self):
        # oracle: the energy-error form with E = 4 pi (1-AR)^2 equals the
        # acceptance-rate form used by the implementation
        rng = np.random.default_rng(3)
        for _ in range(20):
            ar = rng.uniform(0.7, 0.99)
            dt = rng.uniform(0.05, 1.0)
            omegas = rng.uniform(0.2, 4.0, size=12)
            stats = _stats(dimension=12, ar=ar, dt_vv=dt, omegas=omegas)
            e_vv = 4.0 * math.pi * (1.0 - ar) ** 2
            oracle = max(1.0, (1.0 / dt) * (32.0 * e_vv / np.sum(omegas**6)) ** (1 / 6))
            assert fitting_factor(stats) == pytest.approx(oracle, rel=1e-12)

    def test_flat_spectrum_uses_max_frequency_only(self):
        # sum_j w_j^6 = D w_max^6 for a flat spectrum
        stats = _stats(dimension=100, ar=0.95, dt_vv=0.5, omega_max=2.0)
        expected = max(1.0, (2.0 / (2.0 * 0.5))
                       * (2 * math.pi * 0.05**2 / 100) ** (1 / 6))
        assert fitting_factor(stats) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_acceptance(self):
        values = [fitting_factor(_stats(dimension=5, ar=ar, dt_vv=0.02,
                                        omega_max=4.0))
                  for ar in (0.5, 0.7, 0.9, 0.99)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= 1.0


class TestDimensionalization:
    def test_compact_branch(self):
        assert dimensionalization_factor(1.0, 2.0, 0.0) == 2.0

    def test_dispersed_branch(self):
        assert dimensionalization_factor(2.0, 5.0, 1.5) == 7.0

    def test_boundary_takes_compact_branch(self):
        assert dimensionalization_factor(1.0, 2.0, 1.0) == 2.0

    def test_invalid_spread(self):
        with pytest.raises(TuningError, match="at least the maximum frequency"):
            dimensionalization_factor(1.0, 1.2, 1.3)


class TestStepsizeInterval:
    def test_division(self):
        lo, hi = stepsize_interval(20.0)
        assert lo == pytest.approx(0.10386, abs=1e-9)
        assert hi == pytest.approx(0.15, abs=1e-12)

    def test_ratio_invariant(self):
        for cf in (0.3, 2.0, 57.7, 400.0):
            lo, hi = stepsize_interval(cf)
            assert hi / lo == pytest.approx(3.0 / 2.0772, abs=1e-9)

    def test_reference_dimensional_interval(self):
        # published large-model interval (0.036, 0.052) implies CF near 57.7
        lo, hi = stepsize_interval(57.7)
        assert lo == pytest.approx(0.036, rel=0.01)
        assert hi == pytest.approx(0.052, rel=0.01)

    def test_scaling(self):
        lo1, hi1 = stepsize_interval(10.0)
        lo2, hi2 = stepsize_interval(20.0)
        assert lo2 == pytest.approx(lo1 / 2) and hi2 == pytest.approx(hi1 / 2)


class TestPhiInterval:
    def test_reference_large_dimension(self):
        lo, hi = phi_interval(1000)
        assert lo == pytest.approx(0.00044, rel=0.05)
        assert hi == pytest.approx(0.00264, rel=0.05)

    def test_small_dimension_clips(self):
        lo, hi = phi_interval(2)
        assert hi == 1.0
        assert lo == pytest.approx(0.21904, rel=0.05)

    def test_product_invariant_across_dimensions(self):
        lower_products = []
        upper_products = []
        for d in (25, 167, 500, 1000, 2000):
            lo, hi = phi_interval(d)
            lower_products.append(lo * d)
            upper_products.append(hi * d)
        assert max(lower_products) / min(lower_products) < 1.02
        assert max(upper_products) / min(upper_products) < 1.02

    def test_upper_endpoint_clips_independently(self):
        lo, hi = phi_interval(1)
        assert hi == 1.0
        assert 0.0 < lo < 1.0

    def test_phi_opt_monotone_over_interval(self):
        values = [phi_opt(h, 500) for h in np.linspace(H_LOWER, 3.0, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestLRules:
    def test_harmonic_region_fixed_one(self):
        assert isinstance(l_scheme(1.0), Fixed)
        assert l_scheme(1.0).value == 1
        assert l_scheme(1.49).value == 1

    def test_anharmonic_region_choice_set(self):
        rule = l_scheme(2.3)
        assert isinstance(rule, DiscreteSet)
        assert rule.values == (2, 5, 7)

    def test_choice_draw_uniformity(self):
        rule = l_scheme(2.3)
        rng = np.random.default_rng(0)
        draws = [rule.draw(rng) for _ in range(10_000)]
        for value in (2, 5, 7):
            assert draws.count(value) / len(draws) == pytest.approx(1 / 3, abs=0.02)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            l_scheme(0.8)


class TestLCandidates:
    def test_eta_midpoint_reference(self):
        assert eta_at_interval_midpoint() == pytest.approx(2.637354, abs=1e-3)

    def test_reference_candidate_values(self):
        eta = 2.637354
        l1, l2, l3 = l_candidates_from_eta(2.0, eta=eta)
        assert l1 == pytest.approx(2.4, abs=0.1)
        assert l2 == pytest.approx(4.8, abs=0.1)
        assert l3 == pytest.approx(7.2, abs=0.1)

    @pytest.mark.parametrize("s_f", [1.5, 2.0, 3.0, 10.0, 1e6])
    def test_rounds_to_choice_set(self, s_f):
        eta = eta_at_interval_midpoint()
        rounded = [round(v) for v in l_candidates_from_eta(s_f, eta=eta)]
        assert rounded == [2, 5, 7]

    def test_reflected_branch_at_unit_fitting(self):
        eta = eta_at_interval_midpoint()
        (l0,) = l_candidates_from_eta(1.0, eta=eta, n_values=(0,))
        assert l0 == pytest.approx(1.0, abs=1e-12)


class TestProduceSettings:
    def test_hmc_report_omits_phi(self):
        report = produce_settings(_stats(), mode="hmc")
        config = config_from_report(report)
        assert report.phi_lower is None and report.phi_upper is None
        assert isinstance(config.phi_rule, Fixed) and config.phi_rule.value == 1.0

    def test_ratio_invariant_enforced(self):
        report = produce_settings(_stats())
        assert report.dt_colsi / report.dt_lower == pytest.approx(3.0 / H_LOWER,
                                                                  abs=1e-9)

    def test_unit_frequency_pipeline(self):
        # identity-precision target: CF = S_f * 1, interval = (2.0772, 3)/S_f
        model = gaussian_model(np.eye(100), name="i100")
        report, stats = atune(model, mode="ghmc", n_burnin=800, seed=13)
        assert stats.omega_max == pytest.approx(1.0, abs=1e-9)
        assert report.cf == pytest.approx(report.s_f, rel=1e-12)
        assert report.dt_lower == pytest.approx(H_LOWER / report.s_f, rel=1e-12)
        assert report.dt_colsi == pytest.approx(3.0 / report.s_f, rel=1e-12)

    def test_report_json_round_trip(self):
        report = produce_settings(_stats(dimension=40), seed=3)
        text = report.to_json()
        again = TuningReport.from_json(text)
        assert again == report
        assert again.to_json() == text

    def test_production_steps_stay_in_tuned_window(self):
        model = gaussian_model(gen_wishart_precision(10, seed=6), name="g10")
        report, _ = atune(model, mode="ghmc", n_burnin=600, seed=6)
        _, records = run_chain(model, config_from_report(report), 300)
        h_drawn = report.cf * records.dt
        assert np.all(h_drawn >= H_LOWER - 1e-9)
        assert np.all(h_drawn <= 3.0 + 1e-9)

    @pytest.mark.parametrize("name,seed,l_rule", [
        ("gauss-5", 2, Fixed(1)),
        ("gauss-100", 0, Fixed(1)),
        ("gauss-100", 1, Fixed(1)),
        ("blr-synthetic-25-1000", 1, Fixed(1)),
        ("banana", 0, Fixed(1)),
        ("gauss-500", 0, DiscreteSet((2, 5, 7)))])
    def test_hessian_free_tuning_matches_hessian(self, name, seed, l_rule):
        # without a Hessian the spectrum comes from gradient differences
        model = resolve_benchmark(RunConfig(benchmark=name, seed=seed))
        exact, _ = atune(model, n_burnin=1000, seed=seed)
        free, _ = atune(dataclasses.replace(model, hessian=None),
                        n_burnin=1000, seed=seed)
        assert free.s_f == pytest.approx(exact.s_f, rel=1e-6)
        assert free.cf == pytest.approx(exact.cf, rel=1e-6)
        assert free.l_rule() == exact.l_rule() == l_rule

    def test_report_of_older_version_loads(self):
        # older reports carry the removed fitting_mode key
        report = produce_settings(_stats(dimension=40), seed=3)
        data = json.loads(report.to_json())
        data["fitting_mode"] = "s_omega"
        assert TuningReport.from_json(json.dumps(data)) == report

    def test_report_carries_burnin_failures(self):
        # a stiff direction makes the first burn-in steps diverge; the
        # banana's curved ridge has negative Hessian eigenvalues
        stiff = gaussian_model(np.diag([1.0, 1e6]))
        report, stats = atune(stiff, n_burnin=200, seed=1)
        assert report.burnin_divergent == stats.n_divergent > 0
        banana = resolve_benchmark(RunConfig(benchmark="banana", seed=1))
        report, stats = atune(banana, n_burnin=200, seed=1)
        assert report.burnin_clamped == stats.n_clamped > 0
        assert TuningReport.from_json(report.to_json()) == report

    def test_report_without_burnin_counts_loads(self):
        report = produce_settings(_stats(dimension=40), seed=3)
        data = json.loads(report.to_json())
        del data["burnin_divergent"], data["burnin_clamped"]
        older = TuningReport.from_json(json.dumps(data))
        assert older == dataclasses.replace(report, burnin_divergent=None,
                                            burnin_clamped=None)

    def test_config_from_report_round_trip(self):
        report = produce_settings(_stats(dimension=30), seed=8)
        config = config_from_report(report)
        rebuilt = config_from_report(TuningReport.from_json(report.to_json()))
        assert isinstance(rebuilt.dt_rule, UniformInterval)
        assert rebuilt.dt_rule == config.dt_rule
        assert rebuilt.phi_rule == config.phi_rule


class TestTuningReportChecks:
    @pytest.mark.parametrize("mode", ["ghmc", "hmc"])
    @pytest.mark.parametrize("omega_max", [1e-3, 0.7, 1.0, 3.3, 250.0])
    def test_tuner_reports_pass(self, mode, omega_max):
        stats = _stats(dimension=7, ar=0.8, dt_vv=0.2 / omega_max,
                       omega_max=omega_max)
        report = produce_settings(stats, mode=mode, h_lower=H_LOWER * 1.05)
        assert TuningReport.from_json(report.to_json()) == report

    @pytest.mark.parametrize("edit,match", [
        (lambda r: dict(cf=-1.0), "cf"),
        (lambda r: dict(cf=math.inf), "cf"),
        (lambda r: dict(cf=math.nan), "cf"),
        (lambda r: dict(cf=2.0 * r.cf), "h_lower"),
        (lambda r: dict(l_fixed=0), "L must"),
        (lambda r: dict(l_fixed=None), "exactly one"),
        (lambda r: dict(l_choices=(2, 5)), "exactly one"),
        (lambda r: dict(l_fixed=None, l_choices=(0, 2)), "positive integers"),
        (lambda r: dict(phi_lower=None, phi_upper=None), "GHMC"),
        (lambda r: dict(mode="hmc"), "GHMC")],
        ids=["negative-cf", "infinite-cf", "nan-cf", "doubled-cf",
             "zero-l-fixed", "no-l-rule", "two-l-rules", "bad-l-choices",
             "ghmc-without-phi", "hmc-with-phi"])
    def test_broken_report_rejected(self, edit, match):
        report = produce_settings(_stats(dimension=40), seed=3)
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(report, **edit(report))
