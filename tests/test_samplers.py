import math

import numpy as np
import pytest
from scipy import stats as sps

from ghmctune.integrators import OutOfStabilityError, build_scheme, rotation_angle
from ghmctune.samplers import (
    AdaptiveScheme,
    DiscreteSet,
    Fixed,
    SamplerConfig,
    UniformInterval,
    chain_rng,
    metropolis_accept,
    partial_momentum_update,
    run_chain,
    run_chains,
)


def _vv_config(dt=1.0, l=3, phi=Fixed(1.0), seed=0):
    return SamplerConfig(
        dt_rule=Fixed(dt),
        l_rule=Fixed(l),
        phi_rule=phi,
        scheme=build_scheme("vv"),
        seed=seed,
    )


class TestPartialMomentumUpdate:
    def test_full_refresh_discards_momentum(self):
        p = np.array([5.0, -3.0])
        rng1 = np.random.default_rng(1)
        rng2 = np.random.default_rng(1)
        refreshed = partial_momentum_update(p, 1.0, rng1)
        noise = rng2.standard_normal(2)
        assert np.array_equal(refreshed, noise)

    def test_tiny_phi_keeps_momentum(self):
        p = np.array([1.0, 2.0, 3.0])
        refreshed = partial_momentum_update(p, 1e-14, np.random.default_rng(0))
        assert refreshed == pytest.approx(p, rel=1e-6)

    def test_preserves_target_covariance(self):
        # p ~ N(0, I) stays N(0, I) after mixing for any phi
        rng = np.random.default_rng(42)
        draws = np.empty((100_000, 3))
        for i in range(draws.shape[0]):
            p = rng.standard_normal(3)
            draws[i] = partial_momentum_update(p, 0.3, rng)
        cov = np.cov(draws.T)
        assert np.diag(cov) == pytest.approx(np.ones(3), rel=0.03)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.03

    @pytest.mark.parametrize("phi", [0.0, -0.1, 1.1])
    def test_rejects_bad_phi(self, phi):
        with pytest.raises(ValueError):
            partial_momentum_update(np.zeros(2), phi, np.random.default_rng(0))


class TestDrawRules:
    @pytest.mark.parametrize("lo,hi", [(1, 66), (1, 1), (3, 9)])
    def test_integer_range_set_draws_like_integers(self, lo, hi):
        # a uniform integer range is the set of its values, draw for draw
        rule, rng = DiscreteSet(range(lo, hi + 1)), chain_rng(7, 1)
        ref = chain_rng(7, 1)
        draws = [rule.draw(rng) for _ in range(2000)]
        assert draws == [int(ref.integers(lo, hi + 1)) for _ in range(2000)]
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert rule.mean == 0.5 * (lo + hi)


class TestMetropolis:
    def test_zero_error_always_accepts(self):
        rng = np.random.default_rng(0)
        assert all(metropolis_accept(0.0, rng) for _ in range(1000))

    def test_log_two_rate(self):
        rng = np.random.default_rng(123)
        n = 100_000
        accepted = sum(metropolis_accept(math.log(2.0), rng) for _ in range(n))
        assert accepted / n == pytest.approx(0.5, abs=0.01)

    def test_divergence_rejects(self):
        rng = np.random.default_rng(0)
        assert not metropolis_accept(math.inf, rng)
        assert not metropolis_accept(math.nan, rng)


class TestIteration:
    def test_flat_potential_conserves_energy(self):
        from ghmctune.models import TargetModel

        model = TargetModel(2, lambda th: np.zeros(th.shape[:-1]),
                            lambda th: np.zeros_like(th), None, "flat")
        _, records = run_chain(model, _vv_config(dt=0.5, l=7), 20)
        assert np.all(np.abs(records.delta_h) <= 1e-12)
        assert records.accepted.all()

    def test_exact_rotation_oracle(self, std_gauss_1d):
        # analytic harmonic flow conserves energy exactly; the kernel pieces
        # replicated with the exact rotation accept every proposal
        rng = chain_rng(1, 0)
        theta, p = np.array([0.4]), np.array([0.0])
        for _ in range(50):
            p = partial_momentum_update(p, 0.5, rng)
            h0 = 0.5 * (p @ p) + 0.5 * (theta @ theta)
            angle = 1.23
            theta, p = (math.cos(angle) * theta + math.sin(angle) * p,
                        -math.sin(angle) * theta + math.cos(angle) * p)
            dh = 0.5 * (p @ p) + 0.5 * (theta @ theta) - h0
            assert dh == pytest.approx(0.0, abs=1e-14)
            assert metropolis_accept(dh, rng)

    def test_gradient_count_per_proposal(self, std_gauss_2d):
        config = SamplerConfig(dt_rule=Fixed(0.5),
                               l_rule=DiscreteSet(range(1, 10)),
                               phi_rule=UniformInterval(0.2, 0.9),
                               scheme=build_scheme("bcss3"), seed=3)
        _, records = run_chain(std_gauss_2d, config, 200)
        assert np.array_equal(records.grad_evals, records.n_steps * 3)

    def test_rejection_keeps_position_flips_momentum(self, std_gauss_1d):
        config = _vv_config(dt=1.99, l=1, phi=Fixed(0.01), seed=9)
        theta = np.array([4.0])
        samples, records = run_chain(std_gauss_1d, config, 100,
                                     initial_theta=theta)
        previous = np.concatenate([theta[None], samples[:-1]])
        rejected = ~records.accepted
        assert rejected.any()
        assert np.array_equal(samples[rejected], previous[rejected])


class TestSchemeSelectors:
    def test_stages(self, saia_map):
        assert AdaptiveScheme(1.0, saia_map).stages == 3
        for name, k in (("vv", 1), ("bcss2", 2), ("me3", 3)):
            assert build_scheme(name).stages == k

    def test_config_takes_schemes_unwrapped(self, saia_map):
        for scheme in (build_scheme("bcss3"), AdaptiveScheme(1.0, saia_map)):
            config = SamplerConfig(dt_rule=Fixed(2.5), l_rule=Fixed(1),
                                   phi_rule=Fixed(1.0), scheme=scheme)
            assert config.scheme is scheme
        with pytest.raises(ValueError):
            SamplerConfig(dt_rule=Fixed(0.1), l_rule=Fixed(1),
                          phi_rule=Fixed(1.0), scheme="bcss3")

    def test_adaptive_range_checked_per_draw(self, saia_map):
        with pytest.raises(OutOfStabilityError):
            AdaptiveScheme(1.0, saia_map).step_coefficients(6.5)


class TestRunChain:
    def test_deterministic_per_seed(self, std_gauss_2d):
        config = SamplerConfig(dt_rule=UniformInterval(0.3, 0.6),
                               l_rule=DiscreteSet((2, 5, 7)),
                               phi_rule=UniformInterval(0.1, 0.9),
                               scheme=build_scheme("me3"), seed=11)
        s1, r1 = run_chain(std_gauss_2d, config, 500, chain_index=2)
        s2, r2 = run_chain(std_gauss_2d, config, 500, chain_index=2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(r1.delta_h, r2.delta_h)

    def test_chain_streams_differ(self, std_gauss_2d):
        config = _vv_config(dt=0.8, l=2, seed=5)
        s1, _ = run_chain(std_gauss_2d, config, 100, chain_index=0)
        s2, _ = run_chain(std_gauss_2d, config, 100, chain_index=1)
        assert not np.array_equal(s1, s2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(dt_rule=Fixed(0.1), l_rule=Fixed(0),
                          phi_rule=Fixed(1.0), scheme=build_scheme("vv"))
        with pytest.raises(ValueError):
            SamplerConfig(dt_rule=Fixed(0.1), l_rule=Fixed(1),
                          phi_rule=UniformInterval(0.5, 1.2),
                          scheme=build_scheme("vv"))

    @pytest.mark.parametrize("rule", [lambda: Fixed(2.5), lambda: Fixed(math.nan),
                                      lambda: Fixed(math.inf),
                                      lambda: DiscreteSet((2.5, 5))],
                             ids=["fixed-2.5", "fixed-nan", "fixed-inf", "set-2.5"])
    def test_trajectory_length_must_be_whole(self, rule):
        # the kernel would truncate L = 2.5 to 2
        with pytest.raises(ValueError):
            SamplerConfig(dt_rule=Fixed(0.1), l_rule=rule(),
                          phi_rule=Fixed(1.0), scheme=build_scheme("vv"))

    def test_whole_float_trajectory_lengths_accepted(self):
        assert DiscreteSet((2.0, 5)).values == (2, 5)
        config = _vv_config(l=2.0)
        assert config.l_rule == Fixed(2.0)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_fixed_step_must_be_positive(self, dt):
        with pytest.raises(ValueError, match="step size"):
            _vv_config(dt=dt)

    def test_needs_at_least_one_iteration(self, std_gauss_1d):
        with pytest.raises(ValueError):
            run_chain(std_gauss_1d, _vv_config(), 0)

    def test_moments_on_standard_gaussian(self, std_gauss_2d):
        config = _vv_config(dt=1.2, l=3, seed=17)
        samples, _ = run_chain(std_gauss_2d, config, 100_000)
        from ghmctune.diagnostics import ess_geyer

        for dim in range(2):
            x = samples[:, dim]
            ess = ess_geyer(x)
            assert abs(x.mean()) < 4.0 / math.sqrt(ess)
            assert x.var() == pytest.approx(1.0, rel=0.05)

    def test_acceptance_above_95_below_half_stability(self, std_gauss_1d):
        config = _vv_config(dt=0.9, l=3, seed=2)
        _, records = run_chain(std_gauss_1d, config, 5_000)
        assert records.acceptance_rate > 0.95

    def test_divergent_trajectory_flagged_and_rejected(self, std_gauss_1d):
        # far outside stability: the energy error explodes immediately
        config = _vv_config(dt=50.0, l=10, seed=4)
        samples, records = run_chain(std_gauss_1d, config, 50,
                                     initial_theta=np.array([1.0]))
        assert records.divergent.any()
        assert not records.accepted[records.divergent].any()


class TestRunChains:
    def test_batch_names_the_failing_chain(self, std_gauss_2d, saia_map):
        # h = dt beyond the map's (0, 6] fails the coefficient lookup; with
        # L = 1 the chains move in step, and chain 1 alone fails first
        config = SamplerConfig(dt_rule=UniformInterval(4.5, 6.3),
                               l_rule=Fixed(1), phi_rule=Fixed(0.5),
                               scheme=AdaptiveScheme(1.0, saia_map), seed=12)
        alone = []
        for index in range(3):
            with pytest.raises(RuntimeError) as info:
                run_chain(std_gauss_2d, config, 50, chain_index=index)
            alone.append(str(info.value))
        assert alone[1].startswith("chain 1 failed at iteration 2:")
        assert alone[0] != alone[1] != alone[2]
        with pytest.raises(RuntimeError) as info:
            run_chains(std_gauss_2d, config, 50, [None] * 3, [0, 1, 2])
        assert str(info.value) == alone[1]
        assert isinstance(info.value.__cause__, OutOfStabilityError)

    def test_model_failure_names_its_row(self):
        from ghmctune.models import TargetModel

        def gradient(theta):
            if not np.isfinite(theta).all():
                raise ValueError("non-finite position")
            return theta.copy()

        # h = 3 is unstable for Verlet: the chain started at 1e300 overflows
        # within its first trajectory, the others stay finite
        model = TargetModel(1, lambda th: np.zeros(th.shape[:-1]), gradient,
                            None, "bounded-gradient")
        config = _vv_config(dt=3.0, l=12, seed=0)
        starts = [np.zeros(1), np.full(1, 1e300), np.zeros(1)]
        with pytest.raises(RuntimeError) as alone:
            run_chain(model, config, 10, initial_theta=starts[1], chain_index=7)
        assert str(alone.value).startswith("chain 7 failed at iteration 0:")
        with pytest.raises(RuntimeError) as batch:
            run_chains(model, config, 10, starts, [3, 7, 9])
        assert str(batch.value) == str(alone.value)


class TestHarmonicAcceptanceRate:
    def test_matches_asymptotic_formula(self, std_gauss_1d):
        # E[AR] = 2 Phi(-sqrt(E[dH]/2)) with the L-step closed-form energy
        # error E^L = sin^2(L eta) / sin^2(eta) * h^6/32 for velocity Verlet
        h, l = 1.9, 5
        eta = rotation_angle(build_scheme("vv"), h)
        e_l = math.sin(l * eta) ** 2 / math.sin(eta) ** 2 * h**6 / 32.0
        predicted = 2.0 * sps.norm.cdf(-math.sqrt(e_l / 2.0))
        config = _vv_config(dt=h, l=l, seed=31)
        _, records = run_chain(std_gauss_1d, config, 10_000)
        assert abs(records.acceptance_rate - predicted) < 0.03


class TestStationarity:
    def test_kolmogorov_smirnov_pooled(self, std_gauss_1d, saia_map):
        # 64 chains started at exact draws from the 1-D target, tuned settings
        from ghmctune.samplers import AdaptiveScheme
        from ghmctune.tuning import phi_interval

        lo, hi = phi_interval(1)
        config = SamplerConfig(
            dt_rule=UniformInterval(2.0772, 3.0),
            l_rule=Fixed(1),
            phi_rule=UniformInterval(lo, hi),
            scheme=AdaptiveScheme(1.0, saia_map),
            seed=77,
        )
        pooled = []
        for chain in range(64):
            rng = chain_rng(1234, 500 + chain)
            theta0 = rng.standard_normal(1)
            samples, _ = run_chain(std_gauss_1d, config, 200,
                                   initial_theta=theta0, chain_index=chain)
            pooled.append(samples[:, 0])
        pooled = np.concatenate(pooled)
        stat = sps.kstest(pooled, "norm").statistic
        critical = 1.62762 / math.sqrt(pooled.size)
        assert stat < critical
