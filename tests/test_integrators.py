import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghmctune.integrators import (
    A_BCSS3,
    B_BCSS2,
    B_BCSS3,
    B_ME2,
    B_ME3,
    OutOfStabilityError,
    SplittingScheme,
    apply_leg,
    build_scheme,
    energy_error_bound,
    energy_error_one_step,
    expected_energy_error_vv,
    find_h_lower,
    harmonic_propagator,
    lambda_k,
    rho3,
    rho3_grid,
    rotation_angle,
    stability_interval,
    three_stage_a,
    vv_ratio_roots,
)
from ghmctune.models import gaussian_model

ALL_NAMES = ["vv", "vv2", "vv3", "bcss2", "bcss3", "me2", "me3"]


def _schemes():
    return [build_scheme(n) for n in ALL_NAMES]


class TestBuildScheme:
    def test_vv_coefficients(self):
        s = build_scheme("vv")
        assert s.kicks == (0.5, 0.5)
        assert s.drifts == (1.0,)

    def test_vv3_coefficients(self):
        s = build_scheme("vv3")
        assert s.b1 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert s.a1 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_bcss3_kick_value(self):
        assert build_scheme("bcss3").b1 == pytest.approx(0.11888010966548, abs=1e-14)

    def test_bcss3_drift_companion(self):
        # family relation reproduces the literature drift coefficient
        assert A_BCSS3 == pytest.approx(0.29619504261126, abs=1e-12)

    def test_reference_two_stage_coefficients(self):
        # literature values, then each constant against its defining problem
        assert B_BCSS2 == pytest.approx(0.21178, abs=5e-5)
        assert B_ME2 == pytest.approx(0.193183, abs=1e-5)
        assert B_ME3 == pytest.approx(0.108991, abs=1e-5)
        delta = 1e-6

        b = B_ME2
        assert abs(((48.0 * b - 72.0) * b + 38.0) * b - 5.0) < 1e-12

        def me3_limit(b):
            s0 = -3.0 * b**4 + 8.0 * b**3 - 4.75 * b**2 + b - 0.0625
            return s0**2 / (2.0 * (1.0 - 3.0 * b) ** 4)

        assert rho3(1e-3, B_ME3) / 1e-12 == pytest.approx(me3_limit(B_ME3), rel=1e-4)
        assert me3_limit(B_ME3) <= min(me3_limit(B_ME3 - delta),
                                       me3_limit(B_ME3 + delta))

        hs = np.linspace(0.005, 2.0, 500)

        def bcss2_worst(b):
            scheme = SplittingScheme.two_stage(b, "bcss2")
            return max(energy_error_bound(scheme, h) for h in hs)

        assert bcss2_worst(B_BCSS2) <= min(bcss2_worst(B_BCSS2 - delta),
                                           bcss2_worst(B_BCSS2 + delta))
        assert ([build_scheme(n).b1 for n in ("bcss2", "me2", "me3")]
                == [B_BCSS2, B_ME2, B_ME3])

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_constraint_sums(self, name):
        s = build_scheme(name)
        assert sum(s.kicks) == pytest.approx(1.0, abs=1e-12)
        assert sum(s.drifts) == pytest.approx(1.0, abs=1e-12)
        assert all(c > 0 for c in s.kicks + s.drifts)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown integrator"):
            build_scheme("leapfrog9000")

    def test_name_folding(self):
        assert build_scheme("BCSS-3") == build_scheme("bcss3")
        with pytest.raises(ValueError, match="unknown integrator"):
            build_scheme("saia3")  # adaptive, not a fixed named scheme

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_step_coefficients_are_own_tuples(self, name):
        s = build_scheme(name)
        for dt in (0.01, 0.7, 5.0):
            kicks, drifts = s.step_coefficients(dt)
            assert kicks is s.kicks and drifts is s.drifts

    @given(b=st.floats(0.03, 0.24))
    @settings(max_examples=30, deadline=None)
    def test_three_stage_family_is_valid_scheme(self, b):
        s = SplittingScheme.three_stage(b, three_stage_a(b), "fam")
        assert sum(s.kicks) == pytest.approx(1.0, abs=1e-12)
        prop = harmonic_propagator(s, 0.8)
        assert prop.determinant == pytest.approx(1.0, abs=1e-12)


class TestPropagator:
    def test_vv_entries(self):
        h = 1.3
        p = harmonic_propagator(build_scheme("vv"), h)
        assert p.a == pytest.approx(1 - h * h / 2, abs=1e-14)
        assert p.b == pytest.approx(h, abs=1e-14)
        assert p.c == pytest.approx(-h + h**3 / 4, abs=1e-14)
        assert p.b + p.c == pytest.approx(h**3 / 4, abs=1e-14)

    def test_vv2_entries(self):
        h = 1.7
        p = harmonic_propagator(build_scheme("vv2"), h)
        assert p.b == pytest.approx(h - h**3 / 8, rel=1e-13)
        assert p.c == pytest.approx(-h + 3 * h**3 / 16 - h**5 / 128, rel=1e-13)

    def test_vv3_entries(self):
        h = 2.3
        p = harmonic_propagator(build_scheme("vv3"), h)
        assert p.b == pytest.approx(h * (h*h - 9) * (h*h - 27) / 243, rel=1e-12)
        assert p.c == pytest.approx(
            h * (h*h - 9) * (h*h - 27) * (h*h - 36) / 8748, rel=1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_symplectic_unit_determinant(self, name):
        s = build_scheme(name)
        h_max = stability_interval(s)[1]
        for h in np.linspace(h_max / 50, h_max * 0.99, 50):
            assert harmonic_propagator(s, h).determinant == pytest.approx(
                1.0, abs=1e-12)


class TestEnergyError:
    def test_closed_form_one_stage(self):
        assert expected_energy_error_vv(1, 1.0) == pytest.approx(1 / 32, abs=1e-15)

    def test_two_stage_zero_at_sqrt8(self):
        assert expected_energy_error_vv(2, 2 * math.sqrt(2)) == pytest.approx(0.0,
                                                                              abs=1e-25)

    @pytest.mark.parametrize("k,name", [(1, "vv"), (2, "vv2"), (3, "vv3")])
    def test_matches_propagator_formula(self, k, name):
        scheme = build_scheme(name)
        for h in np.linspace(0.02, 2 * k * 0.99, 100):
            closed = expected_energy_error_vv(k, h)
            prop = energy_error_one_step(scheme, h)
            assert closed == pytest.approx(prop, rel=1e-10, abs=1e-18)

    def test_three_stage_at_colsi(self):
        assert expected_energy_error_vv(3, 3.0) == pytest.approx(
            energy_error_one_step(build_scheme("vv3"), 3.0), abs=1e-12)

    def test_domain(self):
        with pytest.raises(OutOfStabilityError):
            expected_energy_error_vv(1, 2.5)


class TestRho3:
    def test_vanishes_as_h4(self):
        vals = [rho3(h, B_BCSS3) / h**4 for h in (1e-3, 1e-2, 1e-1)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-3)
        assert rho3(1e-3, B_BCSS3) < 1e-10

    def test_local_maximum_ordering(self):
        assert rho3(1.0, B_BCSS3) < rho3(2.0772, B_BCSS3) > rho3(2.4, B_BCSS3)

    def test_nonnegative_on_domain(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            h = rng.uniform(0.05, 4.5)
            b = rng.uniform(0.05, 0.24)
            if np.isfinite(rho3_grid(h, b)):
                assert rho3(h, b) >= 0.0

    def test_domain_violation_raises(self):
        with pytest.raises(OutOfStabilityError):
            rho3(5.5, B_BCSS3)

    @pytest.mark.parametrize("b", [0.03, 1 / 6, B_BCSS3, 0.2, 0.2499])
    def test_scalar_equals_grid(self, b):
        hs = np.linspace(0.01, 6.0, 600)
        grid = rho3_grid(hs, b)
        assert np.isfinite(grid).any() and np.isinf(grid).any()
        for h, want in zip(hs, grid):
            if np.isfinite(want):
                got = rho3(h, b)
                assert type(got) is float and got == want
            else:
                with pytest.raises(OutOfStabilityError):
                    rho3(h, b)

    @pytest.mark.parametrize("b,a", [(B_BCSS3, A_BCSS3),
                                     (1 / 6, 1 / 3)])
    def test_equals_propagator_bound_on_family(self, b, a):
        # rho3 is (B+C)^2 / (2 (1 - A^2)) on the a(b) family
        scheme = SplittingScheme.three_stage(b, a, "fam")
        for h in (0.4, 1.1, 2.0, 2.9):
            assert rho3(h, b) == pytest.approx(energy_error_bound(scheme, h),
                                               rel=1e-10)


class TestHLower:
    def test_reference_value_and_runtime(self):
        find_h_lower.cache_clear()
        t0 = time.perf_counter()
        root = find_h_lower()
        assert time.perf_counter() - t0 < 1.0
        assert root == pytest.approx(2.0772, abs=1e-4)

    def test_is_local_maximum(self):
        root = find_h_lower()
        center = rho3(root, B_BCSS3)
        assert rho3(root - 1e-3, B_BCSS3) < center
        assert rho3(root + 1e-3, B_BCSS3) < center

    def test_derivative_vanishes(self):
        root = find_h_lower()
        step = 1e-4
        deriv = (rho3(root + step, B_BCSS3) - rho3(root - step, B_BCSS3)) / (2 * step)
        assert abs(deriv) < 1e-6


class TestRotationAngle:
    def test_vv_at_sqrt2(self):
        assert rotation_angle(build_scheme("vv"), math.sqrt(2)) == pytest.approx(
            math.pi / 2, abs=1e-12)

    def test_monotone_for_vv(self):
        s = build_scheme("vv")
        grid = np.linspace(0.01, 1.99, 300)
        etas = [rotation_angle(s, h) for h in grid]
        assert np.all(np.diff(etas) > 0)

    def test_out_of_stability(self):
        with pytest.raises(OutOfStabilityError):
            rotation_angle(build_scheme("vv"), 2.01)


class TestLambdaK:
    def test_two_stage_quarter(self):
        assert lambda_k(build_scheme("vv2")) == pytest.approx(1 / 48, abs=1e-15)

    def test_three_stage_formula_values(self):
        # direct formula checks, including the degenerate a=b=1/2 point
        lam3 = lambda b, a: (1 - 6 * a * (1 - a) * (1 - 2 * b)) / 12
        assert lam3(0.5, 0.5) == pytest.approx(1 / 12, abs=1e-15)
        s = build_scheme("vv3")
        assert lambda_k(s) == pytest.approx(lam3(s.b1, s.a1), abs=1e-15)

    def test_bcss3_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 40
        b = mpmath.mpf("0.11888010966548")
        a = (2 * b - 1) / (4 * (3 * b - 1))
        ref = (1 - 6 * a * (1 - a) * (1 - 2 * b)) / 12
        assert lambda_k(build_scheme("bcss3")) == pytest.approx(float(ref), rel=1e-13)

    def test_one_stage_rejected(self):
        with pytest.raises(ValueError):
            lambda_k(build_scheme("vv"))


class TestStability:
    @pytest.mark.parametrize("name,expected", [("vv", 2.0), ("vv2", 4.0),
                                               ("vv3", 6.0)])
    def test_verlet_compositions(self, name, expected):
        assert stability_interval(build_scheme(name))[1] == pytest.approx(
            expected, abs=1e-12)

    def test_bcss3_matches_rho3_domain_boundary(self):
        h_max = stability_interval(build_scheme("bcss3"))[1]
        assert 0.0 < h_max <= 6.0
        # bisect the first sign-pattern violation of the bound's denominator
        lo, hi = 4.0, 5.0
        assert np.isfinite(rho3_grid(lo, B_BCSS3))
        assert not np.isfinite(rho3_grid(hi, B_BCSS3))
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if np.isfinite(rho3_grid(mid, B_BCSS3)):
                lo = mid
            else:
                hi = mid
        assert h_max == pytest.approx(lo, abs=1e-3)


class TestVvRatioRoots:
    def test_two_stage(self):
        roots = vv_ratio_roots(2)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(1.0, abs=1e-9)
        assert roots[1] == pytest.approx(math.sqrt(3.0), abs=1e-9)

    def test_three_stage_contains_sqrt2(self):
        roots = vv_ratio_roots(3)
        assert any(abs(r - math.sqrt(2.0)) < 1e-9 for r in roots)

    def test_three_stage_full_set(self):
        roots = vv_ratio_roots(3)
        expected = [math.sqrt(2 - math.sqrt(2)), math.sqrt(2),
                    math.sqrt(2 + math.sqrt(2))]
        assert len(roots) == 3
        for r, e in zip(roots, expected):
            assert r == pytest.approx(e, abs=1e-8)

    def test_smallest_root_scaled(self):
        assert 3 * vv_ratio_roots(3)[0] == pytest.approx(2.296, abs=1e-3)

    def test_exact_roots_as_floats(self):
        s2 = math.sqrt(2.0)
        assert vv_ratio_roots(2) == [1.0, math.sqrt(3.0)]
        assert vv_ratio_roots(3) == [math.sqrt(2.0 - s2), s2, math.sqrt(2.0 + s2)]
        for k in (2, 3):
            assert all(type(r) is float for r in vv_ratio_roots(k))
        with pytest.raises(ValueError):
            vv_ratio_roots(1)

    def test_roots_satisfy_ratio_equation(self):
        for k in (2, 3):
            for r in vv_ratio_roots(k):
                ratio = expected_energy_error_vv(k, k * r) / expected_energy_error_vv(1, r)
                assert ratio == pytest.approx(1.0, abs=1e-8)


def _leg(scheme, model, theta, p, h, n_steps, grad):
    """n_steps steps of ``scheme`` at step h from copies of theta and p."""
    theta, p = np.array(theta, dtype=float), np.array(p, dtype=float)
    kicks = [k * h for k in scheme.kicks]
    drifts = [a * h for a in scheme.drifts]
    tmp = np.empty_like(p)
    for _ in range(n_steps):
        grad = apply_leg(kicks, drifts, model, theta, p, grad, tmp)
    return theta, p, grad


class TestApplySteps:
    def test_constant_potential_pure_drift(self):
        from ghmctune.models import TargetModel

        # zero-gradient field: kicks are identity, drifts accumulate to dt
        model = TargetModel(2, lambda th: np.zeros(th.shape[:-1]),
                            lambda th: np.zeros_like(th), None, "flat")
        theta, p = np.array([0.2, -0.4]), np.array([1.0, 0.5])
        for name in ALL_NAMES:
            s = build_scheme(name)
            t2, p2, _ = _leg(s, model, theta, p, 0.3, 1, model.gradient(theta))
            assert t2 == pytest.approx(theta + 0.3 * p, rel=1e-14)
            assert p2 == pytest.approx(p, rel=1e-14)

    def test_matches_propagator_on_harmonic(self):
        model = gaussian_model(np.eye(1))
        state = (np.array([0.7]), np.array([-0.3]))
        for name in ALL_NAMES:
            s = build_scheme(name)
            h = 0.9
            t2, p2, _ = _leg(s, model, state[0], state[1], h, 1,
                             model.gradient(state[0]))
            m = harmonic_propagator(s, h).matrix()
            expected = m @ np.array([state[0][0], state[1][0]])
            assert t2[0] == pytest.approx(expected[0], abs=1e-12)
            assert p2[0] == pytest.approx(expected[1], abs=1e-12)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_palindromic_reversibility(self, name):
        model = gaussian_model(gen_precision_for_reversibility())
        rng = np.random.default_rng(3)
        s = build_scheme(name)
        theta, p = rng.standard_normal(3), rng.standard_normal(3)
        t1, p1, g1 = _leg(s, model, theta, p, 0.15, 4, model.gradient(theta))
        t2, p2, _ = _leg(s, model, t1, -p1, 0.15, 4, g1)
        assert t2 == pytest.approx(theta, abs=1e-10)
        assert -p2 == pytest.approx(p, abs=1e-10)

    def test_gradient_charging(self):
        base = gaussian_model(np.eye(2))
        calls = []

        def gradient(theta):
            calls.append(1)
            return base.gradient(theta)

        model = dataclasses.replace(base, gradient=gradient)
        s = build_scheme("bcss3")
        theta, p = np.zeros(2), np.ones(2)
        grad0 = base.gradient(theta)
        _leg(s, model, theta, p, 0.1, 5, grad=grad0)
        assert len(calls) == 5 * s.stages

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rows_step_as_they_step_alone(self, name):
        # one coefficient column per row: each row of the (C, D) step equals
        # the step of that row alone at its own step size, byte for byte
        model = gaussian_model(gen_precision_for_reversibility())
        rng = np.random.default_rng(5)
        s = build_scheme(name)
        theta, p = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        hs = np.array([0.1, 0.15, 0.2, 0.3])
        kicks = [k * hs[:, None] for k in s.kicks]
        drifts = [a * hs[:, None] for a in s.drifts]
        t_rows, p_rows = theta.copy(), p.copy()
        grad = apply_leg(kicks, drifts, model, t_rows, p_rows,
                         model.gradient(theta), np.empty_like(p))
        for c in range(4):
            t1, p1, g1 = _leg(s, model, theta[c], p[c], float(hs[c]), 1,
                              model.gradient(theta[c]))
            assert t_rows[c].tobytes() == t1.tobytes()
            assert p_rows[c].tobytes() == p1.tobytes()
            assert grad[c].tobytes() == g1.tobytes()


def gen_precision_for_reversibility():
    from ghmctune.models import gen_wishart_precision

    return gen_wishart_precision(3, seed=99)
