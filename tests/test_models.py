import math

import numpy as np
import pytest

from ghmctune.models import (
    BananaSpec,
    BlrDataset,
    DatasetError,
    GaussianSpec,
    banana_model,
    blr_model,
    gaussian_model,
    gen_wishart_precision,
    load_dataset,
    make_banana_spec,
    make_synthetic_blr,
    sample_gaussian,
    _sigmoid,
)

# Central-difference step scale: cbrt(machine eps) balances truncation and
# round-off error for second-order differences.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def finite_difference_gradient(potential, theta):
    """Central-difference gradient with per-component step cbrt(eps)*max(1, |theta_i|)."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty_like(theta)
    for i in range(theta.size):
        step = _FD_STEP * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += step
        tm[i] -= step
        g[i] = (potential(tp) - potential(tm)) / (2.0 * step)
    return g


def finite_difference_hessian(grad, theta):
    """Central differences of a gradient; symmetrised on return."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    h = np.empty((d, d))
    for i in range(d):
        step = _FD_STEP * max(1.0, abs(theta[i]))
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += step
        tm[i] -= step
        h[i] = (np.asarray(grad(tp)) - np.asarray(grad(tm))) / (2.0 * step)
    return 0.5 * (h + h.T)


def _example_models():
    rng = np.random.Generator(np.random.Philox(42))
    prec = gen_wishart_precision(4, seed=11)
    blr = blr_model(make_synthetic_blr(4, 40, seed=2), prior_std=2.5)
    banana = banana_model(make_banana_spec(50, seed=3))
    return [gaussian_model(prec, name="g4"), blr, banana], rng


class TestPotential:
    def test_gaussian_minimum(self):
        model = gaussian_model(np.eye(2))
        assert model.potential(np.zeros(2)) == 0.0

    def test_gaussian_unit_point(self):
        model = gaussian_model(np.eye(2))
        assert model.potential(np.ones(2)) == pytest.approx(1.0, abs=1e-14)

    def test_blr_single_observation_log2(self):
        # one covariate x=1, label 1, no intercept: U(0) = -log sigmoid(0)
        data = BlrDataset(np.array([[1.0]]), np.array([1.0]), intercept=False)
        model = blr_model(data, prior_std=5.0)
        assert model.potential(np.zeros(1)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gaussian_sign_symmetry(self):
        model = gaussian_model(gen_wishart_precision(5, seed=1))
        rng = np.random.default_rng(0)
        for _ in range(10):
            theta = rng.standard_normal(5)
            assert model.potential(theta) == pytest.approx(
                model.potential(-theta), rel=1e-12)


class TestGradient:
    def test_identity_gaussian(self):
        model = gaussian_model(np.eye(2))
        assert model.gradient(np.array([3.0, -1.0])) == pytest.approx([3.0, -1.0])

    def test_matches_finite_differences(self):
        models, rng = _example_models()
        for model in models:
            for _ in range(10):
                theta = 0.5 * rng.standard_normal(model.dimension)
                g = model.gradient(theta)
                fd = finite_difference_gradient(model.potential, theta)
                assert np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(fd))) < 1e-5

    def test_banana_prior_only_without_observations(self):
        spec = BananaSpec(prior_var=2.0, y=np.empty(0), obs_var=2.0)
        model = banana_model(spec)
        theta = np.array([0.7, -1.2])
        assert model.gradient(theta) == pytest.approx(theta / 2.0, rel=1e-12)


class TestHessian:
    def test_gaussian_constant(self):
        prec = gen_wishart_precision(3, seed=5)
        model = gaussian_model(prec)
        rng = np.random.default_rng(1)
        for _ in range(3):
            h = model.hessian(rng.standard_normal(3))
            assert h == pytest.approx(prec.precision, rel=1e-14)

    def test_blr_at_zero(self):
        data = make_synthetic_blr(4, 30, seed=7)
        model = blr_model(data, prior_std=2.0)
        z = data.design_matrix()
        expected = 0.25 * z.T @ z + np.eye(4) / 4.0
        assert model.hessian(np.zeros(4)) == pytest.approx(expected, rel=1e-12)

    def test_matches_gradient_differences_and_symmetry(self):
        models, rng = _example_models()
        for model in models:
            theta = 0.5 * rng.standard_normal(model.dimension)
            h = model.hessian(theta)
            assert np.max(np.abs(h - h.T)) < 1e-10
            fd = finite_difference_hessian(model.gradient, theta)
            assert np.max(np.abs(h - fd)) < 1e-4 * max(1.0, np.max(np.abs(h)))

    def test_blr_convexity(self):
        model = blr_model(make_synthetic_blr(5, 40, seed=9), prior_std=3.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            eigs = np.linalg.eigvalsh(model.hessian(rng.standard_normal(5)))
            assert eigs.min() > 0.0


class TestWishart:
    def test_one_dimensional_positive(self):
        spec = gen_wishart_precision(1, seed=0)
        assert spec.precision[0, 0] > 0.0

    def test_deterministic(self):
        a = gen_wishart_precision(5, seed=123)
        b = gen_wishart_precision(5, seed=123)
        assert np.array_equal(a.precision, b.precision)

    def test_mean_matches_degrees_of_freedom(self):
        # E[W] = D * I for Wishart(I_D, D); Monte Carlo over seeds
        d = 50
        acc = np.zeros((d, d))
        n = 1000
        for seed in range(n):
            acc += gen_wishart_precision(d, seed=seed).precision
        mean = acc / n
        assert np.max(np.abs(mean - d * np.eye(d))) < 0.05 * d

    @pytest.mark.parametrize("d", [1, 5, 50])
    def test_positive_definite_many_seeds(self, d):
        for seed in range(100):
            np.linalg.cholesky(gen_wishart_precision(d, seed=seed).precision)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            gen_wishart_precision(0, seed=1)


class TestDatasets:
    def test_shape_and_intercept(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("0.1,0.2,1\n0.3,0.4,0\n0.5,0.6,1\n")
        data = load_dataset(path)
        assert data.n_observations == 3
        assert data.dimension == 3

    def test_rejects_nonbinary_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2,2\n")
        with pytest.raises(DatasetError):
            load_dataset(path)

    def test_round_trip(self, tmp_path):
        data = make_synthetic_blr(4, 25, seed=3)
        path = tmp_path / "rt.csv"
        rows = np.hstack([data.x, data.y[:, None]])
        path.write_text("".join(",".join(map(repr, row)) + "\n"
                                for row in rows.tolist()))
        loaded = load_dataset(path)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.y, data.y)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0.1 0.2 1\n0.3 oops 0\n")
        with pytest.raises(DatasetError, match=":2:"):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2,1\n0.3,0\n")
        with pytest.raises(DatasetError, match="columns"):
            load_dataset(path)

    def test_whitespace_autodetect_and_header(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("0.1 0.2 1\n0.3 0.4 0\n")
        assert load_dataset(path).n_observations == 2
        # a header line is not data: it fails to parse, at line 1
        path.write_text("a b label\n0.1 0.2 1\n")
        with pytest.raises(DatasetError, match=":1:"):
            load_dataset(path)

    def test_standardize(self):
        data = make_synthetic_blr(3, 200, seed=8).standardized()
        assert np.max(np.abs(data.x.mean(axis=0))) < 1e-12
        assert data.x.std(axis=0) == pytest.approx(np.ones(2), rel=1e-12)


class TestGaussianSpec:
    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            GaussianSpec(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianSpec(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_exact_sampler_covariance(self):
        spec = gen_wishart_precision(4, seed=2)
        rng = np.random.default_rng(0)
        draws = sample_gaussian(spec, 200_000, rng)
        target = np.linalg.inv(spec.precision)
        assert np.max(np.abs(np.cov(draws.T) - target)) < 0.05 * np.max(np.abs(target))


class TestRowWise:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["gauss-2", "gauss-100",
                                      "blr-synthetic-25-1000", "banana"])
    def test_rows_equal_single_calls_bytes(self, name, c):
        from ghmctune.bench import RunConfig, resolve_benchmark

        model = resolve_benchmark(RunConfig(benchmark=name))
        thetas = 1.5 * np.random.default_rng(c).standard_normal(
            (c, model.dimension))
        grads, potentials = model.gradient(thetas), model.potential(thetas)
        assert grads.shape == thetas.shape and potentials.shape == (c,)
        for theta, grad, u in zip(thetas, grads, potentials):
            alone = theta.copy()
            assert grad.tobytes() == model.gradient(alone).tobytes()
            assert u.tobytes() == np.float64(model.potential(alone)).tobytes()


def _masked_sigmoid(x):
    """The logistic function scattered through a sign mask, one row."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("shape", [(7,), (33,), (1000,), (4000,), (4, 1000)])
    def test_equals_masked_form_bytes(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = np.where(rng.random(shape) < 0.5,
                     rng.uniform(-800.0, 800.0, shape),
                     5.0 * rng.standard_normal(shape))
        x.flat[:4] = (0.0, -0.0, 800.0, -800.0)
        got = _sigmoid(x)
        assert got.shape == x.shape
        for row, want in zip(np.atleast_2d(got), np.atleast_2d(x)):
            assert row.tobytes() == _masked_sigmoid(want).tobytes()
