"""Target distributions for Hamiltonian samplers.

A target is described by its potential energy U(theta) = -log pi(theta) + const,
the gradient of U, and (optionally) the Hessian of U.  Models built here are
immutable and safe to share across concurrently running chains; every operation
is a pure function of (model, theta).

Potential and gradient are row-wise: theta of shape (..., D) gives results of
shape (...) and (..., D), and each row's result is, bit for bit, what that row
gives alone, so chains sampled together in one (C, D) batch equal chains
sampled one at a time.  The built-in models get this from one formula each:
matrix-vector products as ``np.matmul(A, theta[..., None])[..., 0]``, dot
products as ``(u[..., None, :] @ v[..., :, None])[..., 0, 0]`` and sums over
the last axis, which perform per row the same BLAS calls and reductions as
the one-dimensional expressions.  A plain (C, D) @ (D, D) product would not:
its rows change in the last bits with C.

Built-in targets:

* multivariate Gaussian with an arbitrary symmetric positive definite
  precision matrix (optionally drawn from a Wishart distribution),
* Bayesian logistic regression with a Gaussian prior,
* the two-dimensional "banana" posterior.

Datasets for logistic regression are plain delimiter-separated numeric text,
one observation per row with the binary label in the last column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DatasetError",
    "TargetModel",
    "GaussianSpec",
    "BlrDataset",
    "BananaSpec",
    "gaussian_model",
    "gen_wishart_precision",
    "blr_model",
    "banana_model",
    "make_banana_spec",
    "make_synthetic_blr",
    "load_dataset",
]

class DatasetError(ValueError):
    """A dataset file violates the expected format."""


@dataclass(frozen=True)
class TargetModel:
    """Potential energy, gradient and optional Hessian of a target density.

    Attributes:
        dimension: Number of sampled variables D.
        potential: Map theta -> U(theta), row-wise: shape (..., D) -> (...).
        gradient: Map theta -> grad U(theta), row-wise: shape (..., D) ->
            (..., D).
        hessian: Optional map theta -> Hessian of U, shape (D,) -> (D, D),
            symmetric.
            Tuning differentiates ``gradient`` instead when it is None, at
            2 D gradient calls per Hessian.
        name: Short identifier used in reports.
    """

    dimension: int
    potential: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("model dimension must be a positive integer")


# ---------------------------------------------------------------------------
# Gaussian


@dataclass(frozen=True)
class GaussianSpec:
    """Zero-mean multivariate Gaussian given by its precision matrix."""

    precision: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.precision, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("precision must be a square matrix")
        if not np.allclose(p, p.T, atol=1e-10):
            raise ValueError("precision must be symmetric")
        if np.min(np.linalg.eigvalsh(p)) <= 0.0:
            raise ValueError("precision must be positive definite")
        object.__setattr__(self, "precision", p)

    @property
    def dimension(self) -> int:
        return self.precision.shape[0]


def gaussian_model(spec: GaussianSpec | np.ndarray, name: str = "gaussian") -> TargetModel:
    """Gaussian target: U(theta) = theta' P theta / 2 with precision P."""
    if not isinstance(spec, GaussianSpec):
        spec = GaussianSpec(np.asarray(spec, dtype=float))
    p = spec.precision
    return TargetModel(
        dimension=spec.dimension,
        potential=lambda th: 0.5 * (th[..., None, :] @ p @ th[..., :, None])[..., 0, 0],
        gradient=lambda th: np.matmul(p, th[..., None])[..., 0],
        hessian=lambda th: p,
        name=name,
    )


def sample_gaussian(spec: GaussianSpec, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Exact draws from N(0, precision^-1), shape (n, D).

    Solves L' x = z with the Cholesky factor L of the precision, avoiding an
    explicit covariance inverse.  ``scipy.linalg`` is imported here, its one
    use, to keep scipy off the package's import path.
    """
    from scipy.linalg import solve_triangular

    chol = np.linalg.cholesky(spec.precision)
    z = rng.standard_normal((spec.dimension, n))
    return solve_triangular(chol.T, z, lower=False).T


def gen_wishart_precision(dimension: int, seed: int) -> GaussianSpec:
    """Draw a precision matrix from Wishart(I_D, D) by Bartlett decomposition.

    The draw is W = A A' where A is lower triangular with chi-distributed
    diagonal entries (df D, D-1, ..., 1) and standard normal sub-diagonal
    entries, so E[W] = D * I_D.  Deterministic for a fixed seed.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a = np.zeros((dimension, dimension))
    for i in range(dimension):
        a[i, i] = math.sqrt(rng.chisquare(dimension - i))
        if i:
            a[i, :i] = rng.standard_normal(i)
    w = a @ a.T
    w = 0.5 * (w + w.T)
    return GaussianSpec(w)


# ---------------------------------------------------------------------------
# Bayesian logistic regression


@dataclass(frozen=True)
class BlrDataset:
    """Design matrix and binary labels for logistic regression.

    ``dimension`` counts the regression coefficients, including the intercept
    when ``intercept`` is set.
    """

    x: np.ndarray
    y: np.ndarray
    intercept: bool = True

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if x.shape[0] < 1:
            raise DatasetError("dataset needs at least one observation")
        if y.shape != (x.shape[0],):
            raise DatasetError(
                f"label count {y.shape} does not match {x.shape[0]} observations"
            )
        if not np.all(np.isin(y, (0.0, 1.0))):
            bad = sorted(set(y) - {0.0, 1.0})
            raise DatasetError(f"labels must be 0 or 1, found {bad}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_observations(self) -> int:
        return self.x.shape[0]

    @property
    def dimension(self) -> int:
        return self.x.shape[1] + (1 if self.intercept else 0)

    def design_matrix(self) -> np.ndarray:
        """Covariates with a leading column of ones when an intercept is used."""
        if self.intercept:
            return np.hstack([np.ones((self.n_observations, 1)), self.x])
        return self.x

    def standardized(self) -> "BlrDataset":
        """Center and scale covariates; constant columns are left untouched."""
        mu = self.x.mean(axis=0)
        sd = self.x.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        return BlrDataset((self.x - mu) / sd, self.y, self.intercept)


def blr_model(dataset: BlrDataset, prior_std: float = 10.0,
              name: str = "blr") -> TargetModel:
    """Logistic regression posterior with a N(0, prior_std^2 I) prior.

    U(theta) = sum_k [log(1 + exp(z_k' theta)) - y_k z_k' theta]
             + theta' theta / (2 prior_std^2),

    where z_k are rows of the design matrix.  log(1 + exp(.)) is evaluated
    through logaddexp, so the potential stays finite for any theta reachable
    in practice.
    """
    if prior_std <= 0:
        raise ValueError("prior_std must be positive")
    z = dataset.design_matrix()
    y = dataset.y
    inv_var = 1.0 / (prior_std * prior_std)
    zt = z.T

    def potential(theta):
        logits = np.matmul(z, theta[..., None])[..., 0]
        scaled = 0.5 * inv_var * theta
        prior = (scaled[..., None, :] @ theta[..., :, None])[..., 0, 0]
        return np.sum(np.logaddexp(0.0, logits) - y * logits, axis=-1) + prior

    def grad(theta):
        logits = np.matmul(z, theta[..., None])[..., 0]
        r = _sigmoid(logits) - y
        return np.matmul(zt, r[..., None])[..., 0] + inv_var * theta

    def hess(theta):
        logits = z @ theta
        s = _sigmoid(logits)
        w = s * (1.0 - s)
        h = (z * w[:, None]).T @ z
        h[np.diag_indices_from(h)] += inv_var
        return 0.5 * (h + h.T)

    return TargetModel(dataset.dimension, potential, grad, hess, name=name)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) elementwise, without overflow for any finite x."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def make_synthetic_blr(dimension: int, n_observations: int, seed: int) -> BlrDataset:
    """Generate a synthetic logistic-regression dataset of given shape.

    ``dimension`` counts coefficients including the intercept, matching the
    convention of the benchmark tables.
    """
    if dimension < 2:
        raise ValueError("need dimension >= 2 (intercept plus one covariate)")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((n_observations, dimension - 1))
    w = rng.standard_normal(dimension - 1)
    w /= np.linalg.norm(w)
    eta = x @ w
    y = (rng.random(n_observations) < _sigmoid(2.0 * eta)).astype(float)
    return BlrDataset(x, y, intercept=True)


def load_dataset(path: str | Path) -> BlrDataset:
    """Parse a delimiter-separated dataset, binary label in the last column.

    The separator is autodetected: whitespace, until a data line holds a
    comma, then comma.  The model gets an intercept coefficient.

    Raises:
        DatasetError: On parse failures (with the offending line number),
            ragged rows, or labels outside {0, 1}.
    """
    path = Path(path)
    rows = []
    width = None
    delimiter = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if delimiter is None:
            delimiter = "," if "," in line else None  # None -> whitespace split
        parts = line.split(delimiter)
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: cannot parse numeric value ({exc})")
        if width is None:
            width = len(row)
            if width < 2:
                raise DatasetError(f"{path}:{lineno}: need at least one covariate and a label")
        elif len(row) != width:
            raise DatasetError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    data = np.asarray(rows)
    try:
        return BlrDataset(data[:, :-1], data[:, -1])
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Banana


@dataclass(frozen=True)
class BananaSpec:
    """Two-dimensional banana-shaped posterior.

    Gaussian prior with variance ``prior_var`` on both coordinates, and
    observations y_k ~ N(theta_1 + theta_2^2, obs_var).
    """

    prior_var: float
    y: np.ndarray
    obs_var: float

    def __post_init__(self):
        if self.prior_var <= 0 or self.obs_var <= 0:
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))


def make_banana_spec(n_observations: int = 100, seed: int = 0) -> BananaSpec:
    """Benchmark data: prior variance 1 and y ~ N(1, 2)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    y = 1.0 + math.sqrt(2.0) * rng.standard_normal(n_observations)
    return BananaSpec(1.0, y, 2.0)


def banana_model(spec: BananaSpec, name: str = "banana") -> TargetModel:
    """U(theta) = (theta_1^2 + theta_2^2)/(2 s_p) + sum_k (y_k - theta_1 - theta_2^2)^2/(2 s_y)."""
    y = spec.y
    k = y.size
    sp = spec.prior_var
    sy = spec.obs_var

    def residuals(th):
        return y - th[..., 0, None] - (th[..., 1] * th[..., 1])[..., None]

    def potential(th):
        r = residuals(th)
        sq = (th[..., None, :] @ th[..., :, None])[..., 0, 0]
        return 0.5 * sq / sp + 0.5 * np.sum(r * r, axis=-1) / sy

    def grad(th):
        s = np.sum(residuals(th), axis=-1)
        return np.stack([th[..., 0] / sp - s / sy,
                         th[..., 1] / sp - 2.0 * th[..., 1] * s / sy], axis=-1)

    def hess(th):
        s = np.sum(y - th[0] - th[1] * th[1])
        h11 = 1.0 / sp + k / sy
        h12 = 2.0 * th[1] * k / sy
        h22 = 1.0 / sp + (4.0 * k * th[1] * th[1] - 2.0 * s) / sy
        return np.array([[h11, h12], [h12, h22]])

    return TargetModel(2, potential, grad, hess, name=name)
