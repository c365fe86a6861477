"""Palindromic multi-stage splitting integrators for Hamiltonian dynamics.

A k-stage scheme alternates momentum kicks (coefficients b_i) with position
drifts (coefficients a_j) in a palindromic order, costing k gradient
evaluations per step because the touching end-kicks of consecutive steps
share one gradient (they stay two momentum updates).  The module provides:

* the named one-, two- and three-stage schemes used by the samplers, one
  registry built at import (velocity Verlet and its two/three-stage
  compositions, the minimax energy-error schemes BCSS2/BCSS3 and the minimum
  truncation-error schemes ME2/ME3, whose kick coefficients are known
  constants; the step-size adaptive three-stage coefficients are tabulated in
  :mod:`ghmctune.saia`),
* the 2x2 one-step propagator on the standard harmonic oscillator and the
  derived quantities used everywhere in the tuning analysis: one-step
  expected energy error (B_h + C_h)^2 / 2, the trajectory-length-independent
  bound rho(h), the rotation angle eta_h, stability intervals,
* the closed-form expected energy errors of k-stage velocity Verlet and the
  exact step-size ratios at which they match the one-stage value.

``scipy.optimize`` is imported only inside the two numeric searches,
``find_h_lower`` and ``stability_interval``, so importing the module does not
load it.

For three-stage schemes the free coefficients are tied by

    a(b) = (2b - 1) / (4 (3b - 1)),

the one-parameter family on which the closed-form bound ``rho3`` and the
propagator bound (B_h + C_h)^2 / (2 (1 - A_h^2)) agree identically in h.
BCSS3, ME3 and the three-stage Verlet all lie on this family.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

__all__ = [
    "OutOfStabilityError",
    "SplittingScheme",
    "HarmonicPropagator",
    "SCHEME_NAMES",
    "scheme_key",
    "B_BCSS2",
    "B_BCSS3",
    "A_BCSS3",
    "B_ME2",
    "B_ME3",
    "H_LOWER",
    "H_COLSI3",
    "build_scheme",
    "three_stage_a",
    "harmonic_propagator",
    "energy_error_one_step",
    "energy_error_bound",
    "expected_energy_error_vv",
    "rho3",
    "find_h_lower",
    "rotation_angle",
    "lambda_k",
    "stability_interval",
    "vv_ratio_roots",
    "apply_leg",
]

# Kick coefficients of the named two- and three-stage schemes; the drift
# companion of a three-stage one follows from three_stage_a().
# BCSS2: minimiser over b of the largest two-stage bound energy_error_bound
# on 0 < h < 2 (500-point grid from 0.005).
B_BCSS2 = 0.21178098563894895
# BCSS3: the printed reference value of the three-stage minimax scheme.
B_BCSS3 = 0.11888010966548
# ME2: minimiser of the squared norm of the two order-h^2 coefficients of the
# modified Hamiltonian, (6b-1)/24 and (6b^2-6b+1)/12, i.e. the root in
# (0, 1/4) of 48 b^3 - 72 b^2 + 38 b - 5.
B_ME2 = 0.19318332750378353
# ME3: minimiser of the h -> 0 limit of rho3(h, b)/h^4, which is
# S0(b)^2 / (2 (1-3b)^4) with S0(b) = -3b^4 + 8b^3 - 19/4 b^2 + b - 1/16.
B_ME3 = 0.10899142542513328

# Canonical endpoints of the dimensionless step randomization interval for
# three-stage production runs: the local maximum of rho3 at b = B_BCSS3
# (reference value, see find_h_lower) and the centre of the longest stability
# interval h = k = 3.
H_LOWER = 2.0772
H_COLSI3 = 3.0

_TRACE_EPS = 1e-9  # |A+D| may touch 2 tangentially inside a stability interval


class OutOfStabilityError(ValueError):
    """Step size outside the stability region of a scheme or bound."""


def three_stage_a(b: float) -> float:
    """Drift coefficient paired with kick coefficient b on the 3-stage family."""
    return (2.0 * b - 1.0) / (4.0 * (3.0 * b - 1.0))


A_BCSS3 = three_stage_a(B_BCSS3)


@dataclass(frozen=True)
class SplittingScheme:
    """One integration step as palindromic kick/drift coefficient sequences.

    ``kicks`` has k+1 entries and ``drifts`` k entries; the step applies
    kick(kicks[0]*h), drift(drifts[0]*h), kick(kicks[1]*h), ... ending with a
    kick.  Both sequences are palindromic, strictly positive, and sum to 1 so
    that one application advances time by exactly h.
    """

    name: str
    kicks: tuple
    drifts: tuple

    def __post_init__(self):
        kicks = tuple(float(v) for v in self.kicks)
        drifts = tuple(float(v) for v in self.drifts)
        if len(kicks) != len(drifts) + 1:
            raise ValueError("need one more kick than drifts")
        if any(v <= 0 for v in kicks + drifts):
            raise ValueError("all coefficients must be strictly positive")
        if abs(sum(kicks) - 1.0) > 1e-12 or abs(sum(drifts) - 1.0) > 1e-12:
            raise ValueError("kick and drift coefficients must each sum to 1")
        if (not np.allclose(kicks, kicks[::-1], rtol=0, atol=1e-15)
                or not np.allclose(drifts, drifts[::-1], rtol=0, atol=1e-15)):
            raise ValueError("coefficient sequences must be palindromic")
        object.__setattr__(self, "kicks", kicks)
        object.__setattr__(self, "drifts", drifts)

    @property
    def stages(self) -> int:
        """Fresh gradient evaluations per step (touching end-kicks share one)."""
        return len(self.drifts)

    @property
    def b1(self) -> float:
        return self.kicks[0]

    @property
    def a1(self) -> float:
        return self.drifts[0]

    def step_coefficients(self, dt: float) -> tuple[tuple, tuple]:
        """The (kicks, drifts) of every step, whatever the step size."""
        return self.kicks, self.drifts

    @staticmethod
    def two_stage(b: float, name: str) -> "SplittingScheme":
        return SplittingScheme(name, (b, 1.0 - 2.0 * b, b), (0.5, 0.5))

    @staticmethod
    def three_stage(b: float, a: float, name: str) -> "SplittingScheme":
        return SplittingScheme(name, (b, 0.5 - b, 0.5 - b, b),
                               (a, 1.0 - 2.0 * a, a))


# Shared instances: a SplittingScheme is frozen.
_SCHEMES = {s.name: s for s in (
    SplittingScheme("vv", (0.5, 0.5), (1.0,)),
    SplittingScheme.two_stage(0.25, "vv2"),
    SplittingScheme.three_stage(1.0 / 6.0, 1.0 / 3.0, "vv3"),
    SplittingScheme.two_stage(B_BCSS2, "bcss2"),
    SplittingScheme.three_stage(B_BCSS3, A_BCSS3, "bcss3"),
    SplittingScheme.two_stage(B_ME2, "me2"),
    SplittingScheme.three_stage(B_ME3, three_stage_a(B_ME3), "me3"),
)}

SCHEME_NAMES = tuple(_SCHEMES)


def scheme_key(name: str) -> str:
    """Integrator name folded to lower case without dashes or underscores."""
    return name.lower().replace("-", "").replace("_", "")


def build_scheme(name: str) -> SplittingScheme:
    """The named fixed scheme, a shared instance from the registry.

    Args:
        name: One of ``SCHEME_NAMES``, matched after ``scheme_key`` folding.

    Raises:
        ValueError: Unknown name.
    """
    try:
        return _SCHEMES[scheme_key(name)]
    except KeyError:
        raise ValueError(f"unknown integrator '{name}'; "
                         f"known: {', '.join(SCHEME_NAMES)}") from None


# ---------------------------------------------------------------------------
# Harmonic oscillator propagator algebra


@dataclass(frozen=True)
class HarmonicPropagator:
    """Entries of the 2x2 one-step map (theta, p) -> (theta', p') at step h."""

    a: float
    b: float
    c: float
    d: float

    @property
    def determinant(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


def harmonic_propagator(scheme: SplittingScheme, h: float) -> HarmonicPropagator:
    """Multiply the kick/drift stage matrices in scheme order at step h.

    Kicks contribute [[1, 0], [-b_i h, 1]] and drifts [[1, a_j h], [0, 1]]
    for the unit oscillator U = theta^2 / 2; the product has determinant 1.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    m = np.eye(2)
    for kick, drift in zip(scheme.kicks, scheme.drifts + (None,)):
        m = m @ np.array([[1.0, 0.0], [-kick * h, 1.0]])
        if drift is not None:
            m = m @ np.array([[1.0, drift * h], [0.0, 1.0]])
    return HarmonicPropagator(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def energy_error_one_step(scheme: SplittingScheme, h: float) -> float:
    """Expected energy error of one step at stationarity: (B_h + C_h)^2 / 2."""
    prop = harmonic_propagator(scheme, h)
    return 0.5 * (prop.b + prop.c) ** 2


def energy_error_bound(scheme: SplittingScheme, h: float) -> float:
    """Trajectory-length-independent bound (B_h + C_h)^2 / (2 (1 - A_h^2)).

    The expected energy error of an L-step trajectory equals
    sin^2(L eta_h) / sin^2(eta_h) times the one-step value, and
    sin^2(eta_h) = 1 - A_h^2; this is the supremum over L.
    """
    prop = harmonic_propagator(scheme, h)
    den = 2.0 * (1.0 - prop.a * prop.a)
    if den <= 0.0:
        raise OutOfStabilityError(f"h={h} outside the stability interval of {scheme.name}")
    return (prop.b + prop.c) ** 2 / den


def expected_energy_error_vv(k: int, h: float) -> float:
    """Closed-form one-step expected energy error of k-stage velocity Verlet.

    k=1: h^6/32 on (0,2);  k=2: h^6 (h^2-8)^2 / 2^15 on (0,4);
    k=3: h^6 (h^2-9)^2 (h^2-27)^2 / (2^5 3^14) on (0,6).
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if not 0.0 < h < 2.0 * k:
        raise OutOfStabilityError(f"h must lie in (0, {2 * k})")
    h2 = h * h
    if k == 1:
        return h ** 6 / 32.0
    if k == 2:
        return h ** 6 * (h2 - 8.0) ** 2 / 2.0 ** 15
    return h ** 6 * (h2 - 9.0) ** 2 * (h2 - 27.0) ** 2 / (2.0 ** 5 * 3.0 ** 14)


# ---------------------------------------------------------------------------
# Three-stage energy-error bound rho3 and its local maximum


def _rho3_closed_form(h, b):
    """rho3 at step sizes h (scalar or array) and kick b, with its domain mask.

    Values outside the domain are meaningless (possibly inf or nan).
    """
    h = np.asarray(h, dtype=float)
    h2 = h * h
    p = ((b - 1.25) * b + 0.5) * b - 0.0625
    s = ((-3.0 * b + 8.0) * b - 4.75) * b * b + b + b * b * h2 * p - 0.0625
    f1 = 3.0 * b - b * h2 * (b - 0.25) - 1.0
    # C pow, as for a scalar b: on an array b, ** 2 squares by multiplication,
    # which rounds differently about once in a thousand
    f2 = 1.0 - 3.0 * b - b * h2 * np.float_power(b - 0.5, 2)
    f3 = (6.0 - 9.0 * b) * b - h2 * p - 1.0
    ok = (f1 < 0.0) & (f2 > 0.0) & (f3 < 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = h2 * h2 * s * s / (2.0 * f1 * f2 * f3)
    return val, ok


def rho3(h: float, b: float) -> float:
    """Upper bound of the expected energy error for 3-stage schemes.

    Closed-form rational function of the step size h and kick coefficient b
    (the drift coefficient is tied by ``three_stage_a``):

        rho3 = h^4 S^2 / (2 F1 F2 F3),

    S  = -3b^4 + 8b^3 - 19/4 b^2 + b + b^2 h^2 (b^3 - 5/4 b^2 + b/2 - 1/16) - 1/16,
    F1 = 3b - b h^2 (b - 1/4) - 1,
    F2 = 1 - 3b - b h^2 (b - 1/2)^2,
    F3 = -9b^2 + 6b - h^2 (b^3 - 5/4 b^2 + b/2 - 1/16) - 1.

    Raises:
        OutOfStabilityError: Outside the admissible sign region.
    """
    val, ok = _rho3_closed_form(h, b)
    if not ok:
        raise OutOfStabilityError(f"(h={h}, b={b}) outside the rho3 domain")
    return float(val)


def rho3_grid(hs: np.ndarray, b: float) -> np.ndarray:
    """Vectorized rho3 over an array of step sizes; +inf outside the domain."""
    val, ok = _rho3_closed_form(hs, b)
    return np.where(ok, val, np.inf)


@functools.lru_cache(maxsize=None)
def find_h_lower() -> float:
    """Locate the local maximum of rho3(., B_BCSS3) in (1.5, 2.9).

    rho3 at the BCSS3 coefficient rises to a local maximum near 2.08, dips,
    and rises again towards the domain boundary; the bracketed root of the
    numerically differentiated bound at the grid argmax pins the maximum.
    Reference value 2.0772.
    """
    from scipy.optimize import brentq

    def deriv(h, step=1e-6):
        return (rho3(h + step, B_BCSS3) - rho3(h - step, B_BCSS3)) / (2.0 * step)

    grid = np.linspace(1.5, 2.9, 281)
    vals = rho3_grid(grid, B_BCSS3)
    i = int(np.argmax(vals))
    return brentq(deriv, grid[i - 1], grid[i + 1], xtol=1e-10)


def rotation_angle(scheme: SplittingScheme, h: float) -> float:
    """Rotation angle eta_h = arccos((A_h + D_h) / 2) in (0, pi).

    Defined strictly inside the stability interval, |A_h + D_h| < 2.
    """
    prop = harmonic_propagator(scheme, h)
    half_trace = 0.5 * prop.trace
    if abs(half_trace) >= 1.0:
        raise OutOfStabilityError(
            f"h={h}: |A_h + D_h|/2 = {abs(half_trace):.6f} >= 1 for {scheme.name}"
        )
    return math.acos(half_trace)


def lambda_k(scheme: SplittingScheme) -> float:
    """Modified-Hamiltonian coefficient of a 2- or 3-stage scheme.

    lambda_2(b) = (6b - 1) / 24,
    lambda_3(b, a) = (1 - 6a (1 - a) (1 - 2b)) / 12,

    evaluated at the scheme's leading coefficients b_1, a_1.
    """
    if scheme.stages == 2:
        return (6.0 * scheme.b1 - 1.0) / 24.0
    if scheme.stages == 3:
        a, b = scheme.a1, scheme.b1
        return (1.0 - 6.0 * a * (1.0 - a) * (1.0 - 2.0 * b)) / 12.0
    raise ValueError("lambda_k is defined for 2- and 3-stage schemes")


def stability_interval(scheme: SplittingScheme) -> tuple[float, float]:
    """(0, h_max) with h_max the supremum of steps keeping |A_h + D_h| <= 2.

    Scans outward and bisects the first strict violation.  Interior points
    where the trace touches +-2 tangentially (resonances of composed maps)
    do not terminate the interval.
    """
    from scipy.optimize import brentq

    def excess(h):
        return abs(harmonic_propagator(scheme, h).trace) - 2.0 - _TRACE_EPS

    upper = 2.0 * scheme.stages + 1.0
    grid = np.arange(1e-3, upper, 1e-3)
    lo = None
    for h in grid:
        if excess(h) > 0.0:
            break
        lo = h
    else:
        return (0.0, upper)
    if lo is None:
        raise OutOfStabilityError("unstable at the smallest probed step")
    return (0.0, brentq(excess, lo, h, xtol=1e-12))


def vv_ratio_roots(k: int) -> list[float]:
    """Steps h' where the k-stage Verlet error at k h' matches 1-stage at h'.

    The exact solutions on (0, 2) of expected_energy_error_vv(k, k h') =
    expected_energy_error_vv(1, h').  Dividing the closed forms, the factors
    h'^6 and the constants cancel:

        k = 2:  E_2(2h)/E_1(h) = (h^2 - 2)^2,
        k = 3:  E_3(3h)/E_1(h) = (h^2 - 1)^2 (h^2 - 3)^2.

    For k = 2, h^2 - 2 = +-1 gives h = 1 and sqrt(3).  For k = 3, with
    u = h^2, (u - 1)(u - 3) = 1 gives u = 2 -+ sqrt(2), and
    (u - 1)(u - 3) = -1 gives the double root u = 2, where the ratio touches
    1 tangentially at h = sqrt(2).

    Returns:
        The roots in increasing order, as floats.
    """
    if k == 2:
        return [1.0, math.sqrt(3.0)]
    if k == 3:
        return [math.sqrt(2.0 - math.sqrt(2.0)), math.sqrt(2.0),
                math.sqrt(2.0 + math.sqrt(2.0))]
    raise ValueError("k must be 2 or 3")


# ---------------------------------------------------------------------------
# Applying a scheme to a model


def apply_leg(kicks: tuple, drifts: tuple, model, theta: np.ndarray,
              p: np.ndarray, dt: float, n_steps: int, grad: np.ndarray):
    """Integrate n_steps unit-mass steps; touching end-kicks share one gradient.

    The last kick of a step and the first kick of the next use the same
    gradient but stay two momentum updates, not one merged kick.

    Args:
        kicks, drifts: Coefficients of one step, as in ``SplittingScheme``
            (k + 1 kicks, k drifts, palindromic, positive, each summing to
            1); the caller guarantees these properties.
        model: Target model providing ``gradient``.
        theta, p: Current state (not modified; copied once for the leg).
        dt: Dimensional step size.
        n_steps: Number of steps.
        grad: Gradient at ``theta``, which the leading kick reuses, so the
            leg charges exactly ``n_steps * len(drifts)`` fresh gradient
            evaluations.

    Returns:
        (theta, p, grad, n_evals) with ``grad`` the gradient at the new theta
        and ``n_evals`` the fresh gradient evaluations.
    """
    gradient = model.gradient
    theta = np.array(theta, dtype=float)
    p = np.array(p, dtype=float)
    first_kick = kicks[0] * dt
    stages = [(a * dt, b * dt) for a, b in zip(drifts, kicks[1:])]
    for _ in range(n_steps):
        p -= first_kick * grad
        for drift, kick in stages:
            theta += drift * p
            grad = gradient(theta)
            p -= kick * grad
    return theta, p, grad, n_steps * len(drifts)
