"""Step-size adaptive splitting integrator coefficient maps.

For a dimensionless step size h the adaptive three-stage scheme uses the kick
coefficient minimizing the worst case of the energy-error bound over every
step up to h,

    b_opt(h) = argmin_b  max_{0 < h' <= h}  rho3(h', b),

with the drift coefficient tied by the family relation
a = (2b - 1) / (4 (3b - 1)).  In the small-step limit b_opt tends to the
minimum truncation-error coefficient (ME3); at the centre of the longest
stability interval, h = 3, it reproduces the BCSS3 coefficient, which by
construction minimizes the bound's maximum over (0, 3).

The map is precomputed on a uniform grid over (0, 6), cached to a plain-text
file, and evaluated by linear interpolation.  The build solves every node's
minimax at once: one lock-step bounded Brent search over all nodes, whose
arithmetic per node is that of scipy's scalar
``minimize_scalar(method="bounded")``, so the map is bit-identical to 600
scalar solves.  Nodes beyond the reach of the bound's admissible region (h
above roughly 5.15, where no positive kick coefficient keeps every
denominator factor in range) are flagged and carry the last feasible
coefficients; production step sizes live in [2.0772, 3] and never touch
them.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .integrators import OutOfStabilityError, SplittingScheme, rho3_grid, three_stage_a

__all__ = ["SAIA3Map", "build_saia3_map", "default_map"]

_log = logging.getLogger(__name__)

_B_BOUNDS = (0.02, 0.2499)  # family needs b in (0, 1/4); optimum is interior
_INNER_GRID = 400  # step-size resolution of the inner sup per node

_MAP_HEADER = "# saia3 coefficient map"

_INFEASIBLE = 1e300  # finite stand-in for +inf, keeps the minimizer's arithmetic finite
_XATOL = 1e-12  # absolute tolerance on b of the bounded Brent search
_MAX_EVALS = 500  # objective evaluations per node, the search's own cap
_CHUNK_ROWS = 64  # nodes per rho3_grid call, keeping temporaries cache-sized

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _worst_bounds(hs: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max over each row of ``hs`` of rho3(., b[row]), infeasible rows at 1e300."""
    top = np.empty(len(b))
    for lo in range(0, len(b), _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        top[rows] = rho3_grid(hs[rows], b[rows, None]).max(axis=1)
    return np.where(np.isfinite(top), top, _INFEASIBLE)


def _minimax_b(h_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimax kick coefficient at every node, by lock-step bounded Brent.

    Runs Brent's bounded minimization (Brent 1973, the arithmetic of scipy's
    ``minimize_scalar(method="bounded")``) on every node at once: all
    still-active nodes take the same iteration together, branch by
    ``np.where``, and a node leaves once its own stopping test holds.  Each
    node sees the same floating-point operations in the same order as a
    scalar solve, so the result is bit-identical to one.

    Per node, ``xf`` is the best point so far and ``nfc``, ``fulc`` the
    second and third best (scipy's names), with values ``fx``, ``fnfc``,
    ``ffulc``; ``lo``, ``hi`` bracket the minimum.

    Returns:
        (b, f): the minimizer and the worst-case bound there, per node.
    """
    hs = np.linspace(h_grid / _INNER_GRID, h_grid, _INNER_GRID, axis=1)
    n = len(h_grid)
    lo, hi = np.full(n, _B_BOUNDS[0]), np.full(n, _B_BOUNDS[1])
    xf = np.full(n, _B_BOUNDS[0] + _GOLDEN * (_B_BOUNDS[1] - _B_BOUNDS[0]))
    fx = _worst_bounds(hs, xf)
    nfc, fnfc, fulc, ffulc = xf, fx, xf, fx
    rat = e = np.zeros(n)
    b_out, f_out = xf.copy(), fx.copy()
    active = np.arange(n)
    with np.errstate(all="ignore"):  # infeasible values overflow the parabola
        for _ in range(1, _MAX_EVALS):
            xm = 0.5 * (lo + hi)
            tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
            tol2 = 2.0 * tol1
            go = np.abs(xf - xm) > (tol2 - 0.5 * (hi - lo))
            if not go.all():
                active = active[go]
                if active.size == 0:
                    break
                (hs, lo, hi, xf, fx, nfc, fnfc, fulc, ffulc, rat, e, xm, tol1,
                 tol2) = (v[go] for v in (hs, lo, hi, xf, fx, nfc, fnfc, fulc,
                                          ffulc, rat, e, xm, tol1, tol2))
            # parabola through the three best points, where it is acceptable
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (lo - xf)) & (p < q * (hi - xf)))
            rat_p = (p + 0.0) / q  # + 0.0 as in the scalar code: -0.0 -> 0.0
            x = xf + rat_p
            rat_p = np.where(((x - lo) < tol2) | ((hi - x) < tol2),
                             tol1 * (np.sign(xm - xf) + ((xm - xf) == 0)), rat_p)
            # otherwise a golden-section step into the larger side
            e_golden = np.where(xf >= xm, lo - xf, hi - xf)
            e = np.where(parabolic, rat, e_golden)
            rat = np.where(parabolic, rat_p, _GOLDEN * e_golden)
            x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
            fu = _worst_bounds(hs, x)

            better = fu <= fx
            # on success the old best point becomes the bracket end behind x,
            # on failure x becomes the bracket end on its own side
            moves_lo = np.where(better, x >= xf, x < xf)
            edge = np.where(better, xf, x)
            lo = np.where(moves_lo, edge, lo)
            hi = np.where(moves_lo, hi, edge)
            second = ~better & ((fu <= fnfc) | (nfc == xf))
            third = ~(better | second) & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            shift = better | second
            fulc = np.where(shift, nfc, np.where(third, x, fulc))
            ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
            nfc = np.where(better, xf, np.where(second, x, nfc))
            fnfc = np.where(better, fx, np.where(second, fu, fnfc))
            xf = np.where(better, x, xf)
            fx = np.where(better, fu, fx)
            b_out[active], f_out[active] = xf, fx
    return b_out, f_out


@dataclass(frozen=True)
class SAIA3Map:
    """Pretabulated h -> (b_opt, a_opt) map for the adaptive 3-stage scheme."""

    h_grid: np.ndarray
    b_opt: np.ndarray
    a_opt: np.ndarray
    n_flagged: int = 0

    def __post_init__(self):
        """Validate every node once, so per-draw lookups need no checks.

        Each node must satisfy 0 < b < 1/2 and 0 < a < 1/2 with a on the
        three-stage family.  The admissible b form one interval, so every
        interpolated b keeps all kicks (b, 1/2 - b) and drifts (a, 1 - 2a)
        of the step positive; the tuples are palindromic and sum to 1 by
        construction.
        """
        h, b, a = (np.asarray(v, dtype=float)
                   for v in (self.h_grid, self.b_opt, self.a_opt))
        if h.ndim != 1 or h.size < 2 or not h.shape == b.shape == a.shape:
            raise ValueError("map columns must be 1-D, of equal length, with "
                             "at least two nodes")
        if not (h[0] > 0.0 and np.all(np.diff(h) > 0.0)):
            raise ValueError("map step sizes must be positive and increasing")
        if not (np.all((b > 0.0) & (b < 0.5)) and np.all((a > 0.0) & (a < 0.5))):
            raise ValueError("every map node needs 0 < b < 1/2 and 0 < a < 1/2")
        if not np.allclose(a, three_stage_a(b), rtol=0.0, atol=1e-12):
            raise ValueError("map drift coefficients are off the three-stage family")

    def coefficients(self, h: float) -> tuple[float, float]:
        """Linearly interpolated (b, a) at step size h inside the grid span."""
        if not self.h_grid[0] <= h <= self.h_grid[-1]:
            raise OutOfStabilityError(
                f"h={h} outside the tabulated range "
                f"[{self.h_grid[0]:g}, {self.h_grid[-1]:g}]"
            )
        b = float(np.interp(h, self.h_grid, self.b_opt))
        return b, three_stage_a(b)

    def scheme_at(self, h: float) -> SplittingScheme:
        b, a = self.coefficients(h)
        return SplittingScheme.three_stage(b, a, f"saia3@{h:.6g}")

    def save(self, path: str | Path) -> None:
        """Write the map as text, atomically: readers see the old file or all of it."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as fh:
                fh.write(f"{_MAP_HEADER}\n")
                fh.write(f"# nodes={len(self.h_grid)} h_min={float(self.h_grid[0])!r} "
                         f"h_max={float(self.h_grid[-1])!r} flagged={self.n_flagged}\n")
                fh.write("# columns: h b_opt a_opt\n")
                for h, b, a in zip(self.h_grid, self.b_opt, self.a_opt):
                    fh.write(f"{float(h)!r} {float(b)!r} {float(a)!r}\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @staticmethod
    def load(path: str | Path) -> "SAIA3Map":
        """Read a saved map; ``ValueError`` unless it has the header's node count."""
        path = Path(path)
        lines = path.read_text().splitlines()
        if not lines or lines[0] != _MAP_HEADER:
            raise ValueError(f"{path} is not a saia3 map file")
        meta = dict(tok.split("=", 1) for tok in lines[1].lstrip("# ").split()
                    if "=" in tok) if len(lines) > 1 else {}
        rows = [ln.split() for ln in lines if not ln.startswith("#")]
        if meta.get("nodes") != str(len(rows)) or any(len(r) != 3 for r in rows):
            raise ValueError(f"{path} has {len(rows)} data rows, its header "
                             f"nodes={meta.get('nodes')}")
        data = np.array([[float(v) for v in r] for r in rows]).reshape(-1, 3)
        return SAIA3Map(data[:, 0], data[:, 1], data[:, 2],
                        int(meta.get("flagged", 0)))


def build_saia3_map(resolution: int = 600, h_max: float = 6.0) -> SAIA3Map:
    """Tabulate the minimax coefficients on ``resolution`` nodes over (0, h_max].

    Args:
        resolution: Number of grid nodes, at least 100.
        h_max: Upper end of the tabulated step-size range.

    Nodes that are infeasible (no admissible kick coefficient) or whose
    minimizer sits at an edge of the search bounds are flagged, take values
    interpolated from the feasible nodes (the last feasible value, for the
    tail) and are counted in ``n_flagged``.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100 nodes")
    h_grid = np.linspace(h_max / resolution, h_max, resolution)
    b_opt, worst = _minimax_b(h_grid)
    at_edge = (b_opt - _B_BOUNDS[0] < 1e-6) | (_B_BOUNDS[1] - b_opt < 1e-6)
    flagged = ~(worst < _INFEASIBLE) | at_edge
    good = ~flagged
    if not np.any(good):
        raise RuntimeError("no feasible nodes in the requested range")
    # flagged nodes (the far tail of the grid) carry neighbouring values
    b_opt[flagged] = np.interp(h_grid[flagged], h_grid[good], b_opt[good])
    a_opt = three_stage_a(b_opt)
    return SAIA3Map(h_grid, b_opt, a_opt, int(flagged.sum()))


def _default_cache_path() -> Path:
    root = os.environ.get("GHMCTUNE_CACHE")
    if root:
        return Path(root) / "saia3_map_600.txt"
    return Path.home() / ".cache" / "ghmctune" / "saia3_map_600.txt"


@functools.lru_cache(maxsize=1)
def default_map() -> SAIA3Map:
    """The 600-node map over (0, 6), loaded from cache or rebuilt and saved."""
    path = _default_cache_path()
    if path.exists():
        try:
            return SAIA3Map.load(path)
        except ValueError as exc:
            _log.warning("rebuilding the saia3 map: rejected cache file: %s", exc)
    start = time.perf_counter()
    m = build_saia3_map()
    _log.info("built the %d-node saia3 map in %.2f s for %s", len(m.h_grid),
              time.perf_counter() - start, path)
    try:
        m.save(path)
    except OSError as exc:
        _log.warning("keeping the saia3 map in memory only: %s", exc)
    return m
