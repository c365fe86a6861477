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
file, and evaluated by linear interpolation.  Nodes beyond the reach of the
bound's admissible region (h above roughly 5.15, where no positive kick
coefficient keeps every denominator factor in range) are flagged and carry
the last feasible coefficients; production step sizes live in
[2.0772, 3] and never touch them.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .integrators import OutOfStabilityError, SplittingScheme, rho3_grid, three_stage_a

__all__ = ["SAIA3Map", "build_saia3_map", "default_map"]

_B_BOUNDS = (0.02, 0.2499)  # family needs b in (0, 1/4); optimum is interior
_INNER_GRID = 400  # step-size resolution of the inner sup per node

_MAP_HEADER = "# saia3 coefficient map"


_INFEASIBLE = 1e300  # finite stand-in for +inf, keeps the scalar minimizer quiet


def _worst_bound(h: float, b: float) -> float:
    hs = np.linspace(h / _INNER_GRID, h, _INNER_GRID)
    top = float(np.max(rho3_grid(hs, b)))
    return top if np.isfinite(top) else _INFEASIBLE


def _node_b_opt(h: float) -> tuple[float, bool]:
    """Minimax kick coefficient at one grid node; flags infeasible nodes."""
    res = minimize_scalar(lambda b: _worst_bound(h, b), bounds=_B_BOUNDS,
                          method="bounded", options={"xatol": 1e-12})
    b = float(res.x)
    feasible = _worst_bound(h, b) < _INFEASIBLE
    at_edge = (b - _B_BOUNDS[0] < 1e-6) or (_B_BOUNDS[1] - b < 1e-6)
    return b, not (feasible and not at_edge)


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
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(f"{_MAP_HEADER}\n")
            fh.write(f"# nodes={len(self.h_grid)} h_min={float(self.h_grid[0])!r} "
                     f"h_max={float(self.h_grid[-1])!r} flagged={self.n_flagged}\n")
            fh.write("# columns: h b_opt a_opt\n")
            for h, b, a in zip(self.h_grid, self.b_opt, self.a_opt):
                fh.write(f"{float(h)!r} {float(b)!r} {float(a)!r}\n")

    @staticmethod
    def load(path: str | Path) -> "SAIA3Map":
        path = Path(path)
        lines = path.read_text().splitlines()
        if not lines or lines[0] != _MAP_HEADER:
            raise ValueError(f"{path} is not a saia3 map file")
        flagged = 0
        for tok in lines[1].lstrip("# ").split():
            if tok.startswith("flagged="):
                flagged = int(tok.split("=", 1)[1])
        data = np.array([[float(v) for v in ln.split()]
                         for ln in lines if not ln.startswith("#")])
        return SAIA3Map(data[:, 0], data[:, 1], data[:, 2], flagged)


def build_saia3_map(resolution: int = 600, h_max: float = 6.0) -> SAIA3Map:
    """Tabulate the minimax coefficients on ``resolution`` nodes over (0, h_max].

    Args:
        resolution: Number of grid nodes, at least 100.
        h_max: Upper end of the tabulated step-size range.

    Infeasible nodes (no admissible kick coefficient) inherit the last
    feasible value and are counted in ``n_flagged``.
    """
    if resolution < 100:
        raise ValueError("resolution must be at least 100 nodes")
    h_grid = np.linspace(h_max / resolution, h_max, resolution)
    b_opt = np.empty(resolution)
    flagged = np.zeros(resolution, dtype=bool)
    for i, h in enumerate(h_grid):
        b, bad = _node_b_opt(h)
        b_opt[i] = b
        flagged[i] = bad
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
        except (ValueError, IndexError):
            pass  # stale or corrupt cache, rebuild below
    m = build_saia3_map()
    try:
        m.save(path)
    except OSError:
        pass  # read-only cache location; keep the in-memory map
    return m

