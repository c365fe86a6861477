import numpy as np
import pytest

from ghmctune.integrators import (
    A_BCSS3,
    B_BCSS3,
    H_LOWER,
    OutOfStabilityError,
    build_scheme,
    energy_error_one_step,
    rho3_grid,
    three_stage_a,
)
from ghmctune.saia import SAIA3Map, build_saia3_map


def _worst(h, b, n=400):
    hs = np.linspace(h / n, h, n)
    return float(np.max(rho3_grid(hs, b)))


def _reference_map(resolution=600, h_max=6.0):
    """Frozen per-node build: one scalar bounded Brent solve per node."""
    from scipy.optimize import minimize_scalar

    def worst_bound(h, b):
        top = _worst(h, b)
        return top if np.isfinite(top) else 1e300

    lo, hi = 0.02, 0.2499
    h_grid = np.linspace(h_max / resolution, h_max, resolution)
    b_opt = np.empty(resolution)
    flagged = np.zeros(resolution, dtype=bool)
    for i, h in enumerate(h_grid):
        res = minimize_scalar(lambda b: worst_bound(h, b), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12})
        b = float(res.x)
        feasible = worst_bound(h, b) < 1e300
        at_edge = (b - lo < 1e-6) or (hi - b < 1e-6)
        b_opt[i], flagged[i] = b, not (feasible and not at_edge)
    good = ~flagged
    b_opt[flagged] = np.interp(h_grid[flagged], h_grid[good], b_opt[good])
    return SAIA3Map(h_grid, b_opt, three_stage_a(b_opt), int(flagged.sum()))


class TestExactness:
    """The lock-step build is bit-identical to per-node scalar solves."""

    @pytest.mark.parametrize("kwargs", [{}, {"resolution": 100},
                                        {"resolution": 150, "h_max": 4.5}],
                             ids=["default", "res100", "hmax4.5"])
    def test_matches_per_node_reference(self, tmp_path, kwargs):
        ref, new = _reference_map(**kwargs), build_saia3_map(**kwargs)
        for field in ("h_grid", "b_opt", "a_opt"):
            assert np.array_equal(getattr(new, field), getattr(ref, field)), field
        assert new.n_flagged == ref.n_flagged
        ref.save(tmp_path / "ref.txt")
        new.save(tmp_path / "new.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


class TestMapConstruction:
    def test_kick_coefficients_in_range(self, saia_map):
        assert np.all(saia_map.b_opt > 0.0)
        assert np.all(saia_map.b_opt < 0.5)

    def test_monotone_nondecreasing(self, saia_map):
        assert np.all(np.diff(saia_map.b_opt) > -1e-9)

    def test_small_step_limit_is_stable(self, saia_map):
        # the minimum truncation-error regime: the coefficient stops moving
        b_005, _ = saia_map.coefficients(0.05)
        b_001, _ = saia_map.coefficients(0.01)
        assert abs(b_005 - b_001) < 0.02

    def test_matches_bcss3_at_colsi(self, saia_map):
        b, a = saia_map.coefficients(3.0)
        assert b == pytest.approx(B_BCSS3, abs=2e-6)
        assert a == pytest.approx(A_BCSS3, abs=2e-6)

    def test_minimax_optimality_at_nodes(self, saia_map):
        # argmin definition under the map objective: the tabulated coefficient
        # minimizes the worst-case bound over (0, h]
        rng = np.random.default_rng(7)
        for h in (0.8, 2.0772, 2.5, 3.0):
            b_opt, _ = saia_map.coefficients(h)
            best = _worst(h, b_opt)
            for b in rng.uniform(0.05, 0.24, size=50):
                assert best <= _worst(h, float(b)) + 1e-9

    def test_beats_fixed_schemes_at_midrange(self, saia_map):
        # one-step expected energy error at h = 2.5, propagator oracle
        adaptive = saia_map.scheme_at(2.5)
        e_adaptive = energy_error_one_step(adaptive, 2.5)
        for name in ("bcss3", "me3"):
            assert e_adaptive <= energy_error_one_step(build_scheme(name), 2.5)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            build_saia3_map(resolution=50)

    def test_flagged_tail_carries_last_value(self, saia_map):
        assert saia_map.n_flagged > 0
        tail = saia_map.b_opt[-saia_map.n_flagged:]
        assert np.allclose(tail, tail[0], atol=1e-9)


class TestMapEvaluation:
    def test_out_of_range(self, saia_map):
        with pytest.raises(OutOfStabilityError):
            saia_map.coefficients(6.5)

    def test_interpolation_consistency(self, saia_map):
        # linear interpolation error is far below tuning-interval widths
        from ghmctune.saia import _minimax_b

        hs = np.array([H_LOWER, 2.5386, 2.95])
        for h, b_node in zip(hs, _minimax_b(hs)[0]):
            b_map, _ = saia_map.coefficients(h)
            assert b_map == pytest.approx(b_node, abs=1e-5)

    def test_scheme_at_satisfies_constraints(self, saia_map):
        for h in np.linspace(0.2, 4.0, 17):
            s = saia_map.scheme_at(h)
            assert sum(s.kicks) == pytest.approx(1.0, abs=1e-12)
            assert sum(s.drifts) == pytest.approx(1.0, abs=1e-12)

    def test_family_relation(self, saia_map):
        b, a = saia_map.coefficients(2.3)
        assert a == pytest.approx(three_stage_a(b), abs=1e-14)


class TestPersistence:
    def test_round_trip(self, tmp_path, saia_map):
        path = tmp_path / "map.txt"
        saia_map.save(path)
        loaded = SAIA3Map.load(path)
        assert np.array_equal(loaded.h_grid, saia_map.h_grid)
        assert np.array_equal(loaded.b_opt, saia_map.b_opt)
        assert np.array_equal(loaded.a_opt, saia_map.a_opt)
        assert loaded.n_flagged == saia_map.n_flagged

    @staticmethod
    def _corrupt(saia_map, path, node, b=None, a=None):
        saia_map.save(path)
        lines = path.read_text().splitlines()
        data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
        fields = lines[data[node]].split()
        if b is not None:
            fields[1] = repr(b)
        if a is not None:
            fields[2] = repr(a)
        lines[data[node]] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("b, a", [
        (0.6, None),            # kick 1/2 - b negative
        (-0.01, None),          # end kicks negative
        (float("nan"), None),
        (None, 0.55),           # middle drift 1 - 2a negative
        (0.3, 1.0),             # on the family, outside the admissible b
        (0.3, 0.4),             # in range, off the family: a(0.3) = 1
    ])
    def test_load_rejects_corrupted_node(self, tmp_path, saia_map, b, a):
        path = tmp_path / "map.txt"
        self._corrupt(saia_map, path, 250, b=b, a=a)
        with pytest.raises(ValueError):
            SAIA3Map.load(path)

    def test_default_map_rebuilds_corrupted_cache(self, tmp_path, monkeypatch,
                                                  saia_map):
        from ghmctune import saia

        path = tmp_path / "saia3_map_600.txt"
        self._corrupt(saia_map, path, 10, b=0.6)
        builds = []
        monkeypatch.setenv("GHMCTUNE_CACHE", str(tmp_path))
        monkeypatch.setattr(saia, "build_saia3_map",
                            lambda: builds.append(1) or saia_map)
        saia.default_map.cache_clear()
        try:
            assert saia.default_map() is saia_map
        finally:
            saia.default_map.cache_clear()
        assert builds == [1]
        assert np.array_equal(SAIA3Map.load(path).b_opt, saia_map.b_opt)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a map\n1 2 3\n")
        with pytest.raises(ValueError):
            SAIA3Map.load(path)


    def test_load_rejects_truncated_file(self, tmp_path, saia_map):
        path = tmp_path / "map.txt"
        saia_map.save(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3 + 200]))  # cut at a line boundary
        with pytest.raises(ValueError, match="200 data rows"):
            SAIA3Map.load(path)

    def test_default_map_rebuilds_truncated_cache(self, tmp_path, monkeypatch,
                                                  saia_map, caplog):
        from ghmctune import saia

        path = tmp_path / "saia3_map_600.txt"
        saia_map.save(path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:203]))
        monkeypatch.setenv("GHMCTUNE_CACHE", str(tmp_path))
        saia.default_map.cache_clear()
        try:
            with caplog.at_level("INFO", logger="ghmctune.saia"):
                rebuilt = saia.default_map()
        finally:
            saia.default_map.cache_clear()
        assert np.array_equal(rebuilt.b_opt, saia_map.b_opt)
        assert np.array_equal(SAIA3Map.load(path).b_opt, saia_map.b_opt)
        levels = [(r.levelname, r.getMessage()) for r in caplog.records]
        assert levels[0][0] == "WARNING" and "rejected" in levels[0][1]
        assert levels[1][0] == "INFO" and "600-node" in levels[1][1]
        assert str(path) in levels[1][1]

    def test_default_map_warns_when_cache_is_not_writable(self, tmp_path,
                                                          monkeypatch, saia_map,
                                                          caplog):
        from ghmctune import saia

        def refuse(self, path):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setenv("GHMCTUNE_CACHE", str(tmp_path))
        monkeypatch.setattr(saia, "build_saia3_map", lambda: saia_map)
        monkeypatch.setattr(SAIA3Map, "save", refuse)
        saia.default_map.cache_clear()
        try:
            with caplog.at_level("INFO", logger="ghmctune.saia"):
                assert saia.default_map() is saia_map
        finally:
            saia.default_map.cache_clear()
        assert [r.levelname for r in caplog.records] == ["INFO", "WARNING"]
        assert "read-only" in caplog.records[1].getMessage()

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, saia_map):
        from ghmctune import saia

        path = tmp_path / "map.txt"
        saia_map.save(path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(saia.os, "replace", fail)
        with pytest.raises(OSError):
            SAIA3Map(saia_map.h_grid[:100], saia_map.b_opt[:100],
                     saia_map.a_opt[:100]).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["map.txt"]
