
import math
import re

import pytest

from corebound import choose, find_breakdown, run_sweep, sweep
from corebound.sweep import (
    FORMULA_METHODS,
    SweepSpec,
    first_failure,
    formula_value,
    point_geometry,
)


class TestSpec:
    def test_validation(self):
        good = dict(k=3, r=1, overhead=1.0, e_min=3, e_max=5,
                    methods=("connectivity",))
        SweepSpec(**good)
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "e_min": 6})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "overhead": 0.0})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "methods": ("sorcery",)})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "scope": "galactic"})
        with pytest.raises(ValueError):
            SweepSpec(**{**good, "methods": ()})
        with pytest.raises(ValueError, match="trials must be >= 1, got 0"):
            SweepSpec(**{**good, "trials": 0})
        # the master seed goes through trial_seed, which reads it mod 2^64
        SweepSpec(**{**good, "seed": 2**64 - 1})
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^64\), got {seed}"):
                SweepSpec(**{**good, "seed": seed})
        with pytest.raises(ValueError, match=r"overhead \* e_max = 1e\+308 \* 5 is not finite"):
            SweepSpec(**{**good, "overhead": 1e308})
        with pytest.raises(ValueError, match="unknown formula method 'sorcery'"):
            formula_value("sorcery", "local", 6, 0.3, 3, 1)

    @pytest.mark.parametrize("method", ["connectivity", "interleaved-lower"])
    @pytest.mark.parametrize("scope", ["local", "global"])
    def test_formula_value_rejects_r_below_one(self, method, scope):
        with pytest.raises(ValueError, match="r must be >= 1"):
            formula_value(method, scope, 6, 0.25, 3, 0)

    @pytest.mark.parametrize("p", [1.5, -0.5])
    @pytest.mark.parametrize("scope", ["local", "global"])
    def test_formula_value_checks_p_before_dividing(self, scope, p):
        # p / r = 0.75 or -0.25: only p itself shows that the point is outside the model
        with pytest.raises(ValueError, match=rf"p must lie in \[0, 1\], got {p}"):
            formula_value("interleaved-lower", scope, 6, p, 3, 2)

    @pytest.mark.parametrize("call", [
        lambda: formula_value("connectivity", "galactic", 6, 0.3, 3, 2),
        lambda: SweepSpec(3, 2, 1.0, 1, 2, ("mc",), scope="galactic"),
    ], ids=["formula_value", "sweep_spec"])
    def test_misspelt_scope_rejected(self, call):
        with pytest.raises(ValueError, match=re.escape(
                "scope must be one of ('local', 'global'), got 'galactic'")):
            call()

    def test_point_geometry(self):
        v, p = point_geometry(3, 1.2, 10)
        assert v == 12
        assert p == pytest.approx(10 / choose(12, 3))
        # rounding is half-up
        assert point_geometry(3, 1.5, 3)[0] == 5
        # e beyond the candidate count clamps p
        assert point_geometry(3, 1.0, 3) == (3, 1.0)

    def test_p_times_choose_recovers_e(self):
        for e in range(4, 40):
            v, p = point_geometry(3, 1.6, e)
            if p < 1.0:
                assert p * choose(v, 3) == pytest.approx(e, rel=1e-12)


class TestDetector:
    def test_fires_on_invalid(self):
        assert first_failure([(3, 0.5, True), (4, 0.4, False)]) == 4

    def test_fires_on_rise_after_descent(self):
        points = [(e, val, True) for e, val in [(3, 0.9), (4, 0.5), (5, 0.2), (6, 0.4)]]
        assert first_failure(points) == 6

    def test_initial_rise_is_fine(self):
        points = [(e, val, True)
                  for e, val in [(3, 0.1), (4, 0.5), (5, 0.9), (6, 0.7), (7, 0.5)]]
        assert first_failure(points) is None

    def test_flat_tail_does_not_fire(self):
        points = [(e, val, True) for e, val in [(3, 0.9), (4, 0.5), (5, 0.5), (6, 0.5)]]
        assert first_failure(points) is None


class TestRunSweep:
    def test_single_row(self):
        spec = SweepSpec(k=3, r=1, overhead=1.0, e_min=3, e_max=3,
                         methods=("connectivity",), scope="local")
        res = run_sweep(spec)
        assert len(res.rows) == 1
        assert res.rows[0].values["connectivity"].value == 1.0  # p clamps to 1

    def test_local_matches_direct_formula(self):
        from corebound import ConnectivityTable, covering_prob

        spec = SweepSpec(k=3, r=1, overhead=1.0, e_min=4, e_max=12,
                         methods=("connectivity", "covering"), scope="local")
        res = run_sweep(spec)
        for row in res.rows:
            conn = ConnectivityTable(3, row.p).prob(row.v)
            assert row.values["connectivity"].value == conn.value
            assert row.values["covering"].value == covering_prob(row.v, 3, row.p, 1).value

    def test_global_interleaved_ordering_where_valid(self, warm_kernels):
        spec = SweepSpec(k=3, r=2, overhead=2.0, e_min=6, e_max=18,
                         methods=("interleaved-lower", "interleaved-upper", "mc"),
                         trials=500, seed=21, scope="global")
        res = run_sweep(spec)
        checked = 0
        for row in res.rows:
            lower, upper = row.values["interleaved-lower"], row.values["interleaved-upper"]
            if lower.valid and upper.valid:
                assert lower.value <= upper.value + 1e-12
                checked += 1
        assert checked > 0

    def test_global_lower_bound_above_one_breaks_down(self):
        spec = SweepSpec(k=3, r=2, overhead=1.2, e_min=3, e_max=5,
                         methods=("interleaved-lower",), scope="global")
        res = run_sweep(spec)
        assert res.rows[0].values["interleaved-lower"].value > 1.0
        assert res.breakdown_at["interleaved-lower"] == 3

    def test_mc_rows_keep_per_point_seeds(self, warm_kernels):
        base = dict(k=3, r=1, overhead=1.0, methods=("mc",), trials=300, seed=9,
                    scope="local")
        wide = run_sweep(SweepSpec(e_min=4, e_max=8, **base))
        narrow = run_sweep(SweepSpec(e_min=6, e_max=6, **base))
        wide_row = next(r for r in wide.rows if r.e == 6)
        assert wide_row.mc == narrow.rows[0].mc

    def test_invalid_rows_never_precede_threshold(self):
        spec = SweepSpec(k=3, r=1, overhead=1.0, e_min=4, e_max=120,
                         methods=("connectivity",), scope="local")
        res = run_sweep(spec)
        threshold = res.breakdown_at["connectivity"]
        assert threshold is not None
        for row in res.rows:
            if not row.values["connectivity"].valid:
                assert row.e >= threshold


class TestSubsetLocalSweep:
    def test_subset_local_curves(self, warm_kernels):
        # e = u style run over [1, 50]; scaled-down trial count, so bands use
        # the exact formula value with a 4-sigma margin
        import math

        spec = SweepSpec(k=3, r=1, overhead=1.0, e_min=1, e_max=50,
                         methods=("connectivity", "covering", "mc"),
                         trials=2000, seed=9, scope="local")
        res = run_sweep(spec)
        assert res.breakdown_at == {"connectivity": None, "covering": None}
        conn = [row.values["connectivity"].value for row in res.rows]
        for row in res.rows:
            f = row.values["connectivity"]
            cov = row.values["covering"]
            assert f.valid and cov.valid
            assert -1e-12 <= cov.value <= 1.0 + 1e-12
            se = math.sqrt(max(f.value * (1 - f.value), 1e-300) / row.mc.trials)
            if se > 0:
                assert abs(row.mc.mean - f.value) <= 4 * se
        # the curve decreases once p stops clamping at 1 (e = u >= 5 here)
        tail = conn[4:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert conn[0] == 1.0  # single vertex


class TestFindBreakdown:
    def test_connectivity_local_scan(self):
        threshold = find_breakdown(3, 1, 1.0, "connectivity", scope="local", cap=250)
        assert threshold is not None
        assert 20 <= threshold <= 200

    def test_covering_never_breaks(self):
        assert find_breakdown(3, 1, 1.0, "covering", scope="local", cap=120) is None

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            find_breakdown(3, 1, 1.0, "connectivity", scope="local", cap=cap)

    @pytest.mark.parametrize("overhead", [0.0, -1.0, math.inf, math.nan])
    def test_overhead_not_positive_rejected(self, overhead):
        with pytest.raises(ValueError, match="overhead must be positive"):
            find_breakdown(3, 1, overhead, "connectivity", scope="local", cap=20)

    def test_mc_rejected(self):
        with pytest.raises(ValueError):
            find_breakdown(3, 1, 1.0, "mc", scope="local")

    @pytest.mark.parametrize("overhead", [1.0, 0.3])
    @pytest.mark.parametrize("scope", ["local", "global"])
    def test_evaluates_no_row_below_k(self, monkeypatch, overhead, scope):
        # rows with v < k feed no detector, so the scan must not compute them
        calls = []
        original = sweep.formula_value

        def recording(method, scope, v, p, k, r):
            calls.append((v, k))
            return original(method, scope, v, p, k, r)

        monkeypatch.setattr(sweep, "formula_value", recording)
        find_breakdown(3, 1, overhead, "covering", scope=scope, cap=30)
        assert calls and all(v >= k for v, k in calls)

    # (scope, cap, method, threshold) at k = 3, r = 2, overhead 1.0
    @pytest.mark.parametrize("scope, cap, method, threshold", [
        ("local", 300, "connectivity", 83), ("local", 300, "covering", None),
        ("local", 300, "interleaved-lower", 60), ("local", 300, "interleaved-upper", 83),
        ("global", 60, "connectivity", 3), ("global", 60, "covering", 5),
        ("global", 60, "interleaved-lower", 4), ("global", 60, "interleaved-upper", 3),
    ])
    def test_evaluates_only_the_rows_up_to_the_threshold(self, monkeypatch, scope, cap,
                                                         method, threshold):
        # the scan stops at its first failure: a scan materialized before the
        # rule is applied would evaluate every row up to the cap
        calls = []
        original = sweep.formula_value

        def recording(method, scope, v, p, k, r):
            calls.append((v, p))
            return original(method, scope, v, p, k, r)

        monkeypatch.setattr(sweep, "formula_value", recording)
        assert find_breakdown(3, 2, 1.0, method, scope=scope, cap=cap) == threshold
        last = cap if threshold is None else threshold
        points = [point_geometry(3, 1.0, e) for e in range(1, last + 1)]
        assert calls == [(v, p) for v, p in points if v >= 3]
        assert len(calls) == last - 2  # v = e here, so e = 3..last

    def test_no_row_reaches_k_below_cap(self):
        # v = round(0.3 e) stays below k = 3 for e <= 8
        assert find_breakdown(3, 1, 0.3, "connectivity", scope="local", cap=8) is None

    # (k, r, overhead, scope, cap): with every formula method, 32 configurations
    # spanning k = 2..4, r = 1..2, four overheads, thresholds early, late and
    # none, and both scopes at the caps of the pinned CLI scans
    @pytest.mark.parametrize("k, r, overhead, scope, cap", [
        (2, 1, 1.0, "local", 120), (3, 2, 1.2, "local", 120),
        (4, 2, 0.7, "local", 120), (3, 2, 1.6, "local", 120),
        (2, 2, 1.0, "global", 60), (4, 2, 1.2, "global", 60),
        (3, 1, 0.7, "global", 60), (3, 2, 1.6, "global", 60),
    ])
    def test_equals_sweep_breakdown_at(self, k, r, overhead, scope, cap):
        spec = SweepSpec(k, r, overhead, 1, cap, FORMULA_METHODS, scope=scope)
        expected = run_sweep(spec).breakdown_at
        assert {m: find_breakdown(k, r, overhead, m, scope, cap)
                for m in FORMULA_METHODS} == expected
