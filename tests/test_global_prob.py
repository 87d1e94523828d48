import fractions
import functools
import itertools
import json
import math
import random
import struct
import sys
from pathlib import Path

import pytest

from corebound import (
    ConnectivityTable,
    LocalProvider,
    exact_exactly_one,
    exact_global,
    exactly_one_core,
    mc_global,
)
from corebound import global_prob, local_prob, sweep
from corebound.cli import main
from corebound.global_prob import _geometric_bound, _level, _merge
from corebound.local_prob import FORMULA_METHODS
from corebound.numerics import PROB_TOL, ProbValue, binom_pmf, binomial_row, range_checked
from corebound.sweep import formula_value, point_geometry


def _flags_notes(parts):
    """The flags and the notes of (value, valid, note) triples, for ``_merge``."""
    parts = list(parts)
    return [valid for _, valid, _ in parts], [note for _, _, note in parts]


# the three local sources of the composition; the ids keep the text they were
# first recorded under, when interleaved-upper was the "interleaved" source
SOURCES = ["connectivity", "covering", pytest.param("interleaved-upper", id="interleaved")]


def connectivity_comp(v, p, k=3, r=1):
    return exactly_one_core(v, p, k, r, "connectivity")


class TestLoneCoreProb:
    def test_worked_example(self):
        # v=4, u=3, k=3, r=1, p=0.5: 4 * 0.5 * (1 - 0.6875)^1
        comp = connectivity_comp(4, 0.5)
        assert comp.lone_core[3].value == pytest.approx(0.625, abs=1e-12)

    def test_top_size_is_local_value(self):
        comp = connectivity_comp(5, 0.3)
        local = LocalProvider("connectivity", 3, 0.3, 1).value(5).value
        assert comp.lone_core[5].value == pytest.approx(local, abs=1e-15)

    def test_p_zero(self):
        comp = connectivity_comp(6, 0.0)
        for u in range(3, 7):
            assert comp.lone_core[u].value == 0.0


class TestNoDistinctCoreProb:
    def test_top_size_gives_one(self):
        comp = connectivity_comp(5, 0.4)
        assert comp.no_distinct_core[5].value == 1.0

    def test_leftover_below_edge_size(self):
        comp = connectivity_comp(5, 0.4)
        assert comp.no_distinct_core[3].value == 1.0  # 2 leftover vertices

    def test_matches_exact_complement_when_unique_core_possible(self):
        # r=2, leftover 4 vertices: only the full 4-set can carry a 2-core, so
        # the recursive subinstance values are exact and the complement equals
        # 1 - P[any 2-core on 4 vertices].
        p = 0.5
        rest = 1.0 - exactly_one_core(4, p, 3, 2, "exact-enum").exactly_one.value
        expected = 1.0 - exact_global(4, 3, p, 2)
        assert rest == pytest.approx(expected, abs=1e-12)

    def test_definitional_identity(self):
        # C(6, k) <= 20, so the exact local values enumerate at every size
        p, v = 0.2, 6
        for k in (2, 3):
            comp = exactly_one_core(v, p, k, 1, "exact-enum")
            for u in range(k, v):
                sizes = exactly_one_core(v - u, p, k, 1, "exact-enum").per_size
                expected = 1.0 - math.fsum(pv.value for pv in sizes.values())
                assert comp.no_distinct_core[u].value == pytest.approx(expected, abs=1e-15)


class TestExactlyOneCore:
    def test_below_edge_size(self):
        res = exactly_one_core(2, 0.9, 3, 1)
        assert res.exactly_one.value == 0.0
        assert res.per_size == res.lone_core == res.no_distinct_core == {}

    def test_single_edge_anchor_exact(self):
        for p in (0.25, 0.5, 0.7):
            res = exactly_one_core(3, p, 3, 1)
            assert res.exactly_one.value == p

    def test_single_edge_r2_zero(self):
        res = exactly_one_core(3, 0.5, 3, 2, method="exact-enum")
        assert res.exactly_one.value == 0.0

    def test_unique_core_instance_matches_oracle(self):
        # v=4, r=2: the only possible core set is all four vertices, so the
        # composition with exact local values equals both oracle counts.
        for p in (0.2, 0.5, 0.8):
            res = exactly_one_core(4, p, 3, 2, method="exact-enum")
            assert res.exactly_one.valid
            expected = exact_exactly_one(4, 3, p, 2)
            assert res.exactly_one.value == pytest.approx(expected, abs=1e-12)
            assert exact_global(4, 3, p, 2) == pytest.approx(expected, abs=1e-12)

    def test_overcount_is_flagged_not_clamped(self):
        res = exactly_one_core(5, 0.5, 3, 2, method="exact-enum")
        assert res.exactly_one.value > 1.0
        assert not res.exactly_one.valid
        assert not res.bound.valid

    def test_per_size_keys(self):
        res = exactly_one_core(6, 0.2, 3, 1)
        assert sorted(res.per_size) == [3, 4, 5, 6]


class TestResultTerms:
    """``exactly_one_core`` returns every term of its composition: each
    per-size value is the lone-core term times the "no distinct core" term,
    and that term is the complement of the smaller instance's total."""

    @pytest.mark.parametrize("source", SOURCES)
    def test_terms_compose(self, source):
        v, k, r = 30, 3, 2
        p = 20 / math.comb(v, k)
        res = exactly_one_core(v, p, k, r, source)
        sizes = list(range(v, k - 1, -1))
        assert list(res.per_size) == list(res.lone_core) == list(res.no_distinct_core) == sizes
        for u in sizes:
            lone, rest = res.lone_core[u], res.no_distinct_core[u]
            again = _merge(lone.value * rest.value, *_flags_notes((lone, rest)))
            assert _hex(again) == _hex(res.per_size[u]), u
            if u < v:
                sub = exactly_one_core(v - u, p, k, r, source)
                complement = _merge(1.0 - sub.exactly_one.value,
                                    *_flags_notes(sub.per_size.values()))
                assert _hex(rest) == _hex(complement), u
            else:
                assert _hex(rest) == _hex(ProbValue(1.0)), u


class TestGeometricBound:
    def test_zero(self):
        assert _geometric_bound(ProbValue(0.0)).value == 0.0

    def test_half(self):
        assert _geometric_bound(ProbValue(0.5)).value == 1.0

    def test_tenth(self):
        pv = _geometric_bound(ProbValue(0.1))
        assert pv.value == pytest.approx(0.1 / 0.9, abs=1e-12)
        assert pv.valid

    def test_at_or_above_one_is_invalid(self):
        pv = _geometric_bound(ProbValue(1.0))
        assert pv.value == 1.0 and not pv.valid
        pv = _geometric_bound(range_checked(1.3, True, None))
        assert pv.value == 1.0 and not pv.valid

    def test_vacuous_bound_is_noted_but_valid(self):
        pv = _geometric_bound(ProbValue(0.6))
        assert pv.value == pytest.approx(1.5)
        assert pv.valid
        assert "vacuous" in pv.note

    def test_vacuous_note_starts_just_above_one(self):
        # S = 0.5 gives exactly 1, a bound with no note; a hair above it is noted
        assert _geometric_bound(ProbValue(0.5)) == ProbValue(1.0)
        assert _geometric_bound(ProbValue(0.5001)) == ProbValue(
            1.0004000800160031, True, "vacuous upper bound (> 1)")

    def test_invalid_input_propagates(self):
        pv = _geometric_bound(ProbValue(0.3, valid=False, note="broken upstream"))
        assert not pv.valid
        assert pv.note == "broken upstream"


# The r = 2 audit grid of the bracket: sweeps (k, overhead, largest e).  Its
# desk-scale rows have k <= v, p < 1 and C(v, k) <= 20, so exact_global
# enumerates them.
AUDIT_SWEEPS = ((3, 1.2, 30), (3, 1.6, 30), (3, 2.0, 30), (3, 0.8, 40), (4, 1.6, 30),
                (2, 0.7, 40))
# (k, overhead, e) -> (lower bound, exact value) of the rows whose
# valid-flagged lower bound lies above the exact value (v = 6, 5, 4, 6)
LOWER_ABOVE_EXACT = {
    (3, 1.2, 5): (0.83103, 0.65328),
    (3, 1.6, 3): (0.44153, 0.39486),
    (3, 2.0, 2): (0.43138, 0.3125),
    (4, 1.6, 4): (0.81206, 0.63168),
}


# the bracket's lower and upper sides, as global-scope formula methods
SIDES = ("interleaved-lower", "interleaved-upper")


def desk_rows(side):
    """((k, overhead, e), v) of each desk-scale audit row whose lower
    (``side`` 0) or upper (1) bracket value is flagged valid."""
    rows = []
    for k, overhead, e_max in AUDIT_SWEEPS:
        for e in range(1, e_max + 1):
            v, p = point_geometry(k, overhead, e)
            if k <= v and p < 1.0 and math.comb(v, k) <= 20:
                if formula_value(SIDES[side], "global", v, p, k, 2).valid:
                    rows.append(((k, overhead, e), v))
    return rows


def _grid_params(side, known):
    """One parameter per row of ``desk_rows(side)``; the rows in ``known``
    are strict xfails carrying their numbers."""
    params = []
    for key, v in desk_rows(side):
        marks = ()
        if key in known:
            bound, exact = known[key]
            marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                f"valid-flagged {('lower', 'upper')[side]} bound {bound} at v={v} "
                f"against exact_global {exact}"))
        k, overhead, e = key
        params.append(pytest.param(*key, marks=marks, id=f"k={k}-overhead={overhead:g}-v={v}"))
    return params


LOWER_ROWS = _grid_params(0, LOWER_ABOVE_EXACT)
UPPER_ROWS = _grid_params(1, {})

# The tail scan of the bracket at r = 2: v = k..60 at p = (v / overhead) /
# C(v, k), capped at 1, for each (k, overhead).  No exact value is needed: a
# lower bound above the upper one means at least one side is wrong.
TAIL_SCAN = [(k, overhead) for k in (3, 4) for overhead in (1.222, 1.6, 2.0, 3.0)]
# (k, overhead) -> rows where both sides are flagged valid
TAIL_BOTH_VALID = {(3, 1.222): 9, (3, 1.6): 41, (3, 2.0): 38, (3, 3.0): 33,
                   (4, 1.222): 0, (4, 1.6): 16, (4, 2.0): 41, (4, 3.0): 36}


@functools.cache
def tail_rows():
    """(k, overhead, v, lower, upper) of each tail-scan row whose two
    bracket sides are both flagged valid."""
    rows = []
    for k, overhead in TAIL_SCAN:
        for v in range(k, 61):
            p = min(1.0, (v / overhead) / math.comb(v, k))
            lower, upper = (formula_value(side, "global", v, p, k, 2) for side in SIDES)
            if lower.valid and upper.valid:
                rows.append((k, overhead, v, lower.value, upper.value))
    return tuple(rows)


class TestInterleavingBounds:
    def test_r1_bounds_coincide(self):
        lower, upper = (formula_value(side, "global", 6, 0.1, 3, 1) for side in SIDES)
        assert lower.value == upper.value

    def test_p_zero(self):
        lower, upper = (formula_value(side, "global", 6, 0.0, 3, 2) for side in SIDES)
        assert (lower.value, upper.value) == (0.0, 0.0)

    def test_ordering_on_sparse_grid(self):
        # overhead-2 style points where both bounds stay meaningful
        cases = [(18, 9), (24, 12), (30, 15), (36, 18)]
        for v, e in cases:
            p = e / math.comb(v, 3)
            lower, upper = (formula_value(side, "global", v, p, 3, 2) for side in SIDES)
            assert lower.valid and upper.valid
            assert lower.value <= upper.value + 1e-12

    def test_lower_bound_above_one_is_invalid(self):
        # the e=3 point of the overhead-1.2 sweep: S/(1-S) at p/r is 1.97
        lower = formula_value("interleaved-lower", "global", 4, 0.75, 3, 2)
        assert lower.value == pytest.approx(1.9744653165700103, rel=1e-12)
        assert not lower.valid

    # a check over zero rows tests nothing, and a recorded mislabel that
    # leaves the selection or changes its numbers must be looked at
    def test_desk_grid_checks_rows(self):
        assert LOWER_ROWS and UPPER_ROWS
        assert set(LOWER_ABOVE_EXACT) <= {key for key, _ in desk_rows(0)}
        for (k, overhead, e), numbers in LOWER_ABOVE_EXACT.items():
            v, p = point_geometry(k, overhead, e)
            lower = formula_value("interleaved-lower", "global", v, p, k, 2)
            assert numbers == pytest.approx((lower.value, exact_global(v, k, p, 2)), abs=5e-6)

    @pytest.mark.parametrize("k, overhead, e", LOWER_ROWS)
    def test_valid_lower_bound_not_above_exact(self, k, overhead, e):
        v, p = point_geometry(k, overhead, e)
        lower = formula_value("interleaved-lower", "global", v, p, k, 2)
        exact = exact_global(v, k, p, 2)
        assert lower.value <= exact + 1e-12, (v, p, lower.value, exact)

    @pytest.mark.parametrize("k, overhead, e", UPPER_ROWS)
    def test_valid_upper_bound_not_below_exact(self, k, overhead, e):
        v, p = point_geometry(k, overhead, e)
        upper = formula_value("interleaved-upper", "global", v, p, k, 2)
        exact = exact_global(v, k, p, 2)
        assert upper.value >= exact - 1e-12, (v, p, upper.value, exact)

    def test_bracket_holds_against_mc(self, warm_kernels):
        v, e = 8, 5
        p = e / math.comb(v, 3)
        lower, upper = (formula_value(side, "global", v, p, 3, 2) for side in SIDES)
        est = mc_global(v, 3, p, 2, trials=10_000, seed=3)
        assert lower.value - 3 * est.stderr <= est.mean <= upper.value + 3 * est.stderr

    def test_tail_scan_checks_rows(self):
        counts = {key: 0 for key in TAIL_SCAN}
        for k, overhead, *_ in tail_rows():
            counts[k, overhead] += 1
        assert counts == TAIL_BOTH_VALID
        # the numbers the two strict xfails below carry
        inverted = [row for row in tail_rows() if row[3] > row[4]]
        assert len(inverted) == 17 and {row[:2] for row in inverted} == {(3, 3.0)}
        assert inverted[0] == pytest.approx((3, 3.0, 20, 0.0077807, 0.0074691), abs=5e-8)
        v, e = 30, 10
        upper = formula_value("interleaved-upper", "global", v, e / math.comb(v, 3), 3, 2)
        assert upper.valid and upper.value == pytest.approx(0.00086494, abs=5e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "17 of the 33 rows at k=3, overhead 3.0 with both sides valid have "
        "interleaved-lower above interleaved-upper, the first at v=20: "
        "0.0077807 against 0.0074691; the other seven (k, overhead) have none"))
    def test_valid_tail_bracket_not_inverted(self):
        rows = [row for row in tail_rows() if row[3] > row[4]]
        assert not rows, f"{len(rows)} rows, first (k, overhead, v, lower, upper) {rows[0]}"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "at v=30, e=10, k=3, r=2 interleaved-upper is 0.00086494, flagged "
        "valid; mc_global reads 340 of 40000 trials at seed 7 "
        "(0.0085 +- 0.00046), so the upper value is 16.6 sd below it"))
    def test_valid_upper_bound_not_far_below_mc(self, warm_kernels):
        v, e = 30, 10
        p = e / math.comb(v, 3)
        upper = formula_value("interleaved-upper", "global", v, p, 3, 2)
        est = mc_global(v, 3, p, 2, trials=40_000, seed=7)  # fixed before the first run; never re-seed
        assert not upper.valid or upper.value >= est.mean - 4 * est.stderr, (upper, est)

    def test_upper_bound_below_mc_is_the_xfail_number(self, warm_kernels):
        # the MC count and distance the xfail above states, at its seed
        v, e = 30, 10
        p = e / math.comb(v, 3)
        upper = formula_value("interleaved-upper", "global", v, p, 3, 2)
        est = mc_global(v, 3, p, 2, trials=40_000, seed=7)
        assert (est.successes, est.mean) == (340, 0.0085)
        assert est.stderr == pytest.approx(0.0004590138886787632, rel=1e-12)
        assert upper.valid and upper.value == pytest.approx(0.00086494, abs=5e-9)
        assert (est.mean - upper.value) / est.stderr == pytest.approx(16.63, abs=5e-3)


# The dominance grid: global scope, k = 3, r = 2, v = 4..40 and 25 p from
# 1e-4 to 0.5, p_j = 1e-4 * 5000^(j/24).
DOMINANCE_V = range(4, 41)
DOMINANCE_P = [1e-4 * 5000 ** (j / 24) for j in range(25)]


def crossings(lower, upper):
    """The crossings of one upper column on the dominance grid, given each
    column's values keyed (v, j) in v-major order: (the number of valid upper
    values, those below a valid lower value at their own point, those below
    one only at a dominated point (v1, j1) <= (v, j)).  A crossing is (v, j,
    upper, v1, j1, lower), paired with its own point, else with the first
    dominated point in v-major order whose valid lower value lies above."""
    lower = {key: value.value for key, value in lower.items() if value.valid}
    valid, same, dominated = 0, [], []
    for (v, j), value in upper.items():
        if not value.valid:
            continue
        valid += 1
        above = [key for key, low in lower.items()
                 if key[0] <= v and key[1] <= j and low > value.value]
        if (v, j) in above:
            same.append((v, j, value.value, v, j, lower[v, j]))
        elif above:
            dominated.append((v, j, value.value, *above[0], lower[above[0]]))
    return valid, same, dominated


@pytest.fixture(scope="module")
def dominance():
    """Per upper column, its :func:`crossings` against `interleaved-lower`
    on the dominance grid (3700 formula values, built once)."""
    def column(method):
        return {(v, j): formula_value(method, "global", v, p, 3, 2)
                for v in DOMINANCE_V for j, p in enumerate(DOMINANCE_P)}

    lower = {key: value for key, value in lower_column(3, 2).items() if key[0] in DOMINANCE_V}
    return {method: crossings(lower, column(method))
            for method in ("interleaved-upper", "covering", "connectivity")}


@functools.cache
def lower_column(k, r):
    """The global `interleaved-lower` values at the dominance grid's 25 p and
    v = k..40, keyed (v, j) in v-major order (built once per (k, r))."""
    return {(v, j): formula_value("interleaved-lower", "global", v, p, k, r)
            for v in range(k, 41) for j, p in enumerate(DOMINANCE_P)}


def lower_above(k, r, top):
    """(the number of valid values of ``lower_column(k, r)``, the (v, j,
    lower, top) of each one above ``top(v, p)``, in v-major order)."""
    valid, above = 0, []
    for (v, j), lower in lower_column(k, r).items():
        if lower.valid:
            valid += 1
            bound = top(v, DOMINANCE_P[j])
            if lower.value > bound:
                above.append((v, j, lower.value, bound))
    return valid, above


class TestDominanceScan:
    """The truth is nondecreasing in v and in p: a core set on range(v)
    stays one on range(v + 1), and a core survives added edges.  So a valid
    lower value at (v1, p1) above a valid upper value at some (v2, p2) >=
    (v1, p1) proves one of the two labels wrong.  This reads past the desk
    scale of `exact_global`, and finds upper values that a same-point test
    misses."""

    def test_crossings_are_the_xfail_numbers(self, dominance):
        valid, same, dominated = dominance["interleaved-upper"]
        assert (valid, len(same), len(dominated)) == (470, 28, 16)
        assert same[0] == pytest.approx(
            (16, 12, 0.006182671675610124, 16, 12, 0.0070205030521677475), rel=1e-12)
        assert dominated[0] == pytest.approx(
            (26, 10, 0.0033734298623983292, 20, 10, 0.003455035936428262), rel=1e-12)
        valid, same, dominated = dominance["covering"]
        assert (valid, len(same), len(dominated)) == (563, 25, 0)
        assert same[0] == pytest.approx(
            (4, 0, 6.007600808506212e-09, 4, 0, 1.0000000324967804e-08), rel=1e-12)

    def test_connectivity_has_no_crossing(self, dominance):
        assert dominance["connectivity"] == (356, [], [])

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "28 of the 470 valid interleaved-upper values on the dominance grid lie "
        "below the valid interleaved-lower value at their own point, the first at "
        "v=16, j=12: 0.006182671675610124 against 0.0070205030521677475"))
    def test_valid_upper_not_below_lower_at_its_point(self, dominance):
        _, same, _ = dominance["interleaved-upper"]
        assert not same, f"{len(same)} values, first {same[0]}"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "16 more valid interleaved-upper values on the dominance grid lie below a "
        "valid interleaved-lower value only at a dominated point, the first at "
        "v=26, j=10: 0.0033734298623983292 against 0.003455035936428262 at v=20, j=10"))
    def test_valid_upper_not_below_a_dominated_lower(self, dominance):
        _, _, dominated = dominance["interleaved-upper"]
        assert not dominated, f"{len(dominated)} values, first {dominated[0]}"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "25 of the 563 valid covering values on the dominance grid lie below the "
        "valid interleaved-lower value at their own point, the first at v=4, j=0: "
        "6.0076e-09 against 1.0000000325e-08; none cross only at a dominated point"))
    def test_valid_covering_not_below_lower(self, dominance):
        _, same, dominated = dominance["covering"]
        assert not same + dominated, f"{len(same)} + {len(dominated)} values: {same[:1]}"


def edge_floor(k, r):
    """m_min = ceil(r * u0 / k), the fewest edges an r-core can have: u0, the
    least u with C(u - 1, k - 1) >= r, is the fewest vertices it can have, and
    each of them lies in at least r of its edges."""
    u0 = next(u for u in itertools.count(k) if math.comb(u - 1, k - 1) >= r)
    return -(-r * u0 // k)


def binomial_tail(n, p, m):
    """P[Bin(n, p) >= m], summed from ``binom_pmf`` terms upward from m, not
    as 1 - cdf, which cancels at small p.  Terms more than 20 sd below the
    mean are left out: by Chernoff their mass is at most exp(-200 (1 - p)),
    below 1e-43 at p <= 0.5.  Above the mean the sum stops at the first term
    at most 1e-20 of the sum so far."""
    mean = n * p
    terms, total = [], 0.0
    for x in range(max(m, math.floor(mean - 20 * math.sqrt(mean * (1 - p)))), n + 1):
        term = binom_pmf(x, n, p)
        terms.append(term)
        total += term
        if x > mean and term <= 1e-20 * total:
            break
    return math.fsum(terms)


def edge_count_ceiling(k, r):
    """v, p -> P[Bin(C(v, k), p) >= ``edge_floor(k, r)``], a ceiling on the
    chance of a nonempty r-core at every v: each r-core has that many edges."""
    m_min = edge_floor(k, r)
    return lambda v, p: binomial_tail(math.comb(v, k), p, m_min)


# (k, r) -> (valid interleaved-lower values on the ceiling grid, the number of
# them above the edge-count ceiling, the first such (v, j, lower, ceiling))
ABOVE_CEILING = {
    (3, 2): (524, 94, (3, 0, 2.5000000062494493e-09, 0.0)),
    (3, 3): (573, 57, (3, 0, 3.7037037037026174e-14, 0.0)),
    (4, 2): (409, 74, (4, 0, 2.5000000062494493e-09, 0.0)),
    (4, 3): (475, 46, (4, 0, 3.7037037037026174e-14, 0.0)),
}


class TestEdgeCountCeiling:
    """Every r-core has at least ``edge_floor(k, r)`` edges, so P[nonempty
    r-core] <= P[Bin(C(v, k), p) >= m_min] at every v.  A valid lower value
    above that ceiling is above the truth.  The grid is the dominance scan's
    25 p at v = k..40, mostly past the desk scale of ``exact_global``."""

    def test_floor_and_tail(self):
        assert {key: edge_floor(*key) for key in ABOVE_CEILING} == {
            (3, 2): 3, (3, 3): 4, (4, 2): 3, (4, 3): 4}
        for n, p, m in [(30, 0.1, 3), (120, 1e-4, 3), (560, 0.5, 4), (1, 0.3, 3)]:
            q = fractions.Fraction(p)
            exact = sum(math.comb(n, x) * q**x * (1 - q) ** (n - x) for x in range(m, n + 1))
            assert binomial_tail(n, p, m) == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k, r", list(ABOVE_CEILING))
    def test_lower_above_ceiling_is_the_xfail_numbers(self, k, r):
        valid, above = lower_above(k, r, edge_count_ceiling(k, r))
        want_valid, count, first = ABOVE_CEILING[k, r]
        assert (valid, len(above)) == (want_valid, count)
        assert above[0] == pytest.approx(first, rel=1e-12)

    @pytest.mark.parametrize("k, r", [
        pytest.param(k, r, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            f"{count} of the {valid} valid interleaved-lower values at k={k}, r={r} on "
            f"v = {k}..40 lie above the edge-count ceiling, the first at v={v}, j={j}: "
            f"{lower!r} against {ceiling!r}")))
        for (k, r), (valid, count, (v, j, lower, ceiling)) in ABOVE_CEILING.items()])
    def test_valid_lower_not_above_ceiling(self, k, r):
        _, above = lower_above(k, r, edge_count_ceiling(k, r))
        assert not above, f"{len(above)} values, first (v, j, lower, ceiling) {above[0]}"


def at_least_one_edge(v, k, p):
    """1 - (1 - p)^C(v, k): at r = 1 a nonempty core is any edge at all."""
    return -math.expm1(math.comb(v, k) * math.log1p(-p))


# every desk (v, k) the oracle enumerates, C(v, k) <= 20, v < k included
R1_DESK = [(v, k) for k in range(2, 9) for v in range(1, 9) if math.comb(v, k) <= 20]
R1_P = (0.0, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.8, 0.99)


class TestCoreAtROne:
    """At r = 1 the chance of a nonempty core has a closed form,
    ``at_least_one_edge``, against which the oracle, Monte Carlo and the
    lower side of the bracket are read."""

    def test_exact_global_is_the_closed_form(self):
        assert len(R1_DESK) == 47
        for v, k in R1_DESK:
            for p in R1_P:
                assert exact_global(v, k, p, 1) == pytest.approx(
                    at_least_one_edge(v, k, p), rel=1e-14, abs=0.0), (v, k, p)

    # seed and trials fixed before the first run; never re-seed
    @pytest.mark.parametrize("v, trials", [(50, 2000), (200, 1000)])
    def test_mc_global_matches_the_closed_form(self, warm_kernels, v, trials):
        # an exact two-sided binomial test at level 0.001
        p = 1 / math.comb(v, 3)
        q = at_least_one_edge(v, 3, p)
        s = mc_global(v, 3, p, 1, trials, seed=28).successes
        below = math.fsum(binom_pmf(x, trials, q) for x in range(s + 1))
        above = math.fsum(binom_pmf(x, trials, q) for x in range(s, trials + 1))
        assert min(1.0, 2 * min(below, above)) >= 1e-3, (s, trials, q)

    def test_lower_above_truth_is_the_xfail_numbers(self):
        valid, above = lower_above(3, 1, lambda v, p: at_least_one_edge(v, 3, p))
        assert (valid, len(above)) == (328, 154)
        assert above[0] == pytest.approx((3, 0, 0.000100010001000089, 0.0001), rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "154 of the 328 valid interleaved-lower values at k=3, r=1 on v = 3..40 "
        "lie above the closed form 1 - (1-p)^C(v,3), the first at v=3, j=0: "
        "0.000100010001000089 against 0.0001"))
    def test_valid_lower_not_above_truth(self):
        _, above = lower_above(3, 1, lambda v, p: at_least_one_edge(v, 3, p))
        assert not above, f"{len(above)} values, first (v, j, lower, truth) {above[0]}"


def power_points(k):
    """The (u, p) points of the interleaved provider tests at edge size k."""
    return [(u, p) for u in (1, k, k + 2, 9) for p in (0.05, 0.3, 0.8)] + [
        (200, 200 / math.comb(200, 3))]


class TestProviders:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            LocalProvider("magic", 3, 0.5, 1)

    @pytest.mark.parametrize("k, p, r", [(1, 0.5, 1), (3, -0.1, 1), (3, 1.5, 1), (3, 0.5, 0)])
    def test_invalid_params(self, k, p, r):
        with pytest.raises(ValueError):
            LocalProvider("connectivity", k, p, r)

    def test_interleaving_bounds_reject_r_below_one(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            formula_value("interleaved-lower", "global", 6, 0.25, 3, 0)

    def test_one_name_space(self):
        # one set of formula method names, which sweep re-exports; the
        # provider takes those, gilbert and the oracle from one table, and no
        # bare source name
        assert tuple(local_prob.METHODS) == (*FORMULA_METHODS, "gilbert", "exact-enum")
        assert sweep.FORMULA_METHODS is FORMULA_METHODS
        assert not hasattr(sweep, "METHOD_TABLE")
        assert not hasattr(local_prob, "LOCAL_METHODS")
        assert [m for m, entry in local_prob.METHODS.items() if entry.lower] == [
            "interleaved-lower"]
        with pytest.raises(ValueError, match="^unknown local method 'interleaved'"):
            LocalProvider("interleaved", 3, 0.5, 2)

    # one route per local value: the table and the providers give
    # the same float, flag and note, and interleaved is connectivity ** r
    # exactly; u = 200 at p = 200 / C(200, 3) is in the invalid region
    def test_interleaved_is_power_of_connectivity(self):
        def fields(pv):
            return pv.value.hex(), pv.valid, pv.note

        def power(x, r):  # beyond the float range: an infinity of the power's sign
            try:
                return x**r
            except OverflowError:
                return math.copysign(math.inf, x) ** r

        for k in (2, 3, 4):
            points = power_points(k)
            for r in (1, 2, 3):
                for u, p in points:
                    conn = ConnectivityTable(k, p).prob(u)
                    inter = fields(LocalProvider("interleaved-upper", k, p, r).value(u))
                    assert fields(LocalProvider("connectivity", k, p, r).value(u)) == fields(conn)
                    assert inter == (power(conn.value, r).hex(), conn.valid, conn.note)
            assert k != 3 or not conn.valid  # the last point is invalid at k = 3

    def test_interleaved_lower_is_upper_at_p_over_r(self):
        # the provider divides p by r itself, the same IEEE division a caller
        # would make, so every value keeps its bits
        for k in (2, 3, 4):
            for r in (1, 2, 3):
                for u, p in power_points(k):
                    lower = LocalProvider("interleaved-lower", k, p, r).value(u)
                    upper = LocalProvider("interleaved-upper", k, p / r, r).value(u)
                    assert _hex(lower) == _hex(upper), (k, r, u, p)

    def test_provider_is_defined_once(self):
        # perfbench wraps the provider at its global_prob name
        assert global_prob.LocalProvider is local_prob.LocalProvider
        assert not hasattr(global_prob, "LOCAL_METHODS")
        assert not hasattr(global_prob, "METHODS")

    def test_exact_enum_matches_connectivity_semantics_gap(self):
        # at u=4, k=3, r=1 min-degree coverage equals connectivity (no room
        # for a disjoint second component), so the two providers agree
        exact = LocalProvider("exact-enum", 3, 0.5, 1)
        conn = LocalProvider("connectivity", 3, 0.5, 1)
        assert exact.value(4).value == pytest.approx(conn.value(4).value, abs=1e-12)

    def test_breakdown_at_populated(self):
        u = 150
        p = u / math.comb(u, 3)
        res = exactly_one_core(u, p, 3, 1, method="connectivity")
        assert res.breakdown_at is not None
        assert not res.exactly_one.valid

    def test_at_least_one_bound_smoke(self):
        pv = exactly_one_core(6, 0.05, 3, 2, method="covering").bound
        assert pv.valid
        assert 0.0 <= pv.value


# ---------------------------------------------------------------------------
# Pinned composition values
# ---------------------------------------------------------------------------

PINNED_PATH = Path(__file__).parent / "data" / "composition_pinned.json"


def pinned_points():
    """(label, v, p, k, r, method): the global formula points of the benchmark
    (v = 20, 50, 80 with 5v/8 expected edges, r = 2, every formula method)
    and one connectivity point far past the recursion's breakdown.  p is the
    point's own p; the labels keep the text they were first recorded under,
    when an interleaved point at p/r was labelled "interleaved at p/r"."""
    points = []
    for v in (20, 50, 80):
        p = float(f"{v * 5 / 8:g}") / math.comb(v, 3)  # as `global --e-v` resolves it
        for method in FORMULA_METHODS:
            points.append((f"v={v} {method}", v, p, 3, 2, method))
    points.append(("v=90 connectivity r=1", 90, 90 / math.comb(90, 3), 3, 1, "connectivity"))
    # other k and r, each source, and an interleaved point whose per-size
    # values leave [0, 1] on both sides while every local value is valid
    for k, r, v, overhead, method, label in (
        (2, 1, 30, 1.6, "connectivity", "connectivity"),
        (2, 3, 20, 0.625, "interleaved-upper", "interleaved"),
        (4, 1, 24, 1.0, "covering", "covering"),
        (4, 3, 20, 0.625, "connectivity", "connectivity"),
        (4, 3, 30, 1.6, "interleaved-lower", "interleaved at p/r"),
        (3, 2, 12, 0.625, "interleaved-upper", "interleaved"),
    ):
        p = v / overhead / math.comb(v, k)
        points.append((f"v={v} k={k} r={r} {label} overhead {overhead:g}", v, p, k, r, method))
    return points


TERMS_LABEL = "v=90 connectivity r=1 terms"
# (u, n) of the breakdown point whose lone and "no distinct core" terms are pinned
TERMS_AT = ((90, 90), (89, 90), (60, 90), (30, 90), (3, 90), (40, 70), (8, 12))


def _hex(pv):
    return [pv.value.hex(), pv.valid, pv.note]


def composition_snapshot(v, p, k, r, method):
    """Every composed value of one point, floats as ``float.hex``, with the
    p the local values are evaluated at (p / r for ``interleaved-lower``)."""
    res = exactly_one_core(v, p, k, r, method=method)
    return {
        "p": (p / r if method == "interleaved-lower" else p).hex(),
        "per_size": {str(u): _hex(pv) for u, pv in res.per_size.items()},
        "exactly_one": _hex(res.exactly_one),
        "bound": _hex(res.bound),
        "breakdown_at": res.breakdown_at,
    }


def terms_snapshot():
    """The lone-core and "no distinct core" terms of size u on n vertices at
    the p of the v=90 breakdown point, for each (u, n) of ``TERMS_AT``,
    floats as ``float.hex``."""
    u0 = 90
    p = u0 / math.comb(u0, 3)
    results = {n: connectivity_comp(n, p) for n in sorted({n for _, n in TERMS_AT})}
    doc = {}
    for u, n in TERMS_AT:
        doc[f"lone u={u} n={n}"] = _hex(results[n].lone_core[u])
        doc[f"rest u={u} n={n}"] = _hex(results[n].no_distinct_core[u])
    return doc


def record_pinned():
    """Rewrite the pinned file from the current code.  Only for a change that
    alters composed values on purpose:
    ``PYTHONPATH=src python3 -c "import tests.test_global_prob as t; t.record_pinned()"``"""
    doc = {label: composition_snapshot(*args) for label, *args in pinned_points()}
    doc[TERMS_LABEL] = terms_snapshot()
    PINNED_PATH.parent.mkdir(exist_ok=True)
    PINNED_PATH.write_text(json.dumps(doc, indent=1) + "\n")


class TestCompositionPinned:
    """The composition's per-size values, exactly-one total, bound, flags,
    notes and ``breakdown_at``, bit for bit as first recorded."""

    @pytest.fixture(scope="class")
    def pinned(self):
        return json.loads(PINNED_PATH.read_text())

    @pytest.mark.parametrize("label, v, p, k, r, method", pinned_points(),
                             ids=[pt[0] for pt in pinned_points()])
    def test_point(self, pinned, label, v, p, k, r, method):
        got = composition_snapshot(v, p, k, r, method)
        assert got == pinned[label]
        assert list(got["per_size"]) == list(pinned[label]["per_size"])  # descending u

    def test_terms(self, pinned):
        assert terms_snapshot() == pinned[TERMS_LABEL]

    def test_breakdown_point_has_non_finite_sizes(self, pinned):
        got = pinned["v=90 connectivity r=1"]
        values = [float.fromhex(h) for h, _, _ in got["per_size"].values()]
        assert any(math.isnan(x) for x in values) and any(math.isinf(x) for x in values)
        assert got["breakdown_at"] == 90


class TestSinglePath:
    """Every term of the result comes from the one level computation that
    composes the per-size values, and each local value is computed once."""

    @pytest.mark.parametrize("v, p, r, source", [
        (12, 0.05, 2, "covering"),
        pytest.param(30, 0.01, 2, "interleaved-upper", id="30-0.01-2-interleaved"),
        (40, 40 / math.comb(40, 3), 1, "connectivity"),  # past the breakdown
    ])
    def test_terms_match_sizes(self, v, p, r, source):
        for n in (v, v - 4):
            res = exactly_one_core(n, p, 3, r, source)
            assert list(res.per_size) == list(range(n, 2, -1))
            for u, size in res.per_size.items():
                lone, rest = res.lone_core[u], res.no_distinct_core[u]
                again = _merge(lone.value * rest.value, *_flags_notes((lone, rest)))
                assert _hex(again) == _hex(size), (n, u)

    def test_merge_takes_the_first_note(self):
        parts = [(0.1, True, None), ProbValue(0.2, False, "first"), (0.3, True, "second")]
        first = _merge(0.6, *_flags_notes(parts))
        assert _hex(first) == _hex(ProbValue(0.6, False, "first"))
        assert _hex(_merge(1.5, [True], [None])) == _hex(range_checked(1.5, True, None))
        assert _hex(_merge(0.5, [], [])) == _hex(ProbValue(0.5))

    @pytest.mark.parametrize("v", [0, -2])
    def test_vertex_count_below_one_rejected(self, v):
        # numerics.check_at_least, the check Monte Carlo and the oracles make, so they agree
        with pytest.raises(ValueError, match=rf"^v must be >= 1, got {v}$"):
            exactly_one_core(v, 0.5, 3, 2, "connectivity")

    def test_composition_guard(self, monkeypatch, capsys):
        # v above the guard is refused before any binomial row is built
        def forbidden(n):
            raise AssertionError("global_prob.binomial_row called")

        monkeypatch.setattr(global_prob, "binomial_row", forbidden)
        v = local_prob.RECURSION_GUARD + 1
        assert v == 2049
        with pytest.raises(ValueError, match="size-composition guard"):
            exactly_one_core(v, 0.5, 3, 2, method="covering")
        for argv in (["global", "--v", "2049", "--k", "3", "--e-v", "10", "--r", "2",
                      "--method", "covering"],
                     ["sweep", "--k", "3", "--r", "2", "--overhead", "5000", "--e-min", "1",
                      "--e-max", "1", "--method", "covering"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "size-composition guard" in captured.err and captured.out == ""
        # the bound itself is accepted: it reaches the (forbidden) rows
        with pytest.raises(AssertionError, match="binomial_row"):
            exactly_one_core(v - 1, 0.5, 3, 2, "covering")

    def test_binomial_row_entries_at_most_quadratic(self, monkeypatch):
        entries = 0
        original = global_prob.binomial_row

        def counted(n):
            nonlocal entries
            row = original(n)
            entries += len(row)
            return row

        monkeypatch.setattr(global_prob, "binomial_row", counted)
        v = 60
        exactly_one_core(v, 37.5 / math.comb(v, 3), 3, 2)
        assert 0 < entries <= (v + 1) * (v + 2) // 2

    @pytest.mark.parametrize("source", SOURCES)
    def test_each_local_value_computed_once(self, monkeypatch, source):
        # the provider's memo is the one cache of local values: the map the
        # entry's build returns is called once per size
        sizes = []
        entry = local_prob.METHODS[source]

        def counted_build(k, p, r):
            compute = entry.build(k, p, r)

            def counted(u):
                sizes.append(u)
                return compute(u)

            return counted

        monkeypatch.setitem(local_prob.METHODS, source, entry._replace(build=counted_build))
        v, k = 30, 3
        exactly_one_core(v, 20 / math.comb(v, k), k, 2, source)
        assert sorted(sizes) == list(range(k, v + 1))

    @pytest.mark.parametrize("source", SOURCES)
    def test_each_local_value_read_once(self, monkeypatch, source):
        # one read per size, in size order
        sizes = []
        original = LocalProvider.value

        def counted(provider, u):
            sizes.append(u)
            return original(provider, u)

        monkeypatch.setattr(LocalProvider, "value", counted)
        v, k = 30, 3
        exactly_one_core(v, 20 / math.comb(v, k), k, 2, source)
        assert sizes == list(range(k, v + 1))

    def test_rest_takes_the_first_note_and_every_flag(self, monkeypatch):
        # every local value carries its own note, so each "no distinct core"
        # triple shows which size's note and flags it took
        def noted(provider, u):
            return ProbValue(0.01, u % 3 != 0, f"size {u}")

        monkeypatch.setattr(LocalProvider, "value", noted)
        v, k = 14, 3
        res = exactly_one_core(v, 0.5, k, 2, "covering")
        for u in range(k, v - k + 1):
            sub = exactly_one_core(v - u, 0.5, k, 2, "covering").per_size
            want = _merge(1.0 - math.fsum(pv.value for pv in sub.values()),
                          *_flags_notes(sub.values()))
            assert _hex(res.no_distinct_core[u]) == _hex(want), u
            assert res.no_distinct_core[u].note == f"size {v - u}"
        assert {pv.valid for pv in res.no_distinct_core.values()} == {True, False}

    def test_enumeration_guard_names_the_smallest_refused_size(self):
        # sizes 3..6 fit the enumeration guard (C(6, 3) = 20); 7 (35 edges)
        # is the first size read that does not
        with pytest.raises(ValueError) as raised:
            exactly_one_core(8, 0.5, 3, 2, "exact-enum")
        assert str(raised.value) == "C(v, k) = 35 exceeds the enumeration guard 20"


# ---------------------------------------------------------------------------
# The size composition's level, against every factor evaluated
# ---------------------------------------------------------------------------

def _reference_level(n, k, rows, rests, local):
    """``global_prob._level`` with no factor skipped: every factor
    (1 - C_x)^C(n-u, x-u), x = u+1..n, evaluated and multiplied in ascending
    x, yielding (u, lone, per-size) triples for u = n down to k.  The pruned
    level must give the same triples bit for bit, a nan's sign aside: this
    loop multiplies a nan product by later nan factors, and which nan operand
    CPython's float multiply keeps depends on whether the interpreter runs
    its specialised multiply (it does not while a trace function is set)."""
    exp, pow_, log1p, inf = math.exp, math.pow, math.log1p, math.inf
    above_valid, above_note = True, None
    factors = []  # per size above u, largest first
    for u in range(n, k - 1, -1):
        local_value, local_valid, local_note = local[u]
        value = rows[n][u - 1] * local_value
        for e, (log1m, one_minus) in zip(rows[n - u], reversed(factors)):
            try:
                value *= exp(e * log1m) if log1m is not None else pow_(one_minus, e)
            except OverflowError:
                value *= inf
        lone = range_checked(value, local_valid and above_valid, local_note or above_note)
        rest_value, rest_valid, rest_note = rests[n - u]
        size = range_checked(lone[0] * rest_value, lone[1] and rest_valid,
                             lone[2] or rest_note)
        yield u, lone, size
        x, size_valid, size_note = size
        factors.append((log1p(-x) if x <= 0.5 else None, 1.0 - x))
        above_valid = above_valid and size_valid
        above_note = size_note or above_note


def _bits(triple):
    """A (value, valid, note) triple with the value as its 8 bytes, so that
    the sign of a zero counts too, or as "nan" for any nan: IEEE 754 does not
    interpret a nan's sign, and CSV and JSON print none."""
    value, valid, note = triple
    return "nan" if value != value else struct.pack("<d", value).hex(), valid, note


def _level_bits(level):
    return [(u, _bits(lone), _bits(size)) for u, lone, size in level]


def _assert_level_matches(n, k, rows, rests, local):
    """Run ``_level`` with and without its lone-core list, check both runs
    against the reference and return its (u, lone, per-size) triples."""
    lones = []
    values, flags, notes = _level(n, k, rows, rests, local, lones)
    got = list(zip(range(n, k - 1, -1), lones, zip(values, flags, notes)))
    want = list(_reference_level(n, k, rows, rests, local))
    assert len(lones) == len(values) and _level_bits(got) == _level_bits(want), n
    alone = _level(n, k, rows, rests, local)
    assert list(map(_bits, zip(*alone))) == [size for _, _, size in _level_bits(got)], n
    return got


class TestLevelSkipsNoBit:
    """``_level`` skips factors of exactly 1.0 and the rest of a product that
    is nan or a zero no later factor can change.  Each level it returns
    equals the reference's: value bytes (any nan as nan), flags and notes."""

    @pytest.fixture
    def checked_levels(self, monkeypatch):
        """Route the composition through a ``_level`` that checks every level
        against the reference; returns the list of level sizes checked."""
        checked = []

        def level(n, k, rows, rests, local, lone=None):
            got = _assert_level_matches(n, k, rows, rests, local)
            checked.append(n)
            if lone is not None:
                lone.extend(lone_triple for _, lone_triple, _ in got)
            sizes = [size for _, _, size in got]
            return [s[0] for s in sizes], [s[1] for s in sizes], [s[2] for s in sizes]

        monkeypatch.setattr(global_prob, "_level", level)
        return checked

    def _compose(self, checked, v, p, k, r, source):
        exactly_one_core(v, p, k, r, source)
        assert checked == [*range(v - k + 1), v]  # every level of the composition

    @pytest.mark.parametrize("label, v, p, k, r, method", pinned_points(),
                             ids=[pt[0] for pt in pinned_points()])
    def test_pinned_points(self, checked_levels, label, v, p, k, r, method):
        self._compose(checked_levels, v, p, k, r, method)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("overhead", [1.222, 3.0])
    @pytest.mark.parametrize("v", [150, 200])
    def test_larger_instances(self, checked_levels, v, overhead, source):
        self._compose(checked_levels, v, v / overhead / math.comb(v, 3), 3, 2, source)

    # local and "no distinct core" values a synthetic level draws from: the
    # range's ends and what lies outside it, next to ordinary values
    SPECIAL = [0.0, -0.0, 1.0, -1e-3, -2.5, 1.5, 1e300, math.inf, -math.inf, math.nan,
               5e-324, 0.75]
    ORDINARY = [1e-12, 1e-6, 0.01, 0.2, 0.5]

    def _synthetic(self, rng, n, k, rows):
        """Feed ``_level`` made-up local and "no distinct core" values, some
        invalid, with notes, over the rows given; compare with the reference."""
        def draw():
            return rng.choice(self.SPECIAL if rng.random() < 0.3 else self.ORDINARY)

        local = {u: range_checked(draw(), rng.random() < 0.9, None) for u in range(k, n + 1)}
        rests = [range_checked(draw() if rng.random() < 0.3 else 1.0, True,
                               rng.choice([None, f"rest {m}"])) for m in range(n - k + 1)]
        _assert_level_matches(n, k, rows, rests, local)

    def _synthetic_batch(self, on_scale=lambda scale: None):
        # binomial rows scaled by a whole number keep C(n-u, x-u) <= C(n, x),
        # which the level relies on; x 1e3 makes exponents large enough to
        # underflow exp, x 1e306 puts inf in the larger rows
        rng = random.Random(3601)
        exact = [binomial_row(m)[1:] for m in range(17)]
        for scale in (1.0, 1e3, 1e306):
            on_scale(scale)
            rows = [[c * scale for c in row] for row in exact]
            assert (scale == 1e306) == any(math.isinf(c) for c in rows[16])
            for _ in range(400):
                k = rng.randint(2, 4)
                self._synthetic(rng, rng.randint(k, 16), k, rows)

    def test_synthetic_levels(self, monkeypatch):
        # the x 1e3 rows still give _level's exp arguments that underflow
        # to +0.0, so the batch compares those products with the reference
        scales, under = [], []
        exp = math.exp

        def recorded(y):
            out = exp(y)
            if sys._getframe(1).f_code is _level.__code__ and y < -745.2 and scales[-1] == 1e3:
                under.append(out)
            return out

        monkeypatch.setattr(math, "exp", recorded)
        self._synthetic_batch(on_scale=scales.append)
        assert under and all(out == 0.0 and math.copysign(1.0, out) == 1.0 for out in under)

    def test_synthetic_levels_traced(self):
        # with a trace function set (coverage tools, debuggers) CPython runs
        # its generic float multiply, whose nan * nan may keep the other nan
        # than the specialised multiply keeps: the batch must not depend on
        # the sign of a nan
        traced = {_level.__code__, _reference_level.__code__}

        def tracer(frame, event, arg):
            return tracer if frame.f_code in traced else None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            self._synthetic_batch()
        finally:
            sys.settrace(previous)

    def test_zero_local_starts_a_product(self):
        # a zero local value (of either sign) makes a zero product from the
        # start, ahead of tame, wild and non-finite sizes above it
        n, k = 12, 2
        rows = [binomial_row(m)[1:] for m in range(n + 1)]
        rests = [(1.0, True, None)] * (n - k + 1)
        for above in (0.3, 1.5, -0.5, math.nan, math.inf):
            for zero in (0.0, -0.0):
                local = {u: (zero if u < 8 else above, True, None) for u in range(k, n + 1)}
                got = _assert_level_matches(n, k, rows, rests, local)
                assert all(lone[0] == 0 or lone[0] != lone[0] for u, lone, _ in got if u < 8)

    def test_range_rule_at_the_tolerance(self):
        # the lone-core and per-size values of a one-size level, at and just
        # past both ends of [-PROB_TOL, 1 + PROB_TOL]; the per-size value is
        # 0.5 times a doubled end (exact), so it sits at the end too
        ends = [-PROB_TOL, math.nextafter(-PROB_TOL, -1.0), 1.0 + PROB_TOL,
                math.nextafter(1.0 + PROB_TOL, 2.0), -PROB_TOL / 2, 1.0 + PROB_TOL / 2]
        rows = [binomial_row(m)[1:] for m in range(3)]
        flags = set()
        for local, rest in [*((end, 1.0) for end in ends), *((0.5, 2 * end) for end in ends)]:
            for note in (None, "local note"):
                got = _assert_level_matches(2, 2, rows, [(rest, True, None)],
                                            {2: (local, True, note)})
                flags |= {(got[0][1][1], got[0][2][1])}
        assert flags == {(True, True), (False, False), (True, False)}

    def test_rows_past_double_range(self):
        # level 1040 reads rows past 1029, which hold inf.  A size whose
        # C(n, x) is inf has C_x inf or nan, so the zero sizes left out and
        # the [0, 1] sizes a zero product passes meet finite exponents only
        n, k = 1040, 3
        rows = [binomial_row(m)[1:] for m in range(n + 1)]
        rests = [(1.0, True, None)] * (n - k + 1)
        local = {u: ((0.0, -0.0, 1e-300, 0.4)[u % 4], True, None) for u in range(k, n + 1)}
        got = _assert_level_matches(n, k, rows, rests, local)
        sizes = {u: size[0] for u, _, size in got}
        assert any(c == 0 for c in sizes.values()) and any(c != c for c in sizes.values())
        assert all(math.isfinite(rows[n][x - 1]) for x, c in sizes.items() if 0.0 <= c <= 1.0)
        assert any(math.isinf(rows[n][x - 1]) for x in sizes)
