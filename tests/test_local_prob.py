import functools
import math
import re
import sys
from fractions import Fraction

import pytest

from corebound import local_prob
from corebound import (
    ConnectivityTable,
    LocalProvider,
    binom_pmf,
    choose,
    covering_prob,
    exact_local,
    gilbert_prob,
)
from corebound.numerics import count_text, range_checked, scaled_power, stable_sum
from conftest import connected_prob_oracle, cross_edge_count


class TestCrossEdgeCount:
    def test_examples(self):
        assert cross_edge_count(4, 2, 3) == 4
        assert cross_edge_count(5, 2, 2) == 6  # reduces to i*(u-i)
        assert cross_edge_count(6, 3, 3) == 18  # C(6,3) - 2*C(3,3)

    def test_range_check(self):
        with pytest.raises(ValueError):
            cross_edge_count(4, 0, 3)
        with pytest.raises(ValueError):
            cross_edge_count(4, 4, 3)

    def test_complement_identity(self):
        # crossing edges = all edges minus the ones inside either part
        for k in range(2, 6):
            for u in range(2, 31):
                for i in range(1, u):
                    expected = choose(u, k) - choose(i, k) - choose(u - i, k)
                    assert cross_edge_count(u, i, k) == expected

    def test_k2_matches_product(self):
        for u in range(2, 13):
            for i in range(1, u):
                assert cross_edge_count(u, i, 2) == i * (u - i)


# u -> (first invalid u, the value there as repr) of ConnectivityTable(3, u / C(u, 3)):
# u = 90..140 and the criterion-4 point u = 200
SCAN_FIRST_INVALID = {
    90: (33, "-2.503206530946045e-09"), 91: (34, "-1.1656424714345803e-09"),
    92: (33, "-1.6829935223228176e-09"), 93: (34, "-2.3056752063155272e-09"),
    94: (34, "-1.0161314012435696e-09"), 95: (34, "-1.3451042502055088e-09"),
    96: (31, "-1.7836667698389874e-09"), 97: (32, "-2.797469811355313e-09"),
    98: (32, "-2.0909185494133453e-09"), 99: (33, "-2.843961510734516e-09"),
    100: (30, "-1.4304522011343579e-09"), 101: (34, "-1.0760643487373045e-09"),
    102: (31, "-1.8366539400460624e-09"), 103: (35, "-5.617790455048066e-09"),
    104: (32, "-3.0347759860660517e-09"), 105: (29, "-1.289883533317493e-09"),
    106: (35, "-8.903032311380343e-09"), 107: (31, "-3.1503712971669984e-09"),
    108: (29, "-1.896333090556368e-09"), 109: (31, "-1.3298997458832673e-09"),
    110: (34, "-1.33865851736914e-09"), 111: (30, "-1.973334384786085e-09"),
    112: (31, "-2.883263183761642e-09"), 113: (30, "-1.3368062212748555e-09"),
    114: (32, "-3.342195853406338e-09"), 115: (29, "-1.909570057634369e-09"),
    116: (31, "-1.9391628303111474e-09"), 117: (30, "-2.322572578705717e-09"),
    118: (29, "-1.9837498310693036e-09"), 119: (32, "-1.1498959562317168e-09"),
    120: (31, "-1.2082537192981135e-09"), 121: (31, "-3.4803759874080242e-09"),
    122: (31, "-1.3688941091771767e-09"), 123: (29, "-1.0368310654484958e-09"),
    124: (32, "-2.387072761678155e-09"), 125: (31, "-3.1365536834471186e-09"),
    126: (31, "-4.514754570195123e-09"), 127: (28, "-1.3445757840457873e-09"),
    128: (29, "-1.9722721233961238e-09"), 129: (29, "-1.6038963490672131e-09"),
    130: (30, "-2.8172382204871838e-09"), 131: (32, "-3.7084628701222755e-09"),
    132: (32, "-3.960527683588566e-09"), 133: (29, "-2.500890827761282e-09"),
    134: (30, "-2.451682634685426e-09"), 135: (32, "-2.7088244980433274e-09"),
    136: (31, "-1.0454810350779553e-09"), 137: (29, "-2.2449719860873074e-09"),
    138: (31, "-5.185242679672797e-09"), 139: (33, "-2.4397543985088532e-09"),
    140: (27, "-1.296571072728625e-09"), 200: (29, "-2.986407787730627e-09"),
}


class TestConnectivityProb:
    def test_base_cases(self):
        assert ConnectivityTable(3, 0.9).prob(1).value == 1.0
        assert ConnectivityTable(3, 0.9).prob(2).value == 0.0  # below edge size
        # below the edge size every crossing count is 0: the recursion itself gives 0.0
        for k in (3, 5, 7):
            for p in (0.0, 1e-300, 0.3, 0.5, 1.0):
                table = ConnectivityTable(k, p)
                for u in range(2, k):
                    assert table.prob(u) == (0.0, True, None), (k, p, u)
                    assert math.copysign(1.0, table.prob(u).value) == 1.0, (k, p, u)

    def test_single_edge_case(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            assert ConnectivityTable(3, p).prob(3).value == pytest.approx(p, abs=1e-15)

    def test_pinned_value(self):
        assert ConnectivityTable(3, 0.5).prob(4).value == pytest.approx(0.6875, abs=1e-12)

    def test_k2_small(self):
        assert ConnectivityTable(2, 0.5).prob(3).value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k,u", [(3, 3), (3, 4), (3, 5), (2, 3), (2, 4), (2, 5)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_enumeration_oracle(self, k, u, p):
        oracle = connected_prob_oracle(u, k, p)
        assert ConnectivityTable(k, p).prob(u).value == pytest.approx(oracle, abs=1e-9)

    def test_endpoints(self):
        for u in range(2, 9):
            assert ConnectivityTable(3, 0.0).prob(u).value == 0.0
            if u >= 3:
                assert ConnectivityTable(3, 1.0).prob(u).value == 1.0

    def test_breakdown_flagged_at_scale(self):
        # sparse large instance: the alternating sum cancels catastrophically
        u = 200
        p = u / choose(u, 3)
        pv = ConnectivityTable(3, p).prob(u)
        assert not pv.valid
        assert pv.note

    def test_invalidity_is_sticky(self):
        u = 200
        p = u / choose(u, 3)
        table = ConnectivityTable(3, p)
        table.prob(u)
        first = table.first_invalid
        assert first is not None and first < u
        assert not table.prob(first).valid
        assert not table.prob(u).valid
        assert table.prob(first - 1).valid

    def test_first_invalid_and_note_along_the_scan(self):
        # the overhead-1.0 scan p = u / C(u, 3): for each u, the first size
        # whose value left [0, 1], and that value as the note prints it
        for u, (first, value) in SCAN_FIRST_INVALID.items():
            table = ConnectivityTable(3, u / choose(u, 3))
            pv = table.prob(u)
            assert table.first_invalid == first, u
            assert (pv.valid, pv.note) == (False, f"recursion left [0, 1] at u={first} (value {value})")

    def test_crossing_count_past_double_range(self):
        # eps(1030, 515) = C(1030, 515) - 2 is past the double range, every
        # weight C(1029, i - 1) is not; with no edge at p = 0 the 1030
        # vertices are not connected (p = 1 is a CLI pin: 1.0, valid)
        with pytest.raises(OverflowError):
            float(cross_edge_count(1030, 515, 515))
        assert ConnectivityTable(515, 0.0).prob(1030) == (0.0, True, None)

    def test_eps_past_double_is_the_least_int_float_rejects(self):
        # float() rejects every int from here on; scaled_power takes them
        # and continues the recursion's inline factor exp(e * log1p(-p))
        limit = 2**1024 - 2**970
        assert float(limit - 1) == math.nextafter(math.inf, 0.0)
        with pytest.raises(OverflowError):
            float(limit)
        for p in (1e-320, 1e-310):
            inline = math.exp((limit - 1) * math.log1p(-p))
            assert 0.0 < inline < 1.0
            assert scaled_power(1.0, 0.0, p, limit) == pytest.approx(inline, rel=1e-15)
            assert scaled_power(1.0, 0.0, p, limit - 1) == inline

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-320, 1e-310, 1e-300, 0.3, 0.4999])
    def test_far_factor_matches_the_exact_product(self, p):
        # the factor of an eps past the double range: exp(e * log1p(-p)) with
        # the product taken exactly, then rounded once
        e, log1m = cross_edge_count(1030, 515, 515), math.log1p(-p)
        try:
            want = math.exp(float(e * Fraction(log1m)))
        except OverflowError:
            want = 0.0
        assert scaled_power(1.0, 0.0, p, e) == pytest.approx(want, rel=1e-15)
        assert (want == 0.0) == (p >= 1e-300)

    @pytest.mark.parametrize("k, u", [(2, 485), (3, 460), (4, 441)])
    def test_cancelling_infinite_terms_are_flagged(self, k, u):
        # along the scan p = u / C(u, k) this u is the first whose terms hold
        # both +inf and -inf: the sum is nan, flagged, and nothing raises
        pv = ConnectivityTable(k, u / choose(u, k)).prob(u)
        assert math.isnan(pv.value) and not pv.valid

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ConnectivityTable(3, 0.5).prob(0)
        with pytest.raises(ValueError):
            ConnectivityTable(3, -0.1).prob(4)

    def test_size_past_guard_is_refused(self):
        # the composition refuses v past the same guard, so no size a
        # composition reads is refused; the refusal comes before any row is built
        assert local_prob.RECURSION_GUARD == 2**11
        table = ConnectivityTable(3, 0.001)
        for u in (2049, 10**40):
            with pytest.raises(ValueError, match=re.escape(f"u = {count_text(u)} exceeds the "
                                                           "local-recursion guard 2048")):
                table.prob(u)
            with pytest.raises(ValueError, match="local-recursion guard 2048$"):
                gilbert_prob(u, 0.001)
        assert len(table._values) == 2  # index 0 and u = 1 only


def _float_or_inf(n: int) -> float:
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _reference_probs(k: int, p: float, u_max: int) -> list[tuple]:
    """(hex value, valid, note, first invalid u) for u = 1..u_max, term by
    term from the definition: value(u) = 1 - sum_i value(i) * C(u-1, i-1) *
    (1-p)^eps(u, i), each term (value * weight) * factor, where the factor is
    0.0 at p = 1, else 1 - p at eps = 1, else exp(eps * log1p(-p)) below
    p = 0.5, else pow(1 - p, eps)."""
    values = [math.nan, 1.0]
    first_invalid = note = None
    out = [(float.hex(1.0), True, None, None)]
    for u in range(2, u_max + 1):
        if u < k:
            value = 0.0
        else:
            terms = []
            for i in range(1, u):
                eps = cross_edge_count(u, i, k)
                if p == 1.0:
                    factor = 0.0
                elif eps == 1:
                    factor = 1.0 - p
                elif p < 0.5:
                    factor = math.exp(eps * math.log1p(-p))
                else:
                    factor = math.pow(1.0 - p, eps)
                terms.append(values[i] * _float_or_inf(math.comb(u - 1, i - 1)) * factor)
            value = 1.0 - stable_sum(terms)
            if first_invalid is None and not range_checked(value, True, None)[1]:
                first_invalid = u
                note = f"recursion left [0, 1] at u={u} (value {value!r})"
        values.append(value)
        broken = first_invalid is not None
        out.append((float.hex(value), not broken, note if broken else None, first_invalid))
    return out


def _table_probs(table: ConnectivityTable, u_max: int) -> list[tuple]:
    return [(float.hex(pv.value), pv.valid, pv.note, None if pv.valid else table.first_invalid)
            for pv in map(table.prob, range(1, u_max + 1))]


class TestRecursionBits:
    """The table's floats, flags and notes, bit for bit, against the
    definition evaluated term by term."""

    @pytest.mark.parametrize("p", [0.001, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_the_definition(self, k, p):
        assert _table_probs(ConnectivityTable(k, p), 40) == _reference_probs(k, p, 40)

    def test_overhead_one_scan_past_its_breakdown(self):
        # p = u / C(u, 3) from u = 4 (p = 1); the first point flagged invalid is u = 83
        broken = []
        for u in range(4, 91):
            p = u / choose(u, 3)
            got = _table_probs(ConnectivityTable(3, p), u)[-1]
            assert got == _reference_probs(3, p, u)[-1], u
            if not got[1]:
                broken.append(u)
        assert broken[0] == 83


class TestRowStore:
    """The p-free rows that every ConnectivityTable reads from one store."""

    def test_interleaved_tables_match_the_definition(self):
        local_prob._ROWS.clear()
        a, b, c = ConnectivityTable(3, 0.3), ConnectivityTable(3, 0.7), ConnectivityTable(2, 0.01)
        a.prob(30)
        c.prob(45)
        b.prob(50)
        a.prob(60)
        for table, u_max in ((a, 60), (b, 50), (c, 45)):
            fresh = ConnectivityTable(table.k, table.p)
            assert _table_probs(table, u_max) == _table_probs(fresh, u_max)
            assert _table_probs(table, u_max) == _reference_probs(table.k, table.p, u_max)

    def test_rows_are_tuples(self):
        ConnectivityTable(3, 0.2).prob(20)
        for k, u in [(3, 3), (3, 4), (3, 20)]:
            weights, exponents = local_prob._ROWS[k, u]
            assert type(weights) is tuple and type(exponents) is tuple
            assert len(weights) == u - 1 and len(exponents) == u // 2

    def test_row_past_double_range_holds_no_int_weight(self):
        # a row past the double range holds no weights at all, and its
        # exponents, like every row's, are exact ints.  (2, 1031) is past it
        # by its middle weight C(1030, 515) alone, (515, 1030) by its largest
        # exponent C(1030, 515) - 2 alone
        big = sys.float_info.max
        for k, u, weight_in_range, exponent_in_range in [(2, 1029, True, True),
                                                         (2, 1030, True, True),
                                                         (2, 1031, False, True),
                                                         (515, 1030, True, False)]:
            weights, exponents = local_prob._recursion_row(k, u)
            assert (math.comb(u - 1, (u - 1) // 2) <= big) == weight_in_range, (k, u)
            assert (max(exponents) <= big) == exponent_in_range, (k, u)
            assert {type(e) for e in exponents} == {int}
            if weight_in_range and exponent_in_range:
                assert {type(w) for w in weights} == {float} and max(weights) < math.inf
            else:
                assert weights is None, (k, u)

    def test_store_keeps_nothing_above_its_bound(self):
        # the non-finite case builds rows to u = 1031, past the bound; rows
        # below k are built too, as the recursion runs from u = 2
        local_prob._ROWS.clear()
        ConnectivityTable(3, 1.0).prob(1031)
        bound = local_prob._ROW_STORE_MAX
        assert sorted(local_prob._ROWS) == [(3, u) for u in range(2, bound + 1)]

    def test_rows_past_double_range_share_one_lgamma_list(self, monkeypatch):
        # a table past the double range calls lgamma once per size, not per term
        calls = []

        def counted(x, lgamma=math.lgamma):
            calls.append(x)
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counted)
        assert ConnectivityTable(2, 0.5).prob(1100) == (1.0, True, None)
        assert 0 < len(calls) <= 1101


PAST_DOUBLE_P = (0.0, 1e-300, 0.3, 0.5, 1.0)


class TestPastDoubleRange:
    """The local methods round C(1030, 515), the first recursion weight past
    the double range: nothing raises, and no value is flagged valid above a
    size its table flags.  The recursion runs u in {1029, 1030, 1031} at
    k in {2, 3}: at k = u // 2 and at u = 2048 a table takes 2-3 s, so
    those are left to the CLI pins (u = 1030, k = 515, p = 1 and u = 2048,
    k = 2, p = 0.5).  Covering runs the whole grid."""

    @pytest.mark.parametrize("p", PAST_DOUBLE_P)
    @pytest.mark.parametrize("k", [2, 3])
    def test_recursion(self, k, p):
        provider = LocalProvider("interleaved", k, p, 2)
        table = provider._table  # the connectivity table the source squares
        for u in (1029, 1030, 1031):
            conn = table.prob(u)
            assert conn == (0.0 if p < 1e-299 else 1.0, True, None), u
            assert all(table.prob(x).valid for x in range(1, u))
            assert provider.value(u) == (conn.value**2, True, None)

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_sizes_below_k_past_double_range(self, p):
        # at k = 1032 row 1031 lies past the double range with every crossing
        # count 0, so its factors (1 - p)^0 must read 1, at p = 1 too
        table = ConnectivityTable(1032, p)
        assert table.prob(1031) == (0.0, True, None)
        assert all(table.prob(u) == (0.0, True, None) for u in range(2, 1031))

    @pytest.mark.parametrize("p", PAST_DOUBLE_P)
    def test_covering(self, p):
        from corebound.local_prob import COVERING_TERM_GUARD

        for u in (1029, 1030, 1031, 2048):
            for k in (2, 3, u // 2):
                pv = covering_prob(u, k, p, 2)
                m = choose(u, k)
                refused = 0.0 < p < 1.0 and (m > sys.float_info.max or 18**2 * m * Fraction(p)
                                               * (1 - Fraction(p)) > COVERING_TERM_GUARD**2)
                if refused:
                    assert math.isnan(pv.value) and not pv.valid, (u, k)
                    assert pv.note.startswith("covering sum refused: "), (u, k)
                else:
                    assert pv.valid and -1e-12 <= pv.value <= 1.0 + 1e-12, (u, k)
                assert refused or k < 4 or p not in (0.3, 0.5), (u, k)  # the guard binds at u // 2


class TestGilbert:
    def test_base_and_single_edge(self):
        assert gilbert_prob(1, 0.9).value == 1.0
        for p in (0.1, 0.6):
            assert gilbert_prob(2, p).value == pytest.approx(p, abs=1e-15)

    def test_three_vertices(self):
        assert gilbert_prob(3, 0.5).value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_matches_general_recursion(self, p):
        table = ConnectivityTable(2, p)
        for u in range(1, 13):
            assert gilbert_prob(u, p).value == pytest.approx(
                table.prob(u).value, abs=1e-12
            )

    def test_binomial_overflow_is_flagged(self):
        # C(1030, 515) is the first binomial weight above the double range
        pv = gilbert_prob(1031, 0.002)
        assert math.isnan(pv.value) and not pv.valid


def _binom_cdf(x, n, p):
    """P[X <= x] for X ~ Binomial(n, p), the reference sum of pmf terms."""
    return math.fsum(binom_pmf(j, n, p) for j in range(max(x + 1, 0))) if x < n else 1.0


class TestCovering:
    def test_trivial(self):
        assert covering_prob(3, 3, 0.0, 1).value == 0.0
        assert covering_prob(3, 3, 1.0, 1).value == 1.0
        assert covering_prob(2, 3, 0.9, 1).value == 0.0  # subset below edge size

    def test_single_edge_needs_two(self):
        assert covering_prob(3, 3, 1.0, 2).value == 0.0

    # the same message as ConnectivityTable.prob, after the (k, p, r) check
    @pytest.mark.parametrize("u", [0, -3])
    def test_subset_size_below_one_rejected(self, u):
        with pytest.raises(ValueError, match=f"^u must be >= 1, got {u}$"):
            covering_prob(u, 3, 0.5, 1)
        with pytest.raises(ValueError, match="^p must lie"):
            covering_prob(u, 3, 1.5, 1)

    def test_monotone_in_p(self):
        for (u, k, r) in [(6, 3, 1), (8, 3, 2), (6, 4, 2)]:
            vals = [covering_prob(u, k, p, r).value for p in (0.05, 0.1, 0.3, 0.6, 0.9)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_increasing_in_r(self):
        for (u, k, p) in [(6, 3, 0.4), (8, 3, 0.2), (7, 4, 0.3)]:
            vals = [covering_prob(u, k, p, r).value for r in (1, 2, 3, 4)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_always_in_unit_interval(self):
        for u in (3, 5, 20, 100, 200):
            for p_scale in (0.5, 1.0, 2.0):
                p = min(1.0, p_scale * u / choose(u, 3))
                pv = covering_prob(u, 3, p, 2)
                assert pv.valid
                assert -1e-12 <= pv.value <= 1.0 + 1e-12

    def test_large_instance_stays_stable(self):
        # the connectivity recursion breaks here; the covering sum must not
        u = 200
        p = u / choose(u, 3)
        pv = covering_prob(u, 3, p, 1)
        assert pv.valid
        assert 0.0 <= pv.value <= 1.0

    def test_coverage_factor_with_cdf_rounded_to_one(self):
        # these cdfs round to 1.0000000000000002, and the last to 1.0: the
        # per-vertex value is then -2.2e-16 or 0.0, and the factor 0.0, not
        # the positive (-2.2e-16)**u of an even u
        from corebound.local_prob import _coverage_factor

        for e, u, r, q in [(3, 4, 3, 1e-7), (5, 10, 2, 1e-9), (2, 3, 2, 1e-9)]:
            assert _coverage_factor(e, u, r, q) == 0.0

    def test_coverage_factor_matches_cdf_primitive(self):
        from corebound.local_prob import _coverage_factor

        for e in (0, 1, 5, 40, 300):
            for u, r in [(6, 1), (6, 2), (20, 3)]:
                q = 3 / u
                expected = (1.0 - _binom_cdf(r - 1, e, q)) ** u
                assert _coverage_factor(e, u, r, q) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_windowed_sum_matches_direct(self):
        # the outer sum keeps every edge count whose pmf is at least
        # COVERING_PMF_CUTOFF and nothing else.  At u=200, p = u / C(u, k) the
        # terms cluster round the mean, so the sum matches the full support.
        # At the sparse points the largest terms lie many sd above the mean
        # edge count (0.01 or 1), where the coverage factor grows fastest.
        from corebound.local_prob import COVERING_PMF_CUTOFF

        def term(e, u, k, m, p, r):
            return binom_pmf(e, m, p) * (1.0 - _binom_cdf(r - 1, e, k / u)) ** u

        u, k, r = 200, 3, 1
        m = choose(u, k)
        p = u / m
        direct = math.fsum(
            term(e, u, k, m, p, r)
            for e in range(0, 600)  # pmf beyond 600 edges is < 1e-100 here
        )
        assert covering_prob(u, k, p, r).value == pytest.approx(direct, rel=1e-9)

        u = 183
        m = choose(u, k)
        for e_u, r in [(0.01, 1), (1, 1), (1, 2)]:
            p = e_u / m
            direct = math.fsum(term(e, u, k, m, p, r) for e in range(0, 600)
                               if binom_pmf(e, m, p) >= COVERING_PMF_CUTOFF)
            assert covering_prob(u, k, p, r).value == pytest.approx(direct, rel=1e-9, abs=0.0)


def _interleaved(u, k, p, r):
    return LocalProvider("interleaved", k, p, r).value(u)


class TestInterleavedLocal:
    def test_power_of_single_edge(self):
        assert _interleaved(3, 3, 0.5, 2).value == pytest.approx(0.25, abs=1e-15)

    def test_r1_identity(self):
        for u in (1, 3, 4, 6):
            assert _interleaved(u, 3, 0.35, 1).value == ConnectivityTable(3, 0.35).prob(u).value

    def test_pinned_square(self):
        assert _interleaved(4, 3, 0.5, 2).value == pytest.approx(0.47265625, abs=1e-12)

    def test_validity_propagates(self):
        u = 200
        p = u / choose(u, 3)
        assert not _interleaved(u, 3, p, 2).valid

    def test_power_beyond_float_range_is_infinite(self):
        # at k = 2 the broken recursion reaches -2.2e112 at u = 200, whose
        # cube leaves the float range: the value is -inf, flagged like its base
        p = 200 / choose(200, 3)
        base = ConnectivityTable(2, p).prob(200)
        cube = _interleaved(200, 2, p, 3)
        assert base.value < -1e100 and not base.valid
        assert (cube.value, cube.valid, cube.note) == (-math.inf, False, base.note)
        assert _interleaved(200, 2, p, 4).value == math.inf


# The desk grid of the local bracket: every k <= u <= 8 with C(u, k) <= 20,
# so exact_local enumerates it, at r = 1..3 and seven p.
BRACKET_GRID = [(k, u, r, p) for k in range(2, 6) for u in range(k, 9) if choose(u, k) <= 20
                for r in (1, 2, 3) for p in (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)]


@functools.cache
def _bracket_rows():
    """(k, u, r, p, lower, upper, exact) per grid row: the interleaved source
    at p / r and at p against ``exact_local``."""
    rows = []
    for k, u, r, p in BRACKET_GRID:
        lower, upper = _interleaved(u, k, p / r, r), _interleaved(u, k, p, r)
        assert lower.valid and upper.valid  # every row is flagged valid
        rows.append((k, u, r, p, lower.value, upper.value, exact_local(u, k, p, r)))
    return rows


def _lower_above_exact():
    return [row for row in _bracket_rows() if row[4] > row[6] + 1e-12]


def _upper_below_exact():
    return [row for row in _bracket_rows() if row[5] < row[6] - 1e-12]


class TestLocalBracketAudit:
    """The interleaved source at p / r and at p against the local truth,
    ``exact_local`` (every one of the u vertices in at least r edges).  Both
    sides are flagged valid on the whole grid, and each side is crossed on
    some rows: the two strict xfails carry those rows' numbers."""

    def test_grid_checks_rows(self):
        # a check over zero rows tests nothing
        rows = _bracket_rows()
        assert len(rows) == 294
        # the truth is 0 exactly where no vertex can lie in r of the
        # C(u - 1, k - 1) edges through it, and only there does the lower
        # side cross it
        assert {row[:4] for row in rows if row[6] == 0.0} == {
            (k, u, r, p) for k, u, r, p in BRACKET_GRID if choose(u - 1, k - 1) < r}
        assert all(exact == 0.0 for *_, exact in _lower_above_exact())

    def test_crossed_rows_are_the_xfail_numbers(self):
        # the counts and example rows the two strict xfails below carry
        lower, upper = _lower_above_exact(), _upper_below_exact()
        assert (len(lower), len(upper)) == (63, 34)
        assert (2, 2, 2, 0.5, 0.0625, 0.25, 0.0) in lower
        upper = {row[:4]: row[5:] for row in upper}  # (upper, exact) by (k, u, r, p)
        assert upper[3, 4, 2, 0.1] == pytest.approx((0.0027353, 0.0037), abs=5e-8)
        assert upper[2, 4, 1, 0.5] == pytest.approx((0.59375, 0.640625), abs=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "63 of the 294 grid rows have a valid interleaved-lower value above "
        "exact_local, every one where exact_local is 0 (C(u-1, k-1) < r): "
        "k=2, u=2, r=2, p=0.5 gives 0.0625 against 0.0"))
    def test_valid_lower_not_above_exact(self):
        rows = _lower_above_exact()
        assert not rows, f"{len(rows)} rows, first (k, u, r, p, lower, upper, exact) {rows[0]}"

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "34 of the 294 grid rows have a valid interleaved-upper value below "
        "exact_local: k=3, u=4, r=2, p=0.1 gives 0.0027353 against 0.0037; "
        "k=2, u=4, r=1, p=0.5 gives 0.59375 against 0.640625"))
    def test_valid_upper_not_below_exact(self):
        rows = _upper_below_exact()
        assert not rows, f"{len(rows)} rows, first (k, u, r, p, lower, upper, exact) {rows[0]}"
