import math

import pytest

from corebound import (
    ConnectivityTable,
    choose,
    connectivity_prob,
    covering_prob,
    cross_edge_count,
    gilbert_prob,
    interleaved_local_prob,
)
from conftest import connected_prob_oracle


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
        assert connectivity_prob(1, 3, 0.9).value == 1.0
        assert connectivity_prob(2, 3, 0.9).value == 0.0  # below edge size

    def test_single_edge_case(self):
        for p in (0.0, 0.25, 0.5, 1.0):
            assert connectivity_prob(3, 3, p).value == pytest.approx(p, abs=1e-15)

    def test_pinned_value(self):
        assert connectivity_prob(4, 3, 0.5).value == pytest.approx(0.6875, abs=1e-12)

    def test_k2_small(self):
        assert connectivity_prob(3, 2, 0.5).value == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k,u", [(3, 3), (3, 4), (3, 5), (2, 3), (2, 4), (2, 5)])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_enumeration_oracle(self, k, u, p):
        oracle = connected_prob_oracle(u, k, p)
        assert connectivity_prob(u, k, p).value == pytest.approx(oracle, abs=1e-9)

    def test_endpoints(self):
        for u in range(2, 9):
            assert connectivity_prob(u, 3, 0.0).value == 0.0
            if u >= 3:
                assert connectivity_prob(u, 3, 1.0).value == 1.0

    def test_breakdown_flagged_at_scale(self):
        # sparse large instance: the alternating sum cancels catastrophically
        u = 200
        p = u / choose(u, 3)
        pv = connectivity_prob(u, 3, p)
        assert not pv.valid
        assert pv.note

    def test_invalidity_is_sticky(self):
        u = 200
        p = u / choose(u, 3)
        table = ConnectivityTable(3, p)
        table.value(u)
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

    def test_non_finite_note_comes_first(self):
        # at p = 1 every value is 1.0 until C(u-1, i-1) overflows a double at
        # u = 1031; there the value is nan, which is also outside [0, 1]
        table = ConnectivityTable(3, 1.0)
        assert table.value(1030) == 1.0 and table.first_invalid is None
        pv = table.prob(1031)
        assert math.isnan(pv.value)
        assert table.first_invalid == 1031
        assert (pv.valid, pv.note) == (False, "non-finite term in the recursion at u=1031")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            connectivity_prob(0, 3, 0.5)
        with pytest.raises(ValueError):
            connectivity_prob(4, 3, -0.1)


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
                table.value(u), abs=1e-12
            )


class TestCovering:
    def test_trivial(self):
        assert covering_prob(3, 3, 0.0, 1).value == 0.0
        assert covering_prob(3, 3, 1.0, 1).value == 1.0
        assert covering_prob(2, 3, 0.9, 1).value == 0.0  # subset below edge size

    def test_single_edge_needs_two(self):
        assert covering_prob(3, 3, 1.0, 2).value == 0.0

    # the same message as connectivity_prob, after the (k, p, r) check
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

    def test_coverage_factor_matches_cdf_primitive(self):
        from corebound.local_prob import _coverage_factor
        from corebound.numerics import binom_cdf

        for e in (0, 1, 5, 40, 300):
            for u, r in [(6, 1), (6, 2), (20, 3)]:
                q = 3 / u
                expected = (1.0 - binom_cdf(r - 1, e, q)) ** u
                assert _coverage_factor(e, u, r, q) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_windowed_sum_matches_direct(self):
        # the outer sum keeps every edge count whose pmf is at least
        # COVERING_PMF_CUTOFF and nothing else.  At u=200, p = u / C(u, k) the
        # terms cluster round the mean, so the sum matches the full support.
        # At the sparse points the largest terms lie many sd above the mean
        # edge count (0.01 or 1), where the coverage factor grows fastest.
        from corebound.local_prob import COVERING_PMF_CUTOFF
        from corebound.numerics import binom_cdf, binom_pmf

        def term(e, u, k, m, p, r):
            return binom_pmf(e, m, p) * (1.0 - binom_cdf(r - 1, e, k / u)) ** u

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


class TestInterleavedLocal:
    def test_power_of_single_edge(self):
        assert interleaved_local_prob(3, 3, 0.5, 2).value == pytest.approx(0.25, abs=1e-15)

    def test_r1_identity(self):
        for u in (1, 3, 4, 6):
            assert interleaved_local_prob(u, 3, 0.35, 1).value == connectivity_prob(u, 3, 0.35).value

    def test_pinned_square(self):
        assert interleaved_local_prob(4, 3, 0.5, 2).value == pytest.approx(0.47265625, abs=1e-12)

    def test_validity_propagates(self):
        u = 200
        p = u / choose(u, 3)
        assert not interleaved_local_prob(u, 3, p, 2).valid

    def test_power_beyond_float_range_is_infinite(self):
        # at k = 2 the broken recursion reaches -2.2e112 at u = 200, whose
        # cube leaves the float range: the value is -inf, flagged like its base
        p = 200 / choose(200, 3)
        base = connectivity_prob(200, 2, p)
        cube = interleaved_local_prob(200, 2, p, 3)
        assert base.value < -1e100 and not base.valid
        assert (cube.value, cube.valid, cube.note) == (-math.inf, False, base.note)
        assert interleaved_local_prob(200, 2, p, 4).value == math.inf
