import math
import sys
from fractions import Fraction

import pytest

from corebound import binom_pmf, choose, choose_float, stable_sum
from corebound.local_prob import ConnectivityTable, gilbert_prob
from corebound.numerics import ProbValue, binomial_row, check_kpr, range_checked, scaled_power
from corebound.sweep import SweepSpec


class TestChoose:
    def test_small_values(self):
        assert choose(4, 3) == 4
        assert choose(2, 3) == 0
        assert choose(0, 0) == 1
        assert choose(5, -1) == 0

    def test_exact_big(self):
        assert choose(200, 3) == 1313400  # 200*199*198/6
        assert choose(60, 30) == math.comb(60, 30)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            choose(-1, 0)

    def test_vandermonde_identity(self):
        # sum_j C(i,j) C(n-i, k-j) == C(n,k), exact integers
        for n in range(0, 13):
            for k in range(0, n + 1):
                for i in range(0, n + 1):
                    total = sum(choose(i, j) * choose(n - i, k - j) for j in range(k + 1))
                    assert total == choose(n, k)

    def test_float_conversion_overflow(self):
        assert choose_float(4, 2) == 6.0
        assert choose_float(3000, 1500) == math.inf

    @pytest.mark.parametrize("n", [*range(65), *range(1028, 1033), 2048])
    def test_binomial_row_is_choose_float(self, n):
        # bit for bit, floats only; C(1030, 515) is the first entry above the double range
        row = binomial_row(n)
        assert {type(x) for x in row} == {float}
        assert [x.hex() for x in row] == [choose_float(n, j).hex() for j in range(n + 1)]
        assert (math.inf in row) == (n >= 1030)


class TestCheckKpr:
    # k is checked first, then r, then p
    @pytest.mark.parametrize("k, p, r, message", [
        (1, 0.5, 1, "k must be >= 2, got 1"),
        (1, 1.5, 0, "k must be >= 2, got 1"),
        (3, 1.5, 0, "r must be >= 1, got 0"),
        (3, 0.5, 2**1024, r"r must lie in the double range, got 1797693134\.\.\. \(309 digits\)"),
        (3, 1.5, 10**400, r"r must lie in the double range, got 1000000000\.\.\. \(401 digits\)"),
        (3, -0.1, 1, r"p must lie in \[0, 1\], got -0.1"),
        (3, 1.5, 2, r"p must lie in \[0, 1\], got 1.5"),
    ])
    def test_message(self, k, p, r, message):
        check_kpr(3, 0.0, 1)
        check_kpr(2, 1.0, 5)
        check_kpr(3, 0.5, int(sys.float_info.max))  # the largest r a float holds
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_kpr(k, p, r)

    # the sites that check part of (k, p, r) give the same messages, in the same order
    @pytest.mark.parametrize("call, message", [
        (lambda: ConnectivityTable(1, 0.5), "k must be >= 2, got 1"),
        (lambda: ConnectivityTable(1, 1.5), "k must be >= 2, got 1"),
        (lambda: ConnectivityTable(3, -0.1), r"p must lie in \[0, 1\], got -0.1"),
        (lambda: gilbert_prob(4, 1.5), r"p must lie in \[0, 1\], got 1.5"),
        (lambda: gilbert_prob(0, 1.5), "u must be >= 1, got 0"),
        (lambda: SweepSpec(1, 0, 1.0, 1, 5, ("covering",)), "k must be >= 2, got 1"),
        (lambda: SweepSpec(3, 0, 1.0, 1, 5, ("covering",)), "r must be >= 1, got 0"),
    ], ids=["table k", "table k before p", "table p", "gilbert p", "gilbert u before p",
            "spec k before r", "spec r"])
    def test_message_at_each_site(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestBinomPmf:
    def test_trial_count_past_double_range_raises_value_error(self):
        # covering refuses such sums; the pmf names the range instead of
        # raising OverflowError from a float conversion of n
        n = math.comb(1030, 515)
        for x, p in [(0, 1e-300), (5, 1e-300), (n // 3, 1 / 3), (n, 0.5)]:
            with pytest.raises(ValueError, match="double range"):
                binom_pmf(x, n, p)

    def test_examples(self):
        assert binom_pmf(0, 5, 0.0) == 1.0
        assert binom_pmf(1, 2, 0.5) == 0.5
        assert binom_pmf(2, 4, 0.3) == pytest.approx(0.2646, abs=1e-12)

    def test_out_of_support(self):
        assert binom_pmf(-1, 10, 0.4) == 0.0
        assert binom_pmf(11, 10, 0.4) == 0.0

    def test_degenerate_p(self):
        assert binom_pmf(7, 7, 1.0) == 1.0
        assert binom_pmf(6, 7, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binom_pmf(0, -1, 0.5)
        with pytest.raises(ValueError):
            binom_pmf(0, 5, 1.5)

    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    @pytest.mark.parametrize("p", [1e-4, 0.3, 0.9])
    def test_normalization(self, n, p):
        total = math.fsum(binom_pmf(x, n, p) for x in range(n + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_trial_count_past_float_sum(self):
        # at n = C(1029, 514), x + n * p overflows a double in the deviance
        # series, which once looped on inf * 0.0 = nan; the saddle point gives
        # 1 / sqrt(2 pi n p q), formed in logs as 2 pi n p q overflows
        n, p = math.comb(1029, 514), 0.3
        want = math.exp(-0.5 * (math.log(2 * math.pi) + math.log(n) + math.log(p) + math.log1p(-p)))
        assert want == pytest.approx(7.280473583311506e-155, rel=1e-15)
        assert binom_pmf(int(round(n * p)), n, p) == pytest.approx(want, rel=1e-12)

    def test_deep_tail_no_underflow_to_garbage(self):
        # log-space path: a far-tail mass that the naive product cannot reach
        val = binom_pmf(500, 10_000, 1e-3)
        assert 0.0 < val < 1e-300 or val == 0.0
        mode = binom_pmf(10, 10_000, 1e-3)
        assert mode == pytest.approx(0.12511, abs=1e-3)


class TestScaledPower:
    """x * exp(log_c) * (1 - p)^e in logs, for weights and exponents past the
    double range; each weight c is given as its log."""

    def test_in_range_agrees_with_the_float_product(self):
        for x, c, p, e in [(0.5, 3, 0.25, 7), (-0.75, 10**6, 0.01, 12345), (1.0, 1, 0.9, 2)]:
            want = x * c * (1.0 - p) ** e
            assert scaled_power(x, math.log(c), p, e) == pytest.approx(want, rel=1e-13)
            assert scaled_power(x, math.log(c), p, float(e)) == pytest.approx(want, rel=1e-13)

    def test_int_exponent_in_double_range_is_its_float(self):
        # rows past the double range hold exact int exponents: one of 61
        # bits, eps(1030, 8) at k = 8, is rounded as float(e), not cut to 53 bits
        e = 1854994589780273654
        for s in (0.37, 3.1, 47.0):
            p = s / e
            assert scaled_power(1.0, -3.5, p, e) == scaled_power(1.0, -3.5, p, float(e))

    def test_zero_exponent_is_one_at_every_p(self):
        # (1 - p)^0 = 1, also at p = 1, where every e >= 1 gives 0.0
        for p in (0.0, 1e-300, 0.5, 1.0):
            for e in (0, 0.0):
                assert scaled_power(0.5, math.log(3.0), p, e) == pytest.approx(1.5, rel=1e-15)
        assert scaled_power(0.5, math.log(3.0), 1.0, 1) == 0.0

    def test_weight_past_double_range(self):
        c = math.comb(1030, 515)  # the first weight past the double range
        log_c = math.log(c)
        assert scaled_power(1.0, log_c, 0.5, 2000) == pytest.approx(c / 2**2000, rel=1e-12)
        assert scaled_power(-1e-300, log_c, 0.0, 10) == pytest.approx(-float(c * Fraction(1e-300)),
                                                                      rel=1e-12)
        assert scaled_power(1.0, log_c, 0.0, 10) == math.inf
        assert scaled_power(-1.0, log_c, 1e-300, 10) == -math.inf

    def test_zero_factors_give_zero(self):
        c = math.log(math.comb(2047, 1023))
        assert scaled_power(0.0, c, 0.0, 1) == 0.0  # not inf * 0.0 = nan
        assert scaled_power(1.0, -math.inf, 0.5, 1) == 0.0
        assert scaled_power(1.0, c, 1.0, 3) == 0.0
        assert scaled_power(1.0, c, 1.0, 2**2000) == 0.0
        assert scaled_power(1.0, c, 0.5, 2**2000) == 0.0  # underflow

    @pytest.mark.parametrize("u, i", [(1031, 516), (2048, 1024)])
    def test_lgamma_weight_matches_the_exact_product(self, u, i):
        # the connectivity recursion's term past the double range: weight
        # C(u-1, i-1) as lgamma(u) - lgamma(i) - lgamma(u-i+1), against the
        # product taken exactly and rounded once
        c = math.comb(u - 1, i - 1)
        assert c > sys.float_info.max
        log_c = math.lgamma(u) - math.lgamma(i) - math.lgamma(u - i + 1)
        for x, p, e in [(0.75, 0.5, 1500), (-1e-300, 0.25, 1000)]:
            want = float(Fraction(x) * c * (1 - Fraction(p)) ** e)
            assert 0.0 < abs(want) < math.inf
            assert scaled_power(x, log_c, p, e) == pytest.approx(want, rel=1e-11)

    def test_non_finite_x(self):
        assert math.isnan(scaled_power(math.nan, 3, 0.5, 2))
        assert scaled_power(-math.inf, 3, 0.5, 2) == -math.inf


class TestStableSum:
    def test_empty(self):
        assert stable_sum([]) == 0.0

    def test_cancellation(self):
        assert stable_sum([1e16, 1.0, -1e16]) == 1.0

    def test_accumulation(self):
        assert abs(stable_sum([0.1] * 10) - 1.0) <= 1e-15

    def test_fsum_bits_when_fsum_succeeds(self):
        terms = [math.ldexp((-1) ** i * (i * 0.6180339887 % 1.0), i % 97 - 48)
                 for i in range(500)]
        assert stable_sum(iter(terms)).hex() == math.fsum(terms).hex()
        assert stable_sum([math.inf, 1.0, -2.0]) == math.inf
        assert math.isnan(stable_sum([math.nan, 1.0]))

    def test_intermediate_overflow_is_infinite(self):
        # fsum raises OverflowError on these all-finite terms
        assert stable_sum([1e308, 1e308]) == math.inf
        assert stable_sum([-1e308, -1e308, 1.0]) == -math.inf

    def test_opposite_infinities_are_nan(self):
        # fsum raises ValueError ("-inf + inf in fsum") on these
        assert math.isnan(stable_sum([math.inf, -math.inf]))
        assert math.isnan(stable_sum(x for x in (1.0, -math.inf, 2.0, math.inf)))


class TestProbValue:
    def test_checked_flags_out_of_range(self):
        assert range_checked(0.5, True, None).valid
        assert range_checked(1.0 + 5e-10, True, None).valid  # inside tolerance
        assert not range_checked(1.1, True, None).valid
        assert not range_checked(-1.0, True, None).valid
        assert not range_checked(math.inf, True, None).valid

    def test_raw_value_kept_verbatim(self):
        pv = range_checked(-1.84e23, True, None)
        assert pv.value == -1.84e23
        assert not pv.valid
