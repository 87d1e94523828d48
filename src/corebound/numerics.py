"""Exact and floating-point combinatorial primitives shared by the whole package.

Binomial coefficients are exact (arbitrary-width) integers; their floats,
one at a time or a row at a time, are inf past the double range.  The binomial
pmf and ``scaled_power``, exp(log_c) * (1 - p)^e past that range, work in logs.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

__all__ = [
    "PROB_TOL",
    "ProbValue",
    "range_checked",
    "check_at_least",
    "check_kpr",
    "choose",
    "choose_float",
    "count_text",
    "binomial_row",
    "binom_pmf",
    "scaled_power",
    "stable_sum",
]

# Computed probabilities outside [-PROB_TOL, 1 + PROB_TOL] are treated as
# numerical breakdown and flagged, never clamped or raised.
PROB_TOL = 1e-9
BREAKDOWN_NOTE = "value outside [0, 1]: numerical breakdown"


def check_at_least(name: str, n: int, low: int = 1) -> None:
    """The one integer lower-bound check: ValueError "<name> must be >= <low>,
    got <n>" unless n >= low."""
    if n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")


def check_kpr(k: int, p: float, r: int) -> None:
    """The model-domain check: ValueError unless k >= 2, r >= 1 and p lies in
    [0, 1], and r lies in the double range, as the formulas take r as a float."""
    check_at_least("k", k, 2)
    check_at_least("r", r)
    if r > sys.float_info.max:
        raise ValueError(f"r must lie in the double range, got {count_text(r)}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


class ProbValue(NamedTuple):
    """A probability result, the triple (value, valid, note): raw value,
    validity flag, breakdown diagnostic.

    ``value`` is reported verbatim even when broken; ``valid`` is False once
    the value (or anything it was computed from) left ``[-PROB_TOL, 1+PROB_TOL]``
    or stopped being finite.  ``note`` carries a short human-readable reason.
    ``range_checked`` builds one with the range rule applied.
    """

    value: float
    valid: bool = True
    note: str | None = None


def range_checked(value: float, valid: bool, note: str | None) -> ProbValue:
    """The ``ProbValue`` (value, valid, note) with the range rule applied: a
    value that is not finite or lies outside ``[-PROB_TOL, 1 + PROB_TOL]`` is
    invalid, noted as numerical breakdown unless ``note`` already says why.
    The one constructor of a range-checked triple."""
    # both comparisons are False for nan, and one of them for +-inf
    if -PROB_TOL <= value <= 1.0 + PROB_TOL:
        return ProbValue(value, valid, note)
    return ProbValue(value, False, note or BREAKDOWN_NOTE)


def choose(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"choose: n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# A guard refusing a count of more digits writes its first 10 digits and its
# digit count, so the error stays one short line (and str(), which refuses
# ints past 4300 digits, never sees it).
_COUNT_DIGITS = 30


def count_text(m: int) -> str:
    """The count m >= 0 for an error message: in full up to ``_COUNT_DIGITS``
    digits, else as "3266933136... (330 digits)"."""
    if m < 10**_COUNT_DIGITS:
        return str(m)
    digits = int(m.bit_length() * math.log10(2))  # the digit count, or one less
    digits += m >= 10**digits
    return f"{m // 10**(digits - 10)}... ({digits} digits)"


def choose_float(n: int, k: int) -> float:
    """C(n, k) as a float; returns inf when the exact value overflows a double."""
    c = choose(n, k)
    try:
        return float(c)
    except OverflowError:
        return math.inf


def binomial_row(n: int) -> list[float]:
    """C(n, 0..n) as floats, entry j the exact C(n, j) rounded once (inf past
    the double range): one exact multiplicative pass over the first half, and
    a mirror."""
    row = []
    c = 1  # C(n, j), exact
    for j in range(n // 2 + 1):
        try:
            row.append(float(c))
        except OverflowError:
            row.append(math.inf)
        c = c * (n - j) // (j + 1)
    row += reversed(row[:(n + 1) // 2])  # C(n, j) = C(n, n - j)
    return row


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the Stirling series remainder."""
    if n < 16:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = n * n
    # classic truncation thresholds for < 1 ulp of the remainder
    if n > 500:
        return (1 / 12 - 1 / (360 * nn)) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / (1260 * nn)) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * nn)) / nn) / nn) / n


def _binom_deviance(x: float, m: float) -> float:
    """x log(x/m) + m - x, evaluated stably when x is near m."""
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * v * x  # not 2.0 * x * v: at x = inf (n past about 1e308) that is inf * 0.0
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / m) + m - x


def binom_pmf(x: int, n: int, p: float) -> float:
    """P[X = x] for X ~ Binomial(n, p); 0 for x outside [0, n].

    Small n multiplies the exact coefficient directly.  Large n uses the
    saddle-point form (Stirling remainders plus a stable binomial deviance),
    which stays within a few ulp at any n, so deep-tail masses neither
    underflow spuriously nor drift: the pmf sums to 1 within ~1e-13 even at
    n = 10^4.  An n past the double range raises ValueError.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be non-negative, got {n}")
    if n > sys.float_info.max:  # the forms below take n as a float
        raise ValueError(f"binomial: n must lie in the double range, got {n.bit_length()} bits")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial: p must lie in [0, 1], got {p}")
    if x < 0 or x > n:
        return 0.0
    # p = 0 and p = 1 put all mass on one x; the large-n forms below take
    # log p and log(1 - p), which have no value there
    if p == 0.0:
        return 1.0 if x == 0 else 0.0
    if p == 1.0:
        return 1.0 if x == n else 0.0
    if n <= 64:
        return math.comb(n, x) * p**x * (1.0 - p) ** (n - x)
    if x == 0:
        return math.exp(n * math.log1p(-p))
    if x == n:
        return math.exp(n * math.log(p))
    q = 1.0 - p
    lc = (_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x)
          - _binom_deviance(x, n * p) - _binom_deviance(n - x, n * q))
    lf = math.log(2.0 * math.pi) + math.log(x) + math.log1p(-x / n)
    return math.exp(lc - 0.5 * lf)


def scaled_power(x: float, log_c: float, p: float, e: int | float) -> float:
    """x * exp(log_c) * (1 - p)^e for a log weight log_c (-inf for a zero weight), an int e >= 0
    of any size or a float e, and p in [0, 1] (0^0 = 1), formed in logs so that it raises nothing:
    0.0 on underflow or a zero factor, +-inf on overflow, nan for a nan x.  An e past the double
    range enters as its top 53 bits.  Callers form in-range products inline, not through it."""
    if x == 0.0 or log_c == -math.inf or p == 1.0 and e:  # at p = 1, (1 - p)^e = 0 for e >= 1
        return 0.0
    shift = e.bit_length() - 53 if e > sys.float_info.max else 0
    log = -math.inf  # stays so where ldexp overflows: (1 - p)^e is below exp(-DBL_MAX)
    try:
        log = math.log(abs(x)) + log_c + (math.ldexp((e >> shift) * math.log1p(-p), shift)
                                          if shift > 0 else e and e * math.log1p(-p))
        return math.copysign(math.exp(log), x)
    except OverflowError:
        return 0.0 if log == -math.inf else math.copysign(math.inf, x)


def stable_sum(terms) -> float:
    """Sum of floats: ``math.fsum`` (correctly rounded) when it succeeds, else
    the plain IEEE sum.  ``fsum`` raises on an intermediate overflow and on
    inf - inf; the plain sum gives inf or nan there, so a broken term stays
    visible to the range check instead of raising."""
    terms = list(terms)
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):
        return sum(terms, 0.0)
