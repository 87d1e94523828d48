"""Probabilities that a core forms on one specific vertex subset.

Three routes are provided for a subset of size u in the (v, p, k) random
model (by vertex anonymity only u matters):

* ``ConnectivityTable(k, p).prob(u)`` -- the exact recursion for the
  probability that the u vertices form a single connected component
  (equivalently, that a 1-core spans all of them).  It is numerically
  fragile: for modestly large u the alternating sum cancels catastrophically,
  so results carry validity flags instead of being trusted blindly.  A u
  past ``RECURSION_GUARD`` = 2^11 is refused, as by ``gilbert_prob``.
* ``covering_prob`` -- a slot-occupancy approximation of the probability
  that every vertex is covered by at least r edges.  A finite sum of
  products of probabilities, in [0, 1] up to rounding, but only a
  heuristic.  It sums over every edge count whose pmf is at least
  ``COVERING_PMF_CUTOFF``, up to ``COVERING_TERM_GUARD`` terms.
* ``interleaved-lower`` and ``interleaved-upper`` -- the connectivity value
  raised to the r-th power, modelling r successive rounds with freshly
  regenerated edges, from the table at p/r (lower) and at p (upper).  The
  pair is read as a bracket of the true local r-core probability, but
  against ``exact_local`` each side crosses the truth on some desk-scale
  rows flagged valid (the strict xfails of
  ``tests/test_local_prob.py::TestLocalBracketAudit`` carry the numbers).

``METHODS`` maps each local method name (those above, ``gilbert`` and the
``exact-enum`` oracle) to its computation, the ``SCOPES`` that evaluate it
and whether its global value is a lower bound; ``LocalProvider`` memoizes one
entry at one (k, p, r).  Each entry owns its evaluation point and its checks.
The two scopes are the paper's two quantities at a point: ``local``, a core on
all vertices of a given subset, and ``global``, at least one core anywhere,
which ``global_prob`` composes from the local values.

Every route checks its parameters with ``numerics.check_kpr``.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

from . import montecarlo
from .numerics import (ProbValue, binom_pmf, binomial_row, check_at_least, check_kpr, choose,
                       count_text, range_checked, scaled_power, stable_sum)

__all__ = [
    "FORMULA_METHODS",
    "METHODS",
    "LocalProvider",
    "ConnectivityTable",
    "gilbert_prob",
    "covering_prob",
    "methods_for",
]

# Outer-sum terms of the covering heuristic are dropped once the edge-count
# pmf falls below this on either tail; total truncation error < C(u,k)*1e-18.
COVERING_PMF_CUTOFF = 1e-18
# Max terms of that sum, about 18 sd of the edge count (about 1 us each, in one list).
COVERING_TERM_GUARD = 10**6
# Largest size u the connectivity and Gilbert recursions accept, and largest
# vertex count v of ``global_prob.exactly_one_core``'s size composition.  A
# table to u takes O(u^2) Python steps (1.8 s to u = 2048, 11.2 s to 5000 at
# k = 3, p = 0.001).  A composition's binomial rows hold about v^2/2 floats
# (tracemalloc: 10.1, 28.9 and 86.1 MiB at v = 1024, 2048 and 4096) and its
# loop takes O(v^3) steps at most (3.1-7.1 s at v = 2000, k = 3, r = 2 and
# overhead 0.8-5.0, where ``_level`` skips most factors); both refuse a
# larger size before building anything.  Timed on a shared 2-vCPU host.
RECURSION_GUARD = 2**11


def _check_size(u: int) -> None:
    """Refuse a size u outside 1 .. ``RECURSION_GUARD`` with a ValueError."""
    check_at_least("u", u)
    if u > RECURSION_GUARD:
        raise ValueError(f"u = {count_text(u)} exceeds the local-recursion guard "
                         f"{RECURSION_GUARD}")


# Largest size u whose p-free row is kept in ``_ROWS``; a larger row is built
# for the table that needs it and dropped with it.  This covers the sizes a
# breakdown scan reaches (u = 83 where the overhead-1 scan fails).
_ROW_STORE_MAX = 256
# (k, u) -> the p-free row of size u, see _recursion_row.  Rows are tuples,
# so no reader can change another table's row, and threads that race on a
# missing row each build the same one.
_ROWS: dict[tuple[int, int], tuple[tuple[float, ...] | None, tuple[int, ...]]] = {}


def _recursion_row(k: int, u: int) -> tuple[tuple[float, ...] | None, tuple[int, ...]]:
    """The (weights, exponents) of size u >= 2 in the connectivity recursion:
    exponents[i - 1] = eps(u, i), exact ints, for i = 1..u // 2 only, since
    eps(u, i) = eps(u, u - i); weights[i - 1] = C(u-1, i-1) for i = 1..u-1 from
    ``binomial_row`` when the row lies in the double range (its middle weight
    and its largest exponent are at most the largest double), else None: the
    one place that decides a row's kind."""
    row = _ROWS.get((k, u))
    if row is None:
        c_u = math.comb(u, k)
        eps = tuple([c_u - math.comb(i, k) - math.comb(u - i, k) for i in range(1, u // 2 + 1)])
        in_range = max(eps[-1], math.comb(u - 1, (u - 1) // 2)) <= sys.float_info.max
        row = (tuple(binomial_row(u - 1)[:-1]) if in_range else None, eps)
        if u <= _ROW_STORE_MAX:
            _ROWS[k, u] = row
    return row


class ConnectivityTable:
    """Memoized connectivity recursion at fixed (k, p), extendable in u.

    ``prob(u)``, its one accessor, is the ``ProbValue`` of value(u), the
    probability that u given vertices form one connected component.
    value(1) = 1, and for u >= 2

        value(u) = 1 - sum_{i=1}^{u-1} value(i) * C(u-1, i-1) * (1-p)^eps(u, i)

    where eps(u, i) counts the possible edges crossing an (i, u-i) split and
    the weights are ``numerics.binomial_row(u - 1)``.  Each term is
    (value(i) * weight) * factor, summed in i order by ``stable_sum``.  The
    factor (1-p)^eps is 1 - p at eps = 1, else exp(eps * log1p(-p)) below
    p = 0.5 (precise for small p and huge eps), else pow(1 - p, eps); at p = 1
    each factor of an eps >= 1 is 0.0.  For 1 < u < k every eps is 0, so the
    recursion itself gives value(u) = 1 - value(1) = 0.0.  A row past the
    double range (u >= 1030, see ``_recursion_row``) forms each term in logs, as
    ``scaled_power(value(i), lgamma(u) - lgamma(i) - lgamma(u-i+1), p, eps)``,
    from one list of lgamma values per table.

    The weights and exponents do not depend on p: each (k, u) row is built
    once and read by every table at that k, whatever its p, from one
    module-level store of tuples (``_ROWS``).  Since eps(u, i) = eps(u, u - i),
    a row holds the exponents of i <= u // 2 only, and a table evaluates each
    distinct factor once and mirrors it.  The store keeps the rows of u <=
    ``_ROW_STORE_MAX`` = 256: after one k = 3 table to u = 300, 1024 or 2048
    it retains 1.31 MiB (tracemalloc), and each further k about 1.3 MiB.

    Entries are flagged invalid from the first u whose value fails
    ``numerics.range_checked``; later entries, computed from it, inherit the
    flag.  ``prob(u)`` refuses a u past ``RECURSION_GUARD``.  A table must
    not be shared across threads unsynchronized.
    """

    def __init__(self, k: int, p: float):
        check_kpr(k, p, 1)
        self.k = k
        self.p = p
        self._values: list[float] = [math.nan, 1.0]  # index by u; u=0 unused
        self._lgammas: list[float] = [math.nan]  # lgamma(n) at index n, grown past the range
        self.first_invalid: int | None = None
        self._note: str | None = None

    def _extend(self, u_max: int) -> None:
        values, lg, k, p = self._values, self._lgammas, self.k, self.p
        exp, pow_ = math.exp, math.pow
        one_minus = 1.0 - p
        log1m = math.log1p(-p) if p < 0.5 else None
        for u in range(len(values), u_max + 1):
            weights, exponents = _recursion_row(k, u)
            mirror = (u - 1) // 2  # i = u//2+1..u-1 reads the exponent of u - i
            if weights is not None:
                half = ([one_minus if e == 1 else exp(e * log1m) for e in exponents] if p < 0.5
                        else [one_minus if e == 1 else pow_(one_minus, e) for e in exponents])
                factors = half + half[:mirror][::-1]
                terms = [v * w * f for v, w, f in zip(values[1:u], weights, factors)]
            else:  # a row past the double range (u >= 1030)
                lg += map(math.lgamma, range(len(lg), u + 1))
                eps = exponents + exponents[:mirror][::-1]
                terms = [scaled_power(v, lg[u] - lg[i] - lg[u - i + 1], p, e)
                         for i, v, e in zip(range(1, u), values[1:u], eps)]
            value = 1.0 - stable_sum(terms)
            values.append(value)
            if self.first_invalid is None and not range_checked(value, True, None).valid:
                self.first_invalid = u
                self._note = f"recursion left [0, 1] at u={u} (value {value!r})"

    def prob(self, u: int) -> ProbValue:
        _check_size(u)
        self._extend(u)
        value = self._values[u]
        if self.first_invalid is not None and u >= self.first_invalid:
            return ProbValue(value, False, self._note)
        return ProbValue(value)


def gilbert_prob(u: int, p: float) -> ProbValue:
    """Probability that u vertices are connected in an ordinary random graph.

    Classical two-uniform recursion with crossing-edge exponent i*(u-i);
    implemented independently of :class:`ConnectivityTable` as a cross-check,
    not as an alias of the k=2 case; the two share only ``numerics.binomial_row``.
    A weight past the double range (u >= 1031) is inf: a flagged nan, kept on
    purpose, as with no flag carried between sizes a value could heal to valid.
    A u past ``RECURSION_GUARD`` is refused.
    """
    _check_size(u)
    check_kpr(2, p, 1)
    g = [math.nan, 1.0]
    q = 1.0 - p
    for n in range(2, u + 1):
        acc = []
        for i, weight in zip(range(1, n), binomial_row(n - 1)):  # C(n-1, i-1)
            acc.append(g[i] * weight * q ** (i * (n - i)))
        g.append(1.0 - stable_sum(acc))
    return range_checked(g[u], True, None)


def _coverage_factor(e: int, u: int, r: int, q: float) -> float:
    # P[every one of u vertices occupies >= r slots | e edges], slot model:
    # each vertex lands in each edge with probability q = k/u, independently.
    if e < r:
        return 0.0
    # B(r-1; e, q) accumulated term by term (r is small)
    try:
        pmf = (1.0 - q) ** e
    except OverflowError:  # e = C(u, k) past the double range, from covering at p = 1
        pmf = scaled_power(1.0, 0.0, q, e)
    cdf = pmf
    for j in range(1, r if pmf else 1):  # a zero pmf stays 0; this keeps q = 1 and huge e out
        pmf *= (e - j + 1) / j * (q / (1.0 - q))
        cdf += pmf
    per_vertex = 1.0 - cdf
    if per_vertex <= 0.0:
        return 0.0
    return per_vertex**u


def covering_prob(u: int, k: int, p: float, r: int) -> ProbValue:
    """Covering approximation of the probability an r-core spans u vertices.

    Marginalizes over the number of induced edges e ~ Binomial(C(u,k), p) and,
    for each e, multiplies the per-vertex probability of being covered by at
    least r of the e edges across all u vertices.  In [0, 1] up to rounding;
    accuracy degrades when distinct cores could jointly cover the subset.  At
    0 < p < 1 a sum past ``COVERING_TERM_GUARD`` terms or C(u, k) past the
    double range is refused: nan, flagged, with a note naming the guard.
    """
    check_kpr(k, p, r)
    check_at_least("u", u)
    m = choose(u, k)
    # no edge (p = 0) or no candidate (u < k): the one term, at e = 0 edges, is 0.0; this keeps
    # out u = 1030, k = 515, whose C(u, k) the sum refuses, and a k / u past the double range
    if p == 0.0 or m == 0:
        return ProbValue(0.0)
    q = k / u
    if p == 1.0:  # one edge count, m; the odds p / (1 - p) below divide by zero
        return ProbValue(_coverage_factor(m, u, r, q))
    a, b = p.as_integer_ratio()  # 18 sd past the guard, sd^2 = m p (1 - p); floats of m below
    if m > sys.float_info.max or 324 * m * a * (b - a) > COVERING_TERM_GUARD**2 * b * b:
        return ProbValue(math.nan, False, "covering sum refused: over COVERING_TERM_GUARD"
                         f" = {COVERING_TERM_GUARD} terms, or C(u, k) past the double range")

    center = int(round(m * p))

    # pmf at the mean, then exact multiplicative steps outward
    pmf_center = binom_pmf(center, m, p)
    ratio = p / (1.0 - p)

    terms = []
    pmf = pmf_center
    e = center
    while e <= m and pmf >= COVERING_PMF_CUTOFF:
        terms.append(pmf * _coverage_factor(e, u, r, q))
        pmf *= (m - e) / (e + 1) * ratio
        e += 1
    pmf = pmf_center
    e = center
    while e > 0:
        pmf *= e / ((m - e + 1) * ratio)
        e -= 1
        if pmf < COVERING_PMF_CUTOFF:
            break
        terms.append(pmf * _coverage_factor(e, u, r, q))
    return range_checked(stable_sum(terms), True, None)


def _connectivity(k: int, p: float, r: int, p_over_r: bool = False,
                  powered: bool = False) -> Callable[[int], ProbValue]:
    check_kpr(k, p, r)
    table = ConnectivityTable(k, p / r if p_over_r else p)
    if not powered:
        return lambda u: table.prob(u)

    def value(u: int) -> ProbValue:  # the table's value raised to the r-th power
        base = table.prob(u)
        try:
            power = base.value**r
        except OverflowError:  # |base| > 1: the recursion has broken down
            power = math.copysign(math.inf, base.value) ** r
        return ProbValue(power, base.valid, base.note)

    return value


def _covering(k: int, p: float, r: int) -> Callable[[int], ProbValue]:
    check_kpr(k, p, r)
    return lambda u: covering_prob(u, k, p, r)


def _gilbert(k: int, p: float, r: int) -> Callable[[int], ProbValue]:
    if k != 2:
        raise ValueError("--method gilbert requires --k 2")
    check_at_least("r", r)  # the one method that reads no r; gilbert_prob checks u, then p
    return lambda u: gilbert_prob(u, p)


def _exact_enum(k: int, p: float, r: int) -> Callable[[int], ProbValue]:
    check_kpr(k, p, r)
    return lambda u: ProbValue(montecarlo.exact_local(u, k, p, r))


SCOPES = ("local", "global")


class Method(NamedTuple):
    """A ``METHODS`` entry: ``build(k, p, r)`` checks the point and returns the
    map u -> ``ProbValue`` (which looks each routine it calls up at call time,
    so a wrapper set later sees every call), the scopes that evaluate it, and
    whether its global value is a lower bound."""

    build: Callable[[int, float, int], Callable[[int], ProbValue]]
    scopes: tuple[str, ...] = SCOPES
    lower: bool = False


METHODS = {  # in the order the CLI lists them
    "connectivity": Method(_connectivity),  # connected-component probability (the 1-core reading)
    "covering": Method(_covering),  # the covering heuristic at r
    # the connectivity probability at p / r and at p, raised to the r-th power
    "interleaved-lower": Method(partial(_connectivity, p_over_r=True, powered=True), lower=True),
    "interleaved-upper": Method(partial(_connectivity, powered=True)),
    "gilbert": Method(_gilbert, ("local",)),  # the two-uniform cross-check, k = 2 only
    "exact-enum": Method(_exact_enum, ()),  # exhaustive enumeration: desk scale, library only
}


def methods_for(scope: str) -> tuple[str, ...]:
    """The method names evaluated in ``scope``, in table order; ``FORMULA_METHODS``
    are those both scopes evaluate."""
    return tuple(name for name, entry in METHODS.items() if scope in entry.scopes)


FORMULA_METHODS = tuple(m for m in methods_for("local") if m in methods_for("global"))


class LocalProvider:
    """Memo over a ``METHODS`` entry's map at one (k, p, r), with the entry's
    ``lower`` flag; not to be shared across threads unsynchronized."""

    def __init__(self, method: str, k: int, p: float, r: int):
        if method not in METHODS:
            raise ValueError(f"unknown local method {method!r}; pick from {tuple(METHODS)}")
        self._value = METHODS[method].build(k, p, r)
        self.lower = METHODS[method].lower
        self._memo: dict[int, ProbValue] = {}

    def value(self, u: int) -> ProbValue:
        got = self._memo.get(u)
        if got is None:
            got = self._memo[u] = self._value(u)
        return got
