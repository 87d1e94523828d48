"""Probabilities that a core forms on one specific vertex subset.

Three routes are provided for a subset of size u in the (v, p, k) random
model (by vertex anonymity only u matters):

* ``connectivity_prob`` -- the exact recursion for the probability that the
  u vertices form a single connected component (equivalently, that a 1-core
  spans all of them).  It is numerically fragile: for modestly large u the
  alternating sum cancels catastrophically, so results carry validity flags
  instead of being trusted blindly.
* ``covering_prob`` -- a slot-occupancy approximation of the probability
  that every vertex is covered by at least r edges.  A finite sum of
  products of probabilities, stable at any size, but only a heuristic.  It
  sums over every edge count whose pmf is at least ``COVERING_PMF_CUTOFF``.
* ``interleaved_local_prob`` -- connectivity_prob raised to the r-th power,
  modelling r successive rounds with freshly regenerated edges.  Evaluated
  at p and at p/r it brackets the true local r-core probability.

``LocalProvider`` is the one map from a source in ``LOCAL_METHODS`` (these
routes and the ``exact-enum`` oracle) to its value; it owns the one
``ConnectivityTable`` its connectivity and interleaved sources read.

Every route checks its parameters with ``numerics.check_kpr``.
"""
from __future__ import annotations

import math

from .montecarlo import exact_local
from .numerics import (ProbValue, binom_pmf, binomial_row, check_kpr, choose, range_checked,
                       stable_sum)

__all__ = [
    "LOCAL_METHODS",
    "LocalProvider",
    "ConnectivityTable",
    "cross_edge_count",
    "connectivity_prob",
    "gilbert_prob",
    "covering_prob",
    "interleaved_local_prob",
]

# Outer-sum terms of the covering heuristic are dropped once the edge-count
# pmf falls below this on either tail; total truncation error < C(u,k)*1e-18.
COVERING_PMF_CUTOFF = 1e-18


def cross_edge_count(u: int, i: int, k: int) -> int:
    """Number of possible k-edges crossing a split of u vertices into parts of
    size i and u-i, i.e. edges touching both sides.  Exact integer."""
    if not 1 <= i < u:
        raise ValueError(f"need 1 <= i < u, got i={i}, u={u}")
    return sum(choose(i, j) * choose(u - i, k - j) for j in range(1, min(i, k - 1) + 1))


def _one_minus_p_pow(p: float, exponent: float, log1m: float) -> float:
    # (1-p)^exponent; log1p route preserves precision for small p and huge exponents
    if p == 1.0:
        return 0.0
    if exponent == 1:
        return 1.0 - p
    if p < 0.5:
        return math.exp(exponent * log1m)
    return math.pow(1.0 - p, exponent)


class ConnectivityTable:
    """Memoized connectivity recursion at fixed (k, p), extendable in u.

    ``value(u)`` is the probability that u given vertices form one connected
    component.  Base cases: value(1) = 1 and value(u) = 0 for 1 < u < k; for
    u >= k,

        value(u) = 1 - sum_{i=1}^{u-1} value(i) * C(u-1, i-1) * (1-p)^eps(u, i)

    where eps(u, i) counts the possible edges crossing an (i, u-i) split and
    the weights are ``numerics.binomial_row(u - 1)``.  Entries are flagged
    invalid from the first u whose value fails ``numerics.range_checked`` (a
    weight past the double range is inf and makes the value non-finite); later
    entries inherit the flag since they are computed from the broken one.  A
    table must not be shared across threads without external synchronization.
    """

    def __init__(self, k: int, p: float):
        check_kpr(k, p, 1)
        self.k = k
        self.p = p
        self._log1m = math.log1p(-p) if p < 1.0 else -math.inf
        self._values: list[float] = [math.nan, 1.0]  # index by u; u=0 unused
        self._choose_k: list[int] = [0, 0]  # C(j, k) for j = 0, 1
        self.first_invalid: int | None = None
        self._note: str | None = None

    def _extend(self, u_max: int) -> None:
        for j in range(len(self._choose_k), u_max + 1):
            self._choose_k.append(choose(j, self.k))
        ck = self._choose_k
        for u in range(len(self._values), u_max + 1):
            if u < self.k:
                self._values.append(0.0)
                continue
            crossing_base = ck[u]
            terms = []
            for i, weight in zip(range(1, u), binomial_row(u - 1)):  # C(u-1, i-1)
                eps = crossing_base - ck[i] - ck[u - i]
                terms.append(self._values[i] * weight * _one_minus_p_pow(self.p, eps, self._log1m))
            value = 1.0 - stable_sum(terms)
            self._values.append(value)
            if self.first_invalid is None and not range_checked(value, True, None)[1]:
                self.first_invalid = u
                self._note = (f"non-finite term in the recursion at u={u}"
                              if not math.isfinite(value)
                              else f"recursion left [0, 1] at u={u} (value {value!r})")

    def value(self, u: int) -> float:
        if u < 1:
            raise ValueError(f"u must be >= 1, got {u}")
        self._extend(u)
        return self._values[u]

    def prob(self, u: int) -> ProbValue:
        value = self.value(u)
        if self.first_invalid is not None and u >= self.first_invalid:
            return ProbValue(value, False, self._note)
        return ProbValue(value)


def connectivity_prob(u: int, k: int, p: float) -> ProbValue:
    """Probability that u specific vertices are connected in the (p, k) model;
    a :class:`ConnectivityTable` reuses the recursion across sizes."""
    return ConnectivityTable(k, p).prob(u)


def gilbert_prob(u: int, p: float) -> ProbValue:
    """Probability that u vertices are connected in an ordinary random graph.

    Classical two-uniform recursion with crossing-edge exponent i*(u-i);
    implemented independently of :func:`connectivity_prob` as a cross-check,
    not as an alias of the k=2 case; the two share only ``numerics.binomial_row``.
    A weight past the double range makes the value non-finite, flagged invalid.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    check_kpr(2, p, 1)
    g = [math.nan, 1.0]
    q = 1.0 - p
    for n in range(2, u + 1):
        acc = []
        for i, weight in zip(range(1, n), binomial_row(n - 1)):  # C(n-1, i-1)
            acc.append(g[i] * weight * q ** (i * (n - i)))
        g.append(1.0 - stable_sum(acc))
    return ProbValue.checked(g[u])


def _coverage_factor(e: int, u: int, r: int, q: float) -> float:
    # P[every one of u vertices occupies >= r slots | e edges], slot model:
    # each vertex lands in each edge with probability q = k/u, independently.
    if e < r:
        return 0.0
    if q == 1.0:
        return 1.0  # e >= r and every vertex is in every edge
    # B(r-1; e, q) accumulated term by term (r is small)
    pmf = (1.0 - q) ** e
    cdf = pmf
    for j in range(1, r):
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
    least r of the e edges across all u vertices.  Always lands in [0, 1];
    accuracy degrades when distinct cores could jointly cover the subset.
    """
    check_kpr(k, p, r)
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if u < k:
        return ProbValue(0.0)  # no edge fits inside the subset
    m = choose(u, k)
    q = k / u
    if p == 0.0:
        return ProbValue(0.0)
    if p == 1.0:
        return ProbValue(_coverage_factor(m, u, r, q))

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
    return ProbValue.checked(stable_sum(terms))


def interleaved_local_prob(u: int, k: int, p: float, r: int) -> ProbValue:
    """Probability an r-core spans u vertices under interleaved regeneration:
    the subset must come out connected in each of r independent rounds, so
    this is ``connectivity_prob(u, k, p) ** r``.  Validity follows the base."""
    return LocalProvider("interleaved", k, p, r).value(u)


LOCAL_METHODS = ("connectivity", "covering", "interleaved", "exact-enum")


class LocalProvider:
    """Memoized source of the local subset probability feeding the recursion.

    * ``connectivity``  -- connected-component probability (the 1-core reading)
    * ``covering``      -- the covering heuristic at the provider's r
    * ``interleaved``   -- connectivity probability raised to the r-th power
    * ``exact-enum``    -- exhaustive enumeration (desk scale only)

    The method is fixed for the provider's lifetime; one provider serves one
    (k, p, r) triple and must not be shared across threads unsynchronized.
    """

    def __init__(self, method: str, k: int, p: float, r: int):
        if method not in LOCAL_METHODS:
            raise ValueError(f"unknown local method {method!r}; pick from {LOCAL_METHODS}")
        check_kpr(k, p, r)
        self.method = method
        self.k = k
        self.p = p
        self.r = r
        self._table = ConnectivityTable(k, p) if method in ("connectivity", "interleaved") else None
        self._memo: dict[int, ProbValue] = {}

    def value(self, u: int) -> ProbValue:
        got = self._memo.get(u)
        if got is None:
            got = self._compute(u)
            self._memo[u] = got
        return got

    def _compute(self, u: int) -> ProbValue:
        if self.method == "connectivity":
            return self._table.prob(u)
        if self.method == "interleaved":
            base = self._table.prob(u)
            try:
                power = base.value**self.r
            except OverflowError:  # |base| > 1: the recursion has broken down
                power = math.copysign(math.inf, base.value) ** self.r
            return ProbValue(power, base.valid, base.note)
        if self.method == "covering":
            return covering_prob(u, self.k, self.p, self.r)
        return ProbValue(exact_local(u, self.k, self.p, self.r))
