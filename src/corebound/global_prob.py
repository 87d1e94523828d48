"""Composition of local subset probabilities into whole-graph core probabilities.

``exactly_one_core`` estimates the probability that a single r-core, and no
other, forms anywhere on v vertices.  Working down from size u = v, the
per-size value is the product of

* the probability some u-subset carries a core and is contained in no larger
  one: ``C(v,u) * local(u) * prod_{x>u} (1 - C_x)^(C(v-u, x-u))``, and
* the probability no distinct core forms among the other v-u vertices:
  ``1 - sum_{x=k}^{v-u} C_x`` evaluated on the (v-u)-vertex subinstance
  (computed recursively and memoized by vertex count).

The geometric-series step then upper-bounds the probability of at least one
core by ``S / (1 - S)`` where S is the exactly-one total, and
``interleaving_bounds`` evaluates that bound at edge probabilities p/r and p
with the interleaved local model to bracket the true r-core probability.

All arithmetic is carried out and reported verbatim; values that leave
[0, 1] (or inherit from ones that did) are flagged, not repaired.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .local_prob import ConnectivityTable, covering_prob, interleaved_local_prob
from .numerics import PROB_TOL, ProbValue, choose, choose_float, stable_sum

__all__ = [
    "LOCAL_METHODS",
    "LocalProvider",
    "GlobalResult",
    "GlobalComputation",
    "exactly_one_core",
    "at_least_one_bound",
    "lower_bound",
    "interleaving_bounds",
]

LOCAL_METHODS = ("connectivity", "covering", "interleaved", "exact-enum")


def _check_kpr(k: int, p: float, r: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


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
        _check_kpr(k, p, r)
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
            return interleaved_local_prob(u, self.k, self.p, self.r, table=self._table)
        if self.method == "covering":
            return covering_prob(u, self.k, self.p, self.r)
        from .montecarlo import exact_local  # deferred: montecarlo pulls in kernels

        return ProbValue(exact_local(u, self.k, self.p, self.r))


@dataclass(frozen=True)
class GlobalResult:
    """Per-size core probabilities plus their composition for one (v, p, k, r)."""

    v: int
    p: float
    k: int
    r: int
    method: str
    per_size: dict[int, ProbValue]       # size u -> probability, u in [k, v]
    exactly_one: ProbValue               # sum over sizes
    bound: ProbValue                     # geometric bound on at-least-one
    breakdown_at: int | None             # largest size whose value is invalid


def _pow_one_minus(x: float, exponent: float) -> float:
    """(1 - x)^exponent for integer exponents >= 0, overflow -> inf."""
    if exponent == 0:
        return 1.0
    try:
        if x <= 0.5:
            return math.exp(exponent * math.log1p(-x))
        return math.pow(1.0 - x, exponent)
    except (OverflowError, ValueError):
        return math.inf


def _merged(value: float, parts: Iterable[ProbValue]) -> ProbValue:
    """``value`` computed from ``parts``: invalid when it leaves [0, 1] or any
    part is invalid, carrying the first note among the parts."""
    # one plain loop: this runs O(v^2) times per composition, and separate
    # all()/next() generator scans cost about 10% of a global evaluation
    valid, note = True, None
    for pv in parts:
        valid = valid and pv.valid
        note = note or pv.note
    checked = ProbValue.checked(value, note)
    return checked if valid else ProbValue(value, False, checked.note)


def _lenient_sum(values) -> float:
    """Compensated sum, except non-finite inputs degrade to IEEE semantics
    (inf/nan) instead of raising; broken values stay visible downstream."""
    vals = list(values)
    if all(math.isfinite(v) for v in vals):
        return stable_sum(vals)
    return float(sum(vals))


class GlobalComputation:
    """One full run of the size recursion, memoized over subinstance vertex counts."""

    def __init__(self, v: int, p: float, k: int, r: int, provider: LocalProvider):
        if v < 0:
            raise ValueError(f"v must be >= 0, got {v}")
        _check_kpr(k, p, r)
        if provider.k != k or provider.p != p or provider.r != r:
            raise ValueError("provider was built for different (k, p, r)")
        self.v = v
        self.p = p
        self.k = k
        self.r = r
        self.provider = provider
        self._sizes: dict[int, dict[int, ProbValue]] = {}

    def sizes(self, n: int | None = None) -> dict[int, ProbValue]:
        """Per-size values {u: P[lone core of size u]} on an n-vertex instance."""
        n = self.v if n is None else n
        got = self._sizes.get(n)
        if got is None:
            got = self._compute_sizes(n)
            self._sizes[n] = got
        return got

    def _compute_sizes(self, n: int) -> dict[int, ProbValue]:
        out: dict[int, ProbValue] = {}
        for u in range(n, self.k - 1, -1):  # descending: size u consumes all x > u
            lone = self.lone_core_prob(u, n, out)
            others = self.no_distinct_core_prob(u, n)
            out[u] = _merged(lone.value * others.value, (lone, others))
        return out

    def lone_core_prob(self, u: int, n: int | None = None,
                       partial: dict[int, ProbValue] | None = None) -> ProbValue:
        """P[some u-subset carries a core contained in no larger one], given
        the already-computed values for sizes above u."""
        n = self.v if n is None else n
        sizes = partial if partial is not None else self.sizes(n)
        local = self.provider.value(u)
        above = [sizes[x] for x in range(u + 1, n + 1)]
        value = choose(n, u) * local.value
        for x, pv in enumerate(above, u + 1):
            value *= _pow_one_minus(pv.value, choose_float(n - u, x - u))
        return _merged(value, [local, *above])

    def no_distinct_core_prob(self, u: int, n: int | None = None) -> ProbValue:
        """P[no further core forms among the n-u vertices left over]."""
        n = self.v if n is None else n
        rest = n - u
        sub = self.sizes(rest)  # empty dict when rest < k
        return _merged(1.0 - _lenient_sum(pv.value for pv in sub.values()), sub.values())

    def result(self) -> GlobalResult:
        per_size = self.sizes(self.v)
        exactly = _merged(_lenient_sum(pv.value for pv in per_size.values()), per_size.values())
        invalid_sizes = [u for u, pv in per_size.items() if not pv.valid]
        return GlobalResult(
            v=self.v, p=self.p, k=self.k, r=self.r, method=self.provider.method,
            per_size=per_size,
            exactly_one=exactly,
            bound=_geometric_bound(exactly),
            breakdown_at=max(invalid_sizes) if invalid_sizes else None,
        )


def _geometric_bound(exactly_one: ProbValue) -> ProbValue:
    """Geometric-series upper bound S/(1-S) on the at-least-one probability."""
    s = exactly_one.value
    if not math.isfinite(s):
        return ProbValue(s, False, exactly_one.note or "exactly-one total is not finite")
    if s >= 1.0:
        return ProbValue(1.0, False,
                         "exactly-one total >= 1: geometric series diverges")
    value = s / (1.0 - s)
    if not exactly_one.valid:
        return ProbValue(value, False, exactly_one.note)
    if s < -PROB_TOL:
        return ProbValue(value, False, exactly_one.note or "negative exactly-one total")
    if value > 1.0:
        return ProbValue(value, True, "vacuous upper bound (> 1)")
    return ProbValue(value)


def exactly_one_core(v: int, p: float, k: int, r: int,
                     method: str = "connectivity",
                     provider: LocalProvider | None = None) -> GlobalResult:
    """Run the size recursion on (v, p, k, r) and return the full result."""
    if provider is None:
        provider = LocalProvider(method, k, p, r)
    return GlobalComputation(v, p, k, r, provider).result()


def at_least_one_bound(v: int, p: float, k: int, r: int,
                       method: str = "connectivity",
                       provider: LocalProvider | None = None) -> ProbValue:
    """Geometric upper bound on the probability that at least one core forms."""
    return exactly_one_core(v, p, k, r, method, provider).bound


def lower_bound(bound: ProbValue) -> ProbValue:
    """``bound`` read as a lower bound on a probability: above 1 it bounds
    nothing, so it is flagged invalid (value kept verbatim)."""
    if bound.valid and bound.value > 1.0 + PROB_TOL:
        return ProbValue(bound.value, False, "lower bound above 1")
    return bound


def interleaving_bounds(v: int, p: float, k: int, r: int) -> tuple[ProbValue, ProbValue]:
    """(lower, upper) bracket of the r-core probability from the interleaved model:
    the geometric bound evaluated at edge probability p/r and at p."""
    _check_kpr(k, p, r)
    lower = lower_bound(at_least_one_bound(v, p / r, k, r, method="interleaved"))
    upper = at_least_one_bound(v, p, k, r, method="interleaved")
    return lower, upper
