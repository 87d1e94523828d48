"""Composition of local subset probabilities into whole-graph core probabilities.

``exactly_one_core`` estimates the probability that a single r-core, and no
other, forms anywhere on v vertices.  On an n-vertex instance the per-size
value for size u is the product of

* the probability some u-subset carries a core and is contained in no larger
  one: ``C(n,u) * local(u) * prod_{x>u} (1 - C_x)^(C(n-u, x-u))``, where C_x
  is the per-size value for size x on the same instance, and
* the probability no distinct core forms among the other n-u vertices:
  ``1 - sum_x C_x`` over the per-size values of the (n-u)-vertex instance.

``GlobalComputation`` evaluates this in one bottom-up pass over the vertex
count n = 0..v.  Level n works down from u = n, so every C_x with x > u is
known when size u needs it; it keeps one "no distinct core" total, which is
all that higher levels read of it.

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


def _flagged(value: float, valid: bool, note: str | None) -> ProbValue:
    """``value``, invalid when it leaves [0, 1] or ``valid`` is False."""
    checked = ProbValue.checked(value, note)
    return checked if valid else ProbValue(value, False, checked.note)


def _merged(value: float, parts: Iterable[ProbValue]) -> ProbValue:
    """``value`` computed from ``parts``: invalid when it leaves [0, 1] or any
    part is invalid, carrying the first note among the parts."""
    # one plain loop: this runs O(v^2) times per composition, and separate
    # all()/next() generator scans cost about 10% of a global evaluation
    valid, note = True, None
    for pv in parts:
        valid = valid and pv.valid
        note = note or pv.note
    return _flagged(value, valid, note)


def _lenient_sum(values) -> float:
    """Compensated sum, except non-finite inputs degrade to IEEE semantics
    (inf/nan) instead of raising; broken values stay visible downstream."""
    vals = list(values)
    if all(math.isfinite(v) for v in vals):
        return stable_sum(vals)
    return float(sum(vals))


class GlobalComputation:
    """The size composition on v vertices, as one bottom-up pass over the
    vertex count n = 0..v.

    Level n yields, for u = n down to k, the lone-core value of size u and
    the per-size value it composes with the "no distinct core" total of
    n - u vertices.  The level keeps, for the sizes x above u, the running
    validity, the note of the smallest such x, and ``log1p(-C_x)`` (where
    C_x <= 0.5; else ``1 - C_x`` for ``math.pow``); the exponents
    C(n-u, x-u) come from float binomial rows, and the local values from
    one read of the provider per size, both built once per computation.
    Of a finished level only its merged "no distinct core" total is kept.
    The factors are still multiplied one at a time in ascending x, so every
    value is the same float as term-by-term evaluation gives.
    """

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
        self._rows: list[list[float]] = []  # _rows[m][j - 1] = C(m, j), j = 1..m
        self._local: list[ProbValue] = []   # _local[u - k] = provider.value(u)
        self._rest: list[ProbValue] = []    # _rest[m]: no distinct core on m vertices

    def _row(self, m: int) -> list[float]:
        while len(self._rows) <= m:
            n = len(self._rows)
            self._rows.append([choose_float(n, j) for j in range(1, n + 1)])
        return self._rows[m]

    def _locals(self, n: int) -> list[ProbValue]:
        while len(self._local) <= n - self.k:
            self._local.append(self.provider.value(self.k + len(self._local)))
        return self._local

    def _level(self, n: int):
        """Yield (u, lone, per-size value) for u = n down to k on an n-vertex
        instance; lower levels are built first as needed."""
        above_valid, above_note = True, None
        factors: list[tuple[float | None, float]] = []  # per size above u, largest first
        locals_ = self._locals(n)
        for u in range(n, self.k - 1, -1):
            local = locals_[u - self.k]
            value = choose(n, u) * local.value
            # (1 - C_x)^C(n-u, x-u) for x = u+1..n, overflow -> inf; the
            # exponents are integers >= 1 (or inf), so pow raises nothing else
            for e, (log1m, one_minus) in zip(self._row(n - u), reversed(factors)):
                try:
                    value *= math.exp(e * log1m) if log1m is not None else math.pow(one_minus, e)
                except OverflowError:
                    value *= math.inf
            lone = _flagged(value, local.valid and above_valid, local.note or above_note)
            rest = self.no_distinct_core_prob(u, n)
            size = _merged(lone.value * rest.value, (lone, rest))
            yield u, lone, size
            x = size.value
            factors.append((math.log1p(-x) if x <= 0.5 else None, 1.0 - x))
            above_valid = above_valid and size.valid
            above_note = size.note or above_note

    def _check_size(self, u: int, n: int) -> None:
        if not self.k <= u <= n:
            raise ValueError(f"size u={u} outside [k, n] = [{self.k}, {n}]")

    def sizes(self, n: int | None = None) -> dict[int, ProbValue]:
        """Per-size values {u: P[lone core of size u]} on an n-vertex instance,
        in descending u."""
        return {u: size for u, _, size in self._level(self.v if n is None else n)}

    def lone_core_prob(self, u: int, n: int | None = None) -> ProbValue:
        """P[some u-subset carries a core contained in no larger one] on an
        n-vertex instance."""
        n = self.v if n is None else n
        self._check_size(u, n)
        return next(lone for size_u, lone, _ in self._level(n) if size_u == u)

    def no_distinct_core_prob(self, u: int, n: int | None = None) -> ProbValue:
        """P[no further core forms among the n-u vertices left over]."""
        n = self.v if n is None else n
        self._check_size(u, n)
        while len(self._rest) <= n - u:
            sub = [size for _, _, size in self._level(len(self._rest))]  # empty below k
            self._rest.append(_merged(1.0 - _lenient_sum(pv.value for pv in sub), sub))
        return self._rest[n - u]

    def result(self) -> GlobalResult:
        per_size = self.sizes()
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
