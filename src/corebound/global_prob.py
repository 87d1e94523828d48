"""Composition of local subset probabilities into whole-graph core probabilities.

``exactly_one_core`` estimates the probability that a single r-core, and no
other, forms anywhere on v vertices.  On an n-vertex instance the per-size
value for size u is the product of

* the probability some u-subset carries a core and is contained in no larger
  one: ``C(n,u) * local(u) * prod_{x>u} (1 - C_x)^(C(n-u, x-u))``, where C_x
  is the per-size value for size x on the same instance, and
* the probability no distinct core forms among the other n-u vertices:
  ``1 - sum_x C_x`` over the per-size values of the (n-u)-vertex instance.

``GlobalComputation`` builds the "no distinct core" values of the instances
on 0..v-k vertices in one ascending pass, each from the per-size values of
its own level, and reads local(u) from the ``local_prob.LocalProvider`` it
builds for its local source at (k, p, r).  Level n works down from u = n, so
every C_x with x > u is known when size u needs it.

Every value (local, lone-core, per-size, "no distinct core") is a
``(value, valid, note)`` triple.  It is invalid when it leaves [0, 1] (the
rule of ``numerics.range_checked``) or when anything it was computed from is
invalid, and it carries the first note among its inputs.

The geometric-series step then upper-bounds the probability of at least one
core by ``S / (1 - S)`` where S is the exactly-one total.  Which local
source and edge probability each formula method feeds this module is set in
one place, ``sweep.METHOD_TABLE``; the interleaving bracket (the bound with the
interleaved source at p/r and at p) is ``sweep.interleaving_bounds``.

All arithmetic is carried out and reported verbatim; values that leave
[0, 1] (or inherit from ones that did) are flagged, not repaired.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .local_prob import LocalProvider
from .numerics import ProbValue, binomial_row, range_checked, stable_sum

__all__ = [
    "COMPOSITION_GUARD",
    "GlobalResult",
    "GlobalComputation",
    "exactly_one_core",
    "at_least_one_bound",
]

# Max vertex count of a size composition.  Its binomial rows hold about v^2/2
# floats (tracemalloc: 10.1, 28.9 and 86.1 MiB at v = 1024, 2048 and 4096)
# and its loop takes O(v^3) steps (about 2 minutes at v = 2000), so larger v
# is refused before any row is built.
COMPOSITION_GUARD = 2**11


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


def _merge(value: float, parts: Iterable[tuple]) -> tuple[float, bool, str | None]:
    """``value`` computed from ``parts``: invalid when it leaves [0, 1] or any
    part is invalid, carrying the first note among the parts."""
    valid, note = True, None
    for _, part_valid, part_note in parts:
        valid = valid and part_valid
        note = note or part_note
    return range_checked(value, valid, note)


class GlobalComputation:
    """The size composition on v vertices.

    The constructor builds the float binomial rows C(m, 1..m), m = 0..v, of
    ``numerics.binomial_row`` (inf past the double range, so a value built on
    one is flagged, never raised).  It then makes one ascending pass over
    m = 0..v-k, appending the "no distinct core" triple of the m-vertex
    instance; level m reads triples of at most m - k vertices only.  Local
    values are read from the computation's own ``LocalProvider`` for
    ``method``, whose memo is their one cache: each size is evaluated once,
    when a level that contains it is first asked for.

    Level n yields, for u = n down to k, the lone-core triple of size u and
    the per-size triple it composes with the "no distinct core" triple of
    n - u vertices.  It keeps, for the sizes x above u, the running validity,
    the note of the smallest such x, and ``log1p(-C_x)`` (where C_x <= 0.5;
    else ``1 - C_x`` for ``math.pow``); the exponents C(n-u, x-u) come from
    the binomial rows.  The factors are multiplied one at a time in
    ascending x, so every value is the same float as term-by-term evaluation
    gives.
    """

    def __init__(self, v: int, p: float, k: int, r: int, method: str):
        self.provider = LocalProvider(method, k, p, r)
        if v < 1:
            raise ValueError(f"v must be >= 1, got {v}")
        if v > COMPOSITION_GUARD:
            raise ValueError(f"v = {v} exceeds the size-composition guard {COMPOSITION_GUARD}")
        self.v, self.p, self.k, self.r = v, p, k, r
        self._rows = [binomial_row(m)[1:] for m in range(v + 1)]  # _rows[m][j - 1] = C(m, j)
        self._rest: list[tuple] = []  # _rest[m]: no distinct core on m vertices
        for m in range(v - k + 1):
            sizes = [size for _, _, size in self._level(m)]  # empty below k
            self._rest.append(_merge(1.0 - stable_sum(value for value, _, _ in sizes), sizes))

    def _level(self, n: int):
        """Yield (u, lone, per-size) triples for u = n down to k on an
        n-vertex instance."""
        exp, pow_, log1p, inf = math.exp, math.pow, math.log1p, math.inf
        k, rows, rests, local_value = self.k, self._rows, self._rest, self.provider.value
        above_valid, above_note = True, None
        factors: list[tuple[float | None, float]] = []  # per size above u, largest first
        for u in range(n, k - 1, -1):
            local, local_valid, local_note = local_value(u)
            value = rows[n][u - 1] * local
            # (1 - C_x)^C(n-u, x-u) for x = u+1..n, overflow -> inf; the
            # exponents are integers >= 1 (or inf), so pow raises nothing else
            for e, (log1m, one_minus) in zip(rows[n - u], reversed(factors)):
                try:
                    value *= exp(e * log1m) if log1m is not None else pow_(one_minus, e)
                except OverflowError:
                    value *= inf
            lone = range_checked(value, local_valid and above_valid, local_note or above_note)
            rest_value, rest_valid, rest_note = rests[n - u]
            # _merge of (lone, rest), written out
            size = range_checked(lone[0] * rest_value, lone[1] and rest_valid,
                                 lone[2] or rest_note)
            yield u, lone, size
            x, size_valid, size_note = size
            factors.append((log1p(-x) if x <= 0.5 else None, 1.0 - x))
            above_valid = above_valid and size_valid
            above_note = size_note or above_note

    def _vertex_count(self, n: int | None) -> int:
        """``n`` (v when None); ValueError outside [0, v], where the tables stop."""
        n = self.v if n is None else n
        if not 0 <= n <= self.v:
            raise ValueError(f"vertex count n={n} outside [0, v] = [0, {self.v}]")
        return n

    def _check_size(self, u: int, n: int) -> None:
        if not self.k <= u <= n:
            raise ValueError(f"size u={u} outside [k, n] = [{self.k}, {n}]")

    def sizes(self, n: int | None = None) -> dict[int, ProbValue]:
        """Per-size values {u: P[lone core of size u]} on an n-vertex instance,
        in descending u."""
        return {u: ProbValue(*size) for u, _, size in self._level(self._vertex_count(n))}

    def lone_core_prob(self, u: int, n: int | None = None) -> ProbValue:
        """P[some u-subset carries a core contained in no larger one] on an
        n-vertex instance."""
        n = self._vertex_count(n)
        self._check_size(u, n)
        return ProbValue(*next(lone for size_u, lone, _ in self._level(n) if size_u == u))

    def no_distinct_core_prob(self, u: int, n: int | None = None) -> ProbValue:
        """P[no further core forms among the n-u vertices left over]."""
        n = self._vertex_count(n)
        self._check_size(u, n)
        return ProbValue(*self._rest[n - u])

    def result(self) -> GlobalResult:
        per_size = self.sizes()
        total = stable_sum(pv.value for pv in per_size.values())
        exactly = ProbValue(*_merge(total, per_size.values()))
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
    if value > 1.0:
        return ProbValue(value, True, "vacuous upper bound (> 1)")
    return ProbValue(value)


def exactly_one_core(v: int, p: float, k: int, r: int,
                     method: str = "connectivity") -> GlobalResult:
    """Run the size recursion on (v, p, k, r) and return the full result."""
    return GlobalComputation(v, p, k, r, method).result()


def at_least_one_bound(v: int, p: float, k: int, r: int,
                       method: str = "connectivity") -> ProbValue:
    """Geometric upper bound on the probability that at least one core forms."""
    return exactly_one_core(v, p, k, r, method).bound
