"""Composition of local subset probabilities into whole-graph core probabilities.

``exactly_one_core`` estimates the probability that a single r-core, and no
other, forms anywhere on v vertices.  On an n-vertex instance the per-size
value for size u is the product of

* the probability some u-subset carries a core and is contained in no larger
  one: ``C(n,u) * local(u) * prod_{x>u} (1 - C_x)^(C(n-u, x-u))``, where C_x
  is the per-size value for size x on the same instance, and
* the probability no distinct core forms among the other n-u vertices:
  ``1 - sum_x C_x`` over the per-size values of the (n-u)-vertex instance.

``exactly_one_core`` is the composition.  It builds the "no distinct core"
values of the instances on 0..v-k vertices in one ascending pass, each from
the per-size values of its own level, reads level v once, and returns every
term: the per-size, lone-core and "no distinct core" values of each size.
It reads local(u) once per size, in size order, from the
``local_prob.LocalProvider`` it builds for its method at (k, p, r).
Level n works down from u = n, so every C_x with x > u is known when size u
needs it.

Every value (local, lone-core, per-size, "no distinct core") is a
``(value, valid, note)`` triple.  It is invalid when it leaves [0, 1] (the
rule of ``numerics.range_checked``) or when anything it was computed from is
invalid, and it carries the first note among its inputs.

The geometric-series step then upper-bounds the probability of at least one
core by ``S / (1 - S)`` where S is the exactly-one total.  The method is a key
of ``local_prob.METHODS``, whose entry chooses where it is evaluated (p, or p/r
for ``interleaved-lower``), so the interleaving bracket is this bound for
``interleaved-lower`` and ``interleaved-upper``.

All arithmetic is carried out and reported verbatim; values that leave
[0, 1] (or inherit from ones that did) are flagged, not repaired.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .local_prob import RECURSION_GUARD, LocalProvider
from .numerics import (BREAKDOWN_NOTE, PROB_TOL, ProbValue, binomial_row, check_at_least,
                       count_text, range_checked, stable_sum)

__all__ = [
    "GlobalResult",
    "exactly_one_core",
]

@dataclass(frozen=True)
class GlobalResult:
    """Per-size core probabilities plus their composition for one (v, p, k, r)."""

    per_size: dict[int, ProbValue]          # size u -> probability, u = v down to k
    lone_core: dict[int, ProbValue]         # size u -> lone-core term, keys of per_size
    no_distinct_core: dict[int, ProbValue]  # size u -> no core on the v-u left over
    exactly_one: ProbValue                  # sum over sizes
    bound: ProbValue                        # geometric bound on at-least-one
    breakdown_at: int | None                # largest size whose value is invalid


def _merge(value: float, flags: Iterable[bool], notes: Iterable[str | None]) -> ProbValue:
    """``value`` computed from parts with these flags and notes: invalid when
    it leaves [0, 1] or any part is invalid, carrying the first note among
    the parts."""
    return range_checked(value, all(flags), next(filter(None, notes), None))


def _level(n: int, k: int, rows: list[list[float]], rests: list[tuple],
           local: list[tuple], lone: list | None = None):
    """The per-size values, flags and notes of u = n down to k on an n-vertex
    instance, as three lists in that order.

    ``rows[m][j - 1]`` is the float C(m, j), ``rests[m]`` the "no distinct
    core" triple on m <= n - k vertices, and ``local[u]`` the local
    ``ProbValue`` of size u, which ``exactly_one_core`` reads from its
    provider once per size for every level.  When ``lone`` is a list, each
    size's lone-core triple is appended to it, in the same order; only
    level v needs them.  The level keeps, for the sizes x above u, the
    running validity, the note of the smallest such x, and ``log1p(-C_x)``
    (where C_x <= 0.5; else ``1 - C_x`` for ``math.pow``); the exponents
    C(n-u, x-u) come from the binomial rows.  The factors are multiplied one
    at a time in ascending x, so every value is the same float as
    term-by-term evaluation gives.  A nan is the same float whatever its
    sign: IEEE 754 does not interpret a nan's sign, CSV and JSON print none,
    and CPython's float multiply may keep either nan operand.

    The range rule of ``numerics.range_checked``, and the merge of flags and
    notes that ``_merge`` makes, are written out for the lone-core and the
    per-size value of each size: the composition applies them O(v^2) times.
    With two ``range_checked`` calls per size in their place, reading the
    local values once sped compositions at v = 40-80 up 1.08-1.11x; written
    out, 1.19-1.24x.

    Two kinds of factor work are skipped, each because it cannot change a
    bit of the product and because it pays:

    * a size with C_x == 0 (either sign) is left out of the factor list: its
      factor is exp(e * log1p(-C_x)) = exp(+-0.0) = 1.0 exactly, and
      ``value * 1.0`` is ``value``, nan included.  With those sizes back in
      the list, covering levels take 1.3-3.6x as long (connectivity and
      interleaved ones, with few zero sizes, about as long);
    * a product stops once it is nan, which every later factor keeps, or
      +-0.0 when no size above the current one has a C_x outside [0, 1]
      (``wild`` is the largest size above u that has one): every later
      factor is then finite and non-negative, so it keeps the zero and its
      sign.  Without the stop, levels take 1.5-56x as long, more at larger
      v.

    The rules on zeros and on [0, 1] need finite exponents (rows past 1029
    hold inf, and ``inf * -0.0`` is nan), and the rows give them:
    C(n-u, x-u) <= C(n, x), and rounding to a float (inf past the double
    range) keeps that order, so an exponent of size x is inf only where
    C(n, x) is.  There the product starts as inf * local, and C_x is inf or
    nan, never in [0, 1].

    The factors stay stdlib floats: numpy's vectorised ``exp`` is not
    ``math.exp`` to the last bit on every argument, so it would move bits.
    """
    exp, pow_, log1p, inf = math.exp, math.pow, math.log1p, math.inf
    low, high, breakdown = -PROB_TOL, 1.0 + PROB_TOL, BREAKDOWN_NOTE
    values: list[float] = []
    flags: list[bool] = []
    notes: list[str | None] = []
    above_valid, above_note = True, None
    # (x, log1p(-C_x) or None, 1 - C_x) per nonzero size x above u, largest first
    factors: list[tuple[int, float | None, float]] = []
    wild = 0  # the largest size above u whose C_x leaves [0, 1]; 0 for none
    for u in range(n, k - 1, -1):
        local_value, local_valid, local_note = local[u]
        value = rows[n][u - 1] * local_value
        row, off = rows[n - u], u + 1  # row[x - off] = C(n-u, x-u)
        # (1 - C_x)^C(n-u, x-u) for the nonzero sizes x above u, overflow ->
        # inf; the exponents are integers >= 1 (or inf), so pow raises nothing else
        if value == value and (value or wild > u):  # else no factor can change it
            for x, log1m, one_minus in reversed(factors):
                if log1m is None:
                    try:
                        value *= pow_(one_minus, row[x - off])
                    except OverflowError:
                        value *= inf
                else:
                    try:
                        value *= exp(row[x - off] * log1m)
                    except OverflowError:
                        value *= inf
                    else:
                        if value:  # nonzero: a nan made here (inf * 0.0) stays nan
                            continue
                if value != value or not value and x >= wild:
                    break
        # range_checked(value, local_valid and above_valid, local_note or above_note)
        lone_valid, lone_note = local_valid and above_valid, local_note or above_note
        if not low <= value <= high:  # nan and +-inf too
            lone_valid, lone_note = False, lone_note or breakdown
        if lone is not None:
            lone.append((value, lone_valid, lone_note))
        # range_checked of the product with the "no distinct core" triple
        rest_value, rest_valid, rest_note = rests[n - u]
        value *= rest_value
        size_valid, size_note = lone_valid and rest_valid, lone_note or rest_note
        if not low <= value <= high:
            size_valid, size_note = False, size_note or breakdown
        values.append(value)
        flags.append(size_valid)
        notes.append(size_note)
        if value:
            factors.append((u, log1p(-value) if value <= 0.5 else None, 1.0 - value))
            if not wild and not 0.0 <= value <= 1.0:
                wild = u
        above_valid = above_valid and size_valid
        above_note = size_note or above_note
    return values, flags, notes


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
    """Run the size composition on (v, p, k, r) and return every term.

    Builds the float binomial rows C(m, 1..m), m = 0..v, of
    ``numerics.binomial_row`` (inf past the double range, so a value built on
    one is flagged, never raised), then makes one ascending pass over
    m = 0..v-k, appending the "no distinct core" triple of the m-vertex
    instance; level m reads triples of at most m - k vertices only.  Level v
    is read once.  Local values come from one ``LocalProvider`` for
    ``method``, whose memo is their one cache.  Each size k..v is read from
    it once, in ascending order, before any level runs, so a source that
    refuses a size (``exact-enum`` past its guard) names the smallest size it
    refuses.  A smaller instance at the same p is
    ``exactly_one_core(n, p, ...)``.  A v past
    ``local_prob.RECURSION_GUARD`` is refused before any row is built.
    """
    provider = LocalProvider(method, k, p, r)
    check_at_least("v", v)
    if v > RECURSION_GUARD:
        raise ValueError(f"v = {count_text(v)} exceeds the size-composition guard "
                         f"{RECURSION_GUARD}")
    rows = [binomial_row(m)[1:] for m in range(v + 1)]  # rows[m][j - 1] = C(m, j)
    # local[u]: the local ProbValue of size u >= k; no size below k is read
    local = [()] * min(k, v + 1) + [provider.value(u) for u in range(k, v + 1)]
    rests: list[ProbValue] = []  # rests[m]: no distinct core on m vertices
    for m in range(v - k + 1):
        values, flags, notes = _level(m, k, rows, rests, local)  # empty below k
        rests.append(_merge(1.0 - stable_sum(values), flags, notes))
    lones: list[tuple] = []
    values, flags, notes = _level(v, k, rows, rests, local, lones)
    sizes = range(v, k - 1, -1)
    per_size = {u: ProbValue(*size) for u, *size in zip(sizes, values, flags, notes)}
    lone_core = {u: ProbValue(*lone) for u, lone in zip(sizes, lones)}
    exactly = _merge(stable_sum(values), flags, notes)
    invalid_sizes = [u for u, pv in per_size.items() if not pv.valid]
    return GlobalResult(
        per_size=per_size,
        lone_core=lone_core,
        no_distinct_core={u: rests[v - u] for u in per_size},
        exactly_one=exactly,
        bound=_geometric_bound(exactly),
        breakdown_at=max(invalid_sizes) if invalid_sizes else None,
    )
