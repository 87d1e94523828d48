"""Formula values at one point, parameter sweeps over expected edge count, and
numerical-breakdown scans.

``formula_value`` evaluates a formula method (``local_prob.FORMULA_METHODS``,
re-exported here) at one point in either scope: it hands p and the method to
``local_prob.LocalProvider``, the memo over the method's ``local_prob.METHODS`` entry,
in local scope, or to ``global_prob.exactly_one_core`` in global scope.
The paper's bracket is the ``interleaved-lower`` and ``interleaved-upper`` methods in
global scope: the global bound with the interleaved source at p / r (lower side) and at
p (upper side), a choice each method's entry makes.  A lower bound above 1 bounds
nothing, so ``formula_value`` flags the value of a method that ``METHODS`` marks as a
lower bound invalid there and keeps it verbatim.  In the tail the two sides cross even
where both are flagged valid, so there they bracket nothing (the strict xfails of
``tests/test_global_prob.py::TestInterleavingBounds`` carry the numbers).

A sweep fixes (k, r) and an *overhead* x (the vertex-to-edge ratio), then
walks the expected edge count e over an integer range with v = round(x * e)
and p = e / C(v, k).  Two scopes exist:

* ``local``  -- the quantities are subset-local: formation on all v vertices
  of a v-vertex instance (the e_u = u style experiments use overhead 1); the
  ``mc`` column is ``montecarlo.mc_local``.
* ``global`` -- the quantities are whole-graph: the geometric bound on
  at-least-one-core, and peeling-based Monte Carlo (``montecarlo.mc_global``).

Rows where e exceeds the number of candidate edges clamp p to 1 (such points
are still well defined); every computed value is emitted verbatim together
with its validity flag.

Breakdown detection is one rule, ``first_failure``: along increasing e, the first
value flagged invalid or rising after the curve has descended from its running
maximum (past their peak the curves decrease in the stable regime).  Points with
v < k are structural zeros and are not read.  ``run_sweep`` holds every row of the
one scan over e, at most ``SWEEP_ROW_GUARD``; ``find_breakdown`` feeds the rule the
scan over e = 1..cap lazily, so it computes no row past the first failure.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

from . import montecarlo
from .global_prob import exactly_one_core
from .kernels import trial_seed
from .local_prob import FORMULA_METHODS, METHODS, LocalProvider, methods_for
from .numerics import PROB_TOL, ProbValue, check_at_least, check_kpr, choose, count_text

__all__ = [
    "FORMULA_METHODS",
    "SWEEP_METHODS",
    "formula_value",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "first_failure",
    "run_sweep",
    "find_breakdown",
]

SWEEP_METHODS = (*methods_for("sweep"), "mc")
SCOPES = ("local", "global")

# Relative slack for the monotonicity heuristic, so flat tails of equal
# floats do not fire on last-ulp noise.
_INCREASE_RTOL = 1e-9
# Most rows ``run_sweep`` holds (and the CLI writes).  CLI peak RSS at this
# bound, CSV / JSON to a file: 72 / 90 MB with one formula method, 174 / 204 MB
# with all four and mc (shared 2-vCPU host, numpy 2.4).  ``find_breakdown``
# holds no rows, so its cap is not bounded.
SWEEP_ROW_GUARD = 2**16


def _check_scope(scope: str) -> None:
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: methods evaluated on a range of expected edge counts."""

    k: int
    r: int
    overhead: float
    e_min: int
    e_max: int
    methods: tuple[str, ...]
    trials: int = 10_000
    seed: int = 0
    scope: str = "global"

    def __post_init__(self) -> None:
        check_kpr(self.k, 0.0, self.r)  # p = 0 lies in every model
        if not 0 < self.overhead < math.inf:  # nan fails too
            raise ValueError(f"overhead must be positive and finite, got {self.overhead}")
        if self.e_min > self.e_max or self.e_min < 1:
            raise ValueError(f"empty or invalid e range [{self.e_min}, {self.e_max}]")
        # v = round(overhead * e); an e_max past the double range has no float product
        if self.e_max > sys.float_info.max or not math.isfinite(self.overhead * self.e_max):
            raise ValueError(f"overhead * e_max = {self.overhead} * {count_text(self.e_max)} "
                             "is not finite")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in SWEEP_METHODS:
                raise ValueError(f"unknown method {m!r}; pick from {SWEEP_METHODS}")
        _check_scope(self.scope)
        montecarlo._check_trials(self.trials, self.seed)  # the estimators' checks


@dataclass
class SweepRow:
    e: int
    v: int
    p: float
    values: dict[str, ProbValue] = field(default_factory=dict)
    mc: montecarlo.McEstimate | None = None


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list[SweepRow]
    breakdown_at: dict[str, int | None]


def point_geometry(k: int, overhead: float, e: int) -> tuple[int, float]:
    """(v, p) for expected edge count e: v = round(overhead * e), p = e / C(v, k).

    Rounding is half-up so ties resolve identically everywhere.  p is clamped
    to 1 when e exceeds the candidate edge count (the e = u style scans start
    in that regime); C(v, k) = 0 gives p = 0.
    """
    v = max(1, int(math.floor(overhead * e + 0.5)))
    m = choose(v, k)
    p = min(1.0, e / m) if m > 0 else 0.0
    return v, p


def formula_value(method: str, scope: str, v: int, p: float, k: int, r: int) -> ProbValue:
    """Value of a formula method at (v, p, k, r).

    Local scope: the method's local value on all v vertices.  Global scope:
    the geometric bound on at-least-one-core built from those values, flagged
    invalid above 1 for a method ``local_prob.METHODS`` marks as a lower bound.
    """
    if method not in FORMULA_METHODS:
        raise ValueError(f"unknown formula method {method!r}; pick from {FORMULA_METHODS}")
    _check_scope(scope)
    if scope == "local":
        return LocalProvider(method, k, p, r).value(v)
    bound = exactly_one_core(v, p, k, r, method).bound
    if METHODS[method].lower and bound.valid and bound.value > 1.0 + PROB_TOL:
        return ProbValue(bound.value, False, "lower bound above 1")
    return bound


def first_failure(points: Iterable[tuple[int, float, bool]]) -> int | None:
    """The first e of the (e, value, valid) points, read lazily in increasing e,
    whose value is flagged invalid or rises (past ``_INCREASE_RTOL``) from a
    previous value below the running maximum, i.e. after the curve has
    descended from its peak; None if no point fails."""
    prev = run_max = -math.inf  # no point has been read: nothing has descended yet
    for e, value, valid in points:
        if not valid or (prev < run_max and value > prev * (1.0 + _INCREASE_RTOL) + 1e-300):
            return e
        run_max = max(run_max, value)
        prev = value
    return None


def _scan(spec: SweepSpec) -> Iterator[SweepRow]:
    """The sweep's rows in increasing e, with a value for each formula method of
    the spec, and the scope's Monte Carlo estimate when it asks for ``mc``."""
    formulas = [m for m in spec.methods if m != "mc"]
    for e in range(spec.e_min, spec.e_max + 1):
        v, p = point_geometry(spec.k, spec.overhead, e)
        row = SweepRow(e=e, v=v, p=p)
        for m in formulas:
            row.values[m] = formula_value(m, spec.scope, v, p, spec.k, spec.r)
        if "mc" in spec.methods:
            # stable per-point seed: rows keep their draws if the range changes
            estimate = montecarlo.mc_local if spec.scope == "local" else montecarlo.mc_global
            row.mc = estimate(v, spec.k, p, spec.r, spec.trials, trial_seed(spec.seed, e))
        yield row


def _points(rows: Iterable[SweepRow], method: str, k: int) -> Iterator[tuple[int, float, bool]]:
    """(e, value, valid) of ``method`` on the rows with v >= k, lazily."""
    return ((row.e, *row.values[method][:2]) for row in rows if row.v >= k)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested method at every point of the sweep.  A sweep of
    more than ``SWEEP_ROW_GUARD`` rows is refused before any row is computed."""
    n_rows = spec.e_max - spec.e_min + 1
    if n_rows > SWEEP_ROW_GUARD:
        raise ValueError(f"sweep of {count_text(n_rows)} rows exceeds the row guard "
                         f"{SWEEP_ROW_GUARD}")
    rows = list(_scan(spec))
    return SweepResult(spec, rows, {m: first_failure(_points(rows, m, spec.k))
                                    for m in spec.methods if m != "mc"})


def find_breakdown(k: int, r: int, overhead: float, method: str,
                   scope: str = "local", cap: int = 500) -> int | None:
    """The breakdown threshold of the sweep over e = 1..cap, found by stopping
    the sweep at its first failure; None if no failure at or below ``cap``.
    Only formula methods can break down.  The scan starts at the first e with
    v >= k, since the structural zeros before it are not read."""
    if method not in FORMULA_METHODS:
        raise ValueError(f"breakdown scan needs a formula method, got {method!r}")
    check_at_least("cap", cap)
    spec = SweepSpec(k, r, overhead, 1, cap, (method,), scope=scope)
    start = next((e for e in range(1, cap + 1) if point_geometry(k, overhead, e)[0] >= k), None)
    if start is None:
        return None
    return first_failure(_points(_scan(replace(spec, e_min=start)), method, k))
