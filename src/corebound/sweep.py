"""The formula-method table, parameter sweeps over expected edge count, and
numerical-breakdown scans.

``METHOD_TABLE`` is the one place that maps a formula method to its computation: a
source of ``local_prob.LocalProvider``, evaluated at p or at p / r.  ``formula_value``
evaluates a method at one point for every subcommand and scope.  The paper's bracket is
its ``interleaved-lower`` and ``interleaved-upper`` methods in global scope: the global
bound with the interleaved source at p / r (lower side) and at p (upper side).  A lower
value above 1 bounds nothing, so ``formula_value`` flags it invalid and keeps it
verbatim.  In the tail the two sides cross even where both are flagged valid, so there
they bracket nothing (the strict xfails of
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

Breakdown detection per formula method follows two signals, whichever fires
first along increasing e: the value's validity flag, or a monotonicity
heuristic (the curves decrease once past their peak in the stable regime, so
a strict increase after having descended from the running maximum marks
numerical failure).  Points with v < k are structural zeros and feed no
detector.  ``run_sweep`` collects every row of the one scan over e, and
``find_breakdown`` is a sweep over e = 1..cap stopped at its first failure.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from . import montecarlo
from .global_prob import exactly_one_core
from .kernels import trial_seed
from .local_prob import LocalProvider
from .numerics import PROB_TOL, ProbValue, check_kpr, choose

__all__ = [
    "METHOD_TABLE",
    "FORMULA_METHODS",
    "SWEEP_METHODS",
    "formula_value",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "BreakdownDetector",
    "run_sweep",
    "find_breakdown",
]

# Formula method -> (source in local_prob.LOCAL_METHODS, evaluated at p / r);
# every subcommand and scope evaluates methods through it.
METHOD_TABLE = {
    "connectivity": ("connectivity", False),
    "covering": ("covering", False),
    "interleaved-lower": ("interleaved", True),
    "interleaved-upper": ("interleaved", False),
}
FORMULA_METHODS = tuple(METHOD_TABLE)
SWEEP_METHODS = FORMULA_METHODS + ("mc",)
SCOPES = ("local", "global")

# Relative slack for the monotonicity heuristic, so flat tails of equal
# floats do not fire on last-ulp noise.
_INCREASE_RTOL = 1e-9


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
        if not math.isfinite(self.overhead * self.e_max):  # v = round(overhead * e)
            raise ValueError(f"overhead * e_max = {self.overhead} * {self.e_max} is not finite")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in SWEEP_METHODS:
                raise ValueError(f"unknown method {m!r}; pick from {SWEEP_METHODS}")
        _check_scope(self.scope)
        montecarlo._check_trials(self.trials, self.seed, 0)  # the estimators' checks


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

    Local scope: the method's local source on all v vertices.  Global scope:
    the geometric bound on at-least-one-core built from that source; a method
    evaluated at p / r is the lower side of the bracket, so above 1 it is
    flagged invalid.
    """
    if method not in METHOD_TABLE:
        raise ValueError(f"unknown formula method {method!r}; pick from {FORMULA_METHODS}")
    _check_scope(scope)
    check_kpr(k, p, r)
    source, at_p_over_r = METHOD_TABLE[method]
    q = p / r if at_p_over_r else p
    if scope == "local":
        return LocalProvider(source, k, q, r).value(v)
    bound = exactly_one_core(v, q, k, r, source).bound
    if at_p_over_r and bound.valid and bound.value > 1.0 + PROB_TOL:
        return ProbValue(bound.value, False, "lower bound above 1")
    return bound


class BreakdownDetector:
    """Feed (e, value, valid) in increasing e; reports the first failing e.

    Fires on the first invalid value, or on a strict relative increase that
    happens strictly below the running maximum (i.e. after the curve has
    already descended from its peak).
    """

    def __init__(self) -> None:
        self.threshold: int | None = None
        self._prev: float | None = None
        self._run_max = -math.inf

    def push(self, e: int, value: float, valid: bool) -> None:
        if self.threshold is not None:
            return
        if not valid:
            self.threshold = e
            return
        if (self._prev is not None
                and value > self._prev * (1.0 + _INCREASE_RTOL) + 1e-300
                and self._prev < self._run_max):
            self.threshold = e
            return
        self._run_max = max(self._run_max, value)
        self._prev = value


def _scan(spec: SweepSpec, detectors: dict[str, BreakdownDetector]) -> Iterator[SweepRow]:
    """The sweep's rows in increasing e, with a value for each formula method
    in ``detectors``, fed to that method's detector before the row is yielded,
    and the scope's Monte Carlo estimate when the spec asks for ``mc``."""
    for e in range(spec.e_min, spec.e_max + 1):
        v, p = point_geometry(spec.k, spec.overhead, e)
        row = SweepRow(e=e, v=v, p=p)
        for m in detectors:
            row.values[m] = formula_value(m, spec.scope, v, p, spec.k, spec.r)
        if "mc" in spec.methods:
            # stable per-point seed: rows keep their draws if the range changes
            estimate = montecarlo.mc_local if spec.scope == "local" else montecarlo.mc_global
            row.mc = estimate(v, spec.k, p, spec.r, spec.trials, trial_seed(spec.seed, e))
        if v >= spec.k:  # points below the smallest possible core are structural zeros
            for m, detector in detectors.items():
                pv = row.values[m]
                detector.push(e, pv.value, pv.valid)
        yield row


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every requested method at every point of the sweep."""
    detectors = {m: BreakdownDetector() for m in spec.methods if m != "mc"}
    rows = list(_scan(spec, detectors))
    return SweepResult(spec, rows, {m: d.threshold for m, d in detectors.items()})


def find_breakdown(k: int, r: int, overhead: float, method: str,
                   scope: str = "local", cap: int = 500) -> int | None:
    """The breakdown threshold of the sweep over e = 1..cap, found by stopping
    the sweep at its first failure; None if no failure at or below ``cap``.
    Only formula methods can break down.  The scan starts at the first e with
    v >= k, since the structural zeros before it feed no detector."""
    if method not in FORMULA_METHODS:
        raise ValueError(f"breakdown scan needs a formula method, got {method!r}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    spec = SweepSpec(k, r, overhead, 1, cap, (method,), scope=scope)
    start = next((e for e in range(1, cap + 1) if point_geometry(k, overhead, e)[0] >= k), None)
    if start is None:
        return None
    detector = BreakdownDetector()
    for _ in _scan(replace(spec, e_min=start), {method: detector}):
        if detector.threshold is not None:
            break
    return detector.threshold
