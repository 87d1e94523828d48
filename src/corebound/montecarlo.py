"""Seeded Monte Carlo estimators plus exhaustive desk-scale oracles.

The estimators are deterministic in their (arguments, seed): trial t draws
its graph from the derived stream seed ``trial_seed(seed, t)``, so a run over
trials [0, n) equals the merge of runs over [0, a) and [a, n) with the same
master seed (pass ``start=a`` for the second block).  The kernels evaluate
trials in blocks (one disjoint-union graph per block, see :mod:`kernels`);
that changes no count, and trial t still sees exactly
``generate(params, trial_seed(seed, t))``.

The oracles enumerate every hypergraph on the candidate edge set (guarded to
at most 2^20 instances) and are the ground truth the formulas and estimators
are validated against.  They run on bitmask blocks: each edge subset is a
uint32 mask, 2^16 of them per numpy block, so memory is bounded per block.
Each oracle counts its accepted subsets by size and sums the weights exactly
(:func:`kernels.subset_prob`), giving the same floats as a per-subset sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .hypergraph import (ENUMERATE_GUARD, GENERATE_GUARD, HypergraphParams,
                         candidate_edges, guarded_count)

__all__ = [
    "McEstimate",
    "mc_local",
    "mc_global",
    "exact_global",
    "exact_exactly_one",
    "exact_local",
]


@dataclass(frozen=True)
class McEstimate:
    """Success counts of a Bernoulli Monte Carlo run with a normal-approximation stderr."""

    successes: int
    trials: int
    mean: float
    stderr: float
    seed: int

    @classmethod
    def from_counts(cls, successes: int, trials: int, seed: int) -> "McEstimate":
        mean = successes / trials
        stderr = math.sqrt(mean * (1.0 - mean) / trials)
        return cls(successes, trials, mean, stderr, seed)

    def merge(self, other: "McEstimate") -> "McEstimate":
        if other.seed != self.seed:
            raise ValueError("cannot merge runs with different master seeds")
        return McEstimate.from_counts(self.successes + other.successes,
                                      self.trials + other.trials, self.seed)


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _check_model(v: int, k: int, p: float, r: int, guard: int) -> None:
    """The model-domain check, then the ``guard`` on the candidate count
    (``guarded_count``)."""
    HypergraphParams(v, k, p, r)
    guarded_count(v, k, guard)


def _candidates(v: int, k: int, p: float, r: int) -> np.ndarray:
    """``candidate_edges(v, k)`` for an exhaustive oracle, after
    :func:`_check_model` with ``ENUMERATE_GUARD``."""
    _check_model(v, k, p, r, ENUMERATE_GUARD)
    return candidate_edges(v, k)


def mc_local(u: int, k: int, p: float, r: int, predicate: str = "connectivity",
             trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that a core spans all u vertices.

    Each trial samples a hypergraph on exactly u vertices with edge
    probability p and tests the chosen predicate on the full vertex set:
    ``"connectivity"`` (the 1-core reading) or ``"min-degree"`` (every vertex
    in at least r induced edges).
    """
    _check_trials(trials)
    if predicate not in kernels.PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    _check_model(u, k, p, r, GENERATE_GUARD)
    successes = kernels.mc_local_successes(u, k, p, r, predicate, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def mc_global(v: int, k: int, p: float, r: int,
              trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that peeling leaves a nonempty r-core anywhere."""
    _check_trials(trials)
    _check_model(v, k, p, r, GENERATE_GUARD)
    successes = kernels.mc_global_successes(v, k, p, r, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def exact_global(v: int, k: int, p: float, r: int) -> float:
    """Exact probability of a nonempty r-core, by summing p^|E| (1-p)^(M-|E|)
    over every edge subset whose peel survives.  Guarded to C(v,k) <= 20."""
    return kernels.exhaustive_global_prob(_candidates(v, k, p, r), v, r, p)


def exact_exactly_one(v: int, k: int, p: float, r: int, semantics: str = "minimal") -> float:
    """Exact probability that exactly one r-core vertex set exists.

    An r-core vertex set is any subset on which the induced subgraph has
    minimum degree >= r.  Since such sets are partially ordered by inclusion,
    "exactly one" needs a convention: ``"minimal"`` counts inclusion-minimal
    core sets, ``"maximal"`` counts inclusion-maximal ones.

    One rule decides both: there is exactly one minimal (maximal) core set iff
    the intersection (union) of all core sets is itself a core set.

    - Minimal.  If C is the only minimal core set, every core set contains a
      minimal one, so it contains C, and the intersection is C.  Conversely,
      an intersection that is a core set lies inside every core set, so it is
      the only minimal one.
    - Maximal.  A union of core sets is a core set, so "maximal" reduces to
      "some core set exists" and equals :func:`exact_global`.  Reading the
      union's row keeps this side an enumeration that does not use peeling,
      so the tests can hold the two methods against each other.

    With no core set the fold stays at all v vertices (at none), no core set
    either, so the rule needs no separate "some core set exists" test.
    """
    if semantics not in ("minimal", "maximal"):
        raise ValueError(f"semantics must be 'minimal' or 'maximal', got {semantics!r}")
    cand = _candidates(v, k, p, r)
    inc = kernels.edge_incidence(cand, v)
    fold, start = ((np.bitwise_and, (1 << v) - 1) if semantics == "minimal"
                   else (np.bitwise_or, 0))

    # vertex subsets S (bit x = vertex x) of size >= k, with their members' incidence
    # masks restricted to the edges induced on S: those touching no vertex outside S
    subsets = []
    for s in range(1 << v):
        inside = np.array([s >> x & 1 for x in range(v)], dtype=bool)
        if inside.sum() >= k:
            outside = np.bitwise_or.reduce(inc[~inside], initial=0)
            subsets.append((s, inc[inside] & ~outside))

    def exactly_one(masks):
        core = np.zeros((1 << v, len(masks)), dtype=bool)  # row S: S is a core set
        meet = np.full(len(masks), start, dtype=np.intp)  # per mask: fold of its core sets
        for s, inc_s in subsets:
            core[s] = kernels.degrees_at_least(masks, inc_s, r)
            fold(meet, np.where(core[s], s, start), out=meet)
        return core[meet, np.arange(len(masks))]

    return kernels.subset_prob(len(cand), p, exactly_one)


def exact_local(u: int, k: int, p: float, r: int) -> float:
    """Exact probability that an r-core spans all u vertices (induced minimum
    degree >= r on the whole subset), by enumeration.  Guarded to C(u,k) <= 20."""
    cand = _candidates(u, k, p, r)
    inc = kernels.edge_incidence(cand, u)
    return kernels.subset_prob(len(cand), p, lambda masks: kernels.degrees_at_least(masks, inc, r))
