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


def _candidates(v: int, k: int, p: float, r: int, guard: int) -> np.ndarray:
    """``candidate_edges(v, k)`` after the model-domain check and the
    ``guard`` on the candidate count (``guarded_count``)."""
    HypergraphParams(v, k, p, r)
    guarded_count(v, k, guard)
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
    cand = _candidates(u, k, p, r, GENERATE_GUARD)
    successes = kernels.mc_local_successes(cand, u, p, r, predicate, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def mc_global(v: int, k: int, p: float, r: int,
              trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that peeling leaves a nonempty r-core anywhere."""
    _check_trials(trials)
    cand = _candidates(v, k, p, r, GENERATE_GUARD)
    successes = kernels.mc_global_successes(cand, v, p, r, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def exact_global(v: int, k: int, p: float, r: int) -> float:
    """Exact probability of a nonempty r-core, by summing p^|E| (1-p)^(M-|E|)
    over every edge subset whose peel survives.  Guarded to C(v,k) <= 20."""
    return kernels.exhaustive_global_prob(_candidates(v, k, p, r, ENUMERATE_GUARD), v, r, p)


def exact_exactly_one(v: int, k: int, p: float, r: int, semantics: str = "minimal") -> float:
    """Exact probability that exactly one r-core vertex set exists.

    An r-core vertex set is any subset on which the induced subgraph has
    minimum degree >= r.  Since such sets are partially ordered by inclusion,
    "exactly one" needs a convention: ``"minimal"`` counts inclusion-minimal
    core sets, ``"maximal"`` counts inclusion-maximal ones.

    The union of two core sets is a core set, so there is at most one maximal
    one, and ``"maximal"`` equals :func:`exact_global`.  It is still computed
    here by enumerating vertex subsets, independently of peeling, so the tests
    can hold the two methods against each other.
    """
    if semantics not in ("minimal", "maximal"):
        raise ValueError(f"semantics must be 'minimal' or 'maximal', got {semantics!r}")
    cand = _candidates(v, k, p, r, ENUMERATE_GUARD)
    m = len(cand)
    inc = kernels.edge_incidence(cand, v)
    edge_verts = [sum(1 << int(x) for x in row) for row in cand]

    # vertex subsets S (bit x = vertex x) of size >= k, each with its members'
    # incidence masks restricted to the edges induced on S
    subsets = []
    for s in range(1 << v):
        members = [x for x in range(v) if s >> x & 1]
        if len(members) >= k:
            induced = sum(1 << j for j, e in enumerate(edge_verts) if e & s == e)
            subsets.append((s, inc[members] & np.uint32(induced)))

    def exactly_one(masks):
        core = np.zeros((1 << v, len(masks)), dtype=bool)  # row S: S is a core set
        for s, inc_s in subsets:
            core[s] = kernels.degrees_at_least(masks, inc_s, r)
        if semantics == "maximal":
            core = core[::-1]  # row S holds the complement of S: maximal becomes minimal
        within = np.zeros_like(core)  # row S: some core set is a subset of S
        minimal = np.zeros(len(masks), dtype=np.int64)
        for s in range(1 << v):
            below = np.zeros(len(masks), dtype=bool)
            for x in range(v):
                if s >> x & 1:
                    below |= within[s ^ (1 << x)]
            within[s] = core[s] | below
            minimal += core[s] & ~below
        return minimal == 1

    return kernels.subset_prob(m, p, exactly_one)


def exact_local(u: int, k: int, p: float, r: int) -> float:
    """Exact probability that an r-core spans all u vertices (induced minimum
    degree >= r on the whole subset), by enumeration.  Guarded to C(u,k) <= 20."""
    cand = _candidates(u, k, p, r, ENUMERATE_GUARD)
    inc = kernels.edge_incidence(cand, u)
    return kernels.subset_prob(len(cand), p, lambda masks: kernels.degrees_at_least(masks, inc, r))
