"""Seeded Monte Carlo estimators plus exhaustive desk-scale oracles.

The estimators are deterministic in their (arguments, seed): trial t draws
its graph from the derived stream seed ``trial_seed(seed, t)``, so a run over
trials [0, n) equals the merge of runs over [0, a) and [a, n) with the same
master seed (pass ``start=a`` for the second block).

The oracles enumerate every hypergraph on the candidate edge set (guarded to
at most 2^20 instances) and are the ground truth the formulas and estimators
are validated against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    params = HypergraphParams(u, k, p, r)  # validates the domain
    guarded_count(u, k, GENERATE_GUARD)
    cand = candidate_edges(u, k)
    successes = kernels.mc_local_successes(cand, u, params.p, r, predicate,
                                           trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def mc_global(v: int, k: int, p: float, r: int,
              trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that peeling leaves a nonempty r-core anywhere."""
    _check_trials(trials)
    params = HypergraphParams(v, k, p, r)
    guarded_count(v, k, GENERATE_GUARD)
    cand = candidate_edges(v, k)
    successes = kernels.mc_global_successes(cand, v, params.p, r, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def exact_global(v: int, k: int, p: float, r: int) -> float:
    """Exact probability of a nonempty r-core, by summing p^|E| (1-p)^(M-|E|)
    over every edge subset whose peel survives.  Guarded to C(v,k) <= 20."""
    HypergraphParams(v, k, p, r)
    guarded_count(v, k, ENUMERATE_GUARD)
    return kernels.exhaustive_global_prob(candidate_edges(v, k), v, r, p)


def _mask_weights(m: int, p: float):
    """Edge-subset iteration order and the weight p^|E| (1-p)^(M-|E|) per mask.

    Weights go through log space so that nothing underflows at M = 20 when p
    is extreme; p in {0, 1} collapses to the single all-or-nothing mask.
    """
    if p == 0.0 or p == 1.0:
        return [(1 << m) - 1 if p == 1.0 else 0], lambda mask: 1.0

    log_p, log_1m = math.log(p), math.log1p(-p)

    def weigh(mask: int) -> float:
        n_e = mask.bit_count()
        return math.exp(n_e * log_p + (m - n_e) * log_1m)

    return range(1 << m), weigh


def exact_exactly_one(v: int, k: int, p: float, r: int, semantics: str = "minimal") -> float:
    """Exact probability that exactly one r-core vertex set exists.

    An r-core vertex set is any subset on which the induced subgraph has
    minimum degree >= r.  Since such sets are partially ordered by inclusion,
    "exactly one" needs a convention: ``"minimal"`` counts inclusion-minimal
    core sets, ``"maximal"`` counts inclusion-maximal ones.
    """
    if semantics not in ("minimal", "maximal"):
        raise ValueError(f"semantics must be 'minimal' or 'maximal', got {semantics!r}")
    HypergraphParams(v, k, p, r)
    m = guarded_count(v, k, ENUMERATE_GUARD)
    cand = [tuple(int(x) for x in row) for row in candidate_edges(v, k)]

    # candidate subsets (as vertex bitmasks) with their induced edge masks and
    # per-vertex incidence masks
    subsets = []
    for smask in range(1, 1 << v):
        verts = [x for x in range(v) if smask >> x & 1]
        if len(verts) < k:
            continue
        emask = 0
        inc = {x: 0 for x in verts}
        for j, edge in enumerate(cand):
            if all(smask >> x & 1 for x in edge):
                emask |= 1 << j
                for x in edge:
                    inc[x] |= 1 << j
        subsets.append((smask, emask, inc))

    masks, weigh = _mask_weights(m, p)
    total = []
    for mask in masks:
        cores = []
        for smask, emask, inc in subsets:
            present = mask & emask
            if all((present & inc[x]).bit_count() >= r for x in inc):
                cores.append(smask)
        if semantics == "minimal":
            chosen = [c for c in cores if not any(o != c and o & c == o for o in cores)]
        else:
            chosen = [c for c in cores if not any(o != c and o & c == c for o in cores)]
        if len(chosen) == 1:
            total.append(weigh(mask))
    return math.fsum(total)


def exact_local(u: int, k: int, p: float, r: int) -> float:
    """Exact probability that an r-core spans all u vertices (induced minimum
    degree >= r on the whole subset), by enumeration.  Guarded to C(u,k) <= 20."""
    HypergraphParams(u, k, p, r)
    m = guarded_count(u, k, ENUMERATE_GUARD)
    cand = [tuple(int(x) for x in row) for row in candidate_edges(u, k)]
    inc = [0] * u
    for j, edge in enumerate(cand):
        for x in edge:
            inc[x] |= 1 << j
    masks, weigh = _mask_weights(m, p)
    total = []
    for mask in masks:
        if all((mask & inc[x]).bit_count() >= r for x in range(u)):
            total.append(weigh(mask))
    return math.fsum(total)
