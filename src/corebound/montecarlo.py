"""Seeded Monte Carlo estimators plus exhaustive desk-scale oracles.

The estimators are deterministic in their (arguments, seed): trial t draws
its graph from the derived stream seed ``trial_seed(seed, t)``, so a run over
trials [0, n) equals the merge of runs over [0, a) and [a, n) with the same
master seed (pass ``start=a`` for the second block).  The kernels evaluate
trials in blocks (one disjoint-union graph per block, see :mod:`kernels`);
that changes no count, and trial t still sees exactly the edge array
``generate(params, trial_seed(seed, t))`` returns.

The oracles enumerate every hypergraph on the candidate edge set (guarded to
at most 2^20 instances) and are the ground truth the formulas and estimators
are validated against.  They test the definition of an r-core set (a vertex
set in which every vertex lies in at least r of the edges inside it) on
every vertex set that can be one, so they share no algorithm with the
peel of :func:`mc_global`.  They run bit-sliced: bit b of a uint64 word is
one edge subset, at most ``kernels.BLOCK`` (2^16) subsets per block, so
memory is bounded per block and one word operation decides 64 subsets (see
:mod:`kernels`).  Each oracle counts its accepted subsets by size and sums
the weights exactly (:func:`kernels.subset_prob`), giving the same floats as
a per-subset sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .kernels import np
from .hypergraph import HypergraphParams, candidate_edges, guarded_count, guarded_draws

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
        """Both runs' trials as one estimate; it stays for the partitioned-run tests."""
        if other.seed != self.seed:
            raise ValueError("cannot merge runs with different master seeds")
        return McEstimate.from_counts(self.successes + other.successes,
                                      self.trials + other.trials, self.seed)


def _check_trials(trials: int, seed: int, start: int) -> None:
    """Trial count, master seed and first trial index of a Monte Carlo run.
    The seed must lie in [0, 2^64): the stream reads it mod 2^64, so a seed
    outside would run the graphs of another seed under its own number.
    Trial indices past 2^64 wrap (see :func:`kernels.trial_seed`)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")


def _check_u(u: int) -> None:
    """The vertex count of a local run, under its own name: the model check
    that follows would report it as ``v``."""
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")


def _check_draws(v: int, k: int, p: float, r: int) -> None:
    """The model-domain check, then the random-graph guards
    (``guarded_draws``)."""
    HypergraphParams(v, k, p, r)
    guarded_draws(v, k, p)


def _candidates(v: int, k: int, p: float, r: int) -> np.ndarray:
    """``candidate_edges(v, k)`` for an exhaustive oracle, after the
    model-domain check and ``ENUMERATE_GUARD``."""
    HypergraphParams(v, k, p, r)
    guarded_count(v, k)
    return candidate_edges(v, k)


def mc_local(u: int, k: int, p: float, r: int, predicate: str = "connectivity",
             trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that a core spans all u vertices.

    Each trial samples a hypergraph on exactly u vertices with edge
    probability p and tests the chosen predicate on the full vertex set:
    ``"connectivity"`` (the 1-core reading) or ``"min-degree"`` (every vertex
    in at least r induced edges).
    """
    _check_trials(trials, seed, start)
    if predicate not in kernels.PREDICATES:
        raise ValueError(f"unknown predicate {predicate!r}")
    _check_u(u)
    _check_draws(u, k, p, r)
    successes = kernels.mc_local_successes(u, k, p, r, predicate, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def mc_global(v: int, k: int, p: float, r: int,
              trials: int = 10_000, seed: int = 0, start: int = 0) -> McEstimate:
    """Estimate the probability that peeling leaves a nonempty r-core anywhere."""
    _check_trials(trials, seed, start)
    _check_draws(v, k, p, r)
    successes = kernels.mc_global_successes(v, k, p, r, trials, seed, start)
    return McEstimate.from_counts(successes, trials, seed)


def exact_global(v: int, k: int, p: float, r: int) -> float:
    """Exact probability of a nonempty r-core, by summing p^|E| (1-p)^(M-|E|)
    over every edge subset E with an r-core set: a vertex set S on which the
    edges of E inside S give every vertex of S degree >= r.  Peeling leaves
    the union of the core sets, so this is the chance that peeling leaves a
    nonempty core.  Guarded to C(v,k) <= 20."""
    return kernels.exhaustive_global_prob(_candidates(v, k, p, r), v, r, p)


def exact_exactly_one(v: int, k: int, p: float, r: int, semantics: str = "minimal") -> float:
    """Exact probability that exactly one r-core vertex set exists.

    An r-core vertex set is any subset on which the induced subgraph has
    minimum degree >= r.  Since such sets are partially ordered by inclusion,
    "exactly one" needs a convention: ``"minimal"`` counts inclusion-minimal
    core sets, ``"maximal"`` counts inclusion-maximal ones.

    A union of core sets is a core set, so there is exactly one maximal core
    set iff some core set exists, iff peeling leaves a nonempty core:
    ``"maximal"`` is :func:`exact_global`.

    There is exactly one minimal core set iff the intersection of all core
    sets is itself a core set.  A lone minimal core set lies in every core
    set, so it is the intersection, and an intersection that is a core set is
    the only minimal one.  Each vertex of a core set S lies in at least r of
    the C(|S|-1, k-1) edges inside S that can hold it, so only the vertex
    sets with C(|S|-1, k-1) >= r (hence |S| >= k) are read.  The C(v,k) <= 20
    guard forces v <= 6 unless k >= v-1, and leaves at most 57 such sets at
    r = 1, 42 at r = 2 and 22 at r = 3 (all at v = 6).  A vertex lies in the
    intersection X iff no core set misses it, and a graph is accepted iff
    some core set lies in X.  X lies in every core set, so such a core set
    is X, and it is the only minimal one; if C is the only minimal one, C is
    the intersection and lies in X.  With no core set nothing is accepted.
    """
    if semantics not in ("minimal", "maximal"):
        raise ValueError(f"semantics must be 'minimal' or 'maximal', got {semantics!r}")
    if semantics == "maximal":
        return exact_global(v, k, p, r)
    return kernels.exhaustive_exactly_one_prob(_candidates(v, k, p, r), v, r, p)


def exact_local(u: int, k: int, p: float, r: int) -> float:
    """Exact probability that an r-core spans all u vertices (induced minimum
    degree >= r on the whole subset), by enumeration.  Guarded to C(u,k) <= 20."""
    _check_u(u)
    return kernels.exhaustive_local_prob(_candidates(u, k, p, r), u, r, p)
