"""Seeded Monte Carlo estimators plus exhaustive desk-scale oracles.

The estimators are deterministic in their (arguments, seed): a run counts
trials t in [0, trials), and trial t's graph is
``generate(v, k, p, trial_seed(seed, t))``.  The kernels evaluate trials in
blocks (one disjoint-union graph per block) on worker threads (see
:mod:`kernels`); that changes no count, for any worker count.
:func:`mc_global` peels each graph; :func:`mc_local` tests all u vertices
with the rule of ``kernels.mc_local_successes`` (connected at r = 1, minimum
degree r above).

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
a per-subset sum.  Exactly one inclusion-maximal core set is the event of
:func:`exact_global`, so only the minimal reading has an oracle of its own,
:func:`exact_exactly_one`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .kernels import np
from .hypergraph import candidate_edges, guarded_count, guarded_draws
from .numerics import check_at_least

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


def _check_trials(trials: int, seed: int) -> None:
    """Trial count and master seed of a Monte Carlo run.  The seed must lie
    in [0, 2^64): the stream reads it mod 2^64, so a seed outside would run
    the graphs of another seed under its own number."""
    check_at_least("trials", trials)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _candidates(v: int, k: int, p: float, r: int) -> np.ndarray:
    """An exhaustive oracle's candidate edges, after its entry check (``guarded_count``),
    with k cut to v + 1: C(v, k) = 0 either way, and numpy refuses a dimension of 2^60."""
    guarded_count(v, k, p, r)
    return candidate_edges(v, min(k, v + 1))


def mc_local(u: int, k: int, p: float, r: int,
             trials: int = 10_000, seed: int = 0) -> McEstimate:
    """Estimate the probability that an r-core spans all u vertices.

    Each trial samples a hypergraph on exactly u vertices with edge
    probability p (k cut to u + 1, as in :func:`_candidates`) and tests all
    u vertices with the rule of :func:`kernels.mc_local_successes`:
    connectivity at r = 1, minimum degree r at r >= 2."""
    _check_trials(trials, seed)
    check_at_least("u", u)  # under its own name: the model check below would call it v
    guarded_draws(u, k, p, r)
    successes = kernels.mc_local_successes(u, min(k, u + 1), p, r, trials, seed)
    return McEstimate.from_counts(successes, trials, seed)


def mc_global(v: int, k: int, p: float, r: int,
              trials: int = 10_000, seed: int = 0) -> McEstimate:
    """Estimate the probability that peeling leaves a nonempty r-core
    anywhere (k cut to v + 1, as in :func:`_candidates`)."""
    _check_trials(trials, seed)
    guarded_draws(v, k, p, r)
    successes = kernels.mc_global_successes(v, min(k, v + 1), p, r, trials, seed)
    return McEstimate.from_counts(successes, trials, seed)


def exact_global(v: int, k: int, p: float, r: int) -> float:
    """Exact probability of a nonempty r-core, by summing p^|E| (1-p)^(M-|E|)
    over every edge subset E with an r-core set: a vertex set S on which the
    edges of E inside S give every vertex of S degree >= r.  Guarded to
    C(v,k) <= 20.

    A union of core sets is a core set, so peeling leaves the union of all
    of them, and this is the chance that peeling leaves a nonempty core.
    It is also the chance of exactly one inclusion-maximal core set: that
    union is the only maximal one whenever a core set exists.
    """
    return kernels.exhaustive_global_prob(_candidates(v, k, p, r), v, r, p)


def exact_exactly_one(v: int, k: int, p: float, r: int) -> float:
    """Exact probability that exactly one inclusion-minimal r-core vertex set
    exists.  (Exactly one maximal one is :func:`exact_global`.)

    An r-core vertex set is any subset on which the induced subgraph has
    minimum degree >= r.  There is exactly one minimal core set iff the
    intersection of all core sets is itself a core set.  A lone minimal core
    set lies in every core set, so it is the intersection, and an
    intersection that is a core set is the only minimal one.  Each vertex of
    a core set S lies in at least r of the C(|S|-1, k-1) edges inside S that
    can hold it, so only the vertex sets with C(|S|-1, k-1) >= r (hence
    |S| >= k) are read.  The C(v,k) <= 20 guard forces v <= 6 unless
    k >= v-1, and leaves at most 57 such sets at r = 1, 42 at r = 2 and 22
    at r = 3 (all at v = 6).  A vertex lies in the intersection X iff no
    core set misses it, and a graph is accepted iff some core set lies in X.
    X lies in every core set, so such a core set is X, and it is the only
    minimal one; if C is the only minimal one, C is the intersection and
    lies in X.  With no core set nothing is accepted.
    """
    return kernels.exhaustive_exactly_one_prob(_candidates(v, k, p, r), v, r, p)


def exact_local(u: int, k: int, p: float, r: int) -> float:
    """Exact probability that an r-core spans all u vertices (induced minimum
    degree >= r on the whole subset), by enumeration.  Guarded to C(u,k) <= 20."""
    check_at_least("u", u)  # under its own name: the model check below would call it v
    return kernels.exhaustive_local_prob(_candidates(u, k, p, r), u, r, p)
