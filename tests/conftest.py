"""Shared brute-force oracles: exhaustive enumeration, independent of the
formula code paths they validate."""
import math

import pytest

from corebound import candidate_edges, choose, kernels


def edge_subsets(v, k):
    """Every edge subset of the C(v, k) candidates on v vertices, as an (m, k)
    int64 array in colexicographic order, in bitmask order over the candidates
    (bit j of the mask keeps candidate j; the first subset is empty)."""
    cand = candidate_edges(v, k)
    for mask in range(1 << len(cand)):
        yield cand[[j for j in range(len(cand)) if mask >> j & 1]]


def min_degree_ok(edges, v, r):
    """True iff every one of the v vertices lies in at least r of ``edges``:
    the Monte Carlo min-degree predicate on one trial."""
    return bool(kernels.PREDICATES["min-degree"](edges, 1, v, r)[0])


def enumeration_prob(v, k, p, indicator):
    """Sum of p^|E| (1-p)^(M-|E|) * indicator(E) over every edge subset E on v vertices."""
    m = choose(v, k)
    weights = []
    for edges in edge_subsets(v, k):
        if indicator(edges):
            n_e = len(edges)
            weights.append(p**n_e * (1.0 - p) ** (m - n_e))
    return math.fsum(weights)


def connected_prob_oracle(u, k, p):
    """Exhaustive probability that all u vertices form one connected component."""
    return enumeration_prob(u, k, p, lambda edges: kernels.connected_all(edges, u))


def min_degree_prob_oracle(u, k, p, r):
    """Exhaustive probability that every vertex has induced degree >= r."""
    return enumeration_prob(u, k, p, lambda edges: min_degree_ok(edges, u, r))


@pytest.fixture(scope="session")
def warm_kernels():
    """Run each Monte Carlo driver once so timed tests measure the computation,
    not first-call set-up."""
    from corebound import mc_global, mc_local

    mc_local(4, 3, 0.5, 1, "connectivity", trials=10, seed=0)
    mc_local(4, 3, 0.5, 2, "min-degree", trials=10, seed=0)
    mc_global(4, 3, 0.5, 1, trials=10, seed=0)
