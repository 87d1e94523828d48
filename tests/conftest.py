"""Shared brute-force oracles: exhaustive enumeration, independent of the
formula code paths they validate."""
import math

import pytest

from corebound import choose, enumerate_all, has_rcore_on, is_connected_on


def enumeration_prob(v, k, p, indicator):
    """Sum of p^|E| (1-p)^(M-|E|) * indicator(h) over every hypergraph on v vertices."""
    m = choose(v, k)
    weights = []
    for h in enumerate_all(v, k):
        if indicator(h):
            n_e = len(h.edges)
            weights.append(p**n_e * (1.0 - p) ** (m - n_e))
    return math.fsum(weights)


def connected_prob_oracle(u, k, p):
    """Exhaustive probability that all u vertices form one connected component."""
    full = frozenset(range(u))
    return enumeration_prob(u, k, p, lambda h: is_connected_on(h, full))


def min_degree_prob_oracle(u, k, p, r):
    """Exhaustive probability that every vertex has induced degree >= r."""
    full = frozenset(range(u))
    return enumeration_prob(u, k, p, lambda h: has_rcore_on(h, full, r))


@pytest.fixture(scope="session")
def warm_kernels():
    """Run each Monte Carlo driver once so timed tests measure the computation,
    not first-call set-up."""
    from corebound import mc_global, mc_local

    mc_local(4, 3, 0.5, 1, "connectivity", trials=10, seed=0)
    mc_local(4, 3, 0.5, 2, "min-degree", trials=10, seed=0)
    mc_global(4, 3, 0.5, 1, trials=10, seed=0)
