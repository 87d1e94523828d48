"""k-uniform hypergraphs: the one entry check of each random-graph route
(the model-domain check, then the draw or enumeration guard), the candidate
edge array of the exhaustive oracles, and one guarded random draw.

Candidate edges are numbered in colexicographic order (sorted by largest
vertex, ties broken recursively; ``kernels.colex_unrank`` maps a number to
its edge), so a given seed reproduces the same graph bit-for-bit on every
platform.  Vertices are dense 0-based ints.
"""
from __future__ import annotations

from functools import lru_cache

from . import kernels
from .kernels import np
from .numerics import check_at_least, check_kpr, choose, count_text

__all__ = [
    "GENERATE_GUARD",
    "KEPT_GUARD",
    "ENUMERATE_GUARD",
    "EDGE_SLOT_GUARD",
    "candidate_edges",
    "generate",
    "guarded_count",
    "guarded_draws",
]

# Max candidate edges for random generation.  Generation and Monte Carlo
# hold O(BLOCK + kept edges + k*v) memory, not O(C(v, k) * k): they draw in
# BLOCK-sized passes and unrank only the kept candidates; this guard bounds
# the draws per graph.
GENERATE_GUARD = 2**31
# Max expected kept edges per graph, C(v, k) * p, which the draw guard does
# not bound.  Traced peaks (tracemalloc, k=3, one graph, numpy 2.4): a Monte
# Carlo trial and ``generate`` both hold about 64 bytes per kept edge (20 MiB
# at 3.3e5 edges, 134 MiB at 2.2e6), so about 0.27 GB at this bound.  Of
# that, the edge array ``generate`` returns keeps 8k bytes per edge.
KEPT_GUARD = 2**22
ENUMERATE_GUARD = 20    # max candidate edges for exhaustive enumeration
# Max k of ``generate``: its int64 edge array holds k slots per row even when
# it has no row, and numpy refuses a dimension of 2^60 or more.
EDGE_SLOT_GUARD = 2**60 - 1


def guarded_count(v: int, k: int, p: float, r: int) -> None:
    """The entry check of an exhaustive oracle: the model-domain check
    (``check_at_least("v", v)``, then ``check_kpr(k, p, r)``), then
    ValueError when C(v, k) exceeds ``ENUMERATE_GUARD``."""
    check_at_least("v", v)
    check_kpr(k, p, r)
    m = choose(v, k)
    if m > ENUMERATE_GUARD:
        raise ValueError(f"C(v, k) = {count_text(m)} exceeds the enumeration guard "
                         f"{ENUMERATE_GUARD}")


def guarded_draws(v: int, k: int, p: float, r: int) -> None:
    """The entry check of a random draw: the model-domain check
    (``check_at_least("v", v)``, then ``check_kpr(k, p, r)``), then
    ValueError when C(v, k) exceeds ``GENERATE_GUARD`` or its expected kept
    edges C(v, k) * p exceed ``KEPT_GUARD``."""
    check_at_least("v", v)
    check_kpr(k, p, r)
    m = choose(v, k)
    if m > GENERATE_GUARD:
        raise ValueError(f"C(v, k) = {count_text(m)} exceeds the generation guard "
                         f"{GENERATE_GUARD}")
    if m * p > KEPT_GUARD:
        raise ValueError(f"C(v, k) * p = {m * p:.6g} expected edges per graph "
                         f"exceed the kept-edge guard {KEPT_GUARD}")


# Only the exhaustive oracles read the whole array, at most ENUMERATE_GUARD =
# 20 rows; Monte Carlo and ``generate`` unrank just the kept candidates.  The
# small cache stays because the benchmark harness calls ``cache_clear()`` and
# its tracer reads ``cache_info()``.
@lru_cache(maxsize=4)
def candidate_edges(v: int, k: int) -> np.ndarray:
    """All C(v, k) candidate edges in colexicographic order, as (M, k) int64:
    the unranking of every rank (``kernels.colex_unrank``).

    The returned array is cached and read-only; copy before mutating.
    """
    arr = kernels.colex_unrank(np.arange(choose(v, k)), v, k)
    arr.flags.writeable = False
    return arr


def generate(v: int, k: int, p: float, seed: int) -> np.ndarray:
    """Sample one hypergraph on v vertices: every candidate k-edge kept
    independently with probability p.  Returns the kept edges as
    ``kernels.sample_edges`` does, an (m, k) int64 array in colex order.

    Deterministic in (v, k, p, seed).  A Monte Carlo trial ``t`` with master
    seed ``s`` sees exactly ``generate(v, k, p, kernels.trial_seed(s, t))``.
    Unlike ``kernels.sample_edges`` it refuses, before any draw, a point
    outside the model's domain (no core order is read, so r = 1 stands in)
    or past ``GENERATE_GUARD`` or ``KEPT_GUARD`` (``guarded_draws``), then
    a k past ``EDGE_SLOT_GUARD``.  At k > v it returns a (0, k) array.
    """
    guarded_draws(v, k, p, 1)
    if k > EDGE_SLOT_GUARD:
        raise ValueError(f"k = {count_text(k)} exceeds the edge-array guard {EDGE_SLOT_GUARD}")
    return kernels.sample_edges(v, k, p, seed)
