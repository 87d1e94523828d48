"""k-uniform hypergraphs: the random model's parameters and guards, the
candidate edge array of the exhaustive oracles, and one guarded random draw.

Candidate edges are numbered in colexicographic order (sorted by largest
vertex, ties broken recursively; ``kernels.colex_unrank`` maps a number to
its edge), so a given seed reproduces the same graph bit-for-bit on every
platform.  Vertices are dense 0-based ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .kernels import np
from .numerics import check_kpr, choose

__all__ = [
    "GENERATE_GUARD",
    "KEPT_GUARD",
    "ENUMERATE_GUARD",
    "HypergraphParams",
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
# A refused count of more digits is written as its first 10 digits and its
# digit count, so the error stays one short line (and str(), which refuses
# ints past 4300 digits, never sees it).
_COUNT_DIGITS = 30


def _count_text(m: int) -> str:
    """The count m >= 0 for an error message: in full up to ``_COUNT_DIGITS``
    digits, else as "3266933136... (330 digits)"."""
    if m < 10**_COUNT_DIGITS:
        return str(m)
    digits = int(m.bit_length() * math.log10(2))  # the digit count, or one less
    digits += m >= 10**digits
    return f"{m // 10**(digits - 10)}... ({digits} digits)"


def guarded_count(v: int, k: int) -> int:
    """C(v, k), the candidate edge count of an exhaustive enumeration;
    ValueError when it exceeds ``ENUMERATE_GUARD``."""
    m = choose(v, k)
    if m > ENUMERATE_GUARD:
        raise ValueError(f"C(v, k) = {_count_text(m)} exceeds the enumeration guard "
                         f"{ENUMERATE_GUARD}")
    return m


def guarded_draws(v: int, k: int, p: float) -> int:
    """C(v, k) for one random graph: ValueError when it exceeds
    ``GENERATE_GUARD`` or its expected kept edges C(v, k) * p exceed
    ``KEPT_GUARD``."""
    m = choose(v, k)
    if m > GENERATE_GUARD:
        raise ValueError(f"C(v, k) = {_count_text(m)} exceeds the generation guard "
                         f"{GENERATE_GUARD}")
    if m * p > KEPT_GUARD:
        raise ValueError(f"C(v, k) * p = {m * p:.6g} expected edges per graph "
                         f"exceed the kept-edge guard {KEPT_GUARD}")
    return m


@dataclass(frozen=True)
class HypergraphParams:
    """The random-model tuple: v vertices, k-uniform edges with probability p, core order r."""

    v: int
    k: int
    p: float
    r: int

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ValueError(f"v must be >= 1, got {self.v}")
        check_kpr(self.k, self.p, self.r)


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


def generate(params: HypergraphParams, seed: int) -> np.ndarray:
    """Sample one hypergraph: every candidate edge kept independently with
    probability p.  Returns the kept edges as ``kernels.sample_edges`` does,
    an (m, k) int64 array in colexicographic order.

    Deterministic in (params, seed).  A Monte Carlo trial ``t`` with master
    seed ``s`` sees exactly ``generate(params, kernels.trial_seed(s, t))``.
    Unlike ``kernels.sample_edges`` it refuses, before any draw, a point past
    ``GENERATE_GUARD`` or ``KEPT_GUARD``.
    """
    guarded_draws(params.v, params.k, params.p)
    return kernels.sample_edges(params.v, params.k, params.p, seed)
