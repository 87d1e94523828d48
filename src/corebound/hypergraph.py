"""k-uniform hypergraphs: random generation, peeling, connectivity, enumeration.

Candidate edges are numbered in colexicographic order (sorted by largest
vertex, ties broken recursively; ``kernels.colex_unrank`` maps a number to
its edge), so a given seed reproduces the same graph bit-for-bit on every
platform.  Vertices are dense 0-based ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from . import kernels
from .kernels import np
from .numerics import check_kpr, choose

__all__ = [
    "GENERATE_GUARD",
    "KEPT_GUARD",
    "ENUMERATE_GUARD",
    "HypergraphParams",
    "Hypergraph",
    "candidate_edges",
    "generate",
    "peel",
    "is_connected_on",
    "has_rcore_on",
    "enumerate_all",
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
# Carlo trial holds about 65 bytes per kept edge (21 MiB at 3.3e5 edges, 137
# MiB at 2.2e6), so about 0.27 GB at this bound; ``generate`` holds about
# 190 (58 and 423 MiB), its edges being Python tuples, so about 0.8 GB.
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


@dataclass(frozen=True)
class Hypergraph:
    """A concrete k-uniform hypergraph: vertex count plus a duplicate-free edge set."""

    v: int
    k: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = set()
        for edge in self.edges:
            if len(edge) != self.k or len(set(edge)) != self.k:
                raise ValueError(f"edge {edge} is not {self.k} distinct vertices")
            if any(not 0 <= x < self.v for x in edge):
                raise ValueError(f"edge {edge} has a vertex outside [0, {self.v})")
            if tuple(edge) != tuple(sorted(edge)):
                raise ValueError(f"edge {edge} is not sorted")
            if edge in seen:
                raise ValueError(f"duplicate edge {edge}")
            seen.add(edge)

    @classmethod
    def from_edges(cls, v: int, k: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        """The hypergraph of ``edges``, sorted; it stays for the tests' hand-built graphs."""
        canon = sorted(tuple(sorted(int(x) for x in e)) for e in edges)
        return cls(v, k, tuple(canon))

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, k) int64 array (empty -> shape (0, k))."""
        if not self.edges:
            return np.empty((0, self.k), dtype=np.int64)
        return np.array(self.edges, dtype=np.int64)


# Only the exhaustive oracles and ``enumerate_all`` read the whole array, at
# most ENUMERATE_GUARD = 20 rows; Monte Carlo and ``generate`` unrank just the
# kept candidates.  The small cache stays because the benchmark harness calls
# ``cache_clear()`` and its tracer reads ``cache_info()``.
@lru_cache(maxsize=4)
def candidate_edges(v: int, k: int) -> np.ndarray:
    """All C(v, k) candidate edges in colexicographic order, as (M, k) int64:
    the unranking of every rank (``kernels.colex_unrank``).

    The returned array is cached and read-only; copy before mutating.
    """
    arr = kernels.colex_unrank(np.arange(choose(v, k)), v, k)
    arr.flags.writeable = False
    return arr


def generate(params: HypergraphParams, seed: int) -> Hypergraph:
    """Sample one hypergraph: every candidate edge kept independently with probability p.

    Deterministic in (params, seed).  A Monte Carlo trial ``t`` with master
    seed ``s`` sees exactly ``generate(params, kernels.trial_seed(s, t))``.
    It stays as the one-graph trial ``tests/test_kernels.py`` checks the counts against.
    """
    guarded_draws(params.v, params.k, params.p)
    edges = kernels.sample_edges(params.v, params.k, params.p, seed)
    return Hypergraph(params.v, params.k, tuple(map(tuple, edges.tolist())))


def peel(h: Hypergraph, r: int) -> frozenset[int]:
    """The maximal r-core of ``h``: repeat rounds removing every vertex of degree < r
    (with its incident edges) until a round removes nothing; return the survivors.
    It stays as the core the oracle tests and acceptance criterion 9 check."""
    mask = kernels.peel_survivor_mask(h.edge_array(), h.v, r)
    return frozenset(int(x) for x in np.flatnonzero(mask))


def _check_subset(h: Hypergraph, subset) -> frozenset[int]:
    sub = frozenset(int(x) for x in subset)
    if not sub:
        raise ValueError("subset must be nonempty")
    if any(not 0 <= x < h.v for x in sub):
        raise ValueError(f"subset {sorted(sub)} not contained in [0, {h.v})")
    return sub


def _induced_on(h: Hypergraph, subset) -> tuple[np.ndarray, int]:
    """The edges lying entirely inside ``subset``, relabelled to 0..|subset|-1
    in vertex order, as an (m, k) array; and |subset|."""
    sub = _check_subset(h, subset)
    relabel = {x: i for i, x in enumerate(sorted(sub))}
    induced = [[relabel[x] for x in e] for e in h.edges if all(x in sub for x in e)]
    arr = np.array(induced, dtype=np.int64) if induced else np.empty((0, h.k), dtype=np.int64)
    return arr, len(sub)


def is_connected_on(h: Hypergraph, subset) -> bool:
    """True iff the subgraph induced on ``subset`` connects all of it.

    Only edges lying entirely inside ``subset`` count; singletons are connected.
    No command calls it: it stays as the tests' slow independent reference.
    """
    return kernels.connected_all(*_induced_on(h, subset))


def has_rcore_on(h: Hypergraph, subset, r: int) -> bool:
    """True iff in the subgraph induced on ``subset`` every vertex has degree
    >= r.  No command calls it: it stays as the tests' independent reference."""
    return kernels.min_degree_ok(*_induced_on(h, subset), r)


def enumerate_all(v: int, k: int) -> Iterator[Hypergraph]:
    """Yield all 2^C(v,k) hypergraphs on v vertices, in bitmask order over the
    colexicographic candidate enumeration (bit j of the mask = candidate j).
    It stays, with no command calling it, as the tests' plain enumeration."""
    m = guarded_count(v, k)
    cand = [tuple(int(x) for x in row) for row in candidate_edges(v, k)]
    for mask in range(1 << m):
        edges = tuple(cand[j] for j in range(m) if mask >> j & 1)
        yield Hypergraph(v, k, edges)
