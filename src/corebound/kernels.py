"""Monte Carlo kernels and the bitmask layer of the exhaustive oracles, on
one numpy path (:func:`backend` names it).

All randomness is a counter-based splitmix64 stream: candidate edge ``j`` of
the graph seeded with ``s`` is included iff
``unit(mix64(s + (j+1)*GOLDEN)) < p``, and trial ``t`` of a Monte Carlo run
with master seed ``m`` uses graph seed ``mix64(m + (t+1)*GOLDEN)``.  So trial
``t`` sees exactly ``hypergraph.generate(params, trial_seed(m, t))``, and
partitioned runs merge exactly (trial indices are global).

The stream is evaluated in blocks of ``BLOCK`` draws, in place in two reused
uint64 buffers of 512 KiB, so each pass over a block stays in cache and no
temporary grows with C(v, k).  The Monte Carlo drivers run their trials in
blocks: one :func:`sample_edge_mask` call draws the graphs of several trials
(at most ``BLOCK`` draws), and the kept edges of a block of trials, with the
vertex ids of trial ``t`` offset by ``t * v``, form one disjoint-union graph
on which each predicate runs once for the whole block.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "backend",
    "mix64",
    "trial_seed",
    "unit_double",
    "sample_edge_mask",
    "peel_survivor_mask",
    "connected_all",
    "min_degree_ok",
    "mc_local_successes",
    "mc_global_successes",
    "edge_incidence",
    "degrees_at_least",
    "subset_prob",
    "exhaustive_global_prob",
]

GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53

# Elements per numpy block: stream draws per pass and edge subsets per
# oracle block.  512 KiB of uint64, so a block's passes stay in cache, and
# memory is bounded per block.
BLOCK = 1 << 16

# Trial vertices, and kept edges, per Monte Carlo predicate block.  Sized by
# peak RSS: blocks of 2^16 peaked about 2.5 MB above per-trial evaluation on
# the small-v benchmark, blocks of 2^14 no higher, at the same speed.
TRIAL_BLOCK = 1 << 14


def backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# splitmix64 stream, scalar and vectorized
# ---------------------------------------------------------------------------

def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit integer (pure Python, wraps mod 2^64)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master: int, index: int) -> int:
    """Derived stream seed for trial ``index`` of a run seeded with ``master``."""
    return mix64(master + (index + 1) * GOLDEN)


def unit_double(bits: int) -> float:
    """Map 64 random bits to a double in [0, 1) using the top 53 bits."""
    return (bits >> 11) * _INV_2_53


def _mix64_rounds(z: np.ndarray, tmp: np.ndarray) -> None:
    """The two multiply rounds of splitmix64, in place in ``z``; ``tmp`` is
    scratch space of the same shape.  The final ``z ^ (z >> 31)`` is left out."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= np.uint64(mult)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array, computed in place in ``z`` (and
    returned)."""
    tmp = np.empty_like(z)
    _mix64_rounds(z, tmp)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _trial_seeds(master: int, start: int, n: int) -> np.ndarray:
    """``trial_seed(master, t)`` for t = start .. start + n - 1, as uint64."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(master & _MASK64)
    return _mix64_vec(z)


# Stream offsets (j+1)*GOLDEN of the candidates in one block, mod 2^64.
_BLOCK_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)


def sample_edge_mask(n_candidates: int, p: float, graph_seed) -> np.ndarray:
    """Boolean inclusion mask over the candidate edges of one graph, or of one
    graph per seed.

    ``graph_seed`` is an int, giving a mask of shape ``(n_candidates,)``, or a
    1-D uint64 array of seeds, giving one row per seed.  Candidate j of the
    graph seeded with s is kept iff
    ``unit_double(mix64(s + (j+1)*GOLDEN)) < p``.

    Integer test.  ``unit(x)`` is the integer ``y = x >> 11 < 2^53`` times
    2^-53, and both that product and ``p * 2^53`` are exact (power-of-two
    scalings), so ``unit(x) < p`` iff ``y < p * 2^53`` iff ``y < limit`` with
    ``limit = ceil(p * 2^53)``.

    Pre-test.  Let z be the value before the final step ``x = z ^ (z >> 31)``
    and ``c = bitlen(limit - 1) + 11``, so that ``y < limit`` implies
    ``x < 2^c``.  Bits 33..63 of x are those of z, and bit i <= 32 of x is
    ``z_i ^ z_(i+31)``.  So if ``x < 2^c``, every bit of z from max(c, 33) up
    is 0; then for c <= i <= 32 the bit ``z_(i+31)`` (at or above both 42 and
    c + 31) is 0 too, so ``z_i = x_i = 0``.  Hence ``z < 2^c``, and only the z
    passing that test (about a fraction p of them, for p >= 2^-42) go on to
    the exact test.  When c = 64 (p > 1/2) every z passes and the exact test
    runs on the whole block.
    """
    if p >= 1.0:
        limit = 1 << 53  # every 53-bit value is kept
    elif p > 0.0:
        limit = math.ceil(math.ldexp(p, 53))
    else:
        limit = 0  # p <= 0 (or nan) keeps nothing
    bound_bits = (limit - 1).bit_length() + 11
    pre = np.uint64(1 << bound_bits) if bound_bits < 64 else None
    scalar = np.ndim(graph_seed) == 0
    seeds = (np.array([int(graph_seed) & _MASK64], dtype=np.uint64) if scalar
             else np.asarray(graph_seed, dtype=np.uint64))
    keep = np.empty((len(seeds), n_candidates), dtype=bool)
    flat = keep.reshape(-1)
    rows = max(1, BLOCK // max(n_candidates, 1))  # seeds per block
    z = np.empty(min(keep.size, BLOCK), dtype=np.uint64)
    tmp = np.empty_like(z)
    for r0 in range(0, len(seeds), rows):
        block_seeds = seeds[r0:r0 + rows]
        for lo in range(0, n_candidates, BLOCK):
            width = min(BLOCK, n_candidates - lo)
            size = len(block_seeds) * width
            zb, tb = z[:size], tmp[:size]
            offset = block_seeds + np.uint64(lo * GOLDEN & _MASK64)
            np.add(_BLOCK_STEPS[:width], offset[:, None], out=zb.reshape(-1, width))
            _mix64_rounds(zb, tb)
            out = flat[r0 * n_candidates + lo:][:size]  # block rows are contiguous
            if pre is None:
                survivors = slice(None)
            else:
                np.less(zb, pre, out=out)
                survivors = np.flatnonzero(out)
                if not survivors.size:
                    continue
            x = zb[survivors]
            x ^= x >> np.uint64(31)
            x >>= np.uint64(11)
            out[survivors] = x < np.uint64(limit)
    return keep[0] if scalar else keep


# ---------------------------------------------------------------------------
# single-instance predicates (the hypergraph API; the Monte Carlo drivers run
# peel_survivor_mask on a whole block of trials)
# ---------------------------------------------------------------------------

def peel_survivor_mask(edges: np.ndarray, v: int, r: int) -> np.ndarray:
    """Vertices surviving batch peeling rounds (remove all deg < r per round).

    Each round keeps only the edges whose vertices all survive, so later
    rounds work on the shrinking remainder."""
    alive = np.ones(v, dtype=bool)
    edges = np.asarray(edges, dtype=np.int64)
    while True:
        low = alive & (np.bincount(edges.ravel(), minlength=v) < r)
        if not low.any():
            return alive
        alive &= ~low
        edges = edges[alive[edges].all(axis=1)]


def connected_all(edges: np.ndarray, v: int) -> bool:
    """True iff the given edges connect all ``v`` vertices (v == 1 is connected)."""
    if v == 1:
        return True
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return False
    parent = list(range(v))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    components = v
    for edge in edges:
        ra = find(int(edge[0]))
        for b in edge[1:]:
            rb = find(int(b))
            if ra != rb:
                parent[rb] = ra
                components -= 1
    return components == 1


def min_degree_ok(edges: np.ndarray, v: int, r: int) -> bool:
    """True iff every one of the ``v`` vertices lies in at least ``r`` edges."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return r <= 0
    deg = np.bincount(edges.ravel(), minlength=v)
    return bool((deg >= r).all())


# ---------------------------------------------------------------------------
# trial-blocked Monte Carlo drivers
# ---------------------------------------------------------------------------

def _as_candidates(cand: np.ndarray) -> np.ndarray:
    cand = np.ascontiguousarray(cand, dtype=np.int64)
    if cand.ndim != 2:
        raise ValueError("candidate edge array must be 2-dimensional")
    return cand


# Per-block predicates: (edges, n, v, r) -> bool per trial, where ``edges``
# are the kept edges of n trials with trial t's vertices at t*v .. t*v + v-1.

def _core_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: peeling leaves a nonempty r-core."""
    return peel_survivor_mask(edges, n * v, r).reshape(n, v).any(axis=1)


def _min_degree_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: every vertex lies in at least r edges."""
    return (np.bincount(edges.ravel(), minlength=n * v).reshape(n, v) >= r).all(axis=1)


def _connected_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: the edges connect all v vertices (v == 1 is connected).

    Min-label hooking with pointer jumping: ``parent[x] <= x`` always, and
    after each jump every vertex points at its tree's root, the tree's
    smallest vertex.  Each round hooks every root met by an edge to the
    smallest root of that edge, until every edge lies inside one tree; then
    the trees are the components, and trial t is connected iff all its
    vertices point at t*v.
    """
    parent = np.arange(n * v)
    while True:
        roots = parent[edges]
        low = roots.min(axis=1)
        if (roots == low[:, None]).all():
            return (parent.reshape(n, v) == np.arange(0, n * v, v)[:, None]).all(axis=1)
        np.minimum.at(parent, roots, low[:, None])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


PREDICATES = {"connectivity": _connected_rows, "min-degree": _min_degree_rows}


def _successes(test, cand: np.ndarray, v: int, p: float, r: int,
               trials: int, master: int, start: int) -> int:
    """Count the trials t in [start, start + trials) whose graph, drawn from
    ``trial_seed(master, t)``, passes the per-block predicate ``test``.

    A block holds at most ``TRIAL_BLOCK // v`` trials, and stops early once
    its kept edges reach ``TRIAL_BLOCK``; each ``sample_edge_mask`` call draws
    at most ``BLOCK`` candidates (or one trial's, when C(v, k) exceeds that).
    """
    cand = _as_candidates(cand)
    m = len(cand)
    per_draw = max(1, BLOCK // max(m, 1))
    per_block = max(1, TRIAL_BLOCK // v)
    successes = 0
    t, stop = start, start + trials
    while t < stop:
        seeds = _trial_seeds(master, t, min(per_block, stop - t))
        parts, kept, n = [], 0, 0
        while n < len(seeds) and kept < TRIAL_BLOCK:
            mask = sample_edge_mask(m, p, seeds[n:n + per_draw])
            rows, cols = np.divmod(np.flatnonzero(mask), m)
            parts.append(cand[cols] + ((rows + n) * v)[:, None])
            kept += len(rows)
            n += len(mask)
        successes += int(np.count_nonzero(test(np.concatenate(parts), n, v, r)))
        t += n
    return successes


def mc_local_successes(cand: np.ndarray, v: int, p: float, r: int, predicate: str,
                       trials: int, seed: int, start: int = 0) -> int:
    """Count trials whose sampled hypergraph satisfies ``predicate`` on all vertices."""
    return _successes(PREDICATES[predicate], cand, v, p, r, trials, seed, start)


def mc_global_successes(cand: np.ndarray, v: int, p: float, r: int,
                        trials: int, seed: int, start: int = 0) -> int:
    """Count trials whose sampled hypergraph peels to a nonempty core."""
    return _successes(_core_rows, cand, v, p, r, trials, seed, start)


# ---------------------------------------------------------------------------
# exhaustive oracles: every edge subset as a uint32 mask, in numpy blocks
# ---------------------------------------------------------------------------

def edge_incidence(cand: np.ndarray, v: int) -> np.ndarray:
    """Per vertex, the uint32 mask of the candidate edges (bit j = row j) containing it."""
    cand = _as_candidates(cand)
    if len(cand) > 32:
        raise ValueError(f"{len(cand)} candidate edges do not fit a uint32 edge mask")
    inc = np.zeros(v, dtype=np.uint32)
    bits = np.left_shift(np.uint32(1), np.arange(len(cand), dtype=np.uint32))
    np.bitwise_or.at(inc, cand, bits[:, None])
    return inc


def degrees_at_least(masks: np.ndarray, inc: np.ndarray, r: int) -> np.ndarray:
    """Per edge mask: every vertex of ``inc`` lies in at least ``r`` of its edges."""
    ok = np.ones(masks.shape, dtype=bool)
    for vertex_edges in inc:
        ok &= np.bitwise_count(masks & vertex_edges) >= r
    return ok


def _peel_survives(masks: np.ndarray, inc: np.ndarray, r: int) -> np.ndarray:
    """Per edge mask: batch peeling (drop every edge at a vertex of degree < r,
    until nothing changes) leaves an edge, i.e. the r-core is nonempty."""
    alive = masks
    while True:
        dead = np.zeros_like(alive)
        for vertex_edges in inc:
            low = np.bitwise_count(alive & vertex_edges) < r
            dead |= np.where(low, vertex_edges, np.uint32(0))
        peeled = alive & ~dead
        if np.array_equal(peeled, alive):
            return alive != 0
        alive = peeled


def subset_prob(m: int, p: float, accept) -> float:
    """Sum of p^|E| (1-p)^(m-|E|) over the edge subsets E that ``accept`` (a block
    of uint32 masks -> bool array) accepts.

    Accepted subsets are counted per size n.  Each count is split into powers
    of two, so ``fsum`` adds exact multiples of the size's weight and returns
    the same correctly rounded float as an ``fsum`` of one weight per subset.
    The weight goes through log space so nothing underflows at m = 20.
    """
    if p == 0.0 or p == 1.0:  # the empty or the full edge set has all the mass
        only = np.array([(1 << m) - 1 if p == 1.0 else 0], dtype=np.uint32)
        return float(accept(only)[0])
    counts = np.zeros(m + 1, dtype=np.int64)
    for lo in range(0, 1 << m, BLOCK):
        block = np.arange(lo, min(lo + BLOCK, 1 << m), dtype=np.uint32)
        counts += np.bincount(np.bitwise_count(block[accept(block)]), minlength=m + 1)
    log_p, log_1m = math.log(p), math.log1p(-p)
    terms = []
    for n, c in enumerate(counts.tolist()):
        w = math.exp(n * log_p + (m - n) * log_1m)
        terms += [math.ldexp(w, j) for j in range(c.bit_length()) if c >> j & 1]
    return math.fsum(terms)


def exhaustive_global_prob(cand: np.ndarray, v: int, r: int, p: float) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over all edge subsets that peel to a nonempty core."""
    inc = edge_incidence(cand, v)
    return subset_prob(len(cand), p, lambda masks: _peel_survives(masks, inc, r))
