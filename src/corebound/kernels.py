"""Monte Carlo kernels and the bit-plane layer of the exhaustive oracles, on
one numpy path (:func:`backend` names it).

All randomness is a counter-based splitmix64 stream: candidate edge ``j``
(the k-subset of colex rank j, :func:`colex_unrank`) of the graph seeded
with ``s`` is included iff ``unit(mix64(s + (j+1)*GOLDEN)) < p``, and trial
``t`` of a Monte Carlo run with master seed ``m`` uses graph seed
``mix64(m + (t+1)*GOLDEN)``.  So trial ``t`` sees exactly the edge array
``sample_edges(v, k, p, trial_seed(m, t))``, which is also what the guarded
``hypergraph.generate(v, k, p, trial_seed(m, t))`` returns.  A run counts
trials [0, trials), and its count is the same for any worker count.

The stream is evaluated in blocks of ``BLOCK`` draws, in place in a pair
of 64-byte-aligned uint64 buffers of 512 KiB each that a draw allocates once and reuses for
all its blocks, so each pass over a block stays in cache.  A block yields only the (graph,
rank) pairs of its kept candidates, and only those ranks are unranked into
edges, so no array grows with C(v, k): there is no candidate array and no
mask over the candidates.  The Monte Carlo drivers run their trials in
blocks, each drawn by one call of the step that :func:`sample_edges` also
uses (:func:`_block_edges`): the stream passes of a block cover whole
trials (or one slice of one trial), and the kept edges of the block, with
the vertex ids of its i-th trial offset by ``i * v``, form one
disjoint-union graph on which each predicate runs once for the whole block.
:func:`_successes` counts contiguous trial ranges on worker threads.  The
global count peels (:func:`_core_rows`); the local count picks its test
from r (:func:`mc_local_successes`).

Edges are (m, k) arrays, but the unranking fills them slot-major: a
C-contiguous (k, m) array whose row i holds every edge's i-th vertex, handed
out as its transpose.  The predicates read those k rows (:func:`_slots`, no
copy for such a view) and work slot by slot.  The peel is a fixed point on
the edges: a round sets ``alive = degree >= r`` and keeps the edges with
``alive[s0] & alive[s1] & ...`` (one ``np.compress`` along the rows), until
no edge falls; a fallen vertex stays at degree 0, so no vertex mask carries
over.  On a contiguous row the test and the compress are a few times faster
than the row-major ``alive[edges].all(axis=1)`` and ``edges[mask]``, which
stride over k-element rows.  A row-major array gives the same answers and
is copied once on entry.

The exhaustive oracles enumerate all 2^m subsets of m <= 64 candidate edges
bit-sliced (as in Biham's bitslice DES, 1997): bit b of a uint64 word is
one subset, so one word operation decides 64 of them, in blocks of at most
``BLOCK`` subsets (:func:`_accepted_by_size` gives the layout).  All three
test the core-set definition in one pass (:func:`_core_set_prob`): one
split-half degree count (:func:`_degree_planes`) per (vertex set, vertex)
pair, the pairs grouped by set size and ANDed per set, and a rule per
oracle on the resulting "S is a core set" planes.  So they share no
algorithm with the Monte Carlo peel they validate.

numpy is bound lazily (:func:`_lazy_numpy`): it is imported at the first
attribute read of ``np``, i.e. at the first draw, oracle block or candidate
edge array.  The formula layers never touch it, so a formula command
starts without paying for numpy's import.  ``hypergraph`` and
``montecarlo`` take ``np`` from here.
"""
from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import sys
import threading

__all__ = [
    "backend",
    "mix64",
    "trial_seed",
    "sample_edge_mask",
    "sample_edges",
    "colex_unrank",
    "peel_survivor_mask",
    "connected_all",
    "mc_local_successes",
    "mc_global_successes",
    "edge_incidence",
    "subset_prob",
    "exhaustive_global_prob",
    "exhaustive_local_prob",
    "exhaustive_exactly_one_prob",
]

GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment
_MASK64 = (1 << 64) - 1

# Elements per numpy block: stream draws per pass and edge subsets per
# oracle block.  512 KiB of uint64, so a block's passes stay in cache, and
# memory is bounded per block.
BLOCK = 1 << 16

# Trial vertices, and expected kept edges, per Monte Carlo predicate block.
# Measured with the slot-major predicates on the mc-small-v benchmark (10
# alternating pairs of 20 s runs, numpy 2.4, 2-vCPU host), medians: blocks of
# 2^14 ran 48.0k trials/s at 39.5 MB peak RSS, blocks of 2^16 45.0k trials/s
# at 42.2 MB, slower in 9 of 10 pairs.  On mc-large-v (6 pairs) the two
# were level: 796 and 790 trials/s.
TRIAL_BLOCK = 1 << 14


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Most threads one Monte Carlo run counts its trials on (:func:`_successes`),
# the calling thread included.
WORKERS = _usable_cpus()


def _lazy_numpy():
    """numpy, imported on first attribute access (the ``importlib.util.LazyLoader``
    recipe), or the module itself when it is already imported."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()


def backend() -> str:
    """Name of the kernel backend, always ``"numpy"``; the benchmark's run stamp reads it."""
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


def _trial_seeds(master: int, first: int, n: int) -> np.ndarray:
    """``trial_seed(master, t)`` for t = first .. first + n - 1, as uint64.
    The indices t + 1 wrap mod 2^64, as in :func:`trial_seed`."""
    z = np.arange(n, dtype=np.uint64) + np.uint64((first + 1) & _MASK64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(master & _MASK64)
    return _mix64_vec(z)


@functools.cache
def _block_steps() -> np.ndarray:
    """Stream offsets (j+1)*GOLDEN of the candidates in one block, mod 2^64."""
    return np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)


def sample_edge_mask(n_candidates: int, p: float, graph_seed: int) -> np.ndarray:
    """Boolean inclusion mask, of shape ``(n_candidates,)``, over the
    candidate edges of the graph seeded with ``graph_seed``.  Candidate j of
    the graph seeded with s is kept iff
    ``(mix64(s + (j+1)*GOLDEN) >> 11) * 2^-53 < p``, the draw's top 53 bits
    read as a double in [0, 1); :func:`_draw_kept` finds them.
    """
    keep = np.zeros(n_candidates, dtype=bool)
    keep[_draw_kept(n_candidates, p, _seed_array(graph_seed))[1]] = True
    return keep


def sample_edges(v: int, k: int, p: float, graph_seed: int) -> np.ndarray:
    """The kept edges of the graph on ``v`` vertices seeded with
    ``graph_seed``, as (kept, k) int64 rows in colex order: candidate j of
    the C(v, k) is kept iff ``(mix64(graph_seed + (j+1)*GOLDEN) >> 11) * 2^-53 < p``."""
    return _block_edges(v, k, p, _seed_array(graph_seed))


def _block_edges(v: int, k: int, p: float, seeds: np.ndarray) -> np.ndarray:
    """The kept edges of one graph on ``v`` vertices per seed, as (kept, k)
    int64 rows, with the vertices of seed i's graph offset by ``i * v``: one
    disjoint-union graph, its rows grouped by seed and in colex order within
    one.  Like :func:`colex_unrank`'s, the array is the transpose of k
    contiguous slot rows, and the offsets are added along them."""
    row, rank = _draw_kept(math.comb(v, k), p, seeds)
    slots = colex_unrank(rank, v, k).T
    slots += row * v
    return slots.T


def _seed_array(graph_seed: int) -> np.ndarray:
    return np.array([int(graph_seed) & _MASK64], dtype=np.uint64)


def _draw_kept(n_candidates: int, p: float, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept candidates of one graph per seed in a 1-D uint64 array, as
    int64 arrays (row, rank): row i of the seeds keeps candidate rank.  The
    pairs come in row-major order.

    The stream is evaluated in blocks of at most ``BLOCK`` draws; a block
    holds whole rows of candidates, or one slice of one row when
    ``n_candidates > BLOCK``.  Every block is evaluated in one uint64
    buffer pair (z, tmp) as long as the largest block, ``min(len(seeds) *
    n_candidates, BLOCK)``.  Nothing the draw allocates grows with
    ``n_candidates``: a block yields only the flat positions
    ``row * n_candidates + rank`` of its kept candidates, split into (row,
    rank) once at the end.

    Integer test.  ``unit(x)`` is the integer ``y = x >> 11 < 2^53`` times
    2^-53, and both that product and ``p * 2^53`` are exact (power-of-two
    scalings), so ``unit(x) < p`` iff ``y < p * 2^53`` iff ``y < limit`` with
    ``limit = ceil(p * 2^53)``.  p is clipped to 1, where the limit is 2^53
    and every draw is kept; p <= 0 (or nan) gives limit 0, which keeps none.

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
    limit = math.ceil(math.ldexp(min(p, 1.0), 53)) if p > 0.0 else 0
    bound_bits = (limit - 1).bit_length() + 11
    pre = np.uint64(1 << bound_bits) if bound_bits < 64 else None
    steps = _block_steps()
    rows = max(1, BLOCK // max(n_candidates, 1))  # seeds per block
    # z and tmp start on 64-byte boundaries.  Left to the heap, their
    # alignment shifted with unrelated edits and with the checkout's path,
    # and the mc-large-v benchmark ran up to 20% slower when it was off.
    n_buf = min(len(seeds) * n_candidates, BLOCK)
    stride = -(-n_buf // 8) * 8
    buf = np.empty(2 * stride + 8, dtype=np.uint64)
    start = -buf.ctypes.data % 64 // 8
    z, tmp = buf[start:start + 2 * stride].reshape(2, stride)[:, :n_buf]
    kept_out = [np.empty(0, dtype=np.int64)]
    for r0 in range(0, len(seeds), rows):
        block_seeds = seeds[r0:r0 + rows]
        for lo in range(0, n_candidates, BLOCK):
            width = min(BLOCK, n_candidates - lo)
            size = len(block_seeds) * width
            zb, tb = z[:size], tmp[:size]
            offset = block_seeds + np.uint64(lo * GOLDEN & _MASK64)
            np.add(steps[:width], offset[:, None], out=zb.reshape(-1, width))
            _mix64_rounds(zb, tb)
            if pre is None:
                survivors, x = None, zb
            else:
                survivors = np.flatnonzero(zb < pre)
                x = zb[survivors]
            x ^= x >> np.uint64(31)
            x >>= np.uint64(11)
            kept = np.flatnonzero(x < np.uint64(limit))
            if survivors is not None:
                kept = survivors[kept]
            # whole rows (lo = 0, width = n_candidates) or a slice of one row
            kept_out.append(kept + (r0 * n_candidates + lo))
    return np.divmod(np.concatenate(kept_out), max(n_candidates, 1))


def _in_threads(fn, calls: list) -> list:
    """``[fn(*args) for args in calls]``, with the first call run in the
    calling thread and each other call in a thread of its own, started
    before the first and joined after it.  The first exception raised in a
    call is re-raised once every thread has ended.  At most one call
    starts no thread."""
    results, errors = [None] * len(calls), []

    def work(i):
        try:
            results[i] = fn(*calls[i])
        except BaseException as error:  # re-raised in the calling thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, len(calls))]
    for thread in threads:
        thread.start()
    if calls:  # an empty call list has no first call, and gives []
        work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def colex_unrank(ranks: np.ndarray, v: int, k: int) -> np.ndarray:
    """The k-subsets of range(v) with the given colex ranks, as (len(ranks), k)
    int64 rows of ascending vertices: the transpose of a C-contiguous (k,
    len(ranks)) array, so each slot's vertices are one contiguous row.

    Colex order sorts subsets by their largest vertex, ties broken the same
    way on the rest.  Rank j is the subset c_k > ... > c_1 with
    ``j = sum_i C(c_i, i)`` (the combinatorial number system): from i = k
    down, c_i is the largest c with ``C(c, i) <= j``, and j drops by
    ``C(c_i, i)``.  Each step is one ``searchsorted`` over the table of
    C(c, i) over the c that slot i can hold, i - 1 .. v - k + i - 1.  Its top
    entry is at most the largest rank, C(v, k) - 1 = sum_i C(v - k + i - 1, i),
    so int64 holds it unclipped.  c_1 is the rank left, as C(c, 1) = c.
    """
    j = np.array(ranks, dtype=np.int64)
    slots = np.empty((k, len(j)), dtype=np.int64)
    if not len(j):  # no edge kept, or none exists (k > v): skip the k - 1 tables
        return slots.T
    for i in range(k, 1, -1):
        table = np.array([math.comb(c, i) for c in range(i - 1, v - k + i)], dtype=np.int64)
        c = np.searchsorted(table, j, side="right") - 1
        slots[i - 1] = c + (i - 1)
        j -= table[c]
    slots[0] = j
    return slots.T


# ---------------------------------------------------------------------------
# predicates, on the slot-major rows of an (m, k) edge array
# ---------------------------------------------------------------------------

def _slots(edges: np.ndarray) -> np.ndarray:
    """The (k, m) slot-major rows of an (m, k) edge array: row i holds every
    edge's i-th vertex.  No copy for the transposed views :func:`colex_unrank`
    and :func:`_block_edges` return."""
    return np.ascontiguousarray(np.asarray(edges, dtype=np.int64).T)


def peel_survivor_mask(edges: np.ndarray, v: int, r: int) -> np.ndarray:
    """Vertices surviving batch peeling rounds (remove all deg < r per round),
    as the fixed point on the edges the module docstring describes.  The
    Monte Carlo workers call it as ``_survivors``: the benchmark's tracer
    wraps only the public name, with a one-thread span stack."""
    slots = _slots(edges)
    while True:
        alive = np.bincount(slots.ravel(), minlength=v) >= r
        if not slots.size:  # no edge is left to test, in any of the k slot rows
            return alive
        keep = alive[slots[0]]
        for slot in slots[1:]:
            keep &= alive[slot]
        if keep.all():
            return alive
        slots = np.compress(keep, slots, axis=1)


_survivors = peel_survivor_mask


def connected_all(edges: np.ndarray, v: int) -> bool:
    """True iff the given edges connect all ``v`` vertices (v == 1 is connected):
    :func:`_connected_rows` on one trial."""
    return bool(_connected_rows(edges, 1, v, 0)[0])


# Per-block predicates: (edges, n, v, r) -> bool per trial, where ``edges``
# are the kept edges of n trials with trial t's vertices at t*v .. t*v + v-1.

def _core_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: peeling leaves a nonempty r-core."""
    return _survivors(edges, n * v, r).reshape(n, v).any(axis=1)


def _min_degree_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: every vertex lies in at least r edges."""
    degree = np.bincount(_slots(edges).ravel(), minlength=n * v)
    return (degree.reshape(n, v) >= r).all(axis=1)


def _connected_rows(edges: np.ndarray, n: int, v: int, r: int) -> np.ndarray:
    """Per trial: the edges connect all v vertices (v == 1 is connected).

    Min-label hooking with pointer jumping: ``parent[x] <= x`` always, and
    after each jump every vertex points at its tree's root, the tree's
    smallest vertex.  Each round hooks every root met by an edge to the
    smallest root of that edge, until every edge lies inside one tree; then
    the trees are the components, and trial t is connected iff all its
    vertices point at t*v.
    """
    slots = _slots(edges)
    parent = np.arange(n * v)
    while True:
        roots = parent[slots]
        low = np.minimum.reduce(roots)
        if (roots == low).all():
            return (parent.reshape(n, v) == np.arange(0, n * v, v)[:, None]).all(axis=1)
        for slot_roots in roots:
            np.minimum.at(parent, slot_roots, low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


# ---------------------------------------------------------------------------
# trial-blocked Monte Carlo drivers
# ---------------------------------------------------------------------------

def _successes(test, v: int, k: int, p: float, r: int, trials: int, master: int) -> int:
    """Count the trials t in [0, trials) whose graph, drawn from
    ``trial_seed(master, t)``, passes the per-block predicate ``test``.

    A block holds as many trials as fit ``TRIAL_BLOCK`` both in vertices and
    in expected kept edges (at least one), and is drawn by one
    :func:`_block_edges` call.

    Workers.  This is the one place a run's trials are cut into ranges:
    [0, trials) is cut into min(``WORKERS``, trials) contiguous runs of
    near-equal length, each counted block by block on a thread of its own
    (:func:`_in_threads`; the calling thread counts the first), and the
    counts are summed.  Trial t depends only on
    ``trial_seed(master, t)``, so the sum is the same for any worker count.
    numpy's ufunc loops release the GIL, so the runs overlap.  When one
    trial's expected kept edges exceed ``TRIAL_BLOCK`` (a block of one
    trial), the run stays on one worker, so at most max(one trial,
    ``WORKERS * TRIAL_BLOCK`` expected kept edges) are in flight.
    """
    expected = math.comb(v, k) * p
    per_block = max(1, int(TRIAL_BLOCK // max(v, expected)))
    workers = 1 if expected > TRIAL_BLOCK else min(WORKERS, trials)

    def count(first: int, stop: int) -> int:
        successes = 0
        for t in range(first, stop, per_block):
            n = min(per_block, stop - t)
            edges = _block_edges(v, k, p, _trial_seeds(master, t, n))
            successes += int(np.count_nonzero(test(edges, n, v, r)))
        return successes

    # Finish numpy's lazy import (:func:`_lazy_numpy`) on this thread before
    # any worker reads ``np``: ``importlib.util.LazyLoader`` is not
    # thread-safe on Python 3.11, and two workers' first reads can see a
    # half-loaded module.
    np.ndarray
    cuts = [trials * i // workers for i in range(workers + 1)]
    return sum(_in_threads(count, list(zip(cuts, cuts[1:]))))


def mc_local_successes(v: int, k: int, p: float, r: int, trials: int, seed: int) -> int:
    """Count the trials t in [0, trials) whose hypergraph, drawn from
    ``trial_seed(seed, t)``, spans an r-core on all v vertices: connected at
    r = 1 (:func:`_connected_rows`), every vertex in at least r edges at
    r >= 2 (:func:`_min_degree_rows`).  This is the one place the local
    Monte Carlo test follows r."""
    test = _connected_rows if r == 1 else _min_degree_rows
    return _successes(test, v, k, p, r, trials, seed)


def mc_global_successes(v: int, k: int, p: float, r: int, trials: int, seed: int) -> int:
    """Count the trials t in [0, trials) whose hypergraph, drawn from
    ``trial_seed(seed, t)``, peels to a nonempty core."""
    return _successes(_core_rows, v, k, p, r, trials, seed)


# ---------------------------------------------------------------------------
# exhaustive oracles: 64 edge subsets per uint64 word, in bit-plane blocks
# ---------------------------------------------------------------------------

# Edges held inside one bit-plane row: 6 pick the bit of a word, the other
# LOW_BITS - 6 the word, so a row is 2^(LOW_BITS - 6) words.  On the oracle
# benchmark's calls (numpy 2.4, 2-vCPU host, 40 calls each) 10 and 12 ran
# level; 14 and 16 made the exactly-one oracle at v=6, k=2 about twice as
# slow, since its per-vertex-set degree levels grow with the row.
LOW_BITS = 12


def edge_incidence(cand: np.ndarray, v: int) -> np.ndarray:
    """Per vertex, the uint64 mask of the candidate edges (bit j = row j) containing it."""
    cand = np.ascontiguousarray(cand, dtype=np.int64)
    if cand.ndim != 2:
        raise ValueError("candidate edge array must be 2-dimensional")
    if len(cand) > 64:
        raise ValueError(f"{len(cand)} candidate edges do not fit a uint64 edge mask")
    inc = np.zeros(v, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), np.arange(len(cand), dtype=np.uint64))
    np.bitwise_or.at(inc, cand, bits[:, None])
    return inc


@functools.cache
def _row_layout(low: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One bit-plane row of ``low`` edges (:func:`_accepted_by_size`): the
    (low + 1, W) presence planes of edges 0..low-1 and a zero plane (edge
    j < 6 is a fixed in-word pattern, edge j >= 6 all-ones or all-zeros per
    word, by bit j - 6 of the word index); per in-word popcount c, the mask
    of the bits b < 2^min(low, 6) with popcount c (higher bits hold no
    subset); and the popcount of each word index."""
    span, words = 1 << min(low, 6), np.arange(1 << max(low - 6, 0), dtype=np.uint64)
    planes = np.zeros((low + 1, len(words)), dtype=np.uint64)
    for j in range(low):
        planes[j] = (sum(1 << b for b in range(64) if b >> j & 1) if j < 6
                     else np.uint64(0) - (words >> np.uint64(j - 6) & np.uint64(1)))
    classes = [sum(1 << b for b in range(span) if b.bit_count() == c)
               for c in range(min(low, 6) + 1)]
    return planes, np.array(classes, dtype=np.uint64), np.bitwise_count(words).astype(np.intp)


def subset_prob(m: int, p: float, test) -> float:
    """Sum of p^|E| (1-p)^(m-|E|) over the edge subsets E that ``test``
    accepts (:func:`_accepted_by_size`).

    Each size's count is split into powers of two, so ``fsum`` adds exact
    multiples of the size's weight and returns the same correctly rounded
    float as an ``fsum`` of one weight per subset.  The weight goes through
    log space so nothing underflows at m = 20.  Every p enumerates every
    subset.  At p = 0 and p = 1 only the empty or the full edge set has
    mass, so the value is that subset's accepted count, 0 or 1, read before
    the log-space weights, which take log p and log(1 - p).
    """
    counts = _accepted_by_size(m, test)
    if p == 0.0 or p == 1.0:
        return float(counts[m if p == 1.0 else 0])
    log_p, log_1m = math.log(p), math.log1p(-p)
    terms = []
    for n, c in enumerate(counts):
        w = math.exp(n * log_p + (m - n) * log_1m)
        terms += [math.ldexp(w, j) for j in range(c.bit_length()) if c >> j & 1]
    return math.fsum(terms)


def _accepted_by_size(m: int, test) -> list[int]:
    """Per size n = 0..m, how many of the 2^m edge subsets (bit j of a
    subset's index: edge j) ``test`` accepts.

    The subsets come in blocks of at most ``BLOCK``.  The low ``L = min(m,
    LOW_BITS)`` edges lie inside a row of W = 2^max(L - 6, 0) uint64 words:
    bits 0..5 of a subset's index are the bit in a word, bits 6..L-1 the
    word.  A block is a run of rows, each given by its subset bits of the
    edges L..m-1 (``rows``, uint64), so edge j < L has the same plane in
    every row and edge j >= L is all-ones or all-zeros along a row.  For
    m < 6 the row is one partial word.

    ``test(low)`` gets the (L + 1, W) low planes of :func:`_row_layout`
    once and returns the block test ``accept(rows)``: (R, W) uint64 words
    whose set bits are the accepted subsets (bits that hold no subset are
    ignored).  The accepted bits of in-word popcount c are counted with
    ``bitwise_count(word & class_c)`` and binned at c plus the popcounts of
    the word and row indices.
    """
    low = min(m, LOW_BITS)
    rows = np.arange(1 << (m - low), dtype=np.uint64) << np.uint64(low)
    step = max(1, BLOCK >> low)
    blocks = [rows[i:i + step] for i in range(0, len(rows), step)]
    planes, classes, word_sizes = _row_layout(low)
    accept = test(planes)
    class_sizes = np.arange(len(classes))[:, None, None]
    counts = np.zeros(m + 1)  # exact integers: at most 2^m < 2^53
    for rows in blocks:
        hits = np.bitwise_count(accept(rows) & classes[:, None, None])
        sizes = class_sizes + np.bitwise_count(rows).astype(np.intp)[:, None] + word_sizes
        counts += np.bincount(sizes.ravel(), weights=hits.ravel(), minlength=m + 1)
    return counts.astype(np.int64).tolist()


def _members(masks, width: int) -> np.ndarray:
    """Per mask, the positions of its set bits below ``width`` in increasing
    order, padded with ``width`` to a common length: an (n, d) intp array."""
    masks = np.asarray(masks, dtype=np.uint64)
    positions = np.arange(width)
    bits = masks[:, None] >> positions.astype(np.uint64) & np.uint64(1)
    d = int(bits.sum(axis=1).max(initial=0))
    return np.sort(np.where(bits == 1, positions, width), axis=1)[:, :d]


def _levels(planes: np.ndarray, members: np.ndarray, top: int) -> np.ndarray:
    """Bit-sliced counting: ``levels[t, i]`` has a bit set iff at least t of
    the planes that row i of ``members`` indexes have it, for t = 0..top.
    ``members`` pads with the index of a zero plane.  One pass over the
    members: ``ge_t |= ge_(t-1) & plane``, t from the top down."""
    levels = np.zeros((top + 1, len(members)) + planes.shape[1:], dtype=np.uint64)
    levels[0] = ~np.uint64(0)
    for s, column in enumerate(members.T):
        plane = planes[column]
        for t in range(min(top, s + 1), 0, -1):
            levels[t] |= levels[t - 1] & plane
    return levels


def _degree_planes(low: np.ndarray, inc, r: int):
    """The block test of "at least ``r`` present edges in each mask of
    ``inc``", per mask, on :func:`_accepted_by_size`'s layout: returns
    ``accept(rows) -> (len(inc), R, W)`` uint64 words.

    Split-half counts: a subset's degree is its low-edge degree plus its
    high-edge degree, and the high one is constant along a row.  So the
    planes "low-edge degree >= t" are built once, for t = 0..r
    (:func:`_levels` on the ``low`` planes), and each row takes the plane
    r - (its high degree, one popcount).  ``r`` is clipped to 0 .. (the
    largest mask's popcount + 1), which changes no answer."""
    r = min(max(r, 0), int(np.bitwise_count(inc).max(initial=0)) + 1)
    width = len(low) - 1
    levels = _levels(low, _members(inc, width), r)
    high = (inc >> np.uint64(width) << np.uint64(width))[:, None]
    which = np.arange(len(inc))[:, None]

    def accept(rows):
        need = r - np.bitwise_count(rows & high).astype(np.intp)
        return levels[np.maximum(need, 0), which]

    return accept


def _size_groups(sets) -> list[tuple[int, np.ndarray]]:
    """The groups of consecutive equal-size vertex sets in ``sets``, as (the
    index of the group's first set, its (n_s, s) member rows)."""
    groups = [np.array(list(g), dtype=np.intp) for _, g in itertools.groupby(sets, len)]
    return list(zip(itertools.accumulate(map(len, groups), initial=0), groups))


def _core_set_prob(cand: np.ndarray, v: int, r: int, p: float, sets, accept) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over the edge subsets E that ``accept``
    takes, given which of the vertex ``sets`` are r-core sets under E: sets
    whose every vertex lies in at least r of the edges inside the set.
    ``accept(cores)`` gets a block's (len(sets), R, W) words, row i set where
    ``sets[i]`` is a core set, and returns the accepted (R, W) words
    (:func:`_accepted_by_size`); it may overwrite ``cores``.  No set gives 0.0.

    One :func:`_degree_planes` call covers every (set, vertex) pair, masked
    to the edges inside the set.  The pairs run group by group of equal-size
    sets (:func:`_size_groups`) and, in a group of n_s sets of s vertices,
    vertex-row by vertex-row (pair j * n_s + i is the j-th vertex of set i),
    so a group's planes reshape to (s, n_s, R, W) and AND over axis 0.  The
    ANDs fill one array, returned before ``accept`` runs so that the degree
    planes are freed first."""
    if not sets:
        return 0.0
    inc, groups = edge_incidence(cand, v), _size_groups(sets)
    pair_inc = []
    for _, members in groups:
        outside = (members[:, :, None] != np.arange(v)).all(axis=1)
        inside = ~np.bitwise_or.reduce(np.where(outside, inc, np.uint64(0)), axis=1)
        pair_inc.append((inc[members] & inside[:, None]).T.ravel())
    pair_inc = np.concatenate(pair_inc)

    def test(low):
        degree = _degree_planes(low, pair_inc, r)

        def cores(rows):
            planes = degree(rows)
            out = np.empty((len(sets),) + planes.shape[1:], dtype=np.uint64)
            pair = 0
            for start, members in groups:
                n, s = members.shape
                group = planes[pair:pair + n * s].reshape((s, n) + planes.shape[1:])
                np.bitwise_and.reduce(group, axis=0, out=out[start:start + n])
                pair += n * s
            return out

        return lambda rows: accept(cores(rows))

    return subset_prob(len(cand), p, test)


def _candidate_sets(v: int, k: int, r: int) -> list[tuple[int, ...]]:
    """The vertex sets that can be r-core sets on k-uniform edges over
    ``v`` vertices, by increasing size: a vertex of S lies in at most
    C(|S|-1, k-1) edges inside S, so only the sets with C(|S|-1, k-1) >= r
    (hence |S| >= k) are candidates."""
    return [s for n in range(k, v + 1) if math.comb(n - 1, k - 1) >= r
            for s in itertools.combinations(range(v), n)]


def exhaustive_global_prob(cand: np.ndarray, v: int, r: int, p: float) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over the edge subsets E with an r-core set
    (:func:`_core_set_prob` on :func:`_candidate_sets`).  Peeling leaves the
    union of the core sets, so these are the subsets that peel to a nonempty
    core.  Callers pass r >= 1 (``numerics.check_kpr``); at r <= 0 every set
    of at least k vertices is a core set, so the value is 1 when v >= k."""
    sets = _candidate_sets(v, np.shape(cand)[1], r)
    return _core_set_prob(cand, v, r, p, sets, lambda cores: np.bitwise_or.reduce(cores, axis=0))


def exhaustive_local_prob(cand: np.ndarray, v: int, r: int, p: float) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over all edge subsets in which every vertex
    lies in at least r edges: :func:`_core_set_prob` on the one set of all
    ``v`` vertices."""
    return _core_set_prob(cand, v, r, p, [tuple(range(v))], lambda cores: cores[0])


def exhaustive_exactly_one_prob(cand: np.ndarray, v: int, r: int, p: float) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over the edge subsets E with exactly one
    inclusion-minimal r-core set (:func:`_core_set_prob` on
    :func:`_candidate_sets`; ``montecarlo.exact_exactly_one`` gives the
    rule): a vertex lies in X, the intersection of the core sets, iff no
    core set misses it, and E is accepted iff some core set lies inside X,
    which makes it X.  The r contract is :func:`exhaustive_global_prob`'s."""
    sets = _candidate_sets(v, np.shape(cand)[1], r)
    missed_by = [np.array([i for i, s in enumerate(sets) if x not in s], dtype=np.intp)
                 for x in range(v)]
    groups = _size_groups(sets)

    def accept(cores):
        in_x = ~np.array([np.bitwise_or.reduce(cores[i], axis=0) for i in missed_by])
        for start, members in groups:  # keep the core sets inside X
            group = cores[start:start + len(members)]
            for column in members.T:
                group &= in_x[column]
        return np.bitwise_or.reduce(cores, axis=0)

    return _core_set_prob(cand, v, r, p, sets, accept)
