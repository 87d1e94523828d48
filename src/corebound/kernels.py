"""Hot Monte Carlo kernels with a numba backend and a pure numpy fallback,
plus the bitmask layer of the exhaustive oracles (numpy on every backend).

Backend selection: set ``COREBOUND_NUMBA=0`` in the environment to force the
numpy fallback; unset (or any other value) uses numba when it imports.  The
active backend is reported by :func:`backend`.

All randomness is a counter-based splitmix64 stream: candidate edge ``j`` of
the graph seeded with ``s`` is included iff
``unit(mix64(s + (j+1)*GOLDEN)) < p``, and trial ``t`` of a Monte Carlo run
with master seed ``m`` uses graph seed ``mix64(m + (t+1)*GOLDEN)``.  Both
backends therefore generate bit-identical hypergraphs, and partitioned runs
merge exactly (trial indices are global).

The numpy path evaluates the stream in blocks of ``BLOCK`` candidates, in
place in two reused uint64 buffers of 512 KiB, so each pass over a block
stays in cache and no temporary grows with C(v, k).  It keeps a candidate by
an integer test that is exactly the float one: ``unit(x)`` is the integer
``y = x >> 11 < 2^53`` times 2^-53, and both that product and ``p * 2^53``
are exact (power-of-two scalings), so ``unit(x) < p`` iff ``y < p * 2^53``
iff ``y < ceil(p * 2^53)``.
"""
from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
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

# Elements per numpy block, for the stream (candidate edges) and the oracles
# (edge subsets): 512 KiB of uint64, so a block's passes stay in cache, and
# memory is bounded per block.
BLOCK = 1 << 16

_PRED_CONNECTIVITY = 0
_PRED_MIN_DEGREE = 1
PREDICATES = {"connectivity": _PRED_CONNECTIVITY, "min-degree": _PRED_MIN_DEGREE}


def _numba_wanted() -> bool:
    flag = os.environ.get("COREBOUND_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


if _numba_wanted():
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised only without numba
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False


def backend() -> str:
    """Name of the active kernel backend: ``"numba"`` or ``"numpy"``."""
    return "numba" if NUMBA_ENABLED else "numpy"


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


def _mix64_vec(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer of a uint64 array, computed in place in ``z`` (and
    returned); ``tmp`` is scratch space of the same shape."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


# Stream offsets (j+1)*GOLDEN of the candidates in one block, mod 2^64.
_BLOCK_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)


def sample_edge_mask(n_candidates: int, p: float, graph_seed: int) -> np.ndarray:
    """Boolean inclusion mask over the candidate edges of one graph.

    Candidate j is kept iff ``unit_double(mix64(seed + (j+1)*GOLDEN)) < p``,
    tested as the equivalent integer comparison ``bits >> 11 < ceil(p * 2^53)``
    on blocks of ``BLOCK`` candidates.
    """
    if p >= 1.0:
        limit = 1 << 53  # every 53-bit value is kept
    elif p > 0.0:
        limit = math.ceil(math.ldexp(p, 53))
    else:
        limit = 0  # p <= 0 (or nan) keeps nothing
    keep = np.empty(n_candidates, dtype=bool)
    z = np.empty(min(n_candidates, BLOCK), dtype=np.uint64)
    tmp = np.empty_like(z)
    for lo in range(0, n_candidates, BLOCK):
        n = min(BLOCK, n_candidates - lo)
        zb, tb = z[:n], tmp[:n]
        np.add(_BLOCK_STEPS[:n], np.uint64((graph_seed + lo * GOLDEN) & _MASK64), out=zb)
        _mix64_vec(zb, tb)
        zb >>= np.uint64(11)
        np.less(zb, np.uint64(limit), out=keep[lo:lo + n])
    return keep


# ---------------------------------------------------------------------------
# single-instance predicates (numpy/pure Python; used by the hypergraph API
# and by the fallback Monte Carlo drivers)
# ---------------------------------------------------------------------------

def peel_survivor_mask(edges: np.ndarray, v: int, r: int) -> np.ndarray:
    """Vertices surviving batch peeling rounds (remove all deg < r per round)."""
    alive_v = np.ones(v, dtype=bool)
    edges = np.asarray(edges, dtype=np.int64)
    alive_e = np.ones(len(edges), dtype=bool)
    while True:
        if alive_e.any():
            deg = np.bincount(edges[alive_e].ravel(), minlength=v)
        else:
            deg = np.zeros(v, dtype=np.int64)
        remove = alive_v & (deg < r)
        if not remove.any():
            return alive_v
        alive_v &= ~remove
        if alive_e.any():
            alive_e &= alive_v[edges].all(axis=1)


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
# numpy fallback Monte Carlo drivers
# ---------------------------------------------------------------------------

def _mc_local_np(cand: np.ndarray, v: int, p: float, r: int, pred: int,
                 trials: int, master: int, start: int) -> int:
    m = len(cand)
    successes = 0
    for t in range(start, start + trials):
        mask = sample_edge_mask(m, p, trial_seed(master, t))
        edges = cand[np.flatnonzero(mask)]
        if pred == _PRED_CONNECTIVITY:
            ok = connected_all(edges, v)
        else:
            ok = min_degree_ok(edges, v, r)
        successes += ok
    return successes


def _mc_global_np(cand: np.ndarray, v: int, p: float, r: int,
                  trials: int, master: int, start: int) -> int:
    m = len(cand)
    successes = 0
    for t in range(start, start + trials):
        mask = sample_edge_mask(m, p, trial_seed(master, t))
        if peel_survivor_mask(cand[np.flatnonzero(mask)], v, r).any():
            successes += 1
    return successes


# ---------------------------------------------------------------------------
# exhaustive oracles: every edge subset as a uint32 mask, in numpy blocks
# (one path on every backend)
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


# ---------------------------------------------------------------------------
# numba kernels
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    _U = np.uint64
    _GOLD = np.uint64(GOLDEN)

    @njit(cache=True)
    def _mix64_nb(z):
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        return z ^ (z >> _U(31))

    @njit(cache=True)
    def _select_edges_nb(n_cand, p, gseed, sel):
        m = 0
        for j in range(n_cand):
            bits = _mix64_nb(gseed + _U(j + 1) * _GOLD)
            if np.float64(bits >> _U(11)) * _INV_2_53 < p:
                sel[m] = j
                m += 1
        return m

    @njit(cache=True)
    def _peel_survivors_nb(cand, sel, m, v, r, deg, alive_v, alive_e):
        k = cand.shape[1]
        for x in range(v):
            alive_v[x] = True
        for t in range(m):
            alive_e[t] = True
        while True:
            for x in range(v):
                deg[x] = 0
            for t in range(m):
                if alive_e[t]:
                    j = sel[t]
                    for c in range(k):
                        deg[cand[j, c]] += 1
            removed = False
            for x in range(v):
                if alive_v[x] and deg[x] < r:
                    alive_v[x] = False
                    removed = True
            if not removed:
                break
            for t in range(m):
                if alive_e[t]:
                    j = sel[t]
                    for c in range(k):
                        if not alive_v[cand[j, c]]:
                            alive_e[t] = False
                            break
        count = 0
        for x in range(v):
            if alive_v[x]:
                count += 1
        return count

    @njit(cache=True)
    def _find_root_nb(parent, a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    @njit(cache=True)
    def _connected_nb(cand, sel, m, v, parent):
        if v == 1:
            return True
        for x in range(v):
            parent[x] = x
        components = v
        k = cand.shape[1]
        for t in range(m):
            j = sel[t]
            ra = _find_root_nb(parent, cand[j, 0])
            for c in range(1, k):
                rb = _find_root_nb(parent, cand[j, c])
                if ra != rb:
                    parent[rb] = ra
                    components -= 1
        return components == 1

    @njit(cache=True)
    def _min_degree_nb(cand, sel, m, v, r, deg):
        for x in range(v):
            deg[x] = 0
        k = cand.shape[1]
        for t in range(m):
            j = sel[t]
            for c in range(k):
                deg[cand[j, c]] += 1
        for x in range(v):
            if deg[x] < r:
                return False
        return True

    @njit(cache=True)
    def _mc_local_nb(cand, v, p, r, pred, trials, master, start):
        n_cand = cand.shape[0]
        sel = np.empty(n_cand, np.int64)
        deg = np.empty(v, np.int64)
        parent = np.empty(v, np.int64)
        successes = 0
        for t in range(start, start + trials):
            gseed = _mix64_nb(master + _U(t + 1) * _GOLD)
            m = _select_edges_nb(n_cand, p, gseed, sel)
            if pred == 0:
                ok = _connected_nb(cand, sel, m, v, parent)
            else:
                ok = _min_degree_nb(cand, sel, m, v, r, deg)
            if ok:
                successes += 1
        return successes

    @njit(cache=True)
    def _mc_global_nb(cand, v, p, r, trials, master, start):
        n_cand = cand.shape[0]
        sel = np.empty(n_cand, np.int64)
        deg = np.empty(v, np.int64)
        alive_v = np.empty(v, np.bool_)
        alive_e = np.empty(n_cand, np.bool_)
        successes = 0
        for t in range(start, start + trials):
            gseed = _mix64_nb(master + _U(t + 1) * _GOLD)
            m = _select_edges_nb(n_cand, p, gseed, sel)
            if _peel_survivors_nb(cand, sel, m, v, r, deg, alive_v, alive_e) > 0:
                successes += 1
        return successes


# ---------------------------------------------------------------------------
# public dispatching drivers
# ---------------------------------------------------------------------------

def _as_candidates(cand: np.ndarray) -> np.ndarray:
    cand = np.ascontiguousarray(cand, dtype=np.int64)
    if cand.ndim != 2:
        raise ValueError("candidate edge array must be 2-dimensional")
    return cand


def mc_local_successes(cand: np.ndarray, v: int, p: float, r: int, predicate: str,
                       trials: int, seed: int, start: int = 0) -> int:
    """Count trials whose sampled hypergraph satisfies ``predicate`` on all vertices."""
    pred = PREDICATES[predicate]
    cand = _as_candidates(cand)
    if NUMBA_ENABLED:
        return int(_mc_local_nb(cand, v, p, r, pred, trials,
                                np.uint64(seed & _MASK64), start))
    return _mc_local_np(cand, v, p, r, pred, trials, seed, start)


def mc_global_successes(cand: np.ndarray, v: int, p: float, r: int,
                        trials: int, seed: int, start: int = 0) -> int:
    """Count trials whose sampled hypergraph peels to a nonempty core."""
    cand = _as_candidates(cand)
    if NUMBA_ENABLED:
        return int(_mc_global_nb(cand, v, p, r, trials,
                                 np.uint64(seed & _MASK64), start))
    return _mc_global_np(cand, v, p, r, trials, seed, start)


def exhaustive_global_prob(cand: np.ndarray, v: int, r: int, p: float) -> float:
    """Sum of p^|E| (1-p)^(M-|E|) over all edge subsets that peel to a nonempty core."""
    inc = edge_incidence(cand, v)
    return subset_prob(len(cand), p, lambda masks: _peel_survives(masks, inc, r))
