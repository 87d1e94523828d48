import hashlib
import itertools
import math
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from corebound import (choose, exact_exactly_one, exact_global, exact_local,
                       generate, kernels, mc_global)
from corebound.hypergraph import candidate_edges
from conftest import edge_subsets, enumeration_prob, min_degree_ok, unit_double


class TestStream:
    def test_mix64_scalar_matches_vector(self):
        xs = [0, 1, 42, 2**63, 2**64 - 1]
        vec = kernels._mix64_vec(np.array(xs, dtype=np.uint64))
        for x, expected in zip(xs, vec):
            assert kernels.mix64(x) == int(expected)

    def test_trial_seed_spread(self):
        seeds = {kernels.trial_seed(123, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_unit_double_range(self):
        assert unit_double(0) == 0.0
        assert 0.0 <= unit_double(2**64 - 1) < 1.0

    def test_sample_mask_deterministic(self):
        a = kernels.sample_edge_mask(500, 0.3, 99)
        b = kernels.sample_edge_mask(500, 0.3, 99)
        assert np.array_equal(a, b)
        c = kernels.sample_edge_mask(500, 0.3, 100)
        assert not np.array_equal(a, c)

    def test_sample_mask_extremes(self):
        assert not kernels.sample_edge_mask(100, 0.0, 7).any()
        assert kernels.sample_edge_mask(100, 1.0, 7).all()

    def test_p_outside_the_unit_interval(self):
        # neither public draw checks p: above 1 (inf too) every candidate is
        # kept, and at nan none is, as at p = 1 and p = 0
        for n, v in ((100, 10), (2**16 + 3, 75)):  # one block, and two slices
            for p, every in ((1.5, True), (math.inf, True), (math.nan, False)):
                mask = kernels.sample_edge_mask(n, p, 7)
                assert mask.shape == (n,) and (mask.all() if every else not mask.any()), (n, p)
                m = choose(v, 3)
                edges = kernels.sample_edges(v, 3, p, 7)
                assert edges.shape == ((m if every else 0), 3), (v, p)
                if every:
                    assert np.array_equal(edges, candidate_edges(v, 3)), (v, p)

    def test_sample_mask_is_the_scalar_stream(self):
        # the blocked integer test keeps exactly the candidates the scalar
        # definition keeps, across block edges and at the threshold's extremes
        seed = kernels.trial_seed(3, 5)
        longest = 2**17 + 3
        units = np.array([
            unit_double(kernels.mix64(seed + (j + 1) * kernels.GOLDEN))
            for j in range(longest)])
        for n in (0, 1, 2**16 - 1, 2**16, 2**16 + 1, longest):
            for p in (0.0, 2**-54, 2**-53, 0.3, 0.5, math.nextafter(1.0, 0.0), 1.0):
                mask = kernels.sample_edge_mask(n, p, seed)
                assert mask.dtype == bool and mask.shape == (n,)
                assert np.array_equal(mask, units[:n] < p), (n, p)

    def test_threshold_draws_are_exact(self):
        # seeds whose first draw lands right at the keep threshold, found by
        # inverting splitmix64, for every branch of the pre-test
        def unmix64(x):
            for shift, mult in ((31, None), (27, 0x94D049BB133111EB), (30, 0xBF58476D1CE4E5B9)):
                if mult:
                    x = x * pow(mult, -1, 2**64) % 2**64
                z = x
                for _ in range(64 // shift + 1):
                    z = x ^ (z >> shift)
                x = z
            return x

        assert all(kernels.mix64(unmix64(x)) == x for x in (0, 1, 2**40 + 7, 2**64 - 1))
        for p in (2**-53, 3 * 2**-53, 2**-42, 1e-9, 2**-31, 0.3, 0.5, 0.75):
            limit = math.ceil(math.ldexp(p, 53))
            for y in {y for y in (0, limit - 1, limit, 2 * limit - 1, 2 * limit) if y < 2**53}:
                for low in (0, 2**11 - 1):
                    seed = (unmix64(y << 11 | low) - kernels.GOLDEN) % 2**64
                    assert kernels.sample_edge_mask(1, p, seed)[0] == (y < limit), (p, y, low)
                    pair = np.array([seed, seed], dtype=np.uint64)
                    row, rank = kernels._draw_kept(1, p, pair)
                    assert row.tolist() == ([0, 1] if y < limit else []) and not rank.any()

    @pytest.mark.parametrize("n", [1, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1])
    def test_seed_array_rows_are_scalar_masks(self, n):
        # a draw over several seeds keeps, in row i, the candidates the
        # scalar mask of seed i keeps
        seeds = np.array([0, kernels.trial_seed(3, 5), 2**64 - 1], dtype=np.uint64)
        for p in (0.0, 2**-53, 1e-4, 0.3, 0.5, 0.75, 1.0):
            masks = np.zeros((3, n), dtype=bool)
            masks[kernels._draw_kept(n, p, seeds)] = True
            for seed, row in zip(seeds, masks):
                assert np.array_equal(row, kernels.sample_edge_mask(n, p, int(seed))), (n, p)
        row, rank = kernels._draw_kept(n, 0.5, seeds[:0])
        assert row.size == rank.size == 0

    def test_block_trial_seeds(self):
        seeds = kernels._trial_seeds(2**64 - 3, 40, 7)
        assert seeds.tolist() == [kernels.trial_seed(2**64 - 3, t) for t in range(40, 47)]
        # the indices t + 1 pass 2^64 and wrap, as in the scalar trial_seed
        seeds = kernels._trial_seeds(12, 2**64 - 2, 4)
        assert seeds.tolist() == [kernels.trial_seed(12, t) for t in range(2**64 - 2, 2**64 + 2)]

    def test_stream_fingerprint(self):
        # the v1 stream's bits, recorded before the blocked evaluation
        mask = kernels.sample_edge_mask(64, 0.5, kernels.trial_seed(1, 0))
        assert np.packbits(mask).tobytes().hex() == "a9c934cd2f288afe"


class TestCoupling:
    """Candidate j's key does not depend on v or p, and colex order numbers
    the k-subsets of range(v) first.  So a graph at (v, p) is its graph at
    (v + 1, p) inside range(v), and an edge kept at p is kept at any larger
    p.  A core survives both, so global counts do not fall as v or p grow.
    (The local event, every one of the u vertices, is not monotone in u.)"""

    def test_draw_is_the_next_draw_inside_range_v(self):
        for k in (2, 3, 4):
            for v, seed, p in itertools.product(range(k, 17), (0, 7, 2**64 - 1),
                                                (0.05, 0.3, 0.8)):
                small = kernels.sample_edges(v, k, p, seed)
                large = kernels.sample_edges(v + 1, k, p, seed)
                assert np.array_equal(small, large[(large < v).all(axis=1)]), (k, v, seed, p)

    def test_global_count_is_monotone_in_v_and_p(self):
        ps = (0.02, 0.05, 0.1, 0.2, 0.4)
        for k, r in ((3, 2), (2, 2), (3, 1), (4, 2)):
            counts = np.array([[kernels.mc_global_successes(v, k, p, r, 300, 5) for p in ps]
                               for v in range(k, 13)])
            for axis in (0, 1):  # v, then p
                steps = np.diff(counts, axis=axis)
                assert (steps >= 0).all() and (steps > 0).any(), (k, r, axis, counts)


class TestColexUnrank:
    """Slot i's table spans only the values c_i can take, i - 1 .. v - k + i - 1,
    so a k near v unranks as fast as a small k."""

    @pytest.mark.parametrize("v, k", [(160, 3), (34, 17), (1200, 1199), (2400, 2399)])
    def test_rows_rerank_to_their_ranks(self, v, k):
        ranks = [0, 1, math.comb(v, k) - 1]
        rows = kernels.colex_unrank(np.array(ranks), v, k)
        assert rows.shape == (3, k) and rows.dtype == np.int64
        for rank, row in zip(ranks, rows.tolist()):
            assert 0 <= row[0] and row[-1] < v and all(a < b for a, b in zip(row, row[1:]))
            assert sum(math.comb(c, i) for i, c in enumerate(row, 1)) == rank
        # the first two and the last subset in colex order
        assert rows.tolist() == [list(range(k)), [*range(k - 1), k], list(range(v - k, v))]

    def test_k_near_v_is_cheap(self):
        v, k = 2400, 2399
        start = time.perf_counter()
        kernels.colex_unrank(np.array([0, math.comb(v, k) - 1]), v, k)
        assert time.perf_counter() - start < 0.5


# A fresh interpreter that imports numpy before corebound, as the benchmark
# harness does, then prints what kernels took for numpy and one draw.
NUMPY_FIRST_CHILD = """\
import numpy
from corebound import kernels
print(kernels.np is numpy, kernels.backend(), kernels.sample_edges(8, 3, 0.5, 7).tolist())
"""


class TestNumpyImportedFirst:
    """With numpy already imported, ``kernels`` takes the loaded module, not a
    lazy one.  In this suite the conftest imports corebound first, so only a
    fresh interpreter runs that branch."""

    def test_kernels_takes_the_loaded_module(self):
        proc = subprocess.run([sys.executable, "-c", NUMPY_FIRST_CHILD],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        edges = kernels.sample_edges(8, 3, 0.5, 7).tolist()
        assert edges  # the draw keeps edges, so the comparison reads some
        assert proc.stdout == f"True numpy {edges}\n"


class TestPlatform:
    def test_backend(self):
        assert kernels.backend() == "numpy"  # the benchmark's run stamp reads it

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_affinity(self, monkeypatch, count, usable):
        # macOS and Windows have no affinity set: the CPU count stands in
        monkeypatch.delattr(kernels.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: count)
        assert kernels._usable_cpus() == usable


class TestSingleInstanceOps:
    def test_peel_simple(self):
        edges = np.array([[0, 1, 2]], dtype=np.int64)
        assert kernels.peel_survivor_mask(edges, 3, 1).all()
        assert not kernels.peel_survivor_mask(edges, 3, 2).any()

    def test_peel_no_edges(self):
        empty = np.empty((0, 3), dtype=np.int64)
        assert not kernels.peel_survivor_mask(empty, 4, 1).any()

    def test_peel_r0_keeps_every_vertex(self):
        # vertex 3 lies in no edge and still survives
        edges = np.array([[0, 1, 2]], dtype=np.int64)
        assert kernels.peel_survivor_mask(edges, 4, 0).tolist() == [True] * 4

    def test_peel_r1_drops_a_vertex_in_no_edge(self):
        edges = np.array([[0, 1, 2], [1, 2, 4]], dtype=np.int64)
        assert kernels.peel_survivor_mask(edges, 5, 1).tolist() == [True, True, True, False, True]

    def test_peel_every_edge_falls_in_the_first_round(self):
        # each edge has a vertex of degree 1 < r, so the first round keeps no
        # edge, and vertices 0, 1 and 3, of degree 2 in that round, fall too
        edges = np.array([[0, 1, 2], [0, 3, 4], [1, 3, 5]], dtype=np.int64)
        assert not kernels.peel_survivor_mask(edges, 6, 2).any()

    def test_edge_size_past_vertex_count_does_no_slot_work(self):
        # at k > v there is no candidate: no rank to unrank and no edge to peel,
        # so neither walks its 10^8 slot rows
        k = 10**8
        empty = kernels.colex_unrank(np.arange(0), 5, k)
        assert empty.shape == (0, k)
        for r in (0, 1, 2):
            assert kernels.peel_survivor_mask(empty, 5, r).tolist() == [r == 0] * 5

    def test_workers_call_the_public_peel(self):
        # one def: the Monte Carlo workers' name is the same function object
        assert kernels._survivors is kernels.peel_survivor_mask

    def test_connected(self):
        edges = np.array([[0, 1, 2], [2, 3, 4]], dtype=np.int64)
        assert kernels.connected_all(edges, 5)
        assert not kernels.connected_all(edges[:1], 4)
        assert kernels.connected_all(np.empty((0, 3), dtype=np.int64), 1)

    def test_min_degree(self):
        edges = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], dtype=np.int64)
        assert min_degree_ok(edges, 4, 3)
        assert not min_degree_ok(edges, 4, 4)


def _components(edges, v):
    """Number of connected components of the graph on range(v), by union-find:
    a reference independent of the kernels' min-label hooking."""
    parent = list(range(v))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]  # path halving
            a = parent[a]
        return a

    for edge in edges:
        for b in edge[1:]:
            parent[find(b)] = find(edge[0])
    return len({find(x) for x in range(v)})


def _degrees(edges, v):
    degree = [0] * v
    for edge in edges:
        for x in edge:
            degree[x] += 1
    return degree


def _peel(edges, v, r):
    """The surviving vertices of batch peeling, one Python set at a time."""
    alive, edges = set(range(v)), [tuple(e) for e in edges]
    while True:
        degree = _degrees(edges, v)
        low = {x for x in alive if degree[x] < r}
        if not low:
            return alive
        alive -= low
        edges = [e for e in edges if not low.intersection(e)]


# each predicate on one trial's edges over range(v), computed in pure Python
REFERENCE = {
    "global": lambda edges, v, r: bool(_peel(edges, v, r)),
    "connectivity": lambda edges, v, r: _components(edges, v) == 1,
    "min-degree": lambda edges, v, r: min(_degrees(edges, v)) >= r,
}
# the per-block kernel of each predicate
BLOCK_PREDICATES = {"global": kernels._core_rows, "connectivity": kernels._connected_rows,
                    "min-degree": kernels._min_degree_rows}


def _per_trial(v, k, p, r, predicate, trials, seed):
    """Trials t in [0, trials) whose ``generate(v, k, p, trial_seed(seed, t))``
    passes the predicate, one graph at a time."""
    test = REFERENCE[predicate]
    return sum(test(generate(v, k, p, kernels.trial_seed(seed, t)).tolist(), v, r)
               for t in range(trials))


def _address(array):
    return array.__array_interface__["data"][0]


def _mc_count(predicate, v, k, p, r, trials, seed):
    # the block kernel, not mc_local_successes, whose test follows r: cases
    # run min-degree at r = 1
    if predicate == "global":
        return mc_global(v, k, p, r, trials=trials, seed=seed).successes
    return kernels._successes(BLOCK_PREDICATES[predicate], v, k, p, r, trials, seed)


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was made")


class TestBlockedTrials:
    """The trial-blocked drivers count what ``generate`` draws trial by trial."""

    COUNT_CASES = [  # predicate, v, k, p, r, trials, seed, blocks
        # several stream passes per block, and more trials than a block's TRIAL_BLOCK // v
        ("global", 40, 3, 33 / choose(40, 3), 2, 900, 0, 2),
        ("global", 40, 3, 0.7 / choose(40, 3), 1, 900, 13, 2),
        ("connectivity", 24, 3, 24 / choose(24, 3), 1, 1500, 0, 2),
        ("min-degree", 24, 3, 48 / choose(24, 3), 1, 1500, 5, 2),
        # dense: blocks sized by their expected kept edges, not by TRIAL_BLOCK // v
        ("global", 20, 3, 0.5, 76, 300, 7, 2),
        ("min-degree", 20, 3, 0.5, 73, 300, 7, 2),
        ("connectivity", 20, 3, 0.01, 1, 300, 0, 1),
        # C(v, 3) > BLOCK: one stream pass per slice of a trial
        ("global", 75, 3, 75 / 1.222 / choose(75, 3), 2, 4, 3, 1),
        ("connectivity", 75, 3, 0.0015, 1, 4, 3, 1),
        # graphs (k = 2) and 4-uniform hypergraphs
        ("global", 60, 2, 1 / 60, 2, 600, 0, 2),
        ("connectivity", 24, 2, 0.15, 1, 900, 5, 2),
        ("min-degree", 24, 2, 0.15, 1, 900, 0, 2),
        ("global", 30, 4, 23 / choose(30, 4), 2, 600, 3, 2),
        ("connectivity", 16, 4, 12 / choose(16, 4), 1, 1500, 0, 2),
        ("min-degree", 16, 4, 24 / choose(16, 4), 2, 1500, 7, 2),
    ]

    # the k = 3 cases keep the ids they had before k was a parameter
    @pytest.mark.parametrize("predicate,v,k,p,r,trials,seed,blocks", COUNT_CASES, ids=[
        "-".join(map(str, (c[0], c[1], *c[3:]))) + ("" if c[2] == 3 else f"-k{c[2]}")
        for c in COUNT_CASES])
    def test_counts_are_the_per_trial_sum(self, monkeypatch, predicate, v, k, p, r, trials,
                                          seed, blocks):
        # at 1, 2, 3 and 8 workers: stream passes and seed derivations;
        # draws; blocks.  Workers draw at once, so the count takes a lock.
        expected = _per_trial(v, k, p, r, predicate, trials, seed)
        for workers in (1, 2, 3, 8):
            calls = {"_mix64_rounds": 0, "_draw_kept": 0, "_trial_seeds": 0}
            lock = threading.Lock()
            for name in calls:
                def counted(*args, _fn=getattr(kernels, name), _name=name):
                    with lock:
                        calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(kernels, name, counted)
            monkeypatch.setattr(kernels, "WORKERS", workers)
            got = _mc_count(predicate, v, k, p, r, trials, seed)
            monkeypatch.undo()
            assert got == expected, workers
            passes = calls["_mix64_rounds"] - calls["_trial_seeds"]
            assert passes > 1 and calls["_trial_seeds"] >= blocks, calls
            assert calls["_draw_kept"] == calls["_trial_seeds"], calls  # one draw per block
        if trials > 100:
            assert 0 < expected < trials

    def test_dense_run_memory_is_bounded(self, monkeypatch):
        # C(30, 3) * 0.5 = 2030 kept edges per trial: a block sized by
        # vertices alone (546 trials) would hold all 200 trials' edges.  One
        # worker, since each worker holds a block of its own
        monkeypatch.setattr(kernels, "WORKERS", 1)
        mc_global(30, 3, 0.5, 2, trials=1)  # first-call set-up
        tracemalloc.start()
        try:
            mc_global(30, 3, 0.5, 2, trials=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_dense_trials_stay_on_one_worker(self, monkeypatch):
        # C(60, 3) * 0.5 = 17110 expected kept edges per trial, more than
        # TRIAL_BLOCK: eight workers would hold eight such trials at once
        assert choose(60, 3) * 0.5 > kernels.TRIAL_BLOCK
        mc_global(60, 3, 0.5, 2, trials=1)  # first-call set-up
        counts, peaks = [], []
        for workers in (1, 8):
            monkeypatch.setattr(kernels, "WORKERS", workers)
            tracemalloc.start()
            try:
                counts.append(mc_global(60, 3, 0.5, 2, trials=8, seed=3).successes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert counts[0] == counts[1]
        assert peaks[1] < 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("v", [12, 75])  # C(75, 3) > BLOCK
    def test_generate_keeps_the_masked_candidates(self, v):
        m = choose(v, 3)
        assert (m > kernels.BLOCK) == (v == 75)
        for p in (0.0, 0.3, 1.0):
            for seed in (0, kernels.trial_seed(9, 2)):
                mask = kernels.sample_edge_mask(m, p, seed)
                expected = candidate_edges(v, 3)[np.flatnonzero(mask)]
                got = generate(v, 3, p, seed)
                assert np.array_equal(got, expected), (v, p, seed)

    def test_block_predicates(self):
        # three trials on v = 4 vertices: a connected pair of edges, no edge,
        # and one edge that leaves vertex 3 (id 11) out
        edges = np.array([[0, 1, 2], [1, 2, 3], [8, 9, 10]], dtype=np.int64)
        assert kernels._connected_rows(edges, 3, 4, 1).tolist() == [True, False, False]
        assert kernels._min_degree_rows(edges, 3, 4, 1).tolist() == [True, False, False]
        assert kernels._core_rows(edges, 3, 4, 1).tolist() == [True, False, True]
        assert kernels._core_rows(edges, 3, 4, 2).tolist() == [False, False, False]
        assert kernels._connected_rows(edges[:0], 2, 1, 1).tolist() == [True, True]


class TestThreadedDraw:
    """Monte Carlo trials drawn on worker threads: a run cuts its trial range
    into one contiguous run per worker, and each stream draw stays on the
    thread that asks for it."""

    P_GRID = (0.0, 2**-54, 2**-53, 0.3, 0.5, math.nextafter(1.0, 0.0), 1.0)

    @staticmethod
    def _assert_one_pair(monkeypatch, n, p, seeds, blocks):
        # at WORKERS = 3 the draw starts no thread and runs its stream pass
        # of every block in one (z, tmp) pair
        passes, mix64_rounds = [], kernels._mix64_rounds
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(threading, "Thread", _no_thread)
        monkeypatch.setattr(kernels, "_mix64_rounds",
                            lambda z, tmp: (passes.append((z, tmp)), mix64_rounds(z, tmp))[1])
        row, rank = kernels._draw_kept(n, p, seeds)
        monkeypatch.undo()
        assert row.dtype == rank.dtype == np.int64
        assert len(passes) == blocks, (n, p)
        assert len({(_address(z), _address(tmp)) for z, tmp in passes}) <= 1, (n, p)
        for z, tmp in passes:
            assert z.size == tmp.size <= kernels.BLOCK
            assert not np.shares_memory(z, tmp)

    @pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3])
    def test_one_seed(self, monkeypatch, n):
        # 2**17 + 3 candidates are three slices
        seeds = kernels._seed_array(kernels.trial_seed(3, 5))
        for p in self.P_GRID:
            self._assert_one_pair(monkeypatch, n, p, seeds, -(-n // kernels.BLOCK))

    @pytest.mark.parametrize("rows", [1, 3, 100])
    @pytest.mark.parametrize("n", [1, 700, 2**16 - 1, 2**16 + 1])
    def test_seed_arrays(self, monkeypatch, rows, n):
        # 100 rows of 700 candidates are 93 rows per block, so two blocks;
        # 3 rows of 2**16 + 1 are six slices; 100 of them, 200
        seeds = kernels._trial_seeds(2**64 - 2, 7, rows)
        per_block = max(1, kernels.BLOCK // n)
        blocks = -(-rows // per_block) * -(-n // kernels.BLOCK)
        for p in (0.0, 1e-4, 0.3, 0.5, 1.0):
            self._assert_one_pair(monkeypatch, n, p, seeds, blocks)

    @pytest.mark.parametrize("predicate,v,k,p,r,trials,seed,blocks", [
        TestBlockedTrials.COUNT_CASES[i] for i in (0, 3, 6, 7, 8, 9, 12)])
    def test_counts_at_one_and_three_workers(self, monkeypatch, predicate, v, k, p, r, trials,
                                             seed, blocks):
        # three workers count each trial once, each a contiguous run of
        # near-equal length on a thread of its own, and count what one does
        counts = []
        for workers in (1, 3):
            ranges, trial_seeds = [], kernels._trial_seeds  # list.append is thread-safe

            def recorded(master, first, n):
                ranges.append((threading.current_thread(), first, first + n))
                return trial_seeds(master, first, n)

            monkeypatch.setattr(kernels, "_trial_seeds", recorded)
            monkeypatch.setattr(kernels, "WORKERS", workers)
            counts.append(_mc_count(predicate, v, k, p, r, trials, seed))
            monkeypatch.undo()
            runs = {}
            for thread, first, stop in sorted(ranges, key=lambda blk: blk[1]):
                lo, hi = runs.get(thread, (first, first))
                assert hi == first  # a thread's blocks are one contiguous run
                runs[thread] = (lo, stop)
            bounds = sorted(runs.values())
            assert len(bounds) == min(workers, trials)
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == trials
            lengths = [hi - lo for lo, hi in bounds]
            assert max(lengths) - min(lengths) <= 1
        assert counts[0] == counts[1]

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        # 8 workers, the interpreter switching threads every microsecond:
        # the runs' counts still add up to the one-worker count
        args = ("connectivity", 24, 3, 24 / choose(24, 3), 1, 1500, 4)
        monkeypatch.setattr(kernels, "WORKERS", 1)
        expected = _mc_count(*args)
        monkeypatch.setattr(kernels, "WORKERS", 8)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _mc_count(*args)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert threading.active_count() == threads  # every worker was joined

    def test_draws_start_no_thread(self, monkeypatch):
        # draws of one block and of several (C(75, 3) > BLOCK: two slices)
        monkeypatch.setattr(kernels, "WORKERS", 3)
        monkeypatch.setattr(threading, "Thread", _no_thread)
        assert len(kernels.sample_edges(12, 3, 0.3, 5)) > 0  # C(12, 3) = 220 draws
        assert len(kernels.sample_edges(75, 3, 0.01, 5)) > 0
        assert len(generate(75, 3, 0.01, 5)) > 0
        assert kernels.sample_edge_mask(kernels.BLOCK, 0.5, 5).any()
        assert kernels.sample_edge_mask(2**17 + 3, 0.5, 5).any()
        assert kernels.sample_edge_mask(0, 0.5, 5).shape == (0,)

    def test_draw_errors_reach_the_caller(self, monkeypatch):
        # a worker's MemoryError in its draw leaves the run after every
        # thread has ended, and leaves nothing behind that the next run sees
        args = ("global", 40, 3, 33 / choose(40, 3), 2, 900, 4)
        monkeypatch.setattr(kernels, "WORKERS", 3)
        expected = _mc_count(*args)
        draw_kept, threads = kernels._draw_kept, threading.active_count()
        ran = []  # list.append is thread-safe

        def failing_draw(*draw_args):
            ran.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return draw_kept(*draw_args)

        monkeypatch.setattr(kernels, "_draw_kept", failing_draw)
        with pytest.raises(MemoryError, match="worker"):
            _mc_count(*args)
        assert threading.active_count() == threads
        assert len(set(ran)) == 3  # every worker drew before the raise
        monkeypatch.setattr(kernels, "_draw_kept", draw_kept)
        assert _mc_count(*args) == expected

    def test_worker_errors_reach_the_caller(self):
        ran = []

        def fn(i):
            ran.append(i)
            if i == 2:
                raise MemoryError(i)
            return i * i

        assert kernels._in_threads(fn, [(0,), (1,), (3,)]) == [0, 1, 9]
        assert kernels._in_threads(fn, []) == []
        ran.clear()
        with pytest.raises(MemoryError):
            kernels._in_threads(fn, [(0,), (1,), (2,), (3,)])
        assert sorted(ran) == [0, 1, 2, 3]  # every call ran before the raise


class TestSlotMajorLayout:
    """The predicates read an (m, k) edge array by its k slot rows: the
    answer must not depend on the array's memory layout."""

    @staticmethod
    def _block(v, k, p, n):
        seeds = kernels._trial_seeds(5, 0, n)
        return kernels._block_edges(v, k, p, seeds)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_block_edges_rows_are_contiguous(self, k):
        edges = self._block(8, k, 0.3, 20)
        assert edges.shape[1] == k and len(edges) > 1
        assert edges.T.flags.c_contiguous and not edges.flags.c_contiguous
        assert np.shares_memory(kernels._slots(edges), edges)  # read without a copy
        assert kernels.colex_unrank(np.arange(choose(8, k)), 8, k).T.flags.c_contiguous

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_layouts_agree(self, k):
        v, n = 7, 60
        answers = set()
        for p in (0.1, 0.25, 0.5):
            block = self._block(v, k, p, n)
            layouts = (block, np.ascontiguousarray(block))
            trial = block[:, 0] // v  # the trial of each edge
            per_trial = [block[trial == t] - t * v for t in range(n)]
            for r in (1, 2):
                for name, test in BLOCK_PREDICATES.items():
                    want = [REFERENCE[name](e.tolist(), v, r) for e in per_trial]
                    for edges in layouts:
                        assert test(edges, n, v, r).tolist() == want, (name, p, r)
                    answers.update(want)
                alive = [x in _peel(e.tolist(), v, r) for e in per_trial for x in range(v)]
                for edges in layouts:
                    assert kernels.peel_survivor_mask(edges, n * v, r).tolist() == alive
                for e in per_trial[:10]:
                    connected = REFERENCE["connectivity"](e.tolist(), v, r)
                    min_degree = REFERENCE["min-degree"](e.tolist(), v, r)
                    for edges in (e, np.asfortranarray(e)):  # row-major, slot-major
                        assert kernels.connected_all(edges, v) == connected
                        assert min_degree_ok(edges, v, r) == min_degree
        assert answers == {True, False}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_no_edges(self, k):
        v, n = 5, 3
        for edges in (np.empty((0, k), dtype=np.int64), self._block(v, k, 0.0, n)):
            assert edges.shape == (0, k)
            for r in (0, 1):
                assert kernels._core_rows(edges, n, v, r).tolist() == [r == 0] * n
                assert kernels._min_degree_rows(edges, n, v, r).tolist() == [r == 0] * n
                assert kernels.peel_survivor_mask(edges, v, r).tolist() == [r == 0] * v
                assert min_degree_ok(edges, v, r) == (r == 0)
            assert kernels._connected_rows(edges, n, v, 1).tolist() == [False] * n
            assert kernels._connected_rows(edges, n, 1, 1).tolist() == [True] * n
            assert not kernels.connected_all(edges, v)
            assert kernels.connected_all(edges, 1)


class TestExhaustiveOracles:
    """The bit-plane oracles."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_global_matches_brute_force(self, k, r):
        # peeling (kernels.peel_survivor_mask) against the oracle's core-set definition
        for v in range(k, 6):
            cand = np.asarray(candidate_edges(v, k))
            for p in (0.0, 0.37, 0.8, 1.0):
                brute = enumeration_prob(
                    v, k, p, lambda edges: kernels.peel_survivor_mask(edges, v, r).any())
                assert kernels.exhaustive_global_prob(cand, v, r, p) == \
                    pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("v,k", [(v, k) for k in range(2, 6) for v in range(1, 6)])
    def test_local_and_exactly_one_match_their_definitions(self, v, k):
        # in pure Python: a core set is a vertex set in which every vertex lies
        # in at least r of the edges inside it; list every graph's core sets
        m = choose(v, k)
        vertex_sets = [frozenset(c) for n in range(1, v + 1)
                       for c in itertools.combinations(range(v), n)]
        graphs = []
        for subset in edge_subsets(v, k):
            edges = [frozenset(e) for e in subset.tolist()]
            min_degree = {s: min(sum(x in e for e in edges if e <= s) for x in s)
                          for s in vertex_sets}
            graphs.append((len(edges), min_degree))
        for r in (1, 2, 3):
            any_core, spans_all, one_minimal = [], [], []
            for _, min_degree in graphs:
                cores = [s for s in vertex_sets if min_degree[s] >= r]
                any_core.append(bool(cores))
                spans_all.append(min_degree[frozenset(range(v))] >= r)
                one_minimal.append(sum(not any(d < c for d in cores) for c in cores) == 1)
            for p in (0.0, 0.37, 1.0):
                weights = [p**n * (1.0 - p) ** (m - n) for n, _ in graphs]
                assert exact_global(v, k, p, r) == pytest.approx(
                    math.fsum(w for w, ok in zip(weights, any_core) if ok), abs=1e-12)
                assert exact_local(v, k, p, r) == pytest.approx(
                    math.fsum(w for w, ok in zip(weights, spans_all) if ok), abs=1e-12)
                assert exact_exactly_one(v, k, p, r) == pytest.approx(
                    math.fsum(w for w, ok in zip(weights, one_minimal) if ok), abs=1e-12)

    def test_pinned_values(self):
        # the per-mask loops' values at 2^20 edge subsets, bit for bit
        assert exact_global(6, 3, 0.5, 2).hex() == "0x1.fdc4000000007p-1"
        assert exact_local(6, 3, 0.5, 2).hex() == "0x1.e3bbe00000007p-1"
        assert exact_exactly_one(6, 3, 0.5, 2).hex() == "0x1.43be000000006p-5"

    def test_every_guarded_value_pinned(self):
        # every (v, k) the enumeration guard admits up to v = 7, plus the two
        # v = 20 ones, at r = 1..4 and six p: 3384 floats, bit for bit
        points = [(v, k) for v in range(1, 8) for k in range(2, 9) if choose(v, k) <= 20]
        digest = hashlib.sha256()
        for v, k in points + [(20, 19), (20, 20)]:
            for r in range(1, 5):
                for p in (0.0, 0.25, 0.37, 0.5, 0.8, 1.0):
                    for value in (exact_global(v, k, p, r), exact_local(v, k, p, r),
                                  exact_exactly_one(v, k, p, r)):
                        digest.update(value.hex().encode())
        assert digest.hexdigest().startswith("35be3b1babdf988a"), digest.hexdigest()

    def test_incidence_masks(self):
        inc = kernels.edge_incidence(np.asarray(candidate_edges(4, 3)), 4)
        # colex rows: {0,1,2}, {0,1,3}, {0,2,3}, {1,2,3}
        assert inc.dtype == np.uint64
        assert inc.tolist() == [0b0111, 0b1011, 0b1101, 0b1110]
        with pytest.raises(ValueError, match="uint64"):
            kernels.edge_incidence(np.asarray(candidate_edges(9, 3)), 9)  # 84 edges
        with pytest.raises(ValueError, match="2-dimensional"):
            kernels.edge_incidence(np.arange(3), 4)

    def test_subset_prob_sums_exact_weights(self):
        # every subset accepted: the weights of all 2^m subsets sum to 1
        def constant(word):
            return lambda low: lambda rows: np.full((len(rows), low.shape[1]), word, dtype=np.uint64)

        everything, nothing = constant(~np.uint64(0)), constant(0)
        assert kernels.subset_prob(20, 0.37, everything) == pytest.approx(1.0, abs=1e-14)
        assert kernels.subset_prob(3, 0.0, everything) == 1.0
        assert kernels.subset_prob(3, 0.5, nothing) == 0.0

    @staticmethod
    def _subsets(low, rows):
        """The subset index each bit of a block's words holds, as (R, W, 64),
        and the bit positions that hold one, as a (64,) bool mask."""
        width = len(low) - 1
        bits = np.arange(64, dtype=np.uint64)
        words = np.arange(low.shape[1], dtype=np.uint64)[:, None] << np.uint64(6)
        return rows[:, None, None] | words | bits, bits < (1 << min(width, 6))

    def _check_layout(self, low, rows):
        # the layout _accepted_by_size promises its tests
        width = len(low) - 1
        index, held = self._subsets(low, rows)
        assert low.dtype == rows.dtype == np.uint64
        assert index[..., held].size <= kernels.BLOCK
        assert not low[width].any() and not (rows & np.uint64((1 << width) - 1)).any()
        bits = np.arange(64, dtype=np.uint64)
        for j in range(width):
            plane = np.broadcast_to(low[j][:, None] >> bits & np.uint64(1), index.shape)
            assert np.array_equal(plane[..., held], (index >> np.uint64(j) & np.uint64(1))[..., held])
        return index[..., held], held

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 6, 7, 15, 16, 17, 20])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_blocks_match_a_flat_reference(self, m, p):
        # the degree planes and the per-size counts on the bit-plane blocks
        # against one bitwise_count per mask over arange(2^m), the weights
        # summed one per accepted subset
        rng = np.random.default_rng(1000 * m + int(100 * p))
        every = np.arange(1 << m, dtype=np.uint64)
        sizes = np.bitwise_count(every)
        bits = np.arange(64, dtype=np.uint64)
        for r in range(4):
            inc = rng.integers(0, 1 << m, size=5, dtype=np.uint32)
            per_mask = np.bitwise_count(every & inc[:, None].astype(np.uint64)) >= r
            flat = per_mask.all(axis=0)
            seen = []

            def test(low):
                degree = kernels._degree_planes(low, inc, r)

                def accept(rows):
                    index, held = self._check_layout(low, rows)
                    ok = degree(rows)
                    assert ok.shape == (len(inc), len(rows), low.shape[1])
                    got = (ok[..., None] >> bits & np.uint64(1)).astype(bool)[..., held]
                    assert np.array_equal(got, per_mask[:, index])
                    seen.append(index.ravel())
                    return np.bitwise_and.reduce(ok, axis=0)

                return accept

            counts = kernels._accepted_by_size(m, test)
            assert np.array_equal(np.sort(np.concatenate(seen)), every)  # each subset once
            assert counts == np.bincount(sizes[flat], minlength=m + 1).tolist()
            seen.clear()
            got = kernels.subset_prob(m, p, test)
            assert np.array_equal(np.sort(np.concatenate(seen)), every)  # at every p
            if p == 0.0 or p == 1.0:
                # all the mass is on the empty or the full edge subset
                assert got == float(flat[(1 << m) - 1 if p == 1.0 else 0])
            else:
                weight = [math.exp(n * math.log(p) + (m - n) * math.log1p(-p))
                          for n in range(m + 1)]
                assert got == math.fsum(weight[n] for n in sizes[flat].tolist())

    def test_no_candidate_edges(self):
        # v < k: m = 0, and the one graph is the empty one
        for p in (0.0, 0.37, 1.0):
            assert exact_local(2, 3, p, 1) == exact_global(2, 3, p, 1) == 0.0
            assert exact_exactly_one(2, 3, p, 1) == 0.0

    def test_r_beyond_any_degree(self):
        # edges 0 and 1 inside the word, edge 2 in the row; masks {0, 2} and
        # {0, 1, 2}.  r is compared exactly at any size
        low, rows = kernels._row_layout(2)[0], np.array([0, 4], dtype=np.uint64)
        inc = np.array([5, 7], dtype=np.uint32)
        held = 0b1111  # the four subsets of edges 0 and 1

        def accepted(r):
            ok = kernels._degree_planes(low, inc, r)(rows)
            return (np.bitwise_and.reduce(ok, axis=0)[:, 0] & np.uint64(held)).tolist()

        assert accepted(-2**70) == accepted(0) == [held, held]
        assert accepted(2) == [0, 0b1010]
        for r in (33, 40_000, 2**70):
            assert accepted(r) == [0, 0]
            for p in (0.0, 0.5, 1.0):
                assert exact_local(4, 3, p, r) == exact_global(4, 3, p, r) == 0.0
                assert exact_exactly_one(4, 3, p, r) == 0.0

    def test_r_below_one(self):
        # callers pass r >= 1; below it every set of at least k vertices is
        # a core set, and at v = 4, k = 3 those sets meet in no vertex
        cand = np.asarray(candidate_edges(4, 3))
        for r in (0, -2**70):
            for p in (0.0, 0.37, 1.0):
                assert kernels.exhaustive_global_prob(cand, 4, r, p) == 1.0
                assert kernels.exhaustive_local_prob(cand, 4, r, p) == 1.0
                assert kernels.exhaustive_exactly_one_prob(cand, 4, r, p) == 0.0

    @pytest.mark.parametrize("oracle, blocks", [
        (lambda: exact_local(6, 3, 0.5, 2), 6),
        (lambda: exact_global(6, 3, 0.5, 2), 6),
        (lambda: exact_exactly_one(6, 3, 0.5, 2), 10),
        # r = 1: 42 candidate vertex sets, the most at this size
        (lambda: exact_global(6, 3, 0.5, 1), 8),
        (lambda: exact_exactly_one(6, 3, 0.5, 1), 8),
    ], ids=["local", "global", "exactly-one", "global-r1", "exactly-one-r1"])
    def test_memory_is_bounded_per_block(self, oracle, blocks):
        # 2^20 edge subsets; one block of uint32 masks is 256 KiB and all 2^20
        # masks would be 4 MiB: the peak stays a few blocks' size
        oracle()  # first-call set-up: candidate edges, mask layout
        tracemalloc.start()
        try:
            oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < blocks * 4 * kernels.BLOCK, peak
