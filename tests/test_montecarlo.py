import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from corebound import (
    McEstimate,
    choose,
    exact_exactly_one,
    exact_global,
    exact_local,
    generate,
    hypergraph,
    kernels,
    mc_global,
    mc_local,
    montecarlo,
)
from corebound.hypergraph import candidate_edges
from corebound.local_prob import ConnectivityTable
from conftest import enumeration_prob, min_degree_prob_oracle


class TestEstimates:
    def test_reproducible(self, warm_kernels):
        a = mc_local(5, 3, 0.3, 1, trials=2000, seed=11)
        b = mc_local(5, 3, 0.3, 1, trials=2000, seed=11)
        assert a == b
        c = mc_local(5, 3, 0.3, 1, trials=2000, seed=12)
        assert a.successes != c.successes

    def test_partitioned_runs_merge(self, warm_kernels):
        whole = mc_global(6, 3, 0.2, 2, trials=3000, seed=5)
        head = mc_global(6, 3, 0.2, 2, trials=1800, seed=5)
        tail = mc_global(6, 3, 0.2, 2, trials=1200, seed=5, start=1800)
        assert head.successes + tail.successes == whole.successes
        assert McEstimate.from_counts(head.successes + tail.successes, 3000, 5) == whole

    def test_stderr_formula(self):
        est = mc_local(4, 3, 0.5, 1, trials=1000, seed=0)
        assert est.mean == est.successes / est.trials
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.trials), abs=1e-15
        )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            mc_local(4, 3, 0.5, 1, trials=0)
        with pytest.raises(ValueError):
            mc_global(4, 3, 1.5, 1)
        # trial indices start at 0 (a negative start was numpy's OverflowError)
        with pytest.raises(ValueError, match="^start must be >= 0, got -1$"):
            mc_local(4, 3, 0.5, 1, trials=10, start=-1)
        with pytest.raises(ValueError, match="^start must be >= 0, got -1$"):
            mc_global(4, 3, 0.5, 1, trials=10, start=-1)

    def test_local_vertex_count_is_named_u(self):
        for u in (0, -3):
            with pytest.raises(ValueError, match=rf"^u must be >= 1, got {u}$"):
                mc_local(u, 3, 0.1, 1, trials=10)
            with pytest.raises(ValueError, match=rf"^u must be >= 1, got {u}$"):
                exact_local(u, 3, 0.1, 1)

    def test_master_seed_domain(self):
        # the stream reads the seed mod 2^64: 2^64 would rerun seed 0's graphs
        # and -1 those of 2^64 - 1, each under another seed's number
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
                mc_local(4, 3, 0.5, 1, trials=10, seed=seed)
            with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
                mc_global(4, 3, 0.5, 1, trials=10, seed=seed)
        est = mc_global(10, 3, 0.05, 2, trials=2000, seed=2**64 - 1)
        assert (est.successes, est.seed) == (643, 2**64 - 1)


class TestMcLocal:
    def test_certain_edge(self, warm_kernels):
        est = mc_local(3, 3, 1.0, 1, trials=100, seed=0)
        assert est.mean == 1.0

    def test_single_vertex_connected(self, warm_kernels):
        # u < k: no candidate edges at all, but a singleton is connected
        est = mc_local(1, 3, 0.5, 1, trials=50, seed=0)
        assert est.mean == 1.0
        est2 = mc_local(2, 3, 0.5, 1, trials=50, seed=0)
        assert est2.mean == 0.0

    def test_single_edge_probability(self, warm_kernels):
        est = mc_local(3, 3, 0.5, 1, trials=20_000, seed=2)
        assert abs(est.mean - 0.5) <= 3 * est.stderr

    def test_connectivity_matches_pinned_value(self, warm_kernels):
        est = mc_local(4, 3, 0.5, 1, trials=20_000, seed=3)
        assert abs(est.mean - 0.6875) <= 3.5 * est.stderr

    def test_min_degree_predicate(self, warm_kernels):
        oracle = min_degree_prob_oracle(5, 3, 0.4, 2)
        est = mc_local(5, 3, 0.4, 2, trials=20_000, seed=4)
        se = math.sqrt(oracle * (1 - oracle) / est.trials)
        assert abs(est.mean - oracle) <= 4 * se

    def test_predicate_follows_r(self, warm_kernels):
        # connectivity at r = 1, min-degree above
        u, k, p, seed = 6, 3, 0.3, 9
        counts = []
        for r, test in ((1, kernels._connected_rows), (2, kernels._min_degree_rows)):
            est = mc_local(u, k, p, r, trials=2000, seed=seed)
            assert est.successes == kernels.mc_local_successes(u, k, p, r, 2000, seed)
            assert est.successes == kernels._successes(test, u, k, p, r, 2000, seed, 0)
            counts.append(est.successes)
        assert counts[0] != counts[1]  # the two predicates count apart at this seed


class TestLocalEventAtROne:
    """At r = 1 the two local references read different events:
    ``mc_local`` counts connected graphs on the u vertices, while
    ``exact_local`` weighs graphs of minimum degree >= 1, and two disjoint
    edges pass only the second.  ``kernels.mc_local_successes`` is the one
    owner of the rule that picks the Monte Carlo test from r, so settling
    which event "local" means at r = 1 changes a value pinned here."""

    U, K, SEED, TRIALS = 6, 3, 1, 200_000
    PINS = {  # p: (mc_local successes, exact_local, ConnectivityTable(3, p).prob(6).value)
        0.1: (37364, "0x1.9cb7f6147041fp-3", 0.1865132897077706),
        0.3: (172978, "0x1.bb28cdc0e56f6p-1", 0.864080110475297),
    }

    @pytest.mark.parametrize("p", sorted(PINS))
    def test_pinned_values(self, warm_kernels, p):
        successes, exact, connected = self.PINS[p]
        est = mc_local(self.U, self.K, p, 1, trials=self.TRIALS, seed=self.SEED)
        assert est.successes == successes
        assert exact_local(self.U, self.K, p, 1).hex() == exact
        assert ConnectivityTable(self.K, p).prob(self.U).value == connected

    def test_events_differ_past_four_sigma(self, warm_kernels):
        est = mc_local(self.U, self.K, 0.1, 1, trials=self.TRIALS, seed=self.SEED)
        assert exact_local(self.U, self.K, 0.1, 1) - est.mean > 4 * est.stderr


class TestPinnedCounts:
    # success counts recorded before the blocked stream evaluation; any
    # change to the stream, the candidate order or the predicates moves them
    def test_mc_global_large_v(self, warm_kernels):
        v = 130
        est = mc_global(v, 3, (v / 1.222) / choose(v, 3), 2, trials=40, seed=7)
        assert est.successes == 29

    def test_mc_local_connectivity(self, warm_kernels):
        est = mc_local(20, 3, 20 / choose(20, 3), 1, trials=200, seed=7)
        assert est.successes == 85


class TestMemory:
    # at v = 400 the C(v, 3) candidates alone take 254 MiB as an int64 array;
    # a run that draws and unranks only the kept ones stays near 1 MiB
    @pytest.mark.parametrize("run", [
        lambda p: mc_global(400, 3, p, 2, trials=3),
        lambda p: mc_local(400, 3, p, 1, trials=3),
    ], ids=["mc_global", "mc_local"])
    def test_peak_does_not_grow_with_candidates(self, warm_kernels, run):
        p = 400 / 1.222 / choose(400, 3)
        candidate_edges.cache_clear()
        tracemalloc.start()
        try:
            run(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_no_candidate_array(self, monkeypatch):
        # only the exhaustive oracles read candidate_edges
        def forbidden(v, k):
            raise AssertionError(f"candidate_edges({v}, {k}) called")

        monkeypatch.setattr(hypergraph, "candidate_edges", forbidden)
        monkeypatch.setattr(montecarlo, "candidate_edges", forbidden)
        generate(20, 3, 0.05, seed=1)
        mc_global(20, 3, 0.05, 2, trials=50, seed=1)
        mc_local(20, 3, 0.05, 1, trials=50, seed=1)


class TestMcGlobal:
    def test_below_edge_size(self, warm_kernels):
        est = mc_global(2, 3, 0.9, 1, trials=200, seed=0)
        assert est.mean == 0.0

    def test_single_edge(self, warm_kernels):
        est = mc_global(3, 3, 0.7, 1, trials=20_000, seed=6)
        assert abs(est.mean - 0.7) <= 3.5 * est.stderr

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_against_exact(self, warm_kernels, r, p):
        ex = exact_global(5, 3, p, r)
        est = mc_global(5, 3, p, r, trials=20_000, seed=8)
        se = math.sqrt(max(ex * (1 - ex), 1e-300) / est.trials)
        assert abs(est.mean - ex) <= 4 * se + 1e-9


class TestExactGlobal:
    def test_single_edge(self):
        for p in (0.0, 0.3, 1.0):
            assert exact_global(3, 3, p, 1) == pytest.approx(p, abs=1e-12)

    def test_any_edge_gives_one_core(self):
        # only the empty hypergraph lacks a 1-core
        assert exact_global(4, 3, 0.5, 1) == pytest.approx(15 / 16, abs=1e-12)

    def test_four_vertices_two_core(self):
        # 2-core needs >= 3 of the 4 triples present: 4 p^3 (1-p) + p^4
        for p in (0.2, 0.5, 0.8):
            expected = 4 * p**3 * (1 - p) + p**4
            assert exact_global(4, 3, p, 2) == pytest.approx(expected, abs=1e-12)

    def test_complete_hypergraph_threshold(self):
        # at p=1 the answer is the indicator C(v-1, k-1) >= r
        for v, k, r in [(4, 3, 3), (4, 3, 4), (5, 3, 6), (5, 3, 7), (5, 4, 4), (5, 4, 5)]:
            expected = 1.0 if choose(v - 1, k - 1) >= r else 0.0
            assert exact_global(v, k, 1.0, r) == expected

    def test_guard(self):
        with pytest.raises(ValueError):
            exact_global(7, 3, 0.5, 1)  # C(7,3) = 35 > 20


def one_maximal_core_prob(v, k, p, r):
    """``exact_global``'s sum with the maximal reading as its accept rule:
    set i is a maximal core set where it is a core set and no strict
    superset of it is one, and a subset is accepted where exactly one is."""
    sets = kernels._candidate_sets(v, k, r)
    supersets = [np.array([j for j, t in enumerate(sets) if set(s) < set(t)], dtype=np.intp)
                 for s in sets]

    def accept(cores):
        once = twice = np.zeros(cores.shape[1:], dtype=np.uint64)
        for i, above in enumerate(supersets):
            maximal = cores[i] & ~np.bitwise_or.reduce(cores[above], axis=0)
            once, twice = once | maximal, twice | (once & maximal)
        return once & ~twice

    return kernels._core_set_prob(candidate_edges(v, k), v, r, p, sets, accept)


class TestExactExactlyOne:
    # the minimal reading has its own oracle; exactly one maximal core set is
    # a nonempty peeled core, exact_global
    ORACLES = {"minimal": exact_exactly_one, "maximal": exact_global}

    def test_at_most_one_core_possible(self):
        for p in (0.2, 0.7):
            assert exact_exactly_one(3, 3, p, 1) == pytest.approx(p, abs=1e-12)
            assert exact_global(3, 3, p, 1) == pytest.approx(p, abs=1e-12)

    def test_p_zero(self):
        assert exact_exactly_one(4, 3, 0.0, 1) == 0.0
        assert exact_global(4, 3, 0.0, 1) == 0.0

    def test_semantics_differ_when_cores_nest(self):
        # v=4, r=1: each present edge is a minimal core; the union is the one
        # maximal core.  Exactly one minimal core <=> exactly one edge.
        p = 0.5
        assert exact_exactly_one(4, 3, p, 1) == pytest.approx(
            4 * p * (1 - p) ** 3, abs=1e-12
        )
        assert exact_global(4, 3, p, 1) == pytest.approx(15 / 16, abs=1e-12)

    @pytest.mark.parametrize("semantics", ["minimal", "maximal"])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("v,k", [(4, 2), (5, 2), (4, 3), (5, 3)])
    def test_matches_definition(self, v, k, r, semantics):
        # list every graph's core sets (a set below k vertices holds no edge)
        # and count the inclusion-minimal or -maximal ones directly
        subsets = [frozenset(c) for n in range(k, v + 1)
                   for c in itertools.combinations(range(v), n)]
        beaten = (lambda c, d: d < c) if semantics == "minimal" else (lambda c, d: c < d)

        def exactly_one(subset):
            edges = [frozenset(e) for e in subset.tolist()]
            cores = [s for s in subsets
                     if min(sum(x in e for e in edges if e <= s) for x in s) >= r]
            return sum(not any(beaten(c, d) for d in cores) for c in cores) == 1

        p = 0.37
        assert self.ORACLES[semantics](v, k, p, r) == pytest.approx(
            enumeration_prob(v, k, p, exactly_one), abs=1e-12
        )

    @pytest.mark.parametrize("v,k", [(v, k) for k in range(2, 6) for v in range(k, 7)])
    def test_maximal_equals_global(self, v, k):
        # the union of two r-cores is an r-core, so there is one maximal core
        # set exactly when there is any: counting the maximal core sets of
        # each subset accepts the subsets exact_global accepts, bit for bit
        for r in (1, 2, 3):
            for p in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
                assert one_maximal_core_prob(v, k, p, r).hex() == \
                    exact_global(v, k, p, r).hex(), (v, k, r, p)

    def test_grid_bits_pinned(self):
        # every bit of a 540-value grid, recorded before the oracle enumerated
        # only the vertex sets of at least k vertices
        grid = [(v, k, r, p, s, self.ORACLES[s](v, k, p, r).hex())
                for v in range(1, 7) for k in range(2, 5) for r in range(1, 4)
                for p in (0.0, 0.13, 0.5, 0.77, 1.0) for s in ("minimal", "maximal")]
        digest = hashlib.sha256(repr(grid).encode()).hexdigest()
        assert digest.startswith("d9d9acc894da3f0d"), digest

    @pytest.mark.parametrize("v", [17, 20])
    def test_k_one_below_v(self, v):
        # C(v, v-1) = v passes the guard while 2^v does not bound memory: an
        # enumeration of all 2^v vertex subsets once needed 8 GiB at v = 17 and
        # 64 GiB at v = 20.  With r = 1 the edges are the minimal core sets, so
        # exactly one minimal core set means exactly one edge.
        p = 0.37
        assert exact_exactly_one(v, v - 1, p, 1) == pytest.approx(
            v * p * (1 - p) ** (v - 1), rel=1e-12)
        assert exact_global(v, v - 1, p, 1) == pytest.approx(1 - (1 - p) ** v, rel=1e-12)

    @pytest.mark.parametrize("v,k", [(v, k) for k in range(2, 9) for v in range(1, 8)
                                     if choose(v, k) <= 20] + [(20, 19)])
    def test_closed_forms_at_r_1(self, v, k):
        # a 1-core set holds an edge, and the minimal 1-core sets are the
        # single edges: some core set iff some edge, one minimal iff one edge
        m = choose(v, k)
        for p in (0.0, 0.25, 0.5, 0.8, 1.0):
            one_edge = m * p * (1 - p) ** (m - 1) if m else 0.0
            assert abs(exact_global(v, k, p, 1) - (1 - (1 - p) ** m)) <= 1e-15, p
            assert abs(exact_exactly_one(v, k, p, 1) - one_edge) <= 1e-15, p

    @pytest.mark.parametrize("r", [2, 3, 19, 20])
    def test_three_oracles_agree_at_k_one_below_v(self, r):
        # at (20, 19) a vertex set S holds C(|S|-1, 18) >= 2 edges at each of
        # its vertices only when S = V: the one candidate set is V, so the
        # core set exists, is unique and spans V together
        value = exact_local(20, 19, 0.5, r)
        assert exact_global(20, 19, 0.5, r).hex() == value.hex()
        assert exact_exactly_one(20, 19, 0.5, r).hex() == value.hex()
        assert (value > 0) == (r <= 19)

    @pytest.mark.parametrize("semantics", ["minimal", "maximal"])
    def test_single_candidate_at_large_v(self, semantics):
        # C(100, 100) = 1: one vertex set to read, not 2^100
        assert self.ORACLES[semantics](100, 100, 0.37, 1) == pytest.approx(0.37, rel=1e-12)


class TestExactLocal:
    def test_single_edge(self):
        for p in (0.0, 0.4, 1.0):
            assert exact_local(3, 3, p, 1) == pytest.approx(p, abs=1e-12)

    def test_four_vertices_r2(self):
        # all-vertex 2-core needs >= 3 of the 4 triples
        for p in (0.2, 0.5):
            expected = 4 * p**3 * (1 - p) + p**4
            assert exact_local(4, 3, p, 2) == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        for p in (0.3, 0.6):
            assert exact_local(5, 3, p, 2) == pytest.approx(
                min_degree_prob_oracle(5, 3, p, 2), abs=1e-12
            )
