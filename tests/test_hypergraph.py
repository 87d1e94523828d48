
from itertools import combinations

import numpy as np
import pytest

from corebound import (
    Hypergraph,
    HypergraphParams,
    candidate_edges,
    choose,
    enumerate_all,
    generate,
    has_rcore_on,
    is_connected_on,
    peel,
)
from corebound.hypergraph import GENERATE_GUARD
from corebound.montecarlo import mc_global, mc_local


def hg(v, k, *edges):
    return Hypergraph.from_edges(v, k, edges)


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            HypergraphParams(0, 3, 0.5, 1)
        with pytest.raises(ValueError):
            HypergraphParams(5, 1, 0.5, 1)
        with pytest.raises(ValueError):
            HypergraphParams(5, 3, 1.5, 1)
        with pytest.raises(ValueError):
            HypergraphParams(5, 3, 0.5, 0)

    def test_edge_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(4, 3, ((0, 1, 1),))
        with pytest.raises(ValueError):
            Hypergraph(4, 3, ((0, 1, 5),))
        with pytest.raises(ValueError):
            Hypergraph(4, 3, ((0, 1, 2), (0, 1, 2)))
        with pytest.raises(ValueError, match="not sorted"):
            Hypergraph(4, 3, ((0, 2, 1),))


class TestCandidates:
    def test_colex_order_k3_v5(self):
        cand = [tuple(row) for row in candidate_edges(5, 3)]
        assert cand[:4] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert len(cand) == 10
        # colex comparator: later edge has larger reversed tuple
        rev = [tuple(reversed(c)) for c in cand]
        assert rev == sorted(rev)

    def test_count(self):
        assert len(candidate_edges(7, 4)) == choose(7, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_colex_order_matches_sorted_combinations(self, k):
        for v in range(25):  # v < k included: no rows
            expected = sorted(combinations(range(v), k), key=lambda c: c[::-1])
            cand = candidate_edges(v, k)
            assert cand.shape == (len(expected), k) and cand.dtype == np.int64
            assert [tuple(row) for row in cand.tolist()] == expected
            assert not cand.flags.writeable

    def test_cache_is_bounded(self):
        maxsize = candidate_edges.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for v in range(3, 40):
            for k in (2, 3):
                candidate_edges(v, k)
                assert candidate_edges.cache_info().currsize <= maxsize


class TestGenerate:
    def test_p_one_and_zero(self):
        full = generate(HypergraphParams(3, 3, 1.0, 1), seed=9)
        assert full.edges == ((0, 1, 2),)
        empty = generate(HypergraphParams(5, 3, 0.0, 1), seed=9)
        assert empty.edges == ()

    def test_edge_count_in_binomial_band(self):
        h = generate(HypergraphParams(20, 3, 0.5, 1), seed=12345)
        assert 456 <= len(h.edges) <= 684  # Binomial(1140, 0.5) band

    def test_determinism(self):
        params = HypergraphParams(12, 3, 0.3, 1)
        assert generate(params, seed=77).edges == generate(params, seed=77).edges
        assert generate(params, seed=77).edges != generate(params, seed=78).edges

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="generation guard"):
            generate(HypergraphParams(5000, 3, 1e-9, 1), seed=0)
        with pytest.raises(ValueError, match="generation guard"):
            mc_global(5000, 3, 1e-9, 2, trials=1, seed=0)
        with pytest.raises(ValueError, match="generation guard"):
            mc_local(5000, 3, 1e-9, 2, "min-degree", trials=1, seed=0)
        assert choose(5000, 3) > GENERATE_GUARD


class TestPeel:
    def test_single_edge(self):
        h = hg(3, 3, (0, 1, 2))
        assert peel(h, 1) == {0, 1, 2}
        assert peel(h, 2) == frozenset()

    def test_four_triples(self):
        h = hg(4, 3, (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert peel(h, 2) == {0, 1, 2, 3}
        assert peel(h, 3) == {0, 1, 2, 3}  # each vertex in exactly 3 edges
        assert peel(h, 4) == frozenset()

    def test_cascade(self):
        # removing the degree-1 tail 5 kills the edge and then 3, 4
        h = hg(6, 3, (0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 5))
        assert peel(h, 2) == {0, 1, 2, 3}

    def test_fixed_point(self):
        for seed in range(5):
            h = generate(HypergraphParams(12, 3, 0.08, 2), seed=seed)
            core = peel(h, 2)
            if not core:
                continue
            induced = [e for e in h.edges if all(x in core for x in e)]
            again = peel(Hypergraph.from_edges(h.v, h.k, induced), 2)
            assert again == core

    def test_r1_keeps_non_isolated(self):
        for seed in range(5):
            h = generate(HypergraphParams(10, 3, 0.05, 1), seed=seed)
            non_isolated = {x for e in h.edges for x in e}
            assert peel(h, 1) == non_isolated


class TestPredicates:
    def test_singleton_connected(self):
        h = hg(5, 3, (0, 1, 2))
        assert is_connected_on(h, {3})

    def test_isolated_vertex_disconnects(self):
        h = hg(4, 3, (0, 1, 2))
        assert not is_connected_on(h, {0, 1, 2, 3})
        assert is_connected_on(h, {0, 1, 2})

    def test_shared_vertex_connects(self):
        h = hg(5, 3, (0, 1, 2), (2, 3, 4))
        assert is_connected_on(h, {0, 1, 2, 3, 4})

    def test_empty_subset_rejected(self):
        h = hg(3, 3, (0, 1, 2))
        with pytest.raises(ValueError):
            is_connected_on(h, set())
        with pytest.raises(ValueError):
            has_rcore_on(h, set(), 1)
        with pytest.raises(ValueError, match=r"not contained in \[0, 3\)"):
            is_connected_on(h, {0, 3})

    def test_induced_edges_only(self):
        # edge (2,3,4) leaves the subset, so 2 has induced degree 0
        h = hg(5, 3, (0, 1, 2), (2, 3, 4))
        assert not is_connected_on(h, {0, 1, 2, 3})

    def test_has_rcore_on(self):
        h = hg(3, 3, (0, 1, 2))
        assert has_rcore_on(h, {0, 1, 2}, 1)
        assert not has_rcore_on(h, {0, 1, 2}, 2)
        h4 = hg(4, 3, (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert has_rcore_on(h4, {0, 1, 2, 3}, 3)

    def test_min_degree_one_core_without_connectivity(self):
        # two vertex-disjoint edges: a 1-core on all six, yet disconnected
        h = hg(6, 3, (0, 1, 2), (3, 4, 5))
        assert has_rcore_on(h, range(6), 1)
        assert not is_connected_on(h, range(6))


class TestEnumerate:
    @pytest.mark.parametrize("v,expected", [(3, 2), (4, 16), (5, 1024)])
    def test_counts(self, v, expected):
        assert sum(1 for _ in enumerate_all(v, 3)) == expected

    def test_unique_and_first_empty(self):
        graphs = list(enumerate_all(4, 3))
        assert graphs[0].edges == ()
        assert len({g.edges for g in graphs}) == 16

    def test_guard(self):
        with pytest.raises(ValueError):
            next(enumerate_all(7, 3))  # C(7,3) = 35 > 20
