
import re
from itertools import combinations

import numpy as np
import pytest

from corebound import candidate_edges, choose, generate
from corebound import kernels
from corebound.cli import main
from corebound.hypergraph import EDGE_SLOT_GUARD, GENERATE_GUARD, KEPT_GUARD
from corebound.numerics import count_text
from corebound.montecarlo import (exact_exactly_one, exact_global, exact_local, mc_global,
                                  mc_local)
from conftest import edge_subsets, min_degree_ok


def hg(*edges):
    """A hand-built 3-uniform graph as an (m, 3) edge array."""
    return np.array(edges, dtype=np.int64)


def peel(edges, v, r):
    """The vertices that survive peeling: the maximal r-core."""
    return set(np.flatnonzero(kernels.peel_survivor_mask(edges, v, r)).tolist())


def induced(edges, subset):
    """The edges lying inside ``subset``, relabelled 0..|subset|-1 in vertex
    order, and |subset|: the subgraph the one-trial predicates read."""
    sub = sorted(subset)
    rows = [[sub.index(x) for x in e] for e in edges.tolist() if set(e) <= set(sub)]
    return np.array(rows, dtype=np.int64).reshape(-1, edges.shape[1]), len(sub)


class TestTypes:
    def test_params_validation(self):
        # every random-graph route refuses the same (v, k, p), with the same
        # texts and in the same order: v, then k, r and p, then its own guard.
        # The draw reads no r, and the local routes name their size u
        routes = [lambda v, k, p, r: generate(v, k, p, seed=0),
                  lambda v, k, p, r: mc_global(v, k, p, r, trials=1),
                  exact_global, exact_exactly_one]
        local_routes = [lambda u, k, p, r: mc_local(u, k, p, r, trials=1), exact_local]
        for (v, k, p), message in [((0, 3, 0.5), "v must be >= 1, got 0"),
                                   ((0, 1, 1.5), "v must be >= 1, got 0"),
                                   ((5, 1, 0.5), "k must be >= 2, got 1"),
                                   ((5, 1, 1.5), "k must be >= 2, got 1"),
                                   ((5, 3, 1.5), r"p must lie in \[0, 1\], got 1.5"),
                                   ((10**6, 3, 1.5), r"p must lie in \[0, 1\], got 1.5")]:
            for route in routes:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    route(v, k, p, 1)
            for route in local_routes:
                with pytest.raises(ValueError, match=f"^{message.replace('v ', 'u ')}$"):
                    route(v, k, p, 1)
        # r before p, and both before the enumeration and generation guards
        for route in routes[1:] + local_routes:
            for v, p in ((5, 0.5), (5, 1.5), (10**6, 1.5)):
                with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
                    route(v, 3, p, 0)


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

    @pytest.mark.parametrize("k", range(1, 17))
    def test_colex_order_matches_sorted_combinations(self, k):
        for v in range(25 if k <= 5 else 17):  # v < k included: no rows
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
        full = generate(3, 3, 1.0, seed=9)
        assert full.tolist() == [[0, 1, 2]]
        empty = generate(5, 3, 0.0, seed=9)
        assert empty.tolist() == []

    def test_is_the_kernel_draw(self):
        # the guarded draw returns the kernel's (m, k) int64 edge array
        for v, k, p, seed in ((12, 3, 0.3, 77), (9, 2, 0.5, 3), (75, 3, 0.001, 5)):
            edges = generate(v, k, p, seed)
            assert edges.dtype == np.int64 and edges.shape[1:] == (k,)
            assert np.array_equal(edges, kernels.sample_edges(v, k, p, seed))

    def test_edge_count_in_binomial_band(self):
        h = generate(20, 3, 0.5, seed=12345)
        assert 456 <= len(h) <= 684  # Binomial(1140, 0.5) band

    def test_determinism(self):
        point = (12, 3, 0.3)
        assert np.array_equal(generate(*point, seed=77), generate(*point, seed=77))
        assert not np.array_equal(generate(*point, seed=77), generate(*point, seed=78))

    def test_edge_slot_guard(self, monkeypatch):
        # an edge array holds k int64 slots per row: the largest k accepted
        # past v draws an empty (0, k) array, and the next is refused with
        # corebound's text before any draw, however large
        assert EDGE_SLOT_GUARD == 2**60 - 1
        edges = generate(5, EDGE_SLOT_GUARD, 0.5, seed=0)
        assert edges.shape == (0, EDGE_SLOT_GUARD) and edges.dtype == np.int64

        def forbidden(*args):
            raise AssertionError("kernels._draw_kept called")

        monkeypatch.setattr(kernels, "_draw_kept", forbidden)
        for k in (2**60, 10**400):
            with pytest.raises(ValueError, match=re.escape(
                    f"k = {count_text(k)} exceeds the edge-array guard {2**60 - 1}")):
                generate(5, k, 0.5, seed=0)
        # the model's domain is checked first
        with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1.5$"):
            generate(5, 2**60, 1.5, seed=0)

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="generation guard"):
            generate(5000, 3, 1e-9, seed=0)
        with pytest.raises(ValueError, match="generation guard"):
            mc_global(5000, 3, 1e-9, 2, trials=1, seed=0)
        with pytest.raises(ValueError, match="generation guard"):
            mc_local(5000, 3, 1e-9, 2, trials=1, seed=0)
        assert choose(5000, 3) > GENERATE_GUARD

    def test_kept_edge_guard(self, monkeypatch, capsys):
        # C(2300, 3) = 2.03e9 draws pass GENERATE_GUARD, but at p = 1 one
        # graph would keep them all (about 130 GB): rejected before any draw
        def forbidden(*args):
            raise AssertionError("kernels._draw_kept called")

        monkeypatch.setattr(kernels, "_draw_kept", forbidden)
        assert choose(2300, 3) <= GENERATE_GUARD and choose(2300, 3) * 1.0 > KEPT_GUARD
        with pytest.raises(ValueError, match="kept-edge guard"):
            mc_global(2300, 3, 1.0, 2, trials=1)
        with pytest.raises(ValueError, match="kept-edge guard"):
            mc_local(2300, 3, 1.0, 2, trials=1)
        with pytest.raises(ValueError, match="kept-edge guard"):
            generate(2300, 3, 1.0, 0)
        argv = ["global", "--v", "2300", "--k", "3", "--p", "1", "--method", "mc", "--trials", "1"]
        assert main(argv) == 2
        assert "kept-edge guard" in capsys.readouterr().err
        # the bound itself is accepted: C(2300, 3) * p = 2^22 draws nothing here
        with pytest.raises(AssertionError, match="_draw_kept"):
            mc_global(2300, 3, KEPT_GUARD / choose(2300, 3), 2, trials=1)
        # twice the bound is refused (one graph would peak near 0.54 GB)
        with pytest.raises(ValueError, match="kept-edge guard"):
            mc_global(2300, 3, 2**23 / choose(2300, 3), 2, trials=1)


class TestPeel:
    def test_single_edge(self):
        h = hg((0, 1, 2))
        assert peel(h, 3, 1) == {0, 1, 2}
        assert peel(h, 3, 2) == frozenset()

    def test_four_triples(self):
        h = hg((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert peel(h, 4, 2) == {0, 1, 2, 3}
        assert peel(h, 4, 3) == {0, 1, 2, 3}  # each vertex in exactly 3 edges
        assert peel(h, 4, 4) == frozenset()

    def test_cascade(self):
        # removing the degree-1 tail 5 kills the edge and then 3, 4
        h = hg((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3), (3, 4, 5))
        assert peel(h, 6, 2) == {0, 1, 2, 3}

    def test_fixed_point(self):
        for seed in range(5):
            h = generate(12, 3, 0.08, seed=seed)
            core = peel(h, 12, 2)
            if not core:
                continue
            inside = h[np.isin(h, sorted(core)).all(axis=1)]
            again = peel(inside, 12, 2)
            assert again == core

    def test_r1_keeps_non_isolated(self):
        for seed in range(5):
            h = generate(10, 3, 0.05, seed=seed)
            non_isolated = set(h.ravel().tolist())
            assert peel(h, 10, 1) == non_isolated


class TestPredicates:
    def test_singleton_connected(self):
        h = hg((0, 1, 2))
        assert kernels.connected_all(*induced(h, {3}))

    def test_isolated_vertex_disconnects(self):
        h = hg((0, 1, 2))
        assert not kernels.connected_all(*induced(h, {0, 1, 2, 3}))
        assert kernels.connected_all(*induced(h, {0, 1, 2}))

    def test_shared_vertex_connects(self):
        h = hg((0, 1, 2), (2, 3, 4))
        assert kernels.connected_all(*induced(h, {0, 1, 2, 3, 4}))

    def test_induced_edges_only(self):
        # edge (2,3,4) leaves the subset, so 2 has induced degree 0
        h = hg((0, 1, 2), (2, 3, 4))
        assert not kernels.connected_all(*induced(h, {0, 1, 2, 3}))

    def test_has_rcore_on(self):
        h = hg((0, 1, 2))
        assert min_degree_ok(*induced(h, {0, 1, 2}), 1)
        assert not min_degree_ok(*induced(h, {0, 1, 2}), 2)
        h4 = hg((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert min_degree_ok(*induced(h4, {0, 1, 2, 3}), 3)

    def test_min_degree_one_core_without_connectivity(self):
        # two vertex-disjoint edges: a 1-core on all six, yet disconnected
        h = hg((0, 1, 2), (3, 4, 5))
        assert min_degree_ok(*induced(h, range(6)), 1)
        assert not kernels.connected_all(*induced(h, range(6)))


class TestEnumerate:
    @pytest.mark.parametrize("v,expected", [(3, 2), (4, 16), (5, 1024)])
    def test_counts(self, v, expected):
        assert sum(1 for _ in edge_subsets(v, 3)) == expected

    def test_unique_and_first_empty(self):
        graphs = list(edge_subsets(4, 3))
        assert graphs[0].tolist() == []
        assert len({g.tobytes() for g in graphs}) == 16


class TestCountText:
    """A guard refusal writes a count of at most 30 digits in full, and a
    longer one as its first 10 digits and its digit count."""

    @pytest.mark.parametrize("m", [0, 35, 2**31 + 1, 10**30 - 1])
    def test_short_count_in_full(self, m):
        assert count_text(m) == str(m)

    def test_long_counts(self):
        # the digit count comes from the bit length: check it across both
        # sides of every power of ten and of two in the range
        counts = [m for d in range(30, 400) for m in (10**d - 1, 10**d)]
        counts += [m for b in range(100, 1400) for m in (2**b - 1, 2**b)]
        for m in counts:
            if m >= 10**30:
                assert count_text(m) == f"{str(m)[:10]}... ({len(str(m))} digits)", m
