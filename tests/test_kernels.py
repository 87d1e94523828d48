import math
import tracemalloc

import numpy as np
import pytest

from corebound import (HypergraphParams, choose, exact_exactly_one, exact_global,
                       exact_local, generate, has_rcore_on, is_connected_on, kernels,
                       mc_global, mc_local, peel)
from corebound.hypergraph import candidate_edges
from conftest import enumeration_prob


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
        assert kernels.unit_double(0) == 0.0
        assert 0.0 <= kernels.unit_double(2**64 - 1) < 1.0

    def test_sample_mask_deterministic(self):
        a = kernels.sample_edge_mask(500, 0.3, 99)
        b = kernels.sample_edge_mask(500, 0.3, 99)
        assert np.array_equal(a, b)
        c = kernels.sample_edge_mask(500, 0.3, 100)
        assert not np.array_equal(a, c)

    def test_sample_mask_extremes(self):
        assert not kernels.sample_edge_mask(100, 0.0, 7).any()
        assert kernels.sample_edge_mask(100, 1.0, 7).all()

    def test_sample_mask_is_the_scalar_stream(self):
        # the blocked integer test keeps exactly the candidates the scalar
        # definition keeps, across block edges and at the threshold's extremes
        seed = kernels.trial_seed(3, 5)
        longest = 2**17 + 3
        units = np.array([
            kernels.unit_double(kernels.mix64(seed + (j + 1) * kernels.GOLDEN))
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
                    assert kernels.sample_edge_mask(1, p, pair).tolist() == [[y < limit]] * 2

    @pytest.mark.parametrize("n", [1, kernels.BLOCK - 1, kernels.BLOCK, kernels.BLOCK + 1])
    def test_seed_array_rows_are_scalar_masks(self, n):
        seeds = np.array([0, kernels.trial_seed(3, 5), 2**64 - 1], dtype=np.uint64)
        for p in (0.0, 2**-53, 1e-4, 0.3, 0.5, 0.75, 1.0):
            masks = kernels.sample_edge_mask(n, p, seeds)
            assert masks.dtype == bool and masks.shape == (3, n)
            for seed, row in zip(seeds, masks):
                assert np.array_equal(row, kernels.sample_edge_mask(n, p, int(seed))), (n, p)
        assert kernels.sample_edge_mask(n, 0.5, seeds[:0]).shape == (0, n)

    def test_block_trial_seeds(self):
        seeds = kernels._trial_seeds(2**64 - 3, 40, 7)
        assert seeds.tolist() == [kernels.trial_seed(2**64 - 3, t) for t in range(40, 47)]

    def test_stream_fingerprint(self):
        # the v1 stream's bits, recorded before the blocked evaluation
        mask = kernels.sample_edge_mask(64, 0.5, kernels.trial_seed(1, 0))
        assert np.packbits(mask).tobytes().hex() == "a9c934cd2f288afe"


class TestSingleInstanceOps:
    def test_peel_simple(self):
        edges = np.array([[0, 1, 2]], dtype=np.int64)
        assert kernels.peel_survivor_mask(edges, 3, 1).all()
        assert not kernels.peel_survivor_mask(edges, 3, 2).any()

    def test_peel_no_edges(self):
        empty = np.empty((0, 3), dtype=np.int64)
        assert not kernels.peel_survivor_mask(empty, 4, 1).any()

    def test_connected(self):
        edges = np.array([[0, 1, 2], [2, 3, 4]], dtype=np.int64)
        assert kernels.connected_all(edges, 5)
        assert not kernels.connected_all(edges[:1], 4)
        assert kernels.connected_all(np.empty((0, 3), dtype=np.int64), 1)

    def test_min_degree(self):
        edges = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], dtype=np.int64)
        assert kernels.min_degree_ok(edges, 4, 3)
        assert not kernels.min_degree_ok(edges, 4, 4)


def _per_trial(v, p, r, predicate, trials, seed, start):
    """Trials t in [start, start + trials) whose ``generate(params,
    trial_seed(seed, t))`` passes the predicate, one graph at a time."""
    params, full = HypergraphParams(v, 3, p, r), range(v)
    test = {"global": lambda h: bool(peel(h, r)),
            "connectivity": lambda h: is_connected_on(h, full),
            "min-degree": lambda h: has_rcore_on(h, full, r)}[predicate]
    return sum(test(generate(params, kernels.trial_seed(seed, t)))
               for t in range(start, start + trials))


class TestBlockedTrials:
    """The trial-blocked drivers count what ``generate`` draws trial by trial."""

    @pytest.mark.parametrize("predicate,v,p,r,trials,start,blocks", [
        # several stream passes per block, and more trials than a block's TRIAL_BLOCK // v
        ("global", 40, 33 / choose(40, 3), 2, 900, 0, 2),
        ("global", 40, 0.7 / choose(40, 3), 1, 900, 13, 2),
        ("connectivity", 24, 24 / choose(24, 3), 1, 1500, 0, 2),
        ("min-degree", 24, 48 / choose(24, 3), 1, 1500, 5, 2),
        # dense: blocks sized by their expected kept edges, not by TRIAL_BLOCK // v
        ("global", 20, 0.5, 76, 300, 7, 2),
        ("min-degree", 20, 0.5, 73, 300, 7, 2),
        ("connectivity", 20, 0.01, 1, 300, 0, 1),
        # C(v, 3) > BLOCK: one stream pass per slice of a trial
        ("global", 75, 75 / 1.222 / choose(75, 3), 2, 4, 3, 1),
        ("connectivity", 75, 0.0015, 1, 4, 3, 1),
    ])
    def test_counts_are_the_per_trial_sum(self, monkeypatch, predicate, v, p, r, trials,
                                          start, blocks):
        # stream passes and seed derivations; draws; blocks
        calls = {"_mix64_rounds": 0, "_draw_kept": 0, "_trial_seeds": 0}
        for name in calls:
            def counted(*args, _fn=getattr(kernels, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(kernels, name, counted)
        if predicate == "global":
            got = mc_global(v, 3, p, r, trials=trials, seed=11, start=start).successes
        else:
            got = mc_local(v, 3, p, r, predicate, trials=trials, seed=11, start=start).successes
        monkeypatch.undo()
        assert got == _per_trial(v, p, r, predicate, trials, 11, start)
        passes = calls["_mix64_rounds"] - calls["_trial_seeds"]
        assert passes > 1 and calls["_trial_seeds"] >= blocks, calls
        assert calls["_draw_kept"] == calls["_trial_seeds"], calls  # one draw per block
        if trials > 100:
            assert 0 < got < trials

    @pytest.mark.parametrize("predicate, v, p", [
        ("global", 40, 33 / choose(40, 3)),       # several passes per block, three blocks
        ("connectivity", 24, 24 / choose(24, 3)),
        ("global", 75, 0.0015),                   # C(v, 3) > BLOCK: two passes per trial
    ])
    def test_one_pair_of_scratch_buffers_per_run(self, monkeypatch, predicate, v, p):
        # holding the arrays keeps a buffer freed between calls from being reused
        draws, rounds = [], []
        draw_kept, mix64_rounds = kernels._draw_kept, kernels._mix64_rounds

        def recorded_draw(n, p, seeds, z, tmp):
            draws.append((z, tmp))
            return draw_kept(n, p, seeds, z, tmp)

        def recorded_rounds(z, tmp):
            rounds.append((z, tmp))
            return mix64_rounds(z, tmp)

        monkeypatch.setattr(kernels, "_draw_kept", recorded_draw)
        monkeypatch.setattr(kernels, "_mix64_rounds", recorded_rounds)
        if predicate == "global":
            mc_global(v, 3, p, 2, trials=900 if v < 75 else 3, seed=4)
        else:
            mc_local(v, 3, p, 1, predicate, trials=1500, seed=4)
        z, tmp = draws[0]
        assert all(zb is z and tb is tmp for zb, tb in draws)
        assert z is not tmp and z.size == tmp.size == kernels.BLOCK
        # a stream pass runs in both buffers of the pair, a trial seed block in neither
        passes = [np.shares_memory(zr, z) for zr, _ in rounds]
        assert [np.shares_memory(tr, tmp) for _, tr in rounds] == passes
        assert sum(passes) > 1 and sum(passes) >= len(draws)

    def test_dense_run_memory_is_bounded(self):
        # C(30, 3) * 0.5 = 2030 kept edges per trial: a block sized by
        # vertices alone (546 trials) would hold all 200 trials' edges
        mc_global(30, 3, 0.5, 2, trials=1)  # first-call set-up
        tracemalloc.start()
        try:
            mc_global(30, 3, 0.5, 2, trials=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    @pytest.mark.parametrize("v", [12, 75])  # C(75, 3) > BLOCK
    def test_generate_keeps_the_masked_candidates(self, v):
        m = choose(v, 3)
        assert (m > kernels.BLOCK) == (v == 75)
        for p in (0.0, 0.3, 1.0):
            for seed in (0, kernels.trial_seed(9, 2)):
                mask = kernels.sample_edge_mask(m, p, seed)
                expected = candidate_edges(v, 3)[np.flatnonzero(mask)]
                got = generate(HypergraphParams(v, 3, p, 1), seed).edge_array()
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


class TestExhaustiveOracles:
    """The bitmask oracles."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("r", [1, 2])
    def test_global_matches_brute_force(self, k, r):
        for v in range(k, 6):
            cand = np.asarray(candidate_edges(v, k))
            for p in (0.0, 0.37, 0.8, 1.0):
                brute = enumeration_prob(v, k, p, lambda h: bool(peel(h, r)))
                assert kernels.exhaustive_global_prob(cand, v, r, p) == \
                    pytest.approx(brute, abs=1e-12)

    def test_pinned_values(self):
        # the per-mask loops' values at 2^20 edge subsets, bit for bit
        assert exact_global(6, 3, 0.5, 2).hex() == "0x1.fdc4000000007p-1"
        assert exact_local(6, 3, 0.5, 2).hex() == "0x1.e3bbe00000007p-1"
        assert exact_exactly_one(6, 3, 0.5, 2, "minimal").hex() == "0x1.43be000000006p-5"

    def test_incidence_masks(self):
        inc = kernels.edge_incidence(np.asarray(candidate_edges(4, 3)), 4)
        # colex rows: {0,1,2}, {0,1,3}, {0,2,3}, {1,2,3}
        assert inc.dtype == np.uint32
        assert inc.tolist() == [0b0111, 0b1011, 0b1101, 0b1110]
        with pytest.raises(ValueError, match="uint32"):
            kernels.edge_incidence(np.asarray(candidate_edges(7, 3)), 7)
        with pytest.raises(ValueError, match="2-dimensional"):
            kernels.edge_incidence(np.arange(3), 4)

    def test_subset_prob_sums_exact_weights(self):
        # every subset accepted: the weights of all 2^m subsets sum to 1
        everything = lambda masks: np.ones(masks.shape, dtype=bool)
        assert kernels.subset_prob(20, 0.37, everything) == pytest.approx(1.0, abs=1e-14)
        assert kernels.subset_prob(3, 0.0, everything) == 1.0
        nothing = lambda masks: np.zeros(masks.shape, dtype=bool)
        assert kernels.subset_prob(3, 0.5, nothing) == 0.0
