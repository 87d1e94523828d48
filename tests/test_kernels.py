import math
import os
import subprocess
import sys

import numpy as np
import pytest

from corebound import exact_exactly_one, exact_global, exact_local, kernels, peel
from corebound.hypergraph import candidate_edges
from conftest import enumeration_prob

needs_numba = pytest.mark.skipif(not kernels.NUMBA_ENABLED, reason="numba backend disabled")


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


@needs_numba
class TestBackendEquivalence:
    @pytest.mark.parametrize("pred", ["connectivity", "min-degree"])
    def test_mc_local_counts_match(self, pred):
        cand = np.asarray(candidate_edges(8, 3))
        args = (cand, 8, 0.12, 2)
        nb = kernels.mc_local_successes(*args, pred, 4000, 31337)
        np_ = kernels._mc_local_np(*args, kernels.PREDICATES[pred], 4000, 31337, 0)
        assert nb == np_

    def test_mc_global_counts_match(self):
        cand = np.asarray(candidate_edges(9, 3))
        nb = kernels.mc_global_successes(cand, 9, 0.06, 2, 4000, 777)
        np_ = kernels._mc_global_np(cand, 9, 0.06, 2, 4000, 777, 0)
        assert nb == np_

    def test_mc_start_offset_matches(self):
        cand = np.asarray(candidate_edges(7, 3))
        nb = kernels.mc_global_successes(cand, 7, 0.1, 1, 500, 42, start=1500)
        np_ = kernels._mc_global_np(cand, 7, 0.1, 1, 500, 42, 1500)
        assert nb == np_


class TestExhaustiveOracles:
    """The bitmask oracles, which run the same numpy path on every backend."""

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

    def test_subset_prob_sums_exact_weights(self):
        # every subset accepted: the weights of all 2^m subsets sum to 1
        everything = lambda masks: np.ones(masks.shape, dtype=bool)
        assert kernels.subset_prob(20, 0.37, everything) == pytest.approx(1.0, abs=1e-14)
        assert kernels.subset_prob(3, 0.0, everything) == 1.0
        nothing = lambda masks: np.zeros(masks.shape, dtype=bool)
        assert kernels.subset_prob(3, 0.5, nothing) == 0.0


class TestEnvFlag:
    def test_disable_forces_numpy_backend(self):
        env = dict(os.environ, COREBOUND_NUMBA="0")
        out = subprocess.run(
            [sys.executable, "-c",
             "from corebound import kernels; print(kernels.backend())"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "numpy"

    def test_disabled_backend_gives_same_counts(self):
        env = dict(os.environ, COREBOUND_NUMBA="0")
        code = (
            "from corebound import mc_global;"
            "print(mc_global(6, 3, 0.2, 2, trials=1500, seed=5).successes)"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             env=env, capture_output=True, text=True, check=True)
        from corebound import mc_global

        assert int(out.stdout.strip()) == mc_global(6, 3, 0.2, 2, trials=1500, seed=5).successes
