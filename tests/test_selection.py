import math

import numpy as np
import pytest

from attricom import (AffiliationMatrix, AttributeWeights, FitConfig,
                      HoldoutMask, build_graph, choose_num_communities, fit,
                      holdout_loglik, make_holdout)

from oracles import naive_log_lik_attr, naive_log_lik_graph


def _empty_mask():
    z = np.zeros(0, dtype=np.int64)
    return HoldoutMask(z, z, z, z, z, z)


def _random_attributed(rng, n=20, c=2, k=3):
    member = rng.random((n, c)) < 0.5
    member[~member.any(axis=1), 0] = True
    F = member.astype(float)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < -np.expm1(-float(F[u] @ F[v]))]
    attrs = [(u, a) for u in range(n) for a in range(k) if rng.random() < 0.4]
    return build_graph(edges, attrs, n, k)


class TestMakeHoldout:
    def test_pair_count_n10(self):
        g = build_graph([(0, 1), (2, 3)], [], 10, 0)
        mask = make_holdout(g, 0.1, seed=0)
        assert len(mask.pair_u) == 4  # round(45 * 0.1)

    def test_no_attr_pairs_without_attrs(self):
        g = build_graph([(0, 1)], [], 10, 0)
        mask = make_holdout(g, 0.1, seed=0)
        assert len(mask.attr_u) == 0

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        g = _random_attributed(rng)
        a = make_holdout(g, 0.2, seed=7)
        b = make_holdout(g, 0.2, seed=7)
        assert np.array_equal(a.pair_u, b.pair_u)
        assert np.array_equal(a.pair_v, b.pair_v)
        assert np.array_equal(a.pair_obs, b.pair_obs)
        assert np.array_equal(a.attr_u, b.attr_u)
        assert np.array_equal(a.attr_k, b.attr_k)

    def test_fraction_bounds(self):
        g = build_graph([(0, 1)], [], 4, 0)
        with pytest.raises(ValueError):
            make_holdout(g, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_holdout(g, 1.0, seed=0)

    def test_observed_values_match_graph(self):
        rng = np.random.default_rng(1)
        g = _random_attributed(rng)
        mask = make_holdout(g, 0.3, seed=3)
        for (u, v), obs in mask.node_pairs.items():
            assert obs == int(g.has_edge(u, v))
        for (u, k), obs in mask.attr_pairs.items():
            assert obs == int(g.has_attr(u, k))

    def test_accessors_match_pair_arrays(self):
        rng = np.random.default_rng(6)
        g = _random_attributed(rng, n=20, k=4)
        mask = make_holdout(g, 0.3, seed=5)
        pairs = list(zip(mask.pair_u.tolist(), mask.pair_v.tolist()))
        cells = list(zip(mask.attr_u.tolist(), mask.attr_k.tolist()))
        for u in range(g.num_nodes):
            partners = sorted([b for a, b in pairs if a == u] + [a for a, b in pairs if b == u])
            assert mask.masked_partners(u).tolist() == partners
            assert mask.masked_attr_ids(u).tolist() == sorted(k for w, k in cells if w == u)
        for k in range(g.num_attrs):
            assert mask.masked_node_ids(k).tolist() == sorted(u for u, j in cells if j == k)
        empty = _empty_mask()
        assert len(empty.masked_partners(0)) == len(empty.masked_attr_ids(0)) == 0
        assert len(empty.masked_node_ids(0)) == 0

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            HoldoutMask([0, 0], [1, 1], [0, 0], [], [], [])

    def test_balanced_subsample_above_size_cutoff(self):
        rng = np.random.default_rng(2)
        n = 2100  # beyond the exact-pair regime
        edges = [(int(u), int(v)) if u < v else (int(v), int(u))
                 for u, v in rng.integers(0, n, size=(4000, 2)) if u != v]
        g = build_graph(edges, [], n, 0)
        mask = make_holdout(g, 0.1, seed=4)
        n_edges = int(mask.pair_obs.sum())
        assert n_edges == round(0.1 * g.num_edges)
        assert len(mask.pair_u) == 2 * n_edges  # equal count of non-edges
        for (u, v), obs in mask.node_pairs.items():
            assert obs == int(g.has_edge(u, v))


class TestHoldoutLoglik:
    def test_empty_mask_scores_zero(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix(np.ones((2, 1)))
        W = AttributeWeights(np.zeros((0, 2)))
        assert holdout_loglik(g, F, W, _empty_mask(), FitConfig()) == 0.0

    def test_single_edge_hand_value(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[math.log(2)], [1.0]])  # P_uv = 0.5
        W = AttributeWeights(np.zeros((0, 2)))
        mask = HoldoutMask([0], [1], [1], [], [], [])
        score = holdout_loglik(g, F, W, mask, FitConfig(alpha=0.5))
        assert score == pytest.approx(0.5 * math.log(0.5), abs=1e-12)

    def test_full_mask_equals_scaled_data_loglik(self):
        rng = np.random.default_rng(3)
        g = _random_attributed(rng, n=8, c=2, k=2)
        F = AffiliationMatrix(rng.uniform(0.1, 1.5, size=(8, 2)))
        W = AttributeWeights(rng.uniform(-1, 1, size=(2, 3)))
        us, vs = np.triu_indices(8, 1)
        obs = np.array([int(g.has_edge(int(u), int(v))) for u, v in zip(us, vs)])
        au, ak = np.divmod(np.arange(8 * 2), 2)
        aobs = np.array([int(g.has_attr(int(u), int(k))) for u, k in zip(au, ak)])
        mask = HoldoutMask(us, vs, obs, au, ak, aobs)
        cfg = FitConfig(alpha=0.3)
        got = holdout_loglik(g, F, W, mask, cfg)
        want = (0.7 * naive_log_lik_graph(g, F, cfg.min_dot_guard)
                + 0.3 * naive_log_lik_attr(g, F, W))
        assert got == pytest.approx(want, abs=1e-9)

    def test_never_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = _random_attributed(rng, n=15)
            mask = make_holdout(g, 0.2, seed=int(rng.integers(100)))
            F = AffiliationMatrix(rng.uniform(0, 2, size=(15, 2)))
            W = AttributeWeights(rng.uniform(-2, 2, size=(g.num_attrs, 3)))
            assert holdout_loglik(g, F, W, mask, FitConfig()) <= 0.0


class TestMaskedTraining:
    def test_masked_pairs_never_touch_training(self):
        # Flipping the observed value of any masked pair (edge on/off,
        # attribute on/off) must leave the fitted parameters bit-identical.
        rng = np.random.default_rng(5)
        g = _random_attributed(rng, n=18, c=2, k=3)
        cfg = FitConfig(max_outer_iters=12, rng_seed=2)
        mask = make_holdout(g, 0.2, seed=11)
        base = fit(g, 2, cfg, mask=mask)

        pairs = mask.node_pairs
        edge_pair = next(p for p, o in pairs.items() if o == 1)
        non_pair = next(p for p, o in pairs.items() if o == 0)
        edges = {tuple(e) for e in g.edges.tolist()}
        edges.discard(edge_pair)
        edges.add(non_pair)
        attrs = {tuple(a) for a in g.attr_pairs.tolist()}
        attr_cell, attr_obs = next(iter(mask.attr_pairs.items()))
        if attr_obs:
            attrs.discard(attr_cell)
        else:
            attrs.add(attr_cell)
        g_flipped = build_graph(sorted(edges), sorted(attrs), 18, 3)

        mask_flipped = make_holdout(g_flipped, 0.2, seed=11)
        assert np.array_equal(mask.pair_u, mask_flipped.pair_u)
        assert np.array_equal(mask.attr_u, mask_flipped.attr_u)

        flipped = fit(g_flipped, 2, cfg, mask=mask_flipped)
        assert np.array_equal(base.F.values, flipped.F.values)
        assert np.array_equal(base.W.values, flipped.W.values)


class TestChooseNumCommunities:
    def test_single_candidate(self):
        rng = np.random.default_rng(6)
        g = _random_attributed(rng, n=16)
        best, scores = choose_num_communities(g, [3], FitConfig(max_outer_iters=10))
        assert best == 3
        assert len(scores) == 1 and scores[0][0] == 3

    def test_bit_equal_tie_prefers_smaller(self):
        # fraction small enough that the mask is empty: every candidate scores
        # exactly 0.0, so the tie rule decides.
        g = build_graph([(0, 1), (1, 2), (2, 3)], [], 4, 0)
        cfg = FitConfig(max_outer_iters=3)
        best, scores = choose_num_communities(g, [4, 2, 8], cfg, fraction=0.05)
        assert [s for _, s in scores] == [0.0, 0.0, 0.0]
        assert best == 2

    def test_rejects_bad_candidates(self):
        g = build_graph([(0, 1)], [], 4, 0)
        with pytest.raises(ValueError):
            choose_num_communities(g, [], FitConfig())
        with pytest.raises(ValueError):
            choose_num_communities(g, [2, 0], FitConfig())
