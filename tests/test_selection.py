import math
import tracemalloc

import numpy as np
import pytest

from attricom import (AffiliationMatrix, AttributeWeights, FitConfig,
                      HoldoutMask, build_graph, choose_num_communities, fit,
                      holdout_loglik, log_lik_attr, make_holdout, objective)

from oracles import has_attr, has_edge, naive_log_lik_attr, naive_log_lik_graph


def _empty_mask(g):
    z = np.zeros(0, dtype=np.int64)
    return HoldoutMask(g, z, z, z, z)


def _random_edges(rng, n, m):
    return [(int(u), int(v)) if u < v else (int(v), int(u))
            for u, v in rng.integers(0, n, size=(m, 2)) if u != v]


def _random_attributed(rng, n=20, c=2, k=3):
    member = rng.random((n, c)) < 0.5
    member[~member.any(axis=1), 0] = True
    F = member.astype(float)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < -np.expm1(-float(F[u] @ F[v]))]
    attrs = [(u, a) for u in range(n) for a in range(k) if rng.random() < 0.4]
    return build_graph(edges, attrs, n, k)


def _sparse_20k(rng):
    """20,000 nodes by 500 attributes, 10**7 cells with 2% of them present,
    and about 100,000 edges."""
    n, k = 20_000, 500
    cells = np.unique(rng.integers(n * k, size=n * k // 50))
    return build_graph(rng.integers(n, size=(100_000, 2)),
                       np.column_stack(np.divmod(cells, k)), n, k)


def _traced(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        for u, v, obs in zip(mask.pair_u, mask.pair_v, mask.pair_obs):
            assert obs == int(has_edge(g, int(u), int(v)))
        for u, k, obs in zip(mask.attr_u, mask.attr_k, mask.attr_obs):
            assert obs == int(has_attr(g, int(u), int(k)))

    def test_accessors_match_pair_arrays(self):
        rng = np.random.default_rng(6)
        g = _random_attributed(rng, n=20, k=4)
        mask = make_holdout(g, 0.3, seed=5)
        pairs = list(zip(mask.pair_u.tolist(), mask.pair_v.tolist()))
        cells = list(zip(mask.attr_u.tolist(), mask.attr_k.tolist()))
        train = mask.training_graph
        assert train.edges.tolist() == [e for e in g.edges.tolist() if tuple(e) not in pairs]
        assert train.attr_pairs.tolist() == [c for c in g.attr_pairs.tolist()
                                             if tuple(c) not in cells]
        for u in range(g.num_nodes):
            partners = sorted([b for a, b in pairs if a == u] + [a for a, b in pairs if b == u])
            nbrs = g.neighbors(u).tolist()
            assert train.neighbors(u).tolist() == [v for v in nbrs if v not in partners]
            hidden_partners, hidden_attrs = train.unobserved_of(u)
            assert hidden_partners.tolist() == partners
            masked = sorted(k for w, k in cells if w == u)
            assert hidden_attrs.tolist() == masked
            assert train.node_attr_ids(u).tolist() == [k for k in g.node_attr_ids(u)
                                                       if k not in masked]
        for k in range(g.num_attrs):
            assert train.unobserved_nodes(k).tolist() == sorted(u for u, j in cells if j == k)
        empty = _empty_mask(g).training_graph
        assert np.array_equal(empty.edges, g.edges)
        assert np.array_equal(empty.attr_pairs, g.attr_pairs)
        for u in range(g.num_nodes):
            assert [a.tolist() for a in empty.unobserved_of(u)] == [[], []]
        assert all(empty.unobserved_nodes(k).tolist() == [] for k in range(g.num_attrs))

    def test_reserved_entries_stored_once(self):
        rng = np.random.default_rng(7)
        g = _random_attributed(rng, n=30, k=5)
        for mask in (make_holdout(g, 0.3, seed=2), HoldoutMask(g, [0, 8], [9, 9], [9], [1])):
            train = mask.training_graph
            assert np.shares_memory(mask.pair_u, train.unobserved_pairs)
            assert np.shares_memory(mask.pair_v, train.unobserved_pairs)
            assert np.shares_memory(mask.attr_u, train.unobserved_cells)
            assert np.shares_memory(mask.attr_k, train.unobserved_cells)
            assert np.array_equal(np.column_stack([mask.pair_u, mask.pair_v]),
                                  train.unobserved_pairs)
            assert np.array_equal(np.column_stack([mask.attr_u, mask.attr_k]),
                                  train.unobserved_cells)

    def test_duplicate_pairs_rejected(self):
        g = build_graph([(0, 1)], [(0, 0)], 3, 2)
        with pytest.raises(ValueError):
            HoldoutMask(g, [0, 0], [1, 1], [], [])
        with pytest.raises(ValueError):
            HoldoutMask(g, [], [], [2, 2], [1, 1])

    def test_ids_checked_against_graph(self):
        g = build_graph([(0, 1)], [(0, 0)], 10, 2)
        pair, cell = "node pairs must satisfy", "attribute pairs must satisfy"
        bad = [(([0], [50], [], []), pair),        # v beyond the graph
               (([-1], [3], [], []), pair),        # negative u
               (([4], [4], [], []), pair),         # u == v
               (([5], [4], [], []), pair),         # u > v
               (([0, 1], [2], [], []), "length"),  # arrays differ in length
               (([], [], [10], [0]), cell),        # node beyond the graph
               (([], [], [-1], [0]), cell),        # negative node
               (([], [], [0], [2]), cell),         # attribute beyond the graph
               (([], [], [0], [-1]), cell)]        # negative attribute
        for args, message in bad:
            with pytest.raises(ValueError, match=message):
                HoldoutMask(g, *args)
        assert len(HoldoutMask(g, [0, 8], [9, 9], [9], [1]).pair_u) == 2

    def test_balanced_subsample_above_size_cutoff(self):
        rng = np.random.default_rng(2)
        n = 2100  # beyond the exact-pair regime
        g = build_graph(_random_edges(rng, n, 4000), [], n, 0)
        mask = make_holdout(g, 0.1, seed=4)
        n_edges = int(mask.pair_obs.sum())
        assert n_edges == round(0.1 * g.num_edges)
        assert len(mask.pair_u) == 2 * n_edges  # equal count of non-edges
        for u, v, obs in zip(mask.pair_u, mask.pair_v, mask.pair_obs):
            assert obs == int(has_edge(g, int(u), int(v)))

    def test_large_graph_pairs_canonical_distinct_and_deterministic(self):
        rng = np.random.default_rng(3)
        n = 2500
        g = build_graph(_random_edges(rng, n, 6000), [], n, 0)
        mask = make_holdout(g, 0.2, seed=9)
        count = round(0.2 * g.num_edges)
        assert (mask.pair_u < mask.pair_v).all()
        pairs = set(zip(mask.pair_u.tolist(), mask.pair_v.tolist()))
        assert len(pairs) == len(mask.pair_u) == 2 * count
        edges = {tuple(e) for e in g.edges.tolist()}
        obs = mask.pair_obs.astype(bool)
        assert obs.sum() == count
        assert all((u, v) in edges for u, v in zip(mask.pair_u[obs].tolist(),
                                                    mask.pair_v[obs].tolist()))
        assert not any((u, v) in edges for u, v in zip(mask.pair_u[~obs].tolist(),
                                                        mask.pair_v[~obs].tolist()))
        again = make_holdout(g, 0.2, seed=9)
        assert np.array_equal(mask.pair_u, again.pair_u)
        assert np.array_equal(mask.pair_v, again.pair_v)
        assert np.array_equal(mask.pair_obs, again.pair_obs)

    def test_too_few_non_edges_rejected(self, monkeypatch):
        import attricom.selection as selection

        monkeypatch.setattr(selection, "_SMALL_N", 4)
        edges = [(u, v) for u in range(8) for v in range(u + 1, 8)][1:]
        g = build_graph(edges, [], 8, 0)  # one non-edge, 3 edges to reserve
        with pytest.raises(ValueError):
            make_holdout(g, 0.1, seed=0)

    def test_cell_sampler_above_dense_limit(self, monkeypatch):
        import attricom.selection as selection

        monkeypatch.setattr(selection, "_DENSE_ATTR_LIMIT", 10)
        rng = np.random.default_rng(7)
        g = _random_attributed(rng, n=30, k=5)
        mask = make_holdout(g, 0.4, seed=2)
        cells = set(zip(mask.attr_u.tolist(), mask.attr_k.tolist()))
        assert len(cells) == len(mask.attr_u) == round(0.4 * 30 * 5)
        assert ((0 <= mask.attr_k) & (mask.attr_k < 5)).all()
        for u, k, obs in zip(mask.attr_u, mask.attr_k, mask.attr_obs):
            assert obs == int(has_attr(g, int(u), int(k)))
        again = make_holdout(g, 0.4, seed=2)
        assert np.array_equal(mask.attr_u, again.attr_u)
        assert np.array_equal(mask.attr_k, again.attr_k)

    def test_memory_grows_with_stored_pairs_not_cells(self):
        # A held-out graph stores its unobserved entries per node, so a mask
        # costs memory in proportion to the pairs, not to the cells.
        g = _sparse_20k(np.random.default_rng(11))
        n, k = g.num_nodes, g.num_attrs
        mask, peak = _traced(lambda: make_holdout(g, 0.01, seed=3))
        assert len(mask.attr_u) == n * k // 100
        assert peak < 5 * n * k


class TestHoldoutLoglik:
    def test_empty_mask_scores_zero(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix(np.ones((2, 1)))
        W = AttributeWeights(np.zeros((0, 2)))
        assert holdout_loglik(g, F, W, _empty_mask(g), FitConfig()) == 0.0

    def test_single_edge_hand_value(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[math.log(2)], [1.0]])  # P_uv = 0.5
        W = AttributeWeights(np.zeros((0, 2)))
        mask = HoldoutMask(g, [0], [1], [], [])
        score = holdout_loglik(g, F, W, mask, FitConfig(alpha=0.5))
        assert score == pytest.approx(0.5 * math.log(0.5), abs=1e-12)

    def test_full_mask_equals_scaled_data_loglik(self):
        rng = np.random.default_rng(3)
        g = _random_attributed(rng, n=8, c=2, k=2)
        us, vs = np.triu_indices(8, 1)
        obs = np.array([int(has_edge(g, int(u), int(v))) for u, v in zip(us, vs)])
        au, ak = np.divmod(np.arange(8 * 2), 2)
        aobs = np.array([int(has_attr(g, int(u), int(k))) for u, k in zip(au, ak)])
        mask = HoldoutMask(g, us, vs, au, ak)
        assert mask.pair_obs.tolist() == obs.tolist()
        assert mask.attr_obs.tolist() == aobs.tolist()
        cfg = FitConfig(alpha=0.3)
        for c in (2, 1, 17):
            F = AffiliationMatrix(rng.uniform(0.1, 1.5, size=(8, c)))
            W = AttributeWeights(rng.uniform(-1, 1, size=(2, c + 1)))
            got = holdout_loglik(g, F, W, mask, cfg)
            want = (0.7 * naive_log_lik_graph(g, F, cfg.min_dot_guard)
                    + 0.3 * naive_log_lik_attr(g, F, W))
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("c", [1, 17])
    def test_partial_mask_scores_the_reserved_terms(self, c):
        # The reserved pairs' and cells' terms are the whole data's terms
        # less those of the training data.
        rng = np.random.default_rng(c)
        cfg = FitConfig(alpha=0.4)
        for seed in range(4):
            g = _random_attributed(rng, n=14, c=3, k=3)
            F = AffiliationMatrix(rng.uniform(0.0, 0.8, size=(14, c)) * (rng.random((14, c)) < 0.5))
            W = AttributeWeights(rng.uniform(-1, 1, size=(3, c + 1)))
            mask = make_holdout(g, 0.3, seed)
            pairs = set(zip(mask.pair_u.tolist(), mask.pair_v.tolist()))
            cells = set(zip(mask.attr_u.tolist(), mask.attr_k.tolist()))
            want = (0.6 * (naive_log_lik_graph(g, F) - naive_log_lik_graph(g, F, masked=pairs))
                    + 0.4 * (naive_log_lik_attr(g, F, W)
                             - naive_log_lik_attr(g, F, W, masked=cells)))
            assert holdout_loglik(g, F, W, mask, cfg) == pytest.approx(want, abs=1e-9)

    def test_mask_of_another_graph_rejected(self):
        g = build_graph([(0, 1), (1, 2)], [(0, 0)], 3, 1)
        other = build_graph([(0, 2)], [(1, 0)], 3, 1)
        mask = HoldoutMask(g, [0], [1], [0], [0])
        F = AffiliationMatrix(np.ones((3, 1)))
        W = AttributeWeights(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="another graph"):
            holdout_loglik(other, F, W, mask, FitConfig())
        assert holdout_loglik(g, F, W, mask, FitConfig()) < 0.0

    def test_saturated_cells_clamped_as_in_training(self):
        # z = 40 saturates both cells: the present one scores log(1 - 1e-12)
        # and the absent one log(1e-12), as the training objective does.
        g = build_graph([], [(0, 0)], 2, 1)
        F = AffiliationMatrix([[1.0], [1.0]])
        W = AttributeWeights([[40.0, 0.0]])
        mask = HoldoutMask(g, [], [], [0, 1], [0, 0])
        assert holdout_loglik(g, F, W, mask, FitConfig()) == 0.5 * log_lik_attr(g, F, W)

    def test_never_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = _random_attributed(rng, n=15)
            mask = make_holdout(g, 0.2, seed=int(rng.integers(100)))
            F = AffiliationMatrix(rng.uniform(0, 2, size=(15, 2)))
            W = AttributeWeights(rng.uniform(-2, 2, size=(g.num_attrs, 3)))
            assert holdout_loglik(g, F, W, mask, FitConfig()) <= 0.0


class TestMemoryAtScale:
    """The attribute term and the held-out score need memory in proportion to
    the nodes times the communities, not to the 10**6 reserved cells of a
    held-out graph of 20,000 nodes by 500 attributes; the objective needs at
    most a few float64 more per stored or unobserved node pair."""

    @pytest.fixture(scope="class")
    def heldout(self):
        rng = np.random.default_rng(11)
        g = _sparse_20k(rng)
        mask = make_holdout(g, 0.1, seed=3)
        F = AffiliationMatrix(rng.uniform(0.0, 1.0, size=(g.num_nodes, 5)))
        W = AttributeWeights(rng.uniform(-1.0, 1.0, size=(g.num_attrs, 6)))
        return g, mask, F, W

    def test_log_lik_attr_peak_in_nodes(self, heldout):
        g, mask, F, W = heldout
        assert len(mask.attr_u) == g.num_nodes * g.num_attrs // 10
        _, peak = _traced(lambda: log_lik_attr(mask.training_graph, F, W))
        assert peak < 8 * 8 * F.values.size  # eight float64 per node and community

    def test_holdout_loglik_peak_in_nodes(self, heldout):
        g, mask, F, W = heldout
        _, peak = _traced(lambda: holdout_loglik(g, F, W, mask, FitConfig()))
        assert peak < 8 * 8 * F.values.size

    def test_objective_peak_in_nodes_and_pairs(self, heldout):
        g, mask, _, _ = heldout
        rng = np.random.default_rng(12)
        c = 40
        F = AffiliationMatrix(rng.uniform(0.0, 1.0, size=(g.num_nodes, c)))
        W = AttributeWeights(rng.uniform(-1.0, 1.0, size=(g.num_attrs, c + 1)))
        train = mask.training_graph
        pairs = train.num_edges + len(train.unobserved_pairs)
        _, peak = _traced(lambda: objective(train, F, W, FitConfig()))
        assert peak < 8 * 8 * F.values.size + 4 * 8 * pairs


class TestMaskedTraining:
    def test_masked_pairs_never_touch_training(self):
        # Flipping the observed value of any masked pair (edge on/off,
        # attribute on/off) must leave the fitted parameters bit-identical.
        rng = np.random.default_rng(5)
        g = _random_attributed(rng, n=18, c=2, k=3)
        cfg = FitConfig(max_outer_iters=12, rng_seed=2)
        mask = make_holdout(g, 0.2, seed=11)
        base = fit(g, 2, cfg, mask=mask)

        pairs = np.column_stack([mask.pair_u, mask.pair_v]).tolist()
        edge_pair = tuple(pairs[int(np.flatnonzero(mask.pair_obs == 1)[0])])
        non_pair = tuple(pairs[int(np.flatnonzero(mask.pair_obs == 0)[0])])
        edges = {tuple(e) for e in g.edges.tolist()}
        edges.discard(edge_pair)
        edges.add(non_pair)
        attrs = {tuple(a) for a in g.attr_pairs.tolist()}
        attr_cell, attr_obs = (int(mask.attr_u[0]), int(mask.attr_k[0])), mask.attr_obs[0]
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
