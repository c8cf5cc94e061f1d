import math

import numpy as np
import pytest

from attricom import (AffiliationMatrix, AttributedGraph, AttributeWeights,
                      FitConfig, attr_prob, build_graph, edge_prob,
                      grad_attr_weights, grad_node, log_lik_attr, log_lik_graph,
                      make_holdout, objective)
from attricom.likelihood import (_LOG_HI, _LOG_LO, _local_objectives, _log_sigmoid,
                                 _NodeState)

from oracles import (central_difference, naive_grad_attr_weights,
                     naive_grad_node, naive_log_lik_attr, naive_log_lik_graph,
                     random_instance)


class TestEdgeProb:
    def test_disjoint_supports(self):
        assert edge_prob([1.0, 0.0], [0.0, 0.0]) == 0.0
        assert edge_prob([2.0, 0.0], [0.0, 3.0]) == 0.0

    def test_unit_memberships(self):
        assert edge_prob([1.0], [1.0]) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            edge_prob([1.0], [1.0, 2.0])

    def test_symmetric_and_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(1, 5))
            f, g = rng.uniform(0, 2, c), rng.uniform(0, 2, c)
            assert edge_prob(f, g) == edge_prob(g, f)
            bumped = f.copy()
            i = int(rng.integers(c))
            bumped[i] += 0.5
            if g[i] > 0:
                assert edge_prob(bumped, g) > edge_prob(f, g)


class TestAttrProb:
    def test_zero_weights_give_half(self):
        assert attr_prob([0.0, 0.0, 0.0], [3.0, 7.0]) == 0.5

    def test_hand_sigmoid(self):
        assert attr_prob([1.0, 0.0], [math.log(3)]) == pytest.approx(0.75, abs=1e-12)

    def test_saturated_bias_stays_positive(self):
        p = attr_prob([0.0, -20.0], [5.0])
        assert p == pytest.approx(2.0611536181902037e-09, rel=1e-9)
        assert p > 0.0


class TestLogSigmoid:
    EDGES = np.array([0.0, 1e-300, 27.6, 745.0, 1e308, np.inf])

    @staticmethod
    def _clamped(x):
        return np.minimum(np.maximum(x, _LOG_LO), _LOG_HI)

    def test_matches_clamped_logaddexp_within_one_ulp(self):
        s = np.concatenate([self.EDGES, -self.EDGES,
                            np.random.default_rng(0).normal(scale=20.0, size=1000)])
        for got, want in ((_log_sigmoid(s), self._clamped(-np.logaddexp(0.0, -s))),
                          (_log_sigmoid(-s), self._clamped(-np.logaddexp(0.0, s)))):
            assert (np.abs(got - want) <= np.spacing(np.abs(want))).all()
            assert ((got >= _LOG_LO) & (got <= _LOG_HI)).all()

    def test_saturates_at_the_clamp(self):
        assert _log_sigmoid(np.array([np.inf, -np.inf])).tolist() == [_LOG_HI, _LOG_LO]


class TestLogLikGraph:
    def test_single_edge_hand_value(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[math.log(2)], [1.0]])  # dot = ln 2
        assert log_lik_graph(g, F) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_all_zero_no_edges(self):
        g = build_graph([], [], 4, 0)
        F = AffiliationMatrix(np.zeros((4, 3)))
        assert log_lik_graph(g, F) == 0.0

    def test_matches_naive_all_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            G, F, _ = random_instance(rng, max_n=15)
            assert log_lik_graph(G, F) == pytest.approx(
                naive_log_lik_graph(G, F), abs=1e-9)
        # One community and many, half their entries zero, on whole graphs
        # and on held-out training graphs.
        for seed, c in enumerate([1, 17] * 4):
            G, _, _ = random_instance(rng, max_n=15, max_k=0)
            n = G.num_nodes
            F = AffiliationMatrix(rng.uniform(0.0, 0.5, size=(n, c)) * (rng.random((n, c)) < 0.5))
            assert log_lik_graph(G, F) == pytest.approx(naive_log_lik_graph(G, F), abs=1e-9)
            mask = make_holdout(G, 0.25, seed)
            pairs = set(zip(mask.pair_u.tolist(), mask.pair_v.tolist()))
            assert log_lik_graph(mask.training_graph, F) == pytest.approx(
                naive_log_lik_graph(G, F, masked=pairs), abs=1e-9)


class TestLogLikAttr:
    def test_no_attrs(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix(np.ones((2, 1)))
        W = AttributeWeights(np.zeros((0, 2)))
        assert log_lik_attr(g, F, W) == 0.0

    def test_single_cell_hand_value(self):
        g = build_graph([], [(0, 0)], 1, 1)
        F = AffiliationMatrix([[math.log(3)]])
        W = AttributeWeights([[1.0, 0.0]])  # Q = sigma(ln 3) = 0.75
        assert log_lik_attr(g, F, W) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            G, F, W = random_instance(rng, max_n=10, max_k=5)
            assert log_lik_attr(G, F, W) == pytest.approx(
                naive_log_lik_attr(G, F, W), abs=1e-12)

    def test_permuted_pairs_beyond_one_chunk(self):
        # The graph sorts the pairs it stores, so the order they are given in
        # cannot change the likelihood, here over 5000 * 450 cells.
        rng = np.random.default_rng(9)
        n, k, c = 5000, 450, 3
        pairs = np.argwhere(rng.random((n, k)) < 0.01)
        F = AffiliationMatrix(rng.uniform(0.0, 1.0, size=(n, c)))
        W = AttributeWeights(rng.uniform(-1.0, 1.0, size=(k, c + 1)))
        want = log_lik_attr(AttributedGraph(n, k, [], pairs), F, W)
        assert log_lik_attr(AttributedGraph(n, k, [], rng.permutation(pairs)), F, W) == want


class TestGradNode:
    def test_isolated_node_no_attrs_zero_gradient(self):
        g = build_graph([], [], 1, 0)
        F = AffiliationMatrix([[0.7, 0.2]])
        W = AttributeWeights(np.zeros((0, 3)))
        g0 = grad_node(0, g, F, W, FitConfig())
        assert np.array_equal(g0, np.zeros(2))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        cfg = FitConfig(alpha=0.5)
        for _ in range(20):
            G, F, W = random_instance(rng, max_n=20)
            u = int(rng.integers(G.num_nodes))
            fast = grad_node(u, G, F, W, cfg)
            slow = naive_grad_node(u, G, F, W, cfg.alpha, cfg.min_dot_guard)
            assert np.allclose(fast, slow, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        cfg = FitConfig(alpha=0.5)
        for _ in range(20):
            G, F, W = random_instance(rng, max_n=12)
            u = int(rng.integers(G.num_nodes))

            def scaled_objective(row):
                F2 = AffiliationMatrix(F.values)
                F2.values[u] = row
                F2.column_sums = F2.values.sum(axis=0)
                return ((1 - cfg.alpha) * naive_log_lik_graph(G, F2, cfg.min_dot_guard)
                        + cfg.alpha * naive_log_lik_attr(G, F2, W))

            fd = central_difference(scaled_objective, F.values[u], h=1e-6)
            g = grad_node(u, G, F, W, cfg)
            for i in range(len(g)):
                if abs(g[i]) > 1e-6:
                    assert abs(g[i] - fd[i]) / max(abs(g[i]), abs(fd[i])) < 1e-4


class TestGradAttrWeights:
    def test_zero_state_bias_residual(self):
        g = build_graph([], [(0, 0), (2, 0)], 4, 1)
        F = AffiliationMatrix(np.zeros((4, 2)))
        W = AttributeWeights(np.zeros((1, 3)))
        grad = grad_attr_weights(0, g, F, W)
        # Q = 0.5 everywhere and F = 0, so only the bias coordinate moves.
        assert np.allclose(grad[:-1], 0.0)
        assert grad[-1] == pytest.approx(2 * 0.5 + 2 * (-0.5), abs=1e-15)

    def test_perfect_fit_zero_gradient(self):
        # Saturated weights reproduce X exactly, so every residual vanishes.
        g = build_graph([], [(u, 0) for u in range(3)], 3, 1)
        F = AffiliationMatrix(np.ones((3, 1)))
        W = AttributeWeights([[0.0, 50.0]])
        grad = grad_attr_weights(0, g, F, W)
        assert np.array_equal(grad, np.zeros(2))

    def test_matches_naive_and_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            G, F, W = random_instance(rng, max_n=12, max_k=5)
            if G.num_attrs == 0:
                continue
            k = int(rng.integers(G.num_attrs))
            fast = grad_attr_weights(k, G, F, W)
            slow = naive_grad_attr_weights(k, G, F, W)
            assert np.allclose(fast, slow, atol=1e-10)

            def attr_ll(wk):
                W2 = AttributeWeights(W.values)
                W2.values[k] = wk
                return naive_log_lik_attr(G, F, W2)

            fd = central_difference(attr_ll, W.values[k], h=1e-6)
            for i in range(len(fast)):
                if abs(fast[i]) > 1e-6:
                    assert abs(fast[i] - fd[i]) / max(abs(fast[i]), abs(fd[i])) < 1e-4


class TestObjective:
    def test_lambda_zero_kills_penalty(self):
        rng = np.random.default_rng(12)
        G, F, W = random_instance(rng, max_n=8)
        val = objective(G, F, W, FitConfig(lam=0.0))
        assert val.l1_penalty == 0.0

    def test_alpha_zero_scaling_exact(self):
        rng = np.random.default_rng(13)
        G, F, W = random_instance(rng, max_n=8)
        val = objective(G, F, W, FitConfig(alpha=0.0, lam=2.0))
        assert val.scaled_total == val.l_graph - val.l1_penalty

    def test_parts_match_oracles(self):
        rng = np.random.default_rng(14)
        cfg = FitConfig(alpha=0.25, lam=0.7)
        for _ in range(10):
            G, F, W = random_instance(rng, max_n=10, max_k=4)
            val = objective(G, F, W, cfg)
            assert val.l_graph == pytest.approx(naive_log_lik_graph(G, F), abs=1e-9)
            assert val.l_attr == pytest.approx(naive_log_lik_attr(G, F, W), abs=1e-10)
            l1 = 0.7 * sum(abs(float(x)) for row in W.values for x in row[:-1])
            assert val.l1_penalty == pytest.approx(l1, rel=1e-12)
            assert val.l_graph <= 0 and val.l_attr <= 0 and val.l1_penalty >= 0

    def test_bit_identical_on_repeat(self):
        rng = np.random.default_rng(15)
        G, F, W = random_instance(rng, max_n=12)
        cfg = FitConfig()
        a = objective(G, F, W, cfg)
        b = objective(G, F, W, cfg)
        assert a == b
        assert log_lik_graph(G, F) == log_lik_graph(G, F)


class TestLocalObjectives:
    def test_differences_match_objective(self):
        """A node's local objectives differ across candidate rows exactly as
        the scaled objective does, on whole and held-out graphs."""
        rng = np.random.default_rng(21)
        cfg = FitConfig(alpha=0.4, lam=0.7)
        for seed in range(6):
            G, F, W = random_instance(rng, max_n=16, max_c=3, max_k=5)
            graphs = [G]
            if G.num_nodes >= 4:
                graphs.append(make_holdout(G, 0.3, seed).training_graph)
            for g in graphs:
                for u in range(g.num_nodes):
                    rows = np.vstack([F.values[u],
                                      rng.uniform(0.0, 2.0, size=(4, F.num_communities))])
                    rows[1, 0] = 0.0
                    local = _local_objectives(_NodeState(u, g, F, W, cfg), rows)
                    base = objective(g, F, W, cfg).scaled_total
                    for row, value in zip(rows[1:], local[1:]):
                        moved = F.values.copy()
                        moved[u] = row
                        delta = objective(g, AffiliationMatrix(moved), W, cfg).scaled_total - base
                        assert value - local[0] == pytest.approx(delta, abs=1e-9)


class TestMaskedMatchesOracles:
    def test_masked_parts_match_naive_loops(self):
        rng = np.random.default_rng(16)
        cfg = FitConfig(alpha=0.5)
        n, c, k = 14, 3, 4
        for seed in range(30):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.3]
            attrs = [(u, a) for u in range(n) for a in range(k) if rng.random() < 0.4]
            G = build_graph(edges, attrs, n, k)
            F = AffiliationMatrix(rng.uniform(0.1, 2.0, size=(n, c)))
            W = AttributeWeights(rng.uniform(-1.5, 1.5, size=(k, c + 1)))
            mask = make_holdout(G, 0.25, seed)
            pairs = {(int(u), int(v)) for u, v in zip(mask.pair_u, mask.pair_v)}
            cells = {(int(u), int(a)) for u, a in zip(mask.attr_u, mask.attr_k)}
            assert pairs and cells
            train = mask.training_graph

            assert log_lik_graph(train, F) == pytest.approx(
                naive_log_lik_graph(G, F, masked=pairs), abs=1e-9)
            assert log_lik_attr(train, F, W) == pytest.approx(
                naive_log_lik_attr(G, F, W, masked=cells), abs=1e-9)
            for u in range(n):
                slow = naive_grad_node(u, G, F, W, cfg.alpha, masked_pairs=pairs,
                                       masked_attrs=cells)
                assert np.allclose(grad_node(u, train, F, W, cfg), slow, atol=1e-9)
            for a in range(k):
                slow = naive_grad_attr_weights(a, G, F, W, masked=cells)
                assert np.allclose(grad_attr_weights(a, train, F, W), slow, atol=1e-9)
