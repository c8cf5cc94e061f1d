import math

import numpy as np
import pytest

from attricom import (AffiliationMatrix, AttributeWeights, CommunityCover,
                      FitConfig, SimilarityKind, build_graph, default_threshold,
                      edge_prob, fit, grad_node, init_affiliations, match_score,
                      rank_attributes, refresh_column_sums,
                      threshold_memberships, update_attr_weights, update_node)
from attricom.likelihood import _local_objectives, _node_state
from attricom.solver import _attr_objective

from oracles import naive_log_lik_attr

TWO_CLIQUES = ([(u, v) for u in range(5) for v in range(u + 1, 5)]
               + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)])


def _planted_like(rng, n=30, c=2, k=4):
    """Small random attributed graph for update-level tests."""
    member = rng.random((n, c)) < 0.5
    member[~member.any(axis=1), 0] = True
    F = member.astype(float)
    edges, attrs = [], []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < -np.expm1(-float(F[u] @ F[v])):
                edges.append((u, v))
        for a in range(k):
            if rng.random() < 0.4:
                attrs.append((u, a))
    return build_graph(edges, attrs, n, k)


class TestUpdateNode:
    def test_zero_gradient_is_fixed_point(self):
        g = build_graph([], [], 1, 0)
        F = AffiliationMatrix([[0.4, 0.9]])
        W = AttributeWeights(np.zeros((0, 3)))
        before = F.values[0].copy()
        update_node(0, g, F, W, FitConfig())
        assert np.array_equal(F.values[0], before)

    def test_single_neighbor_strictly_improves(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[0.5], [1.0]])
        W = AttributeWeights(np.zeros((0, 2)))
        cfg = FitConfig(alpha=0.0)
        st = _node_state(0, g, F, W, cfg)
        before = _local_objectives(st, F.values[0][np.newaxis])[0]
        new_row = update_node(0, g, F, W, cfg)
        after = _local_objectives(st, new_row[np.newaxis])[0]
        assert after > before

    def test_projection_pins_zero_coordinate(self):
        # No edge between the nodes: the gradient is negative everywhere and
        # node 0 sits at zero, so the projected step cannot move it.
        g = build_graph([], [], 2, 0)
        F = AffiliationMatrix([[0.0], [1.0]])
        W = AttributeWeights(np.zeros((0, 2)))
        update_node(0, g, F, W, FitConfig(alpha=0.0))
        assert F.values[0, 0] == 0.0

    def test_column_sums_adjusted_by_delta(self):
        rng = np.random.default_rng(0)
        g = _planted_like(rng)
        F = init_affiliations(g, 2, seed=1)
        W = AttributeWeights(np.zeros((g.num_attrs, 3)))
        cfg = FitConfig()
        for u in range(g.num_nodes):
            update_node(u, g, F, W, cfg)
        assert np.allclose(F.column_sums, F.values.sum(axis=0), rtol=1e-9, atol=1e-12)

    def test_takes_largest_armijo_step(self):
        # Reference: the backtracking loop, one trial at a time.
        rng = np.random.default_rng(4)
        g = _planted_like(rng)
        F = init_affiliations(g, 2, seed=5)
        W = AttributeWeights(rng.normal(size=(g.num_attrs, 3)))
        cfg = FitConfig()
        ls = cfg.line_search
        for u in range(g.num_nodes):
            st = _node_state(u, g, F, W, cfg)
            f_old = F.values[u].copy()
            grad = grad_node(u, g, F, W, cfg)
            want, t = f_old, ls.init_step
            for _ in range(ls.max_trials):
                cand = np.clip(f_old + t * grad, 0.0, cfg.max_f)
                gain = (_local_objectives(st, cand[np.newaxis])[0]
                        - _local_objectives(st, f_old[np.newaxis])[0])
                if gain >= ls.armijo_const * t * float(grad @ grad):
                    want = cand
                    break
                t *= ls.shrink_factor
            assert np.allclose(update_node(u, g, F, W, cfg), want, rtol=1e-12, atol=0.0)

    def test_stays_in_bounds(self):
        rng = np.random.default_rng(1)
        g = _planted_like(rng)
        F = init_affiliations(g, 3, seed=2)
        W = AttributeWeights(np.zeros((g.num_attrs, 4)))
        cfg = FitConfig(max_f=50.0)
        for _ in range(3):
            for u in range(g.num_nodes):
                update_node(u, g, F, W, cfg)
        assert F.values.min() >= 0.0 and F.values.max() <= 50.0


class TestUpdateAttrWeights:
    def test_perfect_fit_is_fixed_point(self):
        g = build_graph([], [(u, 0) for u in range(3)], 3, 1)
        F = AffiliationMatrix(np.ones((3, 1)))
        W = AttributeWeights([[0.0, 50.0]])  # saturated: Q == X == 1
        before = W.values[0].copy()
        update_attr_weights(0, g, F, W, FitConfig(lam=0.0))
        assert np.array_equal(W.values[0], before)

    def test_huge_lambda_keeps_weights_at_zero(self):
        rng = np.random.default_rng(2)
        g = _planted_like(rng, n=20)
        F = init_affiliations(g, 2, seed=0)
        W = AttributeWeights(np.zeros((g.num_attrs, 3)))
        cfg = FitConfig(lam=float(g.num_nodes) + 5.0)
        for _ in range(5):
            for k in range(g.num_attrs):
                update_attr_weights(k, g, F, W, cfg)
        assert np.array_equal(W.values[:, :-1], np.zeros((g.num_attrs, 2)))

    def test_objective_never_decreases_without_penalty(self):
        rng = np.random.default_rng(3)
        g = _planted_like(rng, n=15, k=3)
        F = AffiliationMatrix(rng.uniform(0, 1.5, size=(15, 2)))
        W = AttributeWeights(np.zeros((3, 3)))
        cfg = FitConfig(lam=0.0, alpha=0.5)
        last = naive_log_lik_attr(g, F, W)
        for _ in range(50):
            for k in range(g.num_attrs):
                update_attr_weights(k, g, F, W, cfg)
            current = naive_log_lik_attr(g, F, W)
            assert current >= last - 1e-9
            last = current

    def test_armijo_objective_matches_naive(self):
        rng = np.random.default_rng(4)
        g = _planted_like(rng, n=12, k=2)
        F = AffiliationMatrix(rng.uniform(0, 1.5, size=(12, 2)))
        W = AttributeWeights(rng.uniform(-1, 1, size=(2, 3)))
        cfg = FitConfig(lam=0.8, alpha=0.6)
        for k in range(2):
            got = _attr_objective(k, g, F, W.values[k], cfg, None)
            per_attr = sum(
                (math.log if g.has_attr(u, k) else (lambda q: math.log(1 - q)))(
                    min(max(1 / (1 + math.exp(-(float(W.values[k][:-1] @ F.values[u])
                                                + W.values[k][-1]))), 1e-12), 1 - 1e-12))
                for u in range(g.num_nodes))
            want = 0.6 * per_attr - 0.8 * float(np.abs(W.values[k][:-1]).sum())
            assert got == pytest.approx(want, abs=1e-10)


class TestFit:
    def test_two_clique_recovery(self):
        g = build_graph(TWO_CLIQUES, [], 10, 0)
        res = fit(g, 2, FitConfig(alpha=0.5, max_outer_iters=100, rng_seed=0))
        cover = threshold_memberships(res.F)
        found = {tuple(sorted(c)) for c in cover}
        assert found == {tuple(range(5)), tuple(range(5, 10))}

    def test_zero_iterations_returns_initialization(self):
        g = build_graph(TWO_CLIQUES, [], 10, 0)
        cfg = FitConfig(max_outer_iters=0, rng_seed=3)
        res = fit(g, 2, cfg)
        init = init_affiliations(g, 2, seed=3)
        assert np.array_equal(res.F.values, init.values)
        assert res.iterations_run == 0 and not res.converged
        assert len(res.objective_trace) == 1

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(5)
        g = _planted_like(rng, n=25, c=2, k=3)
        cfg = FitConfig(max_outer_iters=30, rng_seed=9)
        a = fit(g, 3, cfg)
        b = fit(g, 3, cfg)
        assert np.array_equal(a.F.values, b.F.values)
        assert np.array_equal(a.W.values, b.W.values)
        assert a.objective_trace == b.objective_trace
        assert a.iterations_run == b.iterations_run

    def test_monotone_trace_single_worker(self):
        rng = np.random.default_rng(6)
        g = _planted_like(rng, n=25, c=2, k=3)
        res = fit(g, 3, FitConfig(max_outer_iters=40, rng_seed=0))
        totals = [o.scaled_total for o in res.objective_trace]
        assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))

    def test_rejects_bad_community_count(self):
        g = build_graph([(0, 1)], [], 2, 0)
        with pytest.raises(ValueError):
            fit(g, 0)

    def test_alpha_zero_ignores_attribute_permutation(self):
        rng = np.random.default_rng(7)
        g = _planted_like(rng, n=20, c=2, k=4)
        perm = [2, 0, 3, 1]
        permuted_pairs = [(int(u), perm[int(k)]) for u, k in g.attr_pairs]
        g_perm = build_graph([tuple(e) for e in g.edges], permuted_pairs, 20, 4)
        cfg = FitConfig(alpha=0.0, max_outer_iters=25, rng_seed=1)
        a = fit(g, 2, cfg)
        b = fit(g_perm, 2, cfg)
        assert np.array_equal(a.F.values, b.F.values)
        assert np.array_equal(a.W.values, np.zeros_like(a.W.values))

    def test_reports_genuine_objective(self):
        from attricom import objective
        rng = np.random.default_rng(8)
        g = _planted_like(rng, n=30, c=2, k=3)
        cfg = FitConfig(max_outer_iters=10, rng_seed=0)
        res = fit(g, 2, cfg)
        recomputed = objective(g, res.F, res.W, cfg)
        assert res.objective_trace[-1] == recomputed
        assert res.F.values.min() >= 0.0 and res.F.values.max() <= cfg.max_f


class TestThresholdMemberships:
    def test_default_threshold_values(self):
        assert default_threshold(2) == pytest.approx(math.sqrt(math.log(2)), abs=1e-12)
        assert default_threshold(100) == pytest.approx(0.100251363349839, abs=1e-12)

    def test_all_zero_memberships_give_empty_cover(self):
        F = AffiliationMatrix(np.zeros((5, 3)))
        assert len(threshold_memberships(F)) == 0

    def test_rejects_single_node(self):
        F = AffiliationMatrix([[1.0]])
        with pytest.raises(ValueError):
            threshold_memberships(F)

    def test_duplicates_and_empties_dropped(self):
        F = AffiliationMatrix([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        cover = threshold_memberships(F)
        assert len(cover) == 1
        assert sorted(next(iter(cover))) == [0, 1]

    def test_delta_override(self):
        F = AffiliationMatrix([[0.5], [0.2]])
        cover = threshold_memberships(F, delta=0.4)
        assert [sorted(c) for c in cover] == [[0]]
        cover = threshold_memberships(F, delta=0.2)  # boundary is inclusive
        assert [sorted(c) for c in cover] == [[0, 1]]

    def test_rejects_nonpositive_delta(self):
        # At delta = 0 every node would join every community.
        F = AffiliationMatrix([[0.5], [0.0]])
        for delta in (0.0, -0.1):
            with pytest.raises(ValueError):
                threshold_memberships(F, delta=delta)

    def test_shared_community_pair_probability_bound(self):
        rng = np.random.default_rng(9)
        g = _planted_like(rng, n=30, c=3, k=4)
        res = fit(g, 3, FitConfig(max_outer_iters=30, rng_seed=2))
        cover = threshold_memberships(res.F)
        n = g.num_nodes
        delta = default_threshold(n)
        member = res.F.values >= delta
        for c in range(res.F.num_communities):
            ids = np.flatnonzero(member[:, c])
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    p_single = edge_prob([res.F.values[ids[i], c]],
                                         [res.F.values[ids[j], c]])
                    assert p_single >= 1.0 / n - 1e-12


class TestRankAttributes:
    def test_all_zero_weights(self):
        W = AttributeWeights(np.zeros((3, 4)))
        assert rank_attributes(W) == [(0, 0.0), (1, 0.0), (2, 0.0)]

    def test_bias_excluded_from_norm(self):
        W = AttributeWeights([[3.0, 4.0, 99.0], [0.0, 1.0, -99.0]])
        ranked = rank_attributes(W)
        assert ranked[0] == (0, pytest.approx(5.0, abs=1e-12))
        assert ranked[1] == (1, pytest.approx(1.0, abs=1e-12))

    def test_single_attribute(self):
        W = AttributeWeights([[2.0, 0.5]])
        assert rank_attributes(W) == [(0, 2.0)]
