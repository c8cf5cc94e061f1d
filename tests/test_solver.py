import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attricom.solver as solver
from attricom import (MAX_MEMBERSHIP, AffiliationMatrix, AttributeWeights,
                      CommunityCover, FitConfig, ForestFireParams, SimilarityKind,
                      bernoulli_attributes, build_graph,
                      default_threshold, edge_prob, fit, forest_fire, grad_node,
                      init_affiliations, make_holdout, match_score, rank_attributes,
                      refresh_column_sums, threshold_memberships,
                      update_attr_weights, update_node)
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
        assert update_node(0, g, F, W, FitConfig()) is False
        assert np.array_equal(F.values[0], before)

    def test_single_neighbor_strictly_improves(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[0.5], [1.0]])
        W = AttributeWeights(np.zeros((0, 2)))
        cfg = FitConfig(alpha=0.0)
        st = _node_state(0, g, F, W, cfg)
        before = _local_objectives(st, F.values[0][np.newaxis])[0]
        assert update_node(0, g, F, W, cfg) is True
        after = _local_objectives(st, F.values[0][np.newaxis])[0]
        assert after > before

    def test_settled_node_is_skipped(self):
        g = build_graph([(0, 1)], [], 2, 0)
        F = AffiliationMatrix([[0.5], [1.0]])
        W = AttributeWeights(np.zeros((0, 2)))
        cfg = FitConfig(alpha=0.0)
        sums = F.column_sums.copy()
        assert update_node(0, g, F, W, cfg, None, np.array([True, False])) is False
        assert F.values.tolist() == [[0.5], [1.0]]
        assert np.array_equal(F.column_sums, sums)
        assert update_node(0, g, F, W, cfg, None, np.array([False, True])) is True
        assert F.values[0, 0] != 0.5

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
        for u in range(g.num_nodes):
            st = _node_state(u, g, F, W, cfg)
            f_old = F.values[u].copy()
            grad = grad_node(u, g, F, W, cfg)
            want, t = f_old, 1.0
            for _ in range(16):
                cand = np.clip(f_old + t * grad, 0.0, MAX_MEMBERSHIP)
                gain = (_local_objectives(st, cand[np.newaxis])[0]
                        - _local_objectives(st, f_old[np.newaxis])[0])
                if gain >= 1e-4 * t * float(grad @ grad):
                    want = cand
                    break
                t *= 0.3
            moved = update_node(u, g, F, W, cfg)
            assert np.allclose(F.values[u], want, rtol=1e-12, atol=0.0)
            assert moved == (want is not f_old)

    def test_stays_in_bounds(self):
        # The attribute pulls node 0 up by about 0.5 from just under the cap,
        # and the edge term is flat at its zero-row neighbor: the full step
        # passes the Armijo test and lands on the cap, not above it.
        g = build_graph([(0, 1)], [(0, 0)], 2, 1)
        F = AffiliationMatrix([[MAX_MEMBERSHIP - 0.01], [0.0]])
        W = AttributeWeights([[1.0, -1010.0]])
        assert update_node(0, g, F, W, FitConfig()) is True
        assert F.values[0].tolist() == [MAX_MEMBERSHIP]
        assert F.column_sums.tolist() == [MAX_MEMBERSHIP]


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
        assert res.F.values.min() >= 0.0 and res.F.values.max() <= MAX_MEMBERSHIP


def _recorded_fit(monkeypatch, g, C, cfg, mask=None):
    """fit, plus each pass's node updates as (node, moved) pairs, read
    through wrappers on the module globals fit calls. Every pass must call
    update_node once per node in id order; calls that a shrunk pass's
    settled screen skips are not recorded as updates."""
    passes, calls = [], []
    update_node, objective = solver.update_node, solver.objective

    def counted_update(u, G, F, W, config, mask=None, settled=None):
        skipped = settled is not None and bool(settled[u])
        row = F.values[u].copy()
        moved = update_node(u, G, F, W, config, mask, settled)
        calls[-1].append(u)
        if skipped:
            assert moved is False and np.array_equal(F.values[u], row)
        else:
            passes[-1].append((u, moved))
        return moved

    def marked_objective(*args):
        passes.append([])  # fit scores the start, then the end of every pass
        calls.append([])
        return objective(*args)

    monkeypatch.setattr(solver, "update_node", counted_update)
    monkeypatch.setattr(solver, "objective", marked_objective)
    result = fit(g, C, cfg, mask)
    passes = passes[:-1]
    assert calls[:-1] == [list(range(g.num_nodes))] * result.iterations_run
    assert result.nodes_updated == [len(p) for p in passes]
    return result, passes


def _stalled(result, i, tol):
    """Whether pass i (0-based) improved the objective by less than the
    stopping threshold."""
    before, after = (o.scaled_total for o in result.objective_trace[i:i + 2])
    return after - before < tol * max(abs(before), 1e-12)


def _sparse_graph(seed, n=120):
    """A forest-fire graph on which most rows settle after a few passes."""
    g = forest_fire(ForestFireParams(n=n, seed=seed))
    return bernoulli_attributes(g, 4, 0.5, seed=seed)


class TestShrinkingPass:
    def test_full_pass_first_and_every_fourth_once_shrinking(self, monkeypatch):
        g = _sparse_graph(1)
        cfg = FitConfig(max_outer_iters=14, rng_seed=1, rel_improvement_tol=0.0)
        result, passes = _recorded_fit(monkeypatch, g, 3, cfg)
        n = g.num_nodes
        assert not any(_stalled(result, i, 0.0) for i in range(result.iterations_run))
        full = [i for i, calls in enumerate(passes) if len(calls) == n]
        first_shrunk = min(set(range(len(passes))) - set(full))
        assert full == list(range(first_shrunk)) + [first_shrunk + 3, first_shrunk + 7]
        assert [u for u, _ in passes[0]] == list(range(n))

    def test_schedule_and_shrunk_pass_visits_exactly_the_nodes_that_moved(self, monkeypatch):
        for seed in (1, 2, 3):
            g = _sparse_graph(seed)
            cfg = FitConfig(max_outer_iters=40, rng_seed=seed, rel_improvement_tol=1e-6)
            result, passes = _recorded_fit(monkeypatch, g, 3, cfg)
            everyone = list(range(g.num_nodes))
            moved_last = {}
            shrunk_in_row, skipped = 0, 0
            for i, calls in enumerate(passes):
                unsettled = sorted(u for u, m in moved_last.items() if m)
                if (i == 0 or shrunk_in_row == 3 or 2 * len(unsettled) > g.num_nodes
                        or (shrunk_in_row and _stalled(result, i - 1, 1e-6))):
                    assert [u for u, _ in calls] == everyone
                    shrunk_in_row = 0
                else:
                    assert [u for u, _ in calls] == unsettled
                    shrunk_in_row += 1
                    skipped += g.num_nodes - len(calls)
                moved_last.update(calls)
            assert skipped > 0

    def test_converged_fit_ends_on_full_pass(self, monkeypatch):
        for seed in (1, 2, 3):
            g = _sparse_graph(seed)
            cfg = FitConfig(max_outer_iters=60, rng_seed=seed, rel_improvement_tol=1e-4)
            result, passes = _recorded_fit(monkeypatch, g, 3, cfg)
            assert result.converged and result.iterations_run < 60
            assert len(passes[-1]) == g.num_nodes
            assert _stalled(result, result.iterations_run - 1, 1e-4)

    def test_stalled_shrunk_pass_is_followed_by_full_pass(self, monkeypatch):
        g = _sparse_graph(1)
        cfg = FitConfig(max_outer_iters=60, rng_seed=1, rel_improvement_tol=1e-4)
        result, passes = _recorded_fit(monkeypatch, g, 3, cfg)
        stalls = [i for i, calls in enumerate(passes)
                  if len(calls) < g.num_nodes and _stalled(result, i, 1e-4)]
        assert stalls
        for i in stalls:
            assert len(passes[i + 1]) == g.num_nodes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(4, 40), C=st.integers(1, 4),
           p=st.floats(0.02, 0.5), masked=st.booleans())
    def test_monotone_and_deterministic(self, seed, n, C, p, masked):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        attrs = [(u, k) for u in range(n) for k in range(3) if rng.random() < 0.4]
        g = build_graph(edges, attrs, n, 3)
        mask = make_holdout(g, 0.2, seed) if masked else None
        cfg = FitConfig(max_outer_iters=25, rng_seed=seed, rel_improvement_tol=1e-6)
        a = fit(g, C, cfg, mask)
        b = fit(g, C, cfg, mask)
        totals = [o.scaled_total for o in a.objective_trace]
        assert all(y >= x - 1e-9 for x, y in zip(totals, totals[1:]))
        assert a.objective_trace == b.objective_trace
        assert a.nodes_updated == b.nodes_updated and a.nodes_updated[0] == n
        assert np.array_equal(a.F.values, b.F.values)
        assert np.array_equal(a.W.values, b.W.values)


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
