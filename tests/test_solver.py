import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attricom.solver as solver
from attricom import (MAX_MEMBERSHIP, AffiliationMatrix, AttributeWeights,
                      CommunityCover, FitConfig, ForestFireParams, HoldoutMask,
                      SimilarityKind, bernoulli_attributes, build_graph,
                      default_threshold, edge_prob, fit, forest_fire, grad_node,
                      init_affiliations, make_holdout, match_score, objective,
                      rank_attributes, refresh_column_sums, threshold_memberships,
                      update_attr_weights, update_node)
from attricom.likelihood import (_attr_loglik, _BatchState, _local_objectives,
                                 _NodeState)
from attricom.solver import _node_runs, _propose_batch

from oracles import (clamp_prob, has_attr, loop_update_attr_weights,
                     naive_log_lik_attr, sigmoid)

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
        st = _NodeState(0, g, F, W, cfg)
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
        assert update_node(0, g, F, W, cfg, np.array([True, False])) is False
        assert F.values.tolist() == [[0.5], [1.0]]
        assert np.array_equal(F.column_sums, sums)
        assert update_node(0, g, F, W, cfg, np.array([False, True])) is True
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
            st = _NodeState(u, g, F, W, cfg)
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


class TestMovable:
    CAP = MAX_MEMBERSHIP
    # (row, gradient, movable): locked at 0 with g < 0, at the cap with g > 0,
    # and wherever g is +-0.0; one free coordinate frees the row.
    CASES = [
        ([0.0, 0.0], [-1.0, -2.5], False),
        ([CAP, CAP], [3.0, 1e-300], False),
        ([0.0, CAP], [-1.0, 2.0], False),
        ([0.5, 1.0], [0.0, -0.0], False),
        ([0.0, CAP], [0.0, -0.0], False),
        ([0.0, 0.5], [-1.0, 0.0], False),
        ([0.0, 0.5], [-1.0, 1e-300], True),
        ([0.0, 0.5], [-1.0, -0.25], True),
        ([CAP, 0.0], [2.0, 0.5], True),
        ([CAP, 0.0], [-2.0, -0.5], True),
        ([0.0, CAP], [1e-9, 2.0], True),
    ]

    @pytest.mark.parametrize("row, g, want", CASES)
    def test_hand_rows(self, row, g, want):
        assert bool(solver._movable(np.array(row), np.array(g))) is want

    def test_stacked_rows_agree_with_single_rows(self):
        rows = np.array([row for row, _, _ in self.CASES])
        grads = np.array([g for _, g, _ in self.CASES])
        stacked = solver._movable(rows, grads)
        assert stacked.shape == (len(self.CASES),) and stacked.dtype == bool
        assert stacked.tolist() == [bool(solver._movable(r, g)) for r, g in zip(rows, grads)]
        assert stacked.tolist() == [want for _, _, want in self.CASES]


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
        # The weight step scores its trials by alpha * _attr_loglik - lam * ||w||_1.
        rng = np.random.default_rng(4)
        g = _planted_like(rng, n=12, k=2)
        F = AffiliationMatrix(rng.uniform(0, 1.5, size=(12, 2)))
        W = AttributeWeights(rng.uniform(-1, 1, size=(2, 3)))
        cfg = FitConfig(lam=0.8, alpha=0.6)

        def naive(k, w):
            per_attr = sum(
                (math.log if has_attr(g, u, k) else (lambda q: math.log(1 - q)))(
                    clamp_prob(sigmoid(float(w[:-1] @ F.values[u]) + float(w[-1]))))
                for u in range(g.num_nodes))
            return per_attr, 0.6 * per_attr - 0.8 * float(np.abs(w[:-1]).sum())

        for k in range(2):
            per_attr, before = naive(k, W.values[k].copy())
            assert _attr_loglik(k, g, F, W.values[k]) == pytest.approx(per_attr, abs=1e-10)
            w = update_attr_weights(k, g, F, W, cfg)
            assert naive(k, w)[1] > before

    def test_keeps_the_weights_of_trials_scored_at_their_candidates(self):
        """Trials scored along the direction keep the weights that scoring
        each candidate by its own _attr_loglik keeps, on whole and held-out
        graphs, and on a saturated one where no trial passes."""
        rng = np.random.default_rng(7)
        cases = [(build_graph([], [(u, 0) for u in range(3)], 3, 1),
                  AffiliationMatrix(np.ones((3, 1))), AttributeWeights([[1e-12, 50.0]]),
                  FitConfig(lam=1.0))]
        for seed in range(4):
            g = _planted_like(rng, n=24, c=3, k=4)
            for G in (g, make_holdout(g, 0.2, seed).training_graph):
                for lam in (0.0, 1.0, 50.0):
                    cases.append((G, AffiliationMatrix(rng.uniform(0, 1.5, size=(24, 3))),
                                  AttributeWeights(rng.uniform(-1, 1, size=(4, 4))),
                                  FitConfig(alpha=0.6, lam=lam)))
        for G, F, W, cfg in cases:
            for _ in range(3):
                for k in range(G.num_attrs):
                    want = loop_update_attr_weights(k, G, F, W, cfg)
                    assert np.array_equal(update_attr_weights(k, G, F, W, cfg), want)
                    assert np.array_equal(W.values[k], want)

    def test_records_the_term_of_the_weights_kept(self):
        # The weights returned are the row W holds after the step; on the
        # saturated cases no step passes, so that row is the one before it.
        rng = np.random.default_rng(6)
        g = _planted_like(rng, n=20, k=3)
        F = AffiliationMatrix(rng.uniform(0, 1.5, size=(20, 2)))
        W = AttributeWeights(rng.uniform(-1, 1, size=(3, 3)))
        saturated = build_graph([], [(u, 0) for u in range(3)], 3, 1)
        cases = [(g, F, W, FitConfig(lam=lam), False) for lam in (0.0, 1.0, 50.0)]
        # Saturated: a zero direction; then one whose every step crosses zero
        # and raises the l1 cost, so no trial passes.
        for w, lam in (([0.0, 50.0], 0.0), ([1e-12, 50.0], 1.0)):
            cases.append((saturated, AffiliationMatrix(np.ones((3, 1))),
                          AttributeWeights([w]), FitConfig(lam=lam), True))
        for G, F, W, cfg, stays in cases:
            for _ in range(3):
                for k in range(G.num_attrs):
                    before = W.values[k].copy()
                    w = update_attr_weights(k, G, F, W, cfg)
                    assert np.array_equal(w, W.values[k])
                    assert not stays or np.array_equal(w, before)


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

    @pytest.mark.parametrize("masked", [False, True])
    def test_trace_reuses_the_weight_pass_terms(self, monkeypatch, masked):
        # Each trace entry equals objective recomputed afterwards on copies of
        # the F and W it was computed from.
        g = _planted_like(np.random.default_rng(9), n=30, c=2, k=3)
        mask = make_holdout(g, 0.2, 1) if masked else None
        objective_, states = solver.objective, []

        def recorded(G, F, W, config):
            states.append((G, F.values.copy(), W.values.copy(), config))
            return objective_(G, F, W, config)

        monkeypatch.setattr(solver, "objective", recorded)
        result = fit(g, 2, FitConfig(max_outer_iters=8), mask)
        assert len(states) == len(result.objective_trace) == 1 + result.iterations_run
        for (G, F, W, config), value in zip(states, result.objective_trace):
            assert value == objective_(G, AffiliationMatrix(F), AttributeWeights(W), config)

    def test_reports_genuine_objective(self):
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
    update_node once per node in id order, which holds for graphs without
    runs of _MIN_BATCH (16) non-adjacent nodes, since a longer run is
    updated as a batch; calls that a shrunk pass's settled screen skips are
    not recorded as updates."""
    passes, calls = [], []
    update_node, objective = solver.update_node, solver.objective

    def counted_update(u, G, F, W, config, settled=None):
        skipped = settled is not None and bool(settled[u])
        row = F.values[u].copy()
        moved = update_node(u, G, F, W, config, settled)
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


class TestHoldoutFit:
    def test_empty_mask_fit_is_the_whole_fit(self):
        rng = np.random.default_rng(11)
        g = _planted_like(rng, n=25, c=2, k=3)
        z = np.zeros(0, dtype=np.int64)
        cfg = FitConfig(max_outer_iters=20, rng_seed=4)
        whole = fit(g, 3, cfg)
        empty = fit(g, 3, cfg, mask=HoldoutMask(g, z, z, z, z))
        assert np.array_equal(whole.F.values, empty.F.values)
        assert np.array_equal(whole.W.values, empty.W.values)
        assert whole.objective_trace == empty.objective_trace
        assert whole.nodes_updated == empty.nodes_updated

    def test_mask_of_another_graph_rejected(self):
        rng = np.random.default_rng(12)
        g = _planted_like(rng, n=20)
        same_size = _planted_like(rng, n=20)
        other_size = _planted_like(rng, n=24)
        for other in (same_size, other_size):
            with pytest.raises(ValueError, match="another graph"):
                fit(g, 2, FitConfig(max_outer_iters=2), mask=make_holdout(other, 0.2, 0))
        fit(g, 2, FitConfig(max_outer_iters=2), mask=make_holdout(g, 0.2, 0))


def _batched_graph(masked=False):
    """forest-fire n=1000, on which 556 nodes lie in runs of 16 or more; with
    masked, the training graph of a mask reserving 150 edges, up to 150
    other pairs and up to 300 cells (make_holdout's share of all pairs would
    leave no run of 16)."""
    g = _sparse_graph(1, n=1000)
    if not masked:
        return g
    rng = np.random.default_rng(0)
    n = g.num_nodes
    others = np.sort(rng.integers(0, n, size=(400, 2)), axis=1)
    others = others[(others[:, 0] < others[:, 1])
                    & ~np.isin(others @ [n, 1], g.edges @ [n, 1])][:150]
    pairs = np.unique(np.concatenate([g.edges[rng.choice(g.num_edges, 150, replace=False)],
                                      others]), axis=0)
    cells = np.unique(np.column_stack([rng.integers(0, n, 300),
                                       rng.integers(0, g.num_attrs, 300)]), axis=0)
    return HoldoutMask(g, pairs[:, 0], pairs[:, 1], cells[:, 0], cells[:, 1]).training_graph


def _long_runs(G, C):
    return [(a, b) for a, b in _node_runs(G, C) if b - a >= solver._MIN_BATCH]


class TestBatchKernel:
    @pytest.mark.parametrize("masked", [False, True])
    def test_predicted_gain_is_the_objective_change(self, masked):
        G = _batched_graph(masked)
        F = init_affiliations(G, 3, seed=0)
        W = AttributeWeights(np.random.default_rng(0).normal(size=(G.num_attrs, 4)))
        cfg = FitConfig()
        runs = _long_runs(G, 3)
        assert sum(b - a for a, b in runs) > 500
        moves = 0
        for _ in range(2):
            for a, b in runs:
                before = objective(G, F, W, cfg).scaled_total
                moved, rows, gain = _propose_batch(np.arange(a, b), G, F, W, cfg)
                F.values[moved] = rows
                refresh_column_sums(F)
                change = objective(G, F, W, cfg).scaled_total - before
                assert abs(change - gain) <= 1e-8 * abs(change)
                moves += len(moved)
        assert moves > 500

    def test_cross_term_outweighing_local_gains_falls_back(self, monkeypatch):
        # Nodes 0..19 share only hub 20: each alone gains by rising towards
        # the hub, but all of them rising together raises every non-edge
        # product between them.
        g = build_graph([(u, 20) for u in range(20)], [], 21, 0)
        F = AffiliationMatrix(np.r_[np.full(20, 0.01), 5.0][:, np.newaxis])
        W = AttributeWeights(np.zeros((0, 2)))
        cfg = FitConfig(alpha=0.0)
        batch = np.arange(20)
        alone = [_propose_batch(np.array([u]), g, F, W, cfg)[2] for u in batch]
        moved, _, gain = _propose_batch(batch, g, F, W, cfg)
        assert len(moved) == 20 and min(alone) > 0.0 and gain < 0.0
        calls = []
        update_node = solver.update_node
        monkeypatch.setattr(solver, "update_node",
                            lambda u, *args: calls.append(u) or update_node(u, *args))
        before = objective(g, F, W, cfg).scaled_total
        settled = np.zeros(21, dtype=bool)
        runs = _node_runs(g, 1)
        assert runs == [(0, 20), (20, 21)]
        solver._node_pass(g, F, W, cfg, runs, settled, True)
        assert calls == list(range(21))
        assert objective(g, F, W, cfg).scaled_total > before
        assert not np.array_equal(F.values[:20], np.full((20, 1), 0.01))

    @pytest.mark.parametrize("masked", [False, True, pytest.param(None, id="no-attrs")])
    def test_one_node_proposal_is_update_node(self, masked):
        # None: _batched_graph's edges with no attributes (K = 0).
        G = _batched_graph(bool(masked))
        if masked is None:
            G = build_graph(G.edges, [], G.num_nodes, 0)
        F = init_affiliations(G, 3, seed=2)
        W = AttributeWeights(np.random.default_rng(2).normal(size=(G.num_attrs, 4)))
        cfg = FitConfig()
        for u in range(G.num_nodes):
            moved, rows, gain = _propose_batch(np.array([u]), G, F, W, cfg)
            f_old = F.values[u].copy()
            assert update_node(u, G, F, W, cfg) == (len(moved) == 1)
            want = rows[0] if len(moved) else f_old
            assert np.allclose(F.values[u], want, rtol=1e-12, atol=0.0)
            assert gain >= 0.0

    def test_isolated_nodes_and_zero_rows(self):
        # Batch 0..19: isolated nodes, a zero row, and neighbours at zero;
        # RuntimeWarnings are errors under pytest.
        edges = [(u, 20 + u % 3) for u in range(0, 20, 2)]
        attrs = [(u, k) for u in range(0, 23, 3) for k in range(2)]
        G = build_graph(edges, attrs, 23, 3)
        values = np.random.default_rng(3).random((23, 2))
        values[[1, 4, 20]] = 0.0
        F = AffiliationMatrix(values)
        W = AttributeWeights(np.random.default_rng(4).normal(size=(3, 3)))
        for cfg in (FitConfig(), FitConfig(alpha=0.0), FitConfig(alpha=1.0)):
            moved, rows, gain = _propose_batch(np.arange(20), G, F, W, cfg)
            assert np.isfinite(gain) and np.isfinite(rows).all()
        moved, rows, gain = _propose_batch(np.array([1, 4]), build_graph([], [], 23, 0),
                                           F, AttributeWeights(np.zeros((0, 3))), FitConfig())
        assert len(moved) == 0 and gain == 0.0

    def test_batch_without_movable_node_skips_the_line_search(self, monkeypatch):
        # Rows at zero whose gradient points below zero: projection locks
        # every coordinate of every node of the batch.
        G = build_graph([], [], 21, 0)
        values = np.zeros((21, 2))
        values[20] = 1.0
        F = AffiliationMatrix(values)
        W = AttributeWeights(np.zeros((0, 3)))

        def line_search(*args):
            raise AssertionError("line search on a batch without a movable node")

        monkeypatch.setattr(solver, "_batch_local_objectives", line_search)
        for nodes in (np.arange(20), np.array([1, 4, 19])):
            moved, rows, gain = _propose_batch(nodes, G, F, W, FitConfig())
            assert len(moved) == 0 and rows.shape == (0, 2) and gain == 0.0
            assert type(gain) is float


def _assert_same_state(ours, theirs):
    """Every field of two batch states equal, arrays bitwise."""
    for name in _BatchState.__slots__:
        a, b = getattr(ours, name), getattr(theirs, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name


def _joined_state(states, alpha):
    """The fields of one-node batch states side by side, as one state of all
    their nodes in turn would hold them."""
    joined = object.__new__(_BatchState)
    joined.alpha = alpha
    joined.w_head, joined.w_bias = states[0].w_head, states[0].w_bias
    for name in ("f_nbrs", "counts", "s_minus", "x_ids", "h_ids"):
        setattr(joined, name, np.concatenate([getattr(st, name) for st in states]))
    joined.pos = np.repeat(np.arange(len(states)), joined.counts)
    joined.x_pos = np.repeat(np.arange(len(states)), [len(st.x_ids) for st in states])
    joined.h_pos = np.repeat(np.arange(len(states)), [len(st.h_ids) for st in states])
    return joined


class TestBatchState:
    @pytest.mark.parametrize("masked", [False, True])
    def test_take_is_the_state_of_the_kept_nodes(self, masked):
        G = _batched_graph(masked)
        F = init_affiliations(G, 3, seed=4)
        W = AttributeWeights(np.random.default_rng(4).normal(size=(G.num_attrs, 4)))
        cfg = FitConfig(alpha=0.3)
        rng = np.random.default_rng(5)
        cells = np.bincount(G.unobserved_cells[:, 0], minlength=G.num_nodes)
        hidden_dropped = 0
        for a, b in _long_runs(G, 3):
            whole = _BatchState(a, b, G, F, W, cfg)
            lo, hi = a + 2, b - 3
            keep = np.zeros(b - a, dtype=bool)
            keep[lo - a:hi - a] = True
            _assert_same_state(whole.take(keep), _BatchState(lo, hi, G, F, W, cfg))
            drawn = rng.random(b - a) < 0.5
            drawn[rng.integers(b - a)] = True
            for keep in (drawn, cells[a:b] == 0):  # the latter drops every unobserved cell
                nodes = a + np.flatnonzero(keep)
                kept = whole.take(keep)
                _assert_same_state(kept, _joined_state(
                    [_BatchState(u, u + 1, G, F, W, cfg) for u in nodes], cfg.alpha))
            hidden_dropped += len(whole.h_ids) > 0 and not len(kept.h_ids)
        assert hidden_dropped if masked else not cells.any()


class TestNodeRuns:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 60), p=st.floats(0.0, 0.3),
           C=st.integers(1, 4), K=st.integers(0, 5), masked=st.booleans(),
           cap=st.sampled_from([None, 12, 40]))
    def test_partition(self, seed, n, p, C, K, masked, cap):
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        attrs = [(u, k) for u in range(n) for k in range(K) if rng.random() < 0.4]
        G = build_graph(edges, attrs, n, K)
        if masked and n > 1:
            G = make_holdout(G, 0.2, seed).training_graph
        cap = cap or solver._RUN_CELLS
        with mock.patch.object(solver, "_RUN_CELLS", cap):
            runs = _node_runs(G, C)
        conflicts = {tuple(e) for e in G.edges} | {tuple(q) for q in G.unobserved_pairs}
        partners = np.bincount(G.unobserved_pairs.ravel(), minlength=n)
        cells = C * (G.degrees + partners + 1) + K

        def fits(a, b):
            return int(cells[a:b].sum()) <= cap

        assert [a for a, _ in runs] == [0] + [b for _, b in runs[:-1]]
        assert runs[-1][1] == n and all(a < b for a, b in runs)
        for a, b in runs:
            assert not any((u, v) in conflicts for u in range(a, b) for v in range(u + 1, b))
            assert b - a == 1 or fits(a, b)
        for (a, b), _ in zip(runs, runs[1:]):  # each run ends for a reason
            assert any((u, b) in conflicts for u in range(a, b)) or not fits(a, b + 1)


class TestBatchedPass:
    def test_monotone_shrinking_and_mostly_batched(self, monkeypatch):
        g = _batched_graph()
        cfg = FitConfig(max_outer_iters=40, rng_seed=1, rel_improvement_tol=1e-6)
        per_node, snapshots = [0], []
        update_node, objective_ = solver.update_node, solver.objective

        def counted(u, G, F, W, config, settled=None):
            per_node[0] += settled is None or not settled[u]
            return update_node(u, G, F, W, config, settled)

        def snapshot(G, F, W, config):
            snapshots.append(F.values.copy())
            return objective_(G, F, W, config)

        monkeypatch.setattr(solver, "update_node", counted)
        monkeypatch.setattr(solver, "objective", snapshot)
        result = fit(g, 3, cfg)
        n, updated = g.num_nodes, result.nodes_updated
        totals = [o.scaled_total for o in result.objective_trace]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert 2 * per_node[0] < sum(updated)
        shrunk_in_row = 0
        for i, count in enumerate(updated):
            if count == n:
                shrunk_in_row = 0
                continue
            # A shrunk pass updates exactly the nodes the pass before it moved.
            moved = (snapshots[i] != snapshots[i - 1]).any(axis=1)
            assert i > 0 and count == moved.sum() and 2 * count <= n
            assert not _stalled(result, i - 1, 1e-6) or updated[i - 1] == n
            shrunk_in_row += 1
            assert shrunk_in_row < solver._FULL_PASS_PERIOD
        assert n > min(updated)
        assert updated[-1] == n or not result.converged


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
        # Columns in ascending size, with an empty one, a tie and a repeat:
        # descending size, then ascending ids, each set once.
        F = AffiliationMatrix([[0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0],
                               [0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0],
                               [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
        cover = threshold_memberships(F)
        assert [sorted(c) for c in cover] == [[0, 1, 2], [0, 1], [1, 2], [0], [1]]

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
