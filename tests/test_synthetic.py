import hashlib
import math
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attricom.synthetic as synthetic
from attricom import (ForestFireParams, PlantedSpec, bernoulli_attributes,
                      forest_fire, planted_instance, remove_edges)
from oracles import has_edge, loop_forest_fire, loop_planted_instance

# The planted family of the acceptance tests and the benchmark.
_PLANT = dict(c=4, k=16, membership_prob=0.25, strength=1.0, weight_scale=5.0, bias=-2.0)
# Every literal PlantedSpec of tests/ and bench/ (the ends of each seed range;
# the benchmark's first instance seeds at --seed 1), and a sparse n=3000 spec.
LITERAL_SPECS = [
    *(PlantedSpec(n=400, seed=s, **_PLANT) for s in (0, 19, 1016164991, 1099128568)),
    *(PlantedSpec(n=300, seed=s, **_PLANT) for s in (0, 19, 1016164991)),
    PlantedSpec(n=60, c=3, k=8, membership_prob=0.3, strength=1.2, weight_scale=3.0,
                bias=-1.0, seed=5),
    PlantedSpec(n=60, c=3, k=8, membership_prob=0.3, strength=1.2, weight_scale=3.0,
                bias=-1.0, seed=19),
    PlantedSpec(n=50, c=2, k=6, seed=3),
    PlantedSpec(n=60, c=2, k=4, seed=1),
    PlantedSpec(n=80, c=2, k=4, membership_prob=0.4, seed=2),
    PlantedSpec(n=50, c=3, k=4, strength=3.0, seed=5),
    PlantedSpec(n=60, c=4, k=0, membership_prob=0.08, strength=2.0, seed=0),
    PlantedSpec(n=60, c=4, k=0, membership_prob=0.08, strength=2.0, seed=19),
    PlantedSpec(n=300, c=3, k=8, weight_scale=0.0, bias=0.0, seed=7),
    PlantedSpec(n=50, c=3, k=5, seed=13),
    PlantedSpec(n=40, c=3, k=4, membership_prob=0.4, seed=3),
    *(PlantedSpec(n=12, c=2, k=0, membership_prob=1.0, strength=0.5, seed=s)
      for s in (0, 9999)),
    PlantedSpec(n=2, c=1, k=0),
    PlantedSpec(n=3000, c=6, k=30, membership_prob=0.2, strength=0.3, seed=0),
]


def _is_connected(G):
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in G.neighbors(u):
            if int(v) not in seen:
                seen.add(int(v))
                queue.append(int(v))
    return len(seen) == G.num_nodes


class TestForestFire:
    def test_single_node(self):
        g = forest_fire(ForestFireParams(n=1))
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_two_nodes_forced_link(self):
        g = forest_fire(ForestFireParams(n=2, seed=123))
        assert g.num_edges == 1
        assert has_edge(g, 0, 1)

    def test_connected_and_deterministic(self):
        a = forest_fire(ForestFireParams(n=1000, seed=5))
        b = forest_fire(ForestFireParams(n=1000, seed=5))
        assert _is_connected(a)
        assert np.array_equal(a.edges, b.edges)

    def test_no_self_loops(self):
        g = forest_fire(ForestFireParams(n=300, seed=9))
        assert (g.edges[:, 0] != g.edges[:, 1]).all()

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ForestFireParams(n=5, p_forward=1.0)

    @pytest.mark.parametrize("params", [
        ForestFireParams(n=1), ForestFireParams(n=2, seed=123), ForestFireParams(n=3, seed=4),
        ForestFireParams(n=400, seed=0), ForestFireParams(n=400, p_forward=0.7, seed=2),
        ForestFireParams(n=300, p_forward=0.0, p_backward=0.6, seed=3),
        ForestFireParams(n=300, p_forward=0.5, p_backward=0.0, seed=11),
        ForestFireParams(n=2000, seed=7),
        # Both burn probabilities above 2/3, so that both geometric draws take
        # numpy's inversion branch (p_forward=0.7 above sends only one there).
        ForestFireParams(n=300, p_forward=0.9, p_backward=0.8, seed=5)])
    def test_matches_loop(self, params):
        got, want = forest_fire(params), loop_forest_fire(params)
        assert got.num_nodes == want.num_nodes
        assert np.array_equal(got.edges, want.edges)

    def test_bench_graph_is_pinned(self):
        # The benchmark's ff30k-detect input at seed 1, as the numpy-calling
        # burn generated it.
        g = forest_fire(ForestFireParams(n=30000, seed=1))
        assert hashlib.sha256(g.edges.tobytes()).hexdigest() == (
            "9aa4bd4ecc8eade9c34dfc26902b82b15510ec5e507e8a99ea858fbab43a7b3c")


# Inclusive bounds of _bounded_draws: the ends of its domain, powers of two
# and their neighbours, and a large odd bound whose rejection zone is wide.
_BOUNDS = [0, 1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2]


class TestBoundedDraws:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_integers_between_geometric_draws(self, seed):
        # A geometric draw after every second bounded draw sits between the two
        # halves of one word: the spare half must outlive it.
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = synthetic._bounded_draws(ours.bit_generator)
        highs = _BOUNDS + np.random.default_rng(1000 + seed).integers(
            0, 2**32 - 1, 200).tolist()
        for i, high in enumerate(highs):
            assert draw(high) == numpy_rng.integers(0, high, endpoint=True), (i, high)
            if i % 2:
                for p in (0.64, 0.2):  # numpy's search and inversion branches
                    assert ours.geometric(p) == numpy_rng.geometric(p)
        assert ours.random() == numpy_rng.random()

    def test_high_zero_reads_no_word(self):
        ours, numpy_rng = np.random.default_rng(3), np.random.default_rng(3)
        draw = synthetic._bounded_draws(ours.bit_generator)
        assert [draw(0) for _ in range(5)] == [0] * 5
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    def test_rejects_like_numpy(self):
        # With high = 3 * 2**30 a quarter of all 32-bit halves is rejected.
        ours, numpy_rng = np.random.default_rng(8), np.random.default_rng(8)
        draw = synthetic._bounded_draws(ours.bit_generator)
        high = 3 * 2**30
        got = [draw(high) for _ in range(2000)]
        assert got == numpy_rng.integers(0, high, 2000, endpoint=True).tolist()
        assert ours.random() == numpy_rng.random()


class TestChoice:
    @pytest.mark.parametrize("pop,size", [
        (2, 1), (7, 1), (7, 6), (50, 1), (50, 49),
        (10000, 1), (10000, 200), (10000, 201), (10000, 9999),
        (10001, 1), (10001, 200), (10001, 201), (10001, 10000), (25000, 501)])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_numpy_choice(self, pop, size, seed):
        # Three samples in a row, so that spare halves carry from one to the next.
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = synthetic._bounded_draws(ours.bit_generator)
        for _ in range(3):
            assert synthetic._choice(draw, pop, size) == numpy_rng.choice(
                pop, size, replace=False).tolist()
        assert ours.random() == numpy_rng.random()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pop=st.integers(2, 30000), data=st.data())
    def test_matches_numpy_choice_property(self, seed, pop, data):
        size = data.draw(st.integers(1, pop - 1), label="size")
        ours, numpy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draw = synthetic._bounded_draws(ours.bit_generator)
        draw(pop)  # leaves a spare half for the sample to start from
        numpy_rng.integers(0, pop, endpoint=True)
        assert synthetic._choice(draw, pop, size) == numpy_rng.choice(
            pop, size, replace=False).tolist()


class TestBernoulliAttributes:
    def test_probability_zero(self):
        g = forest_fire(ForestFireParams(n=20, seed=0))
        g = bernoulli_attributes(g, 5, 0.0, seed=1)
        assert len(g.attr_pairs) == 0 and g.num_attrs == 5

    def test_probability_one(self):
        g = forest_fire(ForestFireParams(n=20, seed=0))
        g = bernoulli_attributes(g, 5, 1.0, seed=1)
        assert len(g.attr_pairs) == 20 * 5

    def test_half_probability_within_binomial_bound(self):
        g = forest_fire(ForestFireParams(n=500, seed=2))
        g = bernoulli_attributes(g, 10, 0.5, seed=3)
        count = len(g.attr_pairs)
        sd = math.sqrt(5000 * 0.25)
        assert abs(count - 2500) <= 4 * sd

    def test_edges_untouched(self):
        g = forest_fire(ForestFireParams(n=50, seed=4))
        g2 = bernoulli_attributes(g, 3, 0.5, seed=5)
        assert np.array_equal(g.edges, g2.edges)


class TestPlantedInstance:
    def test_near_clique_intra_density(self):
        # Rare overlaps: pairs sharing exactly one community connect with the
        # single-community closed-form probability.
        strength = 2.0
        expected = -math.expm1(-strength * strength)
        hits = total = 0
        for seed in range(20):
            spec = PlantedSpec(n=60, c=4, k=0, membership_prob=0.08,
                               strength=strength, seed=seed)
            g, _, true_F, _ = planted_instance(spec)
            member = true_F.values > 0
            shared = member.astype(int) @ member.astype(int).T
            for u in range(60):
                for v in range(u + 1, 60):
                    if shared[u, v] == 1:
                        total += 1
                        hits += int(has_edge(g, u, v))
        rate = hits / total
        se = math.sqrt(expected * (1 - expected) / total)
        assert abs(rate - expected) <= 4 * se

    def test_flat_weights_make_attrs_coin_flips(self):
        spec = PlantedSpec(n=300, c=3, k=8, weight_scale=0.0, bias=0.0, seed=7)
        g, _, _, true_W = planted_instance(spec)
        assert np.allclose(true_W.values, 0.0)
        count = len(g.attr_pairs)
        total = 300 * 8
        sd = math.sqrt(total * 0.25)
        assert abs(count - total / 2) <= 4 * sd

    def test_deterministic(self):
        spec = PlantedSpec(n=50, c=3, k=5, seed=13)
        a = planted_instance(spec)
        b = planted_instance(spec)
        assert np.array_equal(a[0].edges, b[0].edges)
        assert np.array_equal(a[0].attr_pairs, b[0].attr_pairs)
        assert np.array_equal(a[2].values, b[2].values)
        assert np.array_equal(a[3].values, b[3].values)

    def test_truth_is_thresholded_memberships(self):
        spec = PlantedSpec(n=40, c=3, k=4, membership_prob=0.4, seed=3)
        _, truth, true_F, _ = planted_instance(spec)
        from attricom import threshold_memberships
        again = threshold_memberships(true_F)
        assert {frozenset(c) for c in truth} == {frozenset(c) for c in again}

    def test_edge_frequency_matches_model_probability(self):
        # Deterministic memberships (every node in every community) pin
        # P_uv; the empirical edge rate over many seeds must agree.
        spec_args = dict(n=12, c=2, k=0, membership_prob=1.0, strength=0.5)
        p_edge = -math.expm1(-2 * 0.5 * 0.5)
        hits = 0
        trials = 10_000
        for seed in range(trials):
            g, _, _, _ = planted_instance(PlantedSpec(seed=seed, **spec_args))
            hits += int(has_edge(g, 3, 7))
        se = math.sqrt(p_edge * (1 - p_edge) / trials)
        assert abs(hits / trials - p_edge) <= 3 * se


def _assert_planted_matches_oracle(spec):
    graph, _, true_F, true_W = planted_instance(spec)
    edges, attrs, F, W = loop_planted_instance(spec)
    assert np.array_equal(graph.edges, edges)
    assert np.array_equal(graph.attr_pairs, attrs)
    assert np.array_equal(true_F.values, F) and np.array_equal(true_W.values, W)


class TestPlantedDraws:
    @pytest.mark.parametrize("spec", LITERAL_SPECS, ids=lambda s: f"n{s.n}c{s.c}k{s.k}s{s.seed}")
    def test_literal_specs_match_row_loop(self, spec):
        _assert_planted_matches_oracle(spec)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 150), c=st.integers(1, 6), k=st.integers(0, 8),
           strength=st.sampled_from([0.3, 1.0, 1.2, 2.0, 3.0]),
           membership_prob=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
           seed=st.integers(0, 2**31 - 2), cap=st.sampled_from([None, 1, 7, 150, 1000]))
    def test_matches_row_loop(self, n, c, k, strength, membership_prob, seed, cap):
        spec = PlantedSpec(n=n, c=c, k=k, membership_prob=membership_prob,
                           strength=strength, seed=seed)
        # Small caps split the pairs into many blocks, one row each at cap 1.
        with mock.patch.object(synthetic, "_BLOCK_CELLS", cap or synthetic._BLOCK_CELLS):
            _assert_planted_matches_oracle(spec)


class TestRemoveEdges:
    def test_gamma_zero_is_identity(self):
        g = forest_fire(ForestFireParams(n=40, seed=1))
        g2 = remove_edges(g, 0.0, seed=2)
        assert np.array_equal(g.edges, g2.edges)

    def test_exact_count_removed(self):
        g = forest_fire(ForestFireParams(n=30, seed=3))
        e = g.num_edges
        g2 = remove_edges(g, 0.5, seed=4)
        assert g2.num_edges == e - round(0.5 * e)

    def test_ten_edges_half_removed(self):
        from attricom import build_graph
        edges = [(0, i) for i in range(1, 11)]
        g = build_graph(edges, [], 11, 0)
        assert remove_edges(g, 0.5, seed=5).num_edges == 5

    def test_deterministic(self):
        g = forest_fire(ForestFireParams(n=60, seed=6))
        a = remove_edges(g, 0.3, seed=7)
        b = remove_edges(g, 0.3, seed=7)
        assert np.array_equal(a.edges, b.edges)

    def test_attributes_and_nodes_untouched(self):
        g = forest_fire(ForestFireParams(n=60, seed=8))
        g = bernoulli_attributes(g, 4, 0.5, seed=9)
        g2 = remove_edges(g, 0.4, seed=10)
        assert g2.num_nodes == g.num_nodes
        assert np.array_equal(g.attr_pairs, g2.attr_pairs)

    def test_rejects_bad_gamma(self):
        g = forest_fire(ForestFireParams(n=10, seed=0))
        with pytest.raises(ValueError):
            remove_edges(g, 1.0, seed=0)
        with pytest.raises(ValueError):
            remove_edges(g, -0.1, seed=0)
