import dataclasses

import numpy as np
import pytest

import attricom
from attricom import (AffiliationMatrix, AttributeWeights, CommunityCover,
                      FitConfig, GraphBuildError, MAX_MEMBERSHIP, build_graph,
                      refresh_column_sums)


class TestBuildGraph:
    def test_self_loop_and_duplicate_dropped(self):
        g = build_graph([(0, 1), (1, 0), (2, 2)], [], 3, 0)
        assert g.num_edges == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.diagnostics.self_loops_dropped == 1
        assert g.diagnostics.duplicate_edges_dropped == 1

    def test_empty_graph(self):
        g = build_graph([], [], 5, 0)
        assert g.num_nodes == 5 and g.num_edges == 0 and g.num_attrs == 0

    def test_sparse_attrs_mean_zero(self):
        g = build_graph([(0, 1), (1, 2)], [(0, 0), (2, 0)], 3, 1)
        assert g.has_attr(0, 0)
        assert not g.has_attr(1, 0)
        assert g.has_attr(2, 0)

    def test_out_of_range_edge_reports_index(self):
        with pytest.raises(GraphBuildError) as exc:
            build_graph([(0, 1), (1, 7)], [], 3, 0)
        assert exc.value.index == 1

    def test_out_of_range_attr_reports_index(self):
        with pytest.raises(GraphBuildError) as exc:
            build_graph([(0, 1)], [(0, 0), (1, 4)], 3, 2)
        assert exc.value.index == 1

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_graph([], [], 0, 0)

    def test_neighbor_lists_sorted_and_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)]
            attrs = [(int(rng.integers(n)), int(rng.integers(3))) for _ in range(2 * n)]
            g = build_graph(edges, attrs, n, 3)
            # The same arrays and counts as deduplicating rows with np.unique(axis=0).
            raw = np.array(edges)
            kept = np.sort(raw[raw[:, 0] != raw[:, 1]], axis=1)
            assert np.array_equal(g.edges, np.unique(kept, axis=0))
            assert np.array_equal(g.attr_pairs, np.unique(np.array(attrs), axis=0))
            assert g.diagnostics.self_loops_dropped == len(raw) - len(kept)
            assert g.diagnostics.duplicate_edges_dropped == len(kept) - g.num_edges
            assert g.diagnostics.duplicate_attrs_dropped == len(attrs) - len(g.attr_pairs)
            total = 0
            for u in range(n):
                nbrs = g.neighbors(u)
                assert (np.diff(nbrs) > 0).all()
                total += len(nbrs)
                for v in nbrs:
                    assert g.has_edge(int(v), u)
            assert total == 2 * g.num_edges


class TestAffiliationMatrix:
    def test_column_sums_zero(self):
        F = AffiliationMatrix(np.zeros((4, 2)))
        assert np.array_equal(F.column_sums, [0.0, 0.0])

    def test_column_sums_direct(self):
        F = AffiliationMatrix([[1.0, 0.0], [2.0, 3.0]])
        assert np.array_equal(F.column_sums, [3.0, 3.0])

    def test_refresh_matches_naive_double_loop(self):
        rng = np.random.default_rng(1)
        F = AffiliationMatrix(rng.uniform(0, 5, size=(50, 5)))
        F.values[:] = rng.uniform(0, 5, size=(50, 5))
        refresh_column_sums(F)
        naive = [sum(float(F.values[v][c]) for v in range(50)) for c in range(5)]
        assert np.allclose(F.column_sums, naive, rtol=1e-12)

    def test_sums_stay_fresh_through_solver_updates(self):
        from attricom import AttributedGraph, fit
        rng = np.random.default_rng(2)
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.4]
        g = build_graph(edges, [], 12, 0)
        res = fit(g, 3, FitConfig(alpha=0.0, max_outer_iters=8, rng_seed=0))
        cached = res.F.column_sums.copy()
        naive = res.F.values.sum(axis=0)
        assert np.allclose(cached, naive, rtol=1e-6)

    def test_rejects_negative_and_oversized(self):
        with pytest.raises(ValueError):
            AffiliationMatrix([[-0.1]])
        with pytest.raises(ValueError):
            AffiliationMatrix([[1e9]])
        with pytest.raises(ValueError):
            AffiliationMatrix([[np.nextafter(MAX_MEMBERSHIP, np.inf)]])
        assert AffiliationMatrix([[MAX_MEMBERSHIP]]).values[0, 0] == MAX_MEMBERSHIP
        with pytest.raises(ValueError):
            AffiliationMatrix([[np.nan]])


class TestAttributeWeights:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AttributeWeights([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            AttributeWeights([[np.nan, 0.0]])

    def test_shape_accessors(self):
        W = AttributeWeights(np.zeros((3, 5)))
        assert W.num_attrs == 3 and W.num_communities == 4


class TestCommunityCover:
    def test_drops_empty_sets(self):
        cover = CommunityCover([{0, 1}, set(), {2}], universe=3)
        assert len(cover) == 2

    def test_rejects_out_of_range_member(self):
        with pytest.raises(ValueError):
            CommunityCover([{0, 5}], universe=3)

    def test_overlap_allowed(self):
        cover = CommunityCover([{0, 1}, {1, 2}], universe=3)
        assert len(cover) == 2

    def test_exact_duplicates_kept_once(self):
        cover = CommunityCover([{0, 1}, {1, 0}, {2}], universe=3)
        assert len(cover) == 2


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(alpha=1.5)
        with pytest.raises(ValueError):
            FitConfig(lam=-1.0)
        with pytest.raises(TypeError):
            FitConfig(min_dot_guard=1e-8)

    def test_defaults(self):
        cfg = FitConfig()
        assert cfg.alpha == 0.5 and cfg.lam == 1.0
        assert cfg.rel_improvement_tol == 1e-5
        assert cfg.min_dot_guard == 1e-10 == attricom.MIN_DOT_GUARD

    def test_fields_are_the_caller_settings(self):
        names = [f.name for f in dataclasses.fields(FitConfig)]
        assert names == ["alpha", "lam", "max_outer_iters", "rel_improvement_tol",
                         "rng_seed"]
        assert not hasattr(attricom, "LineSearch")
