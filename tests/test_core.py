import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import attricom
from attricom import (AffiliationMatrix, AttributedGraph, AttributeWeights,
                      CommunityCover, FitConfig, GraphBuildError, MAX_MEMBERSHIP,
                      build_graph, refresh_column_sums)
from attricom.core import _csr
from oracles import has_attr, has_edge, lexsort_csr


class TestBuildGraph:
    def test_self_loop_and_duplicate_dropped(self):
        g = build_graph([(0, 1), (1, 0), (2, 2)], [], 3, 0)
        assert g.num_edges == 1
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert g.diagnostics.self_loops_dropped == 1
        assert g.diagnostics.duplicate_edges_dropped == 1

    def test_empty_graph(self):
        g = build_graph([], [], 5, 0)
        assert g.num_nodes == 5 and g.num_edges == 0 and g.num_attrs == 0

    def test_sparse_attrs_mean_zero(self):
        g = build_graph([(0, 1), (1, 2)], [(0, 0), (2, 0)], 3, 1)
        assert has_attr(g, 0, 0)
        assert not has_attr(g, 1, 0)
        assert has_attr(g, 2, 0)

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
                    assert has_edge(g, int(v), u)
            assert total == 2 * g.num_edges


class TestStoredPairs:
    def test_repeats_rejected(self):
        with pytest.raises(ValueError):
            AttributedGraph(3, 0, [(0, 1), (0, 1)], [])
        with pytest.raises(ValueError):
            AttributedGraph(3, 2, [(0, 1)], [(2, 1), (0, 0), (2, 1)])

    def test_unsorted_input_stored_sorted(self):
        rng = np.random.default_rng(5)
        n, k = 30, 6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
        attrs = [(u, a) for u in range(n) for a in range(k) if rng.random() < 0.3]
        g = AttributedGraph(n, k, edges, attrs)
        h = AttributedGraph(n, k, rng.permutation(edges), rng.permutation(attrs))
        for a, b in ((g.edges, h.edges), (g.attr_pairs, h.attr_pairs),
                     (g.adjacency[0], h.adjacency[0]), (g.adjacency[1], h.adjacency[1])):
            assert np.array_equal(a, b)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.attr_pairs.tolist() == [list(a) for a in attrs]
        for u in range(n):
            assert np.array_equal(g.node_attr_ids(u), h.node_attr_ids(u))
        for a in range(k):
            assert np.array_equal(g.attr_node_ids(a), h.attr_node_ids(a))

    def test_build_graph_sorts_once(self, monkeypatch):
        rng = np.random.default_rng(6)
        edges = rng.integers(0, 40, size=(300, 2))
        attrs = rng.integers(0, 8, size=(200, 2))
        sorted_sizes = []
        distinct_keys = attricom.core.distinct_keys

        def recorded(keys):
            sorted_sizes.append(keys.size)
            return distinct_keys(keys)

        monkeypatch.setattr(attricom.core, "distinct_keys", recorded)
        g = build_graph(edges, attrs, 40, 8)
        assert [s for s in sorted_sizes if s] == [len(edges) - (edges[:, 0] == edges[:, 1]).sum(),
                                                  len(attrs)]
        # Stored pairs are fresh C-ordered copies, equal to a sort of the input.
        h = AttributedGraph(40, 8, rng.permutation(g.edges), rng.permutation(g.attr_pairs))
        for ours, theirs in ((g.edges, h.edges), (g.attr_pairs, h.attr_pairs)):
            assert np.array_equal(ours, theirs)
            assert ours.dtype == np.int64 and ours.flags.c_contiguous
        canonical = np.array(g.edges)
        k = AttributedGraph(40, 8, canonical, g.attr_pairs)
        assert np.array_equal(k.edges, g.edges) and not np.shares_memory(k.edges, canonical)


class TestNodeLists:
    def test_lists_of_matches_per_node_lists(self):
        rng = np.random.default_rng(8)
        g = attricom.bernoulli_attributes(
            attricom.forest_fire(attricom.ForestFireParams(n=200, seed=3)), 6, 0.4, seed=3)
        t = attricom.make_holdout(g, 0.2, 0).training_graph
        ranges = [(0, 0), (0, 200), (57, 58), (199, 200)]
        ranges += [tuple(sorted(rng.integers(0, 201, size=2).tolist())) for _ in range(20)]
        for graph in (g, t):
            for start, stop in ranges:
                nodes = range(start, stop)
                per_node = [[graph.neighbors(u) for u in nodes],
                            [graph.unobserved_of(u)[0] for u in nodes],
                            [graph.node_attr_ids(u) for u in nodes],
                            [graph.unobserved_of(u)[1] for u in nodes]]
                for (counts, ids), lists in zip(graph.lists_of(start, stop), per_node,
                                                strict=True):
                    assert counts.tolist() == [len(x) for x in lists]
                    assert ids.tolist() == [int(v) for x in lists for v in x]
        assert all(len(ids) for _, ids in t.lists_of(0, 200))


class TestCsr:
    @staticmethod
    def _assert_matches_oracle(heads, tails, n, width):
        indptr, indices = _csr(heads, tails, n, width)
        want_indptr, want_indices = lexsort_csr(heads, tails, n)
        assert indptr.dtype == indices.dtype == np.int64 and indices.flags.c_contiguous
        assert np.array_equal(indptr, want_indptr)
        assert np.array_equal(indices, want_indices)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 40), width=st.integers(0, 40),
           fill=st.floats(0.0, 1.0), hub=st.booleans())
    def test_matches_lexsort_oracle(self, seed, n, width, fill, hub):
        rng = np.random.default_rng(seed)
        cells = rng.random((n, width)) < fill
        if hub:  # one head holds most pairs
            cells[rng.integers(n)] = True
            cells &= rng.random((n, 1)) < 0.2
        heads, tails = np.nonzero(cells)
        order = rng.permutation(len(heads))
        self._assert_matches_oracle(heads[order], tails[order], n, width)

    def test_edge_cases(self):
        empty = np.zeros(0, dtype=np.int64)
        self._assert_matches_oracle(empty, empty, 1, 0)  # no attributes
        self._assert_matches_oracle(empty, empty, 5, 5)
        self._assert_matches_oracle(np.array([3]), np.array([0]), 4, 1)
        tails = np.random.default_rng(1).permutation(1000)
        self._assert_matches_oracle(np.full(1000, 2), tails, 3, 1000)  # one hub head

    def test_graph_indexes_match_oracle(self):
        g = attricom.bernoulli_attributes(
            attricom.forest_fire(attricom.ForestFireParams(n=300, seed=2)), 7, 0.3, seed=2)
        t = attricom.make_holdout(g, 0.2, 1).training_graph
        n, K = t.num_nodes, t.num_attrs
        e, a, (pu, pv), (cu, ck) = t.edges, t.attr_pairs, t.unobserved_pairs.T, t.unobserved_cells.T
        for (indptr, indices), (heads, tails, m) in (
                ((t._adj_indptr, t._adj_indices),
                 (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]], n)),
                ((t._na_indptr, t._na_indices), (a[:, 0], a[:, 1], n)),
                ((t._an_indptr, t._an_indices), (a[:, 1], a[:, 0], K)),
                ((t._partner_indptr, t._partners), (np.r_[pu, pv], np.r_[pv, pu], n)),
                ((t._hidden_attr_indptr, t._hidden_attrs), (cu, ck, n)),
                ((t._unobserved_indptr, t._unobserved_nodes), (ck, cu, K))):
            want_indptr, want_indices = lexsort_csr(heads, tails, m)
            assert np.array_equal(indptr, want_indptr)
            assert np.array_equal(indices, want_indices)


class TestUnobservedEntries:
    def test_invalid_entries_rejected(self):
        # Edge (0, 1) and attribute cell (0, 0) are stored as observed.
        bad = [dict(unobserved_pairs=[(0, 5)]),            # v beyond the graph
               dict(unobserved_pairs=[(-1, 2)]),           # negative u
               dict(unobserved_pairs=[(2, 2)]),            # u == v
               dict(unobserved_pairs=[(3, 2)]),            # u > v
               dict(unobserved_pairs=[(1, 2), (1, 2)]),    # repeated
               dict(unobserved_pairs=[(2, 3), (0, 1)]),    # an edge
               dict(unobserved_cells=[(4, 0)]),            # node beyond the graph
               dict(unobserved_cells=[(1, 2)]),            # attribute beyond the graph
               dict(unobserved_cells=[(1, -1)]),           # negative attribute
               dict(unobserved_cells=[(2, 1), (2, 1)]),    # repeated
               dict(unobserved_cells=[(1, 1), (0, 0)])]    # present
        for kwargs in bad:
            with pytest.raises(ValueError):
                AttributedGraph(4, 2, [(0, 1)], [(0, 0)], **kwargs)
        g = AttributedGraph(4, 2, [(0, 1)], [(0, 0)], unobserved_pairs=[(2, 3), (0, 2)],
                            unobserved_cells=[(1, 1), (0, 1)])
        assert g.unobserved_pairs.tolist() == [[2, 3], [0, 2]]  # in the order given
        assert g.unobserved_cells.tolist() == [[1, 1], [0, 1]]
        partners, attrs = g.unobserved_of(0)
        assert partners.tolist() == [2] and attrs.tolist() == [1]
        partners, attrs = g.unobserved_of(3)
        assert partners.tolist() == [2] and attrs.tolist() == []
        assert g.unobserved_nodes(1).tolist() == [0, 1]


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
