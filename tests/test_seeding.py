import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attricom import (ForestFireParams, build_graph, conductance, forest_fire,
                      init_affiliations, locally_minimal_neighborhoods, seeding)
from attricom.core import contains

from oracles import (loop_cover_by_neighbours, loop_locally_minimal, naive_conductance,
                     naive_locally_minimal)

TRIANGLES_BRIDGE = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]


def _random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(edges, [], n, 0)


@st.composite
def _small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(edges, [], n, 0)


def _triples(seeds):
    return [(s.members, s.conductance, s.center) for s in seeds]


def _hub_graph():
    """40 hubs with 30 leaves each (leaves paired by an edge), hub-hub edges at
    p = 0.5 and one node joined to every hub: its 40 out-edges (toward the
    higher-degree hubs) make 780 wedges at one node."""
    rng = np.random.default_rng(4)
    hubs, per_hub = 40, 30
    edges = [(h, a) for h in range(hubs) for a in range(hubs) if h < a and rng.random() < 0.5]
    leaf = hubs
    for h in range(hubs):
        edges += [(h, leaf + i) for i in range(per_hub)]
        edges += [(leaf + i, leaf + i + 1) for i in range(0, per_hub, 2)]
        leaf += per_hub
    edges += [(h, leaf) for h in range(hubs)]
    return build_graph(edges, [], leaf + 1, 0)


def _keys_at_slot(num_keys, slot, count):
    """count keys whose first slot is `slot` in the table of a set of num_keys keys."""
    probe = seeding._KeySet(np.arange(num_keys, dtype=np.int64))
    candidates = np.arange(200_000, dtype=np.int64)
    return candidates[probe._home(candidates) == slot][:count]


class TestKeySet:
    def _check(self, stored, queries):
        key_set = seeding._KeySet(stored.copy())
        got = key_set.contains(queries)
        assert np.array_equal(got, contains(np.sort(stored), queries))
        return got

    def test_empty_set(self):
        got = self._check(np.zeros(0, dtype=np.int64), np.array([0, 1, 7, 2**40]))
        assert not got.any()

    def test_keys_sharing_one_slot(self):
        crowded = _keys_at_slot(8, 5, 8)  # every key's first slot is 5 of 32
        assert crowded.size == 8
        others = _keys_at_slot(8, 5, 12)[8:]  # absent, and their probes cross all of them
        got = self._check(crowded, np.concatenate([crowded, others, crowded[::-1]]))
        assert got.sum() == 16

    def test_probe_wraps_past_table_end(self):
        last = _keys_at_slot(8, 31, 10)  # slot 31 is the table's last
        got = self._check(last[:8], last)
        assert got.tolist() == [True] * 8 + [False] * 2

    def test_absent_keys(self):
        rng = np.random.default_rng(5)
        stored = np.unique(rng.integers(0, 10**12, size=5000))
        queries = np.concatenate([stored, rng.integers(0, 10**12, size=5000), stored + 1])
        self._check(stored, queries)


class TestTriangles:
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 13])
    def test_counts_match_common_neighbours(self, chunk, monkeypatch):
        monkeypatch.setattr(seeding, "_PAIR_CHUNK", chunk)
        for g in (_hub_graph(), build_graph(TRIANGLES_BRIDGE, [], 7, 0),
                  build_graph([], [], 3, 0), forest_fire(ForestFireParams(n=300, seed=2))):
            nbrs = [set(g.neighbors(u).tolist()) for u in range(g.num_nodes)]
            want = [sum(len(nbrs[u] & nbrs[v]) for v in nbrs[u]) // 2 for u in range(g.num_nodes)]
            key_set = seeding._KeySet(g.edges[:, 0] * g.num_nodes + g.edges[:, 1])
            assert seeding._triangles(g, key_set).tolist() == want


class TestConductance:
    def test_triangle_in_bridged_pair(self):
        g = build_graph(TRIANGLES_BRIDGE, [], 6, 0)
        assert conductance(g, {0, 1, 2}) == pytest.approx(1 / 7, abs=1e-12)

    def test_component_without_boundary(self):
        g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], [], 5, 0)
        assert conductance(g, {0, 1, 2}) == 0.0

    def test_path_endpoint(self):
        g = build_graph([(0, 1), (1, 2)], [], 3, 0)
        assert conductance(g, {0}) == 1.0

    def test_rejects_empty_and_full(self):
        g = build_graph([(0, 1)], [], 2, 0)
        with pytest.raises(ValueError):
            conductance(g, set())
        with pytest.raises(ValueError):
            conductance(g, {0, 1})

    def test_isolated_nodes_zero_volume(self):
        g = build_graph([(0, 1)], [], 4, 0)
        assert conductance(g, {2, 3}) == 1.0

    def test_in_unit_interval_and_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            g = _random_graph(rng, n, 0.3)
            size = int(rng.integers(1, n))
            members = set(int(x) for x in rng.choice(n, size=size, replace=False))
            c = conductance(g, members)
            assert 0.0 <= c <= 1.0
            assert c == pytest.approx(naive_conductance(g, members), abs=1e-12)


class TestLocallyMinimalNeighborhoods:
    def test_bridged_triangles_yield_both(self):
        g = build_graph(TRIANGLES_BRIDGE, [], 6, 0)
        seeds = locally_minimal_neighborhoods(g)
        assert [sorted(s.members) for s in seeds] == [[0, 1, 2], [3, 4, 5]]
        assert all(s.conductance == pytest.approx(1 / 7) for s in seeds)

    def test_complete_graph_has_none(self):
        g = build_graph([(u, v) for u in range(4) for v in range(u + 1, 4)], [], 4, 0)
        assert locally_minimal_neighborhoods(g) == []

    def test_star_has_none(self):
        g = build_graph([(0, v) for v in range(1, 6)], [], 6, 0)
        assert locally_minimal_neighborhoods(g) == []

    def test_isolated_nodes_are_seeds_at_conductance_one(self):
        g = build_graph(TRIANGLES_BRIDGE, [], 8, 0)
        seeds = locally_minimal_neighborhoods(g)
        assert _triples(seeds) == naive_locally_minimal(g)
        tail = [(sorted(s.members), s.conductance) for s in seeds[2:]]
        assert tail == [([6], 1.0), ([7], 1.0)]

    def test_twin_pair_reported_once_for_smaller_center(self):
        # 1 and 2 have the same closed neighborhood {0, 1, 2, 3}.
        edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (3, 5), (4, 5), (4, 6),
                 (5, 6)]
        g = build_graph(edges, [], 7, 0)
        seeds = locally_minimal_neighborhoods(g)
        assert _triples(seeds) == naive_locally_minimal(g)
        assert frozenset({0, 1, 2, 3}) in [s.members for s in seeds]
        assert 1 in [s.center for s in seeds] and 2 not in [s.center for s in seeds]

    def test_neighborhood_spanning_graph_is_excluded(self):
        edges = [(0, v) for v in range(1, 6)] + [(1, 2), (3, 4), (4, 5)]
        g = build_graph(edges, [], 6, 0)
        seeds = locally_minimal_neighborhoods(g)
        assert _triples(seeds) == naive_locally_minimal(g)
        assert seeds and all(len(s.members) < 6 for s in seeds)

    def test_edgeless_graph(self):
        for n in (1, 4):
            g = build_graph([], [], n, 0)
            seeds = locally_minimal_neighborhoods(g)
            assert _triples(seeds) == naive_locally_minimal(g)
            assert seeds == loop_locally_minimal(g)
            expected = [] if n == 1 else [[u] for u in range(n)]
            assert [sorted(s.members) for s in seeds] == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_on_forest_fire(self, seed, monkeypatch):
        g = forest_fire(ForestFireParams(n=3000, seed=seed))
        expected = loop_locally_minimal(g)
        assert expected and locally_minimal_neighborhoods(g) == expected
        # Many chunks of node pairs count the same triangles as one.
        monkeypatch.setattr(seeding, "_PAIR_CHUNK", 997)
        assert locally_minimal_neighborhoods(g) == expected

    @pytest.mark.parametrize("chunk", [5, 64, 1 << 13])
    def test_matches_loop_on_hub_graph(self, chunk, monkeypatch):
        # The 780 wedges of the node joined to every hub span many chunks.
        g = _hub_graph()
        expected = loop_locally_minimal(g)
        monkeypatch.setattr(seeding, "_PAIR_CHUNK", chunk)
        assert expected and locally_minimal_neighborhoods(g) == expected

    @settings(max_examples=200, deadline=None)
    @given(_small_graphs())
    def test_matches_naive_on_small_graphs(self, g):
        assert _triples(locally_minimal_neighborhoods(g)) == naive_locally_minimal(g)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            g = _random_graph(rng, n, float(rng.uniform(0.15, 0.7)))
            got = [(frozenset(s.members), s.center) for s in locally_minimal_neighborhoods(g)]
            expected = [(members, center) for members, _, center in naive_locally_minimal(g)]
            assert got == expected


class TestInitAffiliations:
    def test_two_clean_triangle_seeds(self):
        g = build_graph([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], [], 6, 0)
        F = init_affiliations(g, 2, seed=0)
        cols = {tuple(F.values[:, j]) for j in range(2)}
        assert cols == {(1.0, 1.0, 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0, 1.0, 1.0)}

    def test_random_fallback_when_no_seeds(self):
        g = build_graph([(u, v) for u in range(4) for v in range(u + 1, 4)], [], 4, 0)
        F = init_affiliations(g, 1, seed=5)
        col = F.values[:, 0]
        assert set(col) <= {0.0, 1.0}
        assert col.sum() >= 1

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        g = _random_graph(rng, 20, 0.2)
        a = init_affiliations(g, 6, seed=42)
        b = init_affiliations(g, 6, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_uncovered_node_joins_column_of_its_neighbors(self):
        # Seeds are the triangle {0,1,2} and the clique {3,4,5,6}; the tail
        # 6-7-8 is in neither column and node 9 is isolated.
        edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6),
                 (5, 6), (6, 7), (7, 8)]
        g = build_graph(edges, [], 10, 0)
        F = init_affiliations(g, 2, seed=3)
        assert F.values[:7].tolist() == [[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 4
        assert F.values[7].tolist() == [0.0, 1.0]
        assert F.values[8].any()
        assert not F.values[9].any()
        assert np.array_equal(F.values, init_affiliations(g, 2, seed=3).values)

    @pytest.mark.parametrize("C", [1, 4, 40])
    def test_seed_columns_are_first_seed_sets(self, C, monkeypatch):
        monkeypatch.setattr(seeding, "_cover_by_neighbours", lambda G, values: None)
        for g in (forest_fire(ForestFireParams(n=500, seed=3)),
                  build_graph(TRIANGLES_BRIDGE, [], 8, 0)):
            seeds = locally_minimal_neighborhoods(g)
            F = init_affiliations(g, C, seed=9).values
            take = min(C, len(seeds))
            for j in range(take):
                assert np.flatnonzero(F[:, j]).tolist() == sorted(seeds[j].members)
            # Columns beyond the seeds are drawn at the average seed size.
            p = min(1.0, sum(len(s.members) for s in seeds) / len(seeds) / g.num_nodes)
            rng = np.random.default_rng(9)
            for j in range(take, C):
                col = rng.random(g.num_nodes) < p
                while not col.any():
                    col = rng.random(g.num_nodes) < p
                assert np.array_equal(F[:, j], col.astype(float))

    def test_cover_by_neighbours_matches_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            g = _random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
            c = int(rng.integers(1, 6))
            values = (rng.random((n, c)) < rng.uniform(0.0, 0.5)).astype(float)
            want = loop_cover_by_neighbours(g, values)
            seeding._cover_by_neighbours(g, values)
            assert np.array_equal(values, want)

    def test_no_all_zero_columns(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            n = int(rng.integers(2, 25))
            g = _random_graph(rng, n, 0.25)
            c = int(rng.integers(1, 9))
            F = init_affiliations(g, c, seed=int(rng.integers(1000)))
            assert (F.values.sum(axis=0) > 0).all()
            assert F.values.shape == (n, c)
