"""Held-out likelihood machinery for choosing the number of communities."""

from __future__ import annotations

import numpy as np

from .core import AttributedGraph, FitConfig
from .likelihood import PROB_CLAMP, _edge_log_terms, _sigmoid

_SMALL_N = 2000
_DENSE_ATTR_LIMIT = 5_000_000


class HoldoutMask:
    """Reserved node pairs and node-attribute pairs excluded from training.

    Each reserved pair carries the observed value it had in the full data, so
    held-out likelihood can be evaluated after fitting on the remainder. No
    pair appears twice.
    """

    def __init__(self, pair_u, pair_v, pair_obs, attr_u, attr_k, attr_obs):
        self.pair_u = np.asarray(pair_u, dtype=np.int64)
        self.pair_v = np.asarray(pair_v, dtype=np.int64)
        self.pair_obs = np.asarray(pair_obs, dtype=np.uint8)
        self.attr_u = np.asarray(attr_u, dtype=np.int64)
        self.attr_k = np.asarray(attr_k, dtype=np.int64)
        self.attr_obs = np.asarray(attr_obs, dtype=np.uint8)
        self._cache_graph: AttributedGraph | None = None
        self._cache: dict = {}

        if (self.pair_u >= self.pair_v).any():
            raise ValueError("node pairs must be canonical (u < v)")
        if len({(int(a), int(b)) for a, b in zip(self.pair_u, self.pair_v)}) != len(self.pair_u):
            raise ValueError("duplicate node pair in holdout mask")
        if len({(int(a), int(b)) for a, b in zip(self.attr_u, self.attr_k)}) != len(self.attr_u):
            raise ValueError("duplicate attribute pair in holdout mask")

        partners_by_node: dict[int, list[int]] = {}
        for u, v in zip(self.pair_u, self.pair_v):
            partners_by_node.setdefault(int(u), []).append(int(v))
            partners_by_node.setdefault(int(v), []).append(int(u))
        self._partners_by_node = {u: np.array(sorted(vs), dtype=np.int64)
                                  for u, vs in partners_by_node.items()}

        attrs_by_node: dict[int, list[int]] = {}
        nodes_by_attr: dict[int, list[int]] = {}
        for u, k in zip(self.attr_u, self.attr_k):
            attrs_by_node.setdefault(int(u), []).append(int(k))
            nodes_by_attr.setdefault(int(k), []).append(int(u))
        self._attrs_by_node = {u: np.array(sorted(ks), dtype=np.int64)
                               for u, ks in attrs_by_node.items()}
        self._nodes_by_attr = {k: np.array(sorted(us), dtype=np.int64)
                               for k, us in nodes_by_attr.items()}

    _EMPTY = np.zeros(0, dtype=np.int64)

    @property
    def node_pairs(self) -> dict[tuple[int, int], int]:
        """Reserved unordered node pairs mapped to their observed values."""
        return {(int(u), int(v)): int(o)
                for u, v, o in zip(self.pair_u, self.pair_v, self.pair_obs)}

    @property
    def attr_pairs(self) -> dict[tuple[int, int], int]:
        return {(int(u), int(k)): int(o)
                for u, k, o in zip(self.attr_u, self.attr_k, self.attr_obs)}

    def masked_partners(self, u: int) -> np.ndarray:
        """Partners of u over all reserved pairs, regardless of observed value."""
        return self._partners_by_node.get(u, self._EMPTY)

    def masked_attr_ids(self, u: int) -> np.ndarray:
        return self._attrs_by_node.get(u, self._EMPTY)

    def masked_node_ids(self, k: int) -> np.ndarray:
        return self._nodes_by_attr.get(k, self._EMPTY)

    def training_neighbors(self, G: AttributedGraph, u: int):
        """(neighbors of u outside the mask, neighbors and partners together).

        Both sorted. The node updates of every fit against this mask ask for
        the same split, so it is computed once per node and cached.
        """
        cache = self._graph_cache(G)["nbrs"]
        if u not in cache:
            nbrs = G.neighbors(u)
            partners = self.masked_partners(u)
            cache[u] = (np.setdiff1d(nbrs, partners, assume_unique=True),
                        np.union1d(nbrs, partners))
        return cache[u]

    def training_attrs(self, G: AttributedGraph, u: int):
        """(attribute ids of u outside the mask, u's present attributes as
        positions among those ids). Cached per node like training_neighbors."""
        cache = self._graph_cache(G)["attrs"]
        if u not in cache:
            keep = np.ones(G.num_attrs, dtype=bool)
            keep[self.masked_attr_ids(u)] = False
            new_pos = np.cumsum(keep) - 1  # attr id -> row among kept attrs
            x_idx = G.node_attr_ids(u)
            cache[u] = (np.flatnonzero(keep), new_pos[x_idx[keep[x_idx]]])
        return cache[u]

    def _graph_cache(self, G: AttributedGraph) -> dict:
        # Keyed by the graph object: a mask is normally scored against one
        # graph, and AttributedGraph is immutable.
        if self._cache_graph is not G:
            self._cache = {"nbrs": {}, "attrs": {}}
            self._cache_graph = G
        return self._cache

    def training_graph(self, G: AttributedGraph) -> AttributedGraph:
        """The graph with every reserved edge removed, for initialization."""
        is_edge = self.pair_obs.astype(bool)
        if not is_edge.any():
            return G
        n = G.num_nodes
        drop = self.pair_u[is_edge] * n + self.pair_v[is_edge]
        keys = G.edges[:, 0] * n + G.edges[:, 1]
        keep = ~np.isin(keys, drop)
        return AttributedGraph(n, G.num_attrs, G.edges[keep], G.attr_pairs)


def make_holdout(G: AttributedGraph, fraction: float, seed: int) -> HoldoutMask:
    """Reserve a fraction of node pairs and node-attribute pairs for scoring.

    Up to 2000 nodes, node pairs are drawn uniformly from all N(N-1)/2
    unordered pairs. Beyond that the quadratic pair population is infeasible,
    so a balanced subsample stands in: fraction * |E| edges plus an equal
    count of uniformly drawn non-edges. Attribute pairs are always drawn
    uniformly from all N*K cells. Deterministic for a given seed.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("holdout fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n = G.num_nodes

    if n <= _SMALL_N:
        us, vs = np.triu_indices(n, 1)
        total = len(us)
        count = int(round(fraction * total))
        if count:
            idx = np.sort(rng.choice(total, size=count, replace=False))
            pair_u, pair_v = us[idx], vs[idx]
        else:
            pair_u = pair_v = np.zeros(0, dtype=np.int64)
        pair_obs = np.fromiter(
            (G.has_edge(int(u), int(v)) for u, v in zip(pair_u, pair_v)),
            dtype=np.uint8, count=len(pair_u))
    else:
        count = int(round(fraction * G.num_edges))
        if count:
            idx = np.sort(rng.choice(G.num_edges, size=count, replace=False))
            edge_u = G.edges[idx, 0]
            edge_v = G.edges[idx, 1]
        else:
            edge_u = edge_v = np.zeros(0, dtype=np.int64)
        taken = {(int(a), int(b)) for a, b in zip(edge_u, edge_v)}
        non_u, non_v = [], []
        while len(non_u) < count:
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            if a == b:
                continue
            if a > b:
                a, b = b, a
            if (a, b) in taken or G.has_edge(a, b):
                continue
            taken.add((a, b))
            non_u.append(a)
            non_v.append(b)
        pair_u = np.concatenate([edge_u, np.array(non_u, dtype=np.int64)])
        pair_v = np.concatenate([edge_v, np.array(non_v, dtype=np.int64)])
        pair_obs = np.concatenate([np.ones(len(edge_u), dtype=np.uint8),
                                   np.zeros(len(non_u), dtype=np.uint8)])

    k = G.num_attrs
    total_cells = n * k
    count_a = int(round(fraction * total_cells))
    if count_a:
        if total_cells <= _DENSE_ATTR_LIMIT:
            lin = np.sort(rng.choice(total_cells, size=count_a, replace=False))
        else:
            chosen: set[int] = set()
            while len(chosen) < count_a:
                draw = rng.integers(total_cells, size=count_a - len(chosen))
                chosen.update(int(x) for x in draw)
            lin = np.array(sorted(chosen), dtype=np.int64)
        attr_u, attr_k = np.divmod(lin, k)
        attr_obs = np.fromiter(
            (G.has_attr(int(u), int(kk)) for u, kk in zip(attr_u, attr_k)),
            dtype=np.uint8, count=len(attr_u))
    else:
        attr_u = attr_k = np.zeros(0, dtype=np.int64)
        attr_obs = np.zeros(0, dtype=np.uint8)

    return HoldoutMask(pair_u, pair_v, pair_obs, attr_u, attr_k, attr_obs)


def holdout_loglik(G: AttributedGraph, F, W, mask: HoldoutMask,
                   config: FitConfig) -> float:
    """Bernoulli log-likelihood of the reserved pairs, alpha-scaled as in training."""
    V = F.values
    total = 0.0

    if len(mask.pair_u):
        dots = np.einsum("ij,ij->i", V[mask.pair_u], V[mask.pair_v])
        is_edge = mask.pair_obs.astype(bool)
        lg = 0.0
        if is_edge.any():
            lg += float(_edge_log_terms(dots[is_edge], config.min_dot_guard).sum())
        if (~is_edge).any():
            lg -= float(dots[~is_edge].sum())  # log(1 - P_uv) = -F_u . F_v
        total += (1.0 - config.alpha) * lg

    if len(mask.attr_u) and G.num_attrs:
        w_head = W.values[:, :-1]
        w_bias = W.values[:, -1]
        z = np.einsum("ij,ij->i", V[mask.attr_u], w_head[mask.attr_k]) + w_bias[mask.attr_k]
        q = np.clip(_sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)
        x = mask.attr_obs.astype(np.float64)
        total += config.alpha * float((x * np.log(q) + (1.0 - x) * np.log1p(-q)).sum())

    return total


def choose_num_communities(G: AttributedGraph, candidates, config: FitConfig,
                           fraction: float = 0.10):
    """Fit each candidate count on masked data; return the best by held-out score.

    All candidates share one mask and seed but initialize fresh, so no
    candidate inherits another's warm start. Ties go to the smaller count.
    Returns (best count, list of (count, score) in candidate order).
    """
    from .solver import fit  # local import to avoid a module cycle

    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if any(c < 1 for c in candidates):
        raise ValueError("candidate community counts must be >= 1")

    mask = make_holdout(G, fraction, config.rng_seed)
    scores: list[tuple[int, float]] = []
    for C in candidates:
        result = fit(G, C, config, mask=mask)
        scores.append((C, holdout_loglik(G, result.F, result.W, mask, config)))
    best = min(scores, key=lambda cs: (-cs[1], cs[0]))[0]
    return best, scores
