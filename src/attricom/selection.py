"""Held-out likelihood machinery for choosing the number of communities.

A HoldoutMask reserves node pairs and node-attribute cells of one graph; its
training graph is that graph with the reserved entries unobserved, which is
all a fit needs. make_holdout draws a mask; holdout_loglik scores a fit on it.
"""

from __future__ import annotations

import numpy as np

from . import solver
from .core import AttributedGraph, FitConfig, contains, distinct_keys, pair_keys
from .likelihood import _edge_log_terms, _log_sigmoid, _pair_dots

_SMALL_N = 2000
_DENSE_ATTR_LIMIT = 5_000_000


class HoldoutMask:
    """Node pairs (u < v) and (node, attribute) cells of a graph excluded from training.

    pair_u, pair_v, attr_u and attr_k list the reserved pairs and cells, none
    twice; pair_obs and attr_obs are their observed values in graph, the
    graph the mask was made for. training_graph is graph without the
    reserved edges and attribute cells, with the reserved pairs and cells as
    its unobserved entries; fit(graph, C, config, mask) fits it. The four
    lists are read-only column views of training_graph.unobserved_pairs and
    unobserved_cells, so each entry is stored once.
    """

    def __init__(self, G: AttributedGraph, pair_u, pair_v, attr_u, attr_k):
        n, K = G.num_nodes, G.num_attrs
        pu, pv, au, ak = (np.asarray(a, dtype=np.int64).ravel()
                          for a in (pair_u, pair_v, attr_u, attr_k))
        if len(pu) != len(pv) or len(au) != len(ak):
            raise ValueError("holdout pair arrays differ in length")
        if len(pu) and (pu.min() < 0 or (pu >= pv).any() or pv.max() >= n):
            raise ValueError(f"node pairs must satisfy 0 <= u < v < {n}")
        if len(au) and (au.min() < 0 or au.max() >= n or ak.min() < 0 or ak.max() >= K):
            raise ValueError(f"attribute pairs must satisfy 0 <= u < {n}, 0 <= k < {K}")
        self.graph = G
        pairs, cells = np.column_stack([pu, pv]), np.column_stack([au, ak])
        self.pair_obs, train_edges = _split(G.edges, pairs, n)
        self.attr_obs, train_attrs = _split(G.attr_pairs, cells, K)
        self.training_graph = AttributedGraph(
            n, K, G.edges[train_edges], G.attr_pairs[train_attrs],
            unobserved_pairs=pairs, unobserved_cells=cells)
        self.pair_u, self.pair_v = self.training_graph.unobserved_pairs.T
        self.attr_u, self.attr_k = self.training_graph.unobserved_cells.T


def _split(stored: np.ndarray, reserved: np.ndarray, width: int):
    """(observed, kept): whether each reserved pair is among the sorted
    stored pairs, as uint8, and which stored pairs are not reserved."""
    stored_keys = pair_keys(stored[:, 0], stored[:, 1], width)
    keys = pair_keys(reserved[:, 0], reserved[:, 1], width)
    observed = contains(stored_keys, keys).astype(np.uint8)
    keys.sort()
    return observed, ~contains(keys, stored_keys)


def _draw_distinct(rng, count: int, high: int, canonical=None) -> np.ndarray:
    """count distinct keys drawn uniformly from range(high), sorted.

    canonical maps a batch of raw draws to the keys it stands for, dropping
    draws that stand for none. Draws are made in batches of the shortfall
    until count distinct keys are in hand.
    """
    keys = np.zeros(0, dtype=np.int64)
    while len(keys) < count:
        batch = rng.integers(high, size=count - len(keys))
        if canonical is not None:
            batch = canonical(batch)
        keys = distinct_keys(np.concatenate([keys, batch]))
    return keys


def _choose(rng, total: int, count: int) -> np.ndarray:
    """count distinct indices drawn uniformly from range(total), sorted."""
    return np.sort(rng.choice(total, size=count, replace=False))


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
    n, k = G.num_nodes, G.num_attrs

    if n <= _SMALL_N:
        us, vs = np.triu_indices(n, 1)
        idx = _choose(rng, len(us), int(round(fraction * len(us))))
        pair_u, pair_v = us[idx], vs[idx]
    else:
        idx = _choose(rng, G.num_edges, int(round(fraction * G.num_edges)))
        if len(idx) > n * (n - 1) // 2 - G.num_edges:
            raise ValueError("too few non-edges for a balanced holdout sample")
        edge_keys = pair_keys(G.edges[:, 0], G.edges[:, 1], n)

        def non_edges(draw):
            a, b = np.divmod(draw, n)
            keys = pair_keys(np.minimum(a, b), np.maximum(a, b), n)[a != b]
            return keys[~contains(edge_keys, keys)]

        non = _draw_distinct(rng, len(idx), n * n, non_edges)
        pair_u = np.concatenate([G.edges[idx, 0], non // n])
        pair_v = np.concatenate([G.edges[idx, 1], non % n])

    count = int(round(fraction * n * k))
    if n * k <= _DENSE_ATTR_LIMIT:
        cells = _choose(rng, n * k, count)
    else:
        cells = _draw_distinct(rng, count, n * k)
    attr_u, attr_k = np.divmod(cells, k)
    del cells  # not held while the mask builds its graph
    return HoldoutMask(G, pair_u, pair_v, attr_u, attr_k)


def holdout_loglik(G: AttributedGraph, F, W, mask: HoldoutMask,
                   config: FitConfig) -> float:
    """Bernoulli log-likelihood of the reserved pairs, alpha-scaled as in training.

    G must be the graph the mask was made for.
    """
    if mask.graph is not G:
        raise ValueError("holdout mask was made for another graph")
    V = F.values
    dots = _pair_dots(V, mask.training_graph.unobserved_pairs)
    is_edge = mask.pair_obs.astype(bool)
    # log(1 - P_uv) = -F_u . F_v on a non-edge.
    lg = float(_edge_log_terms(dots[is_edge]).sum()) - float(dots[~is_edge].sum())

    # Attribute by attribute, with the clamped log-probabilities of training.
    lx = 0.0
    for k in range(G.num_attrs):
        nodes = mask.training_graph.unobserved_nodes(k)
        z = V[nodes] @ W.values[k, :-1] + W.values[k, -1]
        present = contains(G.attr_node_ids(k), nodes)
        lx += float(_log_sigmoid(np.where(present, z, -z)).sum())
    return (1.0 - config.alpha) * lg + config.alpha * lx


def choose_num_communities(G: AttributedGraph, candidates, config: FitConfig,
                           fraction: float = 0.10):
    """Fit each candidate count on masked data; return the best by held-out score.

    All candidates share one mask and seed but initialize fresh, so no
    candidate inherits another's warm start. Ties go to the smaller count.
    Returns (best count, list of (count, score) in candidate order).
    """
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if any(c < 1 for c in candidates):
        raise ValueError("candidate community counts must be >= 1")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate community counts must be distinct")

    mask = make_holdout(G, fraction, config.rng_seed)
    scores: list[tuple[int, float]] = []
    for C in candidates:
        result = solver.fit(G, C, config, mask=mask)
        scores.append((C, holdout_loglik(G, result.F, result.W, mask, config)))
    best = min(scores, key=lambda cs: (-cs[1], cs[0]))[0]
    return best, scores
