"""Held-out likelihood machinery for choosing the number of communities.

A HoldoutMask reserves node pairs and node-attribute cells of one graph and
holds, as plain arrays built once, everything a masked fit reads: the graph
without the reserved pairs, each node's excluded and kept sets, and each
attribute's masked nodes. make_holdout draws a mask; holdout_loglik scores a
fit on it.
"""

from __future__ import annotations

import numpy as np

from . import solver
from .core import AttributedGraph, FitConfig, _csr, contains, pair_keys
from .likelihood import PROB_CLAMP, _edge_log_terms, _sigmoid

_SMALL_N = 2000
_DENSE_ATTR_LIMIT = 5_000_000


def _sorted_distinct(keys: np.ndarray, what: str) -> np.ndarray:
    """keys sorted; a key that occurs twice raises ValueError."""
    keys = np.sort(keys)
    if (keys[1:] == keys[:-1]).any():
        raise ValueError(f"duplicate {what} in holdout mask")
    return keys


class HoldoutMask:
    """Node pairs (u < v) and (node, attribute) cells of G excluded from training.

    pair_u, pair_v, attr_u and attr_k list the reserved pairs and cells, none
    twice; pair_obs and attr_obs are their observed values in G. The mask
    belongs to G and precomputes, as arrays:

    - training_graph: G without the reserved edges and attribute cells;
    - excluded: CSR (indptr, indices) of each node's training neighbors and
      masked partners together, sorted;
    - kept_attrs: CSR of each node's attribute ids outside the mask;
    - present_attrs: CSR of each node's training attributes, as positions
      among its kept ids;
    - masked_nodes: CSR of each attribute's masked node ids.
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
        self.pair_u, self.pair_v, self.attr_u, self.attr_k = pu, pv, au, ak

        mask_keys = pair_keys(pu, pv, n)
        cell_keys = pair_keys(au, ak, K)
        sorted_mask = _sorted_distinct(mask_keys, "node pair")
        sorted_cells = _sorted_distinct(cell_keys, "attribute pair")
        edge_keys = pair_keys(G.edges[:, 0], G.edges[:, 1], n)
        present_keys = pair_keys(G.attr_pairs[:, 0], G.attr_pairs[:, 1], K)
        self.pair_obs = contains(np.sort(edge_keys), mask_keys).astype(np.uint8)
        self.attr_obs = contains(np.sort(present_keys), cell_keys).astype(np.uint8)
        train_edges = ~contains(sorted_mask, edge_keys)
        train_attrs = ~contains(sorted_cells, present_keys)
        self.training_graph = AttributedGraph(n, K, G.edges[train_edges],
                                              G.attr_pairs[train_attrs])

        # Training neighbors and masked partners are disjoint, so together
        # they list each excluded node once.
        e = self.training_graph.edges
        self.excluded = _csr(np.concatenate([e[:, 0], e[:, 1], pu, pv]),
                             np.concatenate([e[:, 1], e[:, 0], pv, pu]), n)
        keep = np.ones(n * K, dtype=bool)
        keep[sorted_cells] = False
        kept = np.flatnonzero(keep)  # keys u * K + k of the unmasked cells
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep.reshape(n, K).sum(axis=1), out=indptr[1:])
        self.kept_attrs = (indptr, kept % K)
        train_u = G.attr_pairs[train_attrs, 0]
        self.present_attrs = _csr(
            train_u, np.searchsorted(kept, present_keys[train_attrs]) - indptr[train_u], n)
        self.masked_nodes = _csr(ak, au, max(K, 1))


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
        keys = np.unique(np.concatenate([keys, batch]))
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
        edge_keys = np.sort(pair_keys(G.edges[:, 0], G.edges[:, 1], n))

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
    return HoldoutMask(G, pair_u, pair_v, attr_u, attr_k)


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
            lg += float(_edge_log_terms(dots[is_edge]).sum())
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
    candidates = [int(c) for c in candidates]
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if any(c < 1 for c in candidates):
        raise ValueError("candidate community counts must be >= 1")

    mask = make_holdout(G, fraction, config.rng_seed)
    scores: list[tuple[int, float]] = []
    for C in candidates:
        result = solver.fit(G, C, config, mask=mask)
        scores.append((C, holdout_loglik(G, result.F, result.W, mask, config)))
    best = min(scores, key=lambda cs: (-cs[1], cs[0]))[0]
    return best, scores
