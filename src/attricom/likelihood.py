"""Probabilities, log-likelihoods and gradients of the joint edge/attribute model.

Everything here is a pure function of its inputs: same arguments, bit-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (MIN_DOT_GUARD, AffiliationMatrix, AttributedGraph,
                   AttributeWeights, FitConfig)

# Bernoulli probabilities are clamped to this band before taking logarithms.
PROB_CLAMP = 1e-12
_LOG_LO = float(np.log(PROB_CLAMP))
_LOG_HI = float(np.log1p(-PROB_CLAMP))

_EDGE_CHUNK = 1 << 18
_ATTR_CELL_CHUNK = 1 << 21


@dataclass(frozen=True)
class ObjectiveValue:
    """The three parts of the fitting objective plus their scaled combination."""

    l_graph: float
    l_attr: float
    l1_penalty: float
    scaled_total: float


def _sigmoid(z):
    # exp(-log(1 + exp(-z))) is stable on both tails and saturates to 0/1.
    return np.exp(-np.logaddexp(0.0, np.negative(z)))


def _log_q(z):
    """log sigmoid(z), clamped to [_LOG_LO, _LOG_HI]."""
    return np.minimum(np.maximum(-np.logaddexp(0.0, np.negative(z)), _LOG_LO), _LOG_HI)


def _log_1q(z):
    """log(1 - sigmoid(z)), clamped to [_LOG_LO, _LOG_HI]."""
    return np.minimum(np.maximum(-np.logaddexp(0.0, z), _LOG_LO), _LOG_HI)


def edge_prob(f_u, f_v) -> float:
    """Probability 1 - exp(-f_u . f_v) that two nodes connect given their
    membership rows, unguarded, for reporting."""
    f_u = np.asarray(f_u, dtype=np.float64)
    f_v = np.asarray(f_v, dtype=np.float64)
    if f_u.shape != f_v.shape:
        raise ValueError("membership vectors differ in length")
    return float(-np.expm1(-float(f_u @ f_v)))


def attr_prob(w_k, f_u) -> float:
    """Logistic probability that an attribute is present given memberships f_u.

    w_k carries one weight per community plus a trailing intercept that pairs
    with a constant input of 1. Saturates rather than erroring at extreme z.
    """
    w_k = np.asarray(w_k, dtype=np.float64)
    f_u = np.asarray(f_u, dtype=np.float64)
    if w_k.shape[0] != f_u.shape[0] + 1:
        raise ValueError("weight vector must have one more entry (bias) than memberships")
    z = float(w_k[:-1] @ f_u + w_k[-1])
    return float(_sigmoid(z))


def _edge_log_terms(dots: np.ndarray) -> np.ndarray:
    return np.log(-np.expm1(-np.maximum(dots, MIN_DOT_GUARD)))


def log_lik_graph(G: AttributedGraph, F: AffiliationMatrix, mask=None) -> float:
    """Graph log-likelihood over unordered node pairs.

    Edge terms are log(1 - exp(-max(F_u . F_v, guard))); the non-edge term
    sums F_u . F_v through the cached column sums, never by pair enumeration.
    Pairs in the holdout mask are excluded from both sums.
    """
    V = F.values
    S = F.column_sums
    # sum over unordered pairs u != v of F_u . F_v
    total_pair_dot = 0.5 * (float(S @ S) - float((V * V).sum()))

    edges = G.edges
    masked_dot_sum = 0.0
    if mask is not None:
        # Drop masked pairs from the edge enumeration and account for all of
        # them against the pair total in one canonical order, so the result
        # is bit-identical no matter which masked pairs happen to be edges.
        edges = mask.training_graph.edges
        dots = np.einsum("ij,ij->i", V[mask.pair_u], V[mask.pair_v])
        masked_dot_sum = float(dots.sum())

    ll_edges = 0.0
    edge_dot_sum = 0.0
    for start in range(0, edges.shape[0], _EDGE_CHUNK):
        chunk = edges[start:start + _EDGE_CHUNK]
        dots = np.einsum("ij,ij->i", V[chunk[:, 0]], V[chunk[:, 1]])
        edge_dot_sum += float(dots.sum())
        ll_edges += float(_edge_log_terms(dots).sum())

    nonedge_dot = total_pair_dot - edge_dot_sum - masked_dot_sum
    return ll_edges - nonedge_dot


def log_lik_attr(G: AttributedGraph, F: AffiliationMatrix, W: AttributeWeights,
                 mask=None) -> float:
    """Bernoulli log-likelihood of all observed node-attribute cells.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before logs;
    masked (node, attr) cells are excluded.
    """
    K = G.num_attrs
    if K == 0:
        return 0.0
    V = F.values
    w_head = W.values[:, :-1]
    w_bias = W.values[:, -1]
    pairs = G.attr_pairs

    ll = 0.0
    if mask is not None:
        # Keep masked cells out of the present-pair corrections and remove
        # their absent-cell contribution in one canonical order; see
        # log_lik_graph for why this must not be a post-hoc adjustment.
        pairs = mask.training_graph.attr_pairs
        z = np.einsum("ij,ij->i", V[mask.attr_u], w_head[mask.attr_k]) + w_bias[mask.attr_k]
        ll -= float(_log_1q(z).sum())

    rows_per_chunk = max(1, _ATTR_CELL_CHUNK // K)
    p = 0  # cursor into pairs, which are sorted by node id
    for start in range(0, G.num_nodes, rows_per_chunk):
        stop = min(start + rows_per_chunk, G.num_nodes)
        z = V[start:stop] @ w_head.T + w_bias
        log_q = _log_q(z)
        log_1q = _log_1q(z)
        ll += float(log_1q.sum())
        p_end = int(np.searchsorted(pairs[:, 0], stop, side="left"))
        if p_end > p:
            us = pairs[p:p_end, 0] - start
            ks = pairs[p:p_end, 1]
            ll += float((log_q[us, ks] - log_1q[us, ks]).sum())
        p = p_end

    return ll


class _NodeState:
    """Per-node snapshot used by gradient and line-search evaluations."""

    __slots__ = ("f_nbrs", "s_minus", "w_head", "w_bias", "x_idx", "alpha")

    def __init__(self, f_nbrs, s_minus, w_head, w_bias, x_idx, alpha):
        self.f_nbrs = f_nbrs
        self.s_minus = s_minus
        self.w_head = w_head
        self.w_bias = w_bias
        self.x_idx = x_idx  # indices of attributes present on the node
        self.alpha = alpha


def _row(csr, u: int) -> np.ndarray:
    indptr, indices = csr
    return indices[indptr[u]:indptr[u + 1]]


def _node_state(u: int, G: AttributedGraph, F: AffiliationMatrix,
                W: AttributeWeights, config: FitConfig, mask=None) -> _NodeState:
    V = F.values
    if mask is None:
        f_nbrs = V[G.neighbors(u)]
        s_minus = F.column_sums - V[u] - f_nbrs.sum(axis=0)
    else:
        # Neighbors and masked partners leave the non-neighbor sum together,
        # in one sorted pass, so the arithmetic does not depend on which
        # masked pairs happen to be edges.
        f_nbrs = V[mask.training_graph.neighbors(u)]
        excluded = _row(mask.excluded, u)
        f_excluded = V[excluded] if len(excluded) > len(f_nbrs) else f_nbrs
        s_minus = F.column_sums - V[u] - f_excluded.sum(axis=0)

    K = G.num_attrs
    if K:
        w_head = W.values[:, :-1]
        w_bias = W.values[:, -1]
        if mask is None:
            x_idx = G.node_attr_ids(u)
        else:
            x_idx = _row(mask.present_attrs, u)
            kept = _row(mask.kept_attrs, u)
            if len(kept) < K:
                w_head = w_head[kept]
                w_bias = w_bias[kept]
    else:
        w_head = np.zeros((0, F.num_communities))
        w_bias = np.zeros(0)
        x_idx = np.zeros(0, dtype=np.int64)

    return _NodeState(f_nbrs, s_minus, w_head, w_bias, x_idx, config.alpha)


def _grad_from_state(st: _NodeState, f_row: np.ndarray) -> np.ndarray:
    dots = st.f_nbrs @ f_row
    ratio = np.zeros_like(dots)
    # Below the guard the edge term is the constant log(1 - exp(-guard)),
    # so its gradient contribution there is exactly zero: a row whose support
    # is disjoint from every neighbor's is a plateau it cannot leave (see
    # core.MIN_DOT_GUARD). Above ~700 the ratio underflows to 0 anyway;
    # capping avoids a spurious expm1 overflow.
    active = dots > MIN_DOT_GUARD
    if active.any():
        ratio[active] = 1.0 / np.expm1(np.minimum(dots[active], 700.0))
    g = st.f_nbrs.T @ ratio - st.s_minus
    g *= 1.0 - st.alpha
    if st.w_head.shape[0]:
        resid = -_sigmoid(st.w_head @ f_row + st.w_bias)
        resid[st.x_idx] += 1.0
        g += st.alpha * (st.w_head.T @ resid)
    return g


def _local_objectives(st: _NodeState, rows: np.ndarray) -> np.ndarray:
    """Node-local scaled objective of each candidate row in rows, shape (T, C).

    One batched evaluation, so a line search pays numpy's per-call overhead
    once for all of its trial steps rather than once per step.
    """
    dots = rows @ st.f_nbrs.T
    lg = _edge_log_terms(dots).sum(axis=1) - rows @ st.s_minus
    total = (1.0 - st.alpha) * lg
    if st.w_head.shape[0]:
        z = rows @ st.w_head.T + st.w_bias
        log_1q = _log_1q(z)
        lx = log_1q.sum(axis=1)
        if len(st.x_idx):
            lx += _log_q(z[:, st.x_idx]).sum(axis=1) - log_1q[:, st.x_idx].sum(axis=1)
        total += st.alpha * lx
    return total


def grad_node(u: int, G: AttributedGraph, F: AffiliationMatrix,
              W: AttributeWeights, config: FitConfig, mask=None) -> np.ndarray:
    """Gradient of the alpha-scaled objective with respect to node u's row.

    The non-neighbor part runs in O(degree(u) * C) through the cached column
    sums; the attribute part excludes the bias column, which is not a
    coordinate of the membership row.
    """
    st = _node_state(u, G, F, W, config, mask)
    return _grad_from_state(st, F.values[u])


def grad_attr_weights(k: int, G: AttributedGraph, F: AffiliationMatrix,
                      W: AttributeWeights, mask=None) -> np.ndarray:
    """Data gradient of attribute k's logistic weights (bias input is 1).

    The l1 subgradient is not included here; the solver applies it.
    """
    w = W.values[k]
    V = F.values
    z = V @ w[:-1] + w[-1]
    resid = -_sigmoid(z)
    resid[G.attr_node_ids(k)] += 1.0
    if mask is not None:
        resid[_row(mask.masked_nodes, k)] = 0.0
    g = np.empty(w.shape[0])
    g[:-1] = V.T @ resid
    g[-1] = float(resid.sum())
    return g


def objective(G: AttributedGraph, F: AffiliationMatrix, W: AttributeWeights,
              config: FitConfig, mask=None) -> ObjectiveValue:
    """Assemble graph, attribute and l1 parts into the scaled fitting objective."""
    lg = log_lik_graph(G, F, mask)
    lx = log_lik_attr(G, F, W, mask)
    l1 = float(config.lam * np.abs(W.values[:, :-1]).sum())
    total = (1.0 - config.alpha) * lg + config.alpha * lx - l1
    return ObjectiveValue(lg, lx, l1, total)
