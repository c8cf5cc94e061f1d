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


def _log_sigmoid(s):
    """log sigmoid(s) = min(s, 0) - log1p(exp(-|s|)), clamped to [_LOG_LO, _LOG_HI]."""
    out = np.exp(-np.abs(s))
    np.subtract(np.minimum(s, 0.0), np.log1p(out, out=out), out=out)
    return np.minimum(np.maximum(out, _LOG_LO, out=out), _LOG_HI, out=out)


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


def _pair_dots(V: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """F_u . F_v for each row (u, v) of pairs, given V = F.values.

    One community at a time from a contiguous copy of V's columns, so that
    no (pairs, C) array is formed.
    """
    dots = np.zeros(len(pairs))
    u, v = pairs[:, 0], pairs[:, 1]
    for col in V.T.copy():
        dots += col[u] * col[v]
    return dots


def log_lik_graph(G: AttributedGraph, F: AffiliationMatrix) -> float:
    """Graph log-likelihood over the observed unordered node pairs.

    Edge terms are log(1 - exp(-max(F_u . F_v, guard))); the non-edge term
    sums F_u . F_v through the cached column sums, never by pair enumeration,
    less the unobserved pairs.
    """
    V = F.values
    S = F.column_sums
    # sum over unordered pairs u != v of F_u . F_v
    total_pair_dot = 0.5 * (float(S @ S) - float((V * V).sum()))

    # Unobserved pairs are never edges of G; all of them are accounted for
    # against the pair total in one canonical order, so the result is
    # bit-identical no matter which of them are edges of the full data.
    hidden = G.unobserved_pairs
    hidden_dot_sum = float(_pair_dots(V, hidden).sum()) if len(hidden) else 0.0
    dots = _pair_dots(V, G.edges)
    nonedge_dot = total_pair_dot - float(dots.sum()) - hidden_dot_sum
    return float(_edge_log_terms(dots).sum()) - nonedge_dot


def _attr_loglik(k: int, G: AttributedGraph, F: AffiliationMatrix, w: np.ndarray) -> float:
    """Bernoulli log-likelihood of attribute k's observed cells under its
    weights w: log Q on the nodes carrying k, log(1 - Q) on the other nodes,
    and nothing on the nodes whose k cell is unobserved.

    This is the one definition of an attribute's term: log_lik_attr sums it
    over the attributes.
    """
    z = F.values @ w[:-1] + w[-1]
    return _signed_loglik(_attr_signs(k, G) * z, G.unobserved_nodes(k))


def _attr_signs(k: int, G: AttributedGraph) -> np.ndarray:
    """+1.0 on the nodes carrying attribute k, -1.0 on the others."""
    signs = np.full(G.num_nodes, -1.0)
    signs[G.attr_node_ids(k)] = 1.0
    return signs


def _signed_loglik(s: np.ndarray, hidden: np.ndarray) -> float:
    """Sum of _log_sigmoid(s) over the nodes not in hidden."""
    terms = _log_sigmoid(s)
    terms[hidden] = 0.0
    return float(terms.sum())


def log_lik_attr(G: AttributedGraph, F: AffiliationMatrix, W: AttributeWeights) -> float:
    """Bernoulli log-likelihood of all observed node-attribute cells, attribute
    by attribute, with memory in proportion to the nodes.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] in log space.
    """
    return sum((_attr_loglik(k, G, F, W.values[k]) for k in range(G.num_attrs)), 0.0)


class _NodeState:
    """Node u's snapshot used by gradient and line-search evaluations."""

    __slots__ = ("f_nbrs", "s_minus", "w_head", "w_bias", "x_idx", "hidden", "alpha")

    def __init__(self, u: int, G: AttributedGraph, F: AffiliationMatrix,
                 W: AttributeWeights, config: FitConfig):
        V = F.values
        indptr, indices = G.adjacency
        self.f_nbrs = V[indices[indptr[u]:indptr[u + 1]]]
        # Unobserved partners leave the non-neighbor sum as neighbors do, and
        # unobserved cells are zeroed where the attribute terms are formed; a
        # whole graph has neither.
        self.s_minus = F.column_sums - V[u] - self.f_nbrs.sum(axis=0)
        self.hidden = ()  # indices of attributes whose cell on the node is unobserved
        if len(G.unobserved_pairs) or len(G.unobserved_cells):
            partners, self.hidden = G.unobserved_of(u)
            if len(partners):
                self.s_minus -= V[partners].sum(axis=0)
        self.w_head, self.w_bias = W.values[:, :-1], W.values[:, -1]
        self.x_idx = G.node_attr_ids(u)  # indices of attributes present on the node
        self.alpha = config.alpha


def _edge_ratios(dots: np.ndarray) -> np.ndarray:
    """d/d(dot) of each edge term, 1 / expm1(dot), and 0 at or below the guard.

    Below the guard the edge term is the constant log(1 - exp(-guard)), so
    its gradient contribution there is exactly zero: a row whose support is
    disjoint from every neighbor's is a plateau it cannot leave (see
    core.MIN_DOT_GUARD). Above ~700 the ratio underflows to 0 anyway;
    capping avoids a spurious expm1 overflow.
    """
    return np.divide(1.0, np.expm1(np.minimum(dots, 700.0)), out=np.zeros(len(dots)),
                     where=dots > MIN_DOT_GUARD)


def _grad_from_state(st: _NodeState, f_row: np.ndarray) -> np.ndarray:
    g = st.f_nbrs.T @ _edge_ratios(st.f_nbrs @ f_row) - st.s_minus
    g *= 1.0 - st.alpha
    resid = -_sigmoid(st.w_head @ f_row + st.w_bias)
    resid[st.x_idx] += 1.0
    if len(st.hidden):
        resid[st.hidden] = 0.0
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
    z = rows @ st.w_head.T + st.w_bias
    log_1q = _log_sigmoid(-z)
    if len(st.hidden):
        log_1q[:, st.hidden] = 0.0
    lx = log_1q.sum(axis=1)
    if len(st.x_idx):
        lx += _log_sigmoid(z[:, st.x_idx]).sum(axis=1) - log_1q[:, st.x_idx].sum(axis=1)
    total += st.alpha * lx
    return total


def _segment_sums(a: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of a's rows, counts[i] rows for run i (zero
    for an empty run)."""
    starts = counts.cumsum() - counts
    full = counts > 0
    if full.all():
        return np.add.reduceat(a, starts, axis=0)
    out = np.zeros((len(counts),) + a.shape[1:])
    if full.any():
        out[full] = np.add.reduceat(a, starts[full], axis=0)
    return out


class _BatchState:
    """_NodeState of a batch of pairwise non-adjacent nodes, against one
    state of F. Row r of f_nbrs is a neighbor of batch node pos[r], counts[i]
    rows for node i; (x_pos, x_ids) and (h_pos, h_ids) are the present and
    the unobserved cells as (batch node, attribute).

    Built for a range of node ids start..stop-1 from slices of the graph's
    CSR lists; take() narrows it to some of its nodes."""

    __slots__ = ("f_nbrs", "pos", "counts", "s_minus", "w_head", "w_bias",
                 "x_pos", "x_ids", "h_pos", "h_ids", "alpha")

    def __init__(self, start: int, stop: int, G: AttributedGraph, F: AffiliationMatrix,
                 W: AttributeWeights, config: FitConfig):
        V = F.values
        ((self.counts, nbrs), (p_counts, partners), (x_counts, self.x_ids),
         (h_counts, self.h_ids)) = G.lists_of(start, stop)
        at = np.arange(stop - start)
        self.pos, self.x_pos, self.h_pos = (at.repeat(c) for c in (self.counts, x_counts,
                                                                    h_counts))
        self.f_nbrs = V[nbrs]
        self.s_minus = F.column_sums - V[start:stop] - _segment_sums(self.f_nbrs, self.counts)
        if len(partners):
            self.s_minus -= _segment_sums(V[partners], p_counts)
        self.w_head, self.w_bias = W.values[:, :-1], W.values[:, -1]
        self.alpha = config.alpha

    def take(self, keep: np.ndarray) -> _BatchState:
        """The state of the nodes i with keep[i] (one bool per node), in order."""
        st = object.__new__(_BatchState)
        st.w_head, st.w_bias, st.alpha = self.w_head, self.w_bias, self.alpha
        st.counts, st.s_minus = self.counts[keep], self.s_minus[keep]
        renumber = keep.cumsum() - 1
        rows, x, h = keep[self.pos], keep[self.x_pos], keep[self.h_pos]
        st.f_nbrs, st.pos = self.f_nbrs[rows], renumber[self.pos[rows]]
        st.x_pos, st.x_ids = renumber[self.x_pos[x]], self.x_ids[x]
        st.h_pos, st.h_ids = renumber[self.h_pos[h]], self.h_ids[h]
        return st


def _batch_grad(st: _BatchState, f: np.ndarray) -> np.ndarray:
    """_grad_from_state for every node of the batch: f and the result are (b, C)."""
    ratio = _edge_ratios(np.einsum("rc,rc->r", st.f_nbrs, f[st.pos]))
    g = _segment_sums(st.f_nbrs * ratio[:, np.newaxis], st.counts) - st.s_minus
    g *= 1.0 - st.alpha
    resid = -_sigmoid(f @ st.w_head.T + st.w_bias)
    resid[st.x_pos, st.x_ids] += 1.0
    if len(st.h_ids):
        resid[st.h_pos, st.h_ids] = 0.0
    g += st.alpha * (resid @ st.w_head)
    return g


def _batch_local_objectives(st: _BatchState, rows: np.ndarray) -> np.ndarray:
    """_local_objectives for every node of the batch: rows is (b, T, C), its
    row [i, t] a candidate row of batch node i, and the result is (b, T)."""
    dots = np.einsum("rtc,rc->rt", rows[st.pos], st.f_nbrs)
    lg = _segment_sums(_edge_log_terms(dots), st.counts)
    lg -= np.einsum("btc,bc->bt", rows, st.s_minus)
    total = (1.0 - st.alpha) * lg
    z = rows @ st.w_head.T + st.w_bias
    terms = _log_sigmoid(-z)
    terms[st.x_pos, :, st.x_ids] = _log_sigmoid(z[st.x_pos, :, st.x_ids])
    if len(st.h_ids):
        terms[st.h_pos, :, st.h_ids] = 0.0
    total += st.alpha * terms.sum(axis=2)
    return total


def grad_node(u: int, G: AttributedGraph, F: AffiliationMatrix,
              W: AttributeWeights, config: FitConfig) -> np.ndarray:
    """Gradient of the alpha-scaled objective with respect to node u's row.

    The non-neighbor part runs in O(degree(u) * C) through the cached column
    sums; the attribute part excludes the bias column, which is not a
    coordinate of the membership row.
    """
    return _grad_from_state(_NodeState(u, G, F, W, config), F.values[u])


def grad_attr_weights(k: int, G: AttributedGraph, F: AffiliationMatrix,
                      W: AttributeWeights) -> np.ndarray:
    """Data gradient of attribute k's logistic weights (bias input is 1).

    The l1 subgradient is not included here; the solver applies it.
    """
    return _attr_grad(k, G, F.values, F.values @ W.values[k, :-1] + W.values[k, -1])


def _attr_grad(k: int, G: AttributedGraph, V: np.ndarray, z: np.ndarray) -> np.ndarray:
    """grad_attr_weights given z = V @ w[:-1] + w[-1] at attribute k's weights."""
    resid = -_sigmoid(z)
    resid[G.attr_node_ids(k)] += 1.0
    resid[G.unobserved_nodes(k)] = 0.0
    g = np.empty(V.shape[1] + 1)
    g[:-1] = V.T @ resid
    g[-1] = float(resid.sum())
    return g


def objective(G: AttributedGraph, F: AffiliationMatrix, W: AttributeWeights,
              config: FitConfig) -> ObjectiveValue:
    """Assemble graph, attribute and l1 parts into the scaled fitting objective."""
    lg = log_lik_graph(G, F)
    lx = log_lik_attr(G, F, W)
    l1 = float(config.lam * np.abs(W.values[:, :-1]).sum())
    total = (1.0 - config.alpha) * lg + config.alpha * lx - l1
    return ObjectiveValue(lg, lx, l1, total)
