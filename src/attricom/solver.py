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
from .likelihood import (ObjectiveValue, _attr_loglik, _batch_grad,
                         _batch_local_objectives, _BatchState, _grad_from_state,
                         _local_objectives, _node_state, grad_attr_weights,
                         objective)
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
# A run of non-adjacent nodes is updated as one batch when at least
# _MIN_BATCH of its nodes are due for an update. Below that a batch saves
# little over the nodes' update_node calls, and dense graphs, whose runs
# are all shorter, keep update_node's fits exactly. A run closes before
# its cells pass _RUN_CELLS, a node's cells being its own row, its gathered
# neighbor and partner rows (C each) and its K attribute cells: the line
# search holds 17 of each (the old one and 16 trials).
_MIN_BATCH = 16
_RUN_CELLS = 1 << 16


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
                W: AttributeWeights, config: FitConfig, settled=None) -> bool:
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
    st = _node_state(u, G, F, W, config)
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


def _node_runs(G: AttributedGraph, C: int) -> list[tuple[int, int]]:
    """Split the node ids into consecutive runs [start, stop) of pairwise
    non-adjacent nodes, neither joined by an edge nor an unobserved pair.

    Walking the ids upward, node u joins the open run when its largest lower
    neighbor or partner lies below the run's start and the run's cells stay
    within _RUN_CELLS; otherwise u starts a new run.
    """
    n = G.num_nodes
    lower = np.full(n, -1, dtype=np.int64)
    pairs = np.concatenate([G.edges, G.unobserved_pairs])
    np.maximum.at(lower, pairs[:, 1], pairs[:, 0])
    node_cells = C * (np.bincount(pairs.ravel(), minlength=n) + 1) + G.num_attrs
    runs, start, cells = [], 0, 0
    for u, (low, own) in enumerate(zip(lower.tolist(), node_cells.tolist())):
        if u > start and (low >= start or cells + own > _RUN_CELLS):
            runs.append((start, u))
            start, cells = u, 0
        cells += own
    runs.append((start, n))
    return runs


def _propose_batch(nodes: np.ndarray, G: AttributedGraph, F: AffiliationMatrix,
                   W: AttributeWeights, config: FitConfig):
    """update_node's step for every node of a batch of pairwise non-adjacent
    nodes, all proposed against the current state; nothing is written.

    Returns (moved, rows, gain): the nodes whose step changes their row,
    their new rows, and the exact change of the scaled objective if all of
    them are written. The rows interact only through the non-edge term, so
    that is the sum of the nodes' local gains less
    (1 - alpha) * 1/2 (||sum of deltas||^2 - sum of ||delta||^2).
    """
    st = _BatchState(nodes, G, F, W, config)
    f_old = F.values[nodes]
    g = _batch_grad(st, f_old)
    movable = ((g > 0.0) & (f_old < MAX_MEMBERSHIP)) | ((g < 0.0) & (f_old > 0.0))
    active = movable.any(axis=1)
    if not active.all():  # as in update_node, a screened-out node skips the line search
        nodes, f_old, g = nodes[active], f_old[active], g[active]
        st = _BatchState(nodes, G, F, W, config)
    g_norm2 = np.einsum("bc,bc->b", g, g)
    rows = np.empty((len(nodes), len(_STEPS) + 1, f_old.shape[1]))
    rows[:, 0] = f_old
    np.clip(f_old[:, np.newaxis] + _STEPS[:, np.newaxis] * g[:, np.newaxis],
            0.0, MAX_MEMBERSHIP, out=rows[:, 1:])
    values = _batch_local_objectives(st, rows)
    passed = values[:, 1:] - values[:, :1] >= _ARMIJO * _STEPS * g_norm2[:, np.newaxis]
    moved = np.flatnonzero(passed.any(axis=1))
    step = 1 + passed[moved].argmax(axis=1)
    delta = rows[moved, step] - f_old[moved]
    shift = delta.sum(axis=0)
    cross = 0.5 * (float(shift @ shift) - float(np.einsum("bc,bc->", delta, delta)))
    gain = float((values[moved, step] - values[moved, 0]).sum()) - (1.0 - config.alpha) * cross
    return nodes[moved], rows[moved, step], gain


def _node_pass(G: AttributedGraph, F: AffiliationMatrix, W: AttributeWeights,
               config: FitConfig, runs, settled: np.ndarray, full: bool) -> None:
    """One node pass over the runs of _node_runs, rewriting settled. A run
    with at least _MIN_BATCH nodes to update (all of them on a full pass,
    the unsettled ones on a shrunk pass) is proposed as one batch, which is
    written when its exact gain is >= 0. Every other run, and a batch with
    a negative gain, calls update_node for each node of the run in id
    order, with settled as the screen on a shrunk pass."""
    screen = None if full else settled
    for start, stop in runs:
        if stop - start >= _MIN_BATCH:
            nodes = np.arange(start, stop)
            if not full:
                nodes = nodes[~settled[start:stop]]
            if len(nodes) >= _MIN_BATCH:
                moved, rows, gain = _propose_batch(nodes, G, F, W, config)
                if gain >= 0.0:
                    F.column_sums += (rows - F.values[moved]).sum(axis=0)
                    F.values[moved] = rows
                    settled[nodes] = True
                    settled[moved] = False
                    continue
        # settled[u] is read before it is rewritten.
        for u in range(start, stop):
            settled[u] = not update_node(u, G, F, W, config, screen)


def update_attr_weights(k: int, G: AttributedGraph, F: AffiliationMatrix,
                        W: AttributeWeights, config: FitConfig) -> np.ndarray:
    """One backtracking subgradient step on attribute k's logistic weights.

    The ascent direction is alpha * data-gradient minus lam * sign(w) on the
    non-bias coordinates with sign(0) = 0; the bias is unpenalized. Accepts
    and shrinks exactly as update_node, on the per-attribute objective
    alpha * likelihood._attr_loglik - lam * ||w||_1 (bias excluded).
    """
    def penalized(w):
        l1 = config.lam * float(np.abs(w[:-1]).sum())
        return config.alpha * _attr_loglik(k, G, F, w) - l1

    w_old = W.values[k].copy()
    d = config.alpha * grad_attr_weights(k, G, F, W)
    d[:-1] -= config.lam * np.sign(w_old[:-1])
    d_norm2 = float(d @ d)
    if d_norm2 == 0.0:
        return w_old

    base = penalized(w_old)
    for t in _STEPS:
        cand = w_old + t * d
        if penalized(cand) - base >= _ARMIJO * t * d_norm2:
            W.values[k] = cand
            return cand
    return w_old


def fit(G: AttributedGraph, C: int, config: FitConfig | None = None,
        mask=None) -> FitResult:
    """Alternate membership and weight passes until the objective stalls.

    Memberships start from conductance-ranked seed neighborhoods, weights at
    zero. Each iteration updates node rows in id order, long runs of
    non-adjacent nodes as one batch (see _node_pass), then every
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
    leaves its block as it is, so the trace still never falls. With a
    selection.HoldoutMask made for G, it fits mask.training_graph instead.
    """
    if C < 1:
        raise ValueError("community count must be >= 1")
    if config is None:
        config = FitConfig()
    if mask is not None:
        if mask.graph is not G:
            raise ValueError("holdout mask was made for another graph")
        G = mask.training_graph

    F = init_affiliations(G, C, config.rng_seed)
    W = AttributeWeights(np.zeros((G.num_attrs, C + 1)))
    refresh_column_sums(F)

    trace = [objective(G, F, W, config)]
    iter_seconds: list[float] = []
    nodes_updated: list[int] = []
    converged = False
    iterations = 0
    settled = np.zeros(G.num_nodes, dtype=bool)
    runs = _node_runs(G, C)
    since_full = 0  # passes since the last full pass began; 0: the next one is full

    for it in range(1, config.max_outer_iters + 1):
        tick = time.perf_counter()
        num_settled = int(np.count_nonzero(settled))
        full = since_full == 0 or 2 * num_settled < G.num_nodes
        updated = G.num_nodes if full else G.num_nodes - num_settled
        _node_pass(G, F, W, config, runs, settled, full)
        refresh_column_sums(F)  # drop the rounding the per-row adjustments add up
        for k in range(G.num_attrs):
            update_attr_weights(k, G, F, W, config)
        current = objective(G, F, W, config)
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


def default_threshold(num_nodes: int, delta: float | None = None) -> float:
    """The membership cutoff of threshold_memberships for num_nodes nodes:
    delta when given, which must be > 0 (at zero every node would join every
    community), else the cutoff at which one shared community alone already
    implies an edge probability of 1/N. Needs at least two nodes."""
    if num_nodes < 2:
        raise ValueError("thresholding needs at least two nodes")
    if delta is None:
        return math.sqrt(-math.log1p(-1.0 / num_nodes))
    if delta <= 0.0:
        raise ValueError("delta override must be > 0")
    return delta


def threshold_memberships(F: AffiliationMatrix, delta: float | None = None) -> CommunityCover:
    """Binarize memberships at delta (default: the 1/N edge-probability cutoff;
    see default_threshold).

    Node u joins community c iff F[u, c] >= delta. The cover is ordered by
    descending size, then ascending member ids, for deterministic output;
    CommunityCover drops empty and repeated member sets.
    """
    delta = default_threshold(F.num_nodes, delta)
    member = F.values >= delta
    columns = [np.flatnonzero(member[:, c]) for c in range(F.num_communities)]
    columns.sort(key=lambda ids: (-len(ids), ids.tolist()))
    return CommunityCover(columns, F.num_nodes)


def rank_attributes(W: AttributeWeights) -> list[tuple[int, float]]:
    """Attributes by descending l2 norm of their non-bias weights.

    Large norms mark attributes whose presence or absence tracks community
    membership; ties break toward the smaller attribute id.
    """
    norms = np.sqrt((W.values[:, :-1] ** 2).sum(axis=1))
    order = sorted(range(W.num_attrs), key=lambda k: (-norms[k], k))
    return [(k, float(norms[k])) for k in order]
