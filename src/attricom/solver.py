"""Block-coordinate ascent: per-node projected gradient steps on memberships,
per-attribute l1 subgradient steps on logistic weights, and thresholding of
the fitted memberships into a community cover."""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (AffiliationMatrix, AttributedGraph, AttributeWeights,
                   CommunityCover, FitConfig, LineSearch,
                   refresh_column_sums)
from .likelihood import (_LOG_HI, _LOG_LO, ObjectiveValue, _grad_from_state,
                         _local_objectives, _node_state, _row,
                         grad_attr_weights, objective)
from .seeding import init_affiliations


@dataclass
class FitResult:
    """Fitted memberships and weights plus the per-iteration objective trace."""

    F: AffiliationMatrix
    W: AttributeWeights
    objective_trace: list[ObjectiveValue]
    iterations_run: int
    converged: bool
    iter_seconds: list[float] = field(default_factory=list)


@functools.lru_cache(maxsize=8)
def _trial_steps(ls: LineSearch) -> np.ndarray:
    """init_step * shrink_factor**i for i < max_trials, by repeated multiplication."""
    steps = np.cumprod(np.r_[ls.init_step, np.full(ls.max_trials - 1, ls.shrink_factor)])
    steps.setflags(write=False)
    return steps


def update_node(u: int, G: AttributedGraph, F: AffiliationMatrix,
                W: AttributeWeights, config: FitConfig, mask=None) -> np.ndarray:
    """One backtracking projected-gradient step on node u's membership row.

    Accepts step t when the node-local scaled objective improves by at least
    armijo_const * t * ||g||^2, trying t = init_step, shrunk by shrink_factor
    up to max_trials times, largest first; leaves the row unchanged when no
    trial passes. The result is projected onto [0, max_f] per coordinate, and
    the cached column sums are adjusted by the row delta.
    """
    st = _node_state(u, G, F, W, config, mask)
    f_old = F.values[u].copy()
    g = _grad_from_state(st, f_old)
    g_norm2 = float(g @ g)
    if g_norm2 == 0.0:
        return f_old
    # Projection locks a coordinate whenever the step would leave [0, max_f];
    # if every coordinate is locked the candidate equals f_old for any step
    # size, so all trials would fail the (strictly positive) Armijo test.
    movable = ((g > 0.0) & (f_old < config.max_f)) | ((g < 0.0) & (f_old > 0.0))
    if not movable.any():
        return f_old

    ls = config.line_search
    # All trial steps are evaluated in one batch, with f_old as row 0; the
    # first (largest) step passing the Armijo test is taken.
    steps = _trial_steps(ls)
    rows = np.empty((len(steps) + 1, len(f_old)))
    rows[0] = f_old
    np.clip(f_old + steps[:, np.newaxis] * g, 0.0, config.max_f, out=rows[1:])
    values = _local_objectives(st, rows)
    accepted = np.flatnonzero(values[1:] - values[0] >= ls.armijo_const * steps * g_norm2)
    if not len(accepted):
        return f_old
    cand = rows[1 + accepted[0]].copy()
    F.values[u] = cand
    F.column_sums += cand - f_old
    return cand


def _attr_objective(k, G, F, w, config, mask):
    """alpha-scaled Bernoulli log-likelihood of attribute k minus its l1 cost."""
    z = F.values @ w[:-1] + w[-1]
    terms = np.clip(-np.logaddexp(0.0, z), _LOG_LO, _LOG_HI)  # log(1 - Q)
    ones = G.attr_node_ids(k)
    if len(ones):
        terms[ones] = np.clip(-np.logaddexp(0.0, -z[ones]), _LOG_LO, _LOG_HI)
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
    ls = config.line_search
    t = ls.init_step
    for _ in range(ls.max_trials):
        cand = w_old + t * d
        if _attr_objective(k, G, F, cand, config, mask) - base >= ls.armijo_const * t * d_norm2:
            W.values[k] = cand
            return cand
        t *= ls.shrink_factor
    return w_old


def fit(G: AttributedGraph, C: int, config: FitConfig | None = None,
        mask=None) -> FitResult:
    """Alternate full membership and weight passes until the objective stalls.

    Memberships start from conductance-ranked seed neighborhoods, weights at
    zero. Stops when one outer iteration improves the scaled objective by less
    than rel_improvement_tol (relative), or at max_outer_iters. With a holdout
    mask, masked pairs are excluded from initialization, gradients and the
    reported objective alike.
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
    converged = False
    iterations = 0

    for it in range(1, config.max_outer_iters + 1):
        tick = time.perf_counter()
        for u in range(G.num_nodes):
            update_node(u, G, F, W, config, mask)
        refresh_column_sums(F)  # drop the rounding the per-row adjustments add up
        for k in range(G.num_attrs):
            update_attr_weights(k, G, F, W, config, mask)
        current = objective(G, F, W, config, mask)
        iter_seconds.append(time.perf_counter() - tick)
        previous = trace[-1].scaled_total
        trace.append(current)
        iterations = it
        threshold = config.rel_improvement_tol * max(abs(previous), 1e-12)
        if current.scaled_total - previous < threshold:
            converged = True
            break

    return FitResult(F, W, trace, iterations, converged, iter_seconds)


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
