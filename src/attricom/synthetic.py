"""Synthetic instances: forest-fire graphs, Bernoulli attributes, model-planted
communities, and uniform edge removal for robustness experiments."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (AffiliationMatrix, AttributedGraph, AttributeWeights,
                   build_graph)
from .likelihood import _sigmoid
from .solver import threshold_memberships


# Pair cells per block of rows that planted_instance draws edges for at once.
_BLOCK_CELLS = 1 << 16


@dataclass(frozen=True)
class ForestFireParams:
    n: int
    p_forward: float = 0.36
    p_backward: float = 0.32
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (0.0 <= self.p_forward < 1.0 and 0.0 <= self.p_backward < 1.0):
            raise ValueError("burn probabilities must lie in [0, 1)")


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of a forward run of the generative model.

    Each node joins each community independently with membership_prob at
    membership value `strength` (lonely nodes get one uniform community);
    each attribute is tied to one uniform community at weight +weight_scale,
    with `bias` setting the non-member presence rate.
    """

    n: int
    c: int
    k: int
    membership_prob: float = 0.25
    strength: float = 1.0
    weight_scale: float = 5.0
    bias: float = -2.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.c < 1 or self.k < 0:
            raise ValueError("need n >= 2, c >= 1, k >= 0")
        if not (0.0 < self.membership_prob <= 1.0):
            raise ValueError("membership_prob must lie in (0, 1]")
        if self.strength <= 0.0:
            raise ValueError("strength must be > 0")


def _bounded_draws(bit_generator):
    """Return draw(high), a uniform integer in [0, high], fed by raw 64-bit words.

    It reproduces numpy's `Generator.integers(0, high, endpoint=True)` for
    `0 <= high < 2**32 - 1` (numpy switches to 64-bit draws above that):
    Lemire's 32-bit multiply-and-reject method (ACM TOMACS 2019) on the
    word's lower half, with the upper half kept for the next 32-bit draw and
    no word read when high == 0. Draws that read whole words, such as
    `Generator.geometric`, never take the spare half, so they may be
    interleaved on the same bit generator.
    """
    raw = bit_generator.random_raw
    spare = None

    def draw(high):
        nonlocal spare
        if high == 0:
            return 0
        span = high + 1
        threshold = (0x100000000 - span) % span
        while True:
            if spare is None:
                word = raw()
                half, spare = word & 0xFFFFFFFF, word >> 32
            else:
                half, spare = spare, None
            m = half * span
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    return draw


def _choice(draw, pop, size):
    """Reproduce `Generator.choice(pop, size, replace=False)` as a list.

    Like numpy, this is Floyd's algorithm followed by a shuffle of the sample,
    or, when pop > 10000 and size > pop // 50, a Fisher-Yates shuffle of the
    last `size` slots of range(pop); `draw` is a `_bounded_draws` function.
    """
    if pop > 10000 and size > pop // 50:
        picks, first = list(range(pop)), max(pop - size, 1)
    else:
        picks, taken, first = [], set(), 1
        for j in range(pop - size, pop):
            v = draw(j)
            if v in taken:
                v = j
            taken.add(v)
            picks.append(v)
    for i in range(len(picks) - 1, first - 1, -1):
        j = draw(i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks[len(picks) - size:]


def forest_fire(params: ForestFireParams) -> AttributedGraph:
    """Grow a connected graph by the forest-fire process (no attributes).

    Nodes arrive one at a time; each picks a uniform ambassador among the
    existing nodes and burns breadth-first from it, drawing geometrically many
    forward (out-link) and backward (in-link) spreads per burning node with
    means p/(1-p), never revisiting a node. The newcomer links to every burned
    node; burn directions only steer the spread, edges are stored undirected.
    The ambassadors and burned subsets are numpy's `integers` and `choice`
    draws, taken straight from the bit generator's words (`_bounded_draws`).
    """
    rng = np.random.default_rng(params.seed)
    draw = _bounded_draws(rng.bit_generator)
    n = params.n
    out_links: list[list[int]] = [[] for _ in range(n)]  # out_links[w]: the nodes w burned
    in_links: list[list[int]] = [[] for _ in range(n)]

    for w in range(1, n):
        ambassador = draw(w - 1)
        visited = {ambassador}
        burned = [ambassador]  # also the breadth-first queue, read while it grows
        for x in burned:
            n_fwd = int(rng.geometric(1.0 - params.p_forward)) - 1
            n_bwd = int(rng.geometric(1.0 - params.p_backward)) - 1
            for links, want in ((out_links[x], n_fwd), (in_links[x], n_bwd)):
                if want <= 0:
                    continue
                avail = links if visited.isdisjoint(links) else [
                    y for y in links if y not in visited]
                if not avail:
                    continue
                if want < len(avail):
                    avail = [avail[i] for i in _choice(draw, len(avail), want)]
                visited.update(avail)
                burned += avail
        out_links[w] = burned
        for x in burned:
            in_links[x].append(w)

    sizes = np.fromiter(map(len, out_links), dtype=np.int64, count=n)
    heads = np.fromiter(chain.from_iterable(out_links), dtype=np.int64, count=int(sizes.sum()))
    return build_graph(np.stack([heads, np.repeat(np.arange(n), sizes)], axis=1), [], n, 0)


def bernoulli_attributes(G: AttributedGraph, k: int, p: float,
                         seed: int) -> AttributedGraph:
    """Same edges, k fresh attributes each present independently with probability p."""
    if k < 0:
        raise ValueError("attribute count must be >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError("attribute probability must lie in [0, 1]")
    present = np.random.default_rng(seed).random((G.num_nodes, k)) < p
    return AttributedGraph(G.num_nodes, k, G.edges, np.argwhere(present))


def planted_instance(spec: PlantedSpec):
    """Run the generative model forward; return the instance and its truth.

    Returns (graph, truth cover, true memberships, true weights). The truth
    cover is the thresholded true membership matrix, so it is directly
    comparable to detection output.
    """
    rng = np.random.default_rng(spec.seed)
    n, c, k = spec.n, spec.c, spec.k

    member = rng.random((n, c)) < spec.membership_prob
    lonely = np.flatnonzero(~member.any(axis=1))
    if len(lonely):
        member[lonely, rng.integers(0, c, size=len(lonely))] = True
    F_values = member.astype(np.float64) * spec.strength

    W_values = np.zeros((k, c + 1))
    W_values[np.arange(k), rng.integers(0, c, size=k)] = spec.weight_scale
    W_values[:, -1] = spec.bias

    # One uniform draw per pair u < v, in row-major order (that of a loop over
    # the rows), taken for blocks of rows of about _BLOCK_CELLS pairs at once.
    blocks, a = [], 0
    while a < n - 1:
        b = min(n - 1, a + max(1, _BLOCK_CELLS // (n - a)))
        upper = np.arange(a, n) > np.arange(a, b)[:, np.newaxis]
        p_edge = -np.expm1(-(F_values[a:b] @ F_values[a:].T)[upper])
        upper[upper] = rng.random(len(p_edge)) < p_edge
        blocks.append(np.argwhere(upper) + a)
        a = b
    edges = np.concatenate(blocks)

    z = F_values @ W_values[:, :-1].T + W_values[:, -1]
    present = rng.random((n, k)) < _sigmoid(z)
    graph = AttributedGraph(n, k, edges, np.argwhere(present))
    true_F = AffiliationMatrix(F_values)
    true_W = AttributeWeights(W_values)
    truth = threshold_memberships(true_F)
    return graph, truth, true_F, true_W


def remove_edges(G: AttributedGraph, gamma: float, seed: int) -> AttributedGraph:
    """Delete exactly round(gamma * |E|) edges uniformly without replacement.

    Attributes and the node count are untouched; removed edges are
    indistinguishable from never-observed ones downstream.
    """
    if not (0.0 <= gamma < 1.0):
        raise ValueError("edge removal fraction must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    n_remove = int(round(gamma * G.num_edges))
    if n_remove == 0:
        return AttributedGraph(G.num_nodes, G.num_attrs, G.edges, G.attr_pairs)
    drop = rng.choice(G.num_edges, size=n_remove, replace=False)
    keep = np.ones(G.num_edges, dtype=bool)
    keep[drop] = False
    return AttributedGraph(G.num_nodes, G.num_attrs, G.edges[keep], G.attr_pairs)
