"""Initial memberships from conductance-ranked locally minimal neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AffiliationMatrix, AttributedGraph, contains, pair_keys


@dataclass(frozen=True)
class SeedSet:
    """A closed neighborhood (center plus its neighbors) and its conductance."""

    members: frozenset[int]
    conductance: float
    center: int


# Node pairs looked up per step of the triangle count; bounds its memory.
_PAIR_CHUNK = 1 << 13


def conductance(G: AttributedGraph, S) -> float:
    """cut(S) / min(vol(S), 2|E| - vol(S)), or 1.0 when the denominator is 0."""
    members = np.fromiter((int(x) for x in S), dtype=np.int64)
    if members.size == 0:
        raise ValueError("conductance is undefined for the empty set")
    members = np.unique(members)
    if members.size == G.num_nodes:
        raise ValueError("conductance is undefined for the full vertex set")
    if members.min() < 0 or members.max() >= G.num_nodes:
        raise ValueError("node id out of range")

    mask = np.zeros(G.num_nodes, dtype=bool)
    mask[members] = True
    vol = int(G.degrees[members].sum())
    cut = int(np.count_nonzero(mask[G.edges[:, 0]] != mask[G.edges[:, 1]]))
    denom = min(vol, 2 * G.num_edges - vol)
    if denom == 0:
        return 1.0
    return cut / denom


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [starts[i], starts[i] + lengths[i]) laid end to end, and for
    each position the i it came from."""
    owner = np.repeat(np.arange(starts.size), lengths)
    offsets = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return starts[owner] + offsets, owner


def _is_edge(edge_keys: np.ndarray, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each (a, b) is an edge, by lookup in the sorted edge pair keys."""
    return contains(edge_keys, pair_keys(np.minimum(a, b), np.maximum(a, b), n))


def _triangles(G: AttributedGraph, edge_keys: np.ndarray) -> np.ndarray:
    """Number of triangles at each node.

    Each edge points from its lower (degree, id) end to its higher one, so a
    triangle is found once, as the one pair of out-neighbors of its lowest
    node that is an edge. The O(sum of squared out-degrees) pairs are looked
    up in chunks of about _PAIR_CHUNK.
    """
    n = G.num_nodes
    u, v = G.edges[:, 0], G.edges[:, 1]
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(G.degrees, kind="stable")] = np.arange(n)
    flip = rank[u] > rank[v]
    src = np.where(flip, v, u)
    order = np.argsort(src, kind="stable")
    src = src[order]
    dst = np.where(flip, u, v)[order]
    del flip, order
    # Out-edge i pairs with each out-edge after it in its source's run.
    run_end = np.cumsum(np.bincount(src, minlength=n))
    cum = np.cumsum(run_end[src] - np.arange(src.size) - 1)  # pairs up to each out-edge
    total = int(cum[-1]) if cum.size else 0
    bounds = np.unique(np.searchsorted(cum, np.arange(0, total, _PAIR_CHUNK), side="right"))
    t = np.zeros(n, dtype=np.int64)
    for start, stop in zip(bounds, [*bounds[1:], src.size]):
        entries = np.arange(start, stop)
        second, owner = _ranges(entries + 1, run_end[src[entries]] - entries - 1)
        first = entries[owner]
        hit = _is_edge(edge_keys, n, dst[first], dst[second])
        t += np.bincount(np.concatenate([src[first[hit]], dst[first[hit]], dst[second[hit]]]),
                         minlength=n)
    return t


def locally_minimal_neighborhoods(G: AttributedGraph) -> list[SeedSet]:
    """Closed neighborhoods beating every neighbor's closed neighborhood.

    A center u qualifies when its closed neighborhood has strictly lower
    conductance than that of each neighbor v, except that neighbors whose
    closed neighborhood is the identical node set cannot disqualify it.
    Neighborhoods spanning the whole graph are never returned and compare
    at conductance 1 (the zero-denominator convention). Duplicate member
    sets are reported once, for the smallest center. Sorted ascending by
    conductance, ties broken by smaller center id.

    Every conductance has a closed form (Gleich & Seshadhri, KDD 2012):
    vol(N[u]) = d_u + sum of d_v over v in N(u), and N[u] holds d_u + t_u
    edges, t_u the triangles at u, so cut = vol - 2 (d_u + t_u). Counting
    triangles is the only superlinear step, O(sum over u of d+_u^2) with
    edges oriented by (degree, id); it looks node pairs up in chunks of
    about 2^13 (_PAIR_CHUNK), which bounds its memory. Two adjacent nodes
    have the same closed neighborhood exactly when d_u = d_v = c_uv + 1,
    c_uv their common neighbors; that is counted only on edges whose ends
    tie in degree and conductance.
    """
    n = G.num_nodes
    degs = G.degrees
    u, v = G.edges[:, 0], G.edges[:, 1]
    edge_keys = np.sort(pair_keys(u, v, n))  # AttributedGraph does not check that edges are sorted

    vol = degs + (np.bincount(u, weights=degs[v], minlength=n)
                  + np.bincount(v, weights=degs[u], minlength=n)).astype(np.int64)
    cut = vol - 2 * (degs + _triangles(G, edge_keys))
    denom = np.minimum(vol, 2 * G.num_edges - vol)  # 0 if u is isolated or N[u] spans the graph
    phi = np.divide(cut, denom, out=np.ones(n), where=denom > 0)

    same = (degs[u] == degs[v]) & (phi[u] == phi[v])
    tie = np.flatnonzero(same)
    indptr, indices = G.adjacency
    nbr_pos, owner = _ranges(indptr[u[tie]], degs[u[tie]])
    common = np.bincount(owner, minlength=tie.size,
                         weights=_is_edge(edge_keys, n, v[tie][owner], indices[nbr_pos]))
    same[tie] = common == degs[u[tie]] - 1

    # v blocks u unless phi_u < phi_v or N[u] = N[v]; of two twins u < v,
    # v is dropped and u reports the shared neighborhood.
    beaten = (np.bincount(u[~(phi[u] < phi[v]) & ~same], minlength=n)
              + np.bincount(v[~(phi[v] < phi[u]) | same], minlength=n))
    keep = (beaten == 0) & (degs < n - 1)
    centers = np.flatnonzero(keep)
    centers = centers[np.lexsort((centers, phi[centers]))]
    return [SeedSet(frozenset([int(c), *G.neighbors(c).tolist()]), float(phi[c]), int(c))
            for c in centers]


def init_affiliations(G: AttributedGraph, C: int, seed: int) -> AffiliationMatrix:
    """Indicator columns from the best seed sets, random indicators beyond them.

    The first min(C, #seeds) communities are the seed sets at membership 1.
    Any remaining community assigns each node membership 1 independently with
    probability (average seed size) / N, redrawing until nonempty; with no
    seeds at all, the average closed-neighborhood size 1 + 2|E|/N stands in.
    Finally every node that has neighbors but is in no column gets membership
    1 in the column holding the most of its neighbors (counted before this
    step; ties go to the lower column): an edge of an all-zero row has zero
    gradient, so the fit would never move it. Isolated nodes stay at zero.
    Deterministic for a given seed.
    """
    if C < 1:
        raise ValueError("community count must be >= 1")
    n = G.num_nodes
    seeds = locally_minimal_neighborhoods(G)
    values = np.zeros((n, C))
    take = min(C, len(seeds))
    for j in range(take):
        values[sorted(seeds[j].members), j] = 1.0

    if take < C:
        if seeds:
            avg_size = sum(len(s.members) for s in seeds) / len(seeds)
        else:
            avg_size = 1.0 + 2.0 * G.num_edges / n
        p = min(1.0, max(avg_size / n, 1.0 / n))
        rng = np.random.default_rng(seed)
        for j in range(take, C):
            while True:
                col = rng.random(n) < p
                if col.any():
                    break
            values[col, j] = 1.0

    _cover_by_neighbours(G, values)
    return AffiliationMatrix(values)


def _cover_by_neighbours(G: AttributedGraph, values: np.ndarray) -> None:
    """Put each node with neighbours but no membership in 0/1 `values` into
    the column holding most of its neighbours (ties to the lower column),
    in place. Counts one column at a time, so memory stays O(|E| + N)."""
    uncovered = ~values.any(axis=1) & (G.degrees > 0)
    heads = np.concatenate([G.edges[:, 0], G.edges[:, 1]])
    tails = np.concatenate([G.edges[:, 1], G.edges[:, 0]])
    keep = uncovered[heads]
    heads, tails = heads[keep], tails[keep]
    counts = np.stack([np.bincount(heads, weights=values[tails, c],
                                   minlength=G.num_nodes)[uncovered]
                       for c in range(values.shape[1])], axis=1)
    values[uncovered, counts.argmax(axis=1)] = 1.0
