"""Core data containers: attributed graphs, membership matrices, covers, config."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

# Membership strengths are capped here after every projection step; the edge
# probability 1 - exp(-F_u . F_v) saturates far below this value, so the cap
# only prevents exp underflow from destroying gradient signal.
MAX_MEMBERSHIP = 1000.0
# Membership dot products are floored here inside edge log terms, so the
# all-zero state stays finite. Below the guard an edge term is constant, so a
# row whose support is disjoint from every neighbor's (an all-zero row among
# them) gets no edge gradient and never moves; seeding starts each node with
# neighbors off zero, but a row the fit projects onto zero stays there.
MIN_DOT_GUARD = 1e-10


class GraphBuildError(ValueError):
    """Edge or attribute input referenced an id outside the declared range."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass
class BuildDiagnostics:
    """Counts of input rows silently dropped while building a graph."""

    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0
    duplicate_attrs_dropped: int = 0


def _csr(heads: np.ndarray, tails: np.ndarray, n: int):
    """Index (head, tail) pairs as indptr/indices arrays, tails sorted per head."""
    order = np.lexsort((tails, heads))
    heads = heads[order]
    tails = np.ascontiguousarray(tails[order])
    indptr = np.zeros(n + 1, dtype=np.int64)
    if heads.size:
        indptr[1:] = np.cumsum(np.bincount(heads, minlength=n))
    return indptr, tails


class AttributedGraph:
    """Undirected simple graph plus sparse binary node attributes.

    Node ids are exactly 0..num_nodes-1 and attribute ids 0..num_attrs-1.
    Only (node, attr) pairs with value 1 are stored; every absent pair is an
    observed zero. Instances are immutable after construction.
    """

    def __init__(self, num_nodes, num_attrs, edges, attr_pairs, diagnostics=None):
        self.num_nodes = int(num_nodes)
        self.num_attrs = int(num_attrs)
        if self.num_nodes < 1:
            raise ValueError("graph must have at least one node")
        if self.num_attrs < 0:
            raise ValueError("attribute count must be >= 0")

        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        attr_pairs = np.asarray(attr_pairs, dtype=np.int64).reshape(-1, 2)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.num_nodes:
                raise ValueError("edge endpoint out of range")
            if not (edges[:, 0] < edges[:, 1]).all():
                raise ValueError("edges must be canonical (u < v, no self-loops)")
        if attr_pairs.size:
            if attr_pairs[:, 0].min() < 0 or attr_pairs[:, 0].max() >= self.num_nodes:
                raise ValueError("attribute pair node id out of range")
            if attr_pairs[:, 1].min() < 0 or attr_pairs[:, 1].max() >= self.num_attrs:
                raise ValueError("attribute id out of range")

        self._edges = edges
        self._attr_pairs = attr_pairs
        heads = np.concatenate([edges[:, 0], edges[:, 1]])
        tails = np.concatenate([edges[:, 1], edges[:, 0]])
        self._adj_indptr, self._adj_indices = _csr(heads, tails, self.num_nodes)
        self._na_indptr, self._na_indices = _csr(
            attr_pairs[:, 0], attr_pairs[:, 1], self.num_nodes
        )
        self._an_indptr, self._an_indices = _csr(
            attr_pairs[:, 1], attr_pairs[:, 0], max(self.num_attrs, 1)
        )
        self.degrees = np.diff(self._adj_indptr)
        self.diagnostics = diagnostics if diagnostics is not None else BuildDiagnostics()
        for arr in (self._edges, self._attr_pairs, self._adj_indptr, self._adj_indices,
                    self._na_indptr, self._na_indices, self._an_indptr,
                    self._an_indices, self.degrees):
            arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self._edges.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Canonical (u < v) edge array of shape (E, 2), lexicographically sorted."""
        return self._edges

    @property
    def attr_pairs(self) -> np.ndarray:
        """All (node, attr) pairs with X[u, k] = 1, shape (P, 2)."""
        return self._attr_pairs

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indptr, indices): the sorted neighbors of u are
        indices[indptr[u]:indptr[u + 1]]."""
        return self._adj_indptr, self._adj_indices

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of node u (read-only view)."""
        return self._adj_indices[self._adj_indptr[u]:self._adj_indptr[u + 1]]

    def degree(self, u: int) -> int:
        return int(self.degrees[u])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < len(nbrs) and nbrs[i] == v)

    def node_attr_ids(self, u: int) -> np.ndarray:
        """Sorted attribute ids present on node u."""
        return self._na_indices[self._na_indptr[u]:self._na_indptr[u + 1]]

    def attr_node_ids(self, k: int) -> np.ndarray:
        """Sorted node ids carrying attribute k."""
        return self._an_indices[self._an_indptr[k]:self._an_indptr[k + 1]]

    def has_attr(self, u: int, k: int) -> bool:
        ids = self.node_attr_ids(u)
        i = np.searchsorted(ids, k)
        return bool(i < len(ids) and ids[i] == k)

    def __repr__(self):
        return (f"AttributedGraph(n={self.num_nodes}, edges={self.num_edges}, "
                f"attrs={self.num_attrs}, attr_pairs={len(self._attr_pairs)})")


def pair_keys(a, b, width: int) -> np.ndarray:
    """The int64 key a * width + b of each pair (a, b) with 0 <= b < width.

    Keys order as the pairs do lexicographically, and np.divmod(keys, width)
    gives the pairs back.
    """
    keys = np.multiply(a, width, dtype=np.int64)
    keys += b
    return keys


def contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of keys occurs in the ascending array sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(np.shape(keys), dtype=bool)
    return sorted_keys.take(np.searchsorted(sorted_keys, keys), mode="clip") == keys


def _unique_pairs(pairs: np.ndarray, width: int) -> np.ndarray:
    """np.unique(pairs, axis=0) for pairs with 0 <= pairs[:, 1] < width, through
    one sorted pair key per row."""
    keys = pair_keys(pairs[:, 0], pairs[:, 1], width)
    # Not np.unique, whose hash table for integers costs more memory than the sort.
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    out = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, width, out=(out[:, 0], out[:, 1]))
    return out


def _as_pairs(pairs) -> np.ndarray:
    """An (m, 2) int64 array from an array or any iterable of pairs."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def build_graph(edge_list, attr_list, n: int, k: int) -> AttributedGraph:
    """Validate, clean and index raw edge and attribute pair lists.

    Self-loops and duplicate pairs are dropped silently but counted in the
    returned graph's ``diagnostics``; real edge lists contain them routinely.
    Ids outside 0..n-1 (or 0..k-1 for attributes) raise GraphBuildError
    carrying the offending list index.
    """
    if n <= 0:
        raise ValueError("graph must have at least one node (n >= 1)")
    if k < 0:
        raise ValueError("attribute count must be >= 0")

    edges = _as_pairs(edge_list)
    attrs = _as_pairs(attr_list)

    if edges.size:
        bad = (edges.min(axis=1) < 0) | (edges.max(axis=1) >= n)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise GraphBuildError(
                f"edge {i}: node id out of range 0..{n - 1}: {tuple(edges[i])}", index=i
            )
    if attrs.size:
        bad = (attrs[:, 0] < 0) | (attrs[:, 0] >= n) | (attrs[:, 1] < 0) | (attrs[:, 1] >= k)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise GraphBuildError(
                f"attribute pair {i}: id out of range (n={n}, k={k}): {tuple(attrs[i])}",
                index=i,
            )

    diag = BuildDiagnostics()
    if edges.size:
        loops = edges[:, 0] == edges[:, 1]
        diag.self_loops_dropped = int(loops.sum())
        edges = np.sort(edges[~loops], axis=1)
        before = edges.shape[0]
        edges = _unique_pairs(edges, n)
        diag.duplicate_edges_dropped = before - edges.shape[0]
    if attrs.size:
        before = attrs.shape[0]
        attrs = _unique_pairs(attrs, k)
        diag.duplicate_attrs_dropped = before - attrs.shape[0]

    return AttributedGraph(n, k, edges, attrs, diag)


class AffiliationMatrix:
    """Nonnegative node-by-community membership strengths with cached column sums.

    The cache holds the per-community total membership over all nodes; the
    solver reads it to evaluate non-neighbor sums in O(degree) instead of O(N).
    """

    def __init__(self, values):
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("membership matrix must be 2-dimensional")
        if not np.isfinite(values).all():
            raise ValueError("membership matrix must be finite")
        if values.size and (values.min() < 0.0 or values.max() > MAX_MEMBERSHIP):
            raise ValueError(f"membership values must lie in [0, {MAX_MEMBERSHIP}]")
        self.values = values
        self.num_communities = values.shape[1]
        self.column_sums = values.sum(axis=0)

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    def __repr__(self):
        return f"AffiliationMatrix(nodes={self.num_nodes}, communities={self.num_communities})"


def refresh_column_sums(F: AffiliationMatrix) -> AffiliationMatrix:
    """Recompute the cached per-community sums exactly from current values."""
    F.column_sums = F.values.sum(axis=0)
    return F


class AttributeWeights:
    """Real-valued attribute-by-(community + bias) logistic weights.

    Column layout is one weight per community followed by the intercept,
    which pairs with a constant input of 1.
    """

    def __init__(self, values):
        values = np.array(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError("weights must be a K x (C + 1) matrix")
        if not np.isfinite(values).all():
            raise ValueError("weights must be finite")
        self.values = values

    @property
    def num_attrs(self) -> int:
        return self.values.shape[0]

    @property
    def num_communities(self) -> int:
        return self.values.shape[1] - 1

    def __repr__(self):
        return f"AttributeWeights(attrs={self.num_attrs}, communities={self.num_communities})"


class CommunityCover:
    """A set of node-id sets, the unit of detection output and ground truth.

    Sets may overlap. Empty sets are dropped at construction, and exact
    duplicate member sets are kept once (a cover is a set of communities,
    so duplicates carry no information and would skew evaluation averages).
    """

    def __init__(self, communities, universe: int):
        if universe < 1:
            raise ValueError("universe must be >= 1")
        self.universe = int(universe)
        comms = []
        seen = set()
        for members in communities:
            s = frozenset(int(x) for x in members)
            if not s or s in seen:
                continue
            if min(s) < 0 or max(s) >= self.universe:
                raise ValueError(f"community member id outside 0..{self.universe - 1}")
            seen.add(s)
            comms.append(s)
        self.communities: list[frozenset[int]] = comms

    def __len__(self):
        return len(self.communities)

    def __iter__(self):
        return iter(self.communities)

    def __repr__(self):
        return f"CommunityCover({len(self.communities)} communities, universe={self.universe})"


@dataclass(frozen=True)
class FitConfig:
    """The solver settings a caller chooses.

    alpha balances the graph and attribute log-likelihoods; lam is the l1
    strength on non-bias attribute weights. A fit stops when one full
    node pass (see solver.fit) raises the objective by less than
    rel_improvement_tol (relative), or after max_outer_iters passes;
    rng_seed fixes seeding and holdout draws. The numerics of the method
    are fixed module constants: MAX_MEMBERSHIP caps memberships,
    MIN_DOT_GUARD (also readable here as min_dot_guard) floors edge dot
    products, and attricom.solver fixes the line-search steps and the
    Armijo constant.
    """

    min_dot_guard: ClassVar[float] = MIN_DOT_GUARD

    alpha: float = 0.5
    lam: float = 1.0
    max_outer_iters: int = 1000
    rel_improvement_tol: float = 1e-5
    rng_seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.lam < 0.0:
            raise ValueError("lambda must be >= 0")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be >= 0")
        if self.rel_improvement_tol < 0.0:
            raise ValueError("rel_improvement_tol must be >= 0")
