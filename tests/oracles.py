"""Independent reference implementations used to freeze expected test values.

Everything here is written the slow, obvious way (explicit loops over all
pairs, math-module scalars) so it shares no code path with the package.
"""

import math
from collections import deque

import numpy as np


def sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def has_edge(G, u, v):
    return bool((G.neighbors(u) == v).any())


def has_attr(G, u, k):
    return bool((G.node_attr_ids(u) == k).any())


def clamp_prob(q, lo=1e-12):
    return min(max(q, lo), 1.0 - lo)


def naive_log_lik_graph(G, F, guard=1e-10, masked=frozenset()):
    V = F.values
    total = 0.0
    for u in range(G.num_nodes):
        for v in range(u + 1, G.num_nodes):
            if (u, v) in masked:
                continue
            dot = float(V[u] @ V[v])
            if has_edge(G, u, v):
                total += math.log(-math.expm1(-max(dot, guard)))
            else:
                total -= dot
    return total


def naive_log_lik_attr(G, F, W, masked=frozenset()):
    V = F.values
    total = 0.0
    for u in range(G.num_nodes):
        for k in range(G.num_attrs):
            if (u, k) in masked:
                continue
            w = W.values[k]
            q = clamp_prob(sigmoid(float(w[:-1] @ V[u]) + float(w[-1])))
            if has_attr(G, u, k):
                total += math.log(q)
            else:
                total += math.log(1.0 - q)
    return total


def naive_grad_node(u, G, F, W, alpha, guard=1e-10, masked_pairs=frozenset(),
                    masked_attrs=frozenset()):
    """Gradient by explicit loops over every other node and every attribute."""
    V = F.values
    g_graph = np.zeros(F.num_communities)
    for v in range(G.num_nodes):
        if v == u:
            continue
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in masked_pairs:
            continue
        dot = float(V[u] @ V[v])
        if has_edge(G, u, v):
            if dot > guard:
                g_graph += V[v] * (math.exp(-dot) / (1.0 - math.exp(-dot)))
        else:
            g_graph -= V[v]
    g_attr = np.zeros(F.num_communities)
    for k in range(G.num_attrs):
        if (u, k) in masked_attrs:
            continue
        w = W.values[k]
        q = sigmoid(float(w[:-1] @ V[u]) + float(w[-1]))
        x = 1.0 if has_attr(G, u, k) else 0.0
        g_attr += (x - q) * w[:-1]
    return (1.0 - alpha) * g_graph + alpha * g_attr


def naive_grad_attr_weights(k, G, F, W, masked=frozenset()):
    V = F.values
    g = np.zeros(W.values.shape[1])
    for u in range(G.num_nodes):
        if (u, k) in masked:
            continue
        w = W.values[k]
        q = sigmoid(float(w[:-1] @ V[u]) + float(w[-1]))
        x = 1.0 if has_attr(G, u, k) else 0.0
        g[:-1] += (x - q) * V[u]
        g[-1] += x - q
    return g


def loop_update_attr_weights(k, G, F, W, config):
    """The weights update_attr_weights keeps for attribute k, with every trial
    scored by _attr_loglik at its own candidate w_old + t * d; W is left as
    it is."""
    from attricom import grad_attr_weights
    from attricom.likelihood import _attr_loglik
    from attricom.solver import _ARMIJO, _STEPS

    def penalized(w):
        return (config.alpha * _attr_loglik(k, G, F, w)
                - config.lam * float(np.abs(w[:-1]).sum()))

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
            return cand
    return w_old


def central_difference(fun, x, h=1e-6):
    g = np.zeros(len(x))
    for i in range(len(x)):
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def naive_conductance(G, members):
    members = set(int(x) for x in members)
    cut = 0
    for u, v in G.edges:
        if (int(u) in members) != (int(v) in members):
            cut += 1
    vol = sum(int(G.degrees[u]) for u in members)
    denom = min(vol, 2 * G.num_edges - vol)
    if denom == 0:
        return 1.0
    return cut / denom


def naive_locally_minimal(G):
    """Enumerate all closed neighborhoods and apply the seed rule directly.

    Returns (members, conductance, center) triples sorted like the package:
    ascending conductance, ties to the smaller center; duplicates reported
    once for the smallest center; whole-graph neighborhoods excluded but
    comparing at conductance 1.
    """
    n = G.num_nodes
    closed = [frozenset(int(x) for x in G.neighbors(u)) | {u} for u in range(n)]
    phi = [1.0 if len(closed[u]) == n else naive_conductance(G, closed[u])
           for u in range(n)]
    best = {}
    for u in range(n):
        if len(closed[u]) == n:
            continue
        ok = all(closed[v] == closed[u] or phi[u] < phi[v]
                 for v in G.neighbors(u))
        if not ok:
            continue
        if closed[u] not in best or u < best[closed[u]][1]:
            best[closed[u]] = (phi[u], u)
    rows = [(members, cond, center) for members, (cond, center) in best.items()]
    rows.sort(key=lambda t: (t[1], t[2]))
    return rows


def loop_locally_minimal(G):
    """The seed rule of locally_minimal_neighborhoods, one closed neighborhood
    at a time with per-node Python loops; returns the same SeedSet list."""
    from attricom import SeedSet

    n = G.num_nodes
    two_e = 2 * G.num_edges
    degs = G.degrees

    def closed_neighborhood(u):
        nbrs = G.neighbors(u)
        return np.insert(nbrs, int(np.searchsorted(nbrs, u)), u)

    phi = np.ones(n)
    keys = [None] * n
    node_mask = np.zeros(n, dtype=bool)
    for u in range(n):
        closed = closed_neighborhood(u)
        keys[u] = closed.tobytes()
        if closed.size == n:
            continue  # spans the graph; phi stays at the comparison value 1
        node_mask[closed] = True
        vol = int(degs[closed].sum())
        internal = 0
        for w in closed:
            internal += int(node_mask[G.neighbors(w)].sum())
        node_mask[closed] = False
        denom = min(vol, two_e - vol)
        phi[u] = (vol - internal) / denom if denom else 1.0

    best = {}
    for u in range(n):
        closed = closed_neighborhood(u)
        if closed.size == n:
            continue
        key = keys[u]
        ok = True
        for v in G.neighbors(u):
            if keys[v] == key:
                continue
            if not phi[u] < phi[v]:
                ok = False
                break
        if not ok:
            continue
        if key not in best or u < best[key].center:
            best[key] = SeedSet(frozenset(int(x) for x in closed), float(phi[u]), u)

    return sorted(best.values(), key=lambda s: (s.conductance, s.center))


def f1_similarity(a, b):
    inter = len(a & b)
    return 2.0 * inter / (len(a) + len(b))


def jaccard_similarity(a, b):
    return len(a & b) / len(a | b)


def loop_cover_by_neighbours(G, values):
    """Each node with neighbours and an all-zero row joins the column most of
    its neighbours hold, counted before any node joins; ties to the lower."""
    out = values.copy()
    for u in range(G.num_nodes):
        if values[u].any() or G.degrees[u] == 0:
            continue
        counts = [0] * values.shape[1]
        for v in G.neighbors(u):
            for c in range(values.shape[1]):
                if values[v, c] > 0:
                    counts[c] += 1
        out[u, counts.index(max(counts))] = 1.0
    return out


def naive_match_score(truth_sets, detected_sets, sim):
    forward = sum(max(sim(t, d) for d in detected_sets) for t in truth_sets)
    backward = sum(max(sim(t, d) for t in truth_sets) for d in detected_sets)
    return forward / (2.0 * len(truth_sets)) + backward / (2.0 * len(detected_sets))


def random_instance(rng, max_n=20, max_c=4, max_k=6, edge_p=0.3, attr_p=0.4):
    """A random attributed graph with interior-point memberships and weights."""
    from attricom import AffiliationMatrix, AttributeWeights, build_graph

    n = int(rng.integers(2, max_n + 1))
    c = int(rng.integers(1, max_c + 1))
    k = int(rng.integers(0, max_k + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < edge_p]
    attrs = [(u, a) for u in range(n) for a in range(k) if rng.random() < attr_p]
    G = build_graph(edges, attrs, n, k)
    F = AffiliationMatrix(rng.uniform(0.1, 2.0, size=(n, c)))
    W = AttributeWeights(rng.uniform(-1.5, 1.5, size=(k, c + 1)))
    return G, F, W


def loop_planted_instance(spec):
    """planted_instance's forward draw with one generator call per row of
    node pairs (u, v > u); returns (edges, attr_pairs, F values, W values)."""
    rng = np.random.default_rng(spec.seed)
    n, c, k = spec.n, spec.c, spec.k
    member = rng.random((n, c)) < spec.membership_prob
    lonely = np.flatnonzero(~member.any(axis=1))
    if len(lonely):
        member[lonely, rng.integers(0, c, size=len(lonely))] = True
    F = member.astype(np.float64) * spec.strength
    W = np.zeros((k, c + 1))
    if k:
        W[np.arange(k), rng.integers(0, c, size=k)] = spec.weight_scale
        W[:, -1] = spec.bias
    edges = []
    for u in range(n - 1):
        p_edge = -np.expm1(-(F[u + 1:] @ F[u]))
        hits = np.flatnonzero(rng.random(n - 1 - u) < p_edge)
        edges += [(u, u + 1 + int(v)) for v in hits]
    attrs = np.zeros((0, 2), dtype=np.int64)
    if k:
        z = F @ W[:, :-1].T + W[:, -1]
        attrs = np.argwhere(rng.random((n, k)) < np.exp(-np.logaddexp(0.0, -z)))
    return np.array(edges, dtype=np.int64).reshape(-1, 2), attrs, F, W


def loop_forest_fire(params):
    """forest_fire with a separate breadth-first queue, a filtered copy of
    every link list and the edge lists grown per newcomer; returns the graph."""
    from attricom import build_graph

    rng = np.random.default_rng(params.seed)
    n = params.n
    out_links = [[] for _ in range(n)]
    in_links = [[] for _ in range(n)]
    heads, tails = [], []
    for w in range(1, n):
        ambassador = int(rng.integers(w))
        visited = {ambassador}
        frontier = deque([ambassador])
        burned = [ambassador]
        while frontier:
            x = frontier.popleft()
            n_fwd = int(rng.geometric(1.0 - params.p_forward)) - 1
            n_bwd = int(rng.geometric(1.0 - params.p_backward)) - 1
            for links, want in ((out_links[x], n_fwd), (in_links[x], n_bwd)):
                if want <= 0:
                    continue
                avail = [y for y in links if y not in visited]
                if not avail:
                    continue
                if want >= len(avail):
                    chosen = avail
                else:
                    picks = rng.choice(len(avail), size=want, replace=False)
                    chosen = [avail[int(i)] for i in picks]
                for y in chosen:
                    visited.add(y)
                    frontier.append(y)
                    burned.append(y)
        out_links[w] = burned
        for x in burned:
            in_links[x].append(w)
        heads += burned
        tails += [w] * len(burned)
    return build_graph(np.array([heads, tails], dtype=np.int64).T, [], n, 0)


def lexsort_csr(heads, tails, n):
    """(indptr, indices) of (head, tail) pairs: tails sorted per head by lexsort."""
    order = np.lexsort((tails, heads))
    indptr = np.zeros(n + 1, dtype=np.int64)
    for h in heads:
        indptr[h + 1] += 1
    return np.cumsum(indptr), tails[order]
