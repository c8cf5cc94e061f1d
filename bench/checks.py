"""Output checks for the benchmark, computed apart from the program.

Everything here is numpy and the file formats documented in
``attricom.fileio``; nothing imports attricom, so a fault in the package
cannot hide itself by also being in the check. Each ``check_*`` function
returns a list of failure messages, empty when the output is correct.

The model, as the package documents it: an edge between u and v has
probability 1 - exp(-F_u . F_v), with the dot product floored at the
configured guard inside edge log terms; attribute k is present on u with
probability sigmoid(W_k . F_u + b_k), clamped to [1e-12, 1 - 1e-12] before
logs. The fitted objective is (1 - alpha) * graph + alpha * attributes
- lam * |W without bias|_1.
"""

from __future__ import annotations

import math

import numpy as np

PROB_CLAMP = 1e-12
TRACE_SLACK = 1e-9       # allowed dip between consecutive objective values
OBJECTIVE_RTOL = 1e-9    # full-precision objective against the recomputation
PRINTED_RTOL = 1e-8      # a value printed with 9 significant digits


def _sigmoid(z):
    return np.exp(-np.logaddexp(0.0, -z))


def _edge_terms(dots, guard):
    return np.log(-np.expm1(-np.maximum(dots, guard)))


def _bernoulli_terms(z, present):
    q = np.clip(_sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.where(present, np.log(q), np.log1p(-q))


def objective(n, edges, attr_pairs, num_attrs, F, W, alpha, lam, guard):
    """Scaled objective of memberships F (n x C) and weights W (K x (C + 1)).

    Non-edge pairs are summed as all pairs minus edges, through the column
    sums, so the cost is O(|E| C + n K C) and 30k-node graphs stay cheap.
    """
    F = np.asarray(F, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    col = F.sum(axis=0)
    all_pairs = 0.5 * (float(col @ col) - float((F * F).sum()))
    dots = np.einsum("ij,ij->i", F[edges[:, 0]], F[edges[:, 1]])
    graph = float(_edge_terms(dots, guard).sum()) - (all_pairs - float(dots.sum()))
    attrs = 0.0
    if num_attrs:
        present = np.zeros((n, num_attrs), dtype=bool)
        pairs = np.asarray(attr_pairs, dtype=np.int64).reshape(-1, 2)
        present[pairs[:, 0], pairs[:, 1]] = True
        z = F @ W[:, :-1].T + W[:, -1]
        attrs = float(_bernoulli_terms(z, present).sum())
    l1 = lam * float(np.abs(W[:, :-1]).sum())
    return (1.0 - alpha) * graph + alpha * attrs - l1


def holdout_score(F, W, pairs, pair_obs, cells, cell_obs, alpha, guard):
    """Alpha-scaled log-likelihood of reserved node pairs and attribute cells."""
    F = np.asarray(F, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    is_edge = np.asarray(pair_obs, dtype=bool)
    dots = np.einsum("ij,ij->i", F[pairs[:, 0]], F[pairs[:, 1]])
    graph = float(_edge_terms(dots[is_edge], guard).sum()) - float(dots[~is_edge].sum())
    z = np.einsum("ij,ij->i", F[cells[:, 0]], W[cells[:, 1], :-1]) + W[cells[:, 1], -1]
    attrs = float(_bernoulli_terms(z, np.asarray(cell_obs, dtype=bool)).sum())
    return (1.0 - alpha) * graph + alpha * attrs


def default_delta(n):
    """Membership cutoff at which one shared community implies P(edge) = 1/n."""
    return math.sqrt(-math.log1p(-1.0 / n))


def threshold(F, delta):
    """Cover of F at delta: one community per column, empty and repeated
    member sets dropped, ordered by descending size then ascending ids."""
    member = np.asarray(F) >= delta
    cover = {tuple(int(x) for x in np.flatnonzero(member[:, c]))
             for c in range(member.shape[1])}
    cover.discard(())
    return sorted(cover, key=lambda ids: (-len(ids), ids))


def best_match_f1(truth, detected):
    """Mean of both best-match directions of the F1 similarity of two covers."""
    if not truth or not detected:
        return 0.0
    sets_t = [set(c) for c in truth]
    sets_d = [set(c) for c in detected]
    sims = np.array([[2.0 * len(t & d) / (len(t) + len(d)) for d in sets_d]
                     for t in sets_t])
    return 0.5 * (sims.max(axis=1).mean() + sims.max(axis=0).mean())


def best_count(scores):
    """Candidate count with the highest held-out score, ties to the smaller."""
    return min(scores, key=lambda c: (-scores[c], c))


def _close(got, want, rtol):
    return abs(got - want) <= rtol * max(abs(want), 1.0)


def check_trace(totals):
    """The objective never falls by more than TRACE_SLACK between iterations."""
    return [f"objective fell from {a!r} to {b!r} at iteration {i + 1}"
            for i, (a, b) in enumerate(zip(totals, totals[1:])) if b < a - TRACE_SLACK]


def check_objective(reported, recomputed, rtol=OBJECTIVE_RTOL):
    if _close(reported, recomputed, rtol):
        return []
    return [f"reported objective {reported!r} differs from recomputed {recomputed!r}"]


def check_cover(cover, F, delta=None):
    """The written cover equals the thresholding of the fitted memberships."""
    F = np.asarray(F)
    if delta is None:
        delta = default_delta(F.shape[0])
    want = threshold(F, delta)
    got = [tuple(ids) for ids in cover]
    if got == want:
        return []
    return [f"cover of {len(got)} communities differs from the thresholded fit "
            f"({len(want)} communities)"]


def check_edge_prob_bound(F):
    """Every pair inside a detected community connects with probability >= 1/n."""
    F = np.asarray(F)
    n = F.shape[0]
    delta = default_delta(n)
    failures = []
    for c in range(F.shape[1]):
        strengths = np.sort(F[F[:, c] >= delta, c])
        if len(strengths) >= 2:
            p_min = -math.expm1(-float(strengths[0] * strengths[1]))
            if p_min < 1.0 / n - 1e-12:
                failures.append(f"community {c}: weakest pair probability {p_min!r} < 1/{n}")
    return failures


def check_selection(chosen, scores):
    """The chosen count is the best held-out score, ties to the smaller count."""
    want = best_count(scores)
    if chosen == want:
        return []
    return [f"chose {chosen} communities, but the best held-out score is at {want}"]


def check_reserved(pairs, observed, present, width):
    """Each reserved pair's observed value says whether the data holds it.

    pairs and present are (a, b) rows with b < width: canonical node pairs
    (width n) or node-attribute cells (width K).
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    present = np.asarray(present, dtype=np.int64).reshape(-1, 2)
    want = np.isin(pairs[:, 0] * width + pairs[:, 1], present[:, 0] * width + present[:, 1])
    wrong = int((want != np.asarray(observed, dtype=bool)).sum())
    return [f"{wrong} reserved pairs carry the wrong observed value"] if wrong else []


def check_counts(manifest, num_nodes, num_edges, num_attrs):
    failures = []
    for key, want in (("num_nodes", num_nodes), ("num_edges", num_edges),
                      ("num_attrs", num_attrs)):
        if int(manifest.get(key, -1)) != want:
            failures.append(f"manifest {key} {manifest.get(key)!r}, generated {want}")
    return failures


def read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t", 1) for line in fh if line.strip())


def read_cover(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(int(tok) for tok in line.split("\t")) for line in fh if line.strip()]


def write_pairs(path, pairs, header=None):
    """Write an edge or attribute file: one u<TAB>v line per pair."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(f"#{header[0]}\t{header[1]}\n")
        fh.write("".join(f"{a}\t{b}\n" for a, b in np.asarray(pairs).tolist()))
