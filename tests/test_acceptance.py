"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them). The slow entries are the
planted-recovery family (4, 5, 6, 10) and the scaling measurement (7)."""

import math
import time

import numpy as np
import pytest

import attricom as ac
from attricom.cli import main as cli_main
from attricom.fileio import write_attr_file, write_edge_file

from oracles import (central_difference, f1_similarity, jaccard_similarity,
                     naive_grad_node, naive_log_lik_attr, naive_log_lik_graph,
                     naive_match_score, random_instance)

pytestmark = pytest.mark.slow

# Planted family shared by criteria 4, 5, 9 and 10: strength 1.0 puts the
# single-shared-community edge probability at 1 - e^-1 = 0.63 >= 0.5, and
# weight_scale 5 with bias -2 puts member attribute probability at
# sigma(3) = 0.95 >= 0.9 (non-members at sigma(-2) = 0.12).
PLANT = dict(n=400, c=4, k=16, membership_prob=0.25, strength=1.0,
             weight_scale=5.0, bias=-2.0)

# Identical fits per size timed by criterion 7.
SCALING_FITS = 4

# Fit outputs stashed by criteria 4 and 5 so criterion 9 can check them
# without refitting.
_FIT_OUTPUTS: list[tuple[ac.AffiliationMatrix, int]] = []


def _report(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")


def _planted_fit(seed, alpha, gamma=0.0):
    spec = ac.PlantedSpec(seed=seed, **PLANT)
    graph, truth, _, _ = ac.planted_instance(spec)
    if gamma > 0.0:
        graph = ac.remove_edges(graph, gamma, seed=seed + 1000)
    config = ac.FitConfig(alpha=alpha, lam=1.0, max_outer_iters=150, rng_seed=seed)
    result = ac.fit(graph, PLANT["c"], config)
    cover = ac.threshold_memberships(result.F)
    score = (ac.match_score(truth, cover, ac.SimilarityKind.F1)
             if len(cover) else 0.0)
    _FIT_OUTPUTS.append((result.F, graph.num_nodes))
    return score


def test_01_gradient_correctness():
    """grad_node and grad_attr_weights vs central finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for _ in range(100):
        G, F, W = random_instance(rng, max_n=20, max_c=4, max_k=6)
        alpha = float(rng.choice([0.25, 0.5, 0.75]))
        config = ac.FitConfig(alpha=alpha)
        u = int(rng.integers(G.num_nodes))

        def node_objective(row, u=u, G=G, F=F, W=W, alpha=alpha, config=config):
            F2 = ac.AffiliationMatrix(F.values)
            F2.values[u] = row
            F2.column_sums = F2.values.sum(axis=0)
            return ((1 - alpha) * naive_log_lik_graph(G, F2, config.min_dot_guard)
                    + alpha * naive_log_lik_attr(G, F2, W))

        grad = ac.grad_node(u, G, F, W, config)
        fd = central_difference(node_objective, F.values[u], h=1e-6)
        for i in range(len(grad)):
            if abs(grad[i]) > 1e-6:
                err = abs(grad[i] - fd[i]) / max(abs(grad[i]), abs(fd[i]))
                worst = max(worst, err)
                assert err < 1e-4
                checked += 1

        if G.num_attrs:
            k = int(rng.integers(G.num_attrs))

            def attr_objective(wk, k=k, G=G, F=F, W=W):
                W2 = ac.AttributeWeights(W.values)
                W2.values[k] = wk
                return naive_log_lik_attr(G, F, W2)

            grad_w = ac.grad_attr_weights(k, G, F, W)
            fd_w = central_difference(attr_objective, W.values[k], h=1e-6)
            for i in range(len(grad_w)):
                if abs(grad_w[i]) > 1e-6:
                    err = abs(grad_w[i] - fd_w[i]) / max(abs(grad_w[i]), abs(fd_w[i]))
                    worst = max(worst, err)
                    assert err < 1e-4
                    checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and checked > 100
    _report(1, "gradient-vs-finite-differences", ok,
            f"({checked} components, worst rel err {worst:.2e}, {elapsed:.1f}s)")
    assert ok


def test_02_oracle_equivalence():
    """Column-sum-trick likelihood and gradient vs naive all-pairs loops."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    config = ac.FitConfig(alpha=0.5)
    worst = 0.0
    for _ in range(100):
        G, F, W = random_instance(rng, max_n=30, max_c=4, max_k=4)
        fast_ll = ac.log_lik_graph(G, F)
        slow_ll = naive_log_lik_graph(G, F)
        worst = max(worst, abs(fast_ll - slow_ll))
        assert abs(fast_ll - slow_ll) < 1e-9
        for u in range(0, G.num_nodes, 3):
            fast_g = ac.grad_node(u, G, F, W, config)
            slow_g = naive_grad_node(u, G, F, W, 0.5, config.min_dot_guard)
            worst = max(worst, float(np.abs(fast_g - slow_g).max()))
            assert np.allclose(fast_g, slow_g, atol=1e-9)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(2, "fast-vs-naive-equivalence", ok,
            f"(worst abs diff {worst:.2e}, {elapsed:.1f}s)")
    assert ok


def test_03_monotone_ascent():
    start = time.perf_counter()
    violations = 0
    for seed in range(20):
        spec = ac.PlantedSpec(n=60, c=3, k=8, membership_prob=0.3, strength=1.2,
                              weight_scale=3.0, bias=-1.0, seed=seed)
        graph, _, _, _ = ac.planted_instance(spec)
        config = ac.FitConfig(alpha=0.5, lam=1.0, max_outer_iters=50,
                              rel_improvement_tol=0.0, rng_seed=seed)
        result = ac.fit(graph, 3, config)
        totals = [o.scaled_total for o in result.objective_trace]
        # rel_improvement_tol=0 stops at the first step that does not improve,
        # so a rounding-level dip within the 1e-9 allowed below may end the fit
        # early; any larger dip is still counted as a violation.
        if result.iterations_run < 50:
            assert result.converged and totals[-1] - totals[-2] >= -1e-9
        for a, b in zip(totals, totals[1:]):
            if b < a - 1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _report(3, "monotone-ascent", ok, f"(0 required, {violations} violations, {elapsed:.1f}s)")
    assert ok


def test_04_planted_recovery():
    start = time.perf_counter()
    scores = [_planted_fit(seed, alpha=0.5) for seed in range(20)]
    mean = float(np.mean(scores))
    elapsed = time.perf_counter() - start
    ok = mean >= 0.80 and elapsed < 300.0
    _report(4, "planted-recovery", ok,
            f"(mean F1 {mean:.3f} over 20 seeds, min {min(scores):.3f}, {elapsed:.0f}s)")
    assert ok


def test_05_attribute_robustness():
    start = time.perf_counter()
    mean = {}
    for gamma in (0.0, 0.6):
        for alpha in (0.0, 0.5):
            mean[(gamma, alpha)] = float(np.mean(
                [_planted_fit(seed, alpha=alpha, gamma=gamma) for seed in range(20)]))
    gain_clean = ac.relative_gain(mean[(0.0, 0.5)], mean[(0.0, 0.0)])
    gain_damaged = ac.relative_gain(mean[(0.6, 0.5)], mean[(0.6, 0.0)])
    elapsed = time.perf_counter() - start
    ok = (mean[(0.6, 0.5)] > mean[(0.6, 0.0)]
          and gain_damaged > gain_clean
          and elapsed < 600.0)
    _report(5, "attribute-robustness", ok,
            f"(F1 at gamma=0.6: {mean[(0.6, 0.5)]:.3f} with attrs vs "
            f"{mean[(0.6, 0.0)]:.3f} without; gains {gain_damaged:.3f} > "
            f"{gain_clean:.3f}, {elapsed:.0f}s)")
    assert ok


def test_06_model_selection():
    start = time.perf_counter()
    hits = 0
    for seed in range(20):
        spec = ac.PlantedSpec(n=300, c=4, k=16, membership_prob=0.25,
                              strength=1.0, weight_scale=5.0, bias=-2.0, seed=seed)
        graph, _, _, _ = ac.planted_instance(spec)
        config = ac.FitConfig(alpha=0.5, lam=1.0, max_outer_iters=100, rng_seed=seed)
        best, _ = ac.choose_num_communities(graph, [2, 4, 8], config)
        hits += int(best == 4)
    elapsed = time.perf_counter() - start
    ok = hits >= 12 and elapsed < 600.0
    _report(6, "model-selection", ok, f"({hits}/20 picked C=4, {elapsed:.0f}s)")
    assert ok


def test_07_near_linear_scaling():
    start = time.perf_counter()
    sizes = (10_000, 30_000, 100_000)
    measured = []
    for n in sizes:
        graph = ac.forest_fire(ac.ForestFireParams(n=n, seed=7))
        graph = ac.bernoulli_attributes(graph, 10, 0.5, seed=8)
        work = graph.num_edges + graph.num_nodes * graph.num_attrs
        config = ac.FitConfig(alpha=0.5, lam=1.0, max_outer_iters=3,
                              rel_improvement_tol=0.0, rng_seed=0)
        # Only full passes update every node; a shrunk pass would time the
        # attribute pass and the objective instead of the node pass. One fit
        # has two full passes, too few for a minimum that is steady on a
        # shared machine, so the identical fit is run SCALING_FITS times.
        full = []
        for _ in range(SCALING_FITS):
            result = ac.fit(graph, 10, config)
            full += [t for t, k in zip(result.iter_seconds, result.nodes_updated)
                     if k == graph.num_nodes]
        measured.append((n, work, min(full)))
    ok = True
    details = []
    for (n1, w1, t1), (n2, w2, t2) in zip(measured, measured[1:]):
        time_growth = t2 / t1
        work_growth = w2 / w1
        details.append(f"{n1}->{n2}: time x{time_growth:.2f} vs work x{work_growth:.2f}")
        if time_growth > 1.5 * work_growth:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1800.0
    _report(7, "near-linear-scaling", ok, f"({'; '.join(details)}, {elapsed:.0f}s)")
    assert ok


def test_08_metric_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(200):
        covers = []
        for _ in range(2):
            count = int(rng.integers(1, 6))
            comms = []
            for _ in range(count):
                size = int(rng.integers(1, 15))
                comms.append(set(int(x) for x in rng.choice(20, size=size, replace=False)))
            covers.append(ac.CommunityCover(comms, 20))
        a, b = covers
        for kind, sim in ((ac.SimilarityKind.F1, f1_similarity),
                          (ac.SimilarityKind.JACCARD, jaccard_similarity)):
            got = ac.match_score(a, b, kind)
            want = naive_match_score(list(a), list(b), sim)
            worst = max(worst, abs(got - want))
            assert abs(got - want) <= 1e-12
    truth = ac.CommunityCover([{1, 2, 3}], 4)
    detected = ac.CommunityCover([{1, 2}], 4)
    exact = ac.match_score(truth, detected, ac.SimilarityKind.F1)
    assert exact == 0.8
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(8, "metric-vs-brute-force", ok,
            f"(400 cover pairs, worst diff {worst:.1e}, hand value {exact}, {elapsed:.1f}s)")
    assert ok


def test_09_threshold_property():
    outputs = _FIT_OUTPUTS if _FIT_OUTPUTS else None
    if outputs is None:
        # criteria 4/5 did not run in this session; produce one fit to check
        _planted_fit(0, alpha=0.5)
        outputs = _FIT_OUTPUTS
    checked = 0
    for F, n in outputs:
        delta = ac.default_threshold(n)
        member = F.values >= delta
        floor = 1.0 / n - 1e-12
        for c in range(F.num_communities):
            ids = np.flatnonzero(member[:, c])
            if len(ids) < 2:
                continue
            strengths = F.values[ids, c]
            # the weakest pair in the community bounds all others
            weakest = np.partition(strengths, 1)[:2]
            p_min = -math.expm1(-float(weakest[0] * weakest[1]))
            assert p_min >= floor
            checked += 1
    _report(9, "threshold-edge-probability", True,
            f"({checked} communities over {len(outputs)} fits)")


def test_10_determinism():
    start = time.perf_counter()
    spec = ac.PlantedSpec(seed=0, **PLANT)
    graph, _, _, _ = ac.planted_instance(spec)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        edges, attrs = tmp / "edges.tsv", tmp / "attrs.tsv"
        write_edge_file(edges, graph)
        write_attr_file(attrs, graph)
        payload = {}
        for run in ("a", "b"):
            rc = cli_main(["detect", "-i", str(edges), "-a", str(attrs),
                           "-c", "4", "--alpha", "0.5", "--lambda", "1.0",
                           "--seed", "7",
                           "-o", str(tmp / run)])
            assert rc == 0
            payload[run] = ((tmp / f"{run}.communities.tsv").read_bytes(),
                            (tmp / f"{run}.weights.tsv").read_bytes())
    identical = payload["a"] == payload["b"]
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 300.0
    _report(10, "pipeline-determinism", ok,
            f"(community and weights files byte-identical: {identical}, {elapsed:.0f}s)")
    assert ok
