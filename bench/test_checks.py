"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python3 -m pytest -q bench

Each check passes on a correct small instance fitted by the package and
catches one deliberately wrong output.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import attricom as ac  # noqa: E402
import attricom.cli  # noqa: E402,F401

import checks  # noqa: E402
import tracer  # noqa: E402

GUARD = ac.FitConfig().min_dot_guard


def naive_objective(n, edges, attr_pairs, k, F, W, alpha, lam, guard):
    """All node pairs and all node-attribute cells, one at a time."""
    edge_set = {tuple(e) for e in edges}
    attr_set = {tuple(p) for p in attr_pairs}
    graph = 0.0
    for u, v in itertools.combinations(range(n), 2):
        dot = float(F[u] @ F[v])
        graph += math.log(-math.expm1(-max(dot, guard))) if (u, v) in edge_set else -dot
    attrs = 0.0
    for u in range(n):
        for a in range(k):
            q = 1.0 / (1.0 + math.exp(-(float(W[a, :-1] @ F[u]) + W[a, -1])))
            q = min(max(q, 1e-12), 1.0 - 1e-12)
            attrs += math.log(q) if (u, a) in attr_set else math.log(1.0 - q)
    l1 = lam * sum(abs(x) for x in W[:, :-1].ravel())
    return (1.0 - alpha) * graph + alpha * attrs - l1


def random_instance(seed, n=25, c=3, k=4):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.2]
    attrs = np.argwhere(rng.random((n, k)) < 0.3)
    F = rng.random((n, c)) * (rng.random((n, c)) < 0.6)
    W = rng.normal(size=(k, c + 1))
    return np.array(pairs), attrs, F, W


@pytest.fixture(scope="module")
def fitted():
    spec = ac.PlantedSpec(n=60, c=3, k=8, membership_prob=0.3, strength=1.2,
                          weight_scale=3.0, bias=-1.0, seed=5)
    graph, _, _, _ = ac.planted_instance(spec)
    config = ac.FitConfig(alpha=0.5, lam=1.0, max_outer_iters=30, rng_seed=5)
    return graph, config, ac.fit(graph, 3, config)


@pytest.mark.parametrize("seed", range(3))
def test_objective_matches_naive_all_pairs_loop(seed):
    edges, attrs, F, W = random_instance(seed)
    got = checks.objective(len(F), edges, attrs, W.shape[0], F, W, 0.3, 0.7, GUARD)
    want = naive_objective(len(F), edges, attrs, W.shape[0], F, W, 0.3, 0.7, GUARD)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-9)


def test_holdout_score_matches_naive_loop():
    edges, attrs, F, W = random_instance(7)
    edge_set, attr_set = {tuple(e) for e in edges}, {tuple(p) for p in attrs}
    pairs = [(0, 1), (2, 9), (3, 4), (5, 20)]
    cells = [(0, 0), (4, 3), (7, 1)]
    pair_obs = [p in edge_set for p in pairs]
    cell_obs = [p in attr_set for p in cells]
    want = 0.0
    for (u, v), obs in zip(pairs, pair_obs):
        dot = float(F[u] @ F[v])
        want += 0.6 * (math.log(-math.expm1(-max(dot, GUARD))) if obs else -dot)
    for (u, a), obs in zip(cells, cell_obs):
        q = 1.0 / (1.0 + math.exp(-(float(W[a, :-1] @ F[u]) + W[a, -1])))
        want += 0.4 * math.log(q if obs else 1.0 - q)
    got = checks.holdout_score(F, W, pairs, pair_obs, cells, cell_obs, 0.4, GUARD)
    assert got == pytest.approx(want, rel=1e-12)


def test_fit_checks_pass_on_a_correct_fit(fitted):
    graph, config, result = fitted
    F, W = result.F.values, result.W.values
    totals = [o.scaled_total for o in result.objective_trace]
    recomputed = checks.objective(graph.num_nodes, graph.edges, graph.attr_pairs,
                                  graph.num_attrs, F, W, 0.5, 1.0, config.min_dot_guard)
    cover = [tuple(sorted(c)) for c in ac.threshold_memberships(result.F)]
    assert checks.check_trace(totals) == []
    assert checks.check_objective(totals[-1], recomputed) == []
    assert checks.check_edge_prob_bound(F) == []
    assert checks.check_cover(cover, F) == []


def test_perturbed_membership_row_is_caught(fitted):
    graph, config, result = fitted
    F = result.F.values.copy()
    F[7] += 0.05
    recomputed = checks.objective(graph.num_nodes, graph.edges, graph.attr_pairs,
                                  graph.num_attrs, F, result.W.values, 0.5, 1.0,
                                  config.min_dot_guard)
    assert checks.check_objective(result.objective_trace[-1].scaled_total, recomputed)


def test_cover_with_a_member_dropped_is_caught(fitted):
    _, _, result = fitted
    cover = [tuple(sorted(c)) for c in ac.threshold_memberships(result.F)]
    cover[0] = cover[0][1:]
    assert checks.check_cover(cover, result.F.values)


def test_dip_in_objective_trace_is_caught():
    assert checks.check_trace([-10.0, -5.0, -5.0 - 1e-10, -4.0]) == []
    assert checks.check_trace([-10.0, -5.0, -5.1, -4.0])


def test_selection_must_take_the_best_score_ties_to_smaller():
    scores = {2: -1075.3, 4: -691.9, 8: -762.9}
    assert checks.check_selection(4, scores) == []
    assert checks.check_selection(8, scores)
    assert checks.check_selection(2, {2: -5.0, 4: -5.0}) == []
    assert checks.check_selection(4, {2: -5.0, 4: -5.0})


def test_holdout_recomputation_matches_package_on_masked_fit():
    spec = ac.PlantedSpec(n=50, c=2, k=6, seed=3)
    graph, _, _, _ = ac.planted_instance(spec)
    config = ac.FitConfig(alpha=0.5, max_outer_iters=20, rng_seed=3)
    mask = ac.make_holdout(graph, 0.1, seed=3)
    result = ac.fit(graph, 2, config, mask=mask)
    pairs = np.column_stack([mask.pair_u, mask.pair_v])
    cells = np.column_stack([mask.attr_u, mask.attr_k])
    want = ac.holdout_loglik(graph, result.F, result.W, mask, config)
    got = checks.holdout_score(result.F.values, result.W.values, pairs, mask.pair_obs,
                               cells, mask.attr_obs, 0.5, config.min_dot_guard)
    assert got == pytest.approx(want, rel=1e-9)
    assert checks.check_reserved(pairs, mask.pair_obs, graph.edges, graph.num_nodes) == []
    flipped = mask.pair_obs.copy()
    flipped[0] ^= 1
    assert checks.check_reserved(pairs, flipped, graph.edges, graph.num_nodes)


def test_manifest_counts_and_file_round_trip(tmp_path):
    edges = np.array([[0, 1], [1, 2], [0, 3]])
    checks.write_pairs(tmp_path / "e.tsv", edges)
    checks.write_pairs(tmp_path / "a.tsv", [[0, 1], [3, 0]], header=(4, 2))
    rc = ac.cli.main(["detect", "-i", str(tmp_path / "e.tsv"), "-a", str(tmp_path / "a.tsv"),
                      "-c", "1", "--max-iters", "2", "-o", str(tmp_path / "out")])
    assert rc == 0
    manifest = checks.read_manifest(tmp_path / "out.manifest.tsv")
    assert checks.check_counts(manifest, 4, 3, 2) == []
    assert checks.check_counts(manifest, 4, 4, 2)
    assert all(isinstance(c, tuple) for c in checks.read_cover(tmp_path / "out.communities.tsv"))


def test_best_match_f1():
    assert checks.best_match_f1([(0, 1, 2)], [(0, 1, 2)]) == 1.0
    # truth side 2*2/5 = 0.8, detected side 0.8
    assert checks.best_match_f1([(0, 1, 2)], [(0, 1)]) == pytest.approx(0.8)
    assert checks.best_match_f1([(0, 1)], []) == 0.0


def test_tracer_counts_spans_and_restores_originals(fitted):
    graph, config, _ = fitted
    original = ac.solver.update_node
    spans = tracer.Tracer()
    spans.install()
    try:
        result = ac.fit(graph, 3, config)
    finally:
        spans.restore()
    assert ac.solver.update_node is original
    assert spans.absent == [] and not spans.broken
    m = spans.metrics()
    assert m["solver.node_updates"] == graph.num_nodes * result.iterations_run
    assert m["solver.iterations"] == result.iterations_run
    assert m["likelihood.objective_calls"] == result.iterations_run + 1
    assert 0.0 < m["solver.rows_moved_ratio"] <= 1.0
    assert m["solver.self_s"] >= 0.0 and m["seeding.init_self_s"] >= 0.0


def test_missing_target_is_skipped():
    patches = tracer.Patches()
    assert not patches.wrap("attricom.solver", "no_such_function", lambda fn: fn)
    patches.restore()


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.UNITS.items())
