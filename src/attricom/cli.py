"""Command line surface: detect, eval, gen, robustness.

Standard output carries only the requested result; logs go to standard
error. Exit codes: 0 success, 2 usage or parse error, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

import numpy as np

from .core import (AttributedGraph, CommunityCover, FitConfig, GraphBuildError,
                   build_graph)
from .evaluation import SimilarityKind, match_score
from .fileio import (FileFormatError, read_attr_file, read_community_file,
                     read_edge_file, sha256_file, write_attr_file,
                     write_community_file, write_edge_file, write_manifest,
                     write_weights_file)
from .selection import choose_num_communities
from .solver import default_threshold, fit, threshold_memberships
from .synthetic import (ForestFireParams, PlantedSpec, forest_fire,
                        planted_instance, remove_edges)

# detect -c auto flags the best two held-out scores as a near-tie when they
# lie within this distance, relative to the best one.
NEAR_TIE_RTOL = 1e-4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list: {text!r}")


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.5,
                   help="attribute likelihood weight in [0, 1] (default 0.5)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="l1 strength on non-bias attribute weights (default 1.0)")
    p.add_argument("--max-iters", type=int, default=1000,
                   help="outer iteration cap (default 1000)")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative objective improvement to keep iterating (default 1e-5)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _config_from(args) -> FitConfig:
    return FitConfig(alpha=args.alpha, lam=args.lam, max_outer_iters=args.max_iters,
                     rel_improvement_tol=args.tol, rng_seed=args.seed)


def _add_planted_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--membership-prob", type=float, default=0.25)
    p.add_argument("--strength", type=float, default=1.0)
    p.add_argument("--weight-scale", type=float, default=5.0)
    p.add_argument("--bias", type=float, default=-2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attricom",
        description="Overlapping community detection in networks with binary node attributes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="fit the model and write detected communities")
    p.add_argument("-i", "--edges", required=True, help="edge file, one u<TAB>v per line")
    p.add_argument("-a", "--attrs", default=None,
                   help="attribute file, one u<TAB>k per line (optional)")
    p.add_argument("-c", "--communities", required=True,
                   help="community count, or 'auto' for held-out selection")
    p.add_argument("--candidates", type=_int_list, default=[2, 4, 8, 16, 32],
                   help="distinct candidate counts for -c auto (default 2,4,8,16,32)")
    p.add_argument("--delta", type=float, default=None,
                   help="membership threshold override (default sqrt(-log(1-1/N)))")
    _add_fit_flags(p)
    p.add_argument("-o", "--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a detected cover against ground truth")
    p.add_argument("truth", help="ground-truth community file")
    p.add_argument("detected", help="detected community file")
    p.add_argument("--metric", choices=["f1", "jaccard"], default="f1")
    p.add_argument("-o", "--out", default=None, help="optional manifest path prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate synthetic instances")
    gen_sub = p.add_subparsers(dest="generator", required=True)

    g = gen_sub.add_parser("forest-fire", help="forest-fire graph, no attributes")
    g.add_argument("--n", type=int, required=True, help="node count")
    g.add_argument("--p-forward", type=float, default=0.36)
    g.add_argument("--p-backward", type=float, default=0.32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True, help="output path prefix")
    g.set_defaults(func=cmd_gen_forest_fire)

    g = gen_sub.add_parser("planted", help="instance sampled from the generative model")
    g.add_argument("--n", type=int, required=True, help="node count")
    g.add_argument("--communities", type=int, required=True, help="planted community count")
    g.add_argument("--attrs", type=int, required=True, help="attribute count")
    _add_planted_flags(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True, help="output path prefix")
    g.set_defaults(func=cmd_gen_planted)

    p = sub.add_parser("robustness",
                       help="mean F1 per (edge-removal fraction, alpha) on planted data")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--communities", type=int, default=4)
    p.add_argument("--attrs", type=int, default=16)
    _add_planted_flags(p)
    p.add_argument("--gammas", type=_float_list, default=[0.0, 0.6],
                   help="edge-removal fractions (default 0,0.6)")
    p.add_argument("--alphas", type=_float_list, default=[0.0, 0.5],
                   help="alpha values to fit at (default 0,0.5)")
    p.add_argument("--seeds", type=int, default=20, help="number of instance seeds")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=150)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("-o", "--out", default=None,
                   help="output path prefix (default: table to stdout)")
    p.set_defaults(func=cmd_robustness)

    return parser


def _load_graph(edge_path, attr_path) -> AttributedGraph:
    edges = read_edge_file(edge_path)
    attrs, dims = (read_attr_file(attr_path) if attr_path
                   else (np.empty((0, 2), dtype=np.int64), None))
    if dims is not None:
        n, k = dims
    else:
        n = int(max(edges.max(initial=-1), attrs[:, 0].max(initial=-1))) + 1
        k = int(attrs[:, 1].max(initial=-1)) + 1
    graph = build_graph(edges, attrs, n, k)
    d = graph.diagnostics
    if d.self_loops_dropped or d.duplicate_edges_dropped or d.duplicate_attrs_dropped:
        _log(f"attricom: dropped {d.self_loops_dropped} self-loops, "
             f"{d.duplicate_edges_dropped} duplicate edges, "
             f"{d.duplicate_attrs_dropped} duplicate attribute pairs")
    return graph


def cmd_detect(args) -> int:
    t0 = time.perf_counter()
    graph = _load_graph(args.edges, args.attrs)
    t_load = time.perf_counter() - t0
    _log(f"attricom: detect on N={graph.num_nodes} |E|={graph.num_edges} "
         f"K={graph.num_attrs}")

    config = _config_from(args)
    delta = default_threshold(graph.num_nodes, args.delta)  # checked before any fit
    manifest: dict[str, object] = {
        "command": "detect",
        "edges_file": args.edges,
        "edges_sha256": sha256_file(args.edges),
        "attrs_file": args.attrs or "-",
        "attrs_sha256": sha256_file(args.attrs) if args.attrs else "-",
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_attrs": graph.num_attrs,
        "alpha": config.alpha,
        "lambda": config.lam,
        "attr_term": "excluded (alpha=0)" if config.alpha == 0.0 else "included",
        "tol": config.rel_improvement_tol,
        "max_iters": config.max_outer_iters,
        "seed": config.rng_seed,
    }

    t0 = time.perf_counter()
    if args.communities == "auto":
        best, scores = choose_num_communities(graph, args.candidates, config)
        manifest["communities_mode"] = "auto"
        manifest["candidates"] = ",".join(str(c) for c, _ in scores)
        for c, score in scores:
            manifest[f"holdout_score_{c}"] = repr(score)
        ranked = sorted(scores, key=lambda cs: (-cs[1], cs[0]))
        if len(ranked) > 1 and (ranked[0][1] - ranked[1][1]
                                <= NEAR_TIE_RTOL * abs(ranked[0][1])):
            # Scores this close are decided by the fit's rounding, not the model.
            _log(f"attricom: note: held-out scores of C={ranked[0][0]} and "
                 f"C={ranked[1][0]} are within {NEAR_TIE_RTOL:g} relative")
            manifest["holdout_near_tie"] = f"{ranked[0][0]},{ranked[1][0]}"
        num_communities = best
    else:
        try:
            num_communities = int(args.communities)
        except ValueError:
            raise ValueError(f"-c expects an integer or 'auto', got {args.communities!r}")
        if num_communities < 1:
            raise ValueError("-c must be >= 1")
        manifest["communities_mode"] = "fixed"
    result = fit(graph, num_communities, config)
    t_fit = time.perf_counter() - t0

    cover = threshold_memberships(result.F, delta=delta)

    t0 = time.perf_counter()
    communities_path = f"{args.out}.communities.tsv"
    weights_path = f"{args.out}.weights.tsv"
    manifest_path = f"{args.out}.manifest.tsv"
    write_community_file(communities_path, cover)
    write_weights_file(weights_path, result.W)
    t_write = time.perf_counter() - t0

    final = result.objective_trace[-1]
    manifest.update({
        "communities": num_communities,
        "delta": f"{delta:.9g}",
        "iterations": result.iterations_run,
        "converged": str(result.converged).lower(),
        "communities_detected": len(cover),
        "objective_graph": f"{final.l_graph:.9g}",
        "objective_attr": f"{final.l_attr:.9g}",
        "objective_l1": f"{final.l1_penalty:.9g}",
        "objective_scaled": f"{final.scaled_total:.9g}",
        "out_communities": communities_path,
        "out_weights": weights_path,
        "time_load_s": f"{t_load:.3f}",
        "time_fit_s": f"{t_fit:.3f}",
        "time_write_s": f"{t_write:.3f}",
    })
    write_manifest(manifest_path, manifest)
    _log(f"attricom: wrote {communities_path} ({len(cover)} communities), "
         f"{weights_path}, {manifest_path}")
    return 0


def _cover_from_file(path) -> CommunityCover:
    rows = read_community_file(path)
    if not rows:
        raise ValueError(f"{path}: no communities found")
    universe = max(max(r) for r in rows) + 1
    return CommunityCover(rows, universe)


def cmd_eval(args) -> int:
    truth = _cover_from_file(args.truth)
    detected = _cover_from_file(args.detected)
    universe = max(truth.universe, detected.universe)
    truth = CommunityCover(truth.communities, universe)
    detected = CommunityCover(detected.communities, universe)
    kind = SimilarityKind.F1 if args.metric == "f1" else SimilarityKind.JACCARD
    score = match_score(truth, detected, kind)
    print(f"{score:.6f}")
    if args.out:
        write_manifest(f"{args.out}.manifest.tsv", {
            "command": "eval",
            "truth_file": args.truth,
            "truth_sha256": sha256_file(args.truth),
            "detected_file": args.detected,
            "detected_sha256": sha256_file(args.detected),
            "metric": args.metric,
            "score": f"{score:.6f}",
        })
    return 0


def cmd_gen_forest_fire(args) -> int:
    t0 = time.perf_counter()
    graph = forest_fire(ForestFireParams(n=args.n, p_forward=args.p_forward,
                                         p_backward=args.p_backward, seed=args.seed))
    edges_path = f"{args.out}.edges.tsv"
    write_edge_file(edges_path, graph)
    write_manifest(f"{args.out}.manifest.tsv", {
        "command": "gen forest-fire",
        "n": args.n,
        "p_forward": args.p_forward,
        "p_backward": args.p_backward,
        "seed": args.seed,
        "num_edges": graph.num_edges,
        "out_edges": edges_path,
        "time_total_s": f"{time.perf_counter() - t0:.3f}",
    })
    _log(f"attricom: wrote {edges_path} ({graph.num_edges} edges)")
    return 0


def cmd_gen_planted(args) -> int:
    t0 = time.perf_counter()
    spec = PlantedSpec(n=args.n, c=args.communities, k=args.attrs,
                       membership_prob=args.membership_prob, strength=args.strength,
                       weight_scale=args.weight_scale, bias=args.bias, seed=args.seed)
    graph, truth, _, _ = planted_instance(spec)
    edges_path = f"{args.out}.edges.tsv"
    attrs_path = f"{args.out}.attrs.tsv"
    truth_path = f"{args.out}.truth.tsv"
    write_edge_file(edges_path, graph)
    write_attr_file(attrs_path, graph)
    write_community_file(truth_path, truth)
    write_manifest(f"{args.out}.manifest.tsv", {
        "command": "gen planted",
        "n": spec.n,
        "communities": spec.c,
        "attrs": spec.k,
        "membership_prob": spec.membership_prob,
        "strength": spec.strength,
        "weight_scale": spec.weight_scale,
        "bias": spec.bias,
        "seed": spec.seed,
        "num_edges": graph.num_edges,
        "num_attr_pairs": len(graph.attr_pairs),
        "truth_communities": len(truth),
        "out_edges": edges_path,
        "out_attrs": attrs_path,
        "out_truth": truth_path,
        "time_total_s": f"{time.perf_counter() - t0:.3f}",
    })
    _log(f"attricom: wrote {edges_path}, {attrs_path}, {truth_path}")
    return 0


def cmd_robustness(args) -> int:
    for gamma in args.gammas:
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1): {gamma}")
    for alpha in args.alphas:
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1]: {alpha}")
    if args.seeds < 1:
        raise ValueError("--seeds must be >= 1")

    t0 = time.perf_counter()
    scores: dict[tuple[float, float], list[float]] = {
        (g, a): [] for g in args.gammas for a in args.alphas}
    for s in range(args.seeds):
        instance_seed = args.seed + s
        spec = PlantedSpec(n=args.n, c=args.communities, k=args.attrs,
                           membership_prob=args.membership_prob,
                           strength=args.strength, weight_scale=args.weight_scale,
                           bias=args.bias, seed=instance_seed)
        graph, truth, _, _ = planted_instance(spec)
        for gamma in args.gammas:
            damaged = remove_edges(graph, gamma, seed=instance_seed + 1_000_003)
            for alpha in args.alphas:
                config = FitConfig(alpha=alpha, lam=args.lam,
                                   max_outer_iters=args.max_iters,
                                   rel_improvement_tol=args.tol,
                                   rng_seed=instance_seed)
                result = fit(damaged, args.communities, config)
                cover = threshold_memberships(result.F)
                score = (match_score(truth, cover, SimilarityKind.F1)
                         if len(cover) else 0.0)
                scores[(gamma, alpha)].append(score)
        _log(f"attricom: robustness seed {s + 1}/{args.seeds} done")

    lines = ["gamma\talpha\tmean_f1\tstd_f1\tseeds"]
    for gamma in args.gammas:
        for alpha in args.alphas:
            vals = np.array(scores[(gamma, alpha)])
            lines.append(f"{gamma:g}\t{alpha:g}\t{vals.mean():.6f}\t"
                         f"{vals.std():.6f}\t{len(vals)}")
    table = "\n".join(lines) + "\n"

    if args.out:
        table_path = f"{args.out}.robustness.tsv"
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(table)
        write_manifest(f"{args.out}.manifest.tsv", {
            "command": "robustness",
            "n": args.n, "communities": args.communities, "attrs": args.attrs,
            "gammas": ",".join(f"{g:g}" for g in args.gammas),
            "alphas": ",".join(f"{a:g}" for a in args.alphas),
            "seeds": args.seeds, "base_seed": args.seed,
            "out_table": table_path,
            "time_total_s": f"{time.perf_counter() - t0:.3f}",
        })
        _log(f"attricom: wrote {table_path}")
    else:
        sys.stdout.write(table)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, GraphBuildError, ValueError, OSError) as exc:
        print(f"attricom: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
