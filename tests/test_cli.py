import numpy as np
import pytest

import attricom.cli as cli
import attricom.selection as selection
import attricom.solver as solver
from attricom.cli import build_parser, main
from attricom.fileio import read_manifest, write_community_file, write_edge_file
from attricom import (MIN_DOT_GUARD, CommunityCover, FitConfig, ForestFireParams,
                      PlantedSpec, build_graph, planted_instance)
from attricom.fileio import write_attr_file

TWO_CLIQUES = ([(u, v) for u in range(5) for v in range(u + 1, 5)]
               + [(u, v) for u in range(5, 10) for v in range(u + 1, 10)])


@pytest.fixture
def clique_edges(tmp_path):
    g = build_graph(TWO_CLIQUES, [], 10, 0)
    path = tmp_path / "edges.tsv"
    write_edge_file(path, g)
    return path


class TestDetect:
    def test_two_clique_toy(self, tmp_path, clique_edges):
        out = tmp_path / "run"
        rc = main(["detect", "-i", str(clique_edges), "-c", "2",
                   "--seed", "0", "-o", str(out)])
        assert rc == 0
        text = (tmp_path / "run.communities.tsv").read_text()
        assert text == "0\t1\t2\t3\t4\n5\t6\t7\t8\t9\n"
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert manifest["converged"] == "true"
        assert manifest["communities"] == "2"

    def test_alpha_zero_ablation(self, tmp_path):
        spec = PlantedSpec(n=60, c=2, k=4, seed=1)
        g, _, _, _ = planted_instance(spec)
        edges, attrs = tmp_path / "e.tsv", tmp_path / "a.tsv"
        write_edge_file(edges, g)
        write_attr_file(attrs, g)
        out = tmp_path / "run"
        rc = main(["detect", "-i", str(edges), "-a", str(attrs), "-c", "2",
                   "--alpha", "0", "-o", str(out)])
        assert rc == 0
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert manifest["attr_term"] == "excluded (alpha=0)"
        weights = (tmp_path / "run.weights.tsv").read_text().splitlines()
        assert len(weights) == 4
        for line in weights:
            assert [float(x) for x in line.split("\t")[1:]] == [0.0, 0.0, 0.0]

    def test_deterministic_byte_identical(self, tmp_path, clique_edges):
        for out in ("a", "b"):
            rc = main(["detect", "-i", str(clique_edges), "-c", "2",
                       "--seed", "7", "-o", str(tmp_path / out)])
            assert rc == 0
        for suffix in ("communities.tsv", "weights.tsv"):
            assert ((tmp_path / f"a.{suffix}").read_bytes()
                    == (tmp_path / f"b.{suffix}").read_bytes())

    def test_auto_selection_records_scores(self, tmp_path):
        spec = PlantedSpec(n=80, c=2, k=4, membership_prob=0.4, seed=2)
        g, _, _, _ = planted_instance(spec)
        edges = tmp_path / "e.tsv"
        write_edge_file(edges, g)
        out = tmp_path / "run"
        rc = main(["detect", "-i", str(edges), "-c", "auto",
                   "--candidates", "2,4", "--max-iters", "30", "-o", str(out)])
        assert rc == 0
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert manifest["communities_mode"] == "auto"
        assert "holdout_score_2" in manifest and "holdout_score_4" in manifest
        assert manifest["communities"] in {"2", "4"}

    def test_auto_scores_printed_in_full(self, tmp_path, clique_edges, monkeypatch):
        # At 9 significant digits both scores print as -1.
        scores = [(2, -1.0000000001), (4, -1.00000000001)]
        monkeypatch.setattr("attricom.cli.choose_num_communities",
                            lambda graph, candidates, config: (4, scores))
        rc = main(["detect", "-i", str(clique_edges), "-c", "auto",
                   "--candidates", "2,4", "-o", str(tmp_path / "run")])
        assert rc == 0
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert float(manifest["holdout_score_2"]) == -1.0000000001
        assert float(manifest["holdout_score_4"]) == -1.00000000001

    @pytest.mark.parametrize("scores, tie", [
        ([(2, -1000.05), (4, -1000.0), (8, -1200.0)], "4,2"),
        ([(2, -1000.0), (4, -1000.0)], "2,4"),
        ([(2, -1000.0), (4, -1000.2), (8, -1000.3)], None),
        ([(4, -1000.0)], None),
    ])
    def test_auto_near_tie_flagged(self, tmp_path, clique_edges, monkeypatch, capsys,
                                   scores, tie):
        best = min(scores, key=lambda cs: (-cs[1], cs[0]))[0]
        monkeypatch.setattr("attricom.cli.choose_num_communities",
                            lambda graph, candidates, config: (best, scores))
        rc = main(["detect", "-i", str(clique_edges), "-c", "auto",
                   "--candidates", ",".join(str(c) for c, _ in scores),
                   "-o", str(tmp_path / "run")])
        assert rc == 0
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert manifest.get("holdout_near_tie") == tie
        assert ("within 0.0001 relative" in capsys.readouterr().err) == (tie is not None)

    def test_unparseable_line_exits_2(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\nnot an edge\n")
        rc = main(["detect", "-i", str(bad), "-c", "2", "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_comment_only_edge_file_exits_2(self, tmp_path, capsys):
        comments = tmp_path / "comments.tsv"
        comments.write_text("# no edges\n#\n")
        rc = main(["detect", "-i", str(comments), "-c", "2", "-o", str(tmp_path / "x")])
        assert rc == 2
        assert "at least one node" in capsys.readouterr().err

    def test_bad_community_count_exits_2(self, tmp_path, clique_edges):
        rc = main(["detect", "-i", str(clique_edges), "-c", "zero",
                   "-o", str(tmp_path / "x")])
        assert rc == 2

    def test_nonpositive_delta_exits_2(self, tmp_path, clique_edges, monkeypatch):
        # The threshold is checked before any fit, so a bad one costs none.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the threshold was checked")

        monkeypatch.setattr("attricom.cli.fit", no_fit)
        monkeypatch.setattr("attricom.cli.choose_num_communities", no_fit)
        for communities in ("2", "auto"):
            rc = main(["detect", "-i", str(clique_edges), "-c", communities,
                       "--delta", "0", "-o", str(tmp_path / "x")])
            assert rc == 2
        # A one-node graph has no threshold, default or given.
        edges, attrs = tmp_path / "one.edges.tsv", tmp_path / "one.attrs.tsv"
        edges.write_text("")
        attrs.write_text("#1\t1\n0\t0\n")
        for delta in ([], ["--delta", "0.5"]):
            rc = main(["detect", "-i", str(edges), "-a", str(attrs), "-c", "2", *delta,
                       "-o", str(tmp_path / "x")])
            assert rc == 2

    def test_repeated_candidates_exit_2_before_any_fit(self, tmp_path, monkeypatch, capsys):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the candidates were checked")

        monkeypatch.setattr("attricom.cli.fit", no_fit)
        monkeypatch.setattr("attricom.selection.solver.fit", no_fit)
        g, _, _, _ = planted_instance(PlantedSpec(n=60, c=2, k=4, seed=1))
        edges, attrs = tmp_path / "e.tsv", tmp_path / "a.tsv"
        write_edge_file(edges, g)
        write_attr_file(attrs, g)
        rc = main(["detect", "-i", str(edges), "-a", str(attrs), "-c", "auto",
                   "--candidates", "2,2,3", "-o", str(tmp_path / "run")])
        assert rc == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "run.manifest.tsv").exists()

    def test_nonconvergence_still_writes(self, tmp_path, clique_edges):
        out = tmp_path / "run"
        rc = main(["detect", "-i", str(clique_edges), "-c", "2",
                   "--max-iters", "1", "-o", str(out)])
        assert rc == 0
        manifest = read_manifest(tmp_path / "run.manifest.tsv")
        assert manifest["converged"] == "false"
        assert (tmp_path / "run.communities.tsv").exists()


class TestEval:
    def test_identical_files_score_one(self, tmp_path, capsys):
        cover = CommunityCover([{0, 1, 2}, {3, 4}], universe=5)
        path = tmp_path / "c.tsv"
        write_community_file(path, cover)
        rc = main(["eval", str(path), str(path), "--metric", "f1"])
        assert rc == 0
        assert capsys.readouterr().out == "1.000000\n"

    def test_hand_value(self, tmp_path, capsys):
        truth, detected = tmp_path / "t.tsv", tmp_path / "d.tsv"
        truth.write_text("1\t2\t3\n")
        detected.write_text("1\t2\n")
        rc = main(["eval", str(truth), str(detected), "--metric", "f1"])
        assert rc == 0
        assert capsys.readouterr().out == "0.800000\n"

    def test_unknown_metric_exits_2(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(path), str(path), "--metric", "cosine"])
        assert exc.value.code == 2

    def test_empty_file_exits_2(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("")
        b.write_text("0\t1\n")
        assert main(["eval", str(a), str(b)]) == 2


class TestGen:
    def test_forest_fire_two_nodes(self, tmp_path):
        out = tmp_path / "g"
        rc = main(["gen", "forest-fire", "--n", "2", "-o", str(out)])
        assert rc == 0
        assert (tmp_path / "g.edges.tsv").read_text() == "0\t1\n"

    def test_planted_truth_matches_generator(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["gen", "planted", "--n", "50", "--communities", "3",
                   "--attrs", "4", "--strength", "3.0", "--seed", "5",
                   "-o", str(out)])
        assert rc == 0
        spec = PlantedSpec(n=50, c=3, k=4, strength=3.0, seed=5)
        _, truth, _, _ = planted_instance(spec)
        from attricom.fileio import read_community_file
        rows = read_community_file(tmp_path / "p.truth.tsv")
        assert {frozenset(r) for r in rows} == {frozenset(c) for c in truth}

    def test_missing_n_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "forest-fire", "-o", str(tmp_path / "g")])
        assert exc.value.code == 2

    def test_gen_deterministic(self, tmp_path):
        for out in ("a", "b"):
            main(["gen", "forest-fire", "--n", "60", "--seed", "3",
                  "-o", str(tmp_path / out)])
        assert ((tmp_path / "a.edges.tsv").read_bytes()
                == (tmp_path / "b.edges.tsv").read_bytes())


class TestRobustness:
    def test_single_cell_table(self, tmp_path, capsys):
        rc = main(["robustness", "--n", "40", "--communities", "2", "--attrs", "4",
                   "--gammas", "0", "--alphas", "0.5", "--seeds", "1",
                   "--max-iters", "20"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "gamma\talpha\tmean_f1\tstd_f1\tseeds"
        assert len(out) == 2
        assert out[1].split("\t")[:2] == ["0", "0.5"]

    def test_table_deterministic(self, tmp_path):
        args = ["robustness", "--n", "30", "--communities", "2", "--attrs", "3",
                "--gammas", "0,0.4", "--alphas", "0,0.5", "--seeds", "2",
                "--max-iters", "10"]
        rc = main(args + ["-o", str(tmp_path / "r1")])
        assert rc == 0
        rc = main(args + ["-o", str(tmp_path / "r2")])
        assert rc == 0
        assert ((tmp_path / "r1.robustness.tsv").read_bytes()
                == (tmp_path / "r2.robustness.tsv").read_bytes())

    def test_bad_gamma_exits_2(self):
        rc = main(["robustness", "--gammas", "1.5", "--seeds", "1"])
        assert rc == 2


class TestExitCodes:
    def test_internal_error_exits_1(self, tmp_path, clique_edges, monkeypatch):
        import attricom.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("deliberate failure")

        monkeypatch.setattr(cli, "fit", boom)
        rc = main(["detect", "-i", str(clique_edges), "-c", "2",
                   "-o", str(tmp_path / "x")])
        assert rc == 1


class TestDefaults:
    def test_minimal_argv_takes_the_library_defaults(self):
        parser, cfg = build_parser(), FitConfig()
        fit_flags = (cfg.lam, cfg.max_outer_iters, cfg.rel_improvement_tol, cfg.rng_seed)

        def fit_values(a):
            return (a.lam, a.max_iters, a.tol, a.seed)

        detect = parser.parse_args(["detect", "-i", "e", "-c", "2", "-o", "o"])
        assert fit_values(detect) == fit_flags and detect.alpha == cfg.alpha
        assert cli._config_from(detect, alpha=detect.alpha) == cfg
        assert detect.candidates == [2, 4, 8, 16, 32] and detect.delta is None

        spec = PlantedSpec(n=5, c=2, k=3)
        planted = parser.parse_args(["gen", "planted", "--n", "5", "--communities", "2",
                                     "--attrs", "3", "-o", "o"])
        assert cli._planted_spec(planted, planted.seed) == spec

        ff = parser.parse_args(["gen", "forest-fire", "--n", "5", "-o", "o"])
        params = ForestFireParams(n=5)
        assert (ff.p_forward, ff.p_backward, ff.seed) == (
            params.p_forward, params.p_backward, params.seed)

        rob = parser.parse_args(["robustness"])
        assert fit_values(rob) == (cfg.lam, 150, cfg.rel_improvement_tol, cfg.rng_seed)
        assert cli._planted_spec(rob, rob.seed) == PlantedSpec(n=400, c=4, k=16)
        assert (rob.gammas, rob.alphas, rob.seeds, rob.out) == ([0.0, 0.6], [0.0, 0.5], 20, None)
        assert not hasattr(rob, "alpha")

    @pytest.mark.parametrize("command, shown", [
        ([], "robustness"),
        (["detect"], "(default 0.5)"),
        (["eval"], "--metric"),
        (["gen"], "forest-fire"),
        (["gen", "planted"], "(default -2.0)"),
        (["gen", "forest-fire"], "(default 0.36)"),
        (["robustness"], "(default 150)"),
    ], ids=["attricom", "detect", "eval", "gen", "gen-planted", "gen-forest-fire", "robustness"])
    def test_help_renders(self, capsys, command, shown):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + ["--help"])
        assert exc.value.code == 0
        assert shown in " ".join(capsys.readouterr().out.split())


class TestBenchmarkContract:
    """The benchmark (bench/run.py and bench/tracer.py) wraps these module
    attributes and reads the wrapped calls' arguments by position."""

    @staticmethod
    def _record(monkeypatch, module, name):
        calls, fn = [], getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_detect_auto_calls_through_the_captured_names(self, tmp_path, monkeypatch):
        g, _, _, _ = planted_instance(PlantedSpec(n=60, c=2, k=4, seed=1))
        edges, attrs = tmp_path / "e.tsv", tmp_path / "a.tsv"
        write_edge_file(edges, g)
        write_attr_file(attrs, g)
        final = self._record(monkeypatch, cli, "fit")
        candidates = self._record(monkeypatch, solver, "fit")
        masks = self._record(monkeypatch, selection, "make_holdout")
        rc = main(["detect", "-i", str(edges), "-a", str(attrs), "-c", "auto",
                   "--candidates", "2,3", "--max-iters", "5", "-o", str(tmp_path / "r")])
        assert rc == 0
        manifest = read_manifest(tmp_path / "r.manifest.tsv")
        assert len(final) == 1 and final[0][0][1] == int(manifest["communities"])
        assert sorted(args[1] for args, _ in candidates) == [2, 3]
        assert len(masks) == 1
        assert FitConfig().min_dot_guard == MIN_DOT_GUARD

    def test_fit_passes_the_traced_arguments_by_position(self, monkeypatch):
        g, _, _, _ = planted_instance(PlantedSpec(n=40, c=2, k=3, seed=2))
        nodes = self._record(monkeypatch, solver, "update_node")
        attrs = self._record(monkeypatch, solver, "update_attr_weights")
        objectives = self._record(monkeypatch, solver, "objective")
        solver.fit(g, 2, FitConfig(max_outer_iters=3))
        assert nodes and all(len(args) >= 5 for args, _ in nodes)
        assert attrs and all(len(args) == 5 and not kw for args, kw in attrs)
        assert objectives and all(len(args) == 4 and not kw for args, kw in objectives)
