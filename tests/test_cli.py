"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.graph.digraph import graph_from_edges
from repro.graph.query import QueryGraph, QueryTree
from repro.io import save_graph_tsv, save_query


@pytest.fixture
def graph_file(tmp_path):
    graph = graph_from_edges(
        {"a0": "a", "b0": "b", "b1": "b", "c0": "c"},
        [("a0", "b0"), ("a0", "b1", 2), ("b0", "c0"), ("b1", "c0")],
    )
    path = tmp_path / "graph.tsv"
    save_graph_tsv(graph, path)
    return path


@pytest.fixture
def tree_query_file(tmp_path):
    query = QueryTree({"r": "a", "m": "b", "l": "c"}, [("r", "m"), ("m", "l")])
    path = tmp_path / "query.json"
    save_query(query, path)
    return path


@pytest.fixture
def graph_query_file(tmp_path):
    query = QueryGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2), (2, 0)])
    path = tmp_path / "qg.json"
    save_query(query, path)
    return path


class TestMatch:
    def test_outputs_matches(self, graph_file, tree_query_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "-k", "5",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "matches"
        scores = [m["score"] for m in payload["matches"]]
        assert scores == [2.0, 3.0]

    @pytest.mark.parametrize("alg", ["dp-b", "dp-p", "topk", "topk-en"])
    def test_all_algorithms(self, graph_file, tree_query_file, capsys, alg):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--algorithm", alg,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    def test_graph_query_routes_to_kgpm(self, graph_file, graph_query_file, capsys):
        """`match` is the universal entry point: cyclic patterns run too."""
        code = main(
            ["match", "--graph", str(graph_file), "--query", str(graph_query_file)]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["matches"], "expected at least one pattern match"
        assert "mtree+" in captured.err

    def test_needs_graph_or_index(self, tree_query_file, capsys):
        code = main(["match", "--query", str(tree_query_file)])
        assert code == 2
        assert "--graph or --load-index" in capsys.readouterr().err

    def test_graph_and_index_conflict(self, tmp_path, graph_file,
                                      tree_query_file, capsys):
        index_path = tmp_path / "g.idx.json"
        assert main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--save-index", str(index_path),
            ]
        ) == 0
        capsys.readouterr()
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--load-index", str(index_path),
                "--query", str(tree_query_file),
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err
        code = main(
            [
                "match",
                "--load-index", str(index_path),
                "--backend", "pll",
                "--query", str(tree_query_file),
            ]
        )
        assert code == 2
        assert "determined by the loaded index" in capsys.readouterr().err

    def test_corrupt_index_clean_error(self, tmp_path, tree_query_file, capsys):
        bogus = tmp_path / "corrupt.idx.json"
        bogus.write_text("{not json")
        code = main(
            ["match", "--load-index", str(bogus), "--query", str(tree_query_file)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_constrained_backend_uses_query_as_workload(
        self, graph_file, tree_query_file, capsys
    ):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--backend", "constrained",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    @pytest.mark.parametrize("backend", ["full", "ondemand", "hybrid", "pll"])
    def test_backend_selection(self, graph_file, tree_query_file, capsys, backend):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--backend", backend,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    def test_auto_algorithm_with_explain(self, graph_file, tree_query_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--algorithm", "auto",
                "--explain",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "QueryPlan" in captured.err
        payload = json.loads(captured.out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    def test_save_then_load_index(self, tmp_path, graph_file, tree_query_file,
                                  capsys):
        index_path = tmp_path / "g.idx.json"
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", str(tree_query_file),
                "--save-index", str(index_path),
            ]
        )
        assert code == 0
        assert index_path.exists()
        capsys.readouterr()
        code = main(
            [
                "match",
                "--load-index", str(index_path),
                "--query", str(tree_query_file),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]


class TestMatchDsl:
    """`--query` accepts DSL text directly (the declarative surface)."""

    def test_dsl_query(self, graph_file, capsys):
        code = main(
            ["match", "--graph", str(graph_file), "--query", "a//b//c", "-k", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    def test_dsl_matches_json_query(self, graph_file, tree_query_file, capsys):
        main(["match", "--graph", str(graph_file), "--query", str(tree_query_file)])
        json_scores = [
            m["score"] for m in json.loads(capsys.readouterr().out)["matches"]
        ]
        main(["match", "--graph", str(graph_file), "--query", "a//b//c"])
        dsl_scores = [
            m["score"] for m in json.loads(capsys.readouterr().out)["matches"]
        ]
        assert dsl_scores == json_scores

    def test_direct_edge_dsl(self, graph_file, capsys):
        code = main(["match", "--graph", str(graph_file), "--query", "a/b/c"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # every closure pair here is also a direct edge in the fixture
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]

    def test_explain_shows_semantics(self, graph_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", "a//b[c]",
                "--explain",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "semantics:" in err
        assert "matcher=equality" in err
        assert "execution tier:" in err

    def test_cyclic_dsl(self, graph_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", "graph(x:a, y:b, z:c; x-y, y-z, z-x)",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["matches"]
        assert "mtree+" in captured.err

    @pytest.mark.parametrize(
        "bad",
        ["a//", "a[[b]", "a//b]", "a@b", "{unclosed", "a//b[", "graph(x:a; x-y)"],
    )
    def test_malformed_dsl_exits_2_with_caret(self, graph_file, capsys, bad):
        """Satellite: malformed --query exits 2 with a caret, no traceback."""
        code = main(["match", "--graph", str(graph_file), "--query", bad])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid query syntax" in err
        assert "^" in err
        assert "Traceback" not in err

    def test_missing_json_file_clean_error(self, graph_file, capsys):
        code = main(
            ["match", "--graph", str(graph_file), "--query", "no/such/q.json"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_wildcard_root_clean_error(self, graph_file, capsys):
        code = main(["match", "--graph", str(graph_file), "--query", "*//a"])
        assert code == 2
        err = capsys.readouterr().err
        assert "wildcard roots" in err
        assert "Traceback" not in err

    def test_cyclic_algorithm_on_tree_clean_error(self, graph_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", "a//b",
                "--algorithm", "mtree+",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "only applies to cyclic" in err
        assert "Traceback" not in err

    def test_tree_algorithm_on_cyclic_clean_error(self, graph_file, capsys):
        code = main(
            [
                "match",
                "--graph", str(graph_file),
                "--query", "graph(x:a, y:b; x-y)",
                "--algorithm", "dp-p",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot execute a cyclic pattern" in err
        assert "Traceback" not in err

    def test_constrained_backend_with_containment_query(self, tmp_path, capsys):
        """The one-shot constrained workload honors compiled ~ semantics."""
        from repro.graph.digraph import graph_from_edges

        graph = graph_from_edges(
            {"r": "root", "s": "db+systems", "t": "ml"},
            [("r", "s"), ("r", "t")],
        )
        path = tmp_path / "tok.tsv"
        save_graph_tsv(graph, path)
        code = main(
            [
                "match",
                "--graph", str(path),
                "--query", "root//~db",
                "--backend", "constrained",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["assignment"]["n1"] for m in payload["matches"]] == ["s"]


class TestQuerySubcommand:
    def test_check_ok(self, capsys):
        code = main(["query", "check", "A//B[C][*]/D"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok: A//B[C][*]/D" in out
        assert "5 nodes" in out

    def test_check_syntax_error(self, capsys):
        code = main(["query", "check", "A//B[[C]"])
        assert code == 2
        err = capsys.readouterr().err
        assert "^" in err
        assert "Traceback" not in err

    def test_show_tree(self, capsys):
        code = main(["query", "show", "A//~db+systems[/X]"])
        assert code == 0
        out = capsys.readouterr().out
        assert "canonical: A//~db+systems/X" in out
        assert "matcher=containment" in out
        assert "direct edges=1" in out

    def test_show_graph(self, capsys):
        code = main(["query", "show", "graph(a:A, b:B; a-b)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cyclic pattern" in out
        assert "edge a -- b" in out

    def test_show_compiled_prints_opcode_listing(self, capsys):
        code = main(["query", "show", "A//B/C", "--compiled"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel:" in out
        for opcode in ("SCAN", "PROBE", "DIRECT", "ACCUM", "ROOTS", "PUSH"):
            assert opcode in out, opcode

    def test_show_compiled_reports_interpreted_for_cyclic(self, capsys):
        code = main(
            ["query", "show", "graph(a:A, b:B; a-b, b-a)", "--compiled"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel:    interpreted" in out
        assert "kGPM" in out

    def test_check_json_file(self, tree_query_file, capsys):
        code = main(["query", "check", str(tree_query_file)])
        assert code == 0
        assert "tree" in capsys.readouterr().out


class TestGpm:
    def test_cycle_query(self, graph_file, graph_query_file, capsys):
        code = main(
            ["gpm", "--graph", str(graph_file), "--query", str(graph_query_file)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches"], "expected at least one pattern match"

    def test_rejects_tree_query(self, graph_file, tree_query_file):
        code = main(
            ["gpm", "--graph", str(graph_file), "--query", str(tree_query_file)]
        )
        assert code == 2

    def test_containment_labels_honored(self, tmp_path, capsys):
        """gpm compiles ~ labels with the containment matcher (regression:
        it used to drop the compiled matcher and return no matches)."""
        from repro.graph.digraph import graph_from_edges

        graph = graph_from_edges(
            {"x": "hub", "y": "db+systems"},
            [("x", "y")],
        )
        path = tmp_path / "tok.tsv"
        save_graph_tsv(graph, path)
        code = main(
            [
                "gpm",
                "--graph", str(path),
                "--query", "graph(a:hub, b:~db; a-b)",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["assignment"]["b"] for m in payload["matches"]] == ["y"]


class TestStats:
    def test_reports_closure(self, graph_file, capsys):
        code = main(["stats", "--graph", str(graph_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "closure pairs" in out
        assert "theta" in out


class TestIndex:
    def test_build_and_query(self, tmp_path, graph_file, tree_query_file, capsys):
        index_path = tmp_path / "built.idx.json"
        code = main(
            [
                "index",
                "--graph", str(graph_file),
                "--backend", "pll",
                "--out", str(index_path),
            ]
        )
        assert code == 0
        assert "saved to" in capsys.readouterr().err
        code = main(
            ["match", "--load-index", str(index_path), "--query", str(tree_query_file)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]


class TestGenerate:
    @pytest.mark.parametrize("family", ["citation", "powerlaw", "uniform"])
    def test_generates_loadable_graph(self, tmp_path, capsys, family):
        out = tmp_path / "gen.tsv"
        code = main(
            [
                "generate",
                "--family", family,
                "--nodes", "60",
                "--labels", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        from repro.io import load_graph_tsv

        graph = load_graph_tsv(out)
        assert graph.num_nodes == 60


class TestShardCli:
    @pytest.fixture
    def manifest_path(self, tmp_path, graph_file):
        path = tmp_path / "sharded.ridx"
        code = main(
            [
                "index",
                "--graph", str(graph_file),
                "--shards", "2",
                "--out", str(path),
            ]
        )
        assert code == 0
        return path

    def test_build_reports_shards(self, tmp_path, graph_file, capsys):
        manifest_path = tmp_path / "sharded.ridx"
        code = main(
            [
                "index",
                "--graph", str(graph_file),
                "--shards", "2",
                "--out", str(manifest_path),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "built 2 shards" in err
        assert str(manifest_path) in err
        siblings = sorted(p.name for p in manifest_path.parent.iterdir())
        assert "sharded.shard-00.ridx" in siblings
        assert "sharded.shard-01.ridx" in siblings

    def test_match_loads_manifest_transparently(
        self, manifest_path, graph_file, tree_query_file, capsys
    ):
        code = main(
            [
                "match",
                "--load-index", str(manifest_path),
                "--query", str(tree_query_file),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert [m["score"] for m in payload["matches"]] == [2.0, 3.0]
        assert "sharded[2]" in captured.err

    def test_shard_info(self, manifest_path, capsys):
        capsys.readouterr()
        assert main(["shard", "info", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "repro-shard-manifest" in out
        assert "shard  0:" in out
        assert "use --verify" in out
        assert main(["shard", "info", str(manifest_path), "--verify"]) == 0
        assert "SHA-256 verified" in capsys.readouterr().out

    def test_shard_info_rejects_tampering(self, manifest_path, capsys):
        document = json.loads(manifest_path.read_text())
        document["epoch"] = 7
        manifest_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["shard", "info", str(manifest_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "checksum" in err

    def test_bad_shard_flags_exit_2(self, tmp_path, graph_file, capsys):
        out = tmp_path / "x.ridx"
        assert main(
            ["index", "--graph", str(graph_file), "--shards", "0",
             "--out", str(out)]
        ) == 2
        assert "positive" in capsys.readouterr().err
        assert main(
            ["index", "--graph", str(graph_file), "--shards", "2",
             "--format", "json", "--out", str(out)]
        ) == 2
        assert "binary-only" in capsys.readouterr().err


class TestDeltaCli:
    @pytest.fixture
    def durable_family(self, tmp_path, graph_file):
        """A binary base index plus a WAL holding one pending record."""
        from repro.delta import WriteAheadLog, records_from_updates
        from repro.engine import MatchEngine
        from repro.io import load_graph_tsv

        base = tmp_path / "index.ridx"
        engine = MatchEngine(load_graph_tsv(graph_file))
        engine.save_index(base, format="binary")
        wal_path = tmp_path / "index.wal"
        with WriteAheadLog(wal_path) as wal:
            wal.append(records_from_updates(edges_added=[("a0", "c0", 1)]))
        return base, wal_path

    def test_delta_info_reads_a_wal(self, durable_family, capsys):
        _base, wal_path = durable_family
        assert main(["delta", "info", str(wal_path)]) == 0
        out = capsys.readouterr().out
        assert "generation: 0" in out
        assert "records:    1" in out
        assert "none (segment is clean)" in out
        assert '"op": "edge_add"' in out

    def test_delta_info_reports_torn_tails(self, durable_family, capsys):
        _base, wal_path = durable_family
        with open(wal_path, "ab") as handle:
            handle.write(b"\xff" * 5)
        assert main(["delta", "info", str(wal_path)]) == 0
        out = capsys.readouterr().out
        assert "5 trailing bytes" in out

    def test_compact_folds_the_wal_into_a_generation(
        self, durable_family, capsys
    ):
        base, wal_path = durable_family
        assert main(
            ["compact", "--index", str(base), "--wal", str(wal_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "compacted 1 records" in err
        assert "generation 1" in err
        assert base.with_name("index.gen-0001.ridx").exists()
        # The family is now inspectable through `delta info`.
        assert main(["delta", "info", str(base)]) == 0
        out = capsys.readouterr().out
        assert "current:    generation 1" in out
        assert "gen    1: index.gen-0001.ridx" in out
        # Nothing pending anymore: the second compact is a no-op...
        assert main(
            ["compact", "--index", str(base), "--wal", str(wal_path)]
        ) == 0
        assert "nothing to compact" in capsys.readouterr().err
        # ...unless forced.
        assert main(
            ["compact", "--index", str(base), "--wal", str(wal_path),
             "--force"]
        ) == 0
        assert "generation 2" in capsys.readouterr().err

    def test_delta_info_rejects_unrelated_files(self, graph_file, capsys):
        assert main(["delta", "info", str(graph_file)]) == 2
        assert "neither a WAL segment" in capsys.readouterr().err


class TestLint:
    """`repro lint` exit codes: 0 clean / 1 findings / 2 usage errors —
    the uniform contract the module docstring documents."""

    @pytest.fixture
    def dirty_repo(self, tmp_path):
        """A miniature repo whose one module violates RL002."""
        (tmp_path / "config").mkdir()
        (tmp_path / "config" / "layers.toml").write_text(
            '[[package]]\nname = "repro.exceptions"\ndeps = []\n\n'
            '[[package]]\nname = "repro.storage"\n'
            'deps = ["repro.exceptions"]\n'
        )
        package = tmp_path / "src" / "repro" / "storage"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "blocks.py").write_text(
            "def check(size):\n"
            "    if size < 0:\n"
            "        raise ValueError('negative')\n"
        )
        return tmp_path

    def test_clean_repo_exits_0(self, monkeypatch, capsys):
        import repro

        root = __import__("pathlib").Path(repro.__file__).parents[2]
        monkeypatch.chdir(root)
        assert main(["lint"]) == 0
        assert "0 errors" in capsys.readouterr().out

    def test_findings_exit_1(self, dirty_repo, capsys):
        assert main(["lint", "--root", str(dirty_repo)]) == 1
        out = capsys.readouterr().out
        assert "RL002" in out and "1 errors" in out

    def test_unknown_rule_exits_2(self, dirty_repo, capsys):
        assert main(["lint", "--root", str(dirty_repo), "--rule", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_root_exits_2(self, tmp_path, capsys):
        assert main(["lint", "--root", str(tmp_path / "ghost")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_rule_filter_narrows_the_run(self, dirty_repo, capsys):
        assert main(["lint", "--root", str(dirty_repo), "--rule", "RL001"]) == 0
        assert "1 rules" in capsys.readouterr().out

    def test_json_format(self, dirty_repo, capsys):
        assert main(["lint", "--root", str(dirty_repo), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "reprolint-report"
        assert document["summary"]["active"] == 1

    def test_baseline_lifecycle_through_the_cli(self, dirty_repo, capsys):
        baseline = dirty_repo / "lint-baseline.json"
        # --update-baseline without --baseline is a usage error.
        assert main(["lint", "--root", str(dirty_repo),
                     "--update-baseline"]) == 2
        capsys.readouterr()
        # Write the baseline, then the gate goes green.
        assert main(["lint", "--root", str(dirty_repo),
                     "--baseline", str(baseline), "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", "--root", str(dirty_repo),
                     "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # Fixing the violation turns the entry stale -> exit 1 until the
        # baseline is regenerated.
        blocks = dirty_repo / "src" / "repro" / "storage" / "blocks.py"
        blocks.write_text("def check(size):\n    return size\n")
        assert main(["lint", "--root", str(dirty_repo),
                     "--baseline", str(baseline)]) == 1
        assert "stale baseline" in capsys.readouterr().out
