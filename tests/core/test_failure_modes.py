"""Failure-mode and edge-condition tests across the pipeline."""

import pytest

from repro import MatchEngine
from repro.closure.store import ClosureStore
from repro.core.topk import TopkEnumerator
from repro.core.topk_en import TopkEN
from repro.graph.digraph import LabeledDiGraph, graph_from_edges
from repro.graph.query import QueryTree
from repro.runtime.graph import build_runtime_graph


class TestUnmatchableQueries:
    def test_label_absent_from_graph(self, figure4_graph):
        tm = MatchEngine(figure4_graph, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "zz"}, [(0, 1)])
        for alg in ("dp-b", "dp-p", "topk", "topk-en"):
            assert tm.top_k(q, 5, algorithm=alg) == [], alg

    def test_right_labels_wrong_direction(self, figure4_graph):
        tm = MatchEngine(figure4_graph, backend="full", algorithm="topk-en")
        q = QueryTree({0: "d", 1: "a"}, [(0, 1)])
        for alg in ("dp-b", "dp-p", "topk", "topk-en"):
            assert tm.top_k(q, 5, algorithm=alg) == [], alg

    def test_deep_query_on_shallow_graph(self):
        g = graph_from_edges({"x": "a", "y": "b"}, [("x", "y")])
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree(
            {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3)]
        )
        assert tm.top_k(q, 3) == []

    def test_partially_matchable_branches(self):
        # One branch matchable, the other not: zero matches overall.
        g = graph_from_edges(
            {"r": "a", "x": "b"}, [("r", "x")]
        )
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "b", 2: "c"}, [(0, 1), (0, 2)])
        for alg in ("dp-b", "dp-p", "topk", "topk-en"):
            assert tm.top_k(q, 3, algorithm=alg) == [], alg


class TestDegenerateGraphs:
    def test_empty_like_graph(self):
        g = LabeledDiGraph()
        g.add_node("only", "a")
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a"}, [])
        matches = tm.top_k(q, 3)
        assert len(matches) == 1 and matches[0].score == 0

    def test_graph_with_no_edges(self):
        g = LabeledDiGraph()
        for i in range(4):
            g.add_node(i, "a")
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "a"}, [(0, 1)])
        assert tm.top_k(q, 3) == []

    def test_two_node_cycle(self):
        g = graph_from_edges({0: "a", 1: "a"}, [(0, 1), (1, 0)])
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "a"}, [(0, 1)])
        matches = tm.top_k(q, 10)
        # 0->1, 1->0 at distance 1; 0->0 and 1->1 via the 2-cycle.
        assert [m.score for m in matches] == [1, 1, 2, 2]


class TestInputValidation:
    def test_float_weights_work_end_to_end(self):
        g = graph_from_edges(
            {"a0": "a", "b0": "b"}, [("a0", "b0", 0.125)]
        )
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "b"}, [(0, 1)])
        assert tm.top_k(q, 1)[0].score == 0.125

    def test_engine_requires_valid_bound(self, figure4_graph, figure4_query):
        from repro.core.topk_en import LazyTopkEngine

        store = ClosureStore.build(figure4_graph)
        with pytest.raises(ValueError):
            LazyTopkEngine(store, figure4_query, bound="tightest")

    def test_mixed_node_id_types(self):
        # Ints, strings and tuples as node ids in one graph.
        g = LabeledDiGraph()
        g.add_node(1, "a")
        g.add_node("s", "b")
        g.add_node(("t", 2), "c")
        g.add_edge(1, "s")
        g.add_edge("s", ("t", 2))
        tm = MatchEngine(g, backend="full", algorithm="topk-en")
        q = QueryTree({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        matches = tm.top_k(q, 2)
        assert len(matches) == 1
        assert matches[0].assignment[2] == ("t", 2)


class TestLargeKBehaviour:
    def test_k_much_larger_than_results(self, figure1_graph, figure1_query):
        tm = MatchEngine(figure1_graph, backend="full", algorithm="topk-en")
        for alg in ("dp-b", "dp-p", "topk", "topk-en"):
            matches = tm.top_k(figure1_query, 10_000, algorithm=alg)
            assert len(matches) == 6, alg

    def test_repeated_calls_idempotent(self, figure1_graph, figure1_query):
        tm = MatchEngine(figure1_graph, backend="full", algorithm="topk-en")
        engine = tm.engine_for(figure1_query, algorithm="topk-en")
        a = [m.score for m in engine.top_k(4)]
        b = [m.score for m in engine.top_k(4)]
        c = [m.score for m in engine.top_k(6)]
        assert a == b == c[:4]


class TestStoreEdgeCases:
    def test_block_size_one(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph, block_size=1)
        gr = build_runtime_graph(store, figure4_query)
        assert [m.score for m in TopkEnumerator(gr).top_k(4)] == [3, 4, 5, 6]
        assert [m.score for m in TopkEN(store, figure4_query).top_k(4)] == [
            3, 4, 5, 6,
        ]

    def test_huge_block_size(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph, block_size=1_000_000)
        assert [m.score for m in TopkEN(store, figure4_query).top_k(4)] == [
            3, 4, 5, 6,
        ]
