"""MatchEngine construction: config validation, builder, prepared queries."""

import warnings

import pytest

from repro.engine import EngineConfig, MatchEngine
from repro.exceptions import EngineError
from repro.graph.query import QueryTree


class TestConfig:
    def test_defaults_validate(self):
        config = EngineConfig()
        assert config.backend == "auto"
        assert config.algorithm == "auto"

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"backend": "nope"}, "unknown backend"),
            ({"algorithm": "nope"}, "unknown algorithm"),
            ({"block_size": 0}, "block_size"),
            ({"hot_fraction": 1.5}, "hot_fraction"),
            ({"backend": "constrained"}, "workload"),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs, match):
        with pytest.raises(EngineError, match=match):
            EngineConfig(**kwargs)

    def test_replace_revalidates(self):
        config = EngineConfig()
        with pytest.raises(EngineError, match="unknown backend"):
            config.replace(backend="nope")

    def test_config_and_overrides_exclusive(self, figure4_graph):
        with pytest.raises(EngineError, match="not both"):
            MatchEngine(figure4_graph, EngineConfig(), backend="full")


class TestBuilder:
    def test_fluent_build(self, figure4_graph, figure4_query):
        engine = (
            MatchEngine.builder()
            .backend("pll")
            .algorithm("topk-en")
            .block_size(4)
            .build(figure4_graph)
        )
        assert engine.backend_name == "pll"
        assert engine.config.block_size == 4
        assert [m.score for m in engine.top_k(figure4_query, 2)] == [3, 4]

    def test_builder_workload(self, figure4_graph, figure4_query):
        engine = (
            MatchEngine.builder()
            .backend("constrained")
            .workload(figure4_query)
            .build(figure4_graph)
        )
        assert engine.backend_name == "constrained"
        assert engine.closure.is_partial

    def test_builder_node_weight(self, figure4_graph, figure4_query):
        engine = (
            MatchEngine.builder()
            .node_weight(lambda v: 1.0)
            .build(figure4_graph)
        )
        # 4 query nodes add 4 to every pure-distance score.
        assert engine.top_k(figure4_query, 1)[0].score == 7

    def test_builder_hot_fraction(self, figure4_graph):
        engine = (
            MatchEngine.builder()
            .backend("hybrid")
            .hot_fraction(0.5)
            .build(figure4_graph)
        )
        assert engine.store.hot_fraction == 0.5


class TestEngineBasics:
    def test_negative_k_rejected(self, figure4_graph, figure4_query):
        engine = MatchEngine(figure4_graph)
        with pytest.raises(ValueError, match="non-negative"):
            engine.top_k(figure4_query, -1)

    def test_k_zero(self, figure4_graph, figure4_query):
        assert MatchEngine(figure4_graph).top_k(figure4_query, 0) == []

    def test_reusable_across_queries(self, figure4_graph):
        engine = MatchEngine(figure4_graph)
        q1 = QueryTree({0: "a", 1: "b"}, [(0, 1)])
        q2 = QueryTree({0: "c", 1: "d"}, [(0, 1)])
        assert engine.top_k(q1, 1)[0].score == 1
        assert engine.top_k(q2, 4)[-1].score == 4


class TestDeprecatedFacade:
    """The MatchEngine calls that replace the removed ``TreeMatcher`` /
    ``top_k_tree_matches`` facade answer as the facade did, without a
    deprecation warning."""

    def test_one_shot_warns(self, figure4_graph, figure4_query):
        import repro

        assert not hasattr(repro, "top_k_tree_matches")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            matches = MatchEngine(figure4_graph, backend="full").top_k(
                figure4_query, 1
            )
        assert matches[0].score == 3

    def test_shim_matches_engine(self, figure4_graph, figure4_query):
        full = MatchEngine(figure4_graph, backend="full")
        planned = MatchEngine(figure4_graph)
        for algorithm in ("topk-en", "dp-b", "brute-force"):
            assert [m.score for m in full.top_k(figure4_query, 3, algorithm=algorithm)] == [
                m.score for m in planned.top_k(figure4_query, 3, algorithm=algorithm)
            ]

    def test_shim_engine_object_for_brute_force(self, figure4_graph, figure4_query):
        from repro.core.brute_force import BruteForceEngine

        engine = MatchEngine(figure4_graph, backend="full")
        obj = engine.engine_for(figure4_query, algorithm="brute-force")
        assert isinstance(obj, BruteForceEngine)
        assert [m.score for m in obj.top_k(2)] == [3, 4]


class TestPreparedQueries:
    def test_prepared_matches_direct_execution(self, figure4_graph, figure4_query):
        engine = MatchEngine(figure4_graph)
        prepared = engine.prepare(figure4_query, k=3)
        assert [m.score for m in prepared.top_k()] == [
            m.score for m in engine.top_k(figure4_query, 3)
        ]
        # Another k reuses the plan without re-preparing.
        assert [m.score for m in prepared.top_k(1)] == [
            m.score for m in engine.top_k(figure4_query, 1)
        ]

    def test_prepared_plan_is_the_explained_plan(self, figure4_graph):
        engine = MatchEngine(figure4_graph)
        prepared = engine.prepare("a//b", k=5)
        assert prepared.explain() == engine.explain("a//b", 5)
        assert prepared.dsl == "a//b"

    def test_prepared_stream(self, figure4_graph):
        engine = MatchEngine(figure4_graph)
        stream = engine.prepare("a//c/d", k=2).stream()
        first = stream.take(2)
        assert [m.score for m in first] == [
            m.score for m in engine.top_k("a//c/d", 2)
        ]

    def test_prepared_cyclic_executes_but_does_not_stream(self):
        from repro.exceptions import EngineError
        from repro.graph.digraph import graph_from_edges

        graph = graph_from_edges(
            {"x": "A", "y": "B", "z": "C"},
            [("x", "y"), ("y", "z"), ("z", "x")],
        )
        engine = MatchEngine(graph, backend="full")
        prepared = engine.prepare("graph(a:A, b:B, c:C; a-b, b-c, c-a)", k=2)
        assert len(prepared.top_k()) == 1
        with pytest.raises(EngineError, match="do not stream"):
            prepared.stream()

    def test_explicit_algorithm_is_pinned(self, figure4_graph, figure4_query):
        engine = MatchEngine(figure4_graph)
        prepared = engine.prepare(figure4_query, k=3, algorithm="dp-b")
        assert prepared.plan.algorithm == "dp-b"
        assert [m.score for m in prepared.top_k()] == [3, 4, 5]
