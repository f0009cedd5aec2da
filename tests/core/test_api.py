"""The one-object entry point: a ``full``-backend :class:`MatchEngine`."""

import pytest

from repro.engine import MatchEngine
from repro.engine.config import ALGORITHMS
from repro.graph.query import QueryTree


@pytest.fixture
def matcher(figure4_graph):
    return MatchEngine(figure4_graph, backend="full", algorithm="topk-en")


def test_all_algorithms_listed():
    assert set(ALGORITHMS) == {"dp-b", "dp-p", "topk", "topk-en", "brute-force"}


def test_default_algorithm(matcher, figure4_query):
    matches = matcher.top_k(figure4_query, 2)
    assert [m.score for m in matches] == [3, 4]


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_every_algorithm_runs(matcher, figure4_query, alg):
    matches = matcher.top_k(figure4_query, 3, algorithm=alg)
    assert [m.score for m in matches][:3] == [3, 4, 5]


def test_brute_force_honors_k(matcher, figure4_query):
    matches = matcher.top_k(figure4_query, 2, algorithm="brute-force")
    assert len(matches) == 2
    assert [m.score for m in matches] == [3, 4]


def test_unknown_algorithm(matcher, figure4_query):
    with pytest.raises(ValueError, match="unknown algorithm"):
        matcher.top_k(figure4_query, 1, algorithm="magic")


def test_engine_exposes_stats(matcher, figure4_query):
    engine = matcher.engine_for(figure4_query, algorithm="topk-en")
    engine.top_k(2)
    assert engine.stats.rounds == 2


def test_engine_is_engine_like_for_brute_force(matcher, figure4_query):
    """Brute force yields an engine-like object with top_k/stream/stats,
    not a bare truncated list."""
    from repro.core.brute_force import BruteForceEngine

    engine = matcher.engine_for(figure4_query, algorithm="brute-force")
    assert isinstance(engine, BruteForceEngine)
    assert [m.score for m in engine.top_k(2)] == [3, 4]
    assert hasattr(engine, "stream") and hasattr(engine, "stats")


def test_one_shot_helper(figure4_graph, figure4_query):
    matches = MatchEngine(figure4_graph, backend="full").top_k(figure4_query, 1)
    assert matches[0].score == 3


def test_matcher_reusable_across_queries(matcher):
    q1 = QueryTree({0: "a", 1: "b"}, [(0, 1)])
    q2 = QueryTree({0: "c", 1: "d"}, [(0, 1)])
    assert matcher.top_k(q1, 1)[0].score == 1
    assert matcher.top_k(q2, 4)[-1].score == 4


def test_offline_artifacts_exposed(matcher):
    assert matcher.closure.num_pairs > 0
    assert matcher.store.size_statistics()["total_entries"] > 0
