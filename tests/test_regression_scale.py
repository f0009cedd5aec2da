"""Medium-scale regression: the whole pipeline on a generated workload.

One deliberately non-tiny instance (a ~800-node citation graph) pushed
through every public entry point: all four core algorithms, the general
twig engine, diversity, the hybrid/on-demand stores, and kGPM.  This
catches integration regressions that unit-scale graphs cannot (deep
slots, multi-block groups, non-trivial pending traffic).
"""

import pytest

from repro.closure.hybrid import HybridStore
from repro.closure.ondemand import OnDemandStore
from repro.core import diverse_top_k
from repro.engine import MatchEngine
from repro.core.topk_en import TopkEN
from repro.graph.generators import citation_graph
from repro.gpm import KGPMEngine
from repro.graph.query import QueryGraph
from repro.twig.general import TopkGT
from repro.workloads import random_query_tree


@pytest.fixture(scope="module")
def workload():
    graph = citation_graph(800, num_labels=40, seed=17)
    matcher = MatchEngine(graph, backend="full", algorithm="topk-en", block_size=16)
    query = random_query_tree(matcher.closure, 12, seed=5)
    return graph, matcher, query


class TestCorePipeline:
    def test_algorithms_agree_at_scale(self, workload):
        _, matcher, query = workload
        reference = None
        for algorithm in ("dp-b", "dp-p", "topk", "topk-en"):
            scores = [
                m.score for m in matcher.top_k(query, 50, algorithm=algorithm)
            ]
            assert len(scores) == 50, algorithm
            assert scores == sorted(scores), algorithm
            if reference is None:
                reference = scores
            else:
                assert scores == reference, algorithm

    def test_lazy_engine_saves_top1_loads(self, workload):
        _, matcher, query = workload
        engine = matcher.engine_for(query, algorithm="topk-en")
        engine.compute_first()
        from repro.runtime.graph import build_runtime_graph

        gr = build_runtime_graph(matcher.store, query)
        assert engine.stats.edges_loaded < gr.raw_num_edges

    def test_diversity_at_scale(self, workload):
        _, matcher, query = workload
        engine = matcher.engine_for(query, algorithm="topk")
        diverse = diverse_top_k(engine, 5, min_distance=3)
        for i, a in enumerate(diverse):
            for b in diverse[i + 1 :]:
                differing = sum(
                    1
                    for u in a.assignment
                    if a.assignment[u] != b.assignment[u]
                )
                assert differing >= 3

    def test_general_twig_at_scale(self, workload):
        graph, matcher, _ = workload
        query = random_query_tree(
            matcher.closure, 10, distinct_labels=False, seed=9
        )
        matches = TopkGT(matcher.store, query).top_k(10)
        assert matches
        scores = [m.score for m in matches]
        assert scores == sorted(scores)


class TestAlternativeStores:
    def test_hybrid_store_agrees(self, workload):
        graph, matcher, query = workload
        hybrid = HybridStore(
            graph, hot_fraction=0.3, block_size=16, closure=matcher.closure
        )
        want = [m.score for m in matcher.top_k(query, 20, algorithm="topk-en")]
        got = [m.score for m in TopkEN(hybrid, query).top_k(20)]
        assert got == want

    def test_ondemand_store_agrees(self, workload):
        graph, matcher, query = workload
        ondemand = OnDemandStore(graph, block_size=16)
        want = [m.score for m in matcher.top_k(query, 20, algorithm="topk-en")]
        got = [m.score for m in TopkEN(ondemand, query).top_k(20)]
        assert got == want


class TestKgpmAtScale:
    def test_mtree_variants_agree(self, workload):
        graph, matcher, _ = workload
        # A small cyclic pattern over frequent labels.
        labels = sorted(
            graph.labels(),
            key=lambda l: -len(graph.nodes_with_label(l)),
        )[:3]
        query = QueryGraph(
            {0: labels[0], 1: labels[1], 2: labels[2]},
            [(0, 1), (1, 2), (2, 0)],
        )
        plus = KGPMEngine(graph, tree_algorithm="topk-en")
        base = KGPMEngine(
            graph,
            tree_algorithm="dp-b",
            closure=plus.closure,
            store=plus.store,
        )
        a = [m.score for m in plus.top_k(query, 10)]
        b = [m.score for m in base.top_k(query, 10)]
        assert a == b
