"""Tests for node-weighted scoring (the paper's footnote 2)."""

import random

import pytest

from repro.closure.store import ClosureStore
from repro.core.baseline_dp import DPBEnumerator
from repro.core.baseline_dpp import DPPEnumerator
from repro.core.brute_force import all_matches
from repro.core.topk import TopkEnumerator
from repro.core.topk_en import TopkEN
from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query import QueryTree
from repro.runtime.graph import assignment_score, build_runtime_graph


def weight_by_suffix(node) -> float:
    """Deterministic synthetic node weight derived from the node id."""
    return (hash(str(node)) % 5) * 0.5


class TestWeightedScores:
    def test_simple_shift(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph)
        gr = build_runtime_graph(store, figure4_query)
        flat = TopkEnumerator(gr).top_k(4)
        weighted = TopkEnumerator(gr, node_weight=lambda v: 1.0).top_k(4)
        # Constant weight 1 shifts every score by n_T = 4.
        assert [m.score for m in weighted] == [m.score + 4 for m in flat]

    def test_weights_can_reorder(self):
        g = graph_from_edges(
            {"a0": "a", "b0": "b", "b1": "b"},
            [("a0", "b0", 1), ("a0", "b1", 2)],
        )
        store = ClosureStore.build(g)
        q = QueryTree({0: "a", 1: "b"}, [(0, 1)])
        gr = build_runtime_graph(store, q)
        # b0 is nearer but heavily weighted: b1 must win.
        weights = {"b0": 5.0, "b1": 0.0, "a0": 0.0}
        matches = TopkEnumerator(gr, node_weight=weights.get).top_k(2)
        assert matches[0].assignment[1] == "b1"
        assert [m.score for m in matches] == [2, 6]

    def test_assignment_score_with_weights(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph)
        score = assignment_score(
            store,
            figure4_query,
            {"u1": "v1", "u2": "v2", "u3": "v5", "u4": "v7"},
            node_weight=lambda v: 0.25,
        )
        assert score == 3 + 4 * 0.25


class TestAllEnginesAgree:
    @pytest.mark.parametrize("seed", range(20))
    def test_weighted_oracle_agreement(self, seed):
        rng = random.Random(seed)
        g = erdos_renyi_graph(
            rng.randint(6, 13), rng.randint(8, 30), num_labels=4, seed=seed
        )
        store = ClosureStore.build(g, block_size=rng.choice([2, 16]))
        labels = sorted(g.labels())
        rng.shuffle(labels)
        size = min(len(labels), rng.randint(2, 4))
        q = QueryTree(
            {i: labels[i] for i in range(size)},
            [(rng.randrange(i), i) for i in range(1, size)],
        )
        gr = build_runtime_graph(store, q)
        oracle = [
            m.score for m in all_matches(gr, node_weight=weight_by_suffix)
        ]
        k = rng.choice([1, 5, 20])
        engines = [
            TopkEnumerator(gr, node_weight=weight_by_suffix),
            TopkEN(store, q, node_weight=weight_by_suffix),
            DPBEnumerator(gr, node_weight=weight_by_suffix),
            DPPEnumerator(store, q, node_weight=weight_by_suffix),
        ]
        for engine in engines:
            got = [m.score for m in engine.top_k(k)]
            assert got == pytest.approx(oracle[:k]), type(engine).__name__

    def test_facade_plumbs_weights(self, figure4_graph, figure4_query):
        tm = MatchEngine(
            figure4_graph, backend="full", algorithm="topk-en",
            node_weight=lambda v: 1.0,
        )
        for alg in ("dp-b", "dp-p", "topk", "topk-en", "brute-force"):
            matches = tm.top_k(figure4_query, 1, algorithm=alg)
            assert matches[0].score == 3 + 4, alg

    def test_single_node_query_weighted(self, figure4_graph):
        tm = MatchEngine(
            figure4_graph, backend="full", algorithm="topk-en",
            node_weight=lambda v: 2.0 if v == "v5" else 0.0,
        )
        q = QueryTree({0: "c"}, [])
        matches = tm.top_k(q, 4)
        # v5 is pushed to the back by its weight.
        assert matches[-1].assignment[0] == "v5"
        assert matches[-1].score == 2.0
