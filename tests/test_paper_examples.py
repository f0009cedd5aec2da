"""Integration tests that replay the paper's worked narratives end-to-end.

Each test class walks one of the paper's examples through the public API,
asserting the quantities the paper states (scores, orderings, loaded
edges, subspace counts).  These are the highest-level fidelity checks in
the suite.
"""

from repro import MatchEngine
from repro.closure.store import ClosureStore
from repro.core.topk import TopkEnumerator
from repro.core.topk_en import TopkEN
from repro.runtime.graph import build_runtime_graph


class TestFigure1Narrative:
    """Introduction: top-k tree matching over a patent citation graph."""

    def test_story(self, figure1_graph, figure1_query):
        matcher = MatchEngine(figure1_graph, backend="full", algorithm="topk-en")
        matches = matcher.top_k(figure1_query, 10)

        # "Figures 1(c) and 1(d) give the top-1 and top-2 matches ... with
        # total scores 2 and 2, respectively" — two score-2 matches exist.
        assert [m.score for m in matches[:2]] == [2, 2]

        # "...while the largest score is 3" over all matches.
        assert matches[-1].score == 3

        # The top matches are direct-citation triples: every query edge is
        # realized by a distance-1 citation.
        for match in matches[:2]:
            root = match.assignment["uC"]
            for child in ("uE", "uS"):
                assert figure1_graph.has_edge(root, match.assignment[child])


class TestExample21Scoring:
    """Definition 2.2 / Example 2.1: the penalty score is the sum of
    shortest distances over query edges."""

    def test_score_accumulates_shortest_paths(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph)
        from repro.runtime.graph import assignment_score

        # v1 -> v3 at distance 1, v3 -> v7 at distance 3, v1 -> v2 at 1.
        score = assignment_score(
            store, figure4_query,
            {"u1": "v1", "u2": "v2", "u3": "v3", "u4": "v7"},
        )
        assert score == 1 + 1 + 3


class TestLawlerSubspaceAccounting:
    """Section 3.2: dividing the top-l match's subspace creates at most
    one Case-1 subspace plus (n_T - j) Case-2 subspaces."""

    def test_candidates_per_round_bounded(self, figure1_graph, figure1_query):
        store = ClosureStore.build(figure1_graph)
        gr = build_runtime_graph(store, figure1_query)
        engine = TopkEnumerator(gr)
        engine.top_k(6)
        n_t = figure1_query.num_nodes
        # Per round: one Case-1 request and at most n_T - 1 Case-2 requests.
        assert engine.stats.case1_requests == engine.stats.rounds
        assert engine.stats.case2_requests <= engine.stats.rounds * (n_t - 1)
        assert engine.stats.candidates_generated <= engine.stats.rounds * n_t

    def test_enumeration_is_duplicate_free_and_complete(
        self, figure1_graph, figure1_query
    ):
        store = ClosureStore.build(figure1_graph)
        gr = build_runtime_graph(store, figure1_query)
        matches = TopkEnumerator(gr).top_k(10_000)
        keys = {tuple(sorted(m.assignment.items())) for m in matches}
        assert len(keys) == len(matches) == 6


class TestExample33DataStructure:
    """Example 3.3: bottom-up construction of the L/H lists."""

    def test_h_lists(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph)
        gr = build_runtime_graph(store, figure4_query)
        engine = TopkEnumerator(gr)
        # H_{v_i, d} for the level-2 nodes: (v7, delta).
        for v, dist in (("v3", 3), ("v4", 4), ("v5", 1), ("v6", 2)):
            slot = engine._slots[("u3", v, "u4")]
            assert slot.min() == (dist, ("u4", "v7"))
        # H_{v1,b} = {(v2, 1)}.
        assert engine._slots[("u1", "v1", "u2")].min() == (1, ("u2", "v2"))
        # bs(v1) = 1 + 2 = 3 (Example 3.3's final sentence).
        assert engine.top1_score() == 3


class TestExample34Enumeration:
    """Example 3.4: the exact replacement sequence at the c-position."""

    def test_replacement_sequence(self, figure4_graph, figure4_query):
        matcher = MatchEngine(figure4_graph, backend="full", algorithm="topk-en")
        matches = matcher.top_k(figure4_query, 10, algorithm="topk")
        assert [(m.score, m.assignment["u3"]) for m in matches] == [
            (3, "v5"),
            (4, "v6"),
            (5, "v3"),
            (6, "v4"),
        ]


class TestExample42PriorityAccess:
    """Example 4.2 / Figure 5: ComputeFirst expands only v5."""

    def test_loaded_part_matches_figure5(self, figure4_graph, figure4_query):
        store = ClosureStore.build(figure4_graph, block_size=2)
        engine = TopkEN(store, figure4_query)
        score = engine.compute_first()
        assert score == 3
        # Figure 5's loaded subgraph: the E/D initialization plus the
        # single incoming edge (v1, v5) pulled by expanding v5.
        assert engine.stats.expansions == 1
        assert engine.stats.edges_loaded == 1
        # v1 became active and popped as the root; v3, v4, v6 never
        # expanded their incoming groups.
        for v in ("v3", "v4", "v6"):
            state = engine._states.get(("u3", v))
            assert state is not None and state.cursor is None


class TestSection6Protocol:
    """Eval protocol smoke test: all four algorithms on a generated
    dataset/query-set pair, agreeing pairwise."""

    def test_protocol(self):
        from repro.workloads import build_dataset, random_query_tree

        graph = build_dataset("GS1", scale=1 / 100)
        matcher = MatchEngine(graph, backend="full", algorithm="topk-en")
        query = random_query_tree(matcher.closure, 5, seed=1)
        reference = None
        for algorithm in ("dp-b", "dp-p", "topk", "topk-en"):
            scores = [
                m.score for m in matcher.top_k(query, 20, algorithm=algorithm)
            ]
            if reference is None:
                reference = scores
            else:
                assert scores == reference, algorithm
        assert reference, "query sets must be realizable by construction"
