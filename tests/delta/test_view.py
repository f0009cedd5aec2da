"""Folding overlays: fold / fold_graph / diff_graphs."""

import pytest

from repro.delta import (
    EdgeAdd,
    EdgeRemove,
    LabelChange,
    NodeAdd,
    apply_records,
    diff_graphs,
    fold,
    fold_graph,
)
from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph

RECORDS = (
    NodeAdd(999, "V1"),
    EdgeAdd(0, 999, 2),
    EdgeRemove(0, 1),
)


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@pytest.fixture(scope="module")
def base():
    graph = citation_graph(40, num_labels=5, seed=2)
    if not graph.has_edge(0, 1):
        graph.add_edge(0, 1)
    return MatchEngine(graph, backend="full")


def patched_engine(base, records):
    graph = base.graph.copy()
    apply_records(graph, records)
    return MatchEngine(graph, base.config)


class TestFold:
    def test_fold_matches_fresh_rebuild(self, base):
        result = fold(base, RECORDS)
        fresh = patched_engine(base, RECORDS)
        for query in ("V0//V1", "V0[V1]//V2"):
            assert exact(result.engine.top_k(query, 8)) == exact(
                fresh.top_k(query, 8)
            )
        assert result.incremental
        assert result.affected_labels is not None
        assert result.nodes_added == 1
        assert result.edges_added == 1
        assert result.edges_removed == 1

    def test_base_engine_is_never_mutated(self, base):
        nodes_before = base.graph.num_nodes
        fold(base, RECORDS)
        assert base.graph.num_nodes == nodes_before
        assert base.graph.has_edge(0, 1)

    def test_label_change_falls_back_to_rebuild(self, base):
        result = fold(base, (LabelChange(1, "V4"),))
        assert not result.incremental
        assert result.affected_labels is None
        fresh = patched_engine(base, (LabelChange(1, "V4"),))
        assert exact(result.engine.top_k("V0//V2", 6)) == exact(
            fresh.top_k("V0//V2", 6)
        )

    def test_new_node_label_lands_in_affected_set(self, base):
        result = fold(base, (NodeAdd(888, "V3"),))
        assert "V3" in result.affected_labels

    def test_adjacency_change_lands_in_affected_set(self):
        """An added edge between nodes already at that distance moves no
        closure row, yet it changes ``/`` (direct-child) matches: the
        edge's endpoint labels must still be affected."""
        graph = graph_from_edges(
            {"u": "A", "w": "C", "v": "B"}, [("u", "w"), ("w", "v")]
        )
        result = fold(
            MatchEngine(graph, backend="full"), (EdgeAdd("u", "v", 2),)
        )
        assert result.incremental
        assert {"A", "B"} <= result.affected_labels

    def test_patched_graph_is_adopted(self, base):
        graph = base.graph.copy()
        apply_records(graph, RECORDS)
        result = fold(base, RECORDS, patched_graph=graph)
        assert result.engine.graph is graph


class TestFoldGraph:
    def test_empty_diff_returns_the_base_engine(self, base):
        result = fold_graph(base, base.graph.copy())
        assert result.engine is base
        assert result.rows_recomputed == 0
        assert result.affected_labels == frozenset()

    def test_additive_diff_folds_incrementally(self, base):
        target = base.graph.copy()
        apply_records(target, RECORDS)
        result = fold_graph(base, target)
        assert result.incremental
        fresh = MatchEngine(target, base.config)
        assert exact(result.engine.top_k("V0//V1", 8)) == exact(
            fresh.top_k("V0//V1", 8)
        )

    def test_node_departure_forces_rebuild(self, base):
        target = base.graph.copy()
        victim = next(iter(target.nodes()))
        target.remove_node(victim)
        result = fold_graph(base, target)
        assert not result.incremental
        assert result.engine.graph.num_nodes == base.graph.num_nodes - 1


class TestDiffGraphs:
    def test_diff_vocabulary(self, base):
        old = base.graph
        new = old.copy()
        apply_records(new, RECORDS)
        new.relabel_node(2, "V4")
        diff = diff_graphs(old, new)
        assert (0, 999, 2) in diff.edges_added
        assert (0, 1) in diff.edges_removed
        assert diff.nodes_added == {999: "V1"}
        assert diff.labels_changed == {2: "V4"}
        assert not diff.nodes_removed
        assert not diff.empty
        assert diff_graphs(old, old.copy()).empty

    def test_weight_change_surfaces_as_edge_add(self, base):
        old = base.graph
        tail, head, weight = next(iter(old.edges()))
        new = old.copy()
        new.remove_edge(tail, head)
        new.add_edge(tail, head, weight + 7)
        diff = diff_graphs(old, new)
        assert (tail, head, weight + 7) in diff.edges_added
        assert (tail, head) not in diff.edges_removed
