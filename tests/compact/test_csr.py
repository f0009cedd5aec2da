"""CSR graph tests: adjacency fidelity and search agreement."""

from hypothesis import given, settings

from repro.compact import CompactGraph, NodeInterner
from repro.graph.digraph import graph_from_edges
from repro.graph.traversal import single_source_distances
from tests.strategies import graphs, weighted_graphs


def compact_of(graph):
    return CompactGraph(graph, NodeInterner.from_graph(graph))


class TestAdjacency:
    def test_edges_round_trip(self):
        g = graph_from_edges(
            {"a": "A", "b": "B", "c": "C"},
            [("a", "b", 2.0), ("b", "c", 1.0), ("a", "c", 5.0)],
        )
        cg = compact_of(g)
        interner = cg.interner
        decoded = set()
        for node in g.nodes():
            node_id = interner.intern(node)
            for target_id, weight in cg.out_edges(node_id):
                decoded.add((node, interner.resolve(target_id), weight))
        assert decoded == set(g.edges())

    @given(weighted_graphs(min_nodes=2, max_nodes=18, max_edges=50))
    @settings(max_examples=40, deadline=None)
    def test_degrees_and_has_edge(self, g):
        cg = compact_of(g)
        interner = cg.interner
        for node in g.nodes():
            node_id = interner.intern(node)
            assert cg.out_degree(node_id) == g.out_degree(node)
            assert cg.in_degree(node_id) == g.in_degree(node)
        for tail, head, weight in g.edges():
            assert cg.has_edge(interner.intern(tail), interner.intern(head))
        # In-adjacency mirrors out-adjacency.
        forward = {
            (interner.resolve(s), interner.resolve(t))
            for s in range(cg.num_nodes)
            for t, _ in cg.out_edges(s)
        }
        backward = {
            (interner.resolve(t), interner.resolve(s))
            for s in range(cg.num_nodes)
            for t, _ in cg.in_edges(s)
        }
        assert forward == backward == {(t, h) for t, h, _ in g.edges()}


class TestSearches:
    @given(graphs(min_nodes=2, max_nodes=16, max_edges=40))
    @settings(max_examples=40, deadline=None)
    def test_unit_forward_agrees_with_traversal(self, g):
        cg = compact_of(g)
        interner = cg.interner
        for node in g.nodes():
            targets, dists = cg.shortest_from(interner.intern(node))
            got = {
                interner.resolve(targets[k]): dists[k]
                for k in range(len(targets))
            }
            assert got == single_source_distances(g, node)

    @given(weighted_graphs(min_nodes=2, max_nodes=14, max_edges=35, max_weight=5))
    @settings(max_examples=40, deadline=None)
    def test_weighted_forward_agrees_with_traversal(self, g):
        cg = compact_of(g)
        interner = cg.interner
        for node in g.nodes():
            targets, dists = cg.shortest_from(interner.intern(node))
            got = {
                interner.resolve(targets[k]): dists[k]
                for k in range(len(targets))
            }
            assert got == single_source_distances(g, node)

    @given(weighted_graphs(min_nodes=2, max_nodes=14, max_edges=35, max_weight=4))
    @settings(max_examples=30, deadline=None)
    def test_backward_is_forward_transposed(self, g):
        cg = compact_of(g)
        forward = {
            (s, t): d
            for s in range(cg.num_nodes)
            for t, d in zip(*cg.shortest_from(s))
        }
        backward = {
            (s, t): d
            for t in range(cg.num_nodes)
            for s, d in zip(*cg.shortest_to(t))
        }
        assert forward == backward

    @given(graphs(min_nodes=2, max_nodes=16, max_edges=40))
    @settings(max_examples=40, deadline=None)
    def test_reached_from_is_the_union_of_forward_searches(self, g):
        cg = compact_of(g)
        for label, id_range in cg.interner.label_ranges():
            union = set()
            for source in id_range:
                union.update(cg.shortest_from(source)[0])
            assert cg.reached_from(id_range) == sorted(union), label

    def test_targets_are_id_sorted(self):
        g = graph_from_edges(
            {1: "A", 2: "B", 3: "B", 4: "C"},
            [(1, 3), (1, 2), (3, 4), (2, 4)],
        )
        cg = compact_of(g)
        for s in range(cg.num_nodes):
            targets, _ = cg.shortest_from(s)
            assert list(targets) == sorted(targets)
