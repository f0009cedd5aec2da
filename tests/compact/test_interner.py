"""Property tests for the NodeInterner: round trips and label geometry."""

import pytest
from hypothesis import given, settings

from repro.compact import NodeInterner
from repro.exceptions import GraphError
from tests.strategies import graphs, label_maps


class TestBasics:
    def test_empty(self):
        interner = NodeInterner({})
        assert len(interner) == 0
        assert interner.labels() == ()
        assert len(interner.label_range("A")) == 0

    def test_unknown_node(self):
        interner = NodeInterner({"x": "A"})
        assert interner.get("y") is None
        with pytest.raises(GraphError):
            interner.intern("y")

    def test_label_of_out_of_range(self):
        interner = NodeInterner({"x": "A"})
        with pytest.raises(GraphError):
            interner.label_of(1)
        with pytest.raises(GraphError):
            interner.label_of(-1)

    def test_data_labels_expand_once_in_id_order(self):
        from repro.compact import interner as interner_module
        from repro.query.compiler import COMPILED_MATCHER, ContainsLabel
        from repro.twig.semantics import EQUALITY

        interner = NodeInterner({"x": "b+t", "y": "a+t", "z": "c", "w": "t"})
        calls = []

        class Counting(type(COMPILED_MATCHER)):
            def data_labels_for(self, query_label, alphabet):
                calls.append(query_label)
                return super().data_labels_for(query_label, alphabet)

        matcher = Counting()
        wanted = ContainsLabel(("t",))
        first = interner.data_labels(matcher, wanted)
        assert first == ("a+t", "b+t", "t")  # the interner's id order
        assert interner.data_labels(matcher, wanted) is first
        assert interner.data_labels(matcher, "*") is None
        assert interner.data_labels(matcher, ContainsLabel(("q",))) == ()
        assert interner.data_labels(matcher, "*") is None
        assert calls == [wanted, "*", ContainsLabel(("q",))]
        # Each matcher keeps its own expansion; matchers need not hash.
        assert interner.data_labels(EQUALITY, "t") == ("t",)
        assert interner.data_labels(matcher, "t") == ("t",)
        assert len(calls) == 4
        Counting.__hash__ = None
        assert interner.data_labels(Counting(), wanted) == first
        # The memo starts over once full.
        for i in range(interner_module.EXPANSION_LIMIT):
            interner.data_labels(EQUALITY, f"l{i}")
        assert len(interner._expansions) <= interner_module.EXPANSION_LIMIT

    def test_mixed_id_types(self):
        interner = NodeInterner({0: "A", "zero": "A", (1, 2): "B"})
        ids = {interner.intern(0), interner.intern("zero"), interner.intern((1, 2))}
        assert ids == {0, 1, 2}


class TestProperties:
    @given(label_maps(min_nodes=1, max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_identity(self, labeled):
        interner = NodeInterner(labeled)
        assert len(interner) == len(labeled)
        for node in labeled:
            assert interner.resolve(interner.intern(node)) == node
        for node_id in range(len(interner)):
            assert interner.intern(interner.resolve(node_id)) == node_id

    @given(label_maps(min_nodes=1, max_nodes=40))
    @settings(max_examples=60, deadline=None)
    def test_label_ranges_partition_the_id_space(self, labeled):
        interner = NodeInterner(labeled)
        covered = []
        for label, id_range in interner.label_ranges():
            assert len(id_range) > 0
            covered.extend(id_range)
            for node_id in id_range:
                assert interner.label_of(node_id) == label
                assert labeled[interner.resolve(node_id)] == label
        # Contiguous, non-overlapping, and exhaustive.
        assert covered == list(range(len(interner)))

    @given(label_maps(min_nodes=1, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_id_order_is_repr_order_within_a_label(self, labeled):
        interner = NodeInterner(labeled)
        for _, id_range in interner.label_ranges():
            members = [interner.resolve(i) for i in id_range]
            assert members == sorted(members, key=repr)

    @given(label_maps(min_nodes=1, max_nodes=40))
    @settings(max_examples=40, deadline=None)
    def test_repr_rank_is_the_tuple_repr_order(self, labeled):
        """Ranks order ids as repr((qnode, node)) does, for any qnode."""
        interner = NodeInterner(labeled)
        rank = interner.repr_rank()
        assert sorted(rank) == list(range(len(interner)))
        by_rank = sorted(range(len(interner)), key=rank.__getitem__)
        for qnode in (0, "u", (1, "v")):
            assert by_rank == sorted(
                range(len(interner)),
                key=lambda i: (repr((qnode, interner.resolve(i))), i),
            )
        assert interner.repr_rank() is rank

    def test_repr_rank_departs_from_id_order_on_repr_prefixes(self):
        class Named(str):
            def __repr__(self):
                return str(self)

        n, n_bang, n_bang_x = Named("n"), Named("n!"), Named("n!x")
        interner = NodeInterner({n: "A", n_bang: "A", n_bang_x: "A"})
        # Plain repr (id) order puts "n" first; "n)" sorts after "n!)".
        assert [interner.resolve(i) for i in range(3)] == [n, n_bang, n_bang_x]
        assert list(interner.repr_rank()) == [2, 0, 1]

    @given(graphs(min_nodes=2, max_nodes=20))
    @settings(max_examples=40, deadline=None)
    def test_deterministic_across_builds(self, graph):
        a = NodeInterner.from_graph(graph)
        b = NodeInterner.from_graph(graph.copy())
        assert a.nodes() == b.nodes()
        assert list(a.label_ranges()) == list(b.label_ranges())
