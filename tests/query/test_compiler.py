"""compile_query(): lowering, matcher selection, validation, semantics."""

import pytest

from repro.exceptions import QueryError, QuerySyntaxError
from repro.graph.query import WILDCARD, EdgeType, QueryGraph, QueryTree
from repro.query import (
    CompiledLabelMatcher,
    CompiledQuery,
    ContainsLabel,
    Pattern,
    Q,
    compile_query,
    parse,
)


class TestLowering:
    def test_dsl_to_query_tree(self):
        compiled = compile_query("A//B[C]/D")
        tree = compiled.tree
        assert tree.num_nodes == 4
        assert tree.label(tree.root) == "A"
        # Pre-order node naming: n0=A, n1=B, n2=C, n3=D.
        assert tree.label("n1") == "B"
        assert tree.edge_type("n1", "n3") is EdgeType.CHILD
        assert tree.edge_type("n0", "n1") is EdgeType.DESCENDANT

    def test_wildcard_lowered_to_sentinel(self):
        compiled = compile_query("A//*")
        assert compiled.tree.label("n1") == WILDCARD

    def test_containment_lowered_to_contains_label(self):
        compiled = compile_query("A//~db+ml")
        label = compiled.tree.label("n1")
        assert isinstance(label, ContainsLabel)
        assert label.tokens == ("db", "ml")

    def test_graph_dsl_to_query_graph(self):
        compiled = compile_query("graph(a:A, b:B, c:C; a-b, b-c, c-a)")
        assert compiled.is_cyclic
        pattern = compiled.pattern
        assert isinstance(pattern, QueryGraph)
        assert pattern.num_nodes == 3
        assert pattern.num_edges == 3
        assert pattern.label("a") == "A"

    def test_raw_query_tree_kept_as_is(self):
        tree = QueryTree({"r": "A", "x": "B"}, [("r", "x")])
        compiled = compile_query(tree)
        assert compiled.tree is tree

    def test_raw_query_graph_kept_as_is(self):
        graph = QueryGraph({0: "A", 1: "B"}, [(0, 1)])
        compiled = compile_query(graph)
        assert compiled.pattern is graph
        assert compiled.is_cyclic

    def test_builders_accepted(self):
        assert compile_query(Q("A").descendant("B")).tree.num_nodes == 2
        assert compile_query(
            Pattern.from_edges({"a": "A", "b": "B"}, [("a", "b")])
        ).is_cyclic

    def test_ast_accepted(self):
        assert compile_query(parse("A//B")).tree.num_nodes == 2

    def test_compiled_query_idempotent(self):
        compiled = compile_query("A//B")
        assert compile_query(compiled) is compiled

    def test_unsupported_type_rejected(self):
        with pytest.raises(QueryError, match="cannot compile"):
            compile_query(12345)

    def test_syntax_error_propagates(self):
        with pytest.raises(QuerySyntaxError):
            compile_query("A//")


class TestSemantics:
    def test_counters(self):
        compiled = compile_query("A//B[C][*]/D")
        assert compiled.direct_edges == 1
        assert compiled.wildcards == 1
        assert compiled.containment_nodes == 0
        assert not compiled.has_duplicate_labels
        assert not compiled.is_cyclic
        assert compiled.num_nodes == 5

    def test_duplicate_labels_detected(self):
        assert compile_query("A[B]//B").has_duplicate_labels

    def test_matcher_only_when_containment_present(self):
        assert compile_query("A//B").matcher is None
        assert isinstance(
            compile_query("A//~db").matcher, CompiledLabelMatcher
        )

    def test_matcher_kind(self):
        assert compile_query("A//B").matcher_kind == "engine-default"
        assert compile_query("A//~db").matcher_kind == "containment"

    def test_wildcard_root_rejected(self):
        with pytest.raises(QueryError, match="wildcard roots"):
            compile_query("*//A")

    def test_wildcard_root_rejected_for_raw_tree(self):
        tree = QueryTree({0: WILDCARD, 1: "A"}, [(0, 1)])
        with pytest.raises(QueryError, match="wildcard roots"):
            compile_query(tree)


class TestCompiledLabelMatcher:
    def test_contains_label_matches_token_supersets(self):
        matcher = CompiledLabelMatcher()
        label = ContainsLabel(("db",))
        assert matcher.matches(label, "db")
        assert matcher.matches(label, "db+systems")
        assert not matcher.matches(label, "systems")
        assert matcher.matches(ContainsLabel(("a", "b")), "b+a+c")

    def test_plain_labels_match_by_equality(self):
        matcher = CompiledLabelMatcher()
        assert matcher.matches("db", "db")
        # equality, NOT containment, for plain labels:
        assert not matcher.matches("db", "db+systems")

    def test_wildcard_matches_all(self):
        matcher = CompiledLabelMatcher()
        assert matcher.matches(WILDCARD, "anything")

    def test_data_labels_for(self):
        matcher = CompiledLabelMatcher()
        alphabet = ["db", "db+systems", "ml"]
        assert matcher.data_labels_for(ContainsLabel(("db",)), alphabet) == [
            "db",
            "db+systems",
        ]
        assert matcher.data_labels_for("db", alphabet) == ["db"]
        assert matcher.data_labels_for(WILDCARD, alphabet) is None

    def test_data_labels_are_tokenized_once(self):
        from repro.twig.semantics import _label_tokens

        matcher = CompiledLabelMatcher()
        alphabet = ["tok-once+a", "tok-once+b", "other"]
        matcher.data_labels_for(ContainsLabel(("tok-once",)), alphabet)
        misses = _label_tokens.cache_info().misses
        for _ in range(3):
            assert matcher.data_labels_for(ContainsLabel(("tok-once",)), alphabet) == alphabet[:2]
        assert _label_tokens.cache_info().misses == misses

    def test_the_shared_matcher_unpickles_as_itself(self):
        import pickle

        from repro.query.compiler import COMPILED_MATCHER

        compiled = compile_query("~db//ml")
        assert compiled.matcher is COMPILED_MATCHER
        assert pickle.loads(pickle.dumps(compiled)).matcher is COMPILED_MATCHER
        other = pickle.loads(pickle.dumps(CompiledLabelMatcher(delimiter="|")))
        assert other is not COMPILED_MATCHER and other.delimiter == "|"


class TestRepr:
    def test_compiled_query_repr_shows_dsl(self):
        assert "A//B" in repr(compile_query("A//B"))

    def test_is_compiled_query_type(self):
        assert isinstance(compile_query("A"), CompiledQuery)
