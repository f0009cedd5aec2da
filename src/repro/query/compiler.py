"""Compile any query form down to what the engine executes.

:func:`compile_query` is the single chokepoint through which every query
enters :class:`~repro.engine.core.MatchEngine`: DSL strings, fluent
builders (:class:`~repro.query.builder.Q` / ``Pattern``), typed ASTs, and
raw :class:`~repro.graph.query.QueryTree` / ``QueryGraph`` objects all
normalize to one :class:`CompiledQuery` carrying

* the physical query (``tree`` or ``pattern``),
* the :class:`~repro.twig.semantics.LabelMatcher` the query's label
  semantics require (``None`` when the engine's configured matcher should
  apply),
* compiled-semantics counters the planner surfaces (wildcards, direct
  ``/`` edges, containment nodes, cyclic-or-tree), and
* :meth:`CompiledQuery.to_dsl` — the canonical pretty-printed DSL, which
  re-parses to the same AST (``parse(to_dsl(q)) == q``).

DSL-lowered tree nodes are named ``n0, n1, ...`` in pre-order of the
query text, and those names key the resulting match assignments; raw
``QueryTree``/``QueryGraph`` inputs keep their own node ids.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import QueryError
from repro.graph.query import WILDCARD, EdgeType, QueryGraph, QueryTree
from repro.query.ast import (
    GraphPattern,
    LabelKind,
    LabelSpec,
    PatternEdge,
    PatternNode,
    TreePattern,
)
from repro.query.builder import Pattern, Q
from repro.query.parser import parse
from repro.twig.semantics import ContainmentMatcher, LabelMatcher


@dataclass(frozen=True)
class ContainsLabel:
    """Query-node label carrying containment semantics (DSL ``~a+b``).

    Used as the literal label inside compiled ``QueryTree``/``QueryGraph``
    objects; :class:`CompiledLabelMatcher` recognizes it and matches data
    labels that contain every token.
    """

    tokens: tuple[str, ...]

    def __str__(self) -> str:
        return "~" + "+".join(self.tokens)


class CompiledLabelMatcher(ContainmentMatcher):
    """Per-node semantics for compiled queries.

    Plain labels match by equality, ``*`` matches everything, and
    :class:`ContainsLabel` nodes match data labels containing all their
    tokens (data labels tokenized like
    :class:`~repro.twig.semantics.ContainmentMatcher`: collections, or
    ``+``-delimited strings).
    """

    def matches(self, query_label, data_label) -> bool:
        if isinstance(query_label, ContainsLabel):
            return frozenset(query_label.tokens) <= self._tokens(data_label)
        return LabelMatcher.matches(self, query_label, data_label)

    def data_labels_for(self, query_label, alphabet):
        if isinstance(query_label, ContainsLabel):
            wanted = frozenset(query_label.tokens)
            return [label for label in alphabet if wanted <= self._tokens(label)]
        return LabelMatcher.data_labels_for(self, query_label, alphabet)

    def __reduce__(self):
        # The shared instance unpickles as itself (a shard worker's
        # queries then hit the per-matcher label expansion memo).
        if self is COMPILED_MATCHER:
            return "COMPILED_MATCHER"
        return super().__reduce__()


#: Shared stateless instance — compiled queries reuse it so engine-side
#: caches keyed on matcher identity hit across queries.
COMPILED_MATCHER = CompiledLabelMatcher()


def workload_matcher(workload, default: LabelMatcher) -> LabelMatcher:
    """Matcher a constrained index must build its closure with.

    Compiled containment nodes carry :class:`ContainsLabel` labels, which
    the plain equality matcher cannot expand into data labels; when the
    declared workload contains one (and the configured matcher is the
    equality default), upgrade to :data:`COMPILED_MATCHER` so the index
    pre-computes the right closure sources.
    """
    if type(default) is not LabelMatcher:
        return default
    for tree in workload:
        for node in tree.nodes():
            if isinstance(tree.label(node), ContainsLabel):
                return COMPILED_MATCHER
    return default


@dataclass(frozen=True, eq=False)
class CompiledQuery:
    """One query, fully normalized: AST + physical form + semantics."""

    ast: TreePattern | GraphPattern
    tree: QueryTree | None
    pattern: QueryGraph | None
    matcher: LabelMatcher | None
    is_cyclic: bool
    direct_edges: int
    wildcards: int
    containment_nodes: int
    has_duplicate_labels: bool

    @property
    def matcher_kind(self) -> str:
        """Label-semantics summary for plans: ``equality``/``containment``
        for compiled matchers, ``engine-default`` when the engine config
        decides."""
        if self.matcher is None:
            return "engine-default"
        if isinstance(self.matcher, CompiledLabelMatcher):
            return "containment"
        return type(self.matcher).__name__

    @property
    def num_nodes(self) -> int:
        query = self.pattern if self.is_cyclic else self.tree
        return query.num_nodes

    def effective_matcher(self, default: LabelMatcher) -> LabelMatcher:
        """The matcher execution must use: this query's compiled matcher,
        falling back to the engine-configured ``default``.  Planner and
        executor both resolve through here so reported and actual
        semantics cannot diverge."""
        return self.matcher if self.matcher is not None else default

    def to_dsl(self) -> str:
        """Canonical DSL text; re-parses to this query's AST."""
        return to_dsl(self.ast)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledQuery({self.to_dsl()!r})"


# ----------------------------------------------------------------------
# Lowering: AST -> QueryTree / QueryGraph
# ----------------------------------------------------------------------


def _spec_to_label(spec: LabelSpec):
    if spec.kind is LabelKind.WILDCARD:
        return WILDCARD
    if spec.kind is LabelKind.CONTAINS:
        return ContainsLabel(spec.tokens)
    return spec.text


def _lower_tree(ast: TreePattern) -> QueryTree:
    labels: dict[str, object] = {}
    edges: list[tuple[str, str, EdgeType]] = []

    def visit(node: PatternNode) -> str:
        name = f"n{len(labels)}"
        labels[name] = _spec_to_label(node.spec)
        for edge in node.children:
            child_name = visit(edge.child)
            edges.append((name, child_name, edge.axis))
        return name

    visit(ast.root)
    return QueryTree(labels, edges)


def _lower_graph(ast: GraphPattern) -> QueryGraph:
    labels = {name: _spec_to_label(spec) for name, spec in ast.nodes}
    return QueryGraph(labels, list(ast.edges))


# ----------------------------------------------------------------------
# Lifting: QueryTree / QueryGraph -> AST (for to_dsl round-trips)
# ----------------------------------------------------------------------


def _label_to_spec(label) -> LabelSpec:
    if label == WILDCARD:
        return LabelSpec.wildcard()
    if isinstance(label, ContainsLabel):
        return LabelSpec.contains(*label.tokens)
    return LabelSpec.label(str(label))


def _lift_tree(query: QueryTree) -> TreePattern:
    def visit(node) -> PatternNode:
        children = tuple(
            PatternEdge(query.edge_type(node, child), visit(child))
            for child in query.children(node)
        )
        return PatternNode(_label_to_spec(query.label(node)), children)

    return TreePattern(visit(query.root))


def _lift_graph(query: QueryGraph) -> GraphPattern:
    nodes = tuple(
        (str(node), _label_to_spec(query.label(node))) for node in query.nodes()
    )
    edges = tuple(
        (str(u), str(v))
        for u, v in sorted(query.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
    )
    return GraphPattern(nodes, edges)


# ----------------------------------------------------------------------
# Pretty printer
# ----------------------------------------------------------------------


def escape_label(text: str) -> str:
    """Render a label as DSL text: bare words pass through, anything
    else is ``{...}``-escaped (labels containing ``}`` are unprintable
    and raise :class:`~repro.exceptions.QueryError`)."""
    if text and all(ch.isalnum() or ch == "_" for ch in text):
        return text
    if "}" in text:
        raise QueryError(
            f"label {text!r} contains '}}' and cannot be written in the DSL"
        )
    return "{" + text + "}"


# Internal alias (historical name used throughout the printer).
_escape = escape_label


def _render_spec(spec: LabelSpec) -> str:
    if spec.kind is LabelKind.WILDCARD:
        return "*"
    if spec.kind is LabelKind.CONTAINS:
        return "~" + "+".join(_escape(token) for token in spec.tokens)
    return _escape(spec.text)


def _render_node(node: PatternNode) -> str:
    parts = [_render_spec(node.spec)]
    if node.children:
        for edge in node.children[:-1]:
            prefix = "/" if edge.axis is EdgeType.CHILD else ""
            parts.append(f"[{prefix}{_render_node(edge.child)}]")
        last = node.children[-1]
        axis = "/" if last.axis is EdgeType.CHILD else "//"
        parts.append(axis + _render_node(last.child))
    return "".join(parts)


def to_dsl(query) -> str:
    """Canonical DSL text for any query form.

    Accepts everything :func:`compile_query` accepts.  The output
    re-parses to the same AST: branch children print as ``[...]``
    predicates, the last child prints as the path continuation, and
    exotic labels are ``{...}``-escaped.
    """
    if isinstance(query, TreePattern):
        return _render_node(query.root)
    if isinstance(query, GraphPattern):
        nodes = ", ".join(
            f"{_escape(name)}:{_render_spec(spec)}" for name, spec in query.nodes
        )
        if not query.edges:
            return f"graph({nodes})"
        edges = ", ".join(
            f"{_escape(u)}-{_escape(v)}" for u, v in query.edges
        )
        return f"graph({nodes}; {edges})"
    return compile_query(query).to_dsl()


# ----------------------------------------------------------------------
# The chokepoint
# ----------------------------------------------------------------------


def _tree_semantics(query: QueryTree) -> tuple[int, int, int, bool]:
    direct = sum(
        1 for _, __, etype in query.edges() if etype is EdgeType.CHILD
    )
    labels = [query.label(u) for u in query.nodes()]
    wildcards = sum(1 for label in labels if label == WILDCARD)
    containment = sum(1 for label in labels if isinstance(label, ContainsLabel))
    duplicates = len(set(labels)) != len(labels)
    return direct, wildcards, containment, duplicates


def _graph_semantics(query: QueryGraph) -> tuple[int, int, bool]:
    labels = [query.label(u) for u in query.nodes()]
    wildcards = sum(1 for label in labels if label == WILDCARD)
    containment = sum(1 for label in labels if isinstance(label, ContainsLabel))
    duplicates = len(set(labels)) != len(labels)
    return wildcards, containment, duplicates


def compile_query(query) -> CompiledQuery:
    """Normalize any supported query form to a :class:`CompiledQuery`.

    Accepted forms:

    * DSL text — ``"A//B[C][*]/D"`` or ``"graph(a:A, b:B; a-b)"``;
    * fluent builders — :class:`~repro.query.builder.Q` and ``Pattern``;
    * typed ASTs — :class:`~repro.query.ast.TreePattern` / ``GraphPattern``;
    * physical queries — :class:`~repro.graph.query.QueryTree` /
      ``QueryGraph`` (kept as-is, node ids preserved);
    * an already-compiled :class:`CompiledQuery` (returned unchanged).

    Raises :class:`~repro.exceptions.QuerySyntaxError` for malformed DSL
    text and :class:`~repro.exceptions.QueryError` for structurally
    invalid patterns (e.g. wildcard roots).
    """
    if isinstance(query, CompiledQuery):
        return query
    if isinstance(query, str):
        query = parse(query)
    elif isinstance(query, (Q, Pattern)):
        query = query.to_ast()

    if isinstance(query, TreePattern):
        tree = _lower_tree(query)
        return _compile_tree(query, tree)
    if isinstance(query, GraphPattern):
        pattern = _lower_graph(query)
        return _compile_graph(query, pattern)
    if isinstance(query, QueryTree):
        return _compile_tree(_lift_tree(query), query)
    if isinstance(query, QueryGraph):
        return _compile_graph(_lift_graph(query), query)
    raise QueryError(
        f"cannot compile {type(query).__name__!r} as a query; pass DSL "
        "text, a Q/Pattern builder, a TreePattern/GraphPattern AST, or a "
        "QueryTree/QueryGraph"
    )


def _compile_tree(ast: TreePattern, tree: QueryTree) -> CompiledQuery:
    if tree.label(tree.root) == WILDCARD:
        raise QueryError(
            "wildcard roots are not supported (every data node would be a "
            "root candidate)"
        )
    direct, wildcards, containment, duplicates = _tree_semantics(tree)
    matcher = COMPILED_MATCHER if containment else None
    return CompiledQuery(
        ast=ast,
        tree=tree,
        pattern=None,
        matcher=matcher,
        is_cyclic=False,
        direct_edges=direct,
        wildcards=wildcards,
        containment_nodes=containment,
        has_duplicate_labels=duplicates,
    )


def _compile_graph(ast: GraphPattern, pattern: QueryGraph) -> CompiledQuery:
    wildcards, containment, duplicates = _graph_semantics(pattern)
    matcher = COMPILED_MATCHER if containment else None
    return CompiledQuery(
        ast=ast,
        tree=None,
        pattern=pattern,
        matcher=matcher,
        is_cyclic=True,
        direct_edges=0,
        wildcards=wildcards,
        containment_nodes=containment,
        has_duplicate_labels=duplicates,
    )
