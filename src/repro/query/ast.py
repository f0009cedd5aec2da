"""Typed AST for the declarative query layer.

The DSL parser (:mod:`repro.query.parser`) and the fluent builder
(:mod:`repro.query.builder`) both produce these nodes; the compiler
(:mod:`repro.query.compiler`) lowers them to the physical
:class:`~repro.graph.query.QueryTree` / :class:`~repro.graph.query.QueryGraph`
the engine executes.  Everything is a frozen dataclass, so two queries are
equal exactly when they are structurally identical — the property the
``parse(to_dsl(q)) == q`` round-trip tests rely on.

A tree pattern is a root :class:`PatternNode` whose children hang off
:class:`PatternEdge` instances carrying the axis (``//`` descendant or
``/`` direct child).  A :class:`GraphPattern` is the cyclic kGPM form:
named nodes plus undirected edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from repro.graph.query import EdgeType


class LabelKind(enum.Enum):
    """What a query node's label means."""

    LABEL = "label"            #: exact label equality
    WILDCARD = "wildcard"      #: ``*`` — matches every data node
    CONTAINS = "contains"      #: ``~a+b`` — data label must contain all tokens


@dataclass(frozen=True)
class LabelSpec:
    """One query node's label semantics."""

    kind: LabelKind
    text: str = ""                      #: the label (LABEL only)
    tokens: tuple[str, ...] = ()        #: required tokens (CONTAINS only)

    @staticmethod
    def label(text: str) -> "LabelSpec":
        return LabelSpec(LabelKind.LABEL, text=str(text))

    @staticmethod
    def wildcard() -> "LabelSpec":
        return LabelSpec(LabelKind.WILDCARD)

    @staticmethod
    def contains(*tokens: str) -> "LabelSpec":
        return LabelSpec(LabelKind.CONTAINS, tokens=tuple(str(t) for t in tokens))

    @property
    def is_wildcard(self) -> bool:
        return self.kind is LabelKind.WILDCARD


@dataclass(frozen=True)
class PatternEdge:
    """An edge to a child pattern node, with axis semantics."""

    axis: EdgeType
    child: "PatternNode"


@dataclass(frozen=True)
class PatternNode:
    """A tree-pattern node: a label spec plus ordered child edges."""

    spec: LabelSpec
    children: tuple[PatternEdge, ...] = ()


@dataclass(frozen=True)
class TreePattern:
    """A rooted tree pattern — the AST of one DSL query or builder chain."""

    root: PatternNode

    def walk(self) -> Iterator[PatternNode]:
        """Pre-order iteration over all pattern nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(edge.child for edge in reversed(node.children))

    @property
    def num_nodes(self) -> int:
        return sum(1 for _ in self.walk())


@dataclass(frozen=True)
class GraphPattern:
    """A cyclic (kGPM) pattern: named labeled nodes + undirected edges.

    Node order and edge order are preserved — they are what the pretty
    printer emits and what structural equality compares.
    """

    nodes: tuple[tuple[str, LabelSpec], ...]
    edges: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.nodes)
