"""Snapshot isolation over immutable engines.

A :class:`Snapshot` binds one epoch number to one fully-built
:class:`~repro.engine.core.MatchEngine` whose graph and closure indexes
are never mutated after construction.  Requests resolve the service's
current snapshot exactly once and run against it end to end, so a
concurrent update can never tear a request: readers either see the old
graph version everywhere or the new one everywhere (the LSST design's
immutable-index snapshot style).

A snapshot never changes: ``apply_updates`` logs its records, and the
next read folds them onto the current snapshot's engine through
:func:`repro.delta.view.fold` and wraps the result in a new snapshot.
The :class:`UpdateReport` says what one update call logged; the fold's
affected-label signal reaches the result cache at that read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.delta.records import (
    EdgeAdd,
    EdgeRemove,
    LabelChange,
    NodeAdd,
    records_from_updates,
)
from repro.engine.core import MatchEngine, PreparedQuery
from repro.exceptions import QueryError, ServiceError
from repro.graph.digraph import LabeledDiGraph
from repro.graph.query import WILDCARD
from repro.query.compiler import CompiledQuery, ContainsLabel
from repro.twig.semantics import EQUALITY, LabelMatcher


@dataclass
class UpdateReport:
    """What one :meth:`MatchService.apply_updates` call logged, and its cost.

    The records are logged but not yet folded: the fold happens on the
    next read or in the background compactor.
    """

    epoch: int
    nodes_added: int
    edges_added: int
    edges_removed: int
    #: Nodes whose label changed in place (the fold rebuilds when > 0).
    labels_changed: int
    elapsed_seconds: float
    #: Plan-cache entries cleared (node additions and relabels only).
    plans_cleared: int = 0
    #: Overlay records pending after this update.
    pending_records: int = 0


@dataclass(frozen=True)
class Snapshot:
    """One immutable graph version: epoch + engine, never mutated.

    Safe to share across threads; everything a request touches (graph,
    closure store, planner) belongs to this snapshot and outlives it for
    as long as any reader holds a reference.
    """

    epoch: int
    engine: MatchEngine
    created_at: float

    @classmethod
    def initial(cls, engine: MatchEngine) -> "Snapshot":
        return cls(epoch=0, engine=engine, created_at=time.time())

    @property
    def graph(self) -> LabeledDiGraph:
        return self.engine.graph

    def top_k(self, query, k: int, algorithm: str | None = None):
        """Answer directly from this snapshot (bypasses service caches)."""
        return self.engine.top_k(query, k, algorithm=algorithm)

    def prepare(self, query, k: int = 10, algorithm: str | None = None) -> PreparedQuery:
        return self.engine.prepare(query, k, algorithm=algorithm)


def update_records(
    edges_added, edges_removed, nodes_added, labels_changed
) -> tuple:
    """The delta records of one update call (:class:`ServiceError` on bad shapes)."""
    try:
        return records_from_updates(
            edges_added, edges_removed, nodes_added, labels_changed
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ServiceError(f"invalid graph update: {exc}") from exc


def record_counts(records) -> dict:
    """How many records of each kind one update batch holds."""
    return {
        "nodes_added": sum(isinstance(r, NodeAdd) for r in records),
        "edges_added": sum(isinstance(r, EdgeAdd) for r in records),
        "edges_removed": sum(isinstance(r, EdgeRemove) for r in records),
        "labels_changed": sum(isinstance(r, LabelChange) for r in records),
    }


# ----------------------------------------------------------------------
# Cacheability analysis of compiled queries
# ----------------------------------------------------------------------


def _has_canonical_tree_ids(tree) -> bool:
    """True when the tree's node ids are exactly the DSL lowering's
    (``n0, n1, ...`` in pre-order) — i.e. its match assignments are
    keyed identically to any other query with the same canonical DSL."""
    counter = 0

    def visit(node) -> bool:
        nonlocal counter
        if node != f"n{counter}":
            return False
        counter += 1
        return all(visit(child) for child in tree.children(node))

    return visit(tree.root) and counter == tree.num_nodes


def cacheable_dsl(compiled: CompiledQuery) -> str | None:
    """The canonical DSL when it identifies the query losslessly.

    The caches key on canonical DSL text, so a cached answer may be
    served to *any* request with the same DSL — which is only sound when
    the query's physical node ids are exactly what the DSL lowering
    produces (``n0..`` pre-order for trees, the declared names for
    ``graph(...)`` patterns): match assignments are keyed by those ids.
    Raw ``QueryTree``/``QueryGraph`` inputs with their own node ids, or
    with non-string labels whose DSL rendering would collide with
    genuinely-string queries, bypass the caches; so do labels the DSL
    cannot print at all.
    """
    query = compiled.pattern if compiled.is_cyclic else compiled.tree
    for node in query.nodes():
        label = query.label(node)
        if label == WILDCARD or isinstance(label, ContainsLabel):
            continue
        if not isinstance(label, str):
            return None
    if compiled.is_cyclic:
        declared = [name for name, _ in compiled.ast.nodes]
        if list(query.nodes()) != declared:
            return None
    elif not _has_canonical_tree_ids(query):
        return None
    try:
        return compiled.to_dsl()
    except QueryError:  # labels the DSL cannot express (e.g. '}')
        return None


def query_label_footprint(
    compiled: CompiledQuery, engine_matcher: LabelMatcher = EQUALITY
) -> frozenset | None:
    """The exact data labels a query's answer can depend on, or ``None``.

    Plain-labeled tree queries under plain equality semantics touch only
    closure pairs (and, for ``/`` edges, adjacency) between their own
    labels; :func:`repro.delta.view.fold` folds both distance changes and
    the changed edges' endpoint labels into ``affected_labels``, so a
    disjoint footprint provably leaves the results unchanged.  Anything
    that maps query labels onto data labels the footprint cannot
    enumerate — wildcards, containment, cyclic patterns (which run on
    the separately-built bidirected closure), and any non-equality
    ``engine_matcher`` configured on the engine — reports ``None``
    (= invalidate on every update).
    """
    if compiled.is_cyclic or compiled.wildcards or compiled.containment_nodes:
        return None
    if type(compiled.effective_matcher(engine_matcher)) is not LabelMatcher:
        return None
    return frozenset(
        compiled.tree.label(node) for node in compiled.tree.nodes()
    )
