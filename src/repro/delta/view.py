"""Folding delta overlays into engines — the read side of the overlay.

A delta overlay is readable the moment it is folded onto its base: the
patched graph is derived (base copy + records), and the base backend is
asked for a *refreshed* backend.  For backends with incremental refresh
(the ``full`` closure) a fold costs in proportion to its batch: the CSR
is derived from the base one with only the changed rows packed again,
the rows to recompute are the changed tails and their ancestors (one
backward sweep), every other closure-row array is shared with the base,
and the store patches only the head groups whose entries moved — one
shared-arrays engine per fold.  Whether the node set stayed the same is
read off the batch (no ``NodeAdd``; in :func:`fold_graph`, no departed
node), not found by interning the graph again.  Rebuild-only backends
fall back to a fresh build, and so does any fold containing label
changes (interned ids are label-sorted, so a relabel moves the whole
columnar layout).

Two entry points:

* :func:`fold` — base engine + records (``MatchService`` folds its
  pending log through here on the first read after an update);
* :func:`fold_graph` — base engine + target graph (the shard worker's
  ``delta`` op: the coordinator ships a subgraph, the worker diffs it
  against what it serves and folds the difference).

Layering: this module sits on ``repro.engine`` and below the serving
tier — it must never import ``repro.service`` / ``repro.shard`` /
``repro.cli`` (rule RL001 of ``repro lint``, ``config/layers.toml``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.delta.records import (
    DeltaRecord,
    EdgeAdd,
    EdgeRemove,
    LabelChange,
    NodeAdd,
)
from repro.engine.core import MatchEngine
from repro.exceptions import DeltaError
from repro.graph.digraph import LabeledDiGraph


def apply_records(
    graph: LabeledDiGraph, records: Iterable[DeltaRecord]
) -> None:
    """Apply ``records`` to ``graph`` in place, in order.

    Structural errors (:class:`~repro.exceptions.GraphError` and
    friends) propagate raw; callers that need transactional behavior
    must apply to a scratch copy or roll back themselves.
    """
    for record in records:
        record.apply_to(graph)


@dataclass(frozen=True)
class FoldResult:
    """One folded overlay: the patched engine plus the refresh telemetry."""

    engine: MatchEngine
    #: Whether the backend refreshed incrementally (sharing base rows).
    incremental: bool
    #: Closure rows recomputed (== num_nodes on a rebuild).
    rows_recomputed: int
    #: Labels whose answers may have changed (``None`` = assume all).
    affected_labels: frozenset | None
    elapsed_seconds: float
    nodes_added: int = 0
    edges_added: int = 0
    edges_removed: int = 0
    labels_changed: int = 0


def _split_records(records: Sequence[DeltaRecord]):
    edges_added: list[tuple] = []
    edges_removed: list[tuple] = []
    nodes_added: dict = {}
    labels_changed: dict = {}
    for record in records:
        if isinstance(record, EdgeAdd):
            edges_added.append((record.tail, record.head, record.weight))
        elif isinstance(record, EdgeRemove):
            edges_removed.append((record.tail, record.head))
        elif isinstance(record, NodeAdd):
            nodes_added[record.node] = record.label
        elif isinstance(record, LabelChange):
            labels_changed[record.node] = record.label
        else:
            raise DeltaError(f"unknown delta record {record!r}")
    return (
        tuple(edges_added),
        tuple(edges_removed),
        nodes_added,
        labels_changed,
    )


def _refreshed_fold(
    base: MatchEngine,
    graph: LabeledDiGraph,
    edges_added: tuple,
    edges_removed: tuple,
    nodes_added: dict,
    labels_changed: dict,
    started: float,
) -> FoldResult:
    """The shared fold core once the patched graph exists."""
    counts = {
        "nodes_added": len(nodes_added),
        "edges_added": len(edges_added),
        "edges_removed": len(edges_removed),
        "labels_changed": len(labels_changed),
    }
    if labels_changed:
        # A relabel moves nodes across the label-sorted interned-id
        # ranges every backend's layout is keyed by; there is no
        # incremental path, and no invalidation signal survives it.
        engine = MatchEngine(graph, base.config)
        return FoldResult(
            engine=engine,
            incremental=False,
            rows_recomputed=graph.num_nodes,
            affected_labels=None,
            elapsed_seconds=time.perf_counter() - started,
            **counts,
        )
    refresh = base.backend.refreshed(
        graph,
        base.config,
        edges_added=edges_added,
        edges_removed=edges_removed,
        nodes_added=tuple(nodes_added),
    )
    engine = MatchEngine(graph, base.config, _backend=refresh.backend)
    affected = refresh.affected_labels
    if affected is not None:
        extra = set()
        # New nodes are new candidates for their labels even when no
        # closure row changed (an isolated node can match a leaf).
        extra.update(nodes_added.values())
        # Direct-child ('/') matches depend on adjacency, which the
        # distance-based refresh signal does not see: an added edge
        # whose endpoints were already at that distance changes
        # is_direct without changing any closure row (and vice versa
        # for removals with an equal-cost detour).  Adjacency only
        # changes at the changed edges' endpoints, so their labels
        # complete the signal.
        for edge in edges_added + edges_removed:
            extra.add(graph.label(edge[0]))
            extra.add(graph.label(edge[1]))
        affected = affected | frozenset(extra)
    return FoldResult(
        engine=engine,
        incremental=refresh.incremental,
        rows_recomputed=refresh.rows_recomputed,
        affected_labels=affected,
        elapsed_seconds=time.perf_counter() - started,
        **counts,
    )


def fold(
    base: MatchEngine,
    records: Sequence[DeltaRecord],
    patched_graph: LabeledDiGraph | None = None,
) -> FoldResult:
    """Fold ``records`` onto ``base``; the base engine is never mutated.

    ``patched_graph`` short-circuits the copy+apply step when the caller
    already maintains a graph with the records applied (the service's
    pending graph); it is adopted as the new engine's graph, so the
    caller must stop mutating it afterwards.
    """
    started = time.perf_counter()
    records = tuple(records)
    edges_added, edges_removed, nodes_added, labels_changed = _split_records(
        records
    )
    if patched_graph is None:
        patched_graph = base.graph.copy()
        apply_records(patched_graph, records)
    return _refreshed_fold(
        base,
        patched_graph,
        edges_added,
        edges_removed,
        nodes_added,
        labels_changed,
        started,
    )


@dataclass(frozen=True)
class GraphDiff:
    """What separates two graphs, in delta-record vocabulary."""

    edges_added: tuple
    edges_removed: tuple
    nodes_added: dict
    nodes_removed: frozenset
    labels_changed: dict

    @property
    def empty(self) -> bool:
        return not (
            self.edges_added
            or self.edges_removed
            or self.nodes_added
            or self.nodes_removed
            or self.labels_changed
        )


def diff_graphs(old: LabeledDiGraph, new: LabeledDiGraph) -> GraphDiff:
    """The delta that turns ``old`` into ``new``.

    Weight changes surface on the ``edges_added`` side (an add of the
    same edge with a new weight), which is exactly what the incremental
    refresh needs: the tail's rows are dirty either way.
    """
    old_nodes = set(old.nodes())
    new_nodes = set(new.nodes())
    nodes_added = {node: new.label(node) for node in new_nodes - old_nodes}
    nodes_removed = frozenset(old_nodes - new_nodes)
    labels_changed = {
        node: new.label(node)
        for node in old_nodes & new_nodes
        if old.label(node) != new.label(node)
    }
    edges_added = tuple(
        (tail, head, weight)
        for tail, head, weight in new.edges()
        if not old.has_edge(tail, head)
        or old.edge_weight(tail, head) != weight
    )
    edges_removed = tuple(
        (tail, head)
        for tail, head, _weight in old.edges()
        if not new.has_edge(tail, head)
    )
    return GraphDiff(
        edges_added=edges_added,
        edges_removed=edges_removed,
        nodes_added=nodes_added,
        nodes_removed=nodes_removed,
        labels_changed=labels_changed,
    )


def fold_graph(base: MatchEngine, new_graph: LabeledDiGraph) -> FoldResult:
    """Fold ``base`` forward to serve exactly ``new_graph``.

    The shard worker's ``delta`` op: the target graph arrives
    whole (a re-planned subgraph), so the fold diffs it against the
    graph currently served and refreshes incrementally when the diff is
    refresh-shaped (no node departures, no relabels — both of which can
    happen when a re-plan moves a label run to another shard, and both
    of which fall back to a rebuild).
    """
    started = time.perf_counter()
    diff = diff_graphs(base.graph, new_graph)
    if diff.empty:
        return FoldResult(
            engine=base,
            incremental=True,
            rows_recomputed=0,
            affected_labels=frozenset(),
            elapsed_seconds=time.perf_counter() - started,
        )
    if diff.nodes_removed or diff.labels_changed:
        engine = MatchEngine(new_graph, base.config)
        return FoldResult(
            engine=engine,
            incremental=False,
            rows_recomputed=new_graph.num_nodes,
            affected_labels=None,
            elapsed_seconds=time.perf_counter() - started,
            nodes_added=len(diff.nodes_added),
            edges_added=len(diff.edges_added),
            edges_removed=len(diff.edges_removed),
            labels_changed=len(diff.labels_changed),
        )
    return _refreshed_fold(
        base,
        new_graph,
        diff.edges_added,
        diff.edges_removed,
        diff.nodes_added,
        diff.labels_changed,
        started,
    )
