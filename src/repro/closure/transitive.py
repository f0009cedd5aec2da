"""Transitive closure with shortest distances (Section 3.1 pre-computation).

``Gc`` has an edge ``(v, v')`` iff a non-empty directed path runs from
``v`` to ``v'`` in ``G``; its weight is the shortest such distance.  We
compute it with one BFS (unit weights) or Dijkstra (general positive
weights) per source node — the ``O(n_G * m_G)`` method the paper cites —
running over the CSR layout of :mod:`repro.compact` and storing each row
as parallel id-sorted ``(target, dist)`` arrays instead of nested dicts.

External callers keep the ``NodeId`` vocabulary: every public method
interns/decodes at the call boundary (see DESIGN.md, "The interned-ID
boundary contract"), so semantics are unchanged while a closure pair
costs ~12 bytes instead of a dict entry.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from collections.abc import Mapping as MappingABC
from collections import defaultdict
from itertools import compress
from operator import itemgetter, ne
from typing import Iterable, Iterator, Mapping

from repro.compact import ClosureRows, CompactGraph, NodeInterner
from repro.exceptions import ClosureError
from repro.graph.digraph import Label, LabeledDiGraph, NodeId


class _RowView(MappingABC):
    """Read-only ``{target: dist}`` view over one array-backed row."""

    __slots__ = ("_interner", "_targets", "_dists")

    def __init__(self, interner: NodeInterner, targets: array, dists: array) -> None:
        self._interner = interner
        self._targets = targets
        self._dists = dists

    def __getitem__(self, node: NodeId) -> float:
        node_id = self._interner.get(node)
        if node_id is not None:
            targets = self._targets
            k = bisect_left(targets, node_id)
            if k < len(targets) and targets[k] == node_id:
                return self._dists[k]
        raise KeyError(node)

    def __iter__(self) -> Iterator[NodeId]:
        resolve = self._interner.resolve
        return (resolve(t) for t in self._targets)

    def __len__(self) -> int:
        return len(self._targets)

    # O(n) bulk accessors over the parallel arrays — the Mapping mixins
    # would re-intern and binary-search per key.
    def items(self):
        resolve = self._interner.resolve
        return [
            (resolve(t), d) for t, d in zip(self._targets, self._dists)
        ]

    def values(self):
        return list(self._dists)

    def get(self, node: NodeId, default=None):
        try:
            return self[node]
        except KeyError:
            return default


class TransitiveClosure:
    """All-pairs reachability with shortest distances.

    Parameters
    ----------
    graph:
        The data graph.
    sources:
        Optional subset of nodes to expand from.  The default expands every
        node (the full closure of the paper's offline pre-computation); a
        restricted source set supports label-constrained, on-demand closures
        (Section 5, "Managing Closure Size").
    """

    def __init__(
        self, graph: LabeledDiGraph, sources: Iterable[NodeId] | None = None
    ) -> None:
        self._graph = graph
        # Materializing the source list is the caller's workload-analysis
        # cost, not closure construction — keep it out of build_seconds.
        expand = list(sources) if sources is not None else None
        started = time.perf_counter()
        self._interner = NodeInterner.from_graph(graph)
        self._compact = CompactGraph(graph, self._interner)
        if expand is None:
            self._rows = ClosureRows.build(self._compact)
        else:
            self._rows = ClosureRows.build(
                self._compact, (self._interner.intern(s) for s in expand)
            )
        self.build_seconds = time.perf_counter() - started
        self._partial = sources is not None
        self._type_counts: dict[tuple[Label, Label], int] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def _from_rows(
        cls,
        graph: LabeledDiGraph,
        interner: NodeInterner,
        compact: CompactGraph,
        rows: ClosureRows,
        partial: bool = False,
    ) -> "TransitiveClosure":
        """Adopt already-built compact artifacts (refresh/persistence)."""
        self = cls.__new__(cls)
        self._graph = graph
        self._interner = interner
        self._compact = compact
        self._rows = rows
        self.build_seconds = 0.0
        self._partial = partial
        self._type_counts = None
        return self

    @classmethod
    def from_distances(
        cls,
        graph: LabeledDiGraph,
        distances: Mapping[NodeId, Mapping[NodeId, float]],
        partial: bool = False,
        _share_rows: bool = False,
    ) -> "TransitiveClosure":
        """Rebuild a closure from previously computed distance rows.

        Used by index persistence (:mod:`repro.engine`): the shortest-path
        computation — the expensive offline phase — is skipped entirely and
        ``build_seconds`` is reported as 0.  ``_share_rows`` is retained
        for API compatibility; rows are always re-encoded into the
        array-backed layout (sharing now happens structurally, one
        immutable array pair per row).
        """
        interner = NodeInterner.from_graph(graph)
        compact = CompactGraph(graph, interner)
        interned: dict[int, dict[int, float]] = {}
        for tail, row in distances.items():
            interned[interner.intern(tail)] = {
                interner.intern(head): float(dist) for head, dist in row.items()
            }
        rows = ClosureRows.from_interned_mapping(interned)
        return cls._from_rows(graph, interner, compact, rows, partial=partial)

    def refreshed(
        self,
        graph: LabeledDiGraph,
        changed_tails: Iterable[NodeId],
        *,
        same_nodes: bool,
    ) -> tuple["TransitiveClosure", int, frozenset, dict | None]:
        """An updated closure over ``graph``, reusing unaffected rows.

        ``changed_tails`` are the tail endpoints of every added or removed
        edge.  A shortest path from ``s`` can only change if it runs
        through a changed edge, which requires ``s`` to reach that edge's
        tail in this closure's graph — so only the changed tails and their
        ancestors, found by one backward sweep over the base CSR, are
        recomputed; every other row carries over verbatim (the arrays are
        immutable and shared, not copied).  New nodes of ``graph`` get
        fresh rows.

        ``same_nodes`` says, from the batch, that it kept the node set and
        every label (no node joined, left or was relabelled).  The
        refreshed closure then keeps this closure's :class:`NodeInterner`
        object, so its memoized ``repr_rank`` and label expansions stay
        shared, and its CSR is :meth:`CompactGraph.patched` from this one:
        only tails whose adjacency really moved count as changed.
        Otherwise ``graph`` is interned afresh, its CSR is packed afresh
        and the carried rows are re-encoded under the new ids.

        Returns ``(closure, rows_recomputed, affected_labels,
        dirty_groups)``.  ``affected_labels`` is the set of labels of nodes
        involved in any pair whose distance actually changed — the
        selective cache invalidation signal of the serving layer.
        ``dirty_groups`` maps each ``(tail label, head label)`` pair whose
        :class:`~repro.closure.store.ClosureStore` pair table differs from
        this closure's to ``{head id: [tail id, ...]}``: the heads whose
        group holds a moved entry, and the recomputed tails whose entry
        into that head moved (its distance changed, it appeared or left,
        or its direct flag flipped).  It is ``None`` without
        ``same_nodes``: the ids moved, which leaves no table reusable.  Only full (non-partial)
        closures support refresh; partial ones must be rebuilt against
        their source set.
        """
        if self._partial:
            raise ClosureError(
                "partial closures cannot be incrementally refreshed; "
                "rebuild from the declared source set"
            )
        old_interner = self._interner
        if not same_nodes:
            return self._refreshed_anew(graph, changed_tails)
        if len(graph) != len(old_interner):
            raise ClosureError(
                f"a refresh that keeps the node set got {len(graph)} "
                f"nodes for {len(old_interner)}"
            )
        compact, moved_tails = self._compact.patched(graph, changed_tails)
        labels, label_index = old_interner.labels(), old_interner.label_index()

        def label_of(node_id: int) -> Label:
            return labels[label_index[node_id]]

        old_rows, old_compact = self._rows, self._compact
        moved = set(moved_tails)
        affected: set = set()
        dirty: defaultdict = defaultdict(lambda: defaultdict(list))
        updates = compact.shortest_rows(old_compact.reaching(moved_tails))
        for source_id, new_row in updates.items():
            # A loaded closure keeps no row for a node without successors.
            heads = _moved_heads(old_rows.row(source_id) or _EMPTY_ROW, new_row)
            if heads:
                affected.add(label_of(source_id))
                affected.update(map(label_of, heads))
            if source_id in moved:
                # Its direct flags follow its out-row's head set.
                heads.update(
                    set(_out_row(old_compact, source_id)).symmetric_difference(
                        _out_row(compact, source_id)
                    )
                )
            tail_label = label_of(source_id)
            for head in heads:
                dirty[tail_label, label_of(head)][head].append(source_id)
        return (
            TransitiveClosure._from_rows(
                graph, old_interner, compact, old_rows.replaced(updates)
            ),
            len(updates),
            frozenset(affected),
            dict(dirty),
        )

    def _refreshed_anew(
        self, graph: LabeledDiGraph, changed_tails: Iterable[NodeId]
    ) -> tuple["TransitiveClosure", int, frozenset, None]:
        """:meth:`refreshed` when the node set or a label moved: the ids
        are interned afresh, the CSR is packed afresh and every carried
        row is re-encoded under the new ids."""
        interner = NodeInterner.from_graph(graph)
        compact = CompactGraph(graph, interner)
        old_interner = self._interner
        changed_old = [
            old_id for old_id in map(old_interner.get, changed_tails) if old_id is not None
        ]
        stale = set(self._compact.reaching(changed_old))
        old_to_new = list(map(interner.get, old_interner.nodes()))
        label = graph.label
        rows: dict[int, tuple[array, array]] = {}
        recomputed = 0
        affected: set = set()
        for source_id, node in enumerate(interner.nodes()):
            old_id = old_interner.get(node)
            old_row = self._rows.row(old_id) if old_id is not None else None
            if old_row is not None and old_id not in stale:
                carried = _remap_row(old_row, old_to_new)
                if carried is not None:
                    rows[source_id] = carried
                    continue
            new_row = compact.shortest_from(source_id)
            rows[source_id] = new_row
            recomputed += 1
            old_decoded = _decode_row(old_interner, old_row) if old_row is not None else {}
            new_decoded = _decode_row(interner, new_row)
            if old_decoded != new_decoded:
                affected.add(label(node))
                for head in old_decoded.keys() | new_decoded.keys():
                    # A head of the old row may have left the graph.
                    if old_decoded.get(head) != new_decoded.get(head) and head in graph:
                        affected.add(label(head))
        return (
            TransitiveClosure._from_rows(graph, interner, compact, ClosureRows(rows)),
            recomputed,
            frozenset(affected),
            None,
        )

    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledDiGraph:
        """The underlying data graph."""
        return self._graph

    @property
    def interner(self) -> NodeInterner:
        """The ``NodeId <-> int`` mapping this closure is encoded with."""
        return self._interner

    @property
    def compact_graph(self) -> CompactGraph:
        """The CSR snapshot of the data graph (shared with the store)."""
        return self._compact

    @property
    def rows(self) -> ClosureRows:
        """The interned array-backed rows (for the columnar store layer)."""
        return self._rows

    @property
    def num_pairs(self) -> int:
        """Number of closure edges (``|Ec|``) — the Table 2 size statistic."""
        return self._rows.num_pairs

    @property
    def is_partial(self) -> bool:
        """True when built from a restricted source set."""
        return self._partial

    def sources(self) -> Iterator[NodeId]:
        """Iterate the closure sources (all graph nodes unless partial)."""
        resolve = self._interner.resolve
        return (resolve(s) for s in self._rows.sources())

    def distance(self, tail: NodeId, head: NodeId) -> float | None:
        """``delta_min(tail, head)`` or ``None`` when ``head`` is unreachable."""
        tail_id = self._interner.get(tail)
        if tail_id is None or tail_id not in self._rows:
            if self._partial:
                raise ClosureError(
                    f"node {tail!r} was not a closure source (partial closure)"
                )
            return None
        head_id = self._interner.get(head)
        if head_id is None:
            return None
        return self._rows.get(tail_id, head_id)

    def successors(self, tail: NodeId) -> Mapping[NodeId, float]:
        """All closure successors of ``tail`` with their distances."""
        tail_id = self._interner.get(tail)
        row = self._rows.row(tail_id) if tail_id is not None else None
        if row is None:
            if self._partial and tail in self._graph:
                raise ClosureError(
                    f"node {tail!r} was not a closure source (partial closure)"
                )
            return {}
        return _RowView(self._interner, row[0], row[1])

    def pairs(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Iterate all closure triples ``(tail, head, distance)``."""
        resolve = self._interner.resolve
        for source_id, target_id, dist in self._rows.pairs():
            yield resolve(source_id), resolve(target_id), dist

    def pairs_with_labels(
        self,
    ) -> Iterator[tuple[NodeId, Label, NodeId, Label, float]]:
        """Iterate triples annotated with endpoint labels."""
        label = self._graph.label
        for tail, head, dist in self.pairs():
            yield tail, label(tail), head, label(head), dist

    def same_type_statistics(self) -> dict[tuple[Label, Label], int]:
        """Count closure edges per label pair (the paper's ``theta`` numbers).

        Two closure edges have the same *type* when their endpoint labels
        agree; ``theta`` is the average count per type and drives the
        average-case bound ``m_R = theta * n_T`` (Section 1/3.1).  Counts
        come straight from the id-sorted rows: each label's targets form
        one contiguous run found by binary search.  Memoized (the closure
        is immutable).
        """
        if self._type_counts is None:
            counts: dict[tuple[Label, Label], int] = {}
            label_of = self._interner.label_of
            ranges = list(self._interner.label_ranges())
            for source_id in self._rows.sources():
                targets, _ = self._rows.row(source_id)
                if not targets:
                    continue
                alpha = label_of(source_id)
                for beta, id_range in ranges:
                    lo = bisect_left(targets, id_range.start)
                    hi = bisect_left(targets, id_range.stop)
                    if hi > lo:
                        key = (alpha, beta)
                        counts[key] = counts.get(key, 0) + (hi - lo)
            self._type_counts = counts
        return self._type_counts

    def average_theta(self) -> float:
        """Average number of closure edges of the same type."""
        counts = self.same_type_statistics()
        if not counts:
            return 0.0
        return sum(counts.values()) / len(counts)

    def stats(self) -> dict:
        """Uniform size/cost statistics (shared schema across backends)."""
        return {
            "pair_count": self.num_pairs,
            "bytes_estimate": self._rows.bytes_resident(),
            "build_seconds": self.build_seconds,
            "partial": self._partial,
        }


_EMPTY_ROW: tuple[array, array] = (array("i"), array("d"))
_first = itemgetter(0)


def _moved_heads(old_row: tuple, new_row: tuple) -> set[int]:
    """The heads whose distance differs between two rows of one source
    (a head in only one of them counts)."""
    old_targets, old_dists = old_row
    new_targets, new_dists = new_row
    old_dist = dict(zip(old_targets, old_dists)).get
    moved = set(compress(new_targets, map(ne, map(old_dist, new_targets), new_dists)))
    moved.update(set(old_targets).difference(new_targets))
    return moved


def _out_row(compact: CompactGraph, node_id: int):
    """The out-neighbor ids of ``node_id`` (a buffer slice)."""
    return compact.out_targets[compact.out_offsets[node_id] : compact.out_offsets[node_id + 1]]


def _decode_row(
    interner: NodeInterner, row: tuple[array, array]
) -> dict[NodeId, float]:
    targets, dists = row
    return dict(zip(map(interner.nodes().__getitem__, targets), dists))


def _remap_row(
    row: tuple[array, array], old_to_new: list[int | None]
) -> tuple[array, array] | None:
    """Re-encode a row under a new interner; ``None`` if a target vanished."""
    targets, dists = row
    pairs: list[tuple[int, float]] = []
    for k in range(len(targets)):
        new_id = old_to_new[targets[k]]
        if new_id is None:
            return None
        pairs.append((new_id, dists[k]))
    pairs.sort()
    return (
        array("i", (t for t, _ in pairs)),
        array("d", (d for _, d in pairs)),
    )
