"""Interned node identities — the int core of the compact layer.

A :class:`NodeInterner` assigns every node of a labeled graph a dense
integer id.  Ids are label-major: labels are ordered by ``repr`` and
the nodes of each label are ordered by ``repr`` within it, so

* every label owns exactly one contiguous id range
  (:meth:`NodeInterner.label_range`), which turns "all nodes labeled
  alpha" into an O(1) slice, and
* the id order *inside* a label equals the ``repr`` order the decoded
  layers above sort by, so per-label outputs decoded from id-sorted
  arrays match the historical ``repr``-sorted outputs byte for byte.

:meth:`NodeInterner.repr_rank` ranks ids in ``(repr(node) + ")", id)``
order, the ``repr((qnode, node))`` tie order of run-time-graph slots for
any fixed ``qnode``.  It departs from id order on ``repr`` prefixes:
``"n!)" < "n)"``.  :meth:`NodeInterner.label_index` maps every id to
its label's position in the alphabet, and
:meth:`NodeInterner.data_labels` expands a query label over the
id-ordered alphabet once per label matcher; both are memoized.

The mapping is a pure function of the node/label universe: two
interners built from equal graphs are identical, which is what lets
:meth:`repro.closure.transitive.TransitiveClosure.refreshed` share rows
across snapshots without remapping when the node set is unchanged.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import repeat
from typing import Iterable, Iterator, Mapping

from repro.exceptions import GraphError
from repro.graph.digraph import Label, LabeledDiGraph, NodeId


#: Expansions one interner memoizes before it starts over (query labels
#: are open-ended; an alphabet's matchers and hot labels are few).
EXPANSION_LIMIT = 4096


class NodeInterner:
    """Stable, label-sorted ``NodeId <-> int`` mapping, with a lazily
    computed tie-order rank of its ids (:meth:`repr_rank`) and memoized
    label expansions (:meth:`data_labels`)."""

    __slots__ = (
        "_nodes", "_ids", "_ranges", "_starts", "_range_labels", "_rank", "_label_index",
        "_expansions",
    )

    def __init__(self, labeled_nodes: Mapping[NodeId, Label]) -> None:
        by_label: dict[Label, list[NodeId]] = {}
        for node, label in labeled_nodes.items():
            by_label.setdefault(label, []).append(node)
        nodes: list[NodeId] = []
        self._ranges: dict[Label, range] = {}
        #: Range start ids, parallel to ``_range_labels`` (for bisect).
        self._starts: list[int] = []
        self._range_labels: list[Label] = []
        for label in sorted(by_label, key=repr):
            members = sorted(by_label[label], key=repr)
            start = len(nodes)
            nodes.extend(members)
            self._ranges[label] = range(start, len(nodes))
            self._starts.append(start)
            self._range_labels.append(label)
        self._nodes: tuple[NodeId, ...] = tuple(nodes)
        self._ids: dict[NodeId, int] = {
            node: i for i, node in enumerate(self._nodes)
        }
        self._rank: array | None = None
        self._label_index: array | None = None
        self._expansions: dict = {}

    @classmethod
    def from_graph(cls, graph: LabeledDiGraph) -> "NodeInterner":
        """Intern every node of ``graph`` (the usual entry point)."""
        return cls({node: graph.label(node) for node in graph.nodes()})

    @classmethod
    def from_sorted(
        cls,
        nodes: Iterator[NodeId] | tuple[NodeId, ...],
        label_counts: Iterator[tuple[Label, int]],
    ) -> "NodeInterner":
        """Adopt an already-canonical layout (persistence fast path).

        ``nodes`` must be in interned-id order and ``label_counts`` must
        list ``(label, node_count)`` in id-range order — exactly what
        :meth:`nodes` and :meth:`label_ranges` of the interner that was
        persisted produce.  Because the mapping is a pure function of the
        node/label universe, adopting the stored order skips both sorts.
        """
        self = cls.__new__(cls)
        self._nodes = tuple(nodes)
        self._ids = {node: i for i, node in enumerate(self._nodes)}
        self._rank = None
        self._label_index = None
        self._expansions = {}
        self._ranges = {}
        self._starts = []
        self._range_labels = []
        start = 0
        for label, count in label_counts:
            self._ranges[label] = range(start, start + count)
            self._starts.append(start)
            self._range_labels.append(label)
            start += count
        if start != len(self._nodes):
            raise GraphError(
                f"label counts cover {start} ids but {len(self._nodes)} "
                "nodes were supplied"
            )
        return self

    # ------------------------------------------------------------------
    # Encoding / decoding
    # ------------------------------------------------------------------
    def intern(self, node: NodeId) -> int:
        """The id of ``node``; raises :class:`GraphError` when unknown."""
        try:
            return self._ids[node]
        except KeyError as exc:
            raise GraphError(f"node {node!r} is not interned") from exc

    def intern_all(self, nodes: Iterable[NodeId]) -> list[int]:
        """The ids of ``nodes``, in order (one C-level pass); raises
        :class:`GraphError` when one is unknown."""
        try:
            return list(map(self._ids.__getitem__, nodes))
        except KeyError as exc:
            raise GraphError(f"node {exc.args[0]!r} is not interned") from exc

    def get(self, node: NodeId) -> int | None:
        """The id of ``node``, or ``None`` when unknown."""
        return self._ids.get(node)

    def resolve(self, node_id: int) -> NodeId:
        """The node behind ``node_id``."""
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._ids

    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes, in id order."""
        return self._nodes

    def repr_rank(self) -> array:
        """``rank[id]``: the id's position in ``(repr(node) + ")", id)`` order,
        computed once (racing first calls may compute it twice)."""
        rank = self._rank
        if rank is None:
            keys = [repr(node) + ")" for node in self._nodes]
            rank = array("q", bytes(8 * len(keys)))
            for position, node_id in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
                rank[node_id] = position
            self._rank = rank
        return rank

    # ------------------------------------------------------------------
    # Label geometry
    # ------------------------------------------------------------------
    def label_range(self, label: Label) -> range:
        """The contiguous id range of ``label`` (empty when unknown)."""
        return self._ranges.get(label, range(0))

    def label_of(self, node_id: int) -> Label:
        """The label owning ``node_id`` (O(log #labels) bisect)."""
        if not 0 <= node_id < len(self._nodes):
            raise GraphError(f"interned id {node_id} out of range")
        return self._range_labels[bisect_right(self._starts, node_id) - 1]

    def label_index(self) -> array:
        """``index[id]``: the position in :meth:`labels` of the id's label,
        computed once (racing first calls may compute it twice)."""
        index = self._label_index
        if index is None:
            index = array("i")
            for position, label in enumerate(self._range_labels):
                index.extend(repeat(position, len(self._ranges[label])))
            self._label_index = index
        return index

    def labels(self) -> tuple[Label, ...]:
        """All labels, in id-range order."""
        return tuple(self._range_labels)

    def data_labels(self, matcher, query_label) -> tuple[Label, ...] | None:
        """``matcher.data_labels_for(query_label, labels())`` as a tuple in
        id-range order (``None``: every label), computed once per
        ``(matcher, query_label)``: the alphabet never changes, so the
        kernel bind and the planner share one expansion.  Matchers key by
        identity (they need not be hashable) and each entry keeps its
        matcher alive, so an id cannot alias.  Racing first calls may
        expand twice; one dict store publishes it."""
        key = (id(matcher), query_label)
        found = self._expansions.get(key)
        if found is not None:
            return found[1]
        data_labels = matcher.data_labels_for(query_label, self.labels())
        if data_labels is not None:
            data_labels = tuple(data_labels)
        if len(self._expansions) >= EXPANSION_LIMIT:
            self._expansions.clear()
        self._expansions[key] = (matcher, data_labels)
        return data_labels

    def label_ranges(self) -> Iterator[tuple[Label, range]]:
        """Iterate ``(label, id_range)`` in id order."""
        for label in self._range_labels:
            yield label, self._ranges[label]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NodeInterner(nodes={len(self._nodes)}, "
            f"labels={len(self._range_labels)})"
        )
