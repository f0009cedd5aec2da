"""CSR adjacency over interned ids — the compact data-graph layout.

A :class:`CompactGraph` freezes a :class:`~repro.graph.digraph.LabeledDiGraph`
into three flat buffers per direction (offsets, targets, weights), built
from stdlib ``array('i')`` / ``array('d')``.  The closure builders run
their per-source searches directly over these buffers, and the search
results come back as parallel id-sorted arrays ready for the
array-backed closure rows.  :meth:`CompactGraph.patched` derives the CSR
of an edge-updated graph from an existing one: only the changed rows are
packed again, everything else is copied in C.

Shortest-distance semantics match :mod:`repro.graph.traversal`: only
non-empty paths count, so a source appears in its own result iff it
lies on a cycle.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from itertools import accumulate, compress
from operator import itemgetter, sub
from typing import Iterable, Iterator

from repro.compact.accel import numpy_or_none
from repro.compact.interner import NodeInterner
from repro.graph.digraph import LabeledDiGraph, NodeId


class CompactGraph:
    """Immutable CSR snapshot of a labeled digraph, both directions.

    Built from a graph, every node's adjacency is packed and sorted.
    :meth:`patched` derives the snapshot of an edge-updated graph over
    the same interned ids from this one in O(changed rows) Python work:
    the changed tails' out-rows and the changed heads' in-rows are read
    from the updated graph, and every other row is copied in C.
    ``unit_weighted`` is exact either way: it is derived from a count of
    the edges whose weight is not 1.
    """

    __slots__ = (
        "interner",
        "num_nodes",
        "num_edges",
        "unit_weighted",
        "_non_unit",
        "out_offsets",
        "out_targets",
        "out_weights",
        "in_offsets",
        "in_targets",
        "in_weights",
    )

    def __init__(
        self, graph: LabeledDiGraph, interner: NodeInterner | None = None
    ) -> None:
        if interner is None:
            interner = NodeInterner.from_graph(graph)
        self.interner = interner
        self.num_nodes = len(interner)
        self.num_edges = graph.num_edges
        self.out_offsets, self.out_targets, self.out_weights = self._pack(
            graph, interner, forward=True
        )
        self.in_offsets, self.in_targets, self.in_weights = self._pack(
            graph, interner, forward=False
        )
        self._non_unit = len(self.out_weights) - self.out_weights.count(1.0)
        self.unit_weighted = self._non_unit == 0

    @classmethod
    def from_buffers(
        cls,
        interner: NodeInterner,
        num_edges: int,
        unit_weighted: bool,
        out_offsets,
        out_targets,
        out_weights,
        in_offsets,
        in_targets,
        in_weights,
    ) -> "CompactGraph":
        """Adopt already-packed CSR buffers (persistence fast path).

        The buffers may be ``array`` objects or read-only memoryviews
        over an ``mmap`` — every probe and search in this class only
        indexes, slices, and bisects, so mapped buffers page in lazily
        and are never copied.
        """
        self = cls.__new__(cls)
        self.interner = interner
        self.num_nodes = len(interner)
        self.num_edges = num_edges
        self.unit_weighted = unit_weighted
        self._non_unit = 0 if unit_weighted else None
        self.out_offsets, self.out_targets, self.out_weights = (
            out_offsets, out_targets, out_weights,
        )
        self.in_offsets, self.in_targets, self.in_weights = (
            in_offsets, in_targets, in_weights,
        )
        return self

    def _non_unit_edges(self) -> int:
        """Number of edges whose weight is not 1 (counted once, on first
        use, for adopted buffers of a weighted graph)."""
        count = self._non_unit
        if count is None:
            count = sum(map((1.0).__ne__, self.out_weights))
            self._non_unit = count
        return count

    def patched(
        self, graph: LabeledDiGraph, tails: Iterable[NodeId]
    ) -> tuple["CompactGraph", list[int]]:
        """The CSR of ``graph``, an edge update of the graph this one was
        packed from over the same interned ids, and the ids of ``tails``
        whose out-row moved, ascending.

        ``tails`` must cover the tail of every added, removed or
        re-weighted edge.  Their out-rows are read from ``graph``, so
        what counts is the patched adjacency, not the update records: a
        parallel edge collapses to the minimum weight, and an edge added
        again at a larger weight moves nothing.  The heads of the edges
        that did move get their in-rows read from ``graph`` too; every
        other row of both directions is copied from this snapshot's
        buffers (see :func:`_splice_rows`).  When no row moved the CSR
        is ``self``.
        """
        intern_all, resolve = self.interner.intern_all, self.interner.resolve
        offsets, targets, weights = self.out_offsets, self.out_targets, self.out_weights
        out_rows: dict[int, list[tuple[int, float]]] = {}
        heads: set[int] = set()
        non_unit = self._non_unit_edges()
        for tail_id in sorted(intern_all(set(tails))):
            lo, hi = offsets[tail_id], offsets[tail_id + 1]
            old = list(zip(targets[lo:hi], weights[lo:hi]))
            new = _row(intern_all, graph.successors(resolve(tail_id)))
            if new != old:
                out_rows[tail_id] = new
                heads.update(map(_first, set(old).symmetric_difference(new)))
                non_unit += _count_non_unit(new) - _count_non_unit(old)
        if not out_rows:
            return self, []
        in_rows = {
            head_id: _row(intern_all, graph.predecessors(resolve(head_id)))
            for head_id in sorted(heads)
        }
        derived = CompactGraph.__new__(CompactGraph)
        derived.interner = self.interner
        derived.num_nodes = self.num_nodes
        derived.num_edges = graph.num_edges
        derived._non_unit = non_unit
        derived.unit_weighted = non_unit == 0
        derived.out_offsets, derived.out_targets, derived.out_weights = _splice_rows(
            self.out_offsets, self.out_targets, self.out_weights, out_rows
        )
        derived.in_offsets, derived.in_targets, derived.in_weights = _splice_rows(
            self.in_offsets, self.in_targets, self.in_weights, in_rows
        )
        return derived, list(out_rows)

    @staticmethod
    def _pack(
        graph: LabeledDiGraph, interner: NodeInterner, forward: bool
    ) -> tuple[array, array, array]:
        offsets = array("i", [0])
        targets = array("i")
        weights = array("d")
        intern = interner.intern
        for node in interner.nodes():
            neighbors = (
                graph.successors(node) if forward else graph.predecessors(node)
            )
            row = sorted((intern(other), w) for other, w in neighbors.items())
            targets.extend(t for t, _ in row)
            weights.extend(w for _, w in row)
            offsets.append(len(targets))
        return offsets, targets, weights

    # ------------------------------------------------------------------
    # Adjacency probes
    # ------------------------------------------------------------------
    def out_edges(self, node_id: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(target_id, weight)`` for out-edges of ``node_id``."""
        targets, weights = self.out_targets, self.out_weights
        for k in range(self.out_offsets[node_id], self.out_offsets[node_id + 1]):
            yield targets[k], weights[k]

    def in_edges(self, node_id: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(source_id, weight)`` for in-edges of ``node_id``."""
        targets, weights = self.in_targets, self.in_weights
        for k in range(self.in_offsets[node_id], self.in_offsets[node_id + 1]):
            yield targets[k], weights[k]

    def out_degree(self, node_id: int) -> int:
        """Number of out-edges of ``node_id``."""
        return self.out_offsets[node_id + 1] - self.out_offsets[node_id]

    def in_degree(self, node_id: int) -> int:
        """Number of in-edges of ``node_id``."""
        return self.in_offsets[node_id + 1] - self.in_offsets[node_id]

    def has_edge(self, tail_id: int, head_id: int) -> bool:
        """True when the direct edge ``tail -> head`` exists (binary search)."""
        lo = self.out_offsets[tail_id]
        hi = self.out_offsets[tail_id + 1]
        k = bisect_left(self.out_targets, head_id, lo, hi)
        return k < hi and self.out_targets[k] == head_id

    def reaching(self, ids: Iterable[int]) -> list[int]:
        """``ids`` and every id with a non-empty path to one of them,
        ascending (one backward sweep over the in-CSR)."""
        offsets, targets = self.in_offsets, self.in_targets
        seen = bytearray(self.num_nodes)
        found: list[int] = []
        stack = list(ids)
        while stack:
            node = stack.pop()
            if not seen[node]:
                seen[node] = 1
                found.append(node)
                stack += targets[offsets[node]:offsets[node + 1]]
        found.sort()
        return found

    def reached_from(self, sources: range) -> list[int]:
        """Ids reached from any of ``sources`` by a non-empty path, ascending
        (one multi-source forward sweep)."""
        offsets, targets = self.out_offsets, self.out_targets
        seen = bytearray(self.num_nodes)
        stack = [t for s in sources for t in targets[offsets[s]:offsets[s + 1]]]
        while stack:
            node = stack.pop()
            if not seen[node]:
                seen[node] = 1
                stack += targets[offsets[node]:offsets[node + 1]]
        return list(compress(range(self.num_nodes), seen))

    # ------------------------------------------------------------------
    # Single-source shortest distances (closure-row builders)
    # ------------------------------------------------------------------
    def shortest_from(self, source: int) -> tuple[array, array]:
        """Distances from ``source`` as id-sorted parallel arrays.

        Returns ``(targets, dists)`` with targets ascending.  The source
        itself appears iff it lies on a non-empty cycle, matching the
        closure definition.
        """
        return self._shortest(source, forward=True)

    def shortest_to(self, target: int) -> tuple[array, array]:
        """Distances *to* ``target`` (backward search), id-sorted."""
        return self._shortest(target, forward=False)

    def shortest_rows(self, sources: Iterable[int]) -> dict[int, tuple[array, array]]:
        """:meth:`shortest_from` of every source, in order.  The searches
        share one memo of the successor lists they read, so a batch of
        overlapping searches (a whole closure, or the rows a refresh
        recomputes) slices each node's adjacency once."""
        adjacency: list = [None] * self.num_nodes
        return {source: self._shortest(source, True, adjacency) for source in sources}

    def _shortest(
        self, origin: int, forward: bool, adjacency: list | None = None
    ) -> tuple[array, array]:
        """One search; ``adjacency`` memoizes unit-weight successor lists
        across the searches of one :meth:`shortest_rows` call."""
        if forward:
            offsets, targets, weights = (
                self.out_offsets, self.out_targets, self.out_weights,
            )
        else:
            offsets, targets, weights = (
                self.in_offsets, self.in_targets, self.in_weights,
            )
        n = self.num_nodes
        dist = array("d", bytes(8 * n))  # zero-filled; 0.0 marks "unreached"
        # A distance of 0.0 can never be legitimate (weights are positive
        # and only non-empty paths count), so 0.0 doubles as the sentinel.
        found: list[int] = []
        if self.unit_weighted:
            # Level-synchronous BFS: every node first reached on level
            # ``d`` is at distance ``d``.
            if adjacency is None:
                adjacency = [None] * n
            append = found.append
            frontier = targets[offsets[origin] : offsets[origin + 1]]
            d = 1.0
            while frontier:
                reached: list[int] = []
                for node in frontier:
                    if dist[node] == 0.0:
                        dist[node] = d
                        append(node)
                        successors = adjacency[node]
                        if successors is None:
                            successors = adjacency[node] = targets[
                                offsets[node] : offsets[node + 1]
                            ].tolist()
                        reached += successors
                frontier = reached
                d += 1.0
        else:
            heap: list[tuple[float, int]] = [
                (weights[k], targets[k])
                for k in range(offsets[origin], offsets[origin + 1])
            ]
            heapq.heapify(heap)
            while heap:
                d, node = heapq.heappop(heap)
                if dist[node] != 0.0:
                    continue
                dist[node] = d
                found.append(node)
                for k in range(offsets[node], offsets[node + 1]):
                    nxt = targets[k]
                    if dist[nxt] == 0.0:
                        heapq.heappush(heap, (d + weights[k], nxt))
        return self._collect(dist, found)

    @staticmethod
    def _collect(dist: array, found: list[int]) -> tuple[array, array]:
        """Turn a dense distance buffer and its ``found`` ids (unordered)
        into (targets, dists) arrays."""
        np = numpy_or_none()
        if np is not None:
            vec = np.frombuffer(dist, dtype=np.float64)
            reached = np.flatnonzero(vec != 0.0)
            out_targets = array("i", reached.astype(np.int32).tolist())
            out_dists = array("d", vec[reached].tolist())
            return out_targets, out_dists
        found.sort()
        return array("i", found), array("d", map(dist.__getitem__, found))


_first = itemgetter(0)
_second = itemgetter(1)


def _row(intern_all, neighbors) -> list[tuple[int, float]]:
    """One node's ``{neighbor: weight}`` as id-sorted ``(id, weight)``."""
    return sorted(zip(intern_all(neighbors), map(float, neighbors.values())))


def _count_non_unit(row: list[tuple[int, float]]) -> int:
    """How many weights of ``row`` are not 1."""
    return len(row) - list(map(_second, row)).count(1.0)


def _splice_rows(
    offsets, targets, weights, rows: dict[int, list[tuple[int, float]]]
) -> tuple[array, array, array]:
    """One CSR direction with the rows of ``rows`` (ids ascending)
    replaced.  The buffers are copied whole in C, and each replaced row is
    one slice assignment per buffer, made from the last row back so the
    base offsets still bound the rows not yet replaced; the offsets are
    then summed again from the row lengths."""
    new_targets, new_weights = array_copy("i", targets), array_copy("d", weights)
    lengths = list(map(sub, offsets[1:], offsets[:-1]))
    for node in reversed(rows):
        row = rows[node]
        lo, hi = offsets[node], offsets[node + 1]
        new_targets[lo:hi] = array("i", map(_first, row))
        new_weights[lo:hi] = array("d", map(_second, row))
        lengths[node] = len(row)
    return array("i", accumulate(lengths, initial=0)), new_targets, new_weights


def array_copy(typecode: str, buffer) -> array:
    """A new ``array`` holding ``buffer`` (an ``array`` or a typed
    memoryview over an mmap section), copied in C."""
    copy = array(typecode)
    copy.frombytes(memoryview(buffer).cast("B"))
    return copy
