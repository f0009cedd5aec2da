"""CSR adjacency over interned ids — the compact data-graph layout.

A :class:`CompactGraph` freezes a :class:`~repro.graph.digraph.LabeledDiGraph`
into four flat buffers per direction (offsets, targets, weights), built
from stdlib ``array('i')`` / ``array('d')``.  The closure builders run
their per-source searches directly over these buffers, and the search
results come back as parallel id-sorted arrays ready for the
array-backed closure rows.

Shortest-distance semantics match :mod:`repro.graph.traversal`: only
non-empty paths count, so a source appears in its own result iff it
lies on a cycle.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import deque
from itertools import compress
from typing import Iterator

from repro.compact.accel import numpy_or_none
from repro.compact.interner import NodeInterner
from repro.graph.digraph import LabeledDiGraph


class CompactGraph:
    """Immutable CSR snapshot of a labeled digraph, both directions."""

    __slots__ = (
        "interner",
        "num_nodes",
        "num_edges",
        "unit_weighted",
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
        self.unit_weighted = graph.is_unit_weighted()
        self.out_offsets, self.out_targets, self.out_weights = self._pack(
            graph, interner, forward=True
        )
        self.in_offsets, self.in_targets, self.in_weights = self._pack(
            graph, interner, forward=False
        )

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
        self.out_offsets, self.out_targets, self.out_weights = (
            out_offsets, out_targets, out_weights,
        )
        self.in_offsets, self.in_targets, self.in_weights = (
            in_offsets, in_targets, in_weights,
        )
        return self

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

    def _shortest(self, origin: int, forward: bool) -> tuple[array, array]:
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
        if self.unit_weighted:
            frontier: deque[tuple[int, float]] = deque()
            for k in range(offsets[origin], offsets[origin + 1]):
                frontier.append((targets[k], weights[k]))
            while frontier:
                node, d = frontier.popleft()
                if dist[node] != 0.0:
                    continue
                dist[node] = d
                for k in range(offsets[node], offsets[node + 1]):
                    nxt = targets[k]
                    if dist[nxt] == 0.0:
                        frontier.append((nxt, d + weights[k]))
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
                for k in range(offsets[node], offsets[node + 1]):
                    nxt = targets[k]
                    if dist[nxt] == 0.0:
                        heapq.heappush(heap, (d + weights[k], nxt))
        return self._collect(dist)

    @staticmethod
    def _collect(dist: array) -> tuple[array, array]:
        """Turn a dense distance buffer into (targets, dists) arrays."""
        np = numpy_or_none()
        if np is not None:
            vec = np.frombuffer(dist, dtype=np.float64)
            reached = np.flatnonzero(vec != 0.0)
            out_targets = array("i", reached.astype(np.int32).tolist())
            out_dists = array("d", vec[reached].tolist())
            return out_targets, out_dists
        out_targets = array("i")
        out_dists = array("d")
        for node, d in enumerate(dist):
            if d != 0.0:
                out_targets.append(node)
                out_dists.append(d)
        return out_targets, out_dists
