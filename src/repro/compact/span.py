"""Span-restricted views over the compact CSR layer.

A *span* is a contiguous interned-id interval — exactly what one label
(or a run of adjacent labels) owns under the label-major id assignment
of :class:`~repro.compact.interner.NodeInterner`.  The sharding layer
(:mod:`repro.shard`) partitions a graph into such spans; this module
supplies the id-level machinery it needs:

* :func:`forward_closure` — the set of ids reachable from a seed span
  (seeds included), computed by BFS over the CSR out-adjacency.  A shard
  that materializes the induced subgraph on this *closed* set answers
  every query rooted inside its span with globally-correct distances:
  shortest paths never leave the forward closure of their source.
* :class:`SpanView` — a read-only restriction of a
  :class:`~repro.compact.csr.CompactGraph` to one span: membership
  tests, the closed member set, and the boundary pairs (edges from a
  member to a node outside the owned span) that the shard writer
  persists.

Layering: like the rest of ``repro.compact`` this module sits directly
above ``repro.graph`` and imports nothing from the closure, storage,
engine, service, or shard layers.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Iterable, Iterator

from repro.compact.csr import CompactGraph
from repro.exceptions import GraphError


def forward_closure(compact: CompactGraph, seeds: Iterable[int]) -> array:
    """Sorted ids of ``seeds`` plus everything reachable from them.

    Plain BFS over the out-adjacency: reachability (not distance) is all
    that is needed to *delimit* the closed set — the distances inside the
    induced subgraph are recomputed exactly by whichever backend the
    shard engine builds on it.
    """
    num_nodes = compact.num_nodes
    visited = bytearray(num_nodes)
    queue: deque[int] = deque()
    for seed in seeds:
        if not 0 <= seed < num_nodes:
            raise GraphError(
                f"seed id {seed} outside the interned range [0, {num_nodes})"
            )
        if not visited[seed]:
            visited[seed] = 1
            queue.append(seed)
    out_offsets = compact.out_offsets
    out_targets = compact.out_targets
    while queue:
        node = queue.popleft()
        for position in range(out_offsets[node], out_offsets[node + 1]):
            target = out_targets[position]
            if not visited[target]:
                visited[target] = 1
                queue.append(target)
    return array("i", (i for i in range(num_nodes) if visited[i]))


class SpanView:
    """One contiguous id span of a compact graph, with its closure.

    ``span`` is a half-open ``(start, stop)`` interval of interned ids.
    The view computes, lazily and once:

    * :meth:`members` — the forward closure of the span (owned ids plus
      every id reachable from them), the node set a shard materializes;
    * :meth:`boundary_pairs` — the ``(tail, head)`` edges leaving the
      owned span from inside the member set (the cut the shard writer
      records so cross-span reachability stays answerable locally).
    """

    __slots__ = ("compact", "start", "stop", "_members", "_pairs")

    def __init__(self, compact: CompactGraph, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= compact.num_nodes:
            raise GraphError(
                f"span [{start}, {stop}) outside the interned range "
                f"[0, {compact.num_nodes})"
            )
        self.compact = compact
        self.start = start
        self.stop = stop
        self._members: array | None = None
        self._pairs: tuple[array, array] | None = None

    # ------------------------------------------------------------------
    def owns(self, node_id: int) -> bool:
        """True when ``node_id`` falls inside the owned span."""
        return self.start <= node_id < self.stop

    def owned_ids(self) -> range:
        """The owned ids themselves (contiguous by construction)."""
        return range(self.start, self.stop)

    # ------------------------------------------------------------------
    def members(self) -> array:
        """Sorted ids of the closed set: owned ∪ reachable-from-owned."""
        if self._members is None:
            self._members = forward_closure(self.compact, self.owned_ids())
        return self._members

    def boundary_pairs(self) -> tuple[array, array]:
        """Parallel ``(tails, heads)`` arrays of edges leaving the span.

        A pair ``(t, h)`` has ``t`` inside the member set and ``h``
        outside the *owned* span — the cut edges whose heads the closed
        set replicates.  Edges wholly inside the owned span are not
        boundary pairs even when their tail is a replicated member.
        """
        if self._pairs is None:
            tails = array("i")
            heads = array("i")
            out_edges = self.compact.out_edges
            for tail in self.members():
                for head, _weight in out_edges(tail):
                    if not self.owns(head):
                        tails.append(tail)
                        heads.append(head)
            self._pairs = (tails, heads)
        return self._pairs

    def replicated_ids(self) -> Iterator[int]:
        """Member ids outside the owned span (present as replicas)."""
        return (i for i in self.members() if not self.owns(i))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanView([{self.start}, {self.stop}) of "
            f"{self.compact.num_nodes} ids)"
        )
