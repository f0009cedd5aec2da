"""Graph traversal primitives: BFS/Dijkstra single-source distances.

These are the building blocks of the transitive-closure computation
(Section 3.1) and of the on-demand distance oracle used by the kGPM
verifier.  BFS is used for unit-weight graphs, Dijkstra otherwise.
"""

from __future__ import annotations

import heapq
from collections import deque

from repro.graph.digraph import LabeledDiGraph, NodeId


def bfs_distances(graph: LabeledDiGraph, source: NodeId) -> dict[NodeId, float]:
    """Shortest-path distances from ``source`` on a unit-weight graph.

    The source itself is *not* included (the closure records proper paths
    only, matching Definition of ``Gc``: an edge ``(v, v')`` exists iff
    there is a path from ``v`` to ``v'``; with no self-loops the distance
    of a node to itself via a cycle is still discovered, see below).

    Cycles through the source are handled: if ``source`` is reachable from
    itself via a non-empty path, it appears in the result with that cycle
    length.
    """
    dist: dict[NodeId, float] = {}
    queue: deque[NodeId] = deque([source])
    frontier_dist = {source: 0}
    while queue:
        node = queue.popleft()
        d = frontier_dist[node]
        for nxt in graph.successors(node):
            if nxt not in frontier_dist or (nxt == source and nxt not in dist):
                if nxt == source:
                    # A non-trivial cycle back to the source.
                    if source not in dist:
                        dist[source] = d + 1
                    continue
                frontier_dist[nxt] = d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


def dijkstra_distances(graph: LabeledDiGraph, source: NodeId) -> dict[NodeId, float]:
    """Shortest-path distances from ``source`` with positive edge weights.

    As with :func:`bfs_distances`, only non-empty paths are recorded; the
    source appears iff it lies on a cycle.
    """
    dist: dict[NodeId, float] = {}
    heap: list[tuple[float, int, NodeId]] = []
    counter = 0
    for nxt, weight in graph.successors(source).items():
        heapq.heappush(heap, (weight, counter, nxt))
        counter += 1
    while heap:
        d, _, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nxt, weight in graph.successors(node).items():
            if nxt not in dist:
                heapq.heappush(heap, (d + weight, counter, nxt))
                counter += 1
    return dist


def single_source_distances(
    graph: LabeledDiGraph, source: NodeId, unit_weights: bool | None = None
) -> dict[NodeId, float]:
    """Dispatch to BFS or Dijkstra depending on edge weights."""
    if unit_weights is None:
        unit_weights = graph.is_unit_weighted()
    if unit_weights:
        return bfs_distances(graph, source)
    return dijkstra_distances(graph, source)


def reachable_from(graph: LabeledDiGraph, source: NodeId) -> set[NodeId]:
    """Set of nodes reachable from ``source`` via a non-empty path."""
    seen: set[NodeId] = set()
    stack = list(graph.successors(source))
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(n for n in graph.successors(node) if n not in seen)
    return seen


def connected_component(graph: LabeledDiGraph, source: NodeId) -> set[NodeId]:
    """Weakly-connected component containing ``source``."""
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for nxt in graph.successors(node):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        for prv in graph.predecessors(node):
            if prv not in seen:
                seen.add(prv)
                stack.append(prv)
    return seen
