"""On-demand closure access — no materialized transitive closure.

Section 3.1/4.1 note that the paper's techniques do not require the full
closure on disk: one can "avoid computing and storing the entire
transitive closure, and assemble only the needed part of the run-time
graph on-demand", answering residual shortest-distance queries with 2-hop
labels (Section 5, "Managing Closure Size").

:class:`OnDemandStore` implements the exact store interface the matching
engines consume, but computes every table lazily from the data graph:

* ``incoming_group(v, alpha)`` — one backward shortest-path search from
  ``v`` (distances *to* ``v``), filtered to ``alpha``-labeled sources;
* ``read_d_table`` / ``read_e_table`` — per label pair, derived from the
  same backward searches (cached per node);
* ``distance`` — answered by a pruned-landmark (2-hop) index.

The searches run over the interned CSR layout of :mod:`repro.compact`:
each cached backward result is a pair of id-sorted parallel arrays, so
filtering to one tail label is a binary-search slice of the label's
contiguous id range, and decoding to ``NodeId`` tuples happens at this
API boundary only.

Every materialized group/table is cached, so repeated queries against the
same label pairs amortize like the paper's "hot lists".  Block reads are
metered through the same counters as the materialized store, which keeps
benchmark comparisons apples-to-apples.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import compress
from typing import Iterator, Sequence

from repro.closure.pll import PrunedLandmarkIndex
from repro.closure.store import compose_edge_views, decode_pair_groups
from repro.compact import CompactGraph, NodeInterner
from repro.compact.tailmajor import leaf_slots
from repro.graph.digraph import Label, LabeledDiGraph, NodeId
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockTable, TableDirectory
from repro.storage.iostats import IOCounter

LEntry = tuple[NodeId, float, bool]
EEntry = tuple[NodeId, NodeId, float]


class OnDemandStore:
    """Closure-store interface backed by on-the-fly graph searches."""

    def __init__(
        self,
        graph: LabeledDiGraph,
        block_size: int = DEFAULT_BLOCK_SIZE,
        counter: IOCounter | None = None,
        distance_index: PrunedLandmarkIndex | None = None,
    ) -> None:
        self._graph = graph
        self.directory = TableDirectory(counter=counter, block_size=block_size)
        self.counter = self.directory.counter
        self._pll = (
            distance_index
            if distance_index is not None
            else PrunedLandmarkIndex(graph)
        )
        # Reuse the 2-hop index's compact artifacts when they describe
        # this very graph (the interner is a pure function of the graph,
        # so sharing is safe); otherwise build our own.
        if self._pll.graph is graph:
            self._interner = self._pll.interner
            self._compact = self._pll.compact_graph
        else:  # pragma: no cover - defensive; indexes are built per graph
            self._interner = NodeInterner.from_graph(graph)
            self._compact = CompactGraph(graph, self._interner)
        # head id -> (source ids ascending, distances) reaching the head.
        self._incoming_cache: dict[int, tuple[array, array]] = {}
        # (tail_label, head_node) -> BlockTable.
        self._groups: dict[tuple[Label | None, NodeId], BlockTable] = {}
        self._e_cache: dict[tuple[Label, Label], list[EEntry]] = {}
        self.searches_run = 0

    # ------------------------------------------------------------------
    # Backward search: distances from every node TO the target.
    # ------------------------------------------------------------------
    def _incoming_distances(self, head_id: int) -> tuple[array, array]:
        cached = self._incoming_cache.get(head_id)
        if cached is not None:
            return cached
        self.searches_run += 1
        result = self._compact.shortest_to(head_id)
        self._incoming_cache[head_id] = result
        return result

    def _incoming_slice(
        self, head_id: int, tail_label: Label | None
    ) -> tuple[array, array, int, int]:
        """The (sources, dists, lo, hi) run matching ``tail_label``."""
        sources, dists = self._incoming_distances(head_id)
        if tail_label is None:
            return sources, dists, 0, len(sources)
        id_range = self._interner.label_range(tail_label)
        lo = bisect_left(sources, id_range.start)
        hi = bisect_left(sources, id_range.stop)
        return sources, dists, lo, hi

    # ------------------------------------------------------------------
    # Store interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledDiGraph:
        """The data graph."""
        return self._graph

    @property
    def interner(self) -> NodeInterner:
        """The id space of :meth:`read_pair_groups`."""
        return self._interner

    def incoming_group(self, head: NodeId, tail_label: Label | None) -> BlockTable:
        """``L^alpha_v`` assembled on demand (metered open + cached)."""
        self.counter.record_open()
        key = (tail_label, head)
        table = self._groups.get(key)
        if table is not None:
            return table
        resolve = self._interner.resolve
        has_edge = self._compact.has_edge
        head_id = self._interner.get(head)
        entries: list[LEntry] = []
        if head_id is not None:
            sources, dists, lo, hi = self._incoming_slice(head_id, tail_label)
            if tail_label is None:
                # Ids interleave labels here; tie-break on repr like the
                # materialized store's wildcard merge.
                keyed = sorted(
                    (dists[k], repr(resolve(sources[k])), sources[k])
                    for k in range(lo, hi)
                )
                entries = [
                    (resolve(s), d, has_edge(s, head_id)) for d, _, s in keyed
                ]
            else:
                # Within one label, id order equals repr order.
                keyed = sorted(
                    (dists[k], sources[k]) for k in range(lo, hi)
                )
                entries = [
                    (resolve(s), d, has_edge(s, head_id)) for d, s in keyed
                ]
        table = self.directory.create(f"od-L/{tail_label!r}/{head!r}", entries)
        self._groups[key] = table
        return table

    def _heads_with_label(self, head_label: Label | None, tail_label: Label | None):
        """Heads whose ``tail_label`` group may be non-empty, ascending; a
        wildcard head under a concrete tail is bounded by one forward sweep
        from the tail label's nodes, since a head it misses has none."""
        if head_label is not None:
            return self._interner.label_range(head_label)
        if tail_label is None:
            return range(len(self._interner))
        return self._compact.reached_from(self._interner.label_range(tail_label))

    def read_d_table(
        self, tail_label: Label | None, head_label: Label | None
    ) -> dict[NodeId, float]:
        """``D^alpha_beta`` derived from backward searches (metered open)."""
        self.counter.record_open()
        resolve = self._interner.resolve
        result: dict[NodeId, float] = {}
        for head_id in self._heads_with_label(head_label, tail_label):
            _, dists, lo, hi = self._incoming_slice(head_id, tail_label)
            best = None
            for k in range(lo, hi):
                if best is None or dists[k] < best:
                    best = dists[k]
            if best is not None:
                result[resolve(head_id)] = best
        return result

    def read_pair_groups(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> Iterator[tuple[int, Sequence[int], Sequence[float]]]:
        """Every ``L`` group of a label pair in id space, assembled lazily.

        Mirrors :meth:`repro.closure.store.ClosureStore.read_pair_groups`
        (one metered open): one backward search per qualifying head node
        supplies its ``(head, tails, distances)`` group, and
        ``direct_only`` keeps only closure edges that are also data-graph
        edges (``/`` axis).  Empty groups are skipped.
        """
        self.counter.record_open()
        has_edge = self._compact.has_edge
        for head_id in self._heads_with_label(head_label, tail_label):
            sources, dists, lo, hi = self._incoming_slice(head_id, tail_label)
            if lo == hi:
                continue
            tails, run = sources[lo:hi], dists[lo:hi]
            if direct_only:
                keep = [has_edge(source_id, head_id) for source_id in tails]
                tails = list(compress(tails, keep))
                if not tails:
                    continue
                run = list(compress(run, keep))
            yield head_id, tails, run

    def read_leaf_slots(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> list:
        """:meth:`read_pair_groups` as one unmemoized tail-major view (see
        :meth:`repro.closure.store.ClosureStore.read_leaf_slots`)."""
        groups = self.read_pair_groups(tail_label, head_label, direct_only)
        return [leaf_slots(groups, self._interner.repr_rank())]

    def read_edge_views(
        self,
        tail_labels: tuple[Label, ...] | None,
        head_labels: tuple[Label, ...] | None,
        direct_only: bool = False,
    ) -> tuple[list, bool]:
        """One query edge's views, composed per call (see
        :meth:`repro.closure.store.ClosureStore.read_edge_views`)."""
        return compose_edge_views(self, tail_labels, head_labels, direct_only)

    def read_pair_table(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> Iterator[tuple[NodeId, NodeId, float]]:
        """:meth:`read_pair_groups` as ``(tail, head, distance)`` triples,
        so the fully-loaded algorithms (Topk, DP-B, brute force) run over
        this store unchanged."""
        return decode_pair_groups(
            self._interner.nodes(),
            self.read_pair_groups(tail_label, head_label, direct_only),
        )

    def read_e_table(
        self, tail_label: Label | None, head_label: Label | None
    ) -> list[EEntry]:
        """``E^alpha_beta`` derived from the same backward searches.

        For each ``alpha``-labeled source, its minimum-distance edge to a
        ``beta`` node; computed by inverting the per-head incoming maps.
        """
        self.counter.record_open()
        if tail_label is not None and head_label is not None:
            cached = self._e_cache.get((tail_label, head_label))
            if cached is not None:
                return cached
        resolve = self._interner.resolve
        best_out: dict[int, tuple[float, int]] = {}
        for head_id in self._heads_with_label(head_label, tail_label):
            sources, dists, lo, hi = self._incoming_slice(head_id, tail_label)
            for k in range(lo, hi):
                source_id = sources[k]
                best = best_out.get(source_id)
                if best is None or dists[k] < best[0]:
                    best_out[source_id] = (dists[k], head_id)
        rows = [
            (resolve(source_id), resolve(head_id), dist)
            for source_id, (dist, head_id) in sorted(best_out.items())
        ]
        rows.sort(key=lambda e: repr(e[0]))
        if tail_label is not None and head_label is not None:
            self._e_cache[(tail_label, head_label)] = rows
        return rows

    @property
    def distance_index(self) -> PrunedLandmarkIndex:
        """The 2-hop index answering point distance queries."""
        return self._pll

    def distance(self, tail: NodeId, head: NodeId) -> float | None:
        """Point distance via the 2-hop index (Section 5)."""
        return self._pll.distance(tail, head)

    def has_direct_edge(self, tail: NodeId, head: NodeId) -> bool:
        """True when ``tail -> head`` is a data-graph edge."""
        return self._graph.has_edge(tail, head)

    # ------------------------------------------------------------------
    def cache_statistics(self) -> dict[str, int]:
        """How much closure material was actually assembled."""
        return {
            "searches_run": self.searches_run,
            "nodes_with_incoming_cached": len(self._incoming_cache),
            "groups_materialized": len(self._groups),
            "cached_entries": sum(
                len(sources) for sources, _ in self._incoming_cache.values()
            ),
            "pll_entries": self._pll.index_size(),
        }

    def stats(self) -> dict:
        """Uniform size/cost statistics (shared schema across backends)."""
        cache = self.cache_statistics()
        cache_bytes = sys.getsizeof(self._incoming_cache)
        for sources, dists in self._incoming_cache.values():
            # getsizeof(array) includes the allocated element buffer.
            cache_bytes += sys.getsizeof(sources) + sys.getsizeof(dists)
        return {
            "pair_count": cache["cached_entries"] + cache["pll_entries"],
            "bytes_estimate": cache_bytes + self._pll.index_bytes(),
            "build_seconds": 0.0,
        }
