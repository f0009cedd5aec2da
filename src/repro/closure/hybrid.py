"""Hybrid hot/cold closure store (Section 5, "Managing Closure Size").

The paper proposes: "pre-compute and store in the transitive closure only
the 'hot' lists ..., while others may be computed on the fly by using the
2-hop node labeling techniques".  :class:`HybridStore` implements exactly
that split: the label pairs with the most closure edges (the hot lists,
which dominate storage and are the ones full scans amortize well) are
served from a materialized :class:`~repro.closure.store.ClosureStore`,
and every other pair falls back to the
:class:`~repro.closure.ondemand.OnDemandStore`'s backward searches and
2-hop point queries.

The class implements the same store interface the engines consume, so
``TopkEN``/``DPP`` run unchanged over any hot fraction from 0 (pure
on-demand) to 1 (fully materialized).
"""

from __future__ import annotations

from repro.closure.ondemand import OnDemandStore
from repro.closure.pll import PrunedLandmarkIndex
from repro.closure.store import ClosureStore, compose_edge_views
from repro.closure.transitive import TransitiveClosure
from repro.exceptions import ClosureError
from repro.graph.digraph import Label, LabeledDiGraph, NodeId
from repro.storage.blocks import DEFAULT_BLOCK_SIZE, BlockTable
from repro.storage.iostats import IOCounter


class HybridStore:
    """Hot label pairs materialized; cold pairs assembled on demand."""

    def __init__(
        self,
        graph: LabeledDiGraph,
        hot_fraction: float = 0.2,
        block_size: int = DEFAULT_BLOCK_SIZE,
        counter: IOCounter | None = None,
        closure: TransitiveClosure | None = None,
        distance_index=None,
        materialized: ClosureStore | None = None,
        hot_pairs: frozenset | None = None,
    ) -> None:
        if not 0.0 <= hot_fraction <= 1.0:
            raise ClosureError(
                f"hot_fraction must be in [0, 1], got {hot_fraction}"
            )
        self._graph = graph
        if materialized is not None:
            # Adopt a pre-laid-out hot side (the binary mmap restore
            # path); its closure backs the hot-pair statistics too.
            self._materialized = materialized
            closure = materialized.closure
        else:
            if closure is None:
                closure = TransitiveClosure(graph)
            self._materialized = ClosureStore(
                graph, closure, block_size=block_size, counter=counter
            )
        self.counter = self._materialized.counter
        if distance_index is None:
            # Build the cold-side 2-hop index over the closure's compact
            # artifacts instead of re-interning the same graph twice.
            distance_index = PrunedLandmarkIndex(
                graph, compact=closure.compact_graph
            )
        self._ondemand = OnDemandStore(
            graph, block_size=block_size, counter=self.counter,
            distance_index=distance_index,
        )
        self.hot_fraction = hot_fraction
        self.hot_pairs = (
            frozenset(hot_pairs)
            if hot_pairs is not None
            else self._select_hot_pairs(closure, hot_fraction)
        )

    @staticmethod
    def _select_hot_pairs(
        closure: TransitiveClosure, hot_fraction: float
    ) -> frozenset[tuple[Label, Label]]:
        counts = closure.same_type_statistics()
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        keep = round(len(ranked) * hot_fraction)
        return frozenset(pair for pair, _ in ranked[:keep])

    # ------------------------------------------------------------------
    def _is_hot(self, tail_label: Label | None, head_label: Label | None) -> bool:
        """A lookup is served hot only when all its pairs are hot.

        Wildcard lookups (``None`` on either side) span many pairs; they
        are served hot only when *every* matching pair is hot, otherwise
        the on-demand path answers them uniformly.
        """
        if tail_label is not None and head_label is not None:
            return (tail_label, head_label) in self.hot_pairs
        # Wildcards: conservative check across the matching pairs.
        for pair in self._materialized._pairs_matching(tail_label, head_label):
            if pair not in self.hot_pairs:
                return False
        return True

    def _side(self, tail_label: Label | None, head_label: Label | None):
        """The store serving a lookup: hot tables or on-demand searches."""
        if self._is_hot(tail_label, head_label):
            return self._materialized
        return self._ondemand

    # ------------------------------------------------------------------
    # Store interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledDiGraph:
        """The data graph."""
        return self._graph

    @property
    def closure(self) -> TransitiveClosure:
        """The full closure backing the materialized (hot) side."""
        return self._materialized.closure

    @property
    def interner(self):
        """The id space of :meth:`read_pair_groups` (both sides share it:
        interning is a pure function of the graph)."""
        return self._materialized.interner

    @property
    def distance_index(self):
        """The 2-hop index answering point distance queries (cold side)."""
        return self._ondemand.distance_index

    def incoming_group(self, head: NodeId, tail_label: Label | None) -> BlockTable:
        """``L^alpha_v`` from the hot tables when possible."""
        side = self._side(tail_label, self._graph.label(head))
        return side.incoming_group(head, tail_label)

    def read_d_table(
        self, tail_label: Label | None, head_label: Label | None
    ) -> dict[NodeId, float]:
        """``D^alpha_beta`` from the hot side or recomputed."""
        return self._side(tail_label, head_label).read_d_table(
            tail_label, head_label
        )

    def read_e_table(self, tail_label, head_label):
        """``E^alpha_beta`` from the hot side or recomputed."""
        return self._side(tail_label, head_label).read_e_table(
            tail_label, head_label
        )

    def read_pair_groups(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ):
        """Full ``L^alpha_beta`` groups in id space, hot tables when possible."""
        return self._side(tail_label, head_label).read_pair_groups(
            tail_label, head_label, direct_only
        )

    def read_leaf_slots(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> list:
        """Tail-major views of a label pair's tables, hot tables when possible."""
        return self._side(tail_label, head_label).read_leaf_slots(
            tail_label, head_label, direct_only
        )

    def read_edge_views(
        self,
        tail_labels: tuple[Label, ...] | None,
        head_labels: tuple[Label, ...] | None,
        direct_only: bool = False,
    ) -> tuple[list, bool]:
        """One query edge's views, each label pair from its own side,
        composed per call."""
        return compose_edge_views(self, tail_labels, head_labels, direct_only)

    def read_pair_table(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ):
        """Full ``L^alpha_beta`` stream, hot tables when possible.

        Gives the fully-loaded algorithms (Topk, DP-B, brute force) the
        same interface as the other stores.
        """
        return self._side(tail_label, head_label).read_pair_table(
            tail_label, head_label, direct_only
        )

    def distance(self, tail: NodeId, head: NodeId) -> float | None:
        """Point distances always use the 2-hop index (uniform semantics)."""
        return self._ondemand.distance(tail, head)

    def has_direct_edge(self, tail: NodeId, head: NodeId) -> bool:
        """True when ``tail -> head`` is a data-graph edge."""
        return self._graph.has_edge(tail, head)

    # ------------------------------------------------------------------
    def _shared_stats_from(self, ondemand: dict) -> dict:
        """Cold-side contributions that duplicate hot-side structures.

        The on-demand store's backward-search cache re-derives closure
        pairs the materialized tables already hold, and its 2-hop index
        shares the closure's CSR artifacts rather than building its own.
        These are the terms a naive ``materialized + ondemand`` sum
        counts twice; :meth:`stats` subtracts them.  ``ondemand`` is the
        cold side's already-computed ``stats()`` dict (its cache walk is
        the expensive part — don't redo it per term).
        """
        pll_entries = self._ondemand.distance_index.index_size()
        return {
            "pair_count": ondemand["pair_count"] - pll_entries,
            "bytes_estimate": (
                ondemand["bytes_estimate"]
                - self._ondemand.distance_index.index_bytes()
            ),
        }

    def shared_stats(self) -> dict:
        """The hot/cold overlap terms (see :meth:`_shared_stats_from`)."""
        return self._shared_stats_from(self._ondemand.stats())

    def stats(self) -> dict:
        """Uniform size/cost statistics (shared schema across backends).

        Counts each structure once: summing both sides' totals would
        double-count the shared artifacts (every cold backward-search
        entry duplicates a pair the hot tables materialize, and the
        2-hop index rides on the closure's own CSR), so the overlap
        reported by :meth:`shared_stats` is subtracted.
        """
        materialized = self._materialized.stats()
        ondemand = self._ondemand.stats()
        shared = self._shared_stats_from(ondemand)
        return {
            "pair_count": (
                materialized["pair_count"]
                + ondemand["pair_count"]
                - shared["pair_count"]
            ),
            "bytes_estimate": (
                materialized["bytes_estimate"]
                + ondemand["bytes_estimate"]
                - shared["bytes_estimate"]
            ),
            "build_seconds": materialized["build_seconds"],
        }

    def storage_statistics(self) -> dict[str, int | float]:
        """Hot-side storage vs what a full materialization would need."""
        counts = self._materialized.closure.same_type_statistics()
        hot_entries = sum(counts.get(pair, 0) for pair in self.hot_pairs)
        total_entries = sum(counts.values())
        return {
            "hot_pairs": len(self.hot_pairs),
            "total_pairs": len(counts),
            "hot_entries": hot_entries,
            "total_entries": total_entries,
            "hot_storage_fraction": (
                hot_entries / total_entries if total_entries else 0.0
            ),
        }
