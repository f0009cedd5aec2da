"""Reachability backends — one protocol over all closure machineries.

The paper's index choices (Sections 3.1, 4.1, 5 "Managing Closure Size")
all answer the same store interface the enumerators consume; this module
wraps each of them as a :class:`ReachabilityBackend` the engine can
select, describe, and persist:

``full``
    Eager transitive closure laid out in the block store — the paper's
    default offline pre-computation (fastest queries, largest index).
``ondemand``
    No materialized closure: backward searches assemble exactly the
    needed groups per query; a 2-hop index answers point distances.
``hybrid``
    Hot label pairs materialized, cold pairs assembled on demand
    (Section 5's hot-list proposal).
``pll``
    Like ``ondemand``, but the pruned-landmark 2-hop index is built
    explicitly up front and is the index persistence saves/loads.
``constrained``
    Closure restricted to the sources a declared query workload can
    touch — supports exactly those queries, often far cheaper offline.

Each backend exposes the store the enumerators use, its offline build
time, size statistics, and a JSON payload that lets
``MatchEngine.save_index``/``load`` skip the offline computation next time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.closure.constrained import constrained_closure, tail_labels_of_queries
from repro.closure.hybrid import HybridStore
from repro.closure.ondemand import OnDemandStore
from repro.closure.pll import PrunedLandmarkIndex
from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.engine.config import BACKENDS, EngineConfig
from repro.query.compiler import workload_matcher
from repro.exceptions import EngineError
from repro.graph.digraph import LabeledDiGraph


@dataclass(frozen=True)
class BackendRefresh:
    """Outcome of :meth:`ReachabilityBackend.refreshed`.

    ``incremental`` says whether the backend reused its offline artifacts
    (only rows touched by the update recomputed) or rebuilt from scratch.
    ``affected_labels`` is the selective cache-invalidation signal: the
    labels of every node involved in a reachability pair whose distance
    changed.  ``None`` means "unknown — assume everything changed" (the
    rebuild path), telling the serving layer to flush its result cache.
    """

    backend: "ReachabilityBackend"
    incremental: bool
    rows_recomputed: int
    affected_labels: frozenset | None


@runtime_checkable
class ReachabilityBackend(Protocol):
    """What the engine needs from a closure backend."""

    name: str
    build_seconds: float
    #: Whether :meth:`refreshed` can reuse this backend's offline
    #: artifacts after a graph update instead of rebuilding them.
    supports_incremental_refresh: bool

    @property
    def store(self):
        """The store object the enumerators consume."""
        ...

    def stats(self) -> dict:
        """Size/cost statistics of the offline artifacts."""
        ...

    def describe(self) -> str:
        """One-line human description (used by ``explain`` and the CLI)."""
        ...

    def payload(self) -> dict:
        """JSON-ready offline artifacts for index persistence."""
        ...

    def refreshed(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        *,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: tuple = (),
    ) -> BackendRefresh:
        """A backend of the same kind over the updated ``graph``: the
        base graph plus ``nodes_added`` (node ids), ``edges_added``
        (``(tail, head, weight)``) and ``edges_removed`` (``(tail,
        head)``).  A relabel or a node departure never comes here: the
        fold rebuilds for those."""
        ...


class _BackendBase:
    """Shared plumbing: timing and the common attribute surface."""

    name = "?"
    #: Default refresh contract: rebuild from scratch.  Backends whose
    #: offline artifacts survive an edge update (today: ``full``, whose
    #: closure rows can be selectively recomputed) override this.
    supports_incremental_refresh = False

    def __init__(self) -> None:
        self.build_seconds = 0.0
        self._store = None

    def refreshed(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        *,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: tuple = (),
    ) -> BackendRefresh:
        """Rebuild this backend kind over the updated ``graph``.

        The base implementation pays the full offline cost again (2-hop
        labels and partial closures are whole-graph artifacts with no
        cheap delta); it reports ``affected_labels=None`` so callers
        invalidate every cached result.
        """
        return BackendRefresh(
            backend=build_backend(graph, config, self.name),
            incremental=False,
            rows_recomputed=graph.num_nodes,
            affected_labels=None,
        )

    @property
    def store(self):
        return self._store

    @property
    def closure(self) -> TransitiveClosure | None:
        """The materialized closure, when this backend keeps one."""
        return None

    @property
    def distance_index(self) -> PrunedLandmarkIndex | None:
        """The 2-hop index, when this backend keeps one."""
        return None

    def stats(self) -> dict:
        """Offline-artifact statistics: a uniform core plus backend extras.

        Every backend reports ``backend``, ``build_seconds``,
        ``pair_count`` (materialized reachability pairs or label entries)
        and ``bytes_estimate`` (measured resident bytes of the offline
        artifacts) — the schema the benchmark and the serving layer
        consume without per-backend special cases.  Subclasses append
        their own size/cache counters (``closure_pairs``, table entry
        counts, ...), which :meth:`MatchEngine.statistics` reports.
        """
        store_stats = self._store.stats() if self._store is not None else {}
        return {
            "backend": self.name,
            "build_seconds": self.build_seconds,
            "pair_count": store_stats.get("pair_count", 0),
            "bytes_estimate": store_stats.get("bytes_estimate", 0),
        }


class FullClosureBackend(_BackendBase):
    """Eager transitive closure + block store (the paper's default)."""

    name = "full"
    supports_incremental_refresh = True

    def refreshed(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        *,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: tuple = (),
    ) -> BackendRefresh:
        """Incremental refresh: recompute only the affected closure rows,
        and patch only the head groups their moved entries touch.

        A source row changes only if it can reach the tail of a changed
        edge, so :meth:`TransitiveClosure.refreshed` carries every other
        row over verbatim and reports exactly which labels saw a distance
        change — the selective result-cache invalidation signal.  A batch
        without ``nodes_added`` keeps the node set, so the closure keeps
        the interned ids and derives its CSR from this one; it reports the
        head groups whose entries moved, and the new :class:`ClosureStore`
        adopts every other table of this one, with its memoized views,
        and rebuilds only those groups.  When a node joins, the ids move
        and every table is rebuilt.
        """
        changed_tails = {
            edge[0] for edge in tuple(edges_added) + tuple(edges_removed)
        }
        closure, rows, affected, dirty = self._closure.refreshed(
            graph, changed_tails, same_nodes=not nodes_added
        )
        return BackendRefresh(
            backend=FullClosureBackend(
                graph, config, closure=closure, base_store=self._store, dirty_groups=dirty
            ),
            incremental=True,
            rows_recomputed=rows,
            affected_labels=affected,
        )

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        closure: TransitiveClosure | None = None,
        store: ClosureStore | None = None,
        *,
        base_store: ClosureStore | None = None,
        dirty_groups: dict | None = None,
    ) -> None:
        super().__init__()
        started = time.perf_counter()
        self._closure = closure if closure is not None else TransitiveClosure(graph)
        if store is not None:
            # Adopted pre-laid-out tables (the binary mmap restore path):
            # no closure recompute, no block layout work.
            self._store = store
        else:
            # A refresh (see :meth:`refreshed`) patches the dirty groups
            # of ``base_store``; otherwise every table is laid out.
            self._store = ClosureStore(
                graph, self._closure, block_size=config.block_size,
                base=base_store, dirty_groups=dirty_groups,
            )
        self.build_seconds = time.perf_counter() - started

    @property
    def closure(self) -> TransitiveClosure:
        return self._closure

    def stats(self) -> dict:
        stats = super().stats()
        closure_stats = self._closure.stats()
        stats["pair_count"] = closure_stats["pair_count"]
        stats["bytes_estimate"] += closure_stats["bytes_estimate"]
        stats["closure_pairs"] = self._closure.num_pairs
        stats.update(self._store.size_statistics())
        return stats

    def describe(self) -> str:
        return (
            f"full transitive closure ({self._closure.num_pairs} pairs, "
            f"block size {self._store.directory.block_size})"
        )

    def payload(self) -> dict:
        from repro.io import closure_to_dict

        return {"closure": closure_to_dict(self._closure)}


class OnDemandBackend(_BackendBase):
    """No materialized closure; groups assembled per query."""

    name = "ondemand"

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        distance_index: PrunedLandmarkIndex | None = None,
    ) -> None:
        super().__init__()
        started = time.perf_counter()
        self._store = OnDemandStore(
            graph, block_size=config.block_size, distance_index=distance_index
        )
        self.build_seconds = time.perf_counter() - started

    @property
    def distance_index(self) -> PrunedLandmarkIndex:
        return self._store.distance_index

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(self._store.cache_statistics())
        return stats

    def describe(self) -> str:
        return (
            "on-demand closure assembly "
            f"(2-hop index: {self._store.distance_index.index_size()} labels)"
        )

    def payload(self) -> dict:
        from repro.io import pll_to_dict

        return {"pll": pll_to_dict(self._store.distance_index)}


class HybridBackend(_BackendBase):
    """Hot label pairs materialized, cold pairs on demand (Section 5)."""

    name = "hybrid"

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        closure: TransitiveClosure | None = None,
        distance_index: PrunedLandmarkIndex | None = None,
        materialized: ClosureStore | None = None,
        hot_pairs: frozenset | None = None,
    ) -> None:
        super().__init__()
        started = time.perf_counter()
        self._store = HybridStore(
            graph,
            hot_fraction=config.hot_fraction,
            block_size=config.block_size,
            closure=closure,
            distance_index=distance_index,
            materialized=materialized,
            hot_pairs=hot_pairs,
        )
        self.build_seconds = time.perf_counter() - started

    @property
    def closure(self) -> TransitiveClosure:
        return self._store.closure

    @property
    def distance_index(self) -> PrunedLandmarkIndex:
        return self._store.distance_index

    def stats(self) -> dict:
        stats = super().stats()
        stats.update(self._store.storage_statistics())
        return stats

    def describe(self) -> str:
        storage = self._store.storage_statistics()
        return (
            f"hybrid hot/cold closure ({storage['hot_pairs']}/"
            f"{storage['total_pairs']} label pairs materialized, "
            f"{storage['hot_storage_fraction']:.0%} of entries)"
        )

    def payload(self) -> dict:
        from repro.io import closure_to_dict, pll_to_dict

        return {
            "closure": closure_to_dict(self._store.closure),
            "pll": pll_to_dict(self._store.distance_index),
        }


class PLLBackend(OnDemandBackend):
    """2-hop labels as the primary persisted index (Section 5, [1, 8, 26])."""

    name = "pll"

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        distance_index: PrunedLandmarkIndex | None = None,
    ) -> None:
        started = time.perf_counter()
        if distance_index is None:
            distance_index = PrunedLandmarkIndex(graph)
        super().__init__(graph, config, distance_index=distance_index)
        self.build_seconds = time.perf_counter() - started

    def describe(self) -> str:
        return (
            "pruned landmark labeling "
            f"({self._store.distance_index.index_size()} 2-hop labels; "
            "groups assembled on demand)"
        )


class ConstrainedBackend(_BackendBase):
    """Closure restricted to the declared workload's tail labels."""

    name = "constrained"

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        closure: TransitiveClosure | None = None,
        store: ClosureStore | None = None,
    ) -> None:
        super().__init__()
        if not config.workload:
            raise EngineError(
                "constrained backend needs a declared workload of query trees"
            )
        started = time.perf_counter()
        # Compiled containment workloads carry ContainsLabel labels the
        # equality matcher cannot expand; upgrade when needed so the
        # index pre-computes the right closure sources.
        matcher = workload_matcher(config.workload, config.label_matcher)
        if closure is None:
            closure = constrained_closure(
                graph, config.workload, matcher=matcher
            )
        self._closure = closure
        if store is not None:
            self._store = store
        else:
            self._store = ClosureStore(
                graph, closure, block_size=config.block_size
            )
        self.workload = tuple(config.workload)
        self.tail_labels = tail_labels_of_queries(self.workload)
        # Data labels whose nodes are closure sources — the coverage the
        # engine checks queries against.  None = unrestricted (the
        # workload had non-leaf wildcards, so the full closure was built).
        if self.tail_labels is None:
            self.covered_labels: frozenset | None = None
        else:
            alphabet = graph.labels()
            covered: set = set()
            unrestricted = False
            for label in self.tail_labels:
                data_labels = matcher.data_labels_for(label, alphabet)
                if data_labels is None:
                    unrestricted = True
                    break
                covered.update(data_labels)
            self.covered_labels = None if unrestricted else frozenset(covered)
        self.build_seconds = time.perf_counter() - started

    def supports(self, query, matcher) -> bool:
        """True when this index covers every non-leaf label of ``query``.

        The constrained closure only has rows whose sources carry a
        covered label; a query needing other tails would silently get
        partial (wrong) answers, so the engine rejects it up front.
        """
        if self.covered_labels is None:
            return True
        expand = self._store.interner.data_labels
        for u in query.nodes():
            if query.is_leaf(u):
                continue
            data_labels = expand(matcher, query.label(u))
            if data_labels is None:
                return False
            if not set(data_labels) <= self.covered_labels:
                return False
        return True

    @property
    def closure(self) -> TransitiveClosure:
        return self._closure

    def stats(self) -> dict:
        stats = super().stats()
        closure_stats = self._closure.stats()
        stats["pair_count"] = closure_stats["pair_count"]
        stats["bytes_estimate"] += closure_stats["bytes_estimate"]
        stats["closure_pairs"] = self._closure.num_pairs
        stats["partial"] = self._closure.is_partial
        stats.update(self._store.size_statistics())
        return stats

    def describe(self) -> str:
        scope = (
            "all labels (workload has non-leaf wildcards)"
            if self.tail_labels is None
            else f"{len(self.tail_labels)} tail label(s)"
        )
        return (
            f"workload-constrained closure ({self._closure.num_pairs} pairs, "
            f"sources limited to {scope})"
        )

    def payload(self) -> dict:
        from repro.io import closure_to_dict, query_tree_to_dict

        return {
            "closure": closure_to_dict(self._closure),
            "workload": [query_tree_to_dict(q) for q in self.workload],
        }


_BUILDERS = {
    "full": FullClosureBackend,
    "ondemand": OnDemandBackend,
    "hybrid": HybridBackend,
    "pll": PLLBackend,
    "constrained": ConstrainedBackend,
}


def build_backend(
    graph: LabeledDiGraph, config: EngineConfig, name: str
) -> ReachabilityBackend:
    """Construct the named backend for ``graph`` (pays the offline cost)."""
    if name not in _BUILDERS:
        raise EngineError(f"unknown backend {name!r}; choose from {BACKENDS}")
    return _BUILDERS[name](graph, config)


def restore_backend(
    graph: LabeledDiGraph, config: EngineConfig, name: str, payload: dict
) -> ReachabilityBackend:
    """Rebuild the named backend from a persisted payload.

    The expensive offline artifacts (closure distance rows, 2-hop labels)
    come from the payload, so no shortest-path computation runs; only the
    linear block layout is redone.
    """
    from repro.io import closure_from_dict, pll_from_dict, query_tree_from_dict

    if name == "full":
        closure = closure_from_dict(graph, payload["closure"])
        return FullClosureBackend(graph, config, closure=closure)
    if name == "ondemand":
        index = pll_from_dict(graph, payload["pll"])
        return OnDemandBackend(graph, config, distance_index=index)
    if name == "hybrid":
        closure = closure_from_dict(graph, payload["closure"])
        index = pll_from_dict(graph, payload["pll"])
        return HybridBackend(graph, config, closure=closure, distance_index=index)
    if name == "pll":
        index = pll_from_dict(graph, payload["pll"])
        return PLLBackend(graph, config, distance_index=index)
    if name == "constrained":
        closure = closure_from_dict(graph, payload["closure"])
        workload = tuple(
            query_tree_from_dict(q) for q in payload.get("workload", [])
        )
        if workload:
            config = config.replace(workload=workload)
        return ConstrainedBackend(graph, config, closure=closure)
    raise EngineError(f"unknown backend {name!r} in persisted index")


def restore_backend_from_disk(
    graph: LabeledDiGraph, config: EngineConfig, name: str, artifacts
) -> ReachabilityBackend:
    """Rebuild the named backend from binary-index artifacts.

    ``artifacts`` is a :class:`repro.storage.diskindex.DiskArtifacts`:
    the closure rows and pair tables are zero-copy views over the mmap,
    so — unlike :func:`restore_backend` — not even the block layout is
    redone; cold start is O(directory), and closure blocks page in on
    first touch.
    """
    from repro.io import query_tree_from_dict

    def adopted_store() -> ClosureStore:
        if artifacts.closure is None or artifacts.pair_tables is None:
            raise EngineError(
                f"binary index lacks the closure sections backend {name!r} "
                "needs (corrupt or mismatched file)"
            )
        return ClosureStore.from_tables(
            graph,
            artifacts.closure,
            artifacts.pair_tables,
            block_size=config.block_size,
        )

    if name == "full":
        return FullClosureBackend(
            graph, config, closure=artifacts.closure, store=adopted_store()
        )
    if name in ("ondemand", "pll"):
        if artifacts.pll is None:
            raise EngineError(
                f"binary index lacks the 2-hop sections backend {name!r} "
                "needs (corrupt or mismatched file)"
            )
        builder = OnDemandBackend if name == "ondemand" else PLLBackend
        return builder(graph, config, distance_index=artifacts.pll)
    if name == "hybrid":
        return HybridBackend(
            graph,
            config,
            closure=artifacts.closure,
            distance_index=artifacts.pll,
            materialized=adopted_store(),
            hot_pairs=artifacts.hot_pairs,
        )
    if name == "constrained":
        workload = tuple(
            query_tree_from_dict(q) for q in artifacts.workload
        )
        if workload:
            config = config.replace(workload=workload)
        return ConstrainedBackend(
            graph, config, closure=artifacts.closure, store=adopted_store()
        )
    raise EngineError(f"unknown backend {name!r} in persisted index")
