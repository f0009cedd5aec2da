"""The :class:`MatchService` — a thread-safe serving layer over one engine.

Where :class:`~repro.engine.core.MatchEngine` is a per-call library,
``MatchService`` is the piece that sustains concurrent traffic:

    from repro.service import MatchService

    service = MatchService(graph, backend="full", max_workers=4)

    service.top_k("A//B[C]", k=5)          # sync, caches warm up
    future = service.submit("A//B[C]", 5)  # async, bounded worker pool
    future.result().matches

    service.apply_updates(edges_added=[("v1", "v9")])   # folded on next read
    service.statistics()["result_cache"]["hit_rate"]

Design:

* **Snapshot isolation** — every request resolves the current
  :class:`~repro.service.snapshot.Snapshot` exactly once and runs against
  its immutable graph + closure indexes; updates swap in a new snapshot
  atomically and never mutate a live one.
* **Plan cache** — LRU keyed by ``canonical DSL x k x algorithm x engine
  config``; a hit skips planning, and DSL-text requests additionally hit
  a compile cache (raw string -> compiled query) that skips parsing and
  lowering.  Plans depend only on label counts, so edge-level updates
  keep every entry.
* **Result cache** — optional LRU keyed by ``(epoch, DSL, k, algorithm)``
  with explicit invalidation (:meth:`invalidate_results`); updates
  migrate entries whose label footprint is provably untouched and drop
  the rest.
* **Bounded execution** — ``submit()`` runs on a fixed worker pool behind
  a bounded queue (fail-fast :class:`ServiceOverloadedError` when full;
  ``batch()`` blocks for slots instead) with per-request deadlines
  (:class:`DeadlineExceededError` when a request expires in the queue).
* **Write-ahead delta overlay** — every update batch lands in a
  :class:`~repro.delta.DeltaLog` (write-ahead-logged when ``wal_path``
  is set), the epoch advances immediately, and the overlay is folded
  onto the base through :func:`repro.delta.view.fold` lazily — on first
  read, or by the background :class:`~repro.delta.Compactor`, which
  also folds accumulated deltas into ``.ridx`` generations when
  :class:`~repro.delta.CompactionPolicy` thresholds trip.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.matches import Match
from repro.delta.compactor import CompactionPolicy, Compactor
from repro.delta.generations import GenerationStore, resolve_index_path
from repro.delta.log import DeltaLog
from repro.delta.view import apply_records, fold
from repro.delta.wal import WriteAheadLog
from repro.engine.config import EngineConfig
from repro.engine.core import MatchEngine
from repro.engine.planner import QueryPlan, config_fingerprint
from repro.exceptions import GraphError, ServiceError
from repro.query.compiler import compile_query
from repro.service.cache import LRUCache, ResultCache
from repro.service.front import _ServiceFront
from repro.service.snapshot import (
    Snapshot,
    UpdateReport,
    cacheable_dsl,
    query_label_footprint,
    record_counts,
    update_records,
)


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request, with its provenance.

    ``epoch`` names the snapshot that produced (or cached) the answer;
    two responses with equal ``(epoch, dsl, k, algorithm)`` are
    guaranteed identical — the determinism the concurrency tests pin.
    """

    matches: tuple[Match, ...]
    epoch: int
    dsl: str | None
    k: int
    algorithm: str
    plan: QueryPlan | None
    result_cache_hit: bool
    plan_cache_hit: bool
    elapsed_seconds: float


class MatchService(_ServiceFront):
    """Concurrent top-k matching over snapshot-isolated engines.

    Parameters
    ----------
    graph:
        The initial data graph (the epoch-0 snapshot is built from it,
        paying the backend's offline cost once).
    config:
        An :class:`EngineConfig`, or keyword overrides (``backend=...``,
        ``algorithm=...``) exactly like :class:`MatchEngine`.
    plan_cache_size / result_cache_size:
        LRU capacities; ``0`` disables the cache (the result cache is the
        optional one — disable it when answers must always recompute).
        ``plan_cache_size`` also sizes the DSL compile cache (raw query
        string -> compiled query), so ``0`` disables both and every
        request re-parses.
    max_workers:
        Worker threads executing :meth:`submit`/:meth:`batch` requests.
    max_pending:
        Bound on in-flight requests (queued + running) before
        :meth:`submit` fails fast; defaults to ``8 * max_workers``.
    default_deadline:
        Seconds applied to :meth:`submit` requests that pass none.
    wal_path:
        Optional write-ahead log segment file.  Opening an existing
        segment recovers it (torn tail truncated) and replays its
        records as a pending overlay, so a crashed service converges to
        the pre-crash graph on first read.
    compaction:
        A :class:`~repro.delta.CompactionPolicy`; defaults to the stock
        thresholds.
    auto_compact:
        Run the background :class:`~repro.delta.Compactor` thread
        (started lazily on the first update).  ``False`` leaves folding
        to reads and explicit :meth:`compact` calls.
    generation_base:
        Index path whose generation family :meth:`compact` should write
        (``index.gen-NNNN.ridx`` + manifest).  :meth:`from_index` wires
        this automatically; memory-constructed services compact
        in-memory only unless it is set.
    """

    def __init__(
        self,
        graph,
        config: EngineConfig | None = None,
        *,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        max_workers: int = 4,
        max_pending: int | None = None,
        default_deadline: float | None = None,
        wal_path: str | Path | None = None,
        compaction: CompactionPolicy | None = None,
        auto_compact: bool = True,
        generation_base: str | Path | None = None,
        _engine: MatchEngine | None = None,
        **overrides,
    ) -> None:
        super().__init__(max_workers, max_pending, default_deadline)
        if plan_cache_size < 0 or result_cache_size < 0:
            raise ServiceError(
                "cache sizes must be >= 0 (0 disables a cache), got "
                f"plan_cache_size={plan_cache_size}, "
                f"result_cache_size={result_cache_size}"
            )
        if _engine is not None:
            # Adopted pre-built engine (the from_index cold-start path):
            # the offline artifacts were restored from a persisted index,
            # so snapshot 0 costs no closure/label computation.
            engine = _engine
        else:
            engine = MatchEngine(graph, config, **overrides)
        self._snapshot = Snapshot.initial(engine)
        self._config_fp = config_fingerprint(engine.config)
        self._plans = LRUCache(plan_cache_size)
        self._results = ResultCache(result_cache_size)
        # First-level cache for DSL-text requests: raw query string ->
        # (compiled, canonical dsl).  This is what lets a warm request
        # skip the lexer/parser/compiler entirely, not just planning.
        # Never invalidated: compilation is graph-independent.
        self._compiled = LRUCache(plan_cache_size)
        # Bumped whenever the plan cache is cleared (node additions,
        # explicit invalidation) and embedded in every plan key: an
        # in-flight request that planned against the pre-clear graph
        # inserts under the old generation, which no later reader asks
        # for — a bare clear() alone cannot prevent that re-insert.
        self._plan_generation = 0
        self._uncacheable = 0

        # -- write-ahead delta overlay state -----------------------------
        self._gen_store = (
            GenerationStore(generation_base)
            if generation_base is not None
            else None
        )
        wal = None
        if wal_path is not None:
            base_generation = (
                self._gen_store.current_generation if self._gen_store else 0
            )
            wal = WriteAheadLog(wal_path, generation=base_generation)
        self._log = DeltaLog(wal=wal)
        # Graph with every pending record applied (None while clean);
        # becomes the folded engine's graph at materialization, so it is
        # never handed out while still mutable.
        self._pending_graph = None
        self._pending_batches = 0
        #: Logical epoch: the folded snapshot's epoch plus every pending
        #: batch.  Stored once per accepted batch under ``_update_lock``
        #: and untouched by the fold, so an unlocked read never tears.
        self._epoch = self._snapshot.epoch
        self._compaction = (
            compaction if compaction is not None else CompactionPolicy()
        )
        self._auto_compact = auto_compact
        self._compactor: Compactor | None = None
        self._materializations = 0
        self._last_materialize_seconds = 0.0
        self._last_compaction_seconds = 0.0
        self._records_since_compaction = 0
        if wal is not None and wal.recovered_records:
            if self._gen_store is not None and self._gen_store.stale_wal(
                wal.generation
            ):
                # Crash landed between the generation-manifest update and
                # the WAL truncation: these records are already folded
                # into the generation we just booted from.  Discard.
                wal.rewrite(
                    (), generation=self._gen_store.current_generation
                )
            else:
                self._replay_recovered(wal.recovered_records)

    def _replay_recovered(self, records) -> None:
        """Adopt WAL-recovered records as a pending overlay (boot path).

        The records were durable before the crash, so they re-enter the
        in-memory log only (writing them back would double them in the
        segment); the first read folds them and converges to the
        pre-crash graph.
        """
        graph = self._snapshot.graph.copy()
        try:
            apply_records(graph, records)
        except (GraphError, TypeError, ValueError, IndexError) as exc:
            raise ServiceError(
                f"recovered WAL does not apply to this base index: {exc}"
            ) from exc
        self._log.adopt(records)
        self._pending_graph = graph
        self._pending_batches = 1
        self._epoch += 1

    @classmethod
    def from_index(cls, path, **kwargs) -> "MatchService":
        """Serve straight from a persisted index — the cold-start path.

        Builds the epoch-0 snapshot from :meth:`MatchEngine.load` instead
        of paying the backend's offline cost: with a binary ``.ridx``
        index the closure opens via ``mmap`` with no per-entry decode, so
        a process can start taking traffic as soon as the file is mapped
        (blocks page in on first touch).  Engine config overrides
        (``label_matcher``, planner knobs, ...) and service knobs
        (``max_workers``, cache sizes, deadlines) are both accepted.
        """
        from repro.shard.manifest import sniff_is_shard_manifest

        if sniff_is_shard_manifest(path):
            # A shard manifest cold-starts the multi-process front-end
            # instead: each shard worker mmaps only its own .ridx.
            from repro.service.sharded import ShardedMatchService

            return ShardedMatchService.from_manifest(path, **kwargs)
        # Every keyword the service itself takes; the rest configure the engine.
        service_keys = set(inspect.signature(cls).parameters) - {
            "graph", "config", "_engine", "overrides",
        }
        service_kwargs = {
            key: kwargs.pop(key) for key in service_keys if key in kwargs
        }
        # A compacted deployment boots at its newest generation (the
        # manifest, or a sibling manifest of the given base, names it),
        # and compact() keeps writing into the same family.
        resolved = resolve_index_path(path)
        service_kwargs.setdefault("generation_base", path)
        engine = MatchEngine.load(resolved, **kwargs)
        return cls(engine.graph, engine.config, _engine=engine, **service_kwargs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The current snapshot (readers may hold it as long as they like).

        Folds any pending delta overlay first, so the returned snapshot
        always reflects every applied update.
        """
        return self._read_snapshot()

    @property
    def epoch(self) -> int:
        """Logical epoch: bumped by every update, folded or pending."""
        return self._epoch

    def statistics(self) -> dict:
        """Serving counters: requests, cache hit rates, update history."""
        base = self._snapshot
        graph = self._pending_graph or base.graph
        pending = self._log.pending_records
        base_size = base.graph.num_nodes + base.graph.num_edges
        stats = self._front_statistics()
        stats["delta"].update(
            pending_records=pending,
            pending_batches=self._pending_batches,
            overlay_base_ratio=pending / max(1, base_size),
            materializations=self._materializations,
            last_materialize_seconds=self._last_materialize_seconds,
            last_compaction_seconds=self._last_compaction_seconds,
            records_since_compaction=self._records_since_compaction,
            wal=None if self._log.wal is None else self._log.wal.stats(),
            generations=(
                None if self._gen_store is None else self._gen_store.stats()
            ),
            compactor=(
                None if self._compactor is None else self._compactor.stats()
            ),
        )
        return {
            **stats,
            "backend": base.engine.backend_name,
            "graph_nodes": graph.num_nodes,
            "graph_edges": graph.num_edges,
            "uncacheable_requests": self._uncacheable,
            "compile_cache": self._compiled.summary(),
            "plan_cache": self._plans.summary(),
            "result_cache": self._results.summary(),
        }

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _answer(
        self, query, k: int, algorithm: str | None, expires_at=None
    ) -> ServiceResponse:
        """Answer one request entirely against the newest snapshot.

        ``expires_at`` only bounds queue wait (checked before this runs);
        an in-process answer is never cut short.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        started = time.perf_counter()
        snapshot = self._read_snapshot()
        engine = snapshot.engine
        if isinstance(query, str):
            cached_compile = self._compiled.get(query)
            if cached_compile is None:
                compiled = compile_query(query)
                dsl = cacheable_dsl(compiled)
                self._compiled.put(query, (compiled, dsl))
            else:
                compiled, dsl = cached_compile
        else:
            compiled = compile_query(query)
            dsl = cacheable_dsl(compiled)
        requested = algorithm if algorithm is not None else engine.config.algorithm
        # Counted only once the query compiled: "requests" are requests
        # that reached the cache/execution pipeline, keeping the counter
        # identities (result lookups == requests - uncacheable) exact
        # even when malformed queries raise above.
        self._count("_requests")
        if dsl is None:
            self._count("_uncacheable")
            plan = engine.planner.plan(compiled, k, algorithm=algorithm)
            matches = tuple(engine._execute_plan(compiled, plan, k))
            return ServiceResponse(
                matches=matches,
                epoch=snapshot.epoch,
                dsl=None,
                k=k,
                algorithm=plan.algorithm,
                plan=plan,
                result_cache_hit=False,
                plan_cache_hit=False,
                elapsed_seconds=time.perf_counter() - started,
            )
        request_key = (dsl, k, requested)
        cached = self._results.lookup(snapshot.epoch, request_key)
        if cached is not None:
            return ServiceResponse(
                matches=cached.matches,
                epoch=snapshot.epoch,
                dsl=dsl,
                k=k,
                algorithm=cached.algorithm or requested,
                plan=None,
                result_cache_hit=True,
                plan_cache_hit=False,
                elapsed_seconds=time.perf_counter() - started,
            )
        plan_key = (dsl, k, requested, self._plan_generation, self._config_fp)
        entry = self._plans.get(plan_key)
        plan_hit = entry is not None
        if entry is None:
            plan = engine.planner.plan(compiled, k, algorithm=algorithm)
            program = engine.program_for(compiled, plan)
            self._plans.put(plan_key, (compiled, plan, program))
        else:
            # Reuse the cached compiled form too: equal canonical DSL
            # means an equivalent query, and reusing one object keeps
            # matcher identity stable for the engine's kGPM cache.  The
            # cached kernel program (compiled-tier plans) is
            # store-independent, so warm requests skip lowering and hit
            # the engine's binding cache by program identity.
            compiled, plan, program = entry
        matches = tuple(engine._execute_plan(compiled, plan, k, program=program))
        self._results.store(
            snapshot.epoch,
            request_key,
            matches,
            query_label_footprint(compiled, engine.config.label_matcher),
            algorithm=plan.algorithm,
        )
        return ServiceResponse(
            matches=matches,
            epoch=snapshot.epoch,
            dsl=dsl,
            k=k,
            algorithm=plan.algorithm,
            plan=plan,
            result_cache_hit=False,
            plan_cache_hit=plan_hit,
            elapsed_seconds=time.perf_counter() - started,
        )

    def request(self, query, k: int, algorithm: str | None = None) -> ServiceResponse:
        """Like :meth:`top_k` but returns the full :class:`ServiceResponse`."""
        self._check_open()
        return self._answer(query, k, algorithm)

    # ------------------------------------------------------------------
    # Updates and invalidation
    # ------------------------------------------------------------------
    def _read_snapshot(self) -> Snapshot:
        """The snapshot reads run against, folding any pending overlay.

        Lock-free when the overlay is clean — the common steady-state
        read path costs one attribute load.
        """
        if self._pending_batches:
            with self._update_lock:
                return self._absorb_locked()
        return self._snapshot

    def _absorb_locked(self) -> Snapshot:
        """Fold every pending delta batch into a fresh snapshot.

        Caller holds ``_update_lock``.  The new snapshot takes the
        logical epoch every staged batch already advanced, so epochs
        handed out by :class:`UpdateReport`\\ s line up with the
        snapshots readers eventually see.  The WAL is *not* truncated
        here — only a compaction makes the fold durable (see
        :meth:`compact`).
        """
        old = self._snapshot
        if not self._pending_batches:
            return old
        records = self._log.drain()
        result = fold(old.engine, records, patched_graph=self._pending_graph)
        snapshot = Snapshot(
            epoch=self._epoch,
            engine=result.engine,
            created_at=time.time(),
        )
        self._results.advance(
            old.epoch, snapshot.epoch, result.affected_labels
        )
        self._snapshot = snapshot
        self._pending_graph = None
        self._pending_batches = 0
        with self._stats_lock:
            self._materializations += 1
            self._last_materialize_seconds = result.elapsed_seconds
            self._records_since_compaction += len(records)
        return snapshot

    def _stage_locked(self, records) -> None:
        """Apply ``records`` to the pending graph and log them, WAL first.

        Caller holds ``_update_lock``.  On failure the pending graph is
        rebuilt from the intact log: records are applied one by one, so
        a mid-batch structural error can strand earlier mutations, and a
        failed WAL append (unencodable ids, closed segment) made nothing
        durable, so nothing may become visible.
        """
        graph = self._pending_graph
        if graph is None:
            graph = self._snapshot.graph.copy()
        try:
            try:
                apply_records(graph, records)
            except (GraphError, TypeError, ValueError, IndexError) as exc:
                raise ServiceError(f"invalid graph update: {exc}") from exc
            self._log.append(records)
        except Exception:
            logged = self._log.records()
            graph = None
            if logged:
                graph = self._snapshot.graph.copy()
                apply_records(graph, logged)  # previously validated
            self._pending_graph = graph
            raise
        self._pending_graph = graph
        self._pending_batches += 1
        self._epoch += 1

    def apply_updates(
        self,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: dict | None = None,
        labels_changed: dict | None = None,
    ) -> UpdateReport:
        """Apply graph deltas; readers never block and never see a tear.

        The batch is validated against the pending overlay graph,
        appended to the :class:`~repro.delta.DeltaLog` (write-ahead-logged
        first when a WAL is attached), and the logical epoch advances by
        one before this returns; the fold onto the base happens on the
        next read or in the background compactor.

        At that fold the result cache migrates entries whose label
        footprint is disjoint from the fold's affected labels.  The plan
        cache survives edge deltas outright — plans depend only on label
        counts — and is cleared here when nodes or relabels (new label
        candidates) arrive.
        """
        with self._update_lock:
            self._check_open()
            started = time.perf_counter()
            records = update_records(
                edges_added, edges_removed, nodes_added, labels_changed
            )
            if not records:
                raise ServiceError(
                    "apply_updates needs at least one change (edges_added, "
                    "edges_removed, nodes_added, or labels_changed)"
                )
            self._stage_locked(records)
            report = UpdateReport(
                epoch=self.epoch,
                elapsed_seconds=time.perf_counter() - started,
                pending_records=self._log.pending_records,
                **record_counts(records),
            )
            if report.nodes_added or report.labels_changed:
                # Cleared now, not at the fold: a plan computed between
                # this append and the fold would otherwise bake in stale
                # label candidate counts.
                report.plans_cleared = self.invalidate_plans()
            self._count("_updates_applied")
            self._ensure_compactor()
            if self._compactor is not None:
                self._compactor.kick()
            return report

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def _ensure_compactor(self) -> None:
        if (
            self._auto_compact
            and self._compactor is None
            and not self._closed
        ):
            self._compactor = Compactor(self._compaction_tick)

    def _compaction_tick(self) -> None:
        """One background beat: absorb pending, compact when due."""
        if self._closed:
            return
        if self._pending_batches:
            with self._update_lock:
                if not self._closed:
                    self._absorb_locked()
        base = self._snapshot.graph
        if self._compaction.due(
            self._records_since_compaction,
            base.num_nodes + base.num_edges,
        ):
            with self._update_lock:
                if not self._closed:
                    self._compact_locked("policy")

    def compact(self) -> dict:
        """Fold the overlay and persist the next index generation now.

        Absorbs every pending delta batch, writes
        ``<base>.gen-NNNN.ridx`` + manifest when a generation family is
        attached (:meth:`from_index` wires one automatically), then
        truncates the WAL with the new generation stamp — the swap
        protocol DESIGN.md specifies.  Returns a report dict.
        """
        with self._update_lock:
            self._check_open()
            return self._compact_locked("explicit")

    def _compact_locked(self, trigger: str) -> dict:
        started = time.perf_counter()
        snapshot = self._absorb_locked()
        folded = self._records_since_compaction
        generation = None
        path = None
        if self._gen_store is not None:
            generation, gen_path = self._gen_store.write_generation(
                snapshot.engine,
                epoch=snapshot.epoch,
                records_folded=folded,
                wall_seconds=time.perf_counter() - started,
            )
            path = str(gen_path)
        wal = self._log.wal
        if wal is not None:
            # Step 3 of the swap protocol: only now that the fold is
            # durable (or there is no durable family at all) may the
            # segment forget the records.
            wal.rewrite(
                (),
                generation=(
                    generation if generation is not None
                    else wal.generation + 1
                ),
            )
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._compactions += 1
            self._last_compaction_seconds = elapsed
            self._records_since_compaction = 0
        return {
            "trigger": trigger,
            "epoch": snapshot.epoch,
            "records_folded": folded,
            "generation": generation,
            "path": path,
            "elapsed_seconds": elapsed,
        }

    def invalidate_results(self) -> int:
        """Explicitly drop every cached result; returns the count."""
        return self._results.clear()

    def invalidate_plans(self) -> int:
        """Explicitly drop every cached plan; returns the count.

        The generation bump takes ``_stats_lock``, not ``_update_lock``:
        :meth:`apply_updates` calls this while holding ``_update_lock``,
        and callers outside an update may run concurrently with it.
        """
        with self._stats_lock:
            self._plan_generation += 1
        return self._plans.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> bool:
        """Stop accepting requests and shut the worker pool down.

        Returns ``True`` when everything shut down cleanly; ``False``
        when the background compactor failed to stop within its join
        timeout (the leak is also visible as
        ``statistics()["delta"]["compactor"]["stop_timed_out"]``).
        """
        super().close(wait)
        compactor = self._compactor
        stopped = compactor is None or compactor.stop()
        wal = self._log.wal
        if wal is not None:
            wal.close()
        return stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchService(epoch={self.epoch}, "
            f"backend={self._snapshot.engine.backend_name!r}, "
            f"workers={self.max_workers}, closed={self._closed})"
        )
