"""The :class:`ShardedMatchService` — multi-process scatter-gather serving.

Hosts each shard of a sharded index in its own ``multiprocessing``
worker (always the ``spawn`` start method — fork is unsafe under the
coordinator's threads) and answers queries by routing, scattering over
the worker pipes (a single routed shard on the caller's thread, a
fan-out in parallel), and merging the partial top-k replies with the
same deterministic gather as :class:`~repro.shard.ShardedEngine`:

    from repro.service import ShardedMatchService

    with ShardedMatchService.from_manifest("index.ridx") as service:
        service.top_k("A//B[C]", k=5)
        service.apply_updates(edges_added=[("v1", "v9")])

Design:

* **Post-fork shard opening** — a worker booted from a manifest opens
  *only its own* ``.ridx`` inside the child, so mmap'd pages belong to
  the worker and the coordinator never materializes a shard's closure.
* **Per-shard deadlines** — one request deadline bounds the whole
  scatter; each worker call inherits the remaining budget, and a worker
  that blows it is terminated and restarted (its pipe is desynchronized
  mid-computation) while the request fails with
  :class:`~repro.exceptions.DeadlineExceededError` — the same taxonomy
  as :class:`MatchService`.
* **Graceful degradation** — a dead worker raises
  :class:`~repro.exceptions.ShardUnavailableError` (after one restart
  attempt when ``restart_workers`` is on).  ``on_shard_failure="error"``
  fails the request; ``"degrade"`` returns the merged partials from the
  surviving shards with ``response.degraded`` set, raising only when no
  routed shard answered.
* **Epoch-consistent updates** — ``apply_updates`` re-plans the graph
  and ships each shard its new subgraph one epoch later as a ``delta``
  op: the worker parks the subgraph, bumps its epoch immediately, and
  folds (:func:`repro.delta.view.fold_graph`) on its next query, so the
  update call returns without waiting for any shard to rebuild.  Every
  query reply carries its worker's epoch; a scatter that observes a
  mixed or stale epoch (it raced the update) transparently retries
  against the new epoch, so no response ever mixes two graph versions.
  ``compact()`` asks every worker to fold now.  ``apply_updates(...,
  num_shards=...)`` additionally re-spreads the graph over a different
  worker count in the same update.
* **Replicated shards with failover** — ``replication=R`` spawns R
  workers per shard (a :class:`_ShardGroup`), all serving the same
  subgraph.  Reads round-robin across live replicas; a replica that is
  dead or misses its slice of the deadline fails over to a peer (the
  first attempt gets half the remaining budget so a hung replica
  leaves room for the retry), and dead replicas respawn in the
  background off the read path — a single worker kill neither degrades
  answers nor blocks a scatter on a reboot.  Updates broadcast to every
  replica, so the whole group moves epochs together.
* **Per-shard write-ahead durability** — with ``wal_path`` set, every
  ``apply_updates`` appends its record batch to one WAL segment per
  shard (``shard-NN.wal``, generation-stamped with the manifest epoch
  it applies on top of) *before* any worker sees the new epoch.  The
  segments are replicas of the same global record stream — delta
  records cannot express a shard-local view (member sets shrink on
  re-plan, and records have no node-remove), and replicating the log
  means any one surviving segment recovers the full write history.
  Boot replays the longest segment over the manifest base (stale
  segments — older generation than the manifest, the crash window
  between checkpoint and truncate — are discarded per shard), and
  ``compact()`` on a manifest-backed service checkpoints durably:
  re-shard the folded graph at the current epoch, then truncate every
  segment at the new stamp.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import repro.exceptions as _exceptions
from repro.core.matches import Match
from repro.delta.view import apply_records
from repro.delta.wal import WriteAheadLog, scan_wal
from repro.devtools.lockcheck import make_lock
from repro.engine.config import EngineConfig
from repro.exceptions import (
    DeadlineExceededError,
    GraphError,
    ReproError,
    ServiceError,
    ShardError,
    ShardUnavailableError,
)
from repro.graph.digraph import LabeledDiGraph
from repro.query.compiler import CompiledQuery, compile_query
from repro.service.front import _ServiceFront
from repro.service.snapshot import record_counts, update_records
from repro.shard.engine import _union_graph
from repro.shard.manifest import load_manifest, shard_index, shard_paths
from repro.shard.merge import merge_topk
from repro.shard.plan import ShardPlan, label_owners, refuse_cyclic, route
from repro.shard.worker import worker_main

#: How long a worker may take to boot (build/mmap its engine) before the
#: coordinator declares it dead.
_BOOT_TIMEOUT = 120.0
#: Poll granularity while waiting on a worker pipe.
_POLL_INTERVAL = 0.05
#: Scatters retried when a reply's epoch proves the request raced an update.
_EPOCH_RETRIES = 3


@dataclass(frozen=True)
class ShardedResponse:
    """One answered scatter-gather request, with its provenance."""

    matches: tuple[Match, ...]
    epoch: int
    k: int
    algorithm: str | None
    #: Shards the query was routed to (sorted indices).
    shards_routed: tuple[int, ...]
    #: Routed shards that failed (non-empty only under ``"degrade"``).
    shards_failed: tuple[int, ...]
    #: True when the answer is a partial merge over surviving shards.
    degraded: bool
    elapsed_seconds: float


def _worker_error(index: int, name: str, message: str) -> Exception:
    """Map a worker's ``("error", name, message)`` reply to an exception."""
    exc_class = getattr(_exceptions, name, None)
    if isinstance(exc_class, type) and issubclass(exc_class, ReproError):
        return exc_class(message)
    if name in ("ValueError", "TypeError", "KeyError"):
        return {"ValueError": ValueError, "TypeError": TypeError,
                "KeyError": KeyError}[name](message)
    return ShardError(f"shard {index}: {name}: {message}")


class _ShardWorker:
    """Coordinator-side handle of one shard worker process.

    One in-flight request per worker (the pipe is a strict
    request/reply channel); the handle's lock enforces that, and a
    reply-timeout poisons the handle — the process is terminated and
    respawned from its boot spec rather than left desynchronized.
    """

    def __init__(self, index: int, ctx, boot: dict, replica: int = 0) -> None:
        self.index = index
        self.replica = replica
        self._ctx = ctx
        self._boot = boot
        self.lock = make_lock("sharded.worker")
        self.restarts = 0
        #: Bumped by every (re)spawn.  A caller whose request just blew
        #: up captures the incarnation it failed against; restarting is
        #: then conditional on the incarnation being unchanged, which is
        #: immune to the SIGKILL-to-waitpid race where a freshly killed
        #: process still reads as alive.
        self.incarnation = 0
        self.process = None
        self.conn = None
        self._spawn()

    # -- lifecycle ------------------------------------------------------
    def _spawn(self) -> None:
        self.incarnation += 1
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(child, self._boot),
            name=f"repro-shard-{self.index}.{self.replica}",
            daemon=True,
        )
        process.start()
        child.close()
        self.process = process
        self.conn = parent
        reply = self._recv(time.monotonic() + _BOOT_TIMEOUT)
        if reply[0] != "ok":
            self._terminate()
            raise ShardUnavailableError(
                f"shard {self.index} failed to boot: "
                f"{reply[1]}: {reply[2]}"
                if len(reply) == 3
                else f"shard {self.index} failed to boot"
            )

    def restart(self) -> None:
        """Terminate (if needed) and respawn from the boot spec."""
        self._terminate()
        self.restarts += 1
        self._spawn()

    def _terminate(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
            self.process = None

    def shutdown(self) -> None:
        """Polite exit: ask, wait briefly, then terminate."""
        if self.conn is not None and self.process is not None:
            try:
                self.conn.send(("exit",))
                self.process.join(timeout=2.0)
            except (BrokenPipeError, OSError):
                pass
        self._terminate()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    # -- protocol -------------------------------------------------------
    def _recv(self, expires_at: float | None):
        """Wait for one reply, watching liveness and the deadline."""
        while True:
            try:
                if self.conn.poll(_POLL_INTERVAL):
                    return self.conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardUnavailableError(
                    f"shard {self.index} worker died mid-request"
                ) from exc
            if expires_at is not None and time.monotonic() > expires_at:
                # The worker is mid-computation; its pipe is now
                # desynchronized.  Poison the handle so the next caller
                # respawns instead of reading this request's late reply.
                self._terminate()
                raise DeadlineExceededError(
                    f"shard {self.index} missed the request deadline"
                )
            if not self.alive:
                raise ShardUnavailableError(
                    f"shard {self.index} worker died mid-request"
                )

    def call(self, op: str, payload: tuple, expires_at: float | None):
        """One request/reply exchange (serialized per worker)."""
        remaining = None
        if expires_at is not None:
            remaining = expires_at - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"request deadline expired before shard {self.index} "
                    "was called"
                )
        if not self.lock.acquire(timeout=remaining if remaining else -1):
            raise DeadlineExceededError(
                f"request deadline expired waiting for shard {self.index}"
            )
        try:
            if not self.alive:
                raise ShardUnavailableError(
                    f"shard {self.index} worker is not running"
                )
            try:
                self.conn.send((op, *payload))
            except (BrokenPipeError, OSError) as exc:
                raise ShardUnavailableError(
                    f"shard {self.index} worker died (broken pipe)"
                ) from exc
            return self._recv(expires_at)
        finally:
            self.lock.release()


class _ShardGroup:
    """All replicas of one shard: failover reads, broadcast writes.

    Reads rotate a round-robin cursor over the replicas and fail over
    to the next live peer when the preferred one is dead or misses its
    slice of the deadline; a dead replica is respawned on a background
    thread so the scatter path never blocks on a boot (except as a last
    resort when *every* replica is down).  Update ops broadcast to all
    replicas so the group changes epochs as a unit — a replica that
    misses a broadcast because it was dead is restarted from the new
    boot spec instead.
    """

    def __init__(self, index: int, ctx, boot: dict, replication: int) -> None:
        self.index = index
        self._ctx = ctx
        self.replicas: list[_ShardWorker] = []
        try:
            for replica in range(replication):
                self.replicas.append(_ShardWorker(index, ctx, boot, replica))
        except BaseException:
            self.shutdown()
            raise
        self._rr = 0
        self._rr_lock = make_lock("sharded.rr")
        self.failovers = 0
        self.background_restarts = 0

    # -- introspection --------------------------------------------------
    @property
    def replication(self) -> int:
        return len(self.replicas)

    @property
    def alive_count(self) -> int:
        return sum(1 for worker in self.replicas if worker.alive)

    @property
    def restarts(self) -> int:
        return sum(worker.restarts for worker in self.replicas)

    # -- reads ----------------------------------------------------------
    def _read_order(self) -> list[_ShardWorker]:
        """Replicas in attempt order: round-robin, live ones first."""
        with self._rr_lock:
            start = self._rr
            self._rr = (self._rr + 1) % len(self.replicas)
        rotated = self.replicas[start:] + self.replicas[:start]
        return [w for w in rotated if w.alive] + [
            w for w in rotated if not w.alive
        ]

    def _restart_in_background(
        self, worker: _ShardWorker, incarnation: int
    ) -> None:
        """Respawn a broken replica off the read path (at most one at a
        time per replica — a held lock means someone is already on it).

        ``incarnation`` is the worker incarnation the caller's request
        failed against: the respawn is skipped when someone else already
        replaced it, and happens regardless of ``is_alive()`` otherwise
        (a broken pipe condemns the incarnation even while the killed
        process awaits its waitpid).
        """
        if not worker.lock.acquire(blocking=False):
            return

        def _revive() -> None:
            try:
                if worker.incarnation == incarnation:
                    self.background_restarts += 1
                    worker.restart()
            except ReproError:
                pass  # stays dead; the next failover tries again
            finally:
                worker.lock.release()

        threading.Thread(
            target=_revive,
            name=f"repro-shard-{self.index}.{worker.replica}-revive",
            daemon=True,
        ).start()

    def query(
        self,
        compiled: CompiledQuery,
        k: int,
        algorithm: str | None,
        expires_at: float | None,
        restart_workers: bool,
    ):
        """One shard's partial answer ``(epoch, matches)``.

        The worker is sent ``compiled.tree`` and replies with
        ``(score, nodes)`` rows in the tree's breadth-first order; each
        row becomes a :class:`Match` whose assignment follows that order.

        Tries replicas until one answers: non-final attempts get at most
        half the remaining deadline budget, so a hung replica still
        leaves its peer enough time to answer; the final attempt gets
        whatever remains, and is the only one allowed to restart a dead
        worker inline.  Only when every replica is exhausted does
        :class:`ShardUnavailableError` propagate to the gather; a
        worker's error reply is re-raised from the coordinator's
        exception taxonomy.
        """
        candidates = self._read_order()
        if restart_workers:
            # Revive dead replicas the rotation is about to skip — a
            # replica nobody queries must not stay dead forever.
            for worker in candidates:
                if not worker.alive:
                    self._restart_in_background(worker, worker.incarnation)
        last = len(candidates) - 1
        last_error: Exception | None = None
        for position, worker in enumerate(candidates):
            final = position == last
            attempt_expires = expires_at
            if expires_at is not None and not final:
                now = time.monotonic()
                attempt_expires = min(
                    expires_at, now + (expires_at - now) / 2.0
                )
            incarnation = worker.incarnation
            try:
                reply = self._attempt(
                    worker,
                    compiled,
                    k,
                    algorithm,
                    attempt_expires,
                    restart_inline=final and restart_workers,
                )
            except (ShardUnavailableError, DeadlineExceededError) as exc:
                # A dead worker, or a hung one _recv poisoned (terminated):
                # revive it in the background and spend the rest of the
                # budget on a peer.
                last_error = exc
                if restart_workers:
                    self._restart_in_background(worker, incarnation)
                if final:
                    raise
                self.failovers += 1
                continue
            if reply[0] == "error":
                raise _worker_error(self.index, reply[1], reply[2])
            order = compiled.tree.bfs_order()
            return reply[1], [
                Match(dict(zip(order, nodes)), score) for score, nodes in reply[2]
            ]
        raise last_error  # pragma: no cover - loop always raises/returns

    def _attempt(
        self,
        worker: _ShardWorker,
        compiled: CompiledQuery,
        k: int,
        algorithm: str | None,
        expires_at: float | None,
        restart_inline: bool,
    ):
        incarnation = worker.incarnation
        payload = (compiled.tree, k, algorithm)
        try:
            return worker.call("query", payload, expires_at)
        except ShardUnavailableError:
            if not restart_inline:
                raise
            with worker.lock:
                if worker.incarnation == incarnation:
                    worker.restart()
            return worker.call("query", payload, expires_at)

    # -- writes ---------------------------------------------------------
    def broadcast(self, payload: tuple, boot: dict) -> None:
        """Ship one ``delta`` op to every replica.

        A dead replica is restarted from the *new* boot spec (which is
        equivalent to having applied the op); a live replica that
        rejects the op fails the whole update.
        """
        for worker in self.replicas:
            try:
                reply = worker.call("delta", payload, None)
            except ShardUnavailableError:
                with worker.lock:
                    worker._boot = boot
                    worker.restart()
                reply = ("ok", None)
            if reply[0] != "ok":
                raise ServiceError(
                    f"shard {self.index} (replica {worker.replica}) "
                    f"rejected the update: {reply[2]}"
                )
            worker._boot = boot

    def set_boot(self, boot: dict) -> None:
        for worker in self.replicas:
            worker._boot = boot

    def compact(self, expires_at: float | None) -> tuple[int, list[str]]:
        """Ask every replica to fold; returns ``(ok_count, errors)``."""
        oks = 0
        errors: list[str] = []
        for worker in self.replicas:
            try:
                reply = worker.call("compact", (), expires_at)
            except (ShardError, ServiceError) as exc:
                errors.append(
                    f"shard {self.index}.{worker.replica}: {exc}"
                )
                continue
            if reply[0] == "ok":
                oks += 1
            else:
                errors.append(
                    f"shard {self.index}.{worker.replica}: {reply[2]}"
                )
        return oks, errors

    # -- lifecycle ------------------------------------------------------
    def shutdown(self) -> None:
        for worker in self.replicas:
            worker.shutdown()


class ShardedMatchService(_ServiceFront):
    """Scatter-gather serving over one worker process per shard.

    Construct either from a graph (``ShardedMatchService(graph,
    num_shards=4)`` — subgraphs are planned here and shipped to the
    spawned workers) or from a sharded manifest
    (:meth:`from_manifest` — each worker opens only its own ``.ridx``,
    post-fork).  The query surface mirrors :class:`MatchService`:
    ``top_k`` / ``request`` sync, ``submit`` / ``batch`` over a bounded
    thread pool with deadlines and back-pressure.
    """

    _lock_prefix = "sharded"
    _thread_prefix = "shardedservice"

    def __init__(
        self,
        graph: LabeledDiGraph | None = None,
        config: EngineConfig | None = None,
        *,
        manifest: str | Path | None = None,
        num_shards: int = 2,
        max_workers: int = 4,
        max_pending: int | None = None,
        default_deadline: float | None = None,
        on_shard_failure: str = "error",
        restart_workers: bool = True,
        replication: int | None = None,
        wal_path: str | Path | None = None,
        **overrides,
    ) -> None:
        if (graph is None) == (manifest is None):
            raise ServiceError(
                "pass exactly one of graph= or manifest= to ShardedMatchService"
            )
        if replication is not None and replication < 1:
            raise ServiceError(
                f"replication must be >= 1, got {replication}"
            )
        if on_shard_failure not in ("error", "degrade"):
            raise ServiceError(
                'on_shard_failure must be "error" or "degrade", got '
                f"{on_shard_failure!r}"
            )
        super().__init__(max_workers, max_pending, default_deadline)
        self.on_shard_failure = on_shard_failure
        self.restart_workers = restart_workers
        self._ctx = multiprocessing.get_context("spawn")
        self._config = config if config is not None else EngineConfig(**overrides)
        self._epoch = 0
        self._degraded_responses = 0
        self._epoch_retries = 0
        self._shard_count_changes = 0
        self._shards: list[_ShardGroup] = []

        # -- per-shard write-ahead log state ---------------------------
        self.manifest_path: Path | None = None
        self._wal_dir = None if wal_path is None else Path(wal_path)
        self._wals: list[WriteAheadLog] = []
        #: Every record appended since the segments' generation stamp
        #: (mirrors the segments; seeds new segments on a resize).
        self._wal_records: list = []
        #: The epoch the segments' records apply on top of (the manifest
        #: epoch at the last durable checkpoint).
        self._wal_generation = 0
        self._wal_recovered_records = 0
        self._wal_stale_discards = 0

        if graph is not None:
            self.replication = replication if replication is not None else 1
            self._graph: LabeledDiGraph | None = graph.copy()
            self._plan: ShardPlan | None = ShardPlan.from_graph(
                self._graph, num_shards, self.replication
            )
            self.requested_shards = num_shards
            self._owner = self._plan.owners
            boots = [
                self._graph_boot(self._plan.subgraph(self._graph, spec.index), 0)
                for spec in self._plan.shards
            ]
        else:
            self.manifest_path = Path(manifest)
            document = load_manifest(self.manifest_path)
            self.replication = (
                replication
                if replication is not None
                else int(document.get("replication", 1))
            )
            self._graph = None  # reassembled lazily, on first apply_updates
            self._plan = None
            self._epoch = int(document.get("epoch", 0))
            self.requested_shards = document.get(
                "requested_shards", document["shard_count"]
            )
            self._owner = label_owners(
                entry["labels"] for entry in document["shards"]
            )
            boots = [
                self._file_boot(path, self._epoch)
                for path in shard_paths(document, self.manifest_path)
            ]

        if self._wal_dir is not None:
            boots = self._boot_wals(boots)

        try:
            self._shards = self._spawn_groups(boots)
        except BaseException:
            for wal in self._wals:
                wal.close()
            raise
        self.shard_count = len(self._shards)
        # Scatter fan-out runs on its own pool so a multi-shard request
        # inside a submit() worker thread cannot deadlock the request
        # pool against itself.
        self._fanout = ThreadPoolExecutor(
            max_workers=max(2, self.shard_count),
            thread_name_prefix="shardfanout",
        )

    def _spawn_groups(self, boots: list[dict], start: int = 0) -> list[_ShardGroup]:
        """One replica group per boot spec, indexed from ``start``; all or none."""
        groups: list[_ShardGroup] = []
        try:
            for index, boot in enumerate(boots, start):
                groups.append(_ShardGroup(index, self._ctx, boot, self.replication))
        except BaseException:
            for group in groups:
                group.shutdown()
            raise
        return groups

    @classmethod
    def from_manifest(
        cls, manifest: str | Path, **kwargs
    ) -> "ShardedMatchService":
        """Serve a sharded index; each worker mmaps only its own shard."""
        return cls(manifest=manifest, **kwargs)

    def _graph_boot(self, subgraph: LabeledDiGraph, epoch: int) -> dict:
        """Boot spec of a worker built from a shipped subgraph."""
        return {
            "mode": "graph", "graph": subgraph, "config": self._config,
            "epoch": epoch,
        }

    @staticmethod
    def _file_boot(path, epoch: int) -> dict:
        """Boot spec of a worker that opens one shard's ``.ridx``."""
        return {"mode": "file", "path": str(path), "overrides": {}, "epoch": epoch}

    # ------------------------------------------------------------------
    # Per-shard write-ahead log
    # ------------------------------------------------------------------
    def _wal_segment_path(self, index: int) -> Path:
        return self._wal_dir / f"shard-{index:02d}.wal"

    def _boot_wals(self, boots: list[dict]) -> list[dict]:
        """Open one WAL segment per shard; replay what a crash left.

        Each segment carries the same global record stream (see the
        module docstring for why shard-local streams are unsound), so
        recovery takes the longest surviving sequence — every shorter
        segment must be a prefix of it (a crash mid-append tears at
        most the tail of each).  A segment stamped older than the boot
        epoch is the checkpoint-then-crash window: its records are
        already in the shard files, so it is discarded.  Recovered
        records are replayed onto the assembled base graph, the layout
        is re-planned one epoch later, and the returned boot specs park
        each shard's replayed subgraph as a pending overlay.
        """
        # Boot runs before the service is shared, but the WAL/plan/graph
        # fields it rebinds are _update_lock state everywhere else —
        # hold it here too so the invariant is unconditional.
        with self._update_lock:
            self._wal_dir.mkdir(parents=True, exist_ok=True)
            base = self._epoch
            self._wal_generation = base
            wals: list[WriteAheadLog] = []
            sequences: list[tuple] = []
            try:
                for index in range(len(boots)):
                    wal = WriteAheadLog(
                        self._wal_segment_path(index), generation=base
                    )
                    wals.append(wal)
                    if wal.generation < base:
                        wal.rewrite((), generation=base)
                        self._wal_stale_discards += 1
                    elif wal.generation > base:
                        raise ServiceError(
                            f"WAL segment {wal.path} is stamped generation "
                            f"{wal.generation}, ahead of the index epoch "
                            f"{base}; it does not pair with this index"
                        )
                    else:
                        sequences.append(wal.recovered_records)
                # Segments past the shard count are a crashed resize's
                # leftovers; they hold the same stream, so honour then
                # drop them.
                known = {wal.path for wal in wals}
                for orphan in sorted(self._wal_dir.glob("shard-*.wal")):
                    if orphan in known or orphan.suffix != ".wal":
                        continue
                    scan = scan_wal(orphan)
                    if scan.generation == base:
                        sequences.append(scan.records)
                    orphan.unlink()
                best: tuple = ()
                for sequence in sequences:
                    if len(sequence) > len(best):
                        best = sequence
                for sequence in sequences:
                    if tuple(best[: len(sequence)]) != tuple(sequence):
                        raise ServiceError(
                            "per-shard WAL segments disagree (not prefixes "
                            "of one stream); refusing to guess a replay "
                            f"order under {self._wal_dir}"
                        )
            except BaseException:
                for wal in wals:
                    wal.close()
                raise
            self._wals = wals
            self._wal_records = list(best)
            self._wal_recovered_records = len(best)
            if not best:
                return boots
            graph = self._materialize_graph().copy()
            try:
                apply_records(graph, best)
            except (GraphError, TypeError, ValueError, IndexError) as exc:
                raise ServiceError(
                    f"recovered per-shard WAL does not apply to this "
                    f"index: {exc}"
                ) from exc
            self._graph = graph
            self._epoch = base + 1
            plan = ShardPlan.from_graph(
                graph, self.requested_shards, self.replication
            )
            self._plan = plan
            self._owner = plan.owners
            replayed: list[dict] = []
            for spec in plan.shards:
                subgraph = plan.subgraph(graph, spec.index)
                old = boots[spec.index] if spec.index < len(boots) else None
                if old is not None and old.get("mode") == "file":
                    replayed.append(
                        {**old, "epoch": self._epoch, "pending": subgraph}
                    )
                else:
                    replayed.append(self._graph_boot(subgraph, self._epoch))
            self._realign_wals(len(replayed))
            return replayed

    def _realign_wals(self, count: int) -> None:
        """Match the segment set to ``count`` shards (resize support).

        Surplus segments are deleted; new ones are seeded with the full
        record history at the current stamp, keeping every segment a
        replica of the same stream.
        """
        if self._wal_dir is None:
            return
        while len(self._wals) > count:
            wal = self._wals.pop()
            path = wal.path
            wal.close()
            path.unlink(missing_ok=True)
        for index in range(len(self._wals), count):
            wal = WriteAheadLog(
                self._wal_segment_path(index),
                generation=self._wal_generation,
            )
            wal.rewrite(
                tuple(self._wal_records), generation=self._wal_generation
            )
            self._wals.append(wal)

    def _wal_append_locked(self, records) -> None:
        """Write-ahead step of ``apply_updates``: every segment, then ack."""
        for wal in self._wals:
            wal.append(records)
        self._wal_records.extend(records)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    def statistics(self, include_shards: bool = False) -> dict:
        """Serving counters; ``include_shards=True`` adds per-worker stats."""
        stats = self._front_statistics()
        stats.update(
            shard_count=self.shard_count,
            requested_shards=self.requested_shards,
            replication=self.replication,
            degraded_responses=self._degraded_responses,
            epoch_retries=self._epoch_retries,
            worker_restarts=sum(g.restarts for g in self._shards),
            workers_alive=sum(g.alive_count for g in self._shards),
            failovers=sum(g.failovers for g in self._shards),
            background_restarts=sum(
                g.background_restarts for g in self._shards
            ),
        )
        stats["delta"].update(
            shard_count_changes=self._shard_count_changes,
            wal=None
            if self._wal_dir is None
            else {
                "dir": str(self._wal_dir),
                "generation": self._wal_generation,
                "records": len(self._wal_records),
                "recovered_records": self._wal_recovered_records,
                "stale_discards": self._wal_stale_discards,
                "segments": [wal.stats() for wal in self._wals],
            },
        )
        if include_shards:
            shards = []
            for group in self._shards:
                entry = {
                    "replication": group.replication,
                    "replicas_alive": group.alive_count,
                    "restarts": group.restarts,
                    "failovers": group.failovers,
                }
                preferred = next(
                    (w for w in group.replicas if w.alive),
                    group.replicas[0],
                )
                try:
                    reply = preferred.call(
                        "stats", (), time.monotonic() + 10.0
                    )
                    entry["engine"] = (
                        reply[1] if reply[0] == "ok" else {"error": reply[2]}
                    )
                except (ShardError, ServiceError) as exc:
                    entry["engine"] = {"unavailable": str(exc)}
                shards.append(entry)
            stats["shards"] = shards
        return stats

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def route(self, query) -> tuple[int, ...]:
        """Shard indices ``query`` scatters to (sorted, possibly empty)."""
        return route(
            compile_query(query), self._owner, self.shard_count,
            self._config.label_matcher,
        )

    def _scatter_once(
        self,
        compiled: CompiledQuery,
        k: int,
        algorithm: str | None,
        expires_at: float | None,
    ) -> tuple[int, list[Match], tuple[int, ...], tuple[int, ...], bool]:
        """One scatter round: ``(epoch, matches, routed, failed, consistent)``."""
        targets = route(
            compiled, self._owner, self.shard_count, self._config.label_matcher
        )
        if not targets:
            return self._epoch, [], (), (), True
        # Snapshot the group list once: a concurrent resize swaps it
        # out whole, and a routing table that outruns the swap would
        # index past the end — report inconsistent and retry instead.
        groups = self._shards
        if any(shard >= len(groups) for shard in targets):
            return self._epoch, [], targets, (), False
        # The first target is served on the caller's thread (a single
        # routed shard never touches the pool); the rest fan out.  Replies
        # are gathered in target order either way.
        args = (compiled, k, algorithm, expires_at, self.restart_workers)
        first, *rest = targets
        calls = [(first, partial(groups[first].query, *args))] + [
            (shard, self._fanout.submit(groups[shard].query, *args).result)
            for shard in rest
        ]
        partials: list[list[Match]] = []
        epochs: set[int] = set()
        failed: list[int] = []
        first_error: Exception | None = None
        for shard, answer in calls:
            try:
                epoch, matches = answer()
                epochs.add(epoch)
                partials.append(matches)
            except ShardUnavailableError as exc:
                failed.append(shard)
                if first_error is None:
                    first_error = exc
            except Exception as exc:  # noqa: BLE001 - gather must drain all
                if first_error is None or isinstance(
                    first_error, ShardUnavailableError
                ):
                    first_error = exc
        if first_error is not None and not isinstance(
            first_error, ShardUnavailableError
        ):
            raise first_error
        if failed and (self.on_shard_failure == "error" or not partials):
            raise first_error
        consistent = len(epochs) <= 1
        epoch = epochs.pop() if epochs else self._epoch
        return epoch, merge_topk(partials, k), targets, tuple(failed), consistent

    def _answer(
        self, query, k: int, algorithm: str | None, expires_at: float | None
    ) -> ShardedResponse:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        started = time.perf_counter()
        compiled = refuse_cyclic(compile_query(query))
        self._count("_requests")
        for _attempt in range(_EPOCH_RETRIES + 1):
            epoch, matches, routed, failed, consistent = self._scatter_once(
                compiled, k, algorithm, expires_at
            )
            if consistent:
                # An answer whose shards all agree on one epoch is a
                # consistent snapshot even if an update landed
                # concurrently; only mixed-epoch scatters (some shards
                # pre-update, some post-update) must retry.
                if failed:
                    self._count("_degraded_responses")
                return ShardedResponse(
                    matches=tuple(matches),
                    epoch=epoch,
                    k=k,
                    algorithm=algorithm,
                    shards_routed=routed,
                    shards_failed=failed,
                    degraded=bool(failed),
                    elapsed_seconds=time.perf_counter() - started,
                )
            self._count("_epoch_retries")
        raise ServiceError(
            f"request could not observe a consistent epoch after "
            f"{_EPOCH_RETRIES} retries (updates arriving too fast?)"
        )

    def request(
        self,
        query,
        k: int,
        algorithm: str | None = None,
        deadline: float | None = None,
    ) -> ShardedResponse:
        """Like :meth:`top_k` but returns the full :class:`ShardedResponse`."""
        self._check_open()
        return self._answer(query, k, algorithm, self._expiry(deadline))

    # ------------------------------------------------------------------
    # Updates: one epoch-consistent delta across all shards
    # ------------------------------------------------------------------
    def _materialize_graph(self) -> LabeledDiGraph:
        """The full graph (reassembled from the shards on first need)."""
        if self._graph is None:
            from repro.engine.core import MatchEngine

            document = load_manifest(self.manifest_path)
            # Both callers (_boot_wals, apply_updates) hold _update_lock;
            # this helper has no unlocked entry point.
            # reprolint: disable=RL004
            self._graph = _union_graph(
                MatchEngine.load(path).graph
                for path in shard_paths(document, self.manifest_path)
            )
        return self._graph

    def apply_updates(
        self,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: dict | None = None,
        labels_changed: dict | None = None,
        num_shards: int | None = None,
    ) -> dict:
        """Re-plan and move every shard to the next epoch.

        Each worker is sent its new subgraph as a ``delta`` op: it parks
        the subgraph, becomes the new epoch immediately, and folds on
        its next query, so this call returns without waiting for any
        backend rebuild.  Requests racing an update are epoch-checked
        and retried by :meth:`_answer`, so every response reflects
        exactly one graph version.

        ``labels_changed`` relabels existing nodes (may move them across
        label-range shards).  ``num_shards`` re-spreads the graph over a
        different worker count in the same update (workers are spawned
        or retired as needed; a kept worker whose nodes moved away
        rebuilds at its fold).  Returns a summary report dict.
        """
        records = update_records(
            edges_added, edges_removed, nodes_added, labels_changed
        )
        if not records and num_shards is None:
            raise ServiceError(
                "apply_updates needs at least one change (edges_added, "
                "edges_removed, nodes_added, or labels_changed) or a "
                "num_shards target"
            )
        if num_shards is not None and num_shards < 1:
            raise ServiceError(
                f"num_shards must be positive, got {num_shards}"
            )
        started = time.perf_counter()
        with self._update_lock:
            self._check_open()
            graph = self._materialize_graph().copy()
            try:
                apply_records(graph, records)
            except (GraphError, TypeError, ValueError, IndexError) as exc:
                raise ServiceError(f"invalid graph update: {exc}") from exc
            if num_shards is not None:
                self.requested_shards = num_shards
            plan = ShardPlan.from_graph(
                graph, self.requested_shards, self.replication
            )
            new_epoch = self._epoch + 1
            subgraphs = [
                plan.subgraph(graph, spec.index) for spec in plan.shards
            ]
            resized = plan.shard_count != self.shard_count
            # Write-ahead: the batch must be durable in every shard's
            # segment before any worker serves the new epoch — this is
            # the acknowledgement barrier.
            if self._wals and records:
                self._wal_append_locked(records)
            if resized:
                self._resize_workers_locked(subgraphs, new_epoch)
                self._realign_wals(self.shard_count)
            else:
                for group, subgraph in zip(self._shards, subgraphs):
                    group.broadcast(
                        (new_epoch, subgraph),
                        self._graph_boot(subgraph, new_epoch),
                    )
            self._graph = graph
            self._plan = plan
            self._owner = plan.owners
            self._epoch = new_epoch
            self._count("_updates_applied")
            if resized:
                self._count("_shard_count_changes")
        return {
            "epoch": new_epoch,
            **record_counts(records),
            "shard_count": self.shard_count,
            "resized": resized,
            "elapsed_seconds": time.perf_counter() - started,
        }

    def _resize_workers_locked(self, subgraphs, new_epoch: int) -> None:
        """Grow or shrink the worker set to ``len(subgraphs)`` shards.

        Kept workers are sent their new subgraph as a ``delta`` op (a
        re-spread moves labels between shards, so their fold rebuilds
        when nodes left); new workers boot from their subgraph; surplus
        workers are retired after the new list is installed, so an
        in-flight scatter holding the old list still finds live handles
        (its mixed-epoch reply triggers the normal retry).
        """
        old_groups = self._shards
        new_count = len(subgraphs)
        boots = [self._graph_boot(subgraph, new_epoch) for subgraph in subgraphs]
        kept = old_groups[:new_count]
        for group, boot in zip(kept, boots):
            group.broadcast((new_epoch, boot["graph"]), boot)
        added = self._spawn_groups(boots[len(kept):], len(kept))
        retired = old_groups[new_count:]
        self._shards = kept + added
        self.shard_count = new_count
        for group in retired:
            group.shutdown()
        if added:
            # The fan-out pool must cover a full scatter concurrently;
            # grow it and let the old pool drain in the background.
            old_fanout = self._fanout
            self._fanout = ThreadPoolExecutor(
                max_workers=max(2, new_count),
                thread_name_prefix="shardfanout",
            )
            old_fanout.shutdown(wait=False)

    def compact(self) -> dict:
        """Fold every worker's pending delta overlay now.

        The sharded sibling of :meth:`MatchService.compact`: workers
        materialize off the query path, so a quiet period can absorb
        accumulated overlays before the next traffic burst.

        On a manifest-backed service with a per-shard WAL this is also
        the **durable checkpoint** (the sharded edition of the swap
        protocol): re-shard the current graph over the manifest at the
        current epoch, then truncate every segment with the new stamp.
        A crash between the two steps leaves segments stamped with the
        old generation — exactly what the boot-time stale-segment
        discard detects.  Graph-constructed services have no durable
        base to checkpoint into, so their segments are left intact.
        """
        started = time.perf_counter()
        with self._update_lock:
            self._check_open()
            compacted = 0
            errors: list[str] = []
            for group in self._shards:
                oks, group_errors = group.compact(
                    time.monotonic() + _BOOT_TIMEOUT
                )
                errors.extend(group_errors)
                if oks == group.replication:
                    compacted += 1
            checkpointed = False
            if (
                self._wals
                and self._wal_records
                and not errors
                and self.manifest_path is not None
                and self._graph is not None
            ):
                document = shard_index(
                    self._graph,
                    self.manifest_path,
                    self.requested_shards,
                    self._config,
                    epoch=self._epoch,
                    replication=self.replication,
                )
                paths = shard_paths(document, self.manifest_path)
                for group, path in zip(self._shards, paths):
                    group.set_boot(self._file_boot(path, self._epoch))
                for wal in self._wals:
                    wal.rewrite((), generation=self._epoch)
                self._wal_generation = self._epoch
                self._wal_records = []
                checkpointed = True
            self._count("_compactions")
        return {
            "epoch": self._epoch,
            "shards_compacted": compacted,
            "checkpointed": checkpointed,
            "errors": errors,
            "elapsed_seconds": time.perf_counter() - started,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting requests, stop the pools, reap every worker.

        WAL segments are closed, **not** truncated: pending records
        stay durable for the next boot's replay (checkpointing is
        :meth:`compact`'s job, not close's).
        """
        super().close(wait)
        self._fanout.shutdown(wait=wait)
        for group in self._shards:
            group.shutdown()
        for wal in self._wals:
            wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedMatchService(shards={self.shard_count}, "
            f"epoch={self._epoch}, closed={self._closed})"
        )
