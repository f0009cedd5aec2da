"""Spawn-safe shard worker process.

One worker hosts one shard's :class:`~repro.engine.MatchEngine` and
serves a tiny request/response protocol over a ``multiprocessing``
pipe.  The entry point is a module-level function so the ``spawn``
start method (the only one that is safe with threads and the one
:class:`~repro.service.ShardedMatchService` always uses) can import it
by name; the shard index is opened *inside* the child — post-fork in
spirit — so mmap'd pages are owned by the worker and never copied
through the parent.

Protocol (requests are ``(op, *payload)`` tuples; replies are
``("ok", ...)``, ``("error", exc_class_name, message)``):

===========  =============================================  ==============
op           payload                                        ok-reply
===========  =============================================  ==============
``ping``     —                                              ``epoch``
``query``    ``tree, k, algorithm``                         ``epoch, rows``
``delta``    ``epoch, subgraph``                            ``epoch``
``compact``  —                                              ``epoch``
``stats``    —                                              ``stats dict``
``exit``     —                                              ``None`` (then exit)
===========  =============================================  ==============

A ``query`` ships the physical :class:`~repro.graph.query.QueryTree`
(the caller's node ids intact), which the worker re-wraps with
:func:`~repro.query.compiler.compile_query`; it answers with one
``(score, nodes)`` row per match, ``nodes`` listing the data nodes in
the tree's breadth-first order, from which the coordinator rebuilds each
:class:`~repro.core.matches.Match` (assignment in that same order).  Both
forms pickle to less than half the bytes of a ``CompiledQuery`` (which
carries its AST) and of a list of ``Match`` objects.

Every ``query`` reply carries the worker's current epoch, which is how
the coordinator detects a request that raced an ``apply_updates`` call
and retries it for an epoch-consistent answer.  Errors inside an op are
caught and shipped back by *name* (exception classes cross the pipe as
strings, and the coordinator re-raises them from its own taxonomy);
only a broken pipe kills the worker.

``delta`` is the one update op: the worker parks the shipped subgraph
as a pending overlay, bumps its epoch immediately, and folds via
:func:`repro.delta.view.fold_graph` on the next ``query`` / ``stats`` /
``compact`` — an incremental refresh that shares every unaffected
closure row with the old engine (a rebuild when nodes left the shard or
changed label, as after a resize), so sustained write traffic never
stalls the scatter path on whole-shard rebuilds.
"""

from __future__ import annotations

import contextlib


def worker_main(conn, boot: dict) -> None:
    """Run one shard worker until ``exit`` or a broken pipe.

    ``boot`` describes how to build the engine:

    * ``{"mode": "file", "path": ..., "overrides": {...}}`` — open one
      shard's ``.ridx`` via :meth:`MatchEngine.load` (mmap happens here,
      in the child);
    * ``{"mode": "graph", "graph": LabeledDiGraph, "config": EngineConfig,
      "epoch": int}`` — build from a shipped subgraph (graph-constructed
      services, workers a resize adds, replicas an update restarts).

    Either mode may carry ``"pending": LabeledDiGraph`` — the shard's
    current subgraph when it is ahead of the booted base (a replica
    respawning after a ``delta`` it missed, or a coordinator that
    replayed per-shard WAL records over the on-disk files).  It is
    parked exactly like a ``delta`` op and folded on the first read, so
    a restarted replica rejoins at the group's epoch instead of serving
    the stale base.
    """
    from repro.delta.view import fold_graph
    from repro.engine.core import MatchEngine
    from repro.query.compiler import compile_query

    try:
        if boot["mode"] == "file":
            engine = MatchEngine.load(boot["path"], **boot.get("overrides", {}))
        else:
            engine = MatchEngine(boot["graph"], boot["config"])
        epoch = int(boot.get("epoch", 0))
        conn.send(("ok", epoch))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        with contextlib.suppress(Exception):
            conn.send(("error", type(exc).__name__, str(exc)))
        return

    # Deferred-overlay state for the ``delta`` op (possibly pre-seeded
    # by the boot spec when the base the worker opened is stale).
    pending_graph = boot.get("pending")
    materializations = 0
    last_materialize_seconds = 0.0

    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away; die quietly
        op, payload = request[0], request[1:]
        try:
            if pending_graph is not None and op in ("query", "stats", "compact"):
                folded = fold_graph(engine, pending_graph)
                engine = folded.engine
                pending_graph = None
                materializations += 1
                last_materialize_seconds = folded.elapsed_seconds
            if op == "ping":
                reply = ("ok", epoch)
            elif op == "query":
                tree, k, algorithm = payload
                order = tree.bfs_order()
                matches = engine.top_k(compile_query(tree), k, algorithm=algorithm)
                rows = [
                    (match.score, tuple(map(match.assignment.__getitem__, order)))
                    for match in matches
                ]
                reply = ("ok", epoch, rows)
            elif op == "delta":
                # Park the target subgraph and become the new epoch now;
                # the expensive fold happens on the next read, off the
                # coordinator's update path.  Consecutive deltas just
                # replace the target (it is always the full new state).
                new_epoch, subgraph = payload
                pending_graph = subgraph
                epoch = int(new_epoch)
                reply = ("ok", epoch)
            elif op == "compact":
                reply = ("ok", epoch)
            elif op == "stats":
                stats = engine.statistics()
                stats["delta"] = {
                    "materializations": materializations,
                    "last_materialize_seconds": last_materialize_seconds,
                }
                reply = ("ok", stats)
            elif op == "exit":
                with contextlib.suppress(Exception):
                    conn.send(("ok", None))
                return
            else:
                reply = ("error", "ShardError", f"unknown worker op {op!r}")
        except BaseException as exc:  # noqa: BLE001 - must cross the pipe
            reply = ("error", type(exc).__name__, str(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return
