"""Per-layer metrics of the traced run.

:func:`install` wraps the program's public entry points that the service
and shard paths call, at the attribute their caller looks up, so every
call leaves a span (the library path needs no wraps: ``paper_topk``
calls each layer itself, inside its own spans).  :func:`collect` turns
the spans, the counts read off returned objects, ``store.counter``
deltas and ``statistics()`` deltas into the metrics named in
:data:`METRICS`.

Units: ``.calls`` metrics are calls per measured op, ``.ms`` metrics are
mean self milliseconds per call, scaled to the reference host like every
time the benchmark reports; closure counts are per read.
"""

from __future__ import annotations

#: name -> (unit, better); the per-layer half of BENCHMARK.json.
METRICS = {
    "query.compile.calls": ("1/op", "lower"),
    "query.compile.ms": ("ms", "lower"),
    "engine.plan.calls": ("1/op", "lower"),
    "engine.plan.ms": ("ms", "lower"),
    "kernel.lower.calls": ("1/op", "lower"),
    "kernel.lower.ms": ("ms", "lower"),
    "kernel.bind.calls": ("1/op", "lower"),
    "kernel.bind.ms": ("ms", "lower"),
    "kernel.bind.slot_entries": ("count", "lower"),
    "kernel.run.ms": ("ms", "lower"),
    "kernel.run.matches": ("count", "higher"),
    "kernel.compiled_ratio": ("ratio", "higher"),
    "core.enumerate.calls": ("1/op", "lower"),
    "core.enumerate.ms": ("ms", "lower"),
    "closure.blocks_read": ("1/read", "lower"),
    "closure.entries_read": ("1/read", "lower"),
    "closure.tables_opened": ("1/read", "lower"),
    "closure.sim_io_ms": ("ms", "lower"),
    "closure.build.ms": ("ms", "lower"),
    "closure.store_build.ms": ("ms", "lower"),
    "closure.tc_refresh.ms": ("ms", "lower"),
    "closure.pair_count": ("count", "lower"),
    "closure.bytes_estimate": ("B", "lower"),
    "storage.save.ms": ("ms", "lower"),
    "storage.open.ms": ("ms", "lower"),
    "storage.index_bytes": ("B", "lower"),
    "service.result_cache.hit_ratio": ("ratio", "higher"),
    "service.result_cache.evictions": ("1/op", "lower"),
    "service.plan_cache.hit_ratio": ("ratio", "higher"),
    "service.compile_cache.hit_ratio": ("ratio", "higher"),
    "service.hit.ms": ("ms", "lower"),
    "service.miss.ms": ("ms", "lower"),
    "service.results_migrated_ratio": ("ratio", "higher"),
    "delta.apply.ms": ("ms", "lower"),
    "delta.wal_append.calls": ("1/op", "lower"),
    "delta.wal_append.ms": ("ms", "lower"),
    "delta.wal.bytes_per_record": ("B", "lower"),
    "delta.fold.calls": ("1/op", "lower"),
    "delta.fold.ms": ("ms", "lower"),
    "delta.compact.calls": ("1/op", "lower"),
    "delta.compact.ms": ("ms", "lower"),
    "delta.generation_bytes": ("B", "lower"),
    "shard.fanout": ("shards", "lower"),
    "shard.merge.ms": ("ms", "lower"),
    "shard.remote.ms": ("ms", "lower"),
    "shard.epoch_retries": ("1/op", "lower"),
    "shard.worker_restarts": ("count", "lower"),
    "py.gc.collections": ("1/op", "lower"),
    "py.gc.pause_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "error_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans_per_op": ("1/op", "lower"),
}

#: Spans reported as calls per op and self ms per call.
_PER_OP = ("query.compile", "engine.plan", "kernel.lower", "kernel.bind",
           "core.enumerate", "delta.wal_append", "delta.fold", "delta.compact")
#: Spans reported as self ms per call only (set-up work, or one per op).
_PER_CALL = ("kernel.run", "closure.build", "closure.store_build", "closure.tc_refresh",
             "storage.save", "storage.open", "delta.apply", "shard.merge")


def install(wl, tracer) -> None:
    """Wrap the entry points ``wl``'s path reaches (undone by ``tracer.uninstall``)."""
    from repro.closure.store import ClosureStore
    from repro.closure.transitive import TransitiveClosure

    tracer.wrap(TransitiveClosure, "__init__", "closure.build")
    tracer.wrap(TransitiveClosure, "refreshed", "closure.tc_refresh")
    tracer.wrap(ClosureStore, "__init__", "closure.store_build")
    if wl.PATH == "service":
        _install_service(tracer)
    elif wl.PATH == "sharded":
        import repro.service.sharded as sharded

        tracer.wrap(sharded, "compile_query", "query.compile")
        tracer.wrap(sharded, "merge_topk", "shard.merge")


def _install_service(tracer) -> None:
    import repro.engine.core as engine_core
    import repro.service.service as service
    from repro.core.baseline_dp import DPBEnumerator
    from repro.core.baseline_dpp import DPPEnumerator
    from repro.core.topk import TopkEnumerator
    from repro.core.topk_en import TopkEN
    from repro.delta.wal import WriteAheadLog
    from repro.engine.planner import Planner
    from repro.kernel.executor import KernelRun
    from repro.service.cache import ResultCache

    def bound(result, _args):
        tracer.add("kernel.slot_entries", result.num_slot_entries)

    def ran(result, _args):
        tracer.add("kernel.matches", len(result))

    def folded(result, _args):
        tracer.io_counters.append(result.engine.store.counter)

    def appended(result, args):
        tracer.add("delta.wal_bytes", result)
        tracer.add("delta.wal_records", len(args[1]))

    def advanced(result, _args):
        tracer.add("service.migrated", result[0])
        tracer.add("service.dropped", result[1])

    tracer.wrap(service, "compile_query", "query.compile")
    tracer.wrap(Planner, "plan", "engine.plan")
    tracer.wrap(engine_core, "compile_program", "kernel.lower")
    tracer.wrap(engine_core, "bind_program", "kernel.bind", bound)
    tracer.wrap(KernelRun, "top_k", "kernel.run", ran)
    for enumerator in (TopkEN, TopkEnumerator, DPBEnumerator, DPPEnumerator):
        tracer.wrap(enumerator, "top_k", "core.enumerate")
    tracer.wrap(service, "fold", "delta.fold", folded)
    tracer.wrap(WriteAheadLog, "append", "delta.wal_append", appended)
    tracer.wrap(ResultCache, "advance", "service.migrate", advanced)


def snapshot(wl, system) -> dict:
    """Counters to diff against after the traced pass."""
    counters = list(wl.io_counters(system))
    return {
        "io": [(c, c.snapshot()) for c in counters],
        "stats": wl.stats(system),
    }


def collect(wl, tracer, system, before: dict, traced) -> dict:
    from perfbench.measure import percentile
    from repro.storage.iostats import IOCostModel, IOCounter

    ops = max(1, traced.done)
    reads = max(1, traced.count("read"))
    spans = tracer.self_times()
    out = {name: 0.0 for name in METRICS}

    scale = traced.speed
    for name in _PER_OP + _PER_CALL:
        calls, ms = spans.get(name, (0, 0.0))
        out[f"{name}.ms"] = scale * ms / calls if calls else 0.0
        if name in _PER_OP:
            out[f"{name}.calls"] = calls / ops
    binds = spans.get("kernel.bind", (0, 0.0))[0]
    runs = spans.get("kernel.run", (0, 0.0))[0]
    interpreted = spans.get("core.enumerate", (0, 0.0))[0]
    out["kernel.bind.slot_entries"] = tracer.counts["kernel.slot_entries"] / binds if binds else 0.0
    out["kernel.run.matches"] = tracer.counts["kernel.matches"] / runs if runs else 0.0
    if runs + interpreted:
        out["kernel.compiled_ratio"] = runs / (runs + interpreted)

    # Closure traffic: the engine's block counters, plus those of every
    # engine a fold created during the pass (they start from zero).
    total = IOCounter()
    for counter, start in before["io"]:
        _accumulate(total, counter.delta_since(start))
    for counter in tracer.io_counters:
        _accumulate(total, counter)
    out["closure.blocks_read"] = total.blocks_read / reads
    out["closure.entries_read"] = total.entries_read / reads
    out["closure.tables_opened"] = total.tables_opened / reads
    out["closure.sim_io_ms"] = IOCostModel().io_seconds(total) * 1e3 / reads

    stats = wl.stats(system)
    delta = {key: stats[key] - before["stats"].get(key, 0) for key in stats}

    def ratio(hits: str, misses: str) -> float:
        lookups = delta.get(hits, 0) + delta.get(misses, 0)
        return delta.get(hits, 0) / lookups if lookups else 0.0

    out["service.result_cache.hit_ratio"] = ratio("result_hits", "result_misses")
    out["service.plan_cache.hit_ratio"] = ratio("plan_hits", "plan_misses")
    out["service.compile_cache.hit_ratio"] = ratio("compile_hits", "compile_misses")
    out["service.result_cache.evictions"] = delta.get("result_evictions", 0) / ops
    for tag in ("hit", "miss"):
        values = traced.latencies.get(f"read.{tag}")
        out[f"service.{tag}.ms"] = percentile(values, 50) * 1e3 if values else 0.0
    moved = tracer.counts["service.migrated"] + tracer.counts["service.dropped"]
    if moved:
        out["service.results_migrated_ratio"] = tracer.counts["service.migrated"] / moved
    records = tracer.counts["delta.wal_records"]
    if records:
        out["delta.wal.bytes_per_record"] = tracer.counts["delta.wal_bytes"] / records

    if wl.PATH == "sharded":
        out["shard.fanout"] = tracer.counts["shard.fanout"] / reads
        calls, ms = spans.get("op.read", (0, 0.0))
        out["shard.remote.ms"] = scale * ms / calls if calls else 0.0
        out["shard.epoch_retries"] = delta.get("epoch_retries", 0) / ops
        out["shard.worker_restarts"] = delta.get("worker_restarts", 0)

    if tracer.gc_collections:
        out["py.gc.collections"] = tracer.gc_collections / ops
        out["py.gc.pause_ms"] = scale * tracer.gc_pause_ns / 1e6 / tracer.gc_collections
    out.update(wl.static(system))
    return out


def _accumulate(total, part) -> None:
    total.blocks_read += part.blocks_read
    total.entries_read += part.entries_read
    total.tables_opened += part.tables_opened
