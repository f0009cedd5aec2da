"""``sharded_scatter``: scatter-gather through ``ShardedMatchService``.

A 1,200-paper citation DAG whose labels are ``venue+area`` is split into
2 label-range shards, served by 2 spawn workers (R = 1), which fits 2
cores.  Every request is a distinct 3-8-node query; one in four has a
containment root (``~aN``) over the area token, which labels on both
shards carry, so it fans out to both workers.  A fan-out query costs about
three single-shard ones; with half of each, p50 would fall in the gap
between the two groups and jump between runs.  This is the one workload
that runs shard routing, the pickle/pipe transport and the top-k merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from perfbench.inputs import GraphSpec, Query, citation_dag, dataset_rng, digest, make_rng, query_pool
from perfbench.measure import Outcome, tie_aware_form

NAME = "sharded_scatter"
PATH = "sharded"
SIZES = (3, 4, 5, 6, 7, 8)
KS = (10, 20)
SHARDS = 2
#: One query in ``CONTAINMENT`` has a containment root and fans out.
CONTAINMENT = 4
CHECKS = 40


@dataclass
class Inputs:
    graph: GraphSpec
    queries: list[Query]
    warmup: list[Query]
    digest: str


@dataclass
class System:
    service: object
    manifest: Path


def make_inputs(seed: int, tiny: bool) -> Inputs:
    nodes, venues, count = (300, 12, 60) if tiny else (1200, 40, 6000)
    graph = citation_dag(dataset_rng(NAME), nodes, venues, num_areas=4)
    queries = query_pool(make_rng(NAME, seed, "queries"), graph, count, SIZES,
                         KS, containment=CONTAINMENT)
    warmup = query_pool(make_rng(NAME, seed, "warmup"), graph, 20, SIZES,
                        KS, containment=CONTAINMENT)
    return Inputs(graph, queries, warmup, digest(NAME, graph, queries, warmup))


def setup(inputs: Inputs, workdir: Path, tracer=None) -> System:
    from repro.service.sharded import ShardedMatchService
    from repro.shard.manifest import shard_index

    manifest = workdir / "index.ridx"
    shard_index(inputs.graph.build(), manifest, SHARDS, backend="full")
    return System(ShardedMatchService.from_manifest(manifest, replication=1), manifest)


def start(inputs: Inputs, system: System) -> dict:
    for query in inputs.warmup:
        execute(system, query, None)
    return {"next": 0, "queries": inputs.queries}


def next_op(state: dict, elapsed: float, seconds: float, enough: bool):
    if enough:
        return None
    queries = state["queries"]
    query = queries[state["next"] % len(queries)]
    state["next"] += 1
    return query


def op_kind(op) -> str:
    return "read"


def execute(system: System, query: Query, tracer) -> Outcome:
    response = system.service.request(query.text, query.k)
    if tracer is not None:
        tracer.add("shard.fanout", len(response.shards_routed))
    return Outcome("read", response.matches)


def check(inputs: Inputs, system: System, state, run) -> tuple[int, int]:
    """Sharded answers must match the flat engine's."""
    from repro import MatchEngine

    flat = MatchEngine(inputs.graph.build(), backend="full")
    replies = [run.sampled[i] for i in sorted(run.sampled)][:CHECKS]
    wrong = sum(
        tie_aware_form(list(answer), query.k)
        != tie_aware_form(flat.top_k(query.text, query.k), query.k)
        for query, answer in replies
    )
    return len(replies), wrong


def close(system: System) -> None:
    if not system.service.closed:
        system.service.close()


def io_counters(system: System) -> list:
    return []


def stats(system: System) -> dict:
    stats = system.service.statistics()
    return {"epoch_retries": stats["epoch_retries"],
            "worker_restarts": stats["worker_restarts"]}


def static(system: System) -> dict:
    shards = system.service.statistics(include_shards=True)["shards"]
    files = list(system.manifest.parent.iterdir())
    return {
        "closure.pair_count": sum(s["engine"].get("closure_pairs", 0) for s in shards),
        "storage.index_bytes": sum(p.stat().st_size for p in files),
    }
