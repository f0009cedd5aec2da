"""``serve_zipf``: Zipf traffic through ``MatchService.request`` with default caches.

The service boots from a saved ``.ridx`` of a 2,000-paper citation DAG.
The client draws from a universe of 4,096 distinct 2-5-node queries, four
times the result cache (1,024 entries), with Zipf popularity (s = 1): the
caches end most requests and the misses reach the planner, kernel and
closure store.  The working set is larger than every cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from perfbench.inputs import GraphSpec, Query, Zipf, citation_dag, dataset_rng, digest, make_rng, query_pool
from perfbench.measure import Outcome
from perfbench.paper_topk import engine_static, reference_check
from perfbench.tracing import spans

NAME = "serve_zipf"
PATH = "service"
SIZES = (2, 3, 4, 5)
K = 10
#: Requests sent before timing starts, so the caches are at steady state.
WARMUP = 2000
CHECKS = 30


@dataclass
class Inputs:
    graph: GraphSpec
    universe: list[Query]
    stream: list[int]
    digest: str


@dataclass
class System:
    service: object
    path: Path


def make_inputs(seed: int, tiny: bool) -> Inputs:
    nodes, venues, universe_size, length = (
        (300, 30, 256, 4000) if tiny else (2000, 130, 4096, 200_000)
    )
    graph = citation_dag(dataset_rng(NAME), nodes, venues)
    universe = query_pool(make_rng(NAME, seed, "queries"), graph, universe_size,
                          SIZES, (K,))
    rng = make_rng(NAME, seed, "stream")
    popularity = list(range(universe_size))
    rng.shuffle(popularity)
    zipf = Zipf(universe_size, 1.0)
    stream = [popularity[zipf.draw(rng)] for _ in range(length)]
    return Inputs(graph, universe, stream, digest(NAME, graph, universe, stream))


def boot_from_index(graph: GraphSpec, workdir: Path, tracer=None, **service_kwargs):
    """Build the full closure, save it, and serve from the saved index."""
    from repro import MatchEngine, MatchService

    span = spans(tracer)
    engine = MatchEngine(graph.build(), backend="full")
    path = workdir / "index.ridx"
    with span("storage.save"):
        engine.save_index(path)
    del engine
    with span("storage.open"):
        service = MatchService.from_index(path, **service_kwargs)
    return service, path


def setup(inputs: Inputs, workdir: Path, tracer=None) -> System:
    return System(*boot_from_index(inputs.graph, workdir, tracer))


def start(inputs: Inputs, system: System) -> dict:
    for index in inputs.stream[:WARMUP]:
        query = inputs.universe[index]
        system.service.request(query.text, query.k)
    return {"next": WARMUP, "inputs": inputs}


def next_op(state: dict, elapsed: float, seconds: float, enough: bool):
    if enough:
        return None
    inputs = state["inputs"]
    query = inputs.universe[inputs.stream[state["next"] % len(inputs.stream)]]
    state["next"] += 1
    return query


def op_kind(op) -> str:
    return "read"


def execute(system: System, query: Query, tracer) -> Outcome:
    return read(system.service, query)


def read(service, query: Query) -> Outcome:
    response = service.request(query.text, query.k)
    return Outcome("read", response.matches,
                   tag="hit" if response.result_cache_hit else "miss")


def check(inputs: Inputs, system: System, state, run) -> tuple[int, int]:
    replies = [run.sampled[i] for i in sorted(run.sampled)][:CHECKS]
    return reference_check(inputs.graph, replies)


def close(system: System) -> None:
    if not system.service.closed:
        system.service.close()


def io_counters(system: System) -> list:
    return [system.service.snapshot().engine.store.counter]


def stats(system: System) -> dict:
    return service_stats(system.service)


def service_stats(service) -> dict:
    stats = service.statistics()
    out = {}
    for cache, prefix in (("result_cache", "result"), ("plan_cache", "plan"),
                          ("compile_cache", "compile")):
        out[f"{prefix}_hits"] = stats[cache]["hits"]
        out[f"{prefix}_misses"] = stats[cache]["misses"]
    out["result_evictions"] = stats["result_cache"]["evictions"]
    return out


def static(system: System) -> dict:
    return engine_static(system.service.snapshot().engine, system.path)
