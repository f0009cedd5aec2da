"""``mixed_rw``: cache-resident reads with clocked bursts of edge writes.

``MatchService.from_index`` serves a 300-paper citation DAG with a WAL
and a generation family in the run's own directory, ``auto_compact=False``.
Reads draw from a 200-query Zipf universe that fits the plan and result
caches.  After every 600 reads comes a burst of 14 ``apply_updates``
batches, each adding one new citation from a recent paper and removing
one added by the previous burst, so the graph never drifts.  The first
read after a burst folds the overlay, and the reads after it re-execute
what the fold invalidated (about a tenth of all reads, so p99 lies among
them); the delta layer does the work here.  The op mix is fixed, so
throughput is proportional to the program's speed.  ``compact()`` runs
three times, at a third, two thirds and the end of the measured time:
every run writes the same number of generations and ends with an empty
WAL, so ``disk_mb`` does not depend on speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from perfbench.inputs import GraphSpec, Query, Zipf, citation_dag, dataset_rng, digest, make_rng, query_pool
from perfbench.measure import Outcome, tie_aware_form
from perfbench.paper_topk import engine_static
from perfbench.serve_zipf import boot_from_index, read, service_stats
from perfbench.tracing import spans

NAME = "mixed_rw"
PATH = "service"
SIZES = (2, 3, 4)
K = 10
READS_PER_BURST = 600
BURST_BATCHES = 14
COMPACTIONS = 3
#: New citations come from the newest share of papers, which few others
#: cite, so a fold recomputes few closure rows.
RECENT = 0.2
CHECKS = 30


@dataclass
class Inputs:
    graph: GraphSpec
    universe: list[Query]
    stream: list[int]
    bursts: list[list[tuple[int, int]]]
    digest: str


@dataclass
class System:
    service: object
    path: Path
    wal: Path


def _bursts(rng, graph: GraphSpec, count: int, size: int) -> list[list[tuple[int, int]]]:
    base = set(graph.edges)
    n = graph.num_nodes
    low = int(n * (1 - RECENT))
    bursts: list[list[tuple[int, int]]] = []
    previous: set[tuple[int, int]] = set()
    for _ in range(count):
        burst: list[tuple[int, int]] = []
        taken: set[tuple[int, int]] = set()
        while len(burst) < size:
            tail = rng.randrange(low, n)
            edge = (tail, rng.randrange(tail))
            if edge in base or edge in previous or edge in taken:
                continue
            taken.add(edge)
            burst.append(edge)
        bursts.append(burst)
        previous = taken
    return bursts


def make_inputs(seed: int, tiny: bool) -> Inputs:
    nodes, venues, universe_size, length, bursts, batches = (
        (200, 20, 40, 20_000, 40, 8) if tiny else (300, 40, 200, 400_000, 1000, BURST_BATCHES)
    )
    graph = citation_dag(dataset_rng(NAME), nodes, venues)
    universe = query_pool(make_rng(NAME, seed, "queries"), graph, universe_size,
                          SIZES, (K,))
    rng = make_rng(NAME, seed, "stream")
    zipf = Zipf(universe_size, 1.0)
    stream = [zipf.draw(rng) for _ in range(length)]
    plan = _bursts(make_rng(NAME, seed, "writes"), graph, bursts, batches)
    return Inputs(graph, universe, stream, plan,
                  digest(NAME, graph, universe, stream, plan))


def setup(inputs: Inputs, workdir: Path, tracer=None) -> System:
    wal = workdir / "wal.log"
    service, path = boot_from_index(inputs.graph, workdir, tracer,
                                    wal_path=wal, auto_compact=False)
    return System(service, path, wal)


def start(inputs: Inputs, system: System) -> dict:
    for query in inputs.universe:
        read(system.service, query)
    return {"inputs": inputs, "next": 0, "bursts": 0, "queue": [], "compactions": 0}


def next_op(state: dict, elapsed: float, seconds: float, enough: bool):
    queue = state["queue"]
    if queue:
        return queue.pop(0)
    inputs = state["inputs"]
    if (state["compactions"] < COMPACTIONS
            and elapsed >= (state["compactions"] + 1) * seconds / COMPACTIONS):
        state["compactions"] += 1
        return ("compact",)
    if enough and state["compactions"] == COMPACTIONS:
        return None
    if (state["next"] >= (state["bursts"] + 1) * READS_PER_BURST
            and state["bursts"] < len(inputs.bursts)):
        queue.extend(_burst_ops(inputs.bursts, state["bursts"]))
        state["bursts"] += 1
        return queue.pop(0)
    query = inputs.universe[inputs.stream[state["next"] % len(inputs.stream)]]
    state["next"] += 1
    return ("read", query)


def _burst_ops(bursts, index: int) -> list[tuple]:
    adds = bursts[index]
    removes = bursts[index - 1] if index else [None] * len(adds)
    return [
        ("write", (add,), () if remove is None else (remove,))
        for add, remove in zip(adds, removes)
    ]


def op_kind(op) -> str:
    return op[0]


def execute(system: System, op: tuple, tracer) -> Outcome:
    if op[0] == "read":
        return read(system.service, op[1])
    span = spans(tracer)
    if op[0] == "write":
        with span("delta.apply"):
            system.service.apply_updates(edges_added=op[1], edges_removed=op[2])
        return Outcome("write")
    with span("delta.compact"):
        system.service.compact()
    return Outcome("compact")


def check(inputs: Inputs, system: System, state, run) -> tuple[int, int]:
    """Reopen from the WAL and generations: every acknowledged write must
    be there, and answers must match a fresh engine on the final graph."""
    from repro import MatchEngine, MatchService

    system.service.close()
    edges = set(inputs.graph.edges)
    if state["bursts"]:
        edges.update(inputs.bursts[state["bursts"] - 1])
    final = GraphSpec(inputs.graph.labels, sorted(edges))
    reopened = MatchService.from_index(system.path, wal_path=system.wal, auto_compact=False)
    try:
        recovered = {(tail, head) for tail, head, _w in reopened.snapshot().graph.edges()}
        wrong = int(recovered != edges)
        fresh = MatchEngine(final.build(), backend="full")
        for query in inputs.universe[:CHECKS]:
            got = reopened.top_k(query.text, query.k)
            want = fresh.top_k(query.text, query.k)
            wrong += tie_aware_form(got, query.k) != tie_aware_form(want, query.k)
    finally:
        reopened.close()
    return 1 + CHECKS, wrong


def close(system: System) -> None:
    if not system.service.closed:
        system.service.close()


def io_counters(system: System) -> list:
    return [system.service.snapshot().engine.store.counter]


def stats(system: System) -> dict:
    return service_stats(system.service)


def static(system: System) -> dict:
    out = engine_static(system.service.snapshot().engine, system.path)
    generations = list(system.path.parent.glob("*.gen-*.ridx"))
    if generations:
        out["delta.generation_bytes"] = (
            sum(p.stat().st_size for p in generations) / len(generations)
        )
    return out
