"""``paper_topk``: the paper's experiment, driven step by step through the library.

A citation DAG at GD3 scale (2,000 papers, 130 Zipf venues) gets a full
closure that is saved to ``.ridx`` and reopened with ``MatchEngine.load``,
so closure blocks come from the mmap path.  Every request is a distinct
realizable tree query of 5 to 30 nodes, chain or bushy, with k in
{10, 20, 100}; no cache can answer it, so the query, planner, kernel,
closure and storage layers do all the work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from perfbench.inputs import GraphSpec, Query, citation_dag, dataset_rng, digest, make_rng, query_pool
from perfbench.measure import Outcome, tie_aware_form
from perfbench.tracing import spans

NAME = "paper_topk"
PATH = "library"
SIZES = (5, 10, 15, 20, 25, 30)
KS = (10, 20, 100)
#: Sampled replies compared with the reference (interpreted DP-B, on demand).
CHECKS = 12


@dataclass
class Inputs:
    graph: GraphSpec
    queries: list[Query]
    warmup: list[Query]
    digest: str


@dataclass
class System:
    engine: object
    path: Path


def make_inputs(seed: int, tiny: bool) -> Inputs:
    nodes, venues, count = (300, 30, 60) if tiny else (2000, 130, 2400)
    graph = citation_dag(dataset_rng(NAME), nodes, venues)
    sizes = (3, 5, 8) if tiny else SIZES
    queries = query_pool(make_rng(NAME, seed, "queries"), graph, count, sizes, KS)
    warmup = query_pool(make_rng(NAME, seed, "warmup"), graph, 6, sizes, KS)
    return Inputs(graph, queries, warmup, digest(NAME, graph, queries, warmup))


def setup(inputs: Inputs, workdir: Path, tracer=None) -> System:
    from repro import MatchEngine

    span = spans(tracer)
    engine = MatchEngine(inputs.graph.build(), backend="full")
    path = workdir / "index.ridx"
    with span("storage.save"):
        engine.save_index(path)
    del engine
    with span("storage.open"):
        loaded = MatchEngine.load(path)
    return System(loaded, path)


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
    from repro import compile_query
    from repro.kernel import bind_program

    span = spans(tracer)
    engine = system.engine
    with span("query.compile"):
        compiled = compile_query(query.text)
    with span("engine.plan"):
        plan = engine.planner.plan(compiled, query.k)
    with span("kernel.lower"):
        program = engine.program_for(compiled, plan)
    if program is None:
        with span("core.enumerate"):
            enumerator = engine.engine_for(compiled, algorithm=plan.algorithm)
            matches = enumerator.top_k(query.k)
        return Outcome("read", matches)
    with span("kernel.bind"):
        bound = bind_program(
            program, engine.store,
            matcher=compiled.effective_matcher(engine.config.label_matcher),
            node_weight=engine.config.node_weight,
        )
    with span("kernel.run"):
        matches = bound.run().top_k(query.k)
    if tracer is not None:
        tracer.add("kernel.slot_entries", bound.num_slot_entries)
        tracer.add("kernel.matches", len(matches))
    return Outcome("read", matches)


def reference_check(graph: GraphSpec, replies) -> tuple[int, int]:
    """Compare ``(query, answer)`` replies with interpreted DP-B over the
    on-demand backend (2-hop labels, no materialized closure): another
    algorithm over another reachability index."""
    from repro import MatchEngine

    reference = MatchEngine(graph.build(), backend="ondemand")
    wrong = 0
    for query, answer in replies:
        expected = reference.top_k(query.text, query.k, algorithm="dp-b")
        if tie_aware_form(list(answer), query.k) != tie_aware_form(expected, query.k):
            wrong += 1
    return len(replies), wrong


def check(inputs: Inputs, system: System, state, run) -> tuple[int, int]:
    replies = [run.sampled[i] for i in sorted(run.sampled)][:CHECKS]
    return reference_check(inputs.graph, replies)


def close(system: System) -> None:
    system.engine = None


def io_counters(system: System) -> list:
    return [system.engine.store.counter]


def stats(system: System) -> dict:
    return {}


def static(system: System) -> dict:
    return engine_static(system.engine, system.path)


def engine_static(engine, index_path: Path) -> dict:
    backend = engine.backend.stats()
    return {
        "closure.pair_count": backend["pair_count"],
        "closure.bytes_estimate": backend["bytes_estimate"],
        "storage.index_bytes": index_path.stat().st_size,
    }
