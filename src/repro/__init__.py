"""repro — reproduction of "Optimal Enumeration: Efficient Top-k Tree
Matching" (Chang et al., PVLDB 8(5), 2015).

Public API tour::

    from repro import LabeledDiGraph, MatchEngine

    graph = LabeledDiGraph()
    graph.add_node("p1", "CS"); graph.add_node("p2", "Econ")
    graph.add_edge("p1", "p2")

    engine = MatchEngine(graph)               # offline: planned backend
    matches = engine.top_k("CS//Econ", k=5)   # online: XPath-style DSL

Queries are declarative — one string (or fluent builder) covers the
whole paper::

    engine.top_k("A//B[C]", k=5)              # twig with a branch
    engine.top_k("A/B", k=5)                  # '/' = direct edge only
    engine.top_k("A//*[C]", k=5)              # wildcard node
    engine.top_k("A//~db+systems", k=5)       # label containment
    engine.top_k("graph(a:A, b:B, c:C; a-b, b-c, c-a)", k=5)  # cyclic kGPM

    from repro import Q, Pattern
    engine.top_k(Q("A").descendant(Q("B").descendant("C")), k=5)
    engine.top_k(Pattern.from_edges({"a": "A", "b": "B"}, [("a", "b")]), k=5)

    print(engine.explain("A//B[C]").describe())  # inspect the query plan
    stream = engine.stream("A//B[C]")            # lazy, resumable results
    engine.save_index("dataset.ridx")            # pay the offline cost once

Hand-built :class:`QueryTree`/:class:`QueryGraph` objects remain first
class; every form funnels through :func:`repro.query.compile_query`.

For serving concurrent traffic, wrap the engine in a
:class:`repro.service.MatchService` — snapshot-isolated sessions, plan
and result caches, a bounded worker pool, and an incremental update
path::

    from repro import MatchService

    with MatchService(graph, max_workers=4) as service:
        service.top_k("CS//Econ", k=5)                      # caches warm
        service.submit("CS//Econ", 5).result()              # async
        service.apply_updates(edges_added=[("p2", "p1")])   # new snapshot

Subpackages: :mod:`repro.query` (DSL parser, builders, query compiler),
:mod:`repro.engine` (MatchEngine, planner, streams, persistence),
:mod:`repro.service` (concurrent serving: snapshots, caching, workers),
:mod:`repro.delta` (write path: WAL'd delta overlays, compaction
generations), :mod:`repro.shard` (label-range shards, scatter-gather),
:mod:`repro.graph` (data model & generators), :mod:`repro.closure`
(transitive closure, block store, 2-hop labels), :mod:`repro.runtime`
(run-time graphs and L/H slots), :mod:`repro.core` (Topk, Topk-EN, DP-B,
DP-P), :mod:`repro.twig` (general twig queries), :mod:`repro.gpm`
(graph-pattern matching), :mod:`repro.workloads` (paper datasets/query
sets), :mod:`repro.bench` (the paper-figure harness behind
``benchmarks/``; performance is measured by ``perfbench/``).
"""

from repro.core.matches import Match
from repro.engine import (
    BACKENDS,
    EngineBuilder,
    EngineConfig,
    MatchEngine,
    PreparedQuery,
    QueryPlan,
    ResultStream,
)
from repro.engine.config import ALGORITHMS
from repro.exceptions import (
    QueryError,
    QuerySyntaxError,
    ReproError,
    ServiceError,
)
from repro.graph.digraph import LabeledDiGraph, graph_from_edges
from repro.graph.query import WILDCARD, EdgeType, QueryGraph, QueryTree
from repro.query import CompiledQuery, Pattern, Q, compile_query, parse, to_dsl
from repro.service import MatchService, ServiceResponse, Snapshot, UpdateReport

__version__ = "1.10.0"

__all__ = [
    "LabeledDiGraph",
    "graph_from_edges",
    "QueryTree",
    "QueryGraph",
    "EdgeType",
    "WILDCARD",
    "Match",
    "MatchEngine",
    "PreparedQuery",
    "EngineConfig",
    "EngineBuilder",
    "QueryPlan",
    "ResultStream",
    "MatchService",
    "ServiceResponse",
    "Snapshot",
    "UpdateReport",
    "ServiceError",
    "Q",
    "Pattern",
    "parse",
    "to_dsl",
    "compile_query",
    "CompiledQuery",
    "ReproError",
    "QueryError",
    "QuerySyntaxError",
    "BACKENDS",
    "ALGORITHMS",
    "__version__",
]
