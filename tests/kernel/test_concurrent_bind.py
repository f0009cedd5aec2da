"""Concurrent binds and runs give single-threaded results.

Three races: first binds on one engine build its pair tables' memoized
views, first binds of containment and wildcard queries compose the
store's memoized multi-table edge views (and join each expanded tail
side's views once), and runs on one shared
``BoundProgram`` (the engine's binding cache hands one to every request)
sort its slots on first touch.  All publish without a lock.  CI also
runs this file under ``REPRO_LOCKCHECK=1``.
"""

import sys
import threading

from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from repro.kernel import bind_program, compile_program
from tests.kernel.test_executor import containment_graph, forced_slots

THREADS = 8

#: Queries whose edges share (tail label, head label) tables under
#: different query nodes, plain and '/'.
QUERIES = (
    "A//B",
    "C//A//B",
    "A//B[C]",
    "D//A[B]//C",
    "A/B",
    "E//A/B",
    "B//C[A//B]",
    "A[B][C]",
)


def graph():
    base = citation_graph(300, num_labels=5, seed=11)
    labels = {v: "ABCDE"[int(base.label(v)[1:])] for v in base.nodes()}
    return graph_from_edges(labels, base.edges())


def bind(engine, query):
    compiled = engine.compile(query)
    return bind_program(
        compile_program(compiled),
        engine.store,
        matcher=compiled.effective_matcher(engine.config.label_matcher),
    )


def top(bound, k=20):
    return [(m.score, sorted(m.assignment.items())) for m in bound.run().top_k(k)]


#: Containment and wildcard queries over ``containment_graph()`` whose
#: edges share expanded label sets (``~V1`` and ``~x`` tails, ``*`` and
#: ``~V2`` heads), under both axes.
FANOUT_QUERIES = (
    "~V1//~V2[~x]",
    "{V3+y}//~V1//~V2[~x]",
    "~V1/~V2",
    "~x//*",
    "~x//*[~V2]",
    "{V0+x}//~x//*[~V2]",
    "~V1//*",
    "~V1/*",
)


def bind_all(engine, offset=0, queries=QUERIES):
    """Bind every query once, starting at ``offset``: every slot + top 20."""
    results = {}
    for i in range(len(queries)):
        query = queries[(offset + i) % len(queries)]
        bound = bind(engine, query)
        results[query] = (bound.nodes, top(bound), forced_slots(bound))
    return results


def race(worker):
    """Run ``worker(i)`` on ``THREADS`` threads released together, with
    a short switch interval so they interleave inside slot sorts."""
    barrier = threading.Barrier(THREADS)
    got: list = [None] * THREADS
    errors: list = []

    def run(slot):
        try:
            barrier.wait()
            got[slot] = worker(slot)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    return got


def test_racing_first_binds_equal_the_single_threaded_bind():
    data = graph()
    want = bind_all(MatchEngine(data, backend="full"))
    assert all(result[1] for result in want.values()), "every query must match"

    engine = MatchEngine(data, backend="full")
    for result in race(lambda slot: bind_all(engine, offset=slot)):
        assert result == want


def test_racing_first_composed_binds_equal_the_single_threaded_bind():
    """Eight threads make the first binds of queries whose multi-table
    edges share label sets: racing threads may compose one edge's views,
    or join one expanded tail side's, twice, and every bind still equals
    the single-threaded one."""
    data = containment_graph()
    want = bind_all(MatchEngine(data, backend="full"), queries=FANOUT_QUERIES)
    assert all(result[1] for result in want.values()), "every query must match"

    engine = MatchEngine(data, backend="full")
    for result in race(lambda slot: bind_all(engine, offset=slot, queries=FANOUT_QUERIES)):
        assert result == want
    assert len(engine.store._edge_views) >= len(FANOUT_QUERIES)
    assert engine.store._joined, "expanded tail sides were joined"


def test_racing_runs_on_one_bound_program_equal_the_single_threaded_run():
    """Eight threads enumerate one shared, untouched ``BoundProgram``:
    racing first reads of a slot may both sort it, and every run still
    returns the single-threaded answer."""
    data = graph()
    reference = MatchEngine(data, backend="full")
    engine = MatchEngine(data, backend="full")
    for query in QUERIES:
        want = top(bind(reference, query), 50)
        assert want, query
        shared = bind(engine, query)
        for result in race(lambda _slot: top(shared, 50)):
            assert result == want, query
        assert forced_slots(shared) == forced_slots(bind(reference, query))
