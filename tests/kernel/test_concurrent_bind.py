"""Concurrent first binds: racing leaf-memo builds give single-threaded results.

CI also runs this file under ``REPRO_LOCKCHECK=1``.
"""

import threading

from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from repro.kernel import bind_program, compile_program

THREADS = 8

#: Queries whose leaf edges share (tail label, head label) tables under
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


def bind_all(engine, offset=0):
    """Bind every query once, starting at ``offset``: arrays + top 20."""
    results = {}
    for i in range(len(QUERIES)):
        query = QUERIES[(offset + i) % len(QUERIES)]
        compiled = engine.compile(query)
        bound = bind_program(
            compile_program(compiled),
            engine.store,
            matcher=compiled.effective_matcher(engine.config.label_matcher),
        )
        results[query] = (
            bound.nodes,
            [a.tolist() for a in bound.slot_off],
            [a.tolist() for a in bound.slot_keys],
            [a.tolist() for a in bound.slot_child],
            bound.root_keys.tolist(),
            bound.root_cand.tolist(),
            [(m.score, sorted(m.assignment.items())) for m in bound.run().top_k(20)],
        )
    return results


def test_racing_first_binds_equal_the_single_threaded_bind():
    data = graph()
    want = bind_all(MatchEngine(data, backend="full"))
    assert all(result[-1] for result in want.values()), "every query must match"

    engine = MatchEngine(data, backend="full")
    barrier = threading.Barrier(THREADS)
    got: list = [None] * THREADS
    errors: list = []

    def worker(slot):
        try:
            barrier.wait()
            got[slot] = bind_all(engine, offset=slot)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    for result in got:
        assert result == want
