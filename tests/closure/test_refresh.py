"""Table-granular store refresh: a refreshed store is a fresh store.

:meth:`TransitiveClosure.refreshed` reports the label pairs whose pair
tables its recomputed rows touch; :class:`ClosureStore` adopts every
other table of the base store, with its memoized views, and lays out
only those.  These tests pin the contract: after any edge batch the
refreshed store has the tables, columns, leaf views and tail-label index
a fresh build has; a batch that moves interned ids (a node add or a
relabel) rebuilds every table; and composed edge views carry over
exactly when none of their pairs is dirty, with answers equal to a fresh
engine's.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchEngine, MatchService
from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.delta.records import EdgeAdd, EdgeRemove, LabelChange, NodeAdd
from repro.delta.view import apply_records, fold
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from tests.strategies import FUZZ_EXAMPLES

COLUMNS = ("tails", "dists", "direct", "heads", "offsets", "e_tails", "e_heads", "e_dists")


def assert_same_store(got: ClosureStore, graph) -> None:
    """``got`` equals a fresh store of ``graph``: the same tables in the
    same order, byte-equal columns, the same leaf views and the same
    tail-label index."""
    fresh = ClosureStore(graph, TransitiveClosure(graph))
    assert list(got._pair_tables) == list(fresh._pair_tables)
    rank = got.interner.repr_rank()
    assert list(rank) == list(fresh.interner.repr_rank())
    for pair, table in fresh._pair_tables.items():
        mine = got._pair_tables[pair]
        for column in COLUMNS:
            assert bytes(getattr(mine, column)) == bytes(getattr(table, column)), (pair, column)
        for direct_only in (False, True):
            assert mine.leaf_memo(rank, direct_only) == table.leaf_memo(rank, direct_only), pair
    for node in graph.nodes():
        assert got.tail_labels_of(node) == fresh.tail_labels_of(node), node


def refresh(store: ClosureStore, graph, records):
    """Apply ``records`` to a copy of ``store``'s graph and refresh the
    closure and the store the way :class:`FullClosureBackend` does."""
    updated = graph.copy()
    apply_records(updated, records)
    tails = {r.tail for r in records if isinstance(r, (EdgeAdd, EdgeRemove))}
    closure, _rows, _affected, dirty = store.closure.refreshed(updated, tails)
    refreshed = ClosureStore(updated, closure, base=store, dirty_pairs=dirty)
    return updated, refreshed, dirty


def warm(store: ClosureStore) -> None:
    """Memoize every table's leaf views, so adopted tables carry them."""
    rank = store.interner.repr_rank()
    for table in store._pair_tables.values():
        table.leaf_memo(rank, False)
        table.leaf_memo(rank, True)


@st.composite
def dags_and_batches(draw):
    """A small labelled DAG (edges run from higher to lower ids) and a
    batch of edge adds, removes and re-weights that keeps it a DAG."""
    n = draw(st.integers(3, 9))
    labels = {v: draw(st.sampled_from("ABCD")) for v in range(n)}
    pairs = [(t, h) for t in range(n) for h in range(t)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    weights = {edge: draw(st.integers(1, 3)) for edge in edges}
    graph = graph_from_edges(labels, [(t, h, weights[(t, h)]) for t, h in edges])
    records = []
    present = dict(weights)
    for _ in range(draw(st.integers(1, 4))):
        edge = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(("add", "remove", "reweight")))
        if edge in present and kind != "add":
            records.append(EdgeRemove(*edge))
            del present[edge]
            if kind == "reweight":
                weight = draw(st.integers(1, 3))
                records.append(EdgeAdd(*edge, weight))
                present[edge] = weight
        elif edge not in present:
            weight = draw(st.integers(1, 3))
            records.append(EdgeAdd(*edge, weight))
            present[edge] = weight
    return graph, records


@given(case=dags_and_batches())
@settings(max_examples=max(FUZZ_EXAMPLES, 100), deadline=None)
def test_refreshed_store_equals_a_fresh_store(case):
    graph, records = case
    store = ClosureStore(graph, TransitiveClosure(graph))
    warm(store)
    updated, refreshed, dirty = refresh(store, graph, records)
    assert dirty is not None, "edge batches keep the interned ids"
    assert refreshed.interner is store.interner
    for pair, table in refreshed._pair_tables.items():
        if pair not in dirty:
            assert table is store._pair_tables[pair], pair
    assert_same_store(refreshed, updated)


def path_graph():
    """``0 -> 1 -> 2`` (weights 1) plus a spare ``D`` node."""
    return graph_from_edges({0: "A", 1: "B", 2: "C", 3: "D"}, [(0, 1), (1, 2)])


def test_a_direct_flag_only_change_dirties_the_tail():
    """An edge parallel to a path of equal weight moves no distance, but
    the tail's direct flags move, so its pairs are dirty."""
    graph = path_graph()
    store = ClosureStore(graph, TransitiveClosure(graph))
    updated, refreshed, dirty = refresh(store, graph, [EdgeAdd(0, 2, 2)])
    assert store.closure.distance(0, 2) == refreshed.closure.distance(0, 2) == 2
    assert ("A", "C") in dirty
    assert refreshed._pair_tables[("B", "C")] is store._pair_tables[("B", "C")]
    assert_same_store(refreshed, updated)
    assert list(refreshed.read_pair_groups("A", "C", direct_only=True)) == [(2, [0], [2.0])]


def test_node_add_and_relabel_rebuild_every_table():
    """A batch that moves interned ids leaves no table reusable."""
    graph = path_graph()
    for records in (
        [NodeAdd(4, "B"), EdgeAdd(4, 2)],
        [LabelChange(3, "A"), EdgeAdd(3, 1)],
        [LabelChange(1, "D")],
    ):
        store = ClosureStore(graph, TransitiveClosure(graph))
        warm(store)
        updated, refreshed, dirty = refresh(store, graph, records)
        assert dirty is None, records
        assert refreshed.interner is not store.interner
        shared = set(map(id, store._pair_tables.values()))
        assert not shared & set(map(id, refreshed._pair_tables.values()))
        assert_same_store(refreshed, updated)


def test_a_json_loaded_engine_folds_an_edge_from_a_sink(tmp_path):
    """A JSON index keeps no closure row for a node without successors;
    folding that node's first out-edge must still refresh the store."""
    graph = graph_from_edges({"a": "A", "b": "B", "c": "C"}, [("a", "b")])
    MatchEngine(graph, backend="full").save_index(tmp_path / "index.json", format="json")
    loaded = MatchEngine.load(tmp_path / "index.json")
    folded = fold(loaded, [EdgeAdd("b", "c")]).engine
    assert_same_store(folded.store, folded.graph)
    fresh = MatchEngine(folded.graph, backend="full")
    assert exact(folded.top_k("A//C", 5)) == exact(fresh.top_k("A//C", 5))


def test_a_different_block_size_rebuilds_every_table():
    graph = path_graph()
    store = ClosureStore(graph, TransitiveClosure(graph))
    refreshed = ClosureStore(graph, store.closure, block_size=2, base=store, dirty_pairs=frozenset())
    assert not set(map(id, store._pair_tables.values())) & set(
        map(id, refreshed._pair_tables.values())
    )


def carry_graph():
    """Labels with a second token, so ``~A`` fans out to ``A+x`` and
    ``A+y``; ``e1`` (``E+x``) is isolated, so adding ``e1 -> d1`` dirties
    the one pair ``(E+x, D+x)``."""
    labels = {
        "a1": "A+x", "a2": "A+y", "b1": "B+x", "b2": "B+y",
        "c1": "C+x", "d1": "D+x", "d2": "D+y", "e1": "E+x", "e2": "E+y",
    }
    edges = [
        ("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("b1", "c1"),
        ("b2", "c1"), ("c1", "d1"), ("a2", "d2"), ("e2", "d2"),
    ]
    return graph_from_edges(labels, edges)


#: Queries whose pairs include the dirty ``(E+x, D+x)`` pair ...
DIRTY_QUERIES = ("~E//~D", "~E//*")
#: ... and queries whose pairs are all clean.
CLEAN_QUERIES = ("~A//~B//~C", "~A//*", "~B/*")


def exact(matches):
    return [(match.score, sorted(match.assignment.items())) for match in matches]


def test_composed_views_carry_over_exactly_when_clean():
    base = MatchEngine(carry_graph(), backend="full")
    for query in DIRTY_QUERIES + CLEAN_QUERIES:
        base.top_k(query, 10)
    views, joined = dict(base.store._edge_views), dict(base.store._joined)
    assert views and joined, "the queries bind through the composed memos"

    folded = fold(base, [EdgeAdd("e1", "d1")]).engine
    fresh = MatchEngine(folded.graph, backend="full")
    for query in DIRTY_QUERIES + CLEAN_QUERIES:
        assert exact(folded.top_k(query, 10)) == exact(fresh.top_k(query, 10)), query

    def reads_dirty(tail_labels, head_labels):
        return (tail_labels is None or "E+x" in tail_labels) and (
            head_labels is None or "D+x" in head_labels
        )

    carried = folded.store._edge_views
    for key, memo in views.items():
        if reads_dirty(key[0], key[1]):
            assert carried[key] is not memo, key
        else:
            assert carried[key] is memo, key
    assert any(reads_dirty(key[0], key[1]) for key in views)
    assert not all(reads_dirty(key[0], key[1]) for key in views)
    for key, memo in joined.items():
        carried_joined = folded.store._joined[key]
        assert (carried_joined is memo) is (not reads_dirty(key[0], None)), key
    # Adopted tables keep their leaf views: the clean queries' answers
    # above came from them.
    for pair, table in base.store._pair_tables.items():
        if pair != ("E+x", "D+x"):
            assert folded.store._pair_tables[pair] is table, pair


def test_carried_views_meter_what_the_tables_hold():
    """A carried composed view meters the opens, entries and blocks of
    the tables it reads, as a fresh engine's first bind does."""
    base = MatchEngine(carry_graph(), backend="full")
    base.top_k("~A//~B//~C", 10)
    folded = fold(base, [EdgeAdd("e1", "d1")]).engine
    fresh = MatchEngine(folded.graph, backend="full")
    reads = []
    for engine in (folded, fresh):
        before = engine.store.counter.snapshot()
        engine.top_k("~A//~B//~C", 10)
        delta = engine.store.counter.delta_since(before)
        reads.append((delta.tables_opened, delta.entries_read, delta.blocks_read))
    assert reads[0] == reads[1]
    assert reads[0][0] > 0


def test_compacting_a_folded_service_writes_the_fresh_index(tmp_path):
    """The generation a folded service compacts to is byte for byte the
    index a fresh engine of the same graph saves."""
    graph = citation_graph(60, num_labels=5, seed=2)
    MatchEngine(graph, backend="full").save_index(tmp_path / "index.ridx")
    service = MatchService.from_index(
        tmp_path / "index.ridx", wal_path=tmp_path / "wal.log", auto_compact=False
    )
    with service:
        service.apply_updates(edges_added=[(50, 3)])
        service.top_k("V0//V1", 5)
        service.apply_updates(edges_added=[(40, 2)], edges_removed=[(50, 3)])
        service.top_k("V0//V1", 5)
        generation = Path(service.compact()["path"])
        final = service.snapshot().graph
    MatchEngine(final, backend="full").save_index(tmp_path / "fresh.ridx")
    fresh = tmp_path / "fresh.ridx"
    assert hashlib.sha256(generation.read_bytes()).digest() == hashlib.sha256(
        fresh.read_bytes()
    ).digest()
