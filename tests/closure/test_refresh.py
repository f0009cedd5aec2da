"""Group-level store refresh: a refreshed store is a fresh store.

:meth:`TransitiveClosure.refreshed` derives its CSR from the base one
(:meth:`CompactGraph.patched`) and reports the head groups whose entries
moved; :class:`ClosureStore` adopts every other table of the base store,
with its memoized views, and rebuilds only those groups.  These tests pin
the contract: the derived CSR equals a freshly packed one; after any
edge batch, on DAGs and cyclic graphs, over in-memory, mmap-loaded and
JSON-loaded bases, the refreshed store has the tables, columns, leaf
views and tail-label index a fresh build has; a batch that moves
interned ids (a node add or a relabel) rebuilds every table; and
composed edge views carry over exactly when none of their pairs is
dirty, with answers equal to a fresh engine's.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MatchEngine, MatchService
from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.compact import CompactGraph, NodeInterner
from repro.delta.records import EdgeAdd, EdgeRemove, LabelChange, NodeAdd
from repro.delta.view import apply_records, fold
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from tests.strategies import FUZZ_EXAMPLES

COLUMNS = ("tails", "dists", "direct", "heads", "offsets", "e_tails", "e_heads", "e_dists")
CSR_BUFFERS = (
    "out_offsets", "out_targets", "out_weights", "in_offsets", "in_targets", "in_weights",
)


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
    same_nodes = not any(isinstance(r, (NodeAdd, LabelChange)) for r in records)
    closure, _rows, _affected, dirty = store.closure.refreshed(
        updated, tails, same_nodes=same_nodes
    )
    refreshed = ClosureStore(updated, closure, base=store, dirty_groups=dirty)
    return updated, refreshed, dirty


def warm(store: ClosureStore) -> None:
    """Memoize every table's leaf views, so adopted tables carry them."""
    rank = store.interner.repr_rank()
    for table in store._pair_tables.values():
        table.leaf_memo(rank, False)
        table.leaf_memo(rank, True)


@st.composite
def graphs_and_batches(draw, cyclic: bool = False):
    """A small labelled graph and a batch of edge adds, removes,
    re-weights and re-adds of present edges (a parallel edge keeps the
    minimum weight).  Without ``cyclic`` edges run from higher to lower
    ids and the batch keeps the graph a DAG; with it any two distinct
    nodes may be joined, so a source can appear in its own row.  Weights
    are mostly 1, so batches flip ``unit_weighted`` both ways."""
    n = draw(st.integers(3, 9))
    labels = {v: draw(st.sampled_from("ABCD")) for v in range(n)}
    pairs = [(t, h) for t in range(n) for h in range(n) if (t != h if cyclic else h < t)]
    weight = st.sampled_from((1, 1, 1, 2, 3))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    weights = {edge: draw(weight) for edge in edges}
    graph = graph_from_edges(labels, [(t, h, weights[(t, h)]) for t, h in edges])
    records = []
    present = dict(weights)
    for _ in range(draw(st.integers(1, 4))):
        edge = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(("add", "remove", "reweight", "readd")))
        if edge in present and kind == "readd":
            records.append(EdgeAdd(*edge, draw(weight)))
            present[edge] = min(present[edge], records[-1].weight)
        elif edge in present and kind != "add":
            records.append(EdgeRemove(*edge))
            del present[edge]
            if kind == "reweight":
                records.append(EdgeAdd(*edge, draw(weight)))
                present[edge] = records[-1].weight
        elif edge not in present:
            records.append(EdgeAdd(*edge, draw(weight)))
            present[edge] = records[-1].weight
    return graph, records


def assert_same_csr(got: CompactGraph, graph) -> None:
    """``got`` equals the CSR freshly packed from ``graph`` over its ids."""
    fresh = CompactGraph(graph, got.interner)
    for name in CSR_BUFFERS:
        assert bytes(getattr(got, name)) == bytes(getattr(fresh, name)), name
    assert got.num_edges == fresh.num_edges == graph.num_edges
    assert got.unit_weighted is fresh.unit_weighted is graph.is_unit_weighted()


@given(case=graphs_and_batches(cyclic=True))
@settings(max_examples=max(FUZZ_EXAMPLES, 100), deadline=None)
def test_a_patched_csr_equals_a_fresh_one(case):
    graph, records = case
    base = CompactGraph(graph, NodeInterner.from_graph(graph))
    updated = graph.copy()
    apply_records(updated, records)
    derived, moved = base.patched(updated, {record.tail for record in records})
    assert_same_csr(derived, updated)
    assert moved == sorted(
        tail_id
        for tail_id in range(base.num_nodes)
        if list(base.out_edges(tail_id)) != list(derived.out_edges(tail_id))
    )
    if not moved:
        assert derived is base


@pytest.mark.parametrize(
    ("edges", "records", "unit"),
    [
        # Removing the only non-unit edge makes the graph unit-weighted.
        ([(0, 1, 1), (1, 2, 3)], [EdgeRemove(1, 2)], True),
        # A lighter parallel edge makes it unit-weighted too.
        ([(0, 1, 1), (1, 2, 3)], [EdgeAdd(1, 2, 1)], True),
        # Adding a heavy edge makes it weighted.
        ([(0, 1, 1), (1, 2, 1)], [EdgeAdd(2, 0, 2)], False),
        # Re-adding an edge at a larger weight moves nothing.
        ([(0, 1, 1), (1, 2, 1)], [EdgeAdd(0, 1, 5)], True),
    ],
)
def test_a_patched_csr_keeps_unit_weighted_exact(edges, records, unit):
    graph = graph_from_edges({0: "A", 1: "B", 2: "C"}, edges)
    store = ClosureStore(graph, TransitiveClosure(graph))
    updated, refreshed, _dirty = refresh(store, graph, records)
    cgraph = refreshed.closure.compact_graph
    assert cgraph.unit_weighted is unit
    assert_same_csr(cgraph, updated)
    assert_same_store(refreshed, updated)
    if records == [EdgeAdd(0, 1, 5)]:
        assert cgraph is store.closure.compact_graph
        assert refreshed._pair_tables == store._pair_tables


@given(case=st.booleans().flatmap(graphs_and_batches))
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
    assert_same_csr(refreshed.closure.compact_graph, updated)


def stringified(graph, records):
    """``graph`` and ``records`` with every node id made a string (a JSON
    index keeps string ids only)."""
    labels = {str(node): graph.label(node) for node in graph.nodes()}
    edges = [(str(tail), str(head), weight) for tail, head, weight in graph.edges()]
    renamed = [
        EdgeAdd(str(r.tail), str(r.head), r.weight)
        if isinstance(r, EdgeAdd)
        else EdgeRemove(str(r.tail), str(r.head))
        for r in records
    ]
    return graph_from_edges(labels, edges), renamed


@given(case=graphs_and_batches(cyclic=True), form=st.sampled_from(("binary", "json")))
@settings(max_examples=max(FUZZ_EXAMPLES // 2, 30), deadline=None)
def test_a_loaded_engine_folds_to_a_fresh_store(case, form):
    """Folding into an engine loaded from an mmap ``.ridx`` (columns are
    memoryviews over the file) or a JSON index (no rows for sinks) gives
    the store and CSR of a fresh build."""
    graph, records = stringified(*case)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index"
        MatchEngine(graph, backend="full").save_index(path, format=form)
        loaded = MatchEngine.load(path)
        result = fold(loaded, records)
        folded = result.engine
        assert_same_store(folded.store, folded.graph)
        assert_same_csr(folded.closure.compact_graph, folded.graph)
        fresh = MatchEngine(folded.graph, backend="full")
        for query in ("A//B", "B//A", "A/C"):
            assert exact(folded.top_k(query, 5)) == exact(fresh.top_k(query, 5)), query


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
    refreshed = ClosureStore(graph, store.closure, block_size=2, base=store, dirty_groups={})
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
