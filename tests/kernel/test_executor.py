"""Execution: bound programs replay the reference interpreter exactly."""

import gc

import pytest

from repro.core.topk import TopkEnumerator
from repro.engine import MatchEngine
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from repro.kernel import bind_program, compile_program
from repro.runtime.graph import build_runtime_graph

#: The closure backends the differential fuzz covers.
BACKENDS = ("full", "ondemand", "hybrid", "pll")


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


def tie_graph(ids=range(9)):
    """A dense two-level graph with many equal-score matches (tie stress).

    ``ids[i]`` names node ``i``; its label is ``"ABC"[i % 3]``.
    """
    labels = {ids[i]: "ABC"[i % 3] for i in range(9)}
    edges = [
        (ids[t], ids[h]) for t in range(9) for h in range(9)
        if t != h and (t + h) % 2
    ]
    return graph_from_edges(labels, edges)


def reference(engine, compiled, k):
    return exact(engine._build_enumerator(compiled, "topk").top_k(k))


def kernel_bind(engine, compiled, node_weight=None):
    return bind_program(
        compile_program(compiled),
        engine.store,
        matcher=compiled.effective_matcher(engine.config.label_matcher),
        node_weight=node_weight,
    )


QUERIES = (
    "A//B",           # single edge
    "A/B",            # direct axis
    "A//B[C]",        # branching twig
    "A//B//C",        # chain
    "A//*",           # wildcard fan-out
    "A[*]/B",         # wildcard + direct
    "~A//~B",         # containment matcher
    "A",              # single node, no edges
)

class Tag:
    """A hashable node id whose ``repr`` is exactly its text."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text

    def __eq__(self, other):
        return isinstance(other, Tag) and other.text == self.text

    def __hash__(self):
        return hash(self.text)


#: Node-id families whose repr order differs from the order of the ids
#: themselves and, across labels, from the interned (label-major) order.
NON_INTEGER_IDS = {
    "strings-with-spaces": [f"n {8 - i}" if i % 2 else f"n{8 - i}" for i in range(9)],
    "tuples": [(i % 2, 4 - i, "t") for i in range(9)],
    "negative-ints": [-(9 - i) for i in range(9)],
    "mixed-1-10-2": [1, 10, 2, 100, 20, 3, 11, 21, 110],
    # Reprs that are prefixes of each other inside one label, extended by
    # a character below ")": the interned (plain repr) order puts "n"
    # first, repr((qnode, node)) puts it last.  Labels: A n, n!, n!x;
    # B m, m#, m$; C p, "p ", p&.
    "repr-prefix-chains": [
        Tag(text) for text in ("n", "m", "p", "n!", "m#", "p ", "n!x", "m$", "p&")
    ],
}


class TestExactEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("k", (1, 5, 1000))
    def test_kernel_matches_interpreter(self, query, k):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile(query)
        want = reference(engine, compiled, k)
        assert exact(kernel_bind(engine, compiled).run().top_k(k)) == want

    @pytest.mark.parametrize("query", ("A//B[C]", "A/B", "A//*"))
    def test_kernel_matches_interpreter_on_citation_graph(self, query):
        base = citation_graph(120, num_labels=5, seed=3)
        labels = {v: "ABCDE"[int(base.label(v)[1:])] for v in base.nodes()}
        engine = MatchEngine(graph_from_edges(labels, base.edges()), backend="full")
        compiled = engine.compile(query)
        want = reference(engine, compiled, 25)
        assert want, "the query must match"
        assert exact(kernel_bind(engine, compiled).run().top_k(25)) == want

    def test_leaf_memo_keeps_the_axes_apart(self):
        """``//`` and ``/`` leaves over one pair table memoize separately."""
        engine = MatchEngine(tie_graph(), backend="full")
        for query in ("A//B", "A/B", "C//A/B", "A//B"):
            compiled = engine.compile(query)
            want = reference(engine, compiled, 1000)
            assert exact(kernel_bind(engine, compiled).run().top_k(1000)) == want, query

    def test_node_weights_replayed(self):
        engine = MatchEngine(
            tie_graph(), backend="full",
            node_weight=lambda node: float(node % 4),
        )
        compiled = engine.compile("A//B[C]")
        want = reference(engine, compiled, 50)
        assert any(score for score, _ in want), "weights must matter"
        bound = kernel_bind(engine, compiled, node_weight=engine.config.node_weight)
        assert exact(bound.run().top_k(50)) == want

    def test_empty_result_sets_agree(self):
        graph = graph_from_edges({0: "A", 1: "B", 2: "Z"}, [(0, 1)])
        engine = MatchEngine(graph, backend="full")
        compiled = engine.compile("A//Z")  # label exists, no closure row
        assert reference(engine, compiled, 5) == []
        assert kernel_bind(engine, compiled).run().top_k(5) == []

    @pytest.mark.parametrize("family", sorted(NON_INTEGER_IDS))
    @pytest.mark.parametrize("query", QUERIES + ("C//A//B", "B//A"))
    def test_tie_order_with_non_integer_node_ids(self, family, query):
        """Ties break on repr((qnode, node)), never on id or value order —
        on a cold bind and on a second bind that hits the leaf memo."""
        engine = MatchEngine(tie_graph(NON_INTEGER_IDS[family]), backend="full")
        compiled = engine.compile(query)
        want = reference(engine, compiled, 1000)
        assert want, "the tie graph must match"
        for _ in range(2):
            assert exact(kernel_bind(engine, compiled).run().top_k(1000)) == want


def containment_graph():
    """Citation graph whose labels carry a second token, so ``~V1`` fans
    out to two data labels and ``~x`` to every other one."""
    base = citation_graph(150, num_labels=4, seed=5)
    labels = {v: f"{base.label(v)}+{'xy'[v % 2]}" for v in base.nodes()}
    return graph_from_edges(labels, base.edges())


def forced_slots(bound):
    """Every live parent's slot on every edge, each forced through the
    lazy path, as ``{parent: [(key, child)]}`` per edge; then the root
    slot as ``[(key, root)]``."""
    nodes = bound.nodes
    edges = [
        {
            parent: [(key, nodes[child_pos][child]) for key, child in zip(*bound.slot(e, pcand))]
            for pcand, parent in enumerate(nodes[parent_pos])
        }
        for e, (parent_pos, child_pos, _direct) in enumerate(bound.program.edge_specs)
    ]
    roots = [(key, nodes[0][cand]) for key, cand in zip(bound.root_keys, bound.root_cand)]
    return edges, roots


def reference_slots(engine, compiled, node_weight=None):
    """:func:`forced_slots` from the interpreter: ``TopkEnumerator``'s
    slots over the unpruned ``build_runtime_graph``, in ``(key, repr)``
    order, for every candidate with a ``bs`` score."""
    matcher = compiled.effective_matcher(engine.config.label_matcher)
    gr = build_runtime_graph(engine.store, compiled.tree, matcher, prune=False)
    topk = TopkEnumerator(gr, node_weight=node_weight)

    def ordered(slot):
        return [(key, node) for key, (_qnode, node) in map(slot.ith, range(1, len(slot) + 1))]

    program = compile_program(compiled)
    order = program.order
    edges = [
        {
            v: ordered(topk._slots[(order[parent_pos], v, order[child_pos])])
            for u, v in topk._bs
            if u == order[parent_pos]
        }
        for parent_pos, child_pos, _direct in program.edge_specs
    ]
    return edges, ordered(topk._root_slot)


def leaf_memos(store):
    """The packed views memoized on a store: its pair tables' and its
    composed edge views'."""
    store = getattr(store, "_materialized", store)
    tables = getattr(store, "_pair_tables", {}).values()
    composed = [packed for memo in getattr(store, "_edge_views", {}).values() for packed in memo[0]]
    return composed + [
        view
        for table in tables
        for view in (table._leaf, table._leaf_direct)
        if view is not None
    ]


class TestClosureReads:
    """The compiled tier reads exactly what Topk's run-time-graph load reads."""

    #: Query -> a query that reaches the same leaf tables under other
    #: query nodes (its leaves sit one level deeper).
    QUERIES = {
        "{V0+x}//{V1+y}[{V2+x}]": "{V3+y}//{V0+x}//{V1+y}[{V2+x}]",  # plain twig
        "{V0+x}//*[{V3+y}]": "{V2+y}//{V0+x}//*[{V3+y}]",  # wildcard
        "~V1//~V2[~x]": "{V3+y}//~V1//~V2[~x]",  # containment fan-out
        "{V0+x}/{V1+y}//{V2+x}": "{V3+y}//{V0+x}/{V1+y}//{V2+x}",  # '/' axis
        "{V0+x}//{V1+y}": "{V2+x}//{V0+x}//{V1+y}",  # single leaf edge
        "{V2+x}//*//{V1+y}": "{V3+y}//{V2+x}//*//{V1+y}",  # wildcard tail
        "~x//*[~V2]": "{V3+y}//~x//*[~V2]",  # wildcard tail, containment head
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_bind_reads_what_the_runtime_graph_load_reads(self, backend, query):
        """A cold bind, a warm bind (composed-memo hit) and a bind whose
        table views another query built all meter what
        ``build_runtime_graph`` meters and give the interpreter's slots;
        sorting them reads nothing."""

        def reads(engine, load):
            counter = engine.store.counter
            before = counter.snapshot()
            result = load()
            delta = counter.delta_since(before)
            return result, (delta.blocks_read, delta.entries_read, delta.tables_opened)

        def load_and_bind(engine, text):
            compiled = engine.compile(text)
            matcher = compiled.effective_matcher(engine.config.label_matcher)
            _, loaded = reads(
                engine, lambda: build_runtime_graph(engine.store, compiled.tree, matcher)
            )
            bound, read = reads(engine, lambda: kernel_bind(engine, compiled))
            assert read == loaded
            slots, lazy = reads(engine, lambda: forced_slots(bound))
            assert lazy == (0, 0, 0)
            return slots, loaded

        engine = MatchEngine(containment_graph(), backend=backend)
        cold, loaded = load_and_bind(engine, query)
        composed = dict(getattr(engine.store, "_edge_views", {}))
        warm, _ = load_and_bind(engine, query)
        assert getattr(engine.store, "_edge_views", {}) == composed, "the warm bind hits"
        other = MatchEngine(containment_graph(), backend=backend)
        load_and_bind(other, self.QUERIES[query])
        after_other, _ = load_and_bind(other, query)
        assert cold == warm == after_other == reference_slots(engine, engine.compile(query))
        assert loaded[2] > 0
        if backend == "full":
            assert loaded[0] > 0 and loaded[1] > 0
        memos = leaf_memos(engine.store) + leaf_memos(other.store)
        if backend == "full":
            assert memos, "every edge reads its tables through the memo"
            assert len(composed) == engine.compile(query).num_nodes - 1
        gc.collect()
        for view in memos:
            assert not any(gc.is_tracked(member) for member in view)


class TestLazySlots:
    """Slots sorted on first touch equal the interpreter's, entry for entry."""

    @staticmethod
    def assert_three_binds(graph, backend, query, node_weight=None):
        """Cold bind, memo hit and fresh engine: every slot, forced, is the
        ``(key, repr)``-ordered slot of ``build_runtime_graph``."""
        engine = MatchEngine(graph, backend=backend, node_weight=node_weight)
        compiled = engine.compile(query)
        want = reference_slots(engine, compiled, node_weight)
        assert want[1], "the query must match"
        fresh = MatchEngine(graph, backend=backend, node_weight=node_weight)
        for target in (engine, engine, fresh):
            bound = kernel_bind(target, target.compile(query), node_weight=node_weight)
            assert forced_slots(bound) == want, (backend, query)

    @pytest.mark.parametrize("family", sorted(NON_INTEGER_IDS) + ["integers"])
    @pytest.mark.parametrize(
        "query", [q for q in QUERIES if "/" in q] + ["C//A//B", "B//A", "C//*//B"]
    )
    def test_slots_keep_the_tie_order_of_non_integer_ids(self, family, query):
        ids = NON_INTEGER_IDS.get(family, range(9))
        self.assert_three_binds(tie_graph(ids), "full", query)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("query", sorted(TestClosureReads.QUERIES.values()) + ["{V1+y}//*"])
    def test_multi_pair_edges_on_every_backend(self, backend, query):
        """Containment roots, wildcard heads with runs in several tables
        and weighted internal edges compose their per-table views."""
        self.assert_three_binds(containment_graph(), backend, query)
        self.assert_three_binds(
            containment_graph(), backend, query, node_weight=lambda node: float(node % 3)
        )

    #: Rows all live parents' slots hold on ``containment_graph()``: the
    #: ``kernel.bind.slot_entries`` of a bind that sorts every slot.
    SLOT_ENTRIES = {
        "{V0+x}//{V1+y}[{V2+x}]": 71,
        "{V0+x}//*[{V3+y}]": 747,
        "~V1//~V2[~x]": 370,
        "{V0+x}/{V1+y}//{V2+x}": 32,
        "{V3+y}//~V1//~V2[~x]": 399,
        "{V1+y}//*": 176,
        "~x//{V1+y}": 94,
    }

    @pytest.mark.parametrize("backend", ("full", "ondemand"))
    @pytest.mark.parametrize("query", sorted(SLOT_ENTRIES))
    def test_slot_entries_count_what_a_full_bind_holds(self, backend, query):
        """``num_slot_entries`` counts every live parent's rows without
        sorting a slot, and equals the forced slots' size."""
        engine = MatchEngine(containment_graph(), backend=backend)
        bound = kernel_bind(engine, engine.compile(query))
        assert bound.num_slot_entries == self.SLOT_ENTRIES[query]
        assert all(slot is None for slots in bound.slots for slot in slots)
        edges, _roots = forced_slots(bound)
        assert sum(len(slot) for edge in edges for slot in edge.values()) == self.SLOT_ENTRIES[query]

    def test_a_run_sorts_only_the_slots_it_reads(self):
        engine = MatchEngine(containment_graph(), backend="full")
        bound = kernel_bind(engine, engine.compile("{V3+y}//~V1//~V2[~x]"))
        bound.run().top_k(1)
        touched = sum(slot is not None for slots in bound.slots for slot in slots)
        assert 0 < touched < sum(map(len, bound.slots))


def composed_views(bound):
    """Each edge's composed slot sources (tails, offsets, keys, childs) as
    plain lists, in bind order."""
    return [
        [[list(column) for column in source[:4]] for source in sources]
        for _parents, sources in bound.sources
    ]


class TestComposedMemo:
    """The store-level memo of multi-table edges."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_memo_keeps_the_axes_apart(self, backend):
        """``~V1//X`` and ``~V1/X`` read the same tables under the same
        label sets: each axis needs its own entry, whichever binds first."""
        for first, second in (("~V1//{V2+x}", "~V1/{V2+x}"), ("~V1/{V2+x}", "~V1//{V2+x}")):
            engine = MatchEngine(containment_graph(), backend=backend)
            for query in (first, second, first):
                compiled = engine.compile(query)
                want = reference_slots(engine, compiled)
                assert want[1], query
                bound = kernel_bind(engine, compiled)
                assert forced_slots(bound) == want, (backend, query)
                assert exact(bound.run().top_k(1000)) == reference(engine, compiled, 1000)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_expanded_tail_joins_every_head_label_once(self, backend):
        """The first edge out of ``~x`` joins the views of every head label
        that ``~x``'s tables reach; edges to other head labels share them
        (no copy, no new build) per axis, read what
        ``build_runtime_graph`` reads, and bind as on a fresh engine."""
        queries = ("~x//{V1+y}", "~x//{V2+x}", "~x/{V1+y}", "~x//{V1+y}[{V3+y}]")
        engine = MatchEngine(containment_graph(), backend=backend)
        store = engine.store
        for query in queries:
            compiled = engine.compile(query)
            matcher = compiled.effective_matcher(engine.config.label_matcher)
            before = store.counter.snapshot()
            build_runtime_graph(store, compiled.tree, matcher)
            loaded = store.counter.delta_since(before)
            before = store.counter.snapshot()
            bound = kernel_bind(engine, compiled)
            read = store.counter.delta_since(before)
            assert (read.blocks_read, read.entries_read, read.tables_opened) == (
                loaded.blocks_read, loaded.entries_read, loaded.tables_opened
            ), (backend, query)
            want = reference_slots(engine, compiled)
            assert want[1], query
            assert forced_slots(bound) == want, (backend, query)
            fresh = MatchEngine(containment_graph(), backend=backend)
            assert composed_views(kernel_bind(fresh, fresh.compile(query))) == composed_views(bound)
        if backend != "full":
            return
        interner = store.interner
        from repro.query.compiler import COMPILED_MATCHER, ContainsLabel

        tails = interner.data_labels(COMPILED_MATCHER, ContainsLabel(("x",)))
        assert sorted(store._joined) == [(tails, False), (tails, True)]
        joined = store._joined[(tails, False)]
        assert len(joined) > 2, "every head label several tables reach"
        for head in ("V1+y", "V2+x"):
            packed, _lone, *_reads = store._edge_views[(tails, (head,), False)]
            assert packed == (joined[head],) and packed[0][0] is joined[head][0], "shared"

    def test_composed_views_follow_the_interners_label_order(self):
        """A containment tail expands over the interner's id-ordered
        labels, one joined view per head label, in head-label order."""
        from repro.query.compiler import COMPILED_MATCHER, ContainsLabel

        engine = MatchEngine(containment_graph(), backend="full")
        interner = engine.store.interner
        tails = interner.data_labels(COMPILED_MATCHER, ContainsLabel(("x",)))
        assert tails == tuple(label for label in interner.labels() if label.endswith("+x"))
        assert len(tails) > 1
        views, lone = engine.store.read_edge_views(tails, None)
        assert not lone
        labels = [interner.label_of(view[0][0]) for view in views]
        assert labels == list(interner.labels())
        for heads, _keys, _childs, _offsets, view_tails, _lows in views:
            assert {interner.label_of(head) for head in heads} == {interner.label_of(heads[0])}
            assert list(view_tails) == sorted(view_tails)
            assert {interner.label_of(tail) for tail in view_tails} == set(tails), "joined"
        bound = kernel_bind(engine, engine.compile("~x//*"))
        (_parents, sources), = bound.sources
        assert [list(source[0]) for source in sources] == [list(view[4]) for view in views]
        assert composed_views(kernel_bind(engine, engine.compile("~x//*"))) == composed_views(bound)

    def test_composed_views_do_not_depend_on_hash_randomization(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        script = (
            "from tests.kernel.test_executor import *\n"
            "engine = MatchEngine(containment_graph(), backend='full')\n"
            "for query in ('~x//*', '~V1//~V2[~x]', '{V3+y}//~x//*[~V2]'):\n"
            "    print(composed_views(kernel_bind(engine, engine.compile(query))))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                cwd=root,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.pathsep.join((str(root / "src"), str(root))),
                },
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1


class TestRunProtocol:
    def test_stats_surface_the_tier(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        run = kernel_bind(engine, compiled).run()
        run.top_k(3)
        assert run.stats.extra["tier"] == "compiled"
        assert run.stats.rounds >= 3

    def test_stream_is_an_iterator_over_the_same_order(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        bound = kernel_bind(engine, compiled)
        want = exact(bound.run().top_k(7))
        streamed = []
        for match in bound.run().stream():
            streamed.append(match)
            if len(streamed) == 7:
                break
        assert exact(streamed) == want

    def test_negative_k_raises(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        with pytest.raises(ValueError, match="non-negative"):
            kernel_bind(engine, compiled).run().top_k(-1)

    def test_bound_program_reports_bind_costs(self):
        engine = MatchEngine(tie_graph(), backend="full")
        compiled = engine.compile("A//B")
        bound = kernel_bind(engine, compiled)
        assert bound.bind_seconds >= 0.0
        assert bound.num_candidates > 0
