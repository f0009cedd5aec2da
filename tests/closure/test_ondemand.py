"""Tests for the on-demand closure store."""

import random

import pytest

from repro.closure.ondemand import OnDemandStore
from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.core.baseline_dpp import DPPEnumerator
from repro.core.topk_en import TopkEN
from repro.graph.generators import citation_graph, erdos_renyi_graph
from repro.graph.query import QueryTree


@pytest.fixture
def od_store(figure4_graph):
    return OnDemandStore(figure4_graph, block_size=2)


class TestTableEquivalence:
    def test_incoming_group_matches_materialized(self, figure4_graph, od_store):
        mat = ClosureStore(
            figure4_graph, TransitiveClosure(figure4_graph), block_size=2
        )
        for head in ("v7", "v5", "v2"):
            for alpha in ("a", "c", None):
                got = od_store.incoming_group(head, alpha).peek_unmetered()
                want = mat.incoming_group(head, alpha).peek_unmetered()
                assert got == want, (head, alpha)

    def test_d_table_matches(self, figure4_graph, od_store):
        mat = ClosureStore.build(figure4_graph)
        assert od_store.read_d_table("c", "d") == mat.read_d_table("c", "d")
        assert od_store.read_d_table("a", "c") == mat.read_d_table("a", "c")
        assert od_store.read_d_table("d", "a") == {}

    def test_e_table_matches(self, figure4_graph, od_store):
        mat = ClosureStore.build(figure4_graph)
        assert od_store.read_e_table("c", "d") == mat.read_e_table("c", "d")
        assert od_store.read_e_table("a", None) == mat.read_e_table("a", None)

    def test_distance_via_pll(self, figure4_graph, od_store):
        tc = TransitiveClosure(figure4_graph)
        for u in figure4_graph.nodes():
            for v in figure4_graph.nodes():
                assert od_store.distance(u, v) == tc.distance(u, v)

    def test_direct_edges(self, figure4_graph, od_store):
        assert od_store.has_direct_edge("v1", "v5")
        assert not od_store.has_direct_edge("v1", "v7")


class TestCaching:
    def test_backward_search_cached(self, figure4_graph, od_store):
        od_store.incoming_group("v7", "c")
        searches = od_store.searches_run
        od_store.incoming_group("v7", "a")  # same head, different label
        assert od_store.searches_run == searches

    def test_statistics(self, figure4_graph, od_store):
        od_store.incoming_group("v7", "c")
        stats = od_store.cache_statistics()
        assert stats["searches_run"] >= 1
        assert stats["groups_materialized"] >= 1
        assert stats["pll_entries"] > 0


class UnboundedWildcardStore(OnDemandStore):
    """Searches every node for a wildcard head label, whatever the tail."""

    def _heads_with_label(self, head_label, tail_label):
        return super()._heads_with_label(head_label, None if head_label is None else tail_label)


class TestWildcardHeadBound:
    """A wildcard head under a concrete tail label searches only the heads
    one forward sweep from the tail label reaches; the output is what
    searching every node gives."""

    @staticmethod
    def reads(store, tail_label, direct_only):
        counter = store.counter
        before = counter.snapshot()
        result = (
            [
                (head, list(tails), list(dists))
                for head, tails, dists in store.read_pair_groups(tail_label, None, direct_only)
            ],
            store.read_d_table(tail_label, None),
            store.read_e_table(tail_label, None),
        )
        delta = counter.delta_since(before)
        return result, (delta.blocks_read, delta.entries_read, delta.tables_opened)

    @pytest.mark.parametrize("direct_only", (False, True))
    @pytest.mark.parametrize("tail_label", ("V0", "V5", "V11", "absent"))
    def test_same_reads_fewer_searches(self, tail_label, direct_only):
        g = citation_graph(400, num_labels=12, seed=1)
        bounded, unbounded = OnDemandStore(g), UnboundedWildcardStore(g)
        got = self.reads(bounded, tail_label, direct_only)
        assert got == self.reads(unbounded, tail_label, direct_only)
        assert unbounded.searches_run == 400
        assert bounded.searches_run < 400
        if tail_label == "V0":
            assert got[0][0], "V0 reaches other nodes"


class TestEnginesRunUnchanged:
    @pytest.mark.parametrize("seed", range(15))
    def test_topk_en_agrees(self, seed):
        rng = random.Random(seed)
        g = erdos_renyi_graph(
            rng.randint(6, 13), rng.randint(8, 32), num_labels=4, seed=seed
        )
        labels = sorted(g.labels())
        rng.shuffle(labels)
        size = min(len(labels), rng.randint(2, 4))
        q = QueryTree(
            {i: labels[i] for i in range(size)},
            [(rng.randrange(i), i) for i in range(1, size)],
        )
        mat = ClosureStore.build(g, block_size=4)
        od = OnDemandStore(g, block_size=4)
        k = rng.choice([1, 5, 20])
        a = [m.score for m in TopkEN(mat, q).top_k(k)]
        b = [m.score for m in TopkEN(od, q).top_k(k)]
        assert a == b

    def test_dpp_agrees(self, figure4_graph, figure4_query, od_store):
        mat = ClosureStore.build(figure4_graph)
        a = [m.score for m in DPPEnumerator(mat, figure4_query).top_k(4)]
        b = [m.score for m in DPPEnumerator(od_store, figure4_query).top_k(4)]
        assert a == b == [3, 4, 5, 6]

    def test_less_material_than_full_closure(self):
        g = citation_graph(300, num_labels=30, seed=1)
        tc = TransitiveClosure(g)
        od = OnDemandStore(g)
        q = QueryTree({0: g.label(200), 1: g.label(100)}, [(0, 1)])
        try:
            TopkEN(od, q).top_k(3)
        except Exception:  # query may be unmatchable; material still counted
            pass
        stats = od.cache_statistics()
        assert stats["cached_entries"] + stats["pll_entries"] < tc.num_pairs
