"""Tests for the block-organized closure store (L/D/E tables)."""

import pytest

from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.graph.digraph import graph_from_edges


@pytest.fixture
def store(figure4_graph):
    return ClosureStore(
        figure4_graph, TransitiveClosure(figure4_graph), block_size=2
    )


class TestLGroups:
    def test_incoming_group_sorted_by_distance(self, store):
        table = store.incoming_group("v7", "c")
        entries = table.read_all()
        assert [tail for tail, _, __ in entries] == ["v5", "v6", "v3", "v4"]
        assert [dist for _, dist, __ in entries] == [1, 2, 3, 4]

    def test_incoming_group_direct_flags(self, store):
        entries = store.incoming_group("v7", "a").read_all()
        # v1 reaches v7 only through c-nodes: not a direct edge.
        assert entries == (("v1", 2, False),)

    def test_missing_group_is_empty(self, store):
        assert store.incoming_group("v1", "d").read_all() == ()

    def test_wildcard_group_merges_labels(self, store):
        entries = store.incoming_group("v7", None).read_all()
        tails = [tail for tail, _, __ in entries]
        assert "v1" in tails and "v5" in tails
        dists = [d for _, d, __ in entries]
        assert dists == sorted(dists)

    def test_group_open_metered(self, store):
        before = store.counter.tables_opened
        store.incoming_group("v7", "c")
        assert store.counter.tables_opened == before + 1


class TestPairTables:
    def test_read_pair_table(self, store):
        triples = sorted(store.read_pair_table("c", "d"))
        assert triples == [
            ("v3", "v7", 3),
            ("v4", "v7", 4),
            ("v5", "v7", 1),
            ("v6", "v7", 2),
        ]

    def test_read_pair_table_direct_only(self, store):
        # a -> d only via paths, so the direct-only view is empty.
        assert list(store.read_pair_table("a", "d", direct_only=True)) == []
        direct = sorted(store.read_pair_table("a", "c", direct_only=True))
        assert len(direct) == 4

    def test_read_pair_table_meters_blocks(self, store):
        before = store.counter.blocks_read
        list(store.read_pair_table("c", "d"))
        assert store.counter.blocks_read > before

    @pytest.mark.parametrize("direct_only", (False, True))
    @pytest.mark.parametrize("pair", (("c", "d"), ("a", "c"), (None, "d")))
    def test_pair_read_meters_every_block_of_every_group(
        self, store, pair, direct_only
    ):
        """A pair-table read costs what reading each of its ``L^alpha_v``
        groups block by block costs: one open per table, every entry."""
        tail_label, head_label = pair
        keys = [
            (alpha, head)
            for alpha in sorted(store.graph.labels())
            if tail_label in (None, alpha)
            for head in store.group_targets(alpha, head_label)
        ]
        groups = [store.incoming_group(head, alpha) for alpha, head in keys]
        counter = store.counter
        before = counter.snapshot()
        list(store.read_pair_table(tail_label, head_label, direct_only))
        delta = counter.delta_since(before)
        assert delta.blocks_read == sum(group.num_blocks for group in groups)
        assert delta.entries_read == sum(group.num_entries for group in groups)
        assert delta.tables_opened == len(
            {(alpha, store.graph.label(head)) for alpha, head in keys}
        )

    def test_pair_groups_decode_to_the_triples(self, store):
        nodes = store.interner.nodes()
        decoded = sorted(
            (nodes[tail], nodes[head], dist)
            for head, tails, dists in store.read_pair_groups("a", "c", True)
            for tail, dist in zip(tails, dists)
        )
        assert decoded == sorted(store.read_pair_table("a", "c", True))

    @pytest.mark.parametrize("direct_only", (False, True))
    @pytest.mark.parametrize("pair", (("c", "d"), ("a", "c"), ("d", "a"), (None, "d"), ("a", None)))
    def test_leaf_slots_meter_the_pair_read_and_memoize(self, store, pair, direct_only):
        """``read_leaf_slots`` meters what ``read_pair_groups`` meters on
        every call, and its rows, one view per table, are the groups dealt
        out per tail."""
        counter = store.counter

        def metered(read):
            before = counter.snapshot()
            result = read()
            delta = counter.delta_since(before)
            return result, (delta.blocks_read, delta.entries_read, delta.tables_opened)

        groups, want = metered(lambda: list(store.read_pair_groups(*pair, direct_only)))
        first, cold = metered(lambda: store.read_leaf_slots(*pair, direct_only))
        second, warm = metered(lambda: store.read_leaf_slots(*pair, direct_only))
        assert cold == warm == want
        assert first == second
        assert len(first) == want[2]
        rows = {
            (tail, head, dist)
            for head, tails, dists in groups
            for tail, dist in zip(tails, dists)
        }
        dealt = set()
        for heads, keys, childs, offsets, tails, lows in first:
            assert list(tails) == sorted(set(tails))
            for j, tail in enumerate(tails):
                run = range(offsets[j], offsets[j + 1])
                assert [(keys[r], childs[r]) for r in run] == sorted(
                    (keys[r], childs[r]) for r in run
                )
                assert lows[j] == min(keys[r] for r in run)
                dealt.update((tail, heads[childs[r]], keys[r]) for r in run)
        assert dealt == rows

    def test_wildcard_tail(self, store):
        triples = list(store.read_pair_table(None, "d"))
        tails = {t for t, _, __ in triples}
        assert tails == {"v1", "v3", "v4", "v5", "v6"}


class TestDTables:
    def test_d_values_are_group_minima(self, store):
        d = store.read_d_table("c", "d")
        assert d == {"v7": 1}
        d2 = store.read_d_table("a", "c")
        assert d2 == {"v3": 1, "v4": 1, "v5": 1, "v6": 1}

    def test_d_wildcard_merges_min(self, store):
        d = store.read_d_table(None, "d")
        assert d["v7"] == 1

    def test_missing_pair_empty(self, store):
        assert store.read_d_table("d", "a") == {}


class TestETables:
    def test_e_minimum_outgoing(self, store):
        e = dict(
            (tail, (head, dist))
            for tail, head, dist in store.read_e_table("c", "d")
        )
        assert e == {
            "v3": ("v7", 3),
            "v4": ("v7", 4),
            "v5": ("v7", 1),
            "v6": ("v7", 2),
        }

    def test_e_wildcard_head_takes_overall_min(self, store):
        rows = {t: (h, d) for t, h, d in store.read_e_table("v_label_x", None)}
        assert rows == {}  # unknown tail label
        rows = {t: (h, d) for t, h, d in store.read_e_table("a", None)}
        # v1's global minimum outgoing closure edge has distance 1.
        assert rows["v1"][1] == 1


class TestStatistics:
    def test_size_statistics(self, store):
        stats = store.size_statistics()
        closure = store.closure
        assert stats["l_entries"] == closure.num_pairs
        assert stats["total_entries"] == (
            stats["l_entries"] + stats["d_entries"] + stats["e_entries"]
        )
        assert store.estimated_bytes() == stats["total_entries"] * 12

    def test_estimated_bytes_validation(self, store):
        from repro.exceptions import ClosureError

        with pytest.raises(ClosureError):
            store.estimated_bytes(0)

    def test_group_targets(self, store):
        assert store.group_targets("c", "d") == ["v7"]
        assert set(store.group_targets("a", None)) >= {"v3", "v7"}

    def test_tail_labels_of(self, store):
        assert store.tail_labels_of("v7") == frozenset({"a", "c"})


class TestDistanceProbes:
    def test_distance(self, store):
        assert store.distance("v1", "v7") == 2
        assert store.distance("v7", "v1") is None

    def test_has_direct_edge(self, store):
        assert store.has_direct_edge("v1", "v5")
        assert not store.has_direct_edge("v1", "v7")


def test_store_builds_without_precomputed_closure():
    g = graph_from_edges({0: "a", 1: "b"}, [(0, 1)])
    store = ClosureStore.build(g)
    assert store.distance(0, 1) == 1
