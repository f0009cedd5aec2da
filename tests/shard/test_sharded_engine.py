"""ShardedEngine: routing, equivalence, streams, updates, disk loads."""

from __future__ import annotations

import json

import pytest

from repro.engine.core import MatchEngine
from repro.exceptions import EngineError, ShardError
from repro.graph.digraph import graph_from_edges
from repro.shard import ShardedEngine, merge_topk, shard_index
from tests.shard.conftest import FIXTURE_QUERIES


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@pytest.fixture(scope="module")
def flat(medium_graph):
    return MatchEngine(medium_graph)


@pytest.fixture(scope="module", params=(1, 2, 3, 5))
def sharded(request, medium_graph):
    return ShardedEngine.from_graph(medium_graph, request.param)


def test_top_k_equals_flat_engine(flat, sharded):
    for query in FIXTURE_QUERIES:
        for k in (1, 5, 12):
            want = [m.score for m in flat.top_k(query, k)]
            got = [m.score for m in sharded.top_k(query, k)]
            assert want == got, (query, k, sharded.shard_count)


def test_plain_root_routes_to_one_shard(sharded):
    for label in "ABCDEF":
        targets = sharded.route(f"{label}//B")
        assert len(targets) == 1
        assert targets[0] == sharded.plan.owner_of(label)


def test_unknown_root_label_routes_nowhere(sharded):
    assert sharded.route("ZZZ//A") == ()
    assert sharded.top_k("ZZZ//A", 5) == []


def test_cyclic_patterns_are_rejected(sharded):
    with pytest.raises(EngineError, match="cyclic"):
        sharded.top_k("graph(a:A, b:B; a-b, b-a)", 5)


def test_stream_is_lazy_and_ordered(flat, sharded):
    stream = sharded.stream("A//B[C]")
    first = stream.take(4)
    second = stream.take(4)
    combined = first + second
    want = flat.top_k("A//B[C]", 8)
    assert [m.score for m in combined] == [m.score for m in want]
    assert stream.consumed == len(combined)


def test_stream_exhaustion_returns_none(sharded):
    stream = sharded.stream("F//A")
    drained = stream.take(10_000)
    assert stream.next() is None
    scores = [m.score for m in drained]
    assert scores == sorted(scores)


def test_batch_matches_individual_topk(sharded):
    queries = list(FIXTURE_QUERIES[:3])
    batched = sharded.batch(queries, 6)
    for query, matches in zip(queries, batched):
        assert exact(matches) == exact(sharded.top_k(query, 6))


def test_negative_k_raises(sharded):
    with pytest.raises(ValueError):
        sharded.top_k("A//B", -1)


def test_merge_topk_dedupes_replica_matches(flat):
    partial = flat.top_k("A//B", 5)
    merged = merge_topk([partial, list(partial)], 5)
    # Duplicated partials collapse to the same match set; order within a
    # tied score group is canonicalized (deterministic), not the
    # engine's enumeration-internal tie order.
    assert sorted(exact(merged)) == sorted(exact(partial))
    assert [m.score for m in merged] == [m.score for m in partial]


def test_merge_topk_is_deterministic_under_shuffling(flat):
    import random

    partial = flat.top_k("A//B[C]", 8)
    reference = merge_topk([partial], 8)
    rng = random.Random(0)
    for _ in range(5):
        pieces = [list(partial[:3]), list(partial[3:]), list(partial[2:6])]
        rng.shuffle(pieces)
        assert exact(merge_topk(pieces, 8)) == exact(reference)


def test_merge_orders_tied_matches_of_mixed_node_id_types():
    """Data nodes ``1`` and ``"b"`` tie at one query node: the merge's
    keys order them by kind instead of raising ``TypeError``, and the
    stream agrees with the eager merge."""
    graph = graph_from_edges({"r": "A", 1: "B", "b": "B"}, [("r", 1), ("r", "b")])
    want = MatchEngine(graph).top_k("A//B", 5)
    sharded = ShardedEngine.from_graph(graph, 2)
    got = sharded.top_k("A//B", 5)
    assert sorted(exact(got), key=repr) == sorted(exact(want), key=repr)
    assert [m.assignment for m in got] == [{"n0": "r", "n1": 1}, {"n0": "r", "n1": "b"}]
    assert exact(sharded.stream("A//B").take(5)) == exact(got)
    assert exact(merge_topk([got[::-1], got[:1]], 5)) == exact(got)


def test_updated_rebuilds_one_epoch_later(medium_graph, flat):
    sharded = ShardedEngine.from_graph(medium_graph, 3)
    swapped = sharded.updated(edges_added=[("v1", "v40")], nodes_added={"v99": "B"})
    assert swapped.epoch == sharded.epoch + 1
    assert sharded.graph.num_nodes == medium_graph.num_nodes  # receiver untouched
    mutated = medium_graph.copy()
    mutated.add_node("v99", "B")
    mutated.add_edge("v1", "v40")
    fresh = MatchEngine(mutated)
    for query in FIXTURE_QUERIES[:3]:
        assert [m.score for m in swapped.top_k(query, 8)] == [
            m.score for m in fresh.top_k(query, 8)
        ]


def test_updated_rejects_bad_deltas(medium_graph):
    sharded = ShardedEngine.from_graph(medium_graph, 2)
    with pytest.raises(ShardError, match="invalid graph update"):
        sharded.updated(edges_removed=[("v0", "does-not-exist")])


def test_load_round_trip(tmp_path, medium_graph, flat):
    manifest = tmp_path / "index.ridx"
    shard_index(medium_graph, manifest, 3)
    loaded = ShardedEngine.load(manifest)
    assert loaded.shard_count == 3
    assert loaded.graph.num_nodes == medium_graph.num_nodes
    assert loaded.graph.num_edges == medium_graph.num_edges
    for query in FIXTURE_QUERIES:
        assert [m.score for m in loaded.top_k(query, 7)] == [
            m.score for m in flat.top_k(query, 7)
        ]


def test_load_is_transparent_via_matchengine(tmp_path, medium_graph, flat):
    manifest = tmp_path / "index.ridx"
    shard_index(medium_graph, manifest, 2)
    engine = MatchEngine.load(manifest)
    assert isinstance(engine, ShardedEngine)
    got, want = engine.top_k("A//B", 5), flat.top_k("A//B", 5)
    assert [m.score for m in got] == [m.score for m in want]
    assert sorted(exact(got)) == sorted(exact(want))


def test_load_rejects_count_mismatch(tmp_path, medium_graph):
    from repro.shard.manifest import _canonical_checksum

    manifest = tmp_path / "index.ridx"
    shard_index(medium_graph, manifest, 3)
    document = json.loads(manifest.read_text())
    document["counts"]["edges"] += 1
    document["checksum"] = _canonical_checksum(document)
    manifest.write_text(json.dumps(document, indent=2, sort_keys=True))
    with pytest.raises(ShardError, match="manifest records"):
        ShardedEngine.load(manifest)


def test_save_index_round_trips(tmp_path, medium_graph):
    sharded = ShardedEngine.from_graph(medium_graph, 3)
    manifest = tmp_path / "saved.ridx"
    document = sharded.save_index(manifest)
    assert document["shard_count"] == 3
    reloaded = ShardedEngine.load(manifest)
    for query in FIXTURE_QUERIES[:2]:
        assert exact(reloaded.top_k(query, 6)) == exact(sharded.top_k(query, 6))


def test_statistics_shape(sharded, medium_graph):
    stats = sharded.statistics()
    assert stats["shard_count"] == sharded.shard_count
    assert stats["graph_nodes"] == medium_graph.num_nodes
    assert stats["owned_nodes"] == medium_graph.num_nodes
    assert len(stats["shards"]) == sharded.shard_count
    spans = stats["spans"]
    assert spans[0][0] == 0 and spans[-1][1] == medium_graph.num_nodes


def test_backend_name_mentions_sharding(sharded):
    assert sharded.backend_name.startswith(f"sharded[{sharded.shard_count}]")


def test_explain_routes_to_owner(sharded):
    plan = sharded.explain("A//B", k=5)
    assert plan is not None
    assert sharded.route("A//B") == (sharded.plan.owner_of("A"),)
