"""ShardedMatchService: scatter-gather serving, deadlines, worker death.

These tests spawn real worker processes (the ``spawn`` start method,
same as production), so they keep shard counts and graph sizes small —
the point is protocol correctness, not throughput.
"""

from __future__ import annotations

import time

import pytest

from repro.delta import records_from_updates, scan_wal
from repro.engine.config import EngineConfig
from repro.engine.core import MatchEngine
from repro.exceptions import (
    DeadlineExceededError,
    EngineError,
    ServiceError,
    ShardUnavailableError,
)
from repro.graph.query import QueryTree
from repro.query.compiler import ContainsLabel, compile_query
from repro.service import MatchService, ShardedMatchService
from repro.shard import shard_index
from repro.twig.semantics import ContainmentMatcher
from tests.shard.conftest import FIXTURE_QUERIES, build_fixture_graph

QUERIES = FIXTURE_QUERIES[:3]


@pytest.fixture(scope="module")
def small_graph():
    return build_fixture_graph(nodes=36, labels=6, edges=90, seed=11)


@pytest.fixture(scope="module")
def flat(small_graph):
    return MatchEngine(small_graph)


def scores(matches):
    return [m.score for m in matches]


def test_round_trip_equivalence_and_provenance(small_graph, flat):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        for query in QUERIES:
            response = service.request(query, 6, deadline=60.0)
            assert scores(response.matches) == scores(flat.top_k(query, 6))
            assert response.epoch == 0
            assert response.k == 6
            assert not response.degraded
            assert response.shards_failed == ()
            assert all(0 <= s < 2 for s in response.shards_routed)
        stats = service.statistics()
        assert stats["requests"] == len(QUERIES)
        assert stats["workers_alive"] == 2


def test_submit_and_batch(small_graph, flat):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        futures = [service.submit(query, 4) for query in QUERIES]
        for query, future in zip(QUERIES, futures):
            assert scores(future.result(60).matches) == scores(
                flat.top_k(query, 4)
            )
        batched = service.batch(QUERIES, 4)
        for query, matches in zip(QUERIES, batched):
            assert scores(matches) == scores(flat.top_k(query, 4))


def test_expired_deadline_raises_without_hanging(small_graph):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        service.top_k(QUERIES[0], 3)  # workers warm and healthy
        with pytest.raises(DeadlineExceededError):
            service.request(QUERIES[0], 3, deadline=1e-9)
        # the failed request poisons nothing: the next one answers
        assert service.top_k(QUERIES[0], 3)


def test_cyclic_queries_rejected_before_scatter(small_graph):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        with pytest.raises(EngineError, match="cyclic"):
            service.top_k("graph(a:A, b:B; a-b, b-a)", 5)


def test_worker_death_raises_shard_unavailable(small_graph):
    with ShardedMatchService(
        small_graph, num_shards=2, restart_workers=False
    ) as service:
        victim = service.route(QUERIES[0])[0]
        service._shards[victim].replicas[0].process.terminate()
        service._shards[victim].replicas[0].process.join(timeout=10)
        started = time.monotonic()
        with pytest.raises(ShardUnavailableError):
            service.top_k(QUERIES[0], 5)
        assert time.monotonic() - started < 30, "death must not hang"
        # requests routed to surviving shards keep working
        survivor_query = next(
            (q for q in FIXTURE_QUERIES if victim not in service.route(q)),
            None,
        )
        if survivor_query is not None:
            assert service.top_k(survivor_query, 3) is not None
        stats = service.statistics()
        assert stats["workers_alive"] == 1


def test_worker_death_recovers_with_restart(small_graph, flat):
    with ShardedMatchService(
        small_graph, num_shards=2, restart_workers=True
    ) as service:
        victim = service.route(QUERIES[0])[0]
        service._shards[victim].replicas[0].process.terminate()
        service._shards[victim].replicas[0].process.join(timeout=10)
        got = service.top_k(QUERIES[0], 5)
        assert scores(got) == scores(flat.top_k(QUERIES[0], 5))
        assert service.statistics()["worker_restarts"] == 1


def containment_graph():
    """Labels "A" and "A+X" land on different shards at ``num_shards=4``,
    so an ``A``-rooted containment query scatters to two shards."""
    import random

    from repro.graph.digraph import LabeledDiGraph

    labels = ("A", "A+X", "B", "C")
    graph = LabeledDiGraph()
    for i in range(32):
        graph.add_node(f"v{i}", labels[i % 4])
    rng = random.Random(5)
    names = [f"v{i}" for i in range(32)]
    for _ in range(80):
        tail, head = rng.sample(names, 2)
        graph.add_edge(tail, head, rng.randint(1, 9))
    return graph


def test_degrade_mode_returns_partial_answers():
    config = EngineConfig(label_matcher=ContainmentMatcher())
    with ShardedMatchService(
        containment_graph(), config, num_shards=4,
        on_shard_failure="degrade", restart_workers=False,
    ) as service:
        routed = service.route("A//B")
        assert len(routed) == 2, "containment roots must scatter"
        service._shards[routed[0]].replicas[0].process.terminate()
        service._shards[routed[0]].replicas[0].process.join(timeout=10)
        response = service.request("A//B", 5)
        assert response.degraded
        assert response.shards_failed == (routed[0],)
        assert response.shards_routed == routed
        assert service.statistics()["degraded_responses"] >= 1


def test_error_mode_fails_partial_scatter():
    config = EngineConfig(label_matcher=ContainmentMatcher())
    with ShardedMatchService(
        containment_graph(), config, num_shards=4,
        on_shard_failure="error", restart_workers=False,
    ) as service:
        routed = service.route("A//B")
        service._shards[routed[0]].replicas[0].process.terminate()
        service._shards[routed[0]].replicas[0].process.join(timeout=10)
        with pytest.raises(ShardUnavailableError):
            service.request("A//B", 5)


def test_apply_updates_swaps_all_shards(small_graph):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        report = service.apply_updates(
            edges_added=[("v1", "v20")], nodes_added={"v90": "B"}
        )
        assert report["epoch"] == 1
        assert report["shard_count"] == 2
        assert report["nodes_added"] == 1 and report["edges_added"] == 1
        mutated = small_graph.copy()
        mutated.add_node("v90", "B")
        mutated.add_edge("v1", "v20")
        fresh = MatchEngine(mutated)
        for query in QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )
        assert service.request(QUERIES[0], 3).epoch == 1
        with pytest.raises(ServiceError):
            service.apply_updates()  # empty update is refused


def test_apply_updates_delta_path_defers_and_converges(small_graph):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        report = service.apply_updates(edges_added=[("v1", "v20")])
        assert report["epoch"] == 1
        mutated = small_graph.copy()
        mutated.add_edge("v1", "v20")
        fresh = MatchEngine(mutated)
        for query in QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )
        assert service.statistics()["updates_applied"] == 1
        compacted = service.compact()
        assert compacted["shards_compacted"] == 2
        assert compacted["errors"] == []
        assert service.statistics()["delta"]["compactions"] == 1
        for query in QUERIES:  # still byte-equal after the fold
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )


def _one_shot_arguments(graph):
    """Update arguments that can be iterated only once (generators)."""
    removed = next(iter(graph.edges()))[:2]
    return {
        "edges_added": (edge for edge in [("v1", "v20"), ("v2", "v30")]),
        "edges_removed": (edge for edge in [removed]),
        "nodes_added": (pair for pair in [("v90", "B")]),
    }


ONE_SHOT_COUNTS = {
    "nodes_added": 1, "edges_added": 2, "edges_removed": 1,
    "labels_changed": 0,
}


def test_flat_report_counts_generator_arguments(small_graph):
    with MatchService(small_graph, max_workers=1) as service:
        report = service.apply_updates(**_one_shot_arguments(small_graph))
    counts = {key: getattr(report, key) for key in ONE_SHOT_COUNTS}
    assert counts == ONE_SHOT_COUNTS


def test_sharded_report_counts_generator_arguments(small_graph):
    """The report counts the batch's records, not the (already consumed)
    arguments, so it agrees with :class:`MatchService`'s report."""
    with ShardedMatchService(small_graph, num_shards=2) as service:
        report = service.apply_updates(**_one_shot_arguments(small_graph))
    assert {key: report[key] for key in ONE_SHOT_COUNTS} == ONE_SHOT_COUNTS


def test_large_batch_reaches_every_wal_segment(small_graph, tmp_path):
    """One batch well past 64 records: every shard's segment holds all of
    it before the call returns, and the next read folds it exactly."""
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2)
    nodes_added = {f"vn{i}": "ABCDEF"[i % 6] for i in range(12)}
    edges_added = [(f"v{i}", f"vn{i % 12}", 1 + i % 4) for i in range(36)]
    edges_removed = sorted((t, h) for t, h, _w in small_graph.edges())[:20]
    records = records_from_updates(edges_added, edges_removed, nodes_added)
    assert len(records) == 68
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as service:
        report = service.apply_updates(
            edges_added=edges_added,
            edges_removed=edges_removed,
            nodes_added=nodes_added,
        )
        assert report["edges_added"] == 36
        for segment in sorted(wal_dir.glob("shard-*.wal")):
            assert scan_wal(segment).records == records
        updated = small_graph.copy()
        for node, label in nodes_added.items():
            updated.add_node(node, label)
        for edge in edges_added:
            updated.add_edge(*edge)
        for tail, head in edges_removed:
            updated.remove_edge(tail, head)
        fresh = MatchEngine(updated)
        for query in FIXTURE_QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )


def test_apply_updates_changes_shard_count(small_graph):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        report = service.apply_updates(
            edges_added=[("v2", "v30")], num_shards=3
        )
        assert report["resized"]
        assert report["shard_count"] == 3
        assert service.shard_count == 3
        assert service.statistics()["workers_alive"] == 3
        mutated = small_graph.copy()
        mutated.add_edge("v2", "v30")
        fresh = MatchEngine(mutated)
        for query in QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )
        # A pure re-spread (no graph change) shrinks back.
        report = service.apply_updates(num_shards=2)
        assert report["resized"] and report["shard_count"] == 2
        assert service.statistics()["workers_alive"] == 2
        assert service.statistics()["delta"]["shard_count_changes"] == 2
        for query in QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )
        with pytest.raises(ServiceError):
            service.apply_updates(num_shards=0)


def test_resize_parks_subgraphs_on_kept_workers(small_graph):
    """A resize ships kept workers the same ``delta`` op as any update:
    they fold on their next read, while a worker the resize adds boots
    straight from its subgraph."""
    with ShardedMatchService(small_graph, num_shards=2) as service:
        service.apply_updates(num_shards=3)
        shards = service.statistics(include_shards=True)["shards"]
        folds = [entry["engine"]["delta"]["materializations"] for entry in shards]
        assert folds == [1, 1, 0]


def test_seeded_interleaved_schedules_match_fresh_rebuild(small_graph):
    """Differential check, sharded at 2 shards: a seeded interleaving of
    delta updates, queries, and compactions keeps every answer equal to
    a fresh flat engine on a shadow graph tracking the same mutations."""
    import random

    rng = random.Random(20250807)
    shadow = small_graph.copy()
    labels = sorted(shadow.labels())
    with ShardedMatchService(small_graph, num_shards=2) as service:
        fresh = MatchEngine(shadow)
        next_node = 100
        for step in range(12):
            op = rng.choice(("update", "query", "query", "compact"))
            if op == "update":
                kind = rng.choice(("add", "remove", "node_add", "relabel"))
                if kind == "add":
                    nodes = sorted(shadow.nodes())
                    tail, head = rng.sample(nodes, 2)
                    if shadow.has_edge(tail, head):
                        shadow.remove_edge(tail, head)
                        service.apply_updates(edges_removed=[(tail, head)])
                    else:
                        weight = rng.randint(1, 4)
                        shadow.add_edge(tail, head, weight)
                        service.apply_updates(
                            edges_added=[(tail, head, weight)]
                        )
                elif kind == "remove":
                    edges = sorted(
                        (t, h) for t, h, _ in shadow.edges()
                    )
                    tail, head = rng.choice(edges)
                    shadow.remove_edge(tail, head)
                    service.apply_updates(edges_removed=[(tail, head)])
                elif kind == "node_add":
                    node = f"nw{next_node}"
                    next_node += 1
                    label = rng.choice(labels)
                    shadow.add_node(node, label)
                    service.apply_updates(nodes_added={node: label})
                else:
                    node = rng.choice(sorted(shadow.nodes()))
                    label = rng.choice(labels)
                    shadow.relabel_node(node, label)
                    service.apply_updates(labels_changed={node: label})
                fresh = MatchEngine(shadow)
            elif op == "compact":
                report = service.compact()
                assert report["errors"] == [], report
            else:
                query = rng.choice(QUERIES)
                assert scores(service.top_k(query, 5)) == scores(
                    fresh.top_k(query, 5)
                ), (step, query)
        for query in QUERIES:
            assert scores(service.top_k(query, 5)) == scores(
                fresh.top_k(query, 5)
            )


def test_from_manifest_and_from_index(tmp_path, small_graph, flat):
    manifest = tmp_path / "index.ridx"
    shard_index(small_graph, manifest, 2)
    with ShardedMatchService.from_manifest(manifest) as service:
        assert service.shard_count == 2
        assert scores(service.top_k(QUERIES[0], 5)) == scores(
            flat.top_k(QUERIES[0], 5)
        )
    via_dispatch = MatchService.from_index(manifest)
    try:
        assert isinstance(via_dispatch, ShardedMatchService)
        assert scores(via_dispatch.top_k(QUERIES[1], 5)) == scores(
            flat.top_k(QUERIES[1], 5)
        )
    finally:
        via_dispatch.close()


def test_workers_are_reaped_on_close(small_graph):
    service = ShardedMatchService(small_graph, num_shards=2)
    processes = [
        worker.process
        for group in service._shards
        for worker in group.replicas
    ]
    service.close()
    for process in processes:
        assert process is None or not process.is_alive()


def test_constructor_validation(small_graph):
    with pytest.raises(ServiceError):
        ShardedMatchService(small_graph, manifest="also-a-manifest")
    with pytest.raises(ServiceError):
        ShardedMatchService(small_graph, on_shard_failure="explode")
    with pytest.raises(ServiceError):
        ShardedMatchService(small_graph, max_workers=0)


# ----------------------------------------------------------------------
# The single-target path: one routed shard is served on the caller's
# thread, so the fan-out pool must never see it.
# ----------------------------------------------------------------------


def forbid_fanout(monkeypatch, service):
    """Make any use of the scatter pool fail the test."""

    def submit(*args, **kwargs):
        raise AssertionError("a single-target request used the fan-out pool")

    monkeypatch.setattr(service._fanout, "submit", submit)


def single_target_query(service):
    query = QUERIES[0]
    assert len(service.route(query)) == 1
    return query


def test_single_target_is_served_inline(small_graph, flat, monkeypatch):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        forbid_fanout(monkeypatch, service)
        query = single_target_query(service)
        response = service.request(query, 6)
        assert scores(response.matches) == scores(flat.top_k(query, 6))
        assert response.shards_routed == service.route(query)
        # submit() runs the request on a pool thread; the shard call
        # still happens on that thread, not on the fan-out pool.
        assert scores(service.submit(query, 6).result(60).matches) == scores(
            flat.top_k(query, 6)
        )


def test_single_target_fails_over_to_a_peer(small_graph, flat, monkeypatch):
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2, restart_workers=False
    ) as service:
        forbid_fanout(monkeypatch, service)
        query = single_target_query(service)
        group = service._shards[service.route(query)[0]]
        # Break the pipe of the replica the rotation tries first: the
        # attempt fails and the peer answers the same request.
        group.replicas[group._rr].conn.close()
        assert scores(service.top_k(query, 6)) == scores(flat.top_k(query, 6))
        assert group.failovers == 1


def test_single_target_restarts_a_killed_worker(small_graph, flat, monkeypatch):
    with ShardedMatchService(
        small_graph, num_shards=2, restart_workers=True
    ) as service:
        forbid_fanout(monkeypatch, service)
        query = single_target_query(service)
        worker = service._shards[service.route(query)[0]].replicas[0]
        worker.process.kill()
        worker.process.join(timeout=10)
        assert scores(service.top_k(query, 6)) == scores(flat.top_k(query, 6))
        assert service.statistics()["worker_restarts"] == 1


def test_single_target_down_raises_even_when_degrading(small_graph, monkeypatch):
    with ShardedMatchService(
        small_graph, num_shards=2, on_shard_failure="degrade",
        restart_workers=False,
    ) as service:
        forbid_fanout(monkeypatch, service)
        query = single_target_query(service)
        worker = service._shards[service.route(query)[0]].replicas[0]
        worker.process.kill()
        worker.process.join(timeout=10)
        with pytest.raises(ShardUnavailableError):
            service.request(query, 5)
        assert service.statistics()["degraded_responses"] == 0


def test_single_target_expired_deadline_raises(small_graph, monkeypatch):
    with ShardedMatchService(small_graph, num_shards=2) as service:
        forbid_fanout(monkeypatch, service)
        query = single_target_query(service)
        with pytest.raises(DeadlineExceededError):
            service.request(query, 3, deadline=1e-9)
        assert service.top_k(query, 3)


# ----------------------------------------------------------------------
# Wire forms: the worker gets the physical tree and answers with rows.
# ----------------------------------------------------------------------


def comparable(matches, k):
    """Exact scores plus the assignment set below a full answer's
    boundary score (tied boundary matches may legitimately differ)."""
    boundary = matches[-1].score if len(matches) == k and matches else None
    certain = frozenset(
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
        if boundary is None or m.score < boundary
    )
    return [m.score for m in matches], certain


def assert_wire_round_trip(service, flat_engine, query, k):
    tree = compile_query(query).tree
    order = list(tree.bfs_order())
    got = service.top_k(query, k)
    assert got, "the query must have matches to check"
    assert comparable(got, k) == comparable(flat_engine.top_k(query, k), k)
    for match in got:
        assert list(match.assignment) == order


def test_query_tree_with_int_node_ids(small_graph, flat):
    tree = QueryTree({0: "A", 1: "B", 2: "C"}, [(0, 1), (0, 2)])
    with ShardedMatchService(small_graph, num_shards=2) as service:
        assert_wire_round_trip(service, flat, tree, 6)


def test_query_tree_with_tuple_node_ids(small_graph, flat):
    tree = QueryTree(
        {("q", 0): "B", ("q", 1): "C", ("q", 2): "D"},
        [(("q", 0), ("q", 2)), (("q", 0), ("q", 1))],
    )
    with ShardedMatchService(small_graph, num_shards=2) as service:
        assert_wire_round_trip(service, flat, tree, 6)


def test_containment_query_fans_out_over_the_wire():
    graph = containment_graph()
    flat_engine = MatchEngine(graph)
    tree = QueryTree(
        {(0, "root"): ContainsLabel(("A",)), (1, "leaf"): "B"},
        [((0, "root"), (1, "leaf"))],
    )
    with ShardedMatchService(graph, num_shards=4) as service:
        for query in ("~A//B", tree):
            assert len(service.route(query)) == 2, "containment must scatter"
            assert_wire_round_trip(service, flat_engine, query, 8)
