"""Replicated shard serving: failover reads, revival, per-shard WAL.

Spawns real worker processes (spawn start method, as production does),
so graphs stay small — these pin protocol correctness: a killed replica
must never change an answer, and an acked update must survive a crash.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.core import MatchEngine
from repro.exceptions import ServiceError, ShardError
from repro.service import ShardedMatchService
from repro.shard import ShardPlan, shard_index
from tests.shard.conftest import FIXTURE_QUERIES, build_fixture_graph

QUERIES = FIXTURE_QUERIES[:3]


@pytest.fixture(scope="module")
def small_graph():
    return build_fixture_graph(nodes=36, labels=6, edges=90, seed=11)


@pytest.fixture(scope="module")
def flat(small_graph):
    return MatchEngine(small_graph)


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


def scores(matches):
    return [m.score for m in matches]


def crash(service):
    """Simulate the coordinator dying: kill workers, leak the WALs.

    No ``close()`` — the segments keep whatever the last acked append
    left on disk, exactly like a SIGKILL'd process.
    """
    for group in service._shards:
        for worker in group.replicas:
            if worker.process is not None:
                worker.process.kill()
                worker.process.join(timeout=10)
    service._pool.shutdown(wait=False)
    service._fanout.shutdown(wait=False)


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ----------------------------------------------------------------------
# Replica spawning and validation
# ----------------------------------------------------------------------


def test_replication_spawns_r_workers_per_shard(small_graph):
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        stats = service.statistics(include_shards=True)
        assert stats["replication"] == 2
        assert stats["workers_alive"] == 4
        for entry in stats["shards"]:
            assert entry["replication"] == 2
            assert entry["replicas_alive"] == 2


def test_replication_validation():
    graph = build_fixture_graph(nodes=12, labels=3, edges=20, seed=1)
    with pytest.raises(ServiceError, match="replication"):
        ShardedMatchService(graph, num_shards=2, replication=0)
    with pytest.raises(ShardError, match="replication"):
        ShardPlan.from_graph(graph, 2, 0)


def test_manifest_records_replication(small_graph, tmp_path):
    manifest = tmp_path / "index.ridx"
    document = shard_index(small_graph, manifest, 2, replication=2)
    assert document["replication"] == 2
    with ShardedMatchService.from_manifest(manifest) as service:
        assert service.replication == 2
        assert service.statistics()["workers_alive"] == 4
    # An explicit override beats the manifest hint.
    with ShardedMatchService.from_manifest(manifest, replication=1) as service:
        assert service.replication == 1
        assert service.statistics()["workers_alive"] == 2


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------


def test_kill_one_replica_per_shard_keeps_answers_identical(
    small_graph, flat
):
    """The acceptance pin: SIGKILL one worker per shard mid-traffic and
    every answer stays identical to the pre-kill (and flat) answer —
    zero ShardUnavailableErrors reach the caller."""
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        before = {q: exact(service.top_k(q, 6)) for q in QUERIES}
        for query in QUERIES:
            assert scores(service.top_k(query, 6)) == scores(
                flat.top_k(query, 6)
            )
        for group in service._shards:
            group.replicas[0].process.kill()
        for _ in range(4):
            for query in QUERIES:
                assert exact(service.top_k(query, 6)) == before[query]
        stats = service.statistics()
        assert stats["workers_alive"] >= 2


def test_poisoned_pipe_fails_over_and_revives(small_graph, flat):
    """A replica whose pipe breaks mid-service: the peer answers the
    same request (failover), and the broken replica is respawned in the
    background without blocking reads."""
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        victim = service.route(QUERIES[0])[0]
        group = service._shards[victim]
        group.replicas[0].conn.close()
        group.replicas[1].conn.close()
        # Every replica is poisoned: the final attempt restarts inline.
        assert scores(service.top_k(QUERIES[0], 5)) == scores(
            flat.top_k(QUERIES[0], 5)
        )
        assert wait_until(lambda: group.alive_count == 2)
        assert group.failovers >= 1
        assert group.restarts >= 1


def test_dead_replica_is_revived_by_passing_reads(small_graph):
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        victim = service.route(QUERIES[0])[0]
        group = service._shards[victim]
        group.replicas[1].process.kill()
        group.replicas[1].process.join(timeout=10)
        # Reads keep being served by the live replica, and the rotation
        # schedules a background respawn for the dead one it skips.
        assert wait_until(
            lambda: (
                service.top_k(QUERIES[0], 3) is not None
                and group.alive_count == 2
            )
        )
        assert group.restarts >= 1


def test_read_order_round_robins(small_graph):
    with ShardedMatchService(
        small_graph, num_shards=1, replication=2
    ) as service:
        group = service._shards[0]
        first = group._read_order()[0]
        second = group._read_order()[0]
        assert first is not second, "consecutive reads rotate replicas"


def test_updates_broadcast_to_all_replicas(small_graph):
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        report = service.apply_updates(nodes_added={"vx": "A"})
        assert report["epoch"] == 1
        # Both replicas of every shard moved to the new epoch: pin by
        # asking each directly.
        for group in service._shards:
            for worker in group.replicas:
                reply = worker.call("ping", (), time.monotonic() + 30)
                assert reply == ("ok", 1), (group.index, worker.replica)


def test_dead_replica_catches_up_via_restart_on_broadcast(small_graph, flat):
    with ShardedMatchService(
        small_graph, num_shards=2, replication=2
    ) as service:
        group = service._shards[0]
        group.replicas[1].process.kill()
        group.replicas[1].process.join(timeout=10)
        service.apply_updates(edges_added=[("v1", "v20", 2)])
        reply = group.replicas[1].call("ping", (), time.monotonic() + 30)
        assert reply == ("ok", 1), "restarted from the post-update boot"
        updated = small_graph.copy()
        updated.add_edge("v1", "v20", 2)
        fresh = MatchEngine(updated)
        for query in QUERIES:
            assert scores(service.top_k(query, 5)) == scores(
                fresh.top_k(query, 5)
            )


# ----------------------------------------------------------------------
# Per-shard write-ahead durability
# ----------------------------------------------------------------------


def test_sharded_wal_replays_after_crash(small_graph, tmp_path):
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2)
    service = ShardedMatchService.from_manifest(manifest, wal_path=wal_dir)
    try:
        service.apply_updates(edges_added=[("v1", "v20", 2)])
        service.apply_updates(nodes_added={"vn": "B"})
        service.apply_updates(edges_added=[("vn", "v3", 1)])
    finally:
        crash(service)  # acked, never compacted, never closed

    updated = small_graph.copy()
    updated.add_edge("v1", "v20", 2)
    updated.add_node("vn", "B")
    updated.add_edge("vn", "v3", 1)
    fresh = MatchEngine(updated)
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as rebooted:
        wal = rebooted.statistics()["delta"]["wal"]
        assert wal["recovered_records"] == 3
        assert wal["stale_discards"] == 0
        for query in QUERIES:
            assert scores(rebooted.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )


def test_sharded_wal_replays_with_replication(small_graph, tmp_path):
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2, replication=2)
    service = ShardedMatchService.from_manifest(manifest, wal_path=wal_dir)
    try:
        service.apply_updates(edges_added=[("v2", "v30", 3)])
    finally:
        crash(service)
    updated = small_graph.copy()
    updated.add_edge("v2", "v30", 3)
    fresh = MatchEngine(updated)
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as rebooted:
        assert rebooted.replication == 2
        assert (
            rebooted.statistics()["delta"]["wal"]["recovered_records"] == 1
        )
        for query in QUERIES:
            assert scores(rebooted.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )


def test_wal_checkpoint_on_compact_truncates_segments(
    small_graph, tmp_path
):
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2)
    updated = small_graph.copy()
    updated.add_edge("v1", "v20", 2)
    fresh = MatchEngine(updated)
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as service:
        service.apply_updates(edges_added=[("v1", "v20", 2)])
        report = service.compact()
        assert report["checkpointed"] is True
        wal = service.statistics()["delta"]["wal"]
        assert wal["records"] == 0, "acked records folded into the files"
    # The checkpoint rewrote the shard files: a cold start replays
    # nothing and still serves the updated graph.
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as rebooted:
        wal = rebooted.statistics()["delta"]["wal"]
        assert wal["recovered_records"] == 0
        assert wal["stale_discards"] == 0
        for query in QUERIES:
            assert scores(rebooted.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )


def test_stale_wal_segments_discarded_on_boot(small_graph, tmp_path):
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2)
    service = ShardedMatchService.from_manifest(manifest, wal_path=wal_dir)
    try:
        service.apply_updates(edges_added=[("v1", "v20", 2)])
    finally:
        crash(service)
    # Someone re-sharded the index out of band at a later epoch: the
    # old segments' records are already (or never will be) in the
    # files — they must be discarded, not replayed.
    shard_index(small_graph, manifest, 2, epoch=2)
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as rebooted:
        wal = rebooted.statistics()["delta"]["wal"]
        assert wal["recovered_records"] == 0
        assert wal["stale_discards"] == 2
        assert wal["generation"] == 2


def test_wal_ahead_of_manifest_is_refused(small_graph, tmp_path):
    manifest = tmp_path / "index.ridx"
    wal_dir = tmp_path / "wal"
    shard_index(small_graph, manifest, 2)
    with ShardedMatchService.from_manifest(
        manifest, wal_path=wal_dir
    ) as service:
        service.apply_updates(edges_added=[("v1", "v20", 2)])
        service.compact()  # stamps the segments at epoch 1
    shard_index(small_graph, manifest, 2, epoch=0)  # roll the index back
    with pytest.raises(ServiceError, match="ahead of the index epoch"):
        ShardedMatchService.from_manifest(manifest, wal_path=wal_dir)


def test_graph_mode_wal_survives_crash(small_graph, tmp_path):
    """A graph-constructed service has no durable base: its segments
    hold the whole update history and replay onto the same graph."""
    wal_dir = tmp_path / "wal"
    service = ShardedMatchService(
        small_graph, num_shards=2, wal_path=wal_dir
    )
    try:
        service.apply_updates(edges_added=[("v1", "v20", 2)])
    finally:
        crash(service)
    updated = small_graph.copy()
    updated.add_edge("v1", "v20", 2)
    fresh = MatchEngine(updated)
    with ShardedMatchService(
        small_graph, num_shards=2, wal_path=wal_dir
    ) as rebooted:
        assert (
            rebooted.statistics()["delta"]["wal"]["recovered_records"] == 1
        )
        for query in QUERIES:
            assert scores(rebooted.top_k(query, 6)) == scores(
                fresh.top_k(query, 6)
            )
