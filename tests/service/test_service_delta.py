"""MatchService write path: delta overlay, WAL recovery, compaction.

The acceptance contract of the write-ahead overlay: an update's fold
is deferred but *never* observable as staleness (the first read folds
it), a crash at any point between append and compaction loses nothing
that was acknowledged, and a compaction swaps in a new ``.ridx``
generation the next cold start boots from directly.
"""

from __future__ import annotations

import pytest

from repro.delta import CompactionPolicy, records_from_updates, scan_wal
from repro.engine import MatchEngine
from repro.exceptions import ServiceError
from repro.graph.generators import citation_graph
from repro.service import MatchService

QUERY = "V0//V1"


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@pytest.fixture
def graph():
    return citation_graph(40, num_labels=5, seed=3)


@pytest.fixture
def family(tmp_path, graph):
    """A persisted base index + the WAL path a durable service would use."""
    base = tmp_path / "index.ridx"
    MatchEngine(graph, backend="full").save_index(base, format="binary")
    return base, tmp_path / "index.wal"


def durable_service(base, wal, **kwargs):
    kwargs.setdefault("auto_compact", False)
    kwargs.setdefault("max_workers", 1)
    return MatchService.from_index(base, wal_path=wal, **kwargs)


class TestDeltaPath:
    def test_update_defers_and_read_materializes(self, graph):
        with MatchService(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            report = service.apply_updates(edges_added=[(0, 1, 1)])
            assert report.epoch == 1
            assert report.pending_records == 1
            assert service.epoch == 1
            mutated = graph.copy()
            mutated.add_edge(0, 1, 1)
            fresh = MatchEngine(mutated, backend="full")
            assert exact(service.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )
            stats = service.statistics()
            assert stats["updates_applied"] == 1
            assert stats["delta"]["materializations"] == 1
            assert stats["delta"]["pending_records"] == 0

    def test_large_batch_is_logged_and_folded_on_read(self, family, graph):
        """One batch well past 64 records takes the same path as any
        other: every record reaches the WAL before the call returns, and
        the next read folds them all."""
        base, wal = family
        nodes_added = {100 + i: f"V{i % 5}" for i in range(10)}
        edges_added = [(i, 100 + i % 10, 1 + i % 3) for i in range(40)]
        edges_added += [(100 + j, (7 * j) % 40) for j in range(10)]
        edges_removed = sorted((t, h) for t, h, _w in graph.edges())[:20]
        records = records_from_updates(
            edges_added, edges_removed, nodes_added
        )
        assert len(records) == 80
        with durable_service(base, wal) as service:
            report = service.apply_updates(
                edges_added=edges_added,
                edges_removed=edges_removed,
                nodes_added=nodes_added,
            )
            assert report.pending_records == 80
            assert scan_wal(wal).records == records
            mutated = graph.copy()
            for node, label in nodes_added.items():
                mutated.add_node(node, label)
            for edge in edges_added:
                mutated.add_edge(*edge)
            for tail, head in edges_removed:
                mutated.remove_edge(tail, head)
            fresh = MatchEngine(mutated, backend="full")
            for query in (QUERY, "V2//V0", "V0[V1]//V3"):
                assert exact(service.top_k(query, 8)) == exact(
                    fresh.top_k(query, 8)
                )
            stats = service.statistics()["delta"]
            assert stats["materializations"] == 1
            assert stats["wal"]["appended_records"] == 80

    def test_batches_accumulate_until_one_read_folds_them(self, graph):
        """Every batch is logged, none folds on its own: three batches
        before a read leave three pending records, and the one read folds
        all of them at once."""
        batches = ([(0, 1, 1)], [(2, 5, 2)], [(3, 9, 1)])
        with MatchService(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            for count, edges in enumerate(batches, start=1):
                report = service.apply_updates(edges_added=edges)
                assert report.epoch == count
                assert report.pending_records == count
            assert service.statistics()["delta"]["materializations"] == 0
            mutated = graph.copy()
            for edges in batches:
                mutated.add_edge(*edges[0])
            fresh = MatchEngine(mutated, backend="full")
            stale = MatchEngine(graph, backend="full")
            # Each batch moves one of these answers; a read that missed
            # any pending record would differ from the fresh engine.
            for query in (QUERY, "V0//V0", "V1//V0"):
                assert exact(fresh.top_k(query, 40)) != exact(
                    stale.top_k(query, 40)
                )
                assert exact(service.top_k(query, 40)) == exact(
                    fresh.top_k(query, 40)
                )
            stats = service.statistics()
            assert stats["updates_applied"] == 3
            assert stats["delta"]["materializations"] == 1
            assert stats["delta"]["pending_records"] == 0

    def test_epoch_read_inside_the_fold_is_the_logical_epoch(self, graph):
        """The fold installs the new snapshot before it clears the
        pending state; an unlocked ``epoch`` read in between must still
        see the logical epoch, never the old snapshot's epoch plus the
        batches counted a second time."""
        seen = []

        class Probe(MatchService):
            def __setattr__(self, name, value):
                # The fold clears the pending graph after it installed
                # the folded snapshot.
                if name == "_pending_graph" and value is None and getattr(
                    self, "_pending_batches", 0
                ):
                    seen.append((self.epoch, self.statistics()["epoch"]))
                super().__setattr__(name, value)

        with Probe(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            service.apply_updates(edges_added=[(2, 5, 2)])
            assert service.epoch == 2
            assert service.request(QUERY, 5).epoch == 2
            assert seen == [(2, 2)]
            assert service.epoch == service.statistics()["epoch"] == 2

    def test_relabel_batch_folds_to_a_fresh_engine(self, graph):
        """A relabel cannot be folded incrementally; the read that folds
        it rebuilds, and answers as a fresh engine on the relabelled
        graph would."""
        node = min(
            node for node in graph.nodes_with_label("V0")
            if graph.out_degree(node)
        )
        with MatchService(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            service.top_k(QUERY, 8)  # warm the result cache
            report = service.apply_updates(labels_changed={node: "V1"})
            assert report.labels_changed == 1
            mutated = graph.copy()
            mutated.relabel_node(node, "V1")
            fresh = MatchEngine(mutated, backend="full")
            stale = MatchEngine(graph, backend="full")
            assert exact(fresh.top_k(QUERY, 8)) != exact(
                stale.top_k(QUERY, 8)
            )
            for query in (QUERY, "V2//V1"):
                assert exact(service.top_k(query, 8)) == exact(
                    fresh.top_k(query, 8)
                )

    def test_empty_batch_is_refused_and_logs_nothing(self, family):
        base, wal = family
        with durable_service(base, wal) as service:
            with pytest.raises(ServiceError, match="at least one change"):
                service.apply_updates()
            assert service.epoch == 0
            stats = service.statistics()
            assert stats["updates_applied"] == 0
            assert stats["delta"]["wal"]["appended_records"] == 0
        assert scan_wal(wal).records == ()

    def test_failed_batch_rolls_back_cleanly(self, graph):
        with MatchService(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            service.apply_updates(edges_added=[(0, 6)])
            with pytest.raises(ServiceError):
                # Second record targets a node that does not exist.
                service.apply_updates(
                    edges_added=[(1, 7)], edges_removed=[(12345, 0)]
                )
            assert service.epoch == 1, "failed batch must not bump the epoch"
            mutated = graph.copy()
            mutated.add_edge(0, 6)
            fresh = MatchEngine(mutated, backend="full")
            assert exact(service.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )


class TestWalRecovery:
    def test_crash_before_fold_replays_and_converges(self, family, graph):
        base, wal = family
        service = durable_service(base, wal)
        service.apply_updates(edges_added=[(0, 1, 1)])
        service.apply_updates(edges_added=[(2, 0, 2)])
        # Simulated crash: the process dies without close()/compact().
        service._pool.shutdown(wait=False)
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        mutated.add_edge(2, 0, 2)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            assert reopened.statistics()["delta"]["pending_records"] == 2
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_kill_mid_append_drops_the_torn_tail(self, family, graph):
        base, wal = family
        service = durable_service(base, wal)
        service.apply_updates(edges_added=[(0, 1, 1)])
        service._pool.shutdown(wait=False)
        with open(wal, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef\xde\xad")  # half a frame
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            wal_stats = reopened.statistics()["delta"]["wal"]
            assert wal_stats["recovered_records"] == 1
            assert wal_stats["recovered_truncated_tail"]
            assert wal_stats["recovered_dropped_bytes"] == 6
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_recovered_wal_must_apply_to_the_base(self, family):
        base, wal = family
        service = durable_service(base, wal)
        service.apply_updates(edges_added=[(30, 31, 1)])
        service._pool.shutdown(wait=False)
        other_base = base.with_name("other.ridx")
        MatchEngine(
            citation_graph(5, num_labels=2, seed=9), backend="full"
        ).save_index(other_base, format="binary")
        with pytest.raises(ServiceError, match="does not apply"):
            durable_service(other_base, wal)


class TestCompaction:
    def test_compact_writes_a_generation_and_truncates_the_wal(
        self, family, graph
    ):
        base, wal = family
        with durable_service(base, wal) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            report = service.compact()
            assert report["generation"] == 1
            assert report["records_folded"] == 1
            assert base.with_name("index.gen-0001.ridx").exists()
        scan = scan_wal(wal)
        assert scan.records == () and scan.generation == 1
        # The next cold start boots from the generation: no WAL replay,
        # but the folded edge is in the index it opens.
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            assert reopened.statistics()["delta"]["pending_records"] == 0
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_stale_wal_is_discarded_not_double_applied(self, family, graph):
        """Crash between manifest update and WAL truncate (swap step 2->3)."""
        from repro.delta import WriteAheadLog, records_from_updates

        base, wal = family
        with durable_service(base, wal) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            service.compact()
        # Forge the pre-truncation state: a gen-0 WAL still holding the
        # already-folded record.
        with WriteAheadLog(wal, generation=0) as forged:
            forged.rewrite((), generation=0)
            forged.append(records_from_updates(edges_added=[(0, 1, 1)]))
        mutated = graph.copy()
        mutated.add_edge(0, 1, 1)
        fresh = MatchEngine(mutated, backend="full")
        with durable_service(base, wal) as reopened:
            stats = reopened.statistics()["delta"]
            assert stats["pending_records"] == 0, "stale WAL must be dropped"
            assert stats["wal"]["generation"] == 1
            assert exact(reopened.top_k(QUERY, 8)) == exact(
                fresh.top_k(QUERY, 8)
            )

    def test_policy_trips_background_compaction(self, family):
        base, wal = family
        with durable_service(
            base, wal,
            auto_compact=True,
            compaction=CompactionPolicy(max_records=2, max_ratio=0),
        ) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            service.apply_updates(edges_added=[(2, 0, 2)])
            import time

            deadline = time.monotonic() + 10
            while (
                service.statistics()["delta"]["compactions"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            stats = service.statistics()["delta"]
            assert stats["compactions"] == 1
            assert stats["generations"]["current"] == 1
        assert scan_wal(wal).generation == 1

    def test_compact_without_generation_family_still_truncates(self, graph):
        """An in-memory service (no from_index base) can still compact:
        the fold happens, there is just no .ridx family to write."""
        with MatchService(
            graph, backend="full", max_workers=1, auto_compact=False,
        ) as service:
            service.apply_updates(edges_added=[(0, 1, 1)])
            report = service.compact()
            assert report["records_folded"] == 1
            assert report["path"] is None
            assert service.statistics()["delta"]["pending_records"] == 0


class TestCloseReportsCompactorStop:
    def test_close_reports_timed_out_compactor_stop(self, family):
        base, wal = family
        service = durable_service(
            base, wal, auto_compact=True,
        )
        service.apply_updates(edges_added=[(0, 1, 1)])  # spins the thread up
        real_stop = service._compactor.stop
        service._compactor.stop = lambda *args, **kwargs: False
        assert service.close() is False
        assert real_stop() is True  # actually join the thread

    def test_clean_close_returns_true(self, family):
        base, wal = family
        service = durable_service(
            base, wal, auto_compact=True,
        )
        service.apply_updates(edges_added=[(0, 1, 1)])
        assert service.close() is True
