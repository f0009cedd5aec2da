"""Unit tests for the :mod:`repro.service` serving layer."""

from __future__ import annotations

import threading

import pytest

from repro.engine import MatchEngine
from repro.exceptions import ServiceError
from repro.graph.digraph import graph_from_edges
from repro.graph.generators import citation_graph
from repro.graph.query import EdgeType, QueryTree
from repro.query.builder import Q
from repro.service import MatchService
from repro.service.cache import LRUCache, ResultCache


def two_cluster_graph():
    """Two label-disjoint clusters: A->B edges and C->D edges."""
    return graph_from_edges(
        {
            "a0": "A", "a1": "A", "b0": "B", "b1": "B",
            "c0": "C", "c1": "C", "d0": "D", "d1": "D",
        },
        [
            ("a0", "b0"), ("a0", "b1", 2), ("a1", "b1"),
            ("c0", "d0"), ("c1", "d0", 3),
        ],
    )


def scores(matches):
    return [m.score for m in matches]


class _GatedQuery(Q):
    """A query whose compilation blocks until the gate opens.

    ``compile_query`` calls ``to_ast()`` on the worker thread, so this
    deterministically parks a service worker — the lever the deadline
    and overload tests use.
    """

    def __init__(self, gate: threading.Event, dsl: str = "A//B") -> None:
        self._gate = gate
        self._dsl = dsl

    def to_ast(self):
        self._gate.wait(timeout=30)
        from repro.query.parser import parse

        return parse(self._dsl)


class TestRequests:
    def test_matches_engine_exactly(self):
        graph = two_cluster_graph()
        engine = MatchEngine(graph, backend="full")
        with MatchService(graph, backend="full") as service:
            for query in ("A//B", "C//D", "A//*"):
                assert scores(service.top_k(query, 5)) == scores(
                    engine.top_k(query, 5)
                )

    def test_result_cache_hit_on_repeat(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            first = service.request("A//B", 3)
            second = service.request("A//B", 3)
            assert not first.result_cache_hit
            assert second.result_cache_hit
            assert scores(second.matches) == scores(first.matches)
            # A different k is a different request key.
            third = service.request("A//B", 2)
            assert not third.result_cache_hit

    def test_plan_cache_hit_when_results_disabled(self):
        with MatchService(
            two_cluster_graph(), backend="full", result_cache_size=0
        ) as service:
            first = service.request("A//B", 3)
            second = service.request("A//B", 3)
            assert not first.plan_cache_hit
            assert second.plan_cache_hit
            assert not second.result_cache_hit
            assert scores(second.matches) == scores(first.matches)

    def test_equivalent_query_forms_share_cache_entries(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            service.top_k("A//B", 3)
            builder = Q("A").descendant("B")
            response = service.request(builder, 3)
            assert response.result_cache_hit

    def test_explicit_invalidation(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            service.top_k("A//B", 3)
            assert service.invalidate_results() == 1
            assert not service.request("A//B", 3).result_cache_hit
            assert service.invalidate_plans() >= 1

    def test_raw_trees_with_own_node_ids_bypass_the_cache(self):
        """Regression: two shape-identical raw QueryTrees with different
        node ids share a canonical DSL but key their assignments
        differently — neither may be served the other's answer."""
        first = QueryTree({"r": "A", "c": "B"}, [("r", "c")])
        second = QueryTree({"root": "A", "kid": "B"}, [("root", "kid")])
        with MatchService(two_cluster_graph(), backend="full") as service:
            got_first = service.request(first, 3)
            got_second = service.request(second, 3)
            assert got_first.dsl is None and got_second.dsl is None
            assert not got_second.result_cache_hit
            assert all("r" in m.assignment for m in got_first.matches)
            assert all("root" in m.assignment for m in got_second.matches)
            # A DSL request for the same shape keys its own (n0..) entry.
            dsl_response = service.request("A//B", 3)
            assert not dsl_response.result_cache_hit
            assert all("n0" in m.assignment for m in dsl_response.matches)

    def test_uncacheable_non_string_labels(self):
        graph = graph_from_edges({0: 1, 1: 2}, [(0, 1)])
        query = QueryTree({"r": 1, "c": 2}, [("r", "c")])
        with MatchService(graph, backend="full") as service:
            first = service.request(query, 3)
            second = service.request(query, 3)
            assert first.dsl is None and second.dsl is None
            assert not second.result_cache_hit
            assert service.statistics()["uncacheable_requests"] == 2
            assert scores(second.matches) == scores(first.matches)

    def test_cyclic_queries_served(self):
        graph = graph_from_edges(
            {"x": "A", "y": "B", "z": "C"},
            [("x", "y"), ("y", "z"), ("z", "x")],
        )
        with MatchService(graph, backend="full") as service:
            cyclic = "graph(a:A, b:B, c:C; a-b, b-c, c-a)"
            first = service.request(cyclic, 2)
            second = service.request(cyclic, 2)
            assert len(first.matches) == 1
            assert second.result_cache_hit

    def test_negative_k_rejected(self):
        with MatchService(two_cluster_graph()) as service:
            with pytest.raises(ValueError):
                service.top_k("A//B", -1)


class TestAsyncExecution:
    def test_submit_future_resolves(self):
        with MatchService(two_cluster_graph(), max_workers=2) as service:
            response = service.submit("A//B", 3).result(timeout=10)
            assert response.epoch == 0
            assert scores(response.matches) == scores(service.top_k("A//B", 3))

    def test_cancelled_queued_future_releases_its_slot(self):
        """Regression: a cancelled still-queued future never runs its
        task, so the pending slot must be released by the done callback
        — not leaked until the service rejects everything."""
        gate = threading.Event()
        with MatchService(
            two_cluster_graph(), max_workers=1, max_pending=2
        ) as service:
            blocker = service.submit(_GatedQuery(gate), 1)  # running
            queued = service.submit(_GatedQuery(gate), 1)   # queued
            assert queued.cancel()
            # The cancelled request's slot is free again: this submit
            # must be accepted, not rejected as overloaded.
            third = service.submit("A//B", 1)
            gate.set()
            blocker.result(timeout=10)
            assert len(third.result(timeout=10).matches) == 1
            assert service.statistics()["overload_rejections"] == 0


class TestLifecycle:
    def test_bad_construction(self):
        with pytest.raises(ServiceError):
            MatchService(two_cluster_graph(), max_workers=0)
        with pytest.raises(ServiceError):
            MatchService(two_cluster_graph(), max_pending=0)
        with pytest.raises(ServiceError):
            MatchService(two_cluster_graph(), default_deadline=-1)
        with pytest.raises(ServiceError):
            MatchService(two_cluster_graph(), plan_cache_size=-1)
        with pytest.raises(ServiceError):
            MatchService(two_cluster_graph(), result_cache_size=-1)


class TestUpdates:
    def test_update_produces_new_epoch_and_results(self):
        graph = two_cluster_graph()
        with MatchService(graph, backend="full") as service:
            before = scores(service.top_k("A//B", 5))
            report = service.apply_updates(
                nodes_added={"b9": "B"}, edges_added=[("a0", "b9")]
            )
            assert report.epoch == 1 and service.epoch == 1
            after = scores(service.top_k("A//B", 5))
            assert len(after) == len(before) + 1

    def test_old_snapshot_keeps_answering(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            snapshot = service.snapshot()
            before = scores(snapshot.top_k("A//B", 5))
            service.apply_updates(edges_removed=[("a0", "b0")])
            # The held snapshot is immutable: same answer as before.
            assert scores(snapshot.top_k("A//B", 5)) == before
            assert len(service.top_k("A//B", 5)) == len(before) - 1

    def test_selective_invalidation_keeps_disjoint_entries(self):
        # The read after the update folds it: the fold's affected labels
        # ({C, D} here) decide which cached answers migrate.
        with MatchService(
            two_cluster_graph(), backend="full", auto_compact=False
        ) as service:
            service.top_k("A//B", 3)
            service.top_k("C//D", 3)
            service.apply_updates(edges_added=[("c1", "d1")])
            assert service.request("A//B", 3).result_cache_hit
            assert not service.request("C//D", 3).result_cache_hit
            cache = service.statistics()["result_cache"]
            assert cache["invalidations"] == 1  # only the C//D entry

    def test_rebuild_backend_flushes_results(self):
        with MatchService(
            two_cluster_graph(), backend="pll", auto_compact=False
        ) as service:
            service.top_k("A//B", 3)
            service.apply_updates(edges_added=[("c1", "d1")])
            # pll rebuilds: no affected-label signal, everything drops.
            assert not service.request("A//B", 3).result_cache_hit
            cache = service.statistics()["result_cache"]
            assert cache["invalidations"] == 1

    def test_node_additions_clear_plan_cache(self):
        with MatchService(
            two_cluster_graph(), backend="full", result_cache_size=0
        ) as service:
            service.top_k("A//B", 3)
            report = service.apply_updates(nodes_added={"b7": "B"})
            assert report.plans_cleared == 1
            assert not service.request("A//B", 3).plan_cache_hit

    def test_edge_only_updates_keep_plan_cache(self):
        with MatchService(
            two_cluster_graph(), backend="full", result_cache_size=0
        ) as service:
            service.top_k("A//B", 3)
            service.apply_updates(edges_added=[("c1", "d1")])
            assert service.request("A//B", 3).plan_cache_hit

    def test_invalid_updates_raise_service_error(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            with pytest.raises(ServiceError):
                service.apply_updates(edges_removed=[("a0", "d0")])
            with pytest.raises(ServiceError):
                service.apply_updates()
            # Failed updates must not bump the epoch.
            assert service.epoch == 0

    def test_direct_edge_queries_invalidate_on_adjacency_change(self):
        """Regression: an added edge between already-reachable nodes
        changes no closure distance, but it does change ``/`` (direct
        child) matches — the cached A/B answer must not survive."""
        graph = graph_from_edges(
            {"u": "A", "w": "C", "v": "B"}, [("u", "w"), ("w", "v")]
        )
        query = QueryTree({"r": "A", "c": "B"}, [("r", "c", EdgeType.CHILD)])
        with MatchService(graph, backend="full") as service:
            assert service.top_k(query, 5) == []
            # The distance u->v was already 2; adjacency still changed.
            service.apply_updates(edges_added=[("u", "v", 2)])
            assert len(service.top_k(query, 5)) == 1

    def test_direct_edge_removal_with_equal_cost_detour(self):
        """Mirror regression: removing a direct edge that has an
        equal-cost indirect detour must drop the cached ``/`` match."""
        graph = graph_from_edges(
            {"u": "A", "w": "C", "v": "B"},
            [("u", "w"), ("w", "v"), ("u", "v", 2)],
        )
        query = QueryTree({"r": "A", "c": "B"}, [("r", "c", EdgeType.CHILD)])
        with MatchService(graph, backend="full") as service:
            assert len(service.top_k(query, 5)) == 1
            service.apply_updates(edges_removed=[("u", "v")])
            assert service.top_k(query, 5) == []

    def test_malformed_update_tuples_raise_service_error(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            with pytest.raises(ServiceError, match="invalid graph update"):
                service.apply_updates(edges_added=[("a0",)])
            # A 3-tuple removal (weight included) is tolerated.
            service.apply_updates(
                edges_added=[("a1", "b0", 4)],
            )
            service.apply_updates(edges_removed=[("a1", "b0", 4)])
            assert not service.snapshot().graph.has_edge("a1", "b0")

    def test_cache_hit_reports_resolved_algorithm(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            cold = service.request("A//B", 3)
            warm = service.request("A//B", 3)
            assert warm.result_cache_hit
            assert warm.algorithm == cold.algorithm != "auto"

    def test_compile_cache_skips_parsing_on_warm_requests(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            service.top_k("A//B", 3)
            service.top_k("A//B", 4)  # different k, same raw string
            stats = service.statistics()["compile_cache"]
            assert stats["hits"] == 1 and stats["misses"] == 1

    def test_custom_engine_matcher_invalidates_on_every_update(self):
        """Regression: a non-equality engine matcher maps query labels
        onto data labels the footprint cannot enumerate — cached results
        must not migrate across updates."""
        from repro.twig.semantics import LabelMatcher

        class LowercaseMatcher(LabelMatcher):
            def matches(self, query_label, data_label):
                return str(query_label).lower() == str(data_label).lower()

            def data_labels_for(self, query_label, alphabet):
                return [
                    label for label in alphabet
                    if str(label).lower() == str(query_label).lower()
                ]

        graph = graph_from_edges(
            {"u": "A", "w": "X", "v": "B"},
            [("u", "w", 2), ("w", "v", 3)],
        )
        with MatchService(
            graph, backend="full", label_matcher=LowercaseMatcher()
        ) as service:
            assert scores(service.top_k("a//b", 2)) == [5.0]
            service.apply_updates(edges_added=[("u", "v", 2)])
            assert not service.request("a//b", 2).result_cache_hit
            assert scores(service.top_k("a//b", 2)) == [2.0]

    def test_weighted_edge_additions(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            service.apply_updates(edges_added=[("a1", "b0", 4)])
            assert service.snapshot().graph.edge_weight("a1", "b0") == 4

    def test_incremental_refresh_matches_rebuild(self):
        graph = citation_graph(120, num_labels=6, seed=11)
        with MatchService(graph, backend="full") as service:
            edges = sorted(graph.edges(), key=repr)
            service.apply_updates(edges_removed=[edges[0][:2], edges[7][:2]])
            updated = service.snapshot().graph
            fresh = MatchEngine(updated, backend="full")
            labels = sorted(updated.labels())
            query = f"{labels[0]}//{labels[1]}"
            assert scores(service.top_k(query, 10)) == scores(
                fresh.top_k(query, 10)
            )


class TestStatistics:
    def test_failed_requests_keep_counters_consistent(self):
        from repro.exceptions import QuerySyntaxError

        with MatchService(two_cluster_graph(), backend="full") as service:
            with pytest.raises(QuerySyntaxError):
                service.top_k("A//[", 3)
            with pytest.raises(ValueError):
                service.top_k("A//B", -1)
            service.top_k("A//B", 3)
            stats = service.statistics()
            # Failed requests never reached the pipeline: the identity
            # the stress suite asserts holds exactly.
            assert stats["requests"] == 1
            assert stats["result_cache"]["lookups"] == (
                stats["requests"] - stats["uncacheable_requests"]
            )

    def test_counter_identities(self):
        with MatchService(two_cluster_graph(), backend="full") as service:
            for _ in range(3):
                service.top_k("A//B", 3)
            service.top_k("C//D", 3)
            stats = service.statistics()
            rc = stats["result_cache"]
            pc = stats["plan_cache"]
            assert rc["lookups"] == rc["hits"] + rc["misses"]
            assert rc["lookups"] == (
                stats["requests"] - stats["uncacheable_requests"]
            )
            # The plan cache is only consulted on result misses.
            assert pc["lookups"] == rc["misses"]
            assert rc["hits"] == 2


class TestCachePrimitives:
    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_disabled_caches(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        results = ResultCache(0)
        results.store(0, "k", (1,), frozenset())
        assert results.lookup(0, "k") is None

    def test_result_cache_epoch_isolation(self):
        cache = ResultCache(8)
        cache.store(0, "q", (1, 2), frozenset({"A"}), algorithm="topk-en")
        assert cache.lookup(1, "q") is None
        migrated, dropped = cache.advance(0, 1, frozenset({"Z"}))
        assert (migrated, dropped) == (1, 0)
        entry = cache.lookup(1, "q")
        assert entry.matches == (1, 2)
        assert entry.algorithm == "topk-en"
        assert cache.lookup(0, "q") is None

    def test_result_cache_advance_drops_affected_and_unknown(self):
        cache = ResultCache(8)
        cache.store(0, "affected", (1,), frozenset({"A"}))
        cache.store(0, "safe", (2,), frozenset({"B"}))
        cache.store(0, "unknown", (3,), None)
        migrated, dropped = cache.advance(0, 1, frozenset({"A"}))
        assert (migrated, dropped) == (1, 2)
        assert cache.lookup(1, "safe").matches == (2,)
        assert cache.lookup(1, "affected") is None
        assert cache.lookup(1, "unknown") is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(-1)
        with pytest.raises(ValueError):
            ResultCache(-1)
