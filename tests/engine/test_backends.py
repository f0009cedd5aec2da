"""Cross-backend agreement: every backend answers every algorithm identically."""

import random

import pytest

from repro.engine import BACKENDS, MatchEngine
from repro.engine.config import ALGORITHMS
from repro.graph.generators import erdos_renyi_graph
from repro.graph.query import QueryTree


def _random_case(seed: int):
    """A seeded random graph plus a realizable-ish random query tree."""
    rng = random.Random(seed)
    g = erdos_renyi_graph(
        rng.randint(8, 16), rng.randint(12, 40), num_labels=4, seed=seed
    )
    labels = sorted(g.labels())
    rng.shuffle(labels)
    size = min(len(labels), rng.randint(2, 4))
    q = QueryTree(
        {i: labels[i] for i in range(size)},
        [(rng.randrange(i), i) for i in range(1, size)],
    )
    return g, q


def _engine(graph, backend: str, query) -> MatchEngine:
    if backend == "constrained":
        return MatchEngine(graph, backend=backend, workload=(query,))
    return MatchEngine(graph, backend=backend)


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_backends_all_algorithms_same_scores(self, seed):
        g, q = _random_case(seed)
        k = random.Random(seed * 31).choice([1, 3, 10])
        reference: dict[str, list[float]] = {}
        for backend in BACKENDS:
            engine = _engine(g, backend, q)
            for algorithm in ALGORITHMS:
                scores = [m.score for m in engine.top_k(q, k, algorithm=algorithm)]
                if algorithm in reference:
                    assert scores == reference[algorithm], (backend, algorithm)
                else:
                    reference[algorithm] = scores
        # All algorithms agree with each other too.
        distinct = {tuple(s) for s in reference.values()}
        assert len(distinct) == 1, reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_figure4_counts(self, figure4_graph, figure4_query, backend):
        engine = _engine(figure4_graph, backend, figure4_query)
        scores = [m.score for m in engine.top_k(figure4_query, 4)]
        assert scores == [3, 4, 5, 6]


class TestBackendSurface:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_describe_and_statistics(self, figure4_graph, figure4_query, backend):
        engine = _engine(figure4_graph, backend, figure4_query)
        assert isinstance(engine.backend.describe(), str)
        stats = engine.statistics()
        assert stats["backend"] == backend
        assert stats["build_seconds"] >= 0.0

    _UNIFORM = ["backend", "build_seconds", "pair_count", "bytes_estimate"]
    _CLOSURE_TABLES = [
        "closure_pairs", "l_entries", "l_blocks", "d_entries", "e_entries",
        "total_entries",
    ]
    _ONDEMAND_CACHE = [
        "searches_run", "nodes_with_incoming_cached", "groups_materialized",
        "cached_entries", "pll_entries",
    ]
    #: The one per-backend accessor: uniform core, then backend extras.
    STATS_KEYS = {
        "full": _UNIFORM + _CLOSURE_TABLES,
        "ondemand": _UNIFORM + _ONDEMAND_CACHE,
        "pll": _UNIFORM + _ONDEMAND_CACHE,
        "hybrid": _UNIFORM + [
            "hot_pairs", "total_pairs", "hot_entries", "total_entries",
            "hot_storage_fraction",
        ],
        "constrained": _UNIFORM + [
            "closure_pairs", "partial", *_CLOSURE_TABLES[1:],
        ],
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_key_set_pinned(self, figure4_graph, figure4_query, backend):
        """``backend.stats()`` is the one accessor; ``MatchEngine.statistics()``
        (and so the shard worker's ``stats`` reply) is it minus the
        uniform pair/byte estimates — the key sets readers depend on."""
        engine = _engine(figure4_graph, backend, figure4_query)
        expected = self.STATS_KEYS[backend]
        assert list(engine.backend.stats()) == expected
        assert list(engine.statistics()) == [
            key for key in expected if key not in ("pair_count", "bytes_estimate")
        ]

    def test_constrained_requires_workload(self, figure4_graph):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError, match="workload"):
            MatchEngine(figure4_graph, backend="constrained")

    def test_constrained_rejects_out_of_workload_queries(self, figure4_graph):
        """A constrained index must refuse queries it cannot answer
        correctly instead of silently returning partial results."""
        from repro.exceptions import EngineError

        declared = QueryTree({0: "a", 1: "b"}, [(0, 1)])
        other = QueryTree({0: "c", 1: "d"}, [(0, 1)])  # needs 'c' sources
        engine = MatchEngine(figure4_graph, backend="constrained",
                             workload=(declared,))
        assert [m.score for m in engine.top_k(declared, 1)] == [1]
        with pytest.raises(EngineError, match="outside the declared workload"):
            engine.top_k(other, 1)

    def test_constrained_covers_label_subsets(self, figure4_graph):
        """Queries whose non-leaf labels are a subset of the declared
        tails are answerable and answered identically to full."""
        declared = QueryTree(
            {0: "a", 1: "c", 2: "d"}, [(0, 1), (1, 2)]
        )
        subset = QueryTree({0: "c", 1: "d"}, [(0, 1)])
        engine = MatchEngine(figure4_graph, backend="constrained",
                             workload=(declared,))
        full = MatchEngine(figure4_graph, backend="full")
        assert [m.score for m in engine.top_k(subset, 4)] == [
            m.score for m in full.top_k(subset, 4)
        ]

    def test_unknown_backend_rejected(self, figure4_graph):
        from repro.exceptions import EngineError

        with pytest.raises(EngineError, match="unknown backend"):
            MatchEngine(figure4_graph, backend="magnetic-tape")

    def test_batch_reuses_index(self, figure4_graph):
        q1 = QueryTree({0: "a", 1: "b"}, [(0, 1)])
        q2 = QueryTree({0: "c", 1: "d"}, [(0, 1)])
        engine = MatchEngine(figure4_graph, backend="full")
        results = engine.batch([q1, q2], k=4)
        assert [m.score for m in results[0]] == [1]
        assert [m.score for m in results[1]] == [1, 2, 3, 4]


class TestRefreshHooks:
    """The snapshot/refresh contract of the ReachabilityBackend protocol."""

    def test_advertised_refresh_support(self, figure4_graph, figure4_query):
        expectations = {
            "full": True, "ondemand": False, "hybrid": False,
            "pll": False, "constrained": False,
        }
        for backend, expected in expectations.items():
            engine = _engine(figure4_graph, backend, figure4_query)
            assert engine.backend.supports_incremental_refresh is expected, backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refreshed_backend_answers_updated_graph(
        self, figure4_graph, figure4_query, backend
    ):
        engine = _engine(figure4_graph, backend, figure4_query)
        updated = figure4_graph.copy()
        updated.remove_edge("v1", "v5")
        refresh = engine.backend.refreshed(
            updated, engine.config, edges_removed=(("v1", "v5"),)
        )
        assert refresh.backend.name == backend
        assert refresh.incremental is (backend == "full")
        fresh = _engine(updated, backend, figure4_query)
        rebuilt = MatchEngine(updated, engine.config, _backend=refresh.backend)
        assert [m.score for m in rebuilt.top_k(figure4_query, 4)] == [
            m.score for m in fresh.top_k(figure4_query, 4)
        ]

    def test_full_refresh_recomputes_only_affected_rows(self, figure4_graph):
        engine = MatchEngine(figure4_graph, backend="full")
        updated = figure4_graph.copy()
        updated.add_edge("v2", "v7", 9)
        refresh = engine.backend.refreshed(
            updated, engine.config, edges_added=(("v2", "v7", 9),)
        )
        # Only v2's row and rows reaching v2 (just v1) are recomputed —
        # and v1's recomputed row comes out unchanged (it already reached
        # v7 cheaper), so only b (source) and d (new head) are affected.
        assert refresh.rows_recomputed == 2
        assert refresh.affected_labels == {"b", "d"}

    def test_rebuild_refresh_reports_no_signal(self, figure4_graph):
        engine = MatchEngine(figure4_graph, backend="pll")
        updated = figure4_graph.copy()
        updated.add_edge("v2", "v7", 9)
        refresh = engine.backend.refreshed(
            updated, engine.config, edges_added=(("v2", "v7", 9),)
        )
        assert refresh.affected_labels is None
        assert refresh.rows_recomputed == updated.num_nodes
