"""Tier selection, prepared queries, and the serving-layer caches."""

import itertools

import pytest

from repro.engine import MatchEngine
from repro.graph.generators import citation_graph
from repro.kernel import TIER_COMPILED, TIER_INTERPRETED, KernelProgram
from repro.service import MatchService


def exact(matches):
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@pytest.fixture()
def engine():
    return MatchEngine(citation_graph(90, num_labels=6, seed=1), backend="full")


def hot_query(engine):
    labels = sorted(
        engine.graph.labels(),
        key=lambda lab: (-len(engine.graph.nodes_with_label(lab)), repr(lab)),
    )
    return f"{labels[0]}//{labels[1]}"


class TestPlannerTier:
    def test_tree_plans_select_the_compiled_tier(self, engine):
        plan = engine.explain(hot_query(engine), k=5)
        assert plan.tier == TIER_COMPILED
        assert any("compiled kernel" in reason for reason in plan.reasons)

    def test_describe_surfaces_the_execution_tier(self, engine):
        text = engine.explain(hot_query(engine), k=5).describe()
        assert "execution tier: compiled kernel" in text

    def test_kill_switch_forces_interpreted(self, engine, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "0")
        plan = engine.explain(hot_query(engine), k=5)
        assert plan.tier == TIER_INTERPRETED
        assert any("REPRO_KERNEL" in reason for reason in plan.reasons)
        assert "execution tier: interpreted" in plan.describe()

    def test_baseline_algorithms_stay_interpreted(self, engine):
        plan = engine.explain(hot_query(engine), k=5, algorithm="dp-b")
        assert plan.tier == TIER_INTERPRETED

    def test_load_cap_forces_interpreted(self, engine, monkeypatch):
        import repro.engine.planner as planner_module

        monkeypatch.setattr(planner_module, "KERNEL_LOAD_CAP", 0)
        small = MatchEngine(
            engine.graph, backend="full", full_load_threshold=0
        )
        plan = small.explain(hot_query(engine), k=5)
        assert plan.tier == TIER_INTERPRETED
        assert any("full-load cap" in reason for reason in plan.reasons)
        # The kill-switched/capped plan still answers identically.
        assert exact(small.top_k(hot_query(engine), 5)) == exact(
            engine.top_k(hot_query(engine), 5)
        )

    def test_cyclic_plans_never_carry_a_program(self, engine):
        cyclic = "graph(a:A0, b:A1; a-b, b-a)"
        prepared = engine.prepare(cyclic, k=3)
        assert prepared.program is None


class TestPreparedQuery:
    def test_prepared_carries_the_program(self, engine):
        prepared = engine.prepare(hot_query(engine), k=5)
        assert isinstance(prepared.program, KernelProgram)
        assert prepared.plan.tier == TIER_COMPILED

    def test_prepared_answers_like_the_engine(self, engine):
        query = hot_query(engine)
        prepared = engine.prepare(query, k=5)
        assert exact(prepared.top_k()) == exact(engine.top_k(query, 5))

    def test_larger_k_replans_instead_of_truncating(self, engine):
        # Regression: top_k(k=...) above the planned k used to reuse the
        # plan chosen for the original k and silently under-deliver.
        query = hot_query(engine)
        prepared = engine.prepare(query, k=2)
        assert exact(prepared.top_k(k=8)) == exact(engine.top_k(query, 8))

    def test_smaller_k_reuses_the_plan(self, engine):
        query = hot_query(engine)
        prepared = engine.prepare(query, k=8)
        assert exact(prepared.top_k(k=3)) == exact(engine.top_k(query, 3))

    def test_prepared_stream_matches_top_k(self, engine):
        query = hot_query(engine)
        prepared = engine.prepare(query, k=4)
        want = exact(engine.top_k(query, 4))
        streamed = []
        for match in prepared.stream():
            streamed.append(match)
            if len(streamed) == 4:
                break
        assert exact(streamed) == want

    def test_repeated_execution_reuses_one_binding(self, engine):
        prepared = engine.prepare(hot_query(engine), k=5)
        prepared.top_k()
        prepared.top_k()
        assert len(engine._kernel_bindings) == 1

    def test_one_shot_calls_bind_outside_the_cache(self, engine):
        """``top_k``/``stream`` on text lower a fresh program per call,
        which an identity-keyed cache could never hit: they bind without
        inserting, and a prepared query still hits its one binding."""
        query = hot_query(engine)
        want = exact(engine.top_k(query, 5))
        assert exact(engine.top_k(query, 5)) == want
        assert exact(engine.top_k(engine.compile(query), 5)) == want
        assert exact(itertools.islice(engine.stream(query), 5)) == want
        assert not engine._kernel_bindings
        prepared = engine.prepare(query, k=5)
        assert exact(prepared.top_k()) == want
        bound = engine._kernel_bindings[prepared.program]
        assert exact(prepared.top_k()) == want
        assert list(engine._kernel_bindings.values()) == [bound]

    def test_distinct_programs_get_distinct_bindings(self, engine):
        query = hot_query(engine)
        engine.prepare(query, k=5).top_k()
        other = query.replace("//", "/")
        engine.prepare(other, k=5).top_k()
        assert len(engine._kernel_bindings) == 2


class TestServicePlanCache:
    def test_warm_plan_entries_carry_the_program(self, engine):
        graph = engine.graph
        query = hot_query(engine)
        with MatchService(graph, backend="full", max_workers=1) as service:
            cold = service.request(query, 5)
            warm = service.request(query, 5)
            assert not cold.plan_cache_hit
            entries = list(service._plans._entries.values())
            assert entries, "the plan cache must hold the compiled entry"
            _compiled, plan, program = entries[0]
            assert plan.tier == TIER_COMPILED
            assert isinstance(program, KernelProgram)
            direct = exact(MatchEngine(graph, backend="full").top_k(query, 5))
            assert exact(cold.matches) == direct
            assert exact(warm.matches) == direct

    def test_warm_hit_skips_relowering(self, engine):
        # Same DSL + k twice: the second answer must reuse the cached
        # (compiled, plan, program) triple — one engine binding total.
        graph = engine.graph
        query = hot_query(engine)
        with MatchService(
            graph, backend="full", max_workers=1, result_cache_size=0
        ) as service:
            service.request(query, 5)
            before = list(service._plans._entries.values())
            response = service.request(query, 5)
            after = list(service._plans._entries.values())
            assert response.plan_cache_hit
            assert len(after) == len(before) == 1
            assert after[0][2] is before[0][2]  # the very same program
