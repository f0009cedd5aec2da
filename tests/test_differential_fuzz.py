"""Differential fuzzing: all backends, all algorithms, one answer.

Property-based cross-checks over randomly generated graphs and queries
(shared strategies in :mod:`tests.strategies`):

* every closure backend (full / ondemand / hybrid / pll) and every tree
  algorithm (dp-b / dp-p / topk / topk-en) must return the identical
  top-k result set;
* wildcard and direct-edge (``/``) queries agree across backends;
* :class:`repro.service.MatchService` (caches and all) returns exactly
  what a direct :class:`repro.engine.MatchEngine` returns, on both the
  cold and the warm cache path;
* the compiled kernel tier (:mod:`repro.kernel`) replays the reference
  enumeration byte-for-byte — scalar and numpy binds, plain / wildcard /
  containment / weighted queries, every backend — and a kernel-enabled
  engine answers exactly like one with ``REPRO_KERNEL=0``.

Tie handling: algorithms may legitimately differ in *which* boundary-
score matches fill the k-th slots, so comparisons pin the exact score
sequence plus the exact assignment set below the boundary score.

The example budget per test is ``tests.strategies.FUZZ_EXAMPLES`` (60
by default => 300 generated cases across the suite; the nightly CI job
raises it via ``REPRO_FUZZ_EXAMPLES``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.devtools import lockcheck
from repro.engine import MatchEngine
from repro.query import to_dsl
from repro.service import MatchService
from tests.strategies import FUZZ_EXAMPLES, graph_and_query, graphs


@pytest.fixture(autouse=True, scope="module")
def _lockcheck():
    """Run the whole fuzz suite with the lock-order sanitizer armed.

    Module-scoped (not monkeypatch) so Hypothesis's function-scoped
    fixture health check stays quiet across @given examples.
    """
    previous = os.environ.get("REPRO_LOCKCHECK")
    os.environ["REPRO_LOCKCHECK"] = "1"
    lockcheck.reset()
    yield
    if previous is None:
        os.environ.pop("REPRO_LOCKCHECK", None)
    else:
        os.environ["REPRO_LOCKCHECK"] = previous
    lockcheck.reset()

BACKENDS = ("full", "ondemand", "hybrid", "pll")
TREE_ALGORITHMS = ("dp-b", "dp-p", "topk", "topk-en")

fuzz_settings = settings(max_examples=FUZZ_EXAMPLES, deadline=None)


def comparable(matches, k):
    """Canonical comparison form: exact scores + certain assignment set.

    When exactly ``k`` matches came back, the k-th score may be tied and
    the choice among tied assignments is algorithm-specific — those stay
    out of the assignment-set comparison; everything strictly below the
    boundary (and everything at all when the enumeration was exhausted)
    must agree exactly.
    """
    scores = tuple(m.score for m in matches)
    boundary = matches[-1].score if len(matches) == k and matches else None
    certain = frozenset(
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
        if boundary is None or m.score < boundary
    )
    return scores, certain


def exact(matches):
    """Order-sensitive form for runs that must be bit-identical."""
    return [
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
    ]


@given(instance=graph_and_query(max_query_size=4), k=st.integers(1, 12))
@fuzz_settings
def test_backends_and_algorithms_agree(instance, k):
    """All 4 backends x all 4 tree algorithms return the same top-k set."""
    graph, query = instance
    reference = None
    for backend in BACKENDS:
        engine = MatchEngine(graph, backend=backend)
        for algorithm in TREE_ALGORITHMS:
            got = comparable(engine.top_k(query, k, algorithm=algorithm), k)
            if reference is None:
                reference = got
            else:
                assert got == reference, (backend, algorithm)


@given(
    instance=graph_and_query(max_query_size=4, wildcards=True),
    k=st.integers(1, 8),
)
@fuzz_settings
def test_wildcard_queries_agree(instance, k):
    """Wildcard nodes (non-root ``*``) agree across backends/algorithms."""
    graph, query = instance
    reference = None
    for backend in BACKENDS:
        engine = MatchEngine(graph, backend=backend)
        for algorithm in ("topk", "topk-en"):
            got = comparable(engine.top_k(query, k, algorithm=algorithm), k)
            if reference is None:
                reference = got
            else:
                assert got == reference, (backend, algorithm)


@given(
    instance=graph_and_query(max_query_size=4, weighted=True, max_weight=4),
    k=st.integers(1, 10),
)
@fuzz_settings
def test_weighted_graphs_agree(instance, k):
    """General positive weights: same agreement across the whole matrix."""
    graph, query = instance
    reference = None
    for backend in BACKENDS:
        engine = MatchEngine(graph, backend=backend)
        for algorithm in TREE_ALGORITHMS:
            got = comparable(engine.top_k(query, k, algorithm=algorithm), k)
            if reference is None:
                reference = got
            else:
                assert got == reference, (backend, algorithm)


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 8),
    data=st.data(),
)
@fuzz_settings
def test_update_path_never_serves_stale_results(instance, k, data):
    """After a random edge update, the (cache-warm) service must answer
    exactly like a fresh engine built on the updated graph — the
    selective-invalidation correctness property."""
    graph, raw_query = instance
    query = to_dsl(raw_query)  # DSL text => the cache path is exercised
    with MatchService(graph, backend="full", max_workers=1) as service:
        service.top_k(query, k)  # prime plan + result caches
        nodes = sorted(graph.nodes())
        existing = sorted((t, h) for t, h, _ in graph.edges())
        addable = [
            (t, h)
            for t in nodes
            for h in nodes
            if t != h and not graph.has_edge(t, h)
        ]
        operations = (["remove"] if existing else []) + (
            ["add"] if addable else []
        )
        if not operations:
            return
        if data.draw(st.sampled_from(operations)) == "remove":
            service.apply_updates(
                edges_removed=[data.draw(st.sampled_from(existing))]
            )
        else:
            tail, head = data.draw(st.sampled_from(addable))
            weight = data.draw(st.integers(1, 4))
            service.apply_updates(edges_added=[(tail, head, weight)])
        fresh = MatchEngine(service.snapshot().graph, backend="full")
        assert exact(service.top_k(query, k)) == exact(fresh.top_k(query, k))


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 8),
    data=st.data(),
)
@fuzz_settings
def test_delta_overlay_interleaving_matches_eager_rebuild(instance, k, data):
    """Interleaved update/query/compact schedules on the *delta* path:
    every read must be byte-identical to a fresh engine rebuilt on a
    shadow graph tracking the same mutations — before and after any
    compaction, however the overlay batches stack up."""
    graph, raw_query = instance
    query = to_dsl(raw_query)
    labels = sorted(graph.labels(), key=repr)
    shadow = graph.copy()
    next_node = [0]

    def mutate(service):
        nodes = sorted(shadow.nodes(), key=repr)
        existing = sorted(
            ((t, h) for t, h, _ in shadow.edges()), key=repr
        )
        addable = [
            (t, h)
            for t in nodes
            for h in nodes
            if t != h and not shadow.has_edge(t, h)
        ]
        operations = ["node_add", "relabel"]
        if existing:
            operations.append("remove")
        if addable:
            operations.append("add")
        operation = data.draw(st.sampled_from(sorted(operations)))
        if operation == "add":
            tail, head = data.draw(st.sampled_from(addable))
            weight = data.draw(st.integers(1, 4))
            shadow.add_edge(tail, head, weight)
            service.apply_updates(edges_added=[(tail, head, weight)])
        elif operation == "remove":
            tail, head = data.draw(st.sampled_from(existing))
            shadow.remove_edge(tail, head)
            service.apply_updates(edges_removed=[(tail, head)])
        elif operation == "node_add":
            node = f"nw{next_node[0]}"
            next_node[0] += 1
            label = data.draw(st.sampled_from(labels))
            shadow.add_node(node, label)
            service.apply_updates(nodes_added={node: label})
        else:
            node = data.draw(st.sampled_from(nodes))
            label = data.draw(st.sampled_from(labels))
            shadow.relabel_node(node, label)
            service.apply_updates(labels_changed={node: label})

    with MatchService(
        graph, backend="full", max_workers=1, auto_compact=False,
    ) as service:
        steps = data.draw(
            st.lists(
                st.sampled_from(("update", "query", "compact")),
                min_size=2,
                max_size=6,
            )
        )
        for step in steps:
            if step == "update":
                mutate(service)
            elif step == "compact":
                service.compact()
            else:
                fresh = MatchEngine(shadow, backend="full")
                assert exact(service.top_k(query, k)) == exact(
                    fresh.top_k(query, k)
                ), steps
        fresh = MatchEngine(shadow, backend="full")
        assert exact(service.top_k(query, k)) == exact(fresh.top_k(query, k))


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 10),
    backend=st.sampled_from(BACKENDS),
)
@fuzz_settings
def test_service_agrees_with_engine(instance, k, backend):
    """MatchService == direct MatchEngine, cold cache and warm cache.

    The service answer must be *bit-identical* (same plan, same
    snapshot), and the warm-cache answer must equal the cold one.
    """
    graph, raw_query = instance
    query = to_dsl(raw_query)  # DSL text => the cache path is exercised
    engine = MatchEngine(graph, backend=backend)
    direct = exact(engine.top_k(query, k))
    with MatchService(graph, backend=backend, max_workers=1) as service:
        cold = service.request(query, k)
        warm = service.request(query, k)
        assert exact(cold.matches) == direct
        assert exact(warm.matches) == direct
        assert warm.result_cache_hit


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 10),
    num_shards=st.sampled_from((2, 3)),
)
@fuzz_settings
def test_sharded_engine_agrees_with_flat(instance, k, num_shards):
    """ShardedEngine at 2 and 3 shards == the unsharded engine.

    Same contract the unsharded backends hold among themselves: exact
    score sequence, exact assignment set below the k-th-score boundary.
    """
    from repro.shard import ShardedEngine

    graph, query = instance
    flat = MatchEngine(graph, backend="full")
    sharded = ShardedEngine.from_graph(graph, num_shards)
    assert comparable(sharded.top_k(query, k), k) == comparable(
        flat.top_k(query, k), k
    ), num_shards


@given(
    instance=graph_and_query(max_query_size=4, weighted=True, max_weight=4),
    k=st.integers(1, 8),
    num_shards=st.sampled_from((2, 3)),
)
@fuzz_settings
def test_sharded_engine_agrees_on_weighted_graphs(instance, k, num_shards):
    """Weighted graphs: sharded == flat at 2 and 3 shards."""
    from repro.shard import ShardedEngine

    graph, query = instance
    flat = MatchEngine(graph, backend="full")
    sharded = ShardedEngine.from_graph(graph, num_shards)
    assert comparable(sharded.top_k(query, k), k) == comparable(
        flat.top_k(query, k), k
    ), num_shards


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 8),
    num_shards=st.sampled_from((2, 3)),
    data=st.data(),
)
@fuzz_settings
def test_sharded_engine_update_path_agrees(instance, k, num_shards, data):
    """After a random delta, ShardedEngine.updated() == a fresh flat
    engine on the mutated graph (the epoch-swap correctness property)."""
    from repro.shard import ShardedEngine

    graph, query = instance
    sharded = ShardedEngine.from_graph(graph, num_shards)
    nodes = sorted(graph.nodes())
    existing = sorted((t, h) for t, h, _ in graph.edges())
    addable = [
        (t, h)
        for t in nodes
        for h in nodes
        if t != h and not graph.has_edge(t, h)
    ]
    operations = (["remove"] if existing else []) + (["add"] if addable else [])
    if not operations:
        return
    if data.draw(st.sampled_from(operations)) == "remove":
        deltas = {"edges_removed": [data.draw(st.sampled_from(existing))]}
    else:
        tail, head = data.draw(st.sampled_from(addable))
        deltas = {"edges_added": [(tail, head, data.draw(st.integers(1, 4)))]}
    swapped = sharded.updated(**deltas)
    assert swapped.epoch == sharded.epoch + 1
    fresh = MatchEngine(swapped.graph, backend="full")
    assert comparable(swapped.top_k(query, k), k) == comparable(
        fresh.top_k(query, k), k
    ), (num_shards, deltas)


#: Replicated-service schedules spawn four worker processes per
#: example, so this test runs a slice of the usual budget.
replicated_settings = settings(
    max_examples=max(4, FUZZ_EXAMPLES // 10), deadline=None
)


@given(
    instance=graph_and_query(max_query_size=4),
    k=st.integers(1, 8),
    data=st.data(),
)
@replicated_settings
def test_replicated_sharded_service_interleaving_matches_flat(
    instance, k, data
):
    """Interleaved update/query/compact schedules through an R=2
    ShardedMatchService: every read must satisfy the scatter-gather
    contract against a fresh flat engine on a shadow graph tracking the
    same mutations — replicas and broadcasts included."""
    from repro.service import ShardedMatchService

    graph, raw_query = instance
    query = to_dsl(raw_query)
    labels = sorted(graph.labels(), key=repr)
    shadow = graph.copy()
    next_node = [0]

    def mutate(service):
        nodes = sorted(shadow.nodes(), key=repr)
        existing = sorted(((t, h) for t, h, _ in shadow.edges()), key=repr)
        addable = [
            (t, h)
            for t in nodes
            for h in nodes
            if t != h and not shadow.has_edge(t, h)
        ]
        operations = ["node_add", "relabel"]
        if existing:
            operations.append("remove")
        if addable:
            operations.append("add")
        operation = data.draw(st.sampled_from(sorted(operations)))
        if operation == "add":
            tail, head = data.draw(st.sampled_from(addable))
            weight = data.draw(st.integers(1, 4))
            shadow.add_edge(tail, head, weight)
            service.apply_updates(edges_added=[(tail, head, weight)])
        elif operation == "remove":
            tail, head = data.draw(st.sampled_from(existing))
            shadow.remove_edge(tail, head)
            service.apply_updates(edges_removed=[(tail, head)])
        elif operation == "node_add":
            node = f"nw{next_node[0]}"
            next_node[0] += 1
            label = data.draw(st.sampled_from(labels))
            shadow.add_node(node, label)
            service.apply_updates(nodes_added={node: label})
        else:
            node = data.draw(st.sampled_from(nodes))
            label = data.draw(st.sampled_from(labels))
            shadow.relabel_node(node, label)
            service.apply_updates(labels_changed={node: label})

    with ShardedMatchService(
        graph, num_shards=2, replication=2, max_workers=2
    ) as service:
        steps = data.draw(
            st.lists(
                st.sampled_from(("update", "query", "compact")),
                min_size=2,
                max_size=4,
            )
        )
        for step in steps:
            if step == "update":
                mutate(service)
            elif step == "compact":
                service.compact()
            else:
                fresh = MatchEngine(shadow, backend="full")
                assert comparable(service.top_k(query, k), k) == comparable(
                    fresh.top_k(query, k), k
                ), steps
        fresh = MatchEngine(shadow, backend="full")
        assert comparable(service.top_k(query, k), k) == comparable(
            fresh.top_k(query, k), k
        )


# ----------------------------------------------------------------------
# Compiled kernel tier
# ----------------------------------------------------------------------


def _closure_reads(counter, load):
    """``load()``'s result and the (blocks, entries, opens) it metered."""
    before = counter.snapshot()
    result = load()
    delta = counter.delta_since(before)
    return result, (delta.blocks_read, delta.entries_read, delta.tables_opened)


def _three_binds(graph, backend, compiled, engine, **options):
    """Bind ``compiled`` cold and warm on ``engine``, then on a fresh
    engine over the same graph: ``[(bound, metered reads)] * 3``.  The
    warm bind must be a memo hit: on the full backend it rebuilds no
    composed edge view."""
    from repro.kernel import bind_program, compile_program

    program = compile_program(compiled)

    def bind(target):
        matcher = compiled.effective_matcher(target.config.label_matcher)
        return _closure_reads(
            target.store.counter,
            lambda: bind_program(
                program, target.store, matcher=matcher,
                node_weight=target.config.node_weight,
            ),
        )

    memo = getattr(engine.store, "_edge_views", {})
    cold = bind(engine)
    composed = dict(memo)
    assert composed or backend != "full" or compiled.num_nodes == 1
    warm = bind(engine)
    assert memo.keys() == composed.keys()
    assert all(memo[key] is composed[key] for key in memo)
    return [cold, warm, bind(MatchEngine(graph, backend=backend, **options))]


@given(
    instance=graph_and_query(max_query_size=4, wildcards=True),
    k=st.integers(1, 10),
)
@fuzz_settings
def test_compiled_kernel_is_bit_identical_to_interpreter(instance, k):
    """Kernel run == the reference ("topk") interpreter *byte-for-byte*.

    The kernel replays the reference enumeration over flat arrays, so
    scores, assignments, and order must all be identical — on every
    backend (plain and wildcard queries; ``/`` axes included by the
    strategy) — and its bind reads exactly the closure blocks the
    interpreter's run-time-graph load reads.  Each query binds cold, warm
    (leaf memo hit) and on a fresh engine.
    """
    graph, query = instance
    for backend in BACKENDS:
        engine = MatchEngine(graph, backend=backend)
        compiled = engine.compile(query)
        enumerator, loaded = _closure_reads(
            engine.store.counter, lambda: engine._build_enumerator(compiled, "topk")
        )
        reference = exact(enumerator.top_k(k))
        for bound, read in _three_binds(graph, backend, compiled, engine):
            assert read == loaded, backend
            assert exact(bound.run().top_k(k)) == reference, backend


@given(
    instance=graph_and_query(max_query_size=4, weighted=True, max_weight=4),
    k=st.integers(1, 8),
    data=st.data(),
)
@fuzz_settings
def test_compiled_kernel_containment_weighted_bit_identical(instance, k, data):
    """Containment queries (``~A//~B`` family) on weighted graphs, each
    beside a single-label ``//`` or ``/`` one, with and without node
    weights: kernel == reference interpreter byte-for-byte, cold, warm
    and on a fresh engine."""
    graph, _ = instance
    labels = sorted(graph.labels(), key=repr)
    first, second = data.draw(st.permutations(labels))[:2]
    axis = data.draw(st.sampled_from(("//", "/")))
    options = (
        {"node_weight": lambda node: float(hash(node) % 3)}
        if data.draw(st.booleans())
        else {}
    )
    for query in (f"~{first}//~{second}", f"{first}{axis}{second}"):
        for backend in ("full", data.draw(st.sampled_from(BACKENDS))):
            engine = MatchEngine(graph, backend=backend, **options)
            compiled = engine.compile(query)
            reference = exact(
                engine._build_enumerator(compiled, "topk").top_k(k)
            )
            for bound, _ in _three_binds(graph, backend, compiled, engine, **options):
                assert exact(bound.run().top_k(k)) == reference, (backend, query)


#: Two-token labels: ``~x`` or ``~A`` matches several of them, so one
#: query edge reads several pair tables.
TOKEN_LABELS = ("A+x", "A+y", "B+x", "B+y", "C+x")


@given(
    graph=st.one_of(
        graphs(alphabet=TOKEN_LABELS),
        graphs(alphabet=TOKEN_LABELS, weighted=True, max_weight=3),
    ),
    k=st.integers(1, 10),
    data=st.data(),
)
@fuzz_settings
def test_compiled_kernel_multi_pair_edges_bit_identical(graph, k, data):
    """Edges over several pair tables and node-weighted internal edges.

    A containment root over a multi-label alphabet, a wildcard head
    ``X//*`` whose tails have runs in several tables, and internal edges
    under node weights: each bind (cold, memo hit, fresh engine) meters
    what the interpreter's load meters, forces every live parent's slot
    equal to the interpreter's ``(key, repr)``-ordered slot, and
    enumerates the interpreter's matches byte for byte.
    """
    from tests.kernel.test_executor import forced_slots, reference_slots

    # Labels along a drawn walk u -> v -> w, so that most queries match.
    starts = sorted(node for node in graph.nodes() if graph.out_degree(node))
    assume(starts)
    u = data.draw(st.sampled_from(starts))
    v = data.draw(st.sampled_from(sorted(graph.successors(u))))
    w = data.draw(st.sampled_from(sorted(graph.successors(v) or graph.successors(u))))
    a, b, c = (f"{{{graph.label(node)}}}" for node in (u, v, w))
    token = data.draw(st.sampled_from(graph.label(u).split("+")))
    query = data.draw(
        st.sampled_from(
            (
                f"~{token}//{b}[{c}]",  # containment root
                f"~{token}/{b}",
                f"{a}//*",  # wildcard head into a leaf
                f"{a}//*[{c}]",  # wildcard head into an internal node
                f"~{token}//*//{c}",
                f"{a}//{b}//{c}",  # an internal edge, weighted when drawn
            )
        )
    )
    options = (
        {"node_weight": lambda node: float(node % 3)} if data.draw(st.booleans()) else {}
    )
    backend = data.draw(st.sampled_from(BACKENDS))
    engine = MatchEngine(graph, backend=backend, **options)
    compiled = engine.compile(query)
    enumerator, loaded = _closure_reads(
        engine.store.counter, lambda: engine._build_enumerator(compiled, "topk")
    )
    reference = exact(enumerator.top_k(k))
    slots = reference_slots(engine, compiled, engine.config.node_weight)
    for bound, read in _three_binds(graph, backend, compiled, engine, **options):
        assert read == loaded, (backend, query)
        assert forced_slots(bound) == slots, (backend, query)
        assert exact(bound.run().top_k(k)) == reference, (backend, query)


@given(
    instance=graph_and_query(max_query_size=4, wildcards=True),
    k=st.integers(1, 10),
    backend=st.sampled_from(BACKENDS),
)
@fuzz_settings
def test_kernel_enabled_engine_agrees_with_kill_switched(instance, k, backend):
    """End-to-end ``top_k`` with the kernel on == ``REPRO_KERNEL=0``.

    Auto-selected plans: same top-k contract as the algorithm matrix
    (exact scores + certain assignment set); when the planner picked the
    ``topk`` reference algorithm the answers must match exactly.
    """
    import os

    graph, query = instance
    engine_on = MatchEngine(graph, backend=backend)
    plan = engine_on.explain(query, k)
    on = engine_on.top_k(query, k)
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "0"
    try:
        off = MatchEngine(graph, backend=backend).top_k(query, k)
    finally:
        if previous is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = previous
    assert comparable(on, k) == comparable(off, k), plan.algorithm
    if plan.algorithm == "topk":
        assert exact(on) == exact(off)
