"""The :class:`MatchEngine` — primary public API of the reproduction.

One engine owns one data graph plus the offline artifacts of a chosen
reachability backend, and answers top-k queries written in any form —
DSL text, fluent builders, typed ASTs, or raw query objects — with any
algorithm:

    from repro.engine import MatchEngine

    engine = MatchEngine(graph)                 # backend/algorithm "auto"
    matches = engine.top_k("A//B[C]", k=5)      # XPath-style DSL
    print(engine.explain("A//B[C]", k=5).describe())

    stream = engine.stream("A//B[C]")           # lazy, resumable
    first = stream.take(3)
    more = stream.take(3)                       # ranks 4-6, no recompute

    engine.top_k("graph(a:A, b:B, c:C; a-b, b-c, c-a)", k=3)  # cyclic kGPM

    engine.save_index("dataset.ridx")           # offline cost paid once
    engine2 = MatchEngine.load("dataset.ridx")  # mmap, zero-parse cold start

Every query form is normalized through one chokepoint —
:func:`repro.query.compile_query` — before planning and execution, so
DSL strings, ``Q(...)``/``Pattern`` builders, and hand-built
``QueryTree``/``QueryGraph`` objects behave identically.  The engine
separates the logical query API from the physical index choice (the five
closure backends of :mod:`repro.engine.backends`), plans per query,
streams results, and persists indexes via :mod:`repro.io`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.closure.store import ClosureStore
from repro.closure.transitive import TransitiveClosure
from repro.core.baseline_dp import DPBEnumerator
from repro.core.baseline_dpp import DPPEnumerator
from repro.core.brute_force import BruteForceEngine
from repro.core.matches import Match
from repro.core.topk import TopkEnumerator
from repro.core.topk_en import TopkEN
from repro.devtools.lockcheck import make_lock
from repro.engine.backends import ReachabilityBackend, build_backend
from repro.engine.config import EngineBuilder, EngineConfig
from repro.engine.planner import Planner, QueryPlan, choose_backend
from repro.engine.stream import ResultStream
from repro.exceptions import EngineError
from repro.gpm.mtree import KGPMEngine
from repro.graph.digraph import LabeledDiGraph
from repro.kernel import (
    TIER_COMPILED,
    KernelProgram,
    KernelUnsupported,
    bind_program,
    compile_program,
    kernel_enabled,
)

# Re-exported for backward compatibility; the format registry (and this
# JSON document version) lives in repro.io now.
from repro.io import INDEX_FORMAT_VERSION  # noqa: F401
from repro.query.compiler import CompiledQuery, compile_query
from repro.runtime.graph import build_runtime_graph

#: LRU bound on cached per-matcher KGPM engines (each holds a bidirected
#: graph copy; matchers are identity-keyed, so unbounded churn of
#: compiled containment queries would otherwise grow the cache forever).
KGPM_ENGINE_CACHE_LIMIT = 8

#: LRU bound on cached kernel bindings (program bound to this engine's
#: store snapshot).  Bindings are the expensive half of compiled
#: execution; a serving layer's warm queries reuse them, and engines are
#: swapped per epoch so the cache can never serve a stale snapshot.
KERNEL_BINDING_CACHE_LIMIT = 32


class MatchEngine:
    """Top-k twig matching over one data graph, any backend, any algorithm.

    Parameters
    ----------
    graph:
        The data graph.
    config:
        An :class:`EngineConfig`; keyword overrides are accepted instead
        (``MatchEngine(graph, backend="pll", block_size=32)``).
    """

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig | None = None,
        *,
        _backend: ReachabilityBackend | None = None,
        **overrides,
    ) -> None:
        if config is not None and overrides:
            raise EngineError(
                "pass either an EngineConfig or keyword overrides, not both"
            )
        if config is None:
            config = EngineConfig(**overrides)
        self.graph = graph
        self.config = config
        backend_name, backend_reasons = choose_backend(graph, config)
        if _backend is not None:
            backend_name = _backend.name
            backend_reasons = (f"backend {_backend.name!r} restored from index",)
            self._backend = _backend
        else:
            self._backend = build_backend(graph, config, backend_name)
        self.planner = Planner(
            graph, config, backend_name, backend_reasons,
            expand=self._backend.store.interner.data_labels,
        )
        # Cyclic (kGPM) queries need a bidirected closure independent of
        # the tree backend; built lazily on the first cyclic query.  The
        # KGPMEngine instances are cached too (keyed by tree algorithm
        # and matcher) since their setup re-copies the graph.  One engine
        # may serve queries from many threads (repro.service shares it),
        # so lazy population is guarded by a lock.
        self._kgpm_artifacts: tuple[TransitiveClosure, ClosureStore] | None = None
        self._kgpm_engines: OrderedDict[tuple[str, int], KGPMEngine] = OrderedDict()
        self._kgpm_lock = make_lock("engine.kgpm")
        # Compiled-tier bindings: program (identity) -> the
        # BoundProgram over this engine's store.  Guarded like the kGPM
        # cache; a BoundProgram's candidates are immutable and its slots
        # are sorted on first read and published by one list-item store,
        # so sharing across threads is safe, and each execution starts a
        # fresh KernelRun.
        self._kernel_bindings: OrderedDict[KernelProgram, "object"] = OrderedDict()
        self._kernel_lock = make_lock("engine.kernel")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def builder(cls) -> EngineBuilder:
        """A fluent :class:`EngineBuilder` (``.backend(...)....build(g)``)."""
        return EngineBuilder()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ReachabilityBackend:
        """The active reachability backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the active backend (``full``, ``ondemand``, ...)."""
        return self._backend.name

    @property
    def store(self):
        """The closure store the enumerators consume."""
        return self._backend.store

    @property
    def closure(self):
        """The materialized closure, when the backend keeps one."""
        return self._backend.closure

    def statistics(self) -> dict:
        """Backend/offline statistics (size, build time, cache usage).

        The backend's :meth:`stats` without its uniform ``pair_count`` /
        ``bytes_estimate`` core, which ``backend.stats()`` serves.
        """
        stats = self._backend.stats()
        del stats["pair_count"], stats["bytes_estimate"]
        return stats

    def compile(self, query) -> CompiledQuery:
        """Normalize any query form through :func:`repro.query.compile_query`.

        Accepts DSL text (``"A//B[C]"``), fluent builders (``Q``/
        ``Pattern``), typed ASTs, raw ``QueryTree``/``QueryGraph``
        objects, and already-compiled queries.  Every query API on this
        engine goes through this one chokepoint.
        """
        return compile_query(query)

    def explain(self, query, k: int = 10, algorithm: str | None = None) -> QueryPlan:
        """The plan :meth:`top_k`/:meth:`stream` would execute, with reasons.

        The plan also surfaces the compiled query semantics: matcher
        kind, ``/``-edge count, wildcard count, and cyclic-or-tree.
        """
        return self.planner.plan(self.compile(query), k, algorithm=algorithm)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def engine_for(self, query, algorithm: str | None = None):
        """Build the raw enumerator the plan selects (advanced use).

        All returned objects expose ``top_k(k)`` / ``stream()`` /
        ``results`` / ``stats``; the lazy ones add ``compute_first()``.
        Tree queries only — cyclic patterns run inside the kGPM
        decomposition framework and have no single enumerator.
        """
        compiled = self.compile(query)
        if compiled.is_cyclic:
            raise EngineError(
                "cyclic patterns have no standalone enumerator; use "
                "top_k() or repro.gpm.KGPMEngine directly"
            )
        plan = self.planner.plan(compiled, k=10, algorithm=algorithm)
        return self._build_enumerator(compiled, plan.algorithm)

    def _check_workload(self, compiled: CompiledQuery):
        """Raise when a constrained index cannot serve ``compiled``.

        Shared by the interpreter and compiled paths so both tiers fail
        with the identical :class:`EngineError`.  Returns the effective
        matcher (both callers need it next).
        """
        query = compiled.tree
        matcher = compiled.effective_matcher(self.config.label_matcher)
        supports = getattr(self._backend, "supports", None)
        if supports is not None and not supports(query, matcher):
            raise EngineError(
                "query is outside the declared workload of this constrained "
                "index (its non-leaf labels were not pre-computed as closure "
                "sources); rebuild with the query in `workload` or use "
                "another backend"
            )
        return matcher

    def _build_enumerator(self, compiled: CompiledQuery, algorithm: str):
        config = self.config
        query = compiled.tree
        matcher = self._check_workload(compiled)
        store = self._backend.store
        if algorithm == "topk-en":
            return TopkEN(
                store, query, matcher=matcher,
                node_weight=config.node_weight,
            )
        if algorithm == "dp-p":
            return DPPEnumerator(
                store, query, matcher=matcher,
                node_weight=config.node_weight,
            )
        if algorithm == "topk":
            gr = build_runtime_graph(store, query, matcher=matcher)
            return TopkEnumerator(gr, node_weight=config.node_weight)
        if algorithm == "dp-b":
            gr = build_runtime_graph(store, query, matcher=matcher)
            return DPBEnumerator(gr, node_weight=config.node_weight)
        if algorithm == "brute-force":
            gr = build_runtime_graph(store, query, matcher=matcher)
            return BruteForceEngine(
                gr, node_weight=config.node_weight,
                limit=config.brute_force_limit,
            )
        raise EngineError(f"unknown algorithm {algorithm!r}")

    def _kgpm_engine(self, compiled: CompiledQuery, plan_algorithm: str) -> KGPMEngine:
        """A kGPM engine over this graph, reusing one bidirected closure.

        Engines are cached per (tree algorithm, matcher): compiled
        containment queries share one matcher instance, so repeated
        cyclic queries reuse the same engine instead of re-copying the
        graph each call.  The cache is a small LRU and every lookup —
        hit or miss — runs under one lock (a kGPM execution dwarfs the
        lock cost), so concurrent first cyclic queries build the
        bidirected closure exactly once and a key is only ever bound to
        one engine.
        """
        tree_algorithm = "dp-b" if plan_algorithm == "mtree" else "topk-en"
        matcher = compiled.effective_matcher(self.config.label_matcher)
        key = (tree_algorithm, id(matcher))
        # The whole lookup runs under the lock: a kGPM execution dwarfs
        # it, and LRU reordering must not race the OrderedDict.
        with self._kgpm_lock:
            engine = self._kgpm_engines.get(key)
            if engine is not None:
                self._kgpm_engines.move_to_end(key)
                return engine
            if self._kgpm_artifacts is None:
                bidirected = self.graph.bidirected()
                closure = TransitiveClosure(bidirected)
                store = ClosureStore(
                    bidirected, closure, block_size=self.config.block_size
                )
                self._kgpm_artifacts = (closure, store)
            closure, store = self._kgpm_artifacts
            engine = KGPMEngine(
                self.graph,
                tree_algorithm=tree_algorithm,
                block_size=self.config.block_size,
                closure=closure,
                store=store,
                matcher=matcher,
            )
            self._kgpm_engines[key] = engine
            while len(self._kgpm_engines) > KGPM_ENGINE_CACHE_LIMIT:
                self._kgpm_engines.popitem(last=False)
        return engine

    # ------------------------------------------------------------------
    # Compiled kernel tier
    # ------------------------------------------------------------------
    def program_for(
        self, compiled: CompiledQuery, plan: QueryPlan
    ) -> KernelProgram | None:
        """The kernel program of a compiled-tier plan, or ``None``.

        Store-independent, so serving layers cache the result alongside
        the plan (``repro.service``'s plan-cache entries) and bind it to
        whatever engine epoch answers the request.
        """
        if plan.cyclic or plan.tier != TIER_COMPILED:
            return None
        try:
            return compile_program(compiled)
        except KernelUnsupported:
            return None

    def _bind(self, compiled: CompiledQuery, program: KernelProgram):
        """Bind ``program`` to this engine's store, uncached."""
        return bind_program(
            program,
            self._backend.store,
            matcher=compiled.effective_matcher(self.config.label_matcher),
            node_weight=self.config.node_weight,
        )

    def _bound_program(self, compiled: CompiledQuery, program: KernelProgram):
        """Bind ``program`` to this engine's store, LRU-cached.

        Keyed by program identity; the cached value keeps the program
        alive, so identity keys cannot alias.  Only callers that hold
        their program (prepared queries, the service plan cache) come
        here: a program lowered for one call could never hit.
        """
        with self._kernel_lock:
            bound = self._kernel_bindings.get(program)
            if bound is not None:
                self._kernel_bindings.move_to_end(program)
                return bound
        # Bind outside the lock: racing first binds are idempotent and a
        # bind dwarfs the duplicated work's lock-hold time.
        bound = self._bind(compiled, program)
        with self._kernel_lock:
            self._kernel_bindings[program] = bound
            self._kernel_bindings.move_to_end(program)
            while len(self._kernel_bindings) > KERNEL_BINDING_CACHE_LIMIT:
                self._kernel_bindings.popitem(last=False)
        return bound

    def _plan_source(
        self,
        compiled: CompiledQuery,
        plan: QueryPlan,
        program: KernelProgram | None = None,
    ):
        """The enumeration source a tree plan executes.

        A fresh :class:`~repro.kernel.KernelRun` when the plan selected
        the compiled tier (re-checking the kill switch and falling back
        to the interpreter on :class:`KernelUnsupported`), else the
        interpreter enumerator.  Both expose the same protocol
        (``top_k``/``stream``/``results``/``stats``).  Without a held
        ``program`` the one lowered here is bound outside the binding
        cache, whose identity keys it could never hit again.
        """
        if plan.tier == TIER_COMPILED and kernel_enabled():
            self._check_workload(compiled)
            try:
                if program is None:
                    return self._bind(compiled, compile_program(compiled)).run()
                return self._bound_program(compiled, program).run()
            except KernelUnsupported:
                pass
        return self._build_enumerator(compiled, plan.algorithm)

    def _execute_plan(
        self,
        compiled: CompiledQuery,
        plan: QueryPlan,
        k: int,
        program: KernelProgram | None = None,
    ) -> list[Match]:
        """Run an already-planned query (the compile/plan-free hot path).

        This is what plan caching skips to: :class:`repro.service`'s plan
        cache stores ``(compiled, plan, program)`` entries and calls
        straight into here on a hit — with the cached ``program``, a
        warm compiled-tier request costs one binding-cache lookup plus
        the flat enumeration loop.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if compiled.is_cyclic:
            return self._kgpm_engine(compiled, plan.algorithm).top_k(
                compiled.pattern, k
            )
        return self._plan_source(compiled, plan, program).top_k(k)

    def prepare(self, query, k: int = 10, algorithm: str | None = None) -> "PreparedQuery":
        """Compile and plan ``query`` once for repeated execution.

        The returned :class:`PreparedQuery` skips parsing, lowering, and
        planning on every call — the per-request cost a serving layer
        amortizes — and carries the lowered kernel program when the plan
        selected the compiled tier.  The plan is made for ``k``;
        executing with a *larger* ``k`` transparently re-plans (the
        algorithm choice depends on ``k``), while a smaller ``k`` reuses
        the plan unchanged.
        """
        compiled = self.compile(query)
        plan = self.planner.plan(compiled, k, algorithm=algorithm)
        return PreparedQuery(
            engine=self,
            compiled=compiled,
            plan=plan,
            program=self.program_for(compiled, plan),
            algorithm=algorithm,
        )

    def top_k(self, query, k: int, algorithm: str | None = None) -> list[Match]:
        """The ``k`` lowest-score matches of ``query`` (fewer if the graph
        has fewer).

        ``query`` may be DSL text, a ``Q``/``Pattern`` builder, a typed
        AST, or a raw ``QueryTree``/``QueryGraph``; cyclic patterns run
        through the kGPM decomposition framework.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        compiled = self.compile(query)
        plan = self.planner.plan(compiled, k, algorithm=algorithm)
        return self._execute_plan(compiled, plan, k)

    def stream(self, query, algorithm: str | None = None, k_hint: int = 10) -> ResultStream:
        """A lazy :class:`ResultStream` over ``query``'s matches.

        ``k_hint`` only informs the planner's algorithm choice; the stream
        itself can run past it without recomputation.  Tree queries only —
        the kGPM threshold loop cannot resume lazily, so cyclic patterns
        must use :meth:`top_k`.
        """
        compiled = self.compile(query)
        if compiled.is_cyclic:
            raise EngineError(
                "cyclic patterns do not stream (the kGPM threshold "
                "algorithm needs a target k); use top_k() instead"
            )
        plan = self.planner.plan(compiled, k_hint, algorithm=algorithm)
        return ResultStream(self._plan_source(compiled, plan), plan)

    def batch(self, queries: Iterable, k: int, algorithm: str | None = None) -> list[list[Match]]:
        """Answer many queries over the shared index (offline cost paid once).

        Returns one top-k list per query, in input order; the queries may
        mix every supported form (DSL text, builders, raw trees/graphs).
        All queries reuse this engine's backend — with the materialized
        backends the closure is never recomputed, and with the lazy ones
        their caches (backward searches, 2-hop labels) warm up across the
        batch.
        """
        return [self.top_k(query, k, algorithm=algorithm) for query in queries]

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def save_index(self, path: str | Path, format: str | None = None) -> None:
        """Persist the offline artifacts (graph + closure/2-hop labels).

        The written index lets :meth:`load` answer queries without
        re-running the shortest-path pre-computation — the paper's
        once-per-dataset offline phase.  ``format`` selects from the
        :data:`repro.io.INDEX_FORMATS` registry: the default ``binary``
        writes the mmap-paged ``.ridx`` layout (zero-parse cold start,
        str/int node ids preserved); ``json`` writes the self-describing
        interchange document (string ids only — non-string ids raise).
        """
        from repro.io import save_engine_index

        save_engine_index(self, path, format=format)

    @classmethod
    def load(cls, path: str | Path, **overrides) -> "MatchEngine":
        """Rebuild an engine from :meth:`save_index` output (any format).

        The format is sniffed from the file's magic bytes — binary
        ``.ridx`` indexes open via ``mmap`` with no per-entry decode
        (closure blocks page in on first touch), JSON documents are
        parsed as before.  Keyword overrides customize the
        non-serializable config fields (``label_matcher``,
        ``node_weight``, planner knobs); the backend, block size, and
        hot fraction come from the index itself.
        """
        from repro.io import load_engine_index

        return load_engine_index(cls, path, **overrides)


@dataclass(frozen=True)
class PreparedQuery:
    """One query compiled and planned once, executable many times.

    Produced by :meth:`MatchEngine.prepare`.  Holds the compiled query
    (parse + lowering already paid), the plan (algorithm choice +
    candidate estimates already paid), and — when the plan selected the
    compiled tier — the lowered kernel ``program``; :meth:`top_k` jumps
    straight to execution.  Immutable and safe to share across threads
    — this is the unit :class:`repro.service.MatchService`'s plan cache
    stores.
    """

    engine: MatchEngine
    compiled: CompiledQuery
    plan: QueryPlan
    program: KernelProgram | None = None
    #: The ``algorithm`` argument :meth:`MatchEngine.prepare` was called
    #: with (``None`` = auto), so oversized-``k`` re-planning honors an
    #: explicit choice.
    algorithm: str | None = None

    @property
    def dsl(self) -> str:
        """Canonical DSL text of the prepared query."""
        return self.compiled.to_dsl()

    def top_k(self, k: int | None = None) -> list[Match]:
        """Execute with the prepared plan (defaults to the planned ``k``).

        The plan was chosen for :attr:`plan`'s ``k``; asking for *more*
        results re-plans at the requested ``k`` (the planner's
        algorithm choice depends on how much of the candidate space
        ``k`` covers — silently reusing a small-``k`` plan for a large
        ``k`` could pick a badly suboptimal algorithm).  Smaller ``k``
        values reuse the plan unchanged.
        """
        if k is not None and k > self.plan.k:
            fresh = self.engine.prepare(
                self.compiled, k, algorithm=self.algorithm
            )
            return fresh.top_k()
        return self.engine._execute_plan(
            self.compiled,
            self.plan,
            self.plan.k if k is None else k,
            program=self.program,
        )

    def stream(self) -> ResultStream:
        """A lazy stream over the prepared query (tree queries only)."""
        if self.compiled.is_cyclic:
            raise EngineError(
                "cyclic patterns do not stream (the kGPM threshold "
                "algorithm needs a target k); use top_k() instead"
            )
        return ResultStream(
            self.engine._plan_source(self.compiled, self.plan, self.program),
            self.plan,
        )

    def explain(self) -> QueryPlan:
        """The plan :meth:`top_k` executes."""
        return self.plan
