"""Query planning: backend and algorithm selection with explainable plans.

The paper shows no single algorithm dominates: fully loading the run-time
graph (Topk/DP-B) wins when the graph is tiny or most of it will be
enumerated anyway, while priority-based lazy access (Topk-EN) wins when a
small ``k`` touches a sliver of a large candidate space (Figures 6-8).
The :class:`Planner` encodes those trade-offs as deterministic,
inspectable rules over cheap statistics — node/edge counts and label
selectivity from :class:`~repro.graph.digraph.LabeledDiGraph` — and every
decision carries its reasons in the returned :class:`QueryPlan`
(``engine.explain(query)``).

Queries reach the planner in any declarative form (DSL text, builders,
ASTs, raw ``QueryTree``/``QueryGraph``); :func:`repro.query.compile_query`
normalizes them, and the resulting compiled semantics — matcher kind,
direct-edge count, cyclic-or-tree — are part of the plan.  Cyclic
patterns plan onto the kGPM decomposition framework (``mtree+`` with
Topk-EN inside, or ``mtree`` with DP-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.config import ALGORITHMS, EngineConfig
from repro.graph.digraph import LabeledDiGraph
from repro.graph.query import QNodeId
from repro.kernel import (
    KERNEL_LOAD_CAP,
    TIER_COMPILED,
    TIER_INTERPRETED,
    kernel_enabled,
)
from repro.kernel import supports as kernel_supports
from repro.query.compiler import CompiledQuery, compile_query
from repro.twig.semantics import LabelMatcher

#: Cyclic (kGPM) plan algorithms: the decomposition framework with the
#: paper's Topk-EN inside (``mtree+``) or the DP baseline (``mtree``).
CYCLIC_ALGORITHMS: tuple[str, ...] = ("mtree+", "mtree")

#: Tree-algorithm names accepted as aliases when the query is cyclic.
_CYCLIC_ALIASES = {
    "topk-en": "mtree+",
    "mtree+": "mtree+",
    "dp-b": "mtree",
    "mtree": "mtree",
}


@dataclass(frozen=True)
class QueryPlan:
    """One planned execution: the choices made and why.

    ``candidate_estimates`` maps each query node (breadth-first order for
    trees, declaration order for cyclic patterns) to the number of data
    nodes its label can match — the planner's view of the run-time graph
    size before any closure access.  ``matcher_kind``, ``direct_edges``,
    and ``cyclic`` surface the compiled query semantics; ``dsl`` is the
    canonical pretty-printed query.
    """

    algorithm: str
    backend: str
    k: int
    query_nodes: int
    candidate_estimates: tuple[tuple[QNodeId, int], ...]
    est_runtime_nodes: int
    reasons: tuple[str, ...]
    cyclic: bool = False
    direct_edges: int = 0
    wildcards: int = 0
    matcher_kind: str = "equality"
    tier: str = TIER_INTERPRETED
    dsl: str = field(default="", compare=False)

    def describe(self) -> str:
        """Multi-line, human-readable plan (the CLI's ``--explain``)."""
        tier_text = (
            "compiled kernel (flat opcode program)"
            if self.tier == TIER_COMPILED
            else "interpreted"
        )
        lines = [
            f"QueryPlan: algorithm={self.algorithm!r} backend={self.backend!r} "
            f"k={self.k}",
            f"  query: {self.dsl}" if self.dsl else "  query: (unprintable)",
            f"  semantics: {'cyclic pattern' if self.cyclic else 'tree'}, "
            f"matcher={self.matcher_kind}, direct edges={self.direct_edges}, "
            f"wildcards={self.wildcards}",
            f"  query nodes: {self.query_nodes}; estimated run-time copies: "
            f"{self.est_runtime_nodes}",
            f"  execution tier: {tier_text}",
        ]
        per_node = ", ".join(
            f"{qnode!r}≈{count}" for qnode, count in self.candidate_estimates
        )
        if per_node:
            lines.append(f"  candidates per query node: {per_node}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def config_fingerprint(config: EngineConfig) -> tuple:
    """A hashable token covering every config field that can change a plan.

    Plan caches key on ``canonical DSL x engine config``; this is the
    "engine config" half.  Unpicklable fields (matcher, node-weight
    callables, workload trees) contribute as the objects themselves —
    they hash by identity, and keeping strong references in the key
    means a garbage-collected config can never alias a live one (which
    ``id()`` would allow).
    """
    return (
        config.backend,
        config.algorithm,
        config.block_size,
        config.label_matcher,
        config.node_weight,
        config.hot_fraction,
        config.workload,
        config.full_load_threshold,
        config.small_graph_nodes,
        config.brute_force_limit,
    )


def choose_backend(
    graph: LabeledDiGraph, config: EngineConfig
) -> tuple[str, tuple[str, ...]]:
    """Resolve ``backend="auto"`` from graph size and declared workload.

    Deterministic rules (tested as goldens): a declared workload picks the
    constrained closure; otherwise graph size decides — small graphs
    afford the full closure, large graphs get on-demand assembly.
    """
    if config.backend != "auto":
        return config.backend, (f"backend {config.backend!r} explicitly requested",)
    if config.workload:
        return "constrained", (
            f"workload of {len(config.workload)} query tree(s) declared: "
            "constrained closure covers it with the smallest index",
        )
    n = graph.num_nodes
    if n <= config.small_graph_nodes:
        return "full", (
            f"{n} nodes ≤ {config.small_graph_nodes}: full closure is "
            "affordable and gives the fastest queries",
        )
    # "hybrid" is never auto-picked: it materializes the full closure AND
    # builds a 2-hop index (its value is the hot/cold I/O split, not a
    # cheaper offline phase), so it must be an explicit choice.
    return "ondemand", (
        f"{n} nodes > {config.small_graph_nodes}: a materialized closure "
        "would dominate memory; assemble groups on demand",
    )


class Planner:
    """Per-query algorithm selection over one engine's backend."""

    def __init__(
        self,
        graph: LabeledDiGraph,
        config: EngineConfig,
        backend_name: str,
        backend_reasons: tuple[str, ...] = (),
        *,
        expand,
    ) -> None:
        self.graph = graph
        # (matcher, query label) -> data labels (None: all), shared with
        # the kernel bind: the backend store's NodeInterner.data_labels.
        self._expand = expand
        self.config = config
        self.backend_name = backend_name
        self.backend_reasons = tuple(backend_reasons)
        # Label -> candidate count, memoized: the graph is immutable for
        # this planner's lifetime and repeated planning (a serving layer's
        # cache misses) re-asks the same labels.  Dict reads/writes are
        # atomic under the GIL; a race at worst duplicates a count.
        self._label_counts: dict = {}

    def _count_for_labels(self, labels) -> int:
        total = 0
        for data_label in labels:
            count = self._label_counts.get(data_label)
            if count is None:
                count = len(self.graph.nodes_with_label(data_label))
                self._label_counts[data_label] = count
            total += count
        return total

    # ------------------------------------------------------------------
    def _matcher_kind(self, compiled: CompiledQuery) -> str:
        if compiled.matcher is not None:
            return compiled.matcher_kind
        matcher = self.config.label_matcher
        if type(matcher) is LabelMatcher:
            return "equality"
        return type(matcher).__name__

    def candidate_estimates(
        self, query
    ) -> tuple[tuple[QNodeId, int], ...]:
        """Per query node, how many data nodes its label can match.

        Accepts any query form (DSL, builder, AST, ``QueryTree``/
        ``QueryGraph``, or an already-compiled query).
        """
        compiled = compile_query(query)
        matcher = compiled.effective_matcher(self.config.label_matcher)
        graph = self.graph
        if compiled.is_cyclic:
            pattern = compiled.pattern
            nodes = list(pattern.nodes())
            label_of = pattern.label
        else:
            nodes = list(compiled.tree.bfs_order())
            label_of = compiled.tree.label
        out = []
        for u in nodes:
            labels = self._expand(matcher, label_of(u))
            if labels is None:
                count = graph.num_nodes
            else:
                count = self._count_for_labels(labels)
            out.append((u, count))
        return tuple(out)

    # ------------------------------------------------------------------
    def plan(self, query, k: int, algorithm: str | None = None) -> QueryPlan:
        """Pick an algorithm for ``(query, k)`` (or honor an explicit one).

        ``query`` may be any declarative form; it is normalized through
        :func:`repro.query.compile_query` first.
        """
        compiled = compile_query(query)
        requested = algorithm if algorithm is not None else self.config.algorithm
        estimates = self.candidate_estimates(compiled)
        est_runtime_nodes = sum(count for _, count in estimates)
        reasons = list(self.backend_reasons)

        if compiled.is_cyclic:
            chosen = self._plan_cyclic(compiled, requested, reasons)
        else:
            chosen = self._plan_tree(
                compiled, requested, k, est_runtime_nodes, reasons
            )
        tier = self._choose_tier(compiled, chosen, est_runtime_nodes, reasons)

        try:
            dsl = compiled.to_dsl()
        except Exception:  # labels the DSL cannot express
            dsl = ""
        return QueryPlan(
            algorithm=chosen,
            backend=self.backend_name,
            k=k,
            query_nodes=compiled.num_nodes,
            candidate_estimates=estimates,
            est_runtime_nodes=est_runtime_nodes,
            reasons=tuple(reasons),
            cyclic=compiled.is_cyclic,
            direct_edges=compiled.direct_edges,
            wildcards=compiled.wildcards,
            matcher_kind=self._matcher_kind(compiled),
            tier=tier,
            dsl=dsl,
        )

    def _choose_tier(
        self,
        compiled: CompiledQuery,
        algorithm: str,
        est_runtime_nodes: int,
        reasons: list[str],
    ) -> str:
        """Compiled kernel vs interpreter for the chosen algorithm.

        The kernel executes the fully-loaded reference semantics, so it
        takes over the tree top-k algorithms whenever the candidate
        space is small enough to load flat; cyclic patterns, the DP
        baselines, and brute force stay interpreted.  ``REPRO_KERNEL=0``
        is the operational kill switch.
        """
        if not kernel_supports(compiled, algorithm):
            return TIER_INTERPRETED
        if not kernel_enabled():
            reasons.append(
                "compiled kernel disabled (REPRO_KERNEL): interpreted execution"
            )
            return TIER_INTERPRETED
        load_cap = max(self.config.full_load_threshold, KERNEL_LOAD_CAP)
        if est_runtime_nodes > load_cap:
            reasons.append(
                f"estimated run-time graph (≈{est_runtime_nodes} copies) "
                f"exceeds the kernel full-load cap ({load_cap}): "
                "interpreted lazy execution"
            )
            return TIER_INTERPRETED
        reasons.append(
            "lowered to a compiled kernel program: memoized closure rows, "
            "slots sorted on first read, no per-node interpreter dispatch"
        )
        return TIER_COMPILED

    def _plan_tree(
        self,
        compiled: CompiledQuery,
        requested: str,
        k: int,
        est_runtime_nodes: int,
        reasons: list[str],
    ) -> str:
        if requested != "auto":
            if requested in CYCLIC_ALGORITHMS:
                raise ValueError(
                    f"algorithm {requested!r} only applies to cyclic "
                    "graph(...) patterns; this query is a tree"
                )
            if requested not in ALGORITHMS:
                # ValueError, not EngineError: the original facade raised
                # ValueError here and callers match on it.
                raise ValueError(
                    f"unknown algorithm {requested!r}; choose from "
                    f"{ALGORITHMS + ('auto',)}"
                )
            reasons.append(f"algorithm {requested!r} explicitly requested")
            return requested
        if compiled.num_nodes == 1:
            reasons.append(
                "single-node query: the lazy engine answers straight from "
                "the label index"
            )
            return "topk-en"
        if est_runtime_nodes <= self.config.full_load_threshold:
            reasons.append(
                f"tiny candidate space (≈{est_runtime_nodes} copies ≤ "
                f"{self.config.full_load_threshold}): fully loading the "
                "run-time graph is cheapest"
            )
            return "topk"
        if k >= est_runtime_nodes:
            reasons.append(
                f"k={k} covers the estimated candidate space "
                f"(≈{est_runtime_nodes} copies): enumeration amortizes a "
                "full load"
            )
            return "topk"
        reasons.append(
            f"large candidate space (≈{est_runtime_nodes} copies) with "
            f"small k={k}: priority-based lazy access loads the least"
        )
        return "topk-en"

    def _plan_cyclic(
        self, compiled: CompiledQuery, requested: str, reasons: list[str]
    ) -> str:
        pattern = compiled.pattern
        non_tree = pattern.num_edges - (pattern.num_nodes - 1)
        if requested == "auto":
            reasons.append(
                f"cyclic pattern ({pattern.num_edges} edges over "
                f"{pattern.num_nodes} nodes, {non_tree} non-tree): "
                "decompose into a spanning tree and verify the rest "
                "(mtree+ streams tree matches with Topk-EN)"
            )
            return "mtree+"
        chosen = _CYCLIC_ALIASES.get(requested)
        if chosen is None:
            raise ValueError(
                f"algorithm {requested!r} cannot execute a cyclic pattern; "
                f"choose from {CYCLIC_ALGORITHMS} (or 'topk-en'/'dp-b' for "
                "the tree matcher inside the decomposition)"
            )
        reasons.append(
            f"algorithm {requested!r} explicitly requested "
            f"(cyclic pattern -> {chosen})"
        )
        return chosen
