"""The :class:`ShardedEngine` — scatter-gather over per-shard engines.

Satisfies the :class:`~repro.engine.core.MatchEngine` query surface
(``compile`` / ``explain`` / ``top_k`` / ``stream`` / ``batch`` /
``statistics``) but answers by fanning the compiled query out to
per-shard engines and merging their partial top-k streams:

    from repro.shard import ShardedEngine, shard_index

    shard_index(graph, "index.ridx", num_shards=4)   # offline, once
    engine = ShardedEngine.load("index.ridx")        # mmaps each shard
    engine.top_k("A//B[C]", k=5)                     # == unsharded answer

**Routing.** A tree query's root carries one query label; the effective
matcher maps it to the data labels it can bind (one for plain equality,
several for containment/custom matchers, all for a wildcard root).  The
query is scattered only to the shards *owning* those labels — a plain
root label touches exactly one shard.  Correctness: every match is
rooted at a node of a root-compatible label, that node is owned by
exactly one shard, and the shard's closed member set (forward closure
of its span) contains the entire match with globally-exact distances —
so the owner's local top-k already contains every global top-k match
rooted there, and the merged union over routed shards contains the
global top-k (see :mod:`repro.shard.merge` for the deterministic
gather).

**Exclusions.** Cyclic (kGPM) patterns run on a *bidirected* closure;
forward-closed label-range shards cannot answer bidirected reachability
locally, so cyclic queries raise :class:`~repro.exceptions.EngineError`
and must use an unsharded engine.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.matches import Match
from repro.delta.records import records_from_updates
from repro.delta.view import apply_records
from repro.engine.config import EngineConfig
from repro.engine.core import MatchEngine
from repro.exceptions import GraphError, ShardError
from repro.graph.digraph import LabeledDiGraph
from repro.query.compiler import CompiledQuery, compile_query
from repro.shard.manifest import load_manifest, shard_index, shard_paths
from repro.shard.merge import ShardedResultStream, merge_topk
from repro.shard.plan import ShardPlan, plan_from_layout, route


class ShardedEngine:
    """Top-k twig matching over label-range shards, one engine per shard."""

    def __init__(
        self,
        graph: LabeledDiGraph,
        plan: ShardPlan,
        engines: tuple[MatchEngine, ...],
        *,
        epoch: int = 0,
        manifest_path: Path | None = None,
    ) -> None:
        if len(engines) != plan.shard_count:
            raise ShardError(
                f"plan has {plan.shard_count} shards but {len(engines)} "
                "engines were supplied"
            )
        self.graph = graph
        self.plan = plan
        self.epoch = epoch
        self.manifest_path = manifest_path
        self._engines = engines

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: LabeledDiGraph,
        num_shards: int,
        config: EngineConfig | None = None,
        **overrides,
    ) -> "ShardedEngine":
        """Build an in-process sharded engine (no files involved)."""
        plan = ShardPlan.from_graph(graph, num_shards)
        engines = tuple(
            MatchEngine(plan.subgraph(graph, spec.index), config, **overrides)
            if config is None
            else MatchEngine(plan.subgraph(graph, spec.index), config)
            for spec in plan.shards
        )
        return cls(graph, plan, engines)

    @classmethod
    def load(cls, manifest_path: str | Path, **overrides) -> "ShardedEngine":
        """Open a sharded index from its manifest.

        The manifest's document checksum and per-file sizes are always
        verified; each shard's ``.ridx`` then opens via ``mmap`` exactly
        like an unsharded index (section CRCs guard the reads).  The
        full graph is reassembled as the union of the shard subgraphs —
        owned nodes appear once, replicas agree by construction — and
        checked against the manifest's recorded counts.
        """
        manifest_path = Path(manifest_path)
        document = load_manifest(manifest_path)
        engines = tuple(
            MatchEngine.load(file_path, **overrides)
            for file_path in shard_paths(document, manifest_path)
        )
        graph = _union_graph(engine.graph for engine in engines)
        counts = document.get("counts", {})
        if (
            graph.num_nodes != counts.get("nodes")
            or graph.num_edges != counts.get("edges")
        ):
            raise ShardError(
                f"{manifest_path}: reassembled graph has "
                f"{graph.num_nodes} nodes / {graph.num_edges} edges, "
                f"manifest records {counts.get('nodes')} / {counts.get('edges')}"
            )
        plan = plan_from_layout(
            graph,
            [entry["labels"] for entry in document["shards"]],
            document.get("requested_shards", len(document["shards"])),
        )
        for spec, entry in zip(plan.shards, document["shards"]):
            if list(spec.span) != list(entry["span"]):
                raise ShardError(
                    f"{manifest_path}: shard {spec.index} span "
                    f"{list(spec.span)} disagrees with manifest "
                    f"{entry['span']}"
                )
        return cls(
            graph,
            plan,
            engines,
            epoch=int(document.get("epoch", 0)),
            manifest_path=manifest_path,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self.plan.shard_count

    @property
    def shard_engines(self) -> tuple[MatchEngine, ...]:
        """The per-shard engines, in shard order (advanced use)."""
        return self._engines

    @property
    def config(self) -> EngineConfig:
        """The (shared) engine config, as carried by shard 0."""
        return self._engines[0].config

    @property
    def backend_name(self) -> str:
        """``sharded[N]`` plus the per-shard backends (CLI summary line)."""
        inner = sorted({engine.backend_name for engine in self._engines})
        return f"sharded[{self.shard_count}]:{'+'.join(inner)}"

    def statistics(self) -> dict:
        """Aggregated sharding + per-shard backend statistics."""
        owned = sum(spec.owned_nodes for spec in self.plan.shards)
        member_total = sum(
            engine.graph.num_nodes for engine in self._engines
        )
        return {
            "shard_count": self.shard_count,
            "requested_shards": self.plan.requested_shards,
            "epoch": self.epoch,
            "graph_nodes": self.graph.num_nodes,
            "graph_edges": self.graph.num_edges,
            "owned_nodes": owned,
            "replicated_nodes": member_total - owned,
            "spans": [list(spec.span) for spec in self.plan.shards],
            "shards": [engine.statistics() for engine in self._engines],
        }

    def compile(self, query) -> CompiledQuery:
        """Normalize any query form (same chokepoint as the flat engine)."""
        return compile_query(query)

    def explain(self, query, k: int = 10, algorithm: str | None = None):
        """The plan the *first routed shard* would run, plus the fan-out.

        Sharded execution runs one such plan per routed shard; the
        returned plan is annotated with the routing via
        ``plan.backend_reasons`` being per-shard, so callers wanting the
        full picture should pair this with :meth:`route`.
        """
        compiled = self.compile(query)
        targets = self.route(compiled)
        shard = targets[0] if targets else 0
        return self._engines[shard].explain(compiled, k, algorithm=algorithm)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, query) -> tuple[int, ...]:
        """Shard indices a query scatters to (see :func:`repro.shard.plan.route`)."""
        return route(
            self.compile(query), self.plan.owners, self.shard_count,
            self.config.label_matcher,
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def top_k(self, query, k: int, algorithm: str | None = None) -> list[Match]:
        """The global top-k: scatter to routed shards, gather via merge."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        compiled = self.compile(query)
        targets = self.route(compiled)
        partials = [
            self._engines[shard].top_k(compiled, k, algorithm=algorithm)
            for shard in targets
        ]
        return merge_topk(partials, k)

    def stream(
        self, query, algorithm: str | None = None, k_hint: int = 10
    ) -> ShardedResultStream:
        """A lazy merged stream over the routed shards' result streams."""
        compiled = self.compile(query)
        targets = self.route(compiled)
        return ShardedResultStream(
            self._engines[shard].stream(
                compiled, algorithm=algorithm, k_hint=k_hint
            )
            for shard in targets
        )

    def batch(
        self, queries: Iterable, k: int, algorithm: str | None = None
    ) -> list[list[Match]]:
        """One merged top-k list per query, in input order."""
        return [self.top_k(query, k, algorithm=algorithm) for query in queries]

    # ------------------------------------------------------------------
    # Updates and persistence
    # ------------------------------------------------------------------
    def updated(
        self,
        edges_added: tuple = (),
        edges_removed: tuple = (),
        nodes_added: dict | None = None,
    ) -> "ShardedEngine":
        """A new sharded engine with the deltas applied, one epoch later.

        Sharded updates re-plan and rebuild every shard: a changed edge
        can move any span's forward closure, and new labels can shift
        the whole label-range layout.  (The flat engine's incremental
        refresh is a per-snapshot optimization; the sharded layer trades
        it for partition invariants that stay exact.)  The receiver is
        untouched — snapshot-swap semantics: like a service
        :class:`~repro.service.Snapshot`, an engine is never mutated.
        """
        graph = self.graph.copy()
        try:
            apply_records(
                graph, records_from_updates(edges_added, edges_removed, nodes_added)
            )
        except (GraphError, TypeError, ValueError, IndexError) as exc:
            raise ShardError(f"invalid graph update: {exc}") from exc
        rebuilt = ShardedEngine.from_graph(
            graph, self.plan.requested_shards, self.config
        )
        rebuilt.epoch = self.epoch + 1
        return rebuilt

    def save_index(self, path: str | Path, num_shards: int | None = None) -> dict:
        """Write this engine's graph as a sharded index (manifest at ``path``)."""
        return shard_index(
            self.graph,
            path,
            self.plan.requested_shards if num_shards is None else num_shards,
            self.config,
            epoch=self.epoch,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine({self.shard_count} shards, epoch={self.epoch}, "
            f"nodes={self.graph.num_nodes})"
        )


def _union_graph(graphs: Iterable[LabeledDiGraph]) -> LabeledDiGraph:
    """Union of shard subgraphs (replicas must agree on label/weight)."""
    graphs = list(graphs)
    union = LabeledDiGraph()
    for graph in graphs:
        for node in graph.nodes():
            label = graph.label(node)
            if node in union:
                if union.label(node) != label:
                    raise ShardError(
                        f"shards disagree on the label of node {node!r}"
                    )
            else:
                union.add_node(node, label)
    for graph in graphs:
        for tail, head, weight in graph.edges():
            if not union.has_edge(tail, head):
                union.add_edge(tail, head, weight)
    return union

