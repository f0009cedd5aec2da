"""Label-range shard planning.

A :class:`ShardPlan` partitions a graph's nodes into N shards by
*interner label range*: the label-major id assignment of
:class:`~repro.compact.interner.NodeInterner` gives every label one
contiguous id interval, so assigning a contiguous *run of labels* to
each shard makes every shard's owned ids one contiguous ``int32`` span —
CSR rows and closure runs split cleanly at span boundaries.

Partitioning invariants (pinned by ``tests/shard/test_plan.py``):

* every label belongs to exactly one shard, whole — a label is never
  split across shards;
* shard spans are contiguous, disjoint, in id order, and cover
  ``[0, num_nodes)`` exactly;
* the plan is a pure function of the (graph, shard-count) pair — two
  builds over equal graphs produce identical plans, which is what lets
  a manifest written on one host be validated on another.

What a shard *materializes* is larger than what it owns: the shard's
member set is the **forward closure** of its span (owned nodes plus
everything reachable from them, via :class:`~repro.compact.span.SpanView`),
and its subgraph is the subgraph induced on that closed set.  Because
shortest paths never leave the forward closure of their source, every
distance computed inside the shard equals the global distance — so any
match rooted at a shard-owned node is found by the shard alone, with a
globally-correct score.  That is the whole scatter-gather correctness
argument: route a query to the shards owning its root's data labels,
and the union of their local top-k streams contains the global top-k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.compact.csr import CompactGraph
from repro.compact.interner import NodeInterner
from repro.compact.span import SpanView
from repro.exceptions import EngineError, ShardError
from repro.graph.digraph import LabeledDiGraph
from repro.graph.query import WILDCARD


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the partition (ids refer to the global interner)."""

    index: int
    #: Labels this shard owns, in id-range order.
    labels: tuple
    #: Half-open owned id interval ``[start, stop)``.
    span: tuple[int, int]
    #: Number of owned nodes (== span width).
    owned_nodes: int


class ShardPlan:
    """A deterministic label-range partition of one graph into N shards."""

    def __init__(
        self,
        interner: NodeInterner,
        compact: CompactGraph,
        shards: tuple[ShardSpec, ...],
        requested_shards: int,
        replication: int = 1,
    ) -> None:
        if replication < 1:
            raise ShardError(f"replication must be >= 1, got {replication}")
        self.interner = interner
        self.compact = compact
        self.shards = shards
        self.requested_shards = requested_shards
        #: How many workers should serve each shard (availability knob;
        #: the partition itself is replication-agnostic).
        self.replication = replication
        #: ``label -> owning shard index`` (the routing table).
        self.owners = label_owners(spec.labels for spec in shards)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: LabeledDiGraph, num_shards: int, replication: int = 1
    ) -> "ShardPlan":
        """Partition ``graph`` into (at most) ``num_shards`` shards.

        Labels are walked in id-range order and packed greedily against
        the ideal of ``num_nodes / num_shards`` owned nodes per shard; a
        shard closes once it reaches its cumulative quota, provided
        enough labels remain to give every later shard at least one.
        When the graph has fewer labels than requested shards, the
        effective shard count is the label count (recorded alongside the
        requested one).  ``replication`` is carried through to the plan
        (and the manifest) unchanged: it does not affect the partition,
        only how many workers a serving tier spawns per shard.
        """
        if num_shards < 1:
            raise ShardError(f"num_shards must be >= 1, got {num_shards}")
        if graph.num_nodes == 0:
            raise ShardError("cannot shard an empty graph")
        interner = NodeInterner.from_graph(graph)
        compact = CompactGraph(graph, interner)
        labels = interner.labels()
        effective = min(num_shards, len(labels))
        total = len(interner)
        specs: list[ShardSpec] = []
        run_start_label = 0
        span_start = 0
        cumulative = 0
        for position, label in enumerate(labels):
            cumulative += len(interner.label_range(label))
            labels_left = len(labels) - (position + 1)
            shards_left = effective - len(specs) - 1
            must_close = labels_left == shards_left
            wants_close = cumulative * effective >= (len(specs) + 1) * total
            if (wants_close and labels_left >= shards_left) or must_close:
                span_stop = interner.label_range(label).stop
                specs.append(
                    ShardSpec(
                        index=len(specs),
                        labels=tuple(labels[run_start_label : position + 1]),
                        span=(span_start, span_stop),
                        owned_nodes=span_stop - span_start,
                    )
                )
                run_start_label = position + 1
                span_start = span_stop
        if span_start != total or len(specs) != effective:
            raise ShardError(  # pragma: no cover - partition invariant
                f"partition bug: covered {span_start}/{total} ids "
                f"in {len(specs)}/{effective} shards"
            )
        return cls(interner, compact, tuple(specs), num_shards, replication)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def owner_of(self, label) -> int | None:
        """The shard index owning ``label`` (``None`` when unknown)."""
        return self.owners.get(label)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def span_view(self, index: int) -> SpanView:
        spec = self.shards[index]
        return SpanView(self.compact, spec.span[0], spec.span[1])

    def member_nodes(self, index: int) -> list:
        """The closed member set of shard ``index``, as external node ids."""
        resolve = self.interner.resolve
        return [resolve(i) for i in self.span_view(index).members()]

    def subgraph(self, graph: LabeledDiGraph, index: int) -> LabeledDiGraph:
        """The induced subgraph shard ``index`` materializes.

        ``graph`` must be the graph this plan was built from (the plan
        only keeps the compact form, so the caller supplies the mutable
        original for :meth:`~repro.graph.digraph.LabeledDiGraph.subgraph`).
        """
        return graph.subgraph(self.member_nodes(index))

    def describe(self) -> list[dict]:
        """JSON-ready per-shard summary (spans, labels, member counts)."""
        summary = []
        for spec in self.shards:
            view = self.span_view(spec.index)
            members = view.members()
            tails, _heads = view.boundary_pairs()
            summary.append(
                {
                    "index": spec.index,
                    "span": list(spec.span),
                    "labels": list(spec.labels),
                    "owned_nodes": spec.owned_nodes,
                    "member_nodes": len(members),
                    "replicated_nodes": len(members) - spec.owned_nodes,
                    "boundary_pairs": len(tails),
                }
            )
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(f"[{a},{b})" for a, b in (s.span for s in self.shards))
        return f"ShardPlan({len(self.shards)} shards: {spans})"


def plan_from_layout(
    graph: LabeledDiGraph,
    shard_labels: Iterable[tuple],
    requested_shards: int,
    replication: int = 1,
) -> ShardPlan:
    """Rebuild a plan from a persisted label layout (manifest load path).

    ``shard_labels`` lists each shard's owned labels in shard order; the
    layout must tile the graph's labels in id-range order exactly —
    anything else means the manifest does not describe this graph.
    """
    interner = NodeInterner.from_graph(graph)
    compact = CompactGraph(graph, interner)
    expected = list(interner.labels())
    flat: list = []
    specs: list[ShardSpec] = []
    span_start = 0
    for index, labels in enumerate(shard_labels):
        labels = tuple(labels)
        if not labels:
            raise ShardError(f"shard {index} owns no labels")
        flat.extend(labels)
        stop = span_start
        for label in labels:
            rng = interner.label_range(label)
            if len(rng) == 0 or rng.start != stop:
                raise ShardError(
                    f"manifest label layout does not tile this graph "
                    f"(shard {index}, label {label!r})"
                )
            stop = rng.stop
        specs.append(
            ShardSpec(
                index=index,
                labels=labels,
                span=(span_start, stop),
                owned_nodes=stop - span_start,
            )
        )
        span_start = stop
    if flat != expected:
        raise ShardError(
            "manifest label layout does not cover the graph's labels "
            f"({len(flat)} listed, {len(expected)} present)"
        )
    return ShardPlan(interner, compact, tuple(specs), requested_shards, replication)


# ----------------------------------------------------------------------
# Routing (shared by ShardedEngine and the multi-process service)
# ----------------------------------------------------------------------
def label_owners(shard_labels: Iterable[Iterable]) -> dict:
    """``label -> shard index`` from each shard's owned labels, in shard order."""
    return {
        label: index
        for index, labels in enumerate(shard_labels)
        for label in labels
    }


def refuse_cyclic(compiled):
    """Return ``compiled`` unless it is a cyclic (kGPM) pattern.

    Cyclic patterns match over the *bidirected* closure, which
    forward-closed label-range shards cannot answer locally.
    """
    if compiled.is_cyclic:
        raise EngineError(
            "cyclic (kGPM) patterns cannot run on label-range shards: they "
            "match over the bidirected closure, which forward-closed shards "
            "cannot answer locally; use an unsharded MatchEngine or "
            "MatchService for this query"
        )
    return compiled


def route(
    compiled, owners: Mapping, shard_count: int, label_matcher
) -> tuple[int, ...]:
    """Shard indices a compiled query scatters to (sorted, possibly empty).

    Plain root labels map to exactly one shard; containment roots to
    every owner of a member label; wildcard roots (and custom matchers
    that cannot enumerate their data labels) to all shards.  A plain
    root label absent from the graph routes nowhere — the empty answer
    needs no shard at all.  ``owners`` is the :func:`label_owners` table;
    cyclic queries are refused.
    """
    refuse_cyclic(compiled)
    root_label = compiled.tree.label(compiled.tree.root)
    if root_label == WILDCARD:
        return tuple(range(shard_count))
    matcher = compiled.effective_matcher(label_matcher)
    data_labels = matcher.data_labels_for(root_label, tuple(owners))
    if data_labels is None:
        return tuple(range(shard_count))
    return tuple(
        sorted({owners[label] for label in data_labels if label in owners})
    )
