"""The run-time graph ``GR`` (Section 3.1) and its fully-loaded builder.

``GR`` is the subgraph of the transitive closure induced by the query
tree's edges.  Nodes are ``(query_node, data_node)`` *copies*: for
distinct-label queries this is isomorphic to the paper's label-keyed
run-time graph, and it directly realizes the Section 5 recipe for
duplicate labels and wildcards ("for each label in T we make possibly
multiple copies of a node in G at the levels of GR corresponding to the
levels of nodes with that label in T").

:func:`build_runtime_graph` performs the fully-loaded identification used
by Algorithm 1 (every relevant table is streamed from the metered store);
Algorithm 3 instead assembles only the needed part on demand and does not
use this builder.
"""

from __future__ import annotations

from typing import Iterator

from repro.closure.store import ClosureStore
from repro.exceptions import MatchingError
from repro.graph.digraph import NodeId
from repro.graph.query import EdgeType, QNodeId, QueryTree
from repro.twig.semantics import EQUALITY, LabelMatcher

#: A run-time-graph node: (query node, data node).
RNode = tuple[QNodeId, NodeId]


class RuntimeGraph:
    """Materialized ``GR``: per-node child slots and viability marks.

    ``slot(u, v, u_child)`` holds the closure edges from data node ``v``
    (matched at query node ``u``) to the candidates of child query node
    ``u_child``, already filtered to *viable* children (nodes whose own
    subtrees can be completed — the paper's "safely remove v from GR"
    pruning).  Raw node/edge counts before pruning are kept for the
    Table 3 statistics.
    """

    def __init__(self, query: QueryTree) -> None:
        self.query = query
        # (u, v, u_child) -> list[(v_child, distance)], viable children only.
        self._slots: dict[tuple[QNodeId, NodeId, QNodeId], list[tuple[NodeId, float]]] = {}
        # u -> set of viable data nodes for u.
        self._viable: dict[QNodeId, set[NodeId]] = {u: set() for u in query.nodes()}
        self.raw_num_nodes = 0
        self.raw_num_edges = 0

    # ------------------------------------------------------------------
    def viable_candidates(self, u: QNodeId) -> set[NodeId]:
        """Viable data nodes for query node ``u``."""
        return self._viable[u]

    def slot(
        self, u: QNodeId, v: NodeId, u_child: QNodeId
    ) -> list[tuple[NodeId, float]]:
        """Viable candidates of ``u_child`` reachable from ``(u, v)``."""
        return self._slots.get((u, v, u_child), [])

    def roots(self) -> list[NodeId]:
        """Viable data nodes for the query root, deterministic order."""
        return sorted(self._viable[self.query.root], key=repr)

    def nodes(self) -> Iterator[RNode]:
        """Iterate viable ``(query node, data node)`` copies."""
        for u, candidates in self._viable.items():
            for v in sorted(candidates, key=repr):
                yield (u, v)

    @property
    def num_nodes(self) -> int:
        """Viable copy count (``n_R`` after pruning)."""
        return sum(len(c) for c in self._viable.values())

    @property
    def num_edges(self) -> int:
        """Viable edge count (``m_R`` after pruning)."""
        return sum(len(entries) for entries in self._slots.values())

    def max_slot_size(self) -> int:
        """``d_R``-style statistic: largest single slot."""
        if not self._slots:
            return 0
        return max(len(entries) for entries in self._slots.values())


def build_runtime_graph(
    store: ClosureStore,
    query: QueryTree,
    matcher: LabelMatcher = EQUALITY,
    prune: bool = True,
) -> RuntimeGraph:
    """Identify and fully load ``GR`` from the metered closure store.

    For every query edge ``(u_p, u)`` the corresponding ``L`` pair tables
    are streamed from storage (one read per block, as Section 3.1's
    "linear I/O time regarding the run-time graph size").  ``/`` edges
    restrict to closure entries that are direct data-graph edges.
    """
    gr = RuntimeGraph(query)
    alphabet = store.graph.labels()

    def expand_labels(qnode: QNodeId) -> list | None:
        return matcher.data_labels_for(query.label(qnode), alphabet)

    # Raw edges per query edge, before viability pruning.
    raw_edges: dict[tuple[QNodeId, QNodeId], list[tuple[NodeId, NodeId, float]]] = {}
    raw_nodes: set[RNode] = set()
    for u_p, u, etype in query.edges():
        tail_labels = expand_labels(u_p)
        head_labels = expand_labels(u)
        direct_only = etype is EdgeType.CHILD
        triples: list[tuple[NodeId, NodeId, float]] = []

        def read(tl, hl) -> None:
            triples.extend(store.read_pair_table(tl, hl, direct_only=direct_only))

        for tl in tail_labels if tail_labels is not None else [None]:
            for hl in head_labels if head_labels is not None else [None]:
                read(tl, hl)
        raw_edges[(u_p, u)] = triples
        for tail, head, _ in triples:
            raw_nodes.add((u_p, tail))
            raw_nodes.add((u, head))
    gr.raw_num_nodes = len(raw_nodes)
    gr.raw_num_edges = sum(len(t) for t in raw_edges.values())

    # Candidate sets per query node from the raw edges.
    candidates: dict[QNodeId, set[NodeId]] = {u: set() for u in query.nodes()}
    root = query.root
    if query.num_nodes == 1:
        # Degenerate single-node query: candidates are all label matches.
        label = query.label(root)
        labels = matcher.data_labels_for(label, alphabet)
        if labels is None:
            candidates[root] = set(store.graph.nodes())
        else:
            for data_label in labels:
                candidates[root] |= store.graph.nodes_with_label(data_label)
    else:
        for (u_p, u), triples in raw_edges.items():
            for tail, head, _ in triples:
                candidates[u_p].add(tail)
                candidates[u].add(head)

    # Bottom-up viability: a candidate survives iff every child slot keeps
    # at least one viable entry.
    order = list(query.bfs_order())
    for u in reversed(order):
        kids = query.children(u)
        if not kids:
            gr._viable[u] = set(candidates[u])
            continue
        per_parent: dict[QNodeId, dict[NodeId, list[tuple[NodeId, float]]]] = {}
        for u_child in kids:
            grouped: dict[NodeId, list[tuple[NodeId, float]]] = {}
            viable_children = gr._viable[u_child] if prune else candidates[u_child]
            for tail, head, dist in raw_edges[(u, u_child)]:
                if head in viable_children:
                    grouped.setdefault(tail, []).append((head, dist))
            per_parent[u_child] = grouped
        survivors: set[NodeId] = set()
        for v in candidates[u]:
            entries_per_child = []
            ok = True
            for u_child in kids:
                entries = per_parent[u_child].get(v)
                if not entries:
                    ok = False
                    break
                entries_per_child.append((u_child, entries))
            if not ok and prune:
                continue
            survivors.add(v)
            for u_child, entries in entries_per_child:
                gr._slots[(u, v, u_child)] = entries
        gr._viable[u] = survivors

    if prune:
        _prune_top_down(gr, query, order)
    return gr


def _prune_top_down(gr: RuntimeGraph, query: QueryTree, order: list) -> None:
    """Drop copies unreachable from a viable root (the paper's recursive
    removal of descendants left without parents)."""
    reachable: dict[QNodeId, set[NodeId]] = {u: set() for u in order}
    reachable[query.root] = set(gr._viable[query.root])
    for u in order:
        keep = reachable[u]
        for v in keep:
            for u_child in query.children(u):
                for v_child, _ in gr.slot(u, v, u_child):
                    reachable[u_child].add(v_child)
    for u in order:
        gr._viable[u] &= reachable[u]
    dead = [
        key
        for key in gr._slots
        if key[1] not in reachable[key[0]]
    ]
    for key in dead:
        del gr._slots[key]


def assignment_score(
    store: ClosureStore,
    query: QueryTree,
    assignment: dict[QNodeId, NodeId],
    node_weight=None,
) -> float:
    """Penalty score of a full assignment (Definition 2.2), via the closure.

    Raises :class:`MatchingError` when the assignment violates label or
    connectivity constraints — used as a test oracle and by the kGPM
    verifier.  ``node_weight`` adds per-node weights (footnote 2).
    """
    total = 0.0
    if node_weight is not None:
        total += sum(float(node_weight(v)) for v in assignment.values())
    for u_p, u, etype in query.edges():
        tail = assignment[u_p]
        head = assignment[u]
        if etype is EdgeType.CHILD and not store.has_direct_edge(tail, head):
            raise MatchingError(
                f"'/' edge ({u_p!r}, {u!r}) not realized by a direct edge"
            )
        dist = store.distance(tail, head)
        if dist is None:
            raise MatchingError(f"{head!r} unreachable from {tail!r}")
        total += dist
    return total
