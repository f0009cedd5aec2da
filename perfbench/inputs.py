"""Seeded inputs for the benchmark: graphs, queries and op schedules.

Everything here is plain data derived from ``random.Random`` seeded with a
string, so the same ``(workload, seed)`` gives the same inputs in every
process (string seeds do not depend on hash randomization).  Nothing is
taken from ``repro.workloads`` or ``repro.bench``: a change to the program
cannot shift the benchmark's own inputs.

Each workload's data graph is a fixed dataset, like the paper's GD3: its
closure size sets most costs, and it varies by several percent between
random graphs of one size, which would read as noise between seeds.  The
seed draws everything else: queries, popularity, and op schedules.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field


def make_rng(workload: str, seed: int, stream: str) -> random.Random:
    """An independent generator per (workload, seed, purpose)."""
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def dataset_rng(workload: str) -> random.Random:
    """The generator of a workload's fixed data graph."""
    return random.Random(f"perfbench:{workload}:dataset")


class Zipf:
    """Draws ranks ``0..n-1`` with probability proportional to ``1/(r+1)**s``."""

    def __init__(self, n: int, s: float) -> None:
        total = 0.0
        self.cumulative = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** s
            self.cumulative.append(total)

    def draw(self, rng: random.Random) -> int:
        x = rng.random() * self.cumulative[-1]
        return min(bisect.bisect_left(self.cumulative, x), len(self.cumulative) - 1)


@dataclass
class GraphSpec:
    """A labelled digraph as plain data: ``labels[i]`` is node ``i``'s label."""

    labels: list[str]
    edges: list[tuple[int, int]]
    _children: list[list[int]] | None = field(default=None, repr=False)
    _rings: dict = field(default_factory=dict, repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def children(self) -> list[list[int]]:
        if self._children is None:
            out: list[list[int]] = [[] for _ in self.labels]
            for tail, head in self.edges:
                out[tail].append(head)
            for row in out:
                row.sort()
            self._children = out
        return self._children

    def build(self):
        """The program's graph object for this spec."""
        from repro import LabeledDiGraph

        graph = LabeledDiGraph()
        for node, label in enumerate(self.labels):
            graph.add_node(node, label)
        for tail, head in self.edges:
            graph.add_edge(tail, head)
        return graph


def citation_dag(
    rng: random.Random,
    num_nodes: int,
    num_venues: int,
    *,
    avg_cites: float = 3.0,
    num_areas: int = 0,
) -> GraphSpec:
    """A citation DAG: every paper cites earlier ones (edges new -> old).

    Half of the citations go to a recent paper and half are preferential
    by in-degree, as in DBLP-like data; venues are Zipf distributed
    (s = 1).  With ``num_areas`` > 0 each label is ``venue+area`` (two
    tokens), so a containment query on an area token matches labels that
    sort far apart.
    """
    venues = Zipf(num_venues, 1.0)
    labels = []
    for _ in range(num_nodes):
        label = f"v{venues.draw(rng)}"
        if num_areas:
            label += f"+a{rng.randrange(num_areas)}"
        labels.append(label)
    edges: list[tuple[int, int]] = []
    pool = [0]
    for node in range(1, num_nodes):
        fanout = min(node, max(1, round(rng.gauss(avg_cites, 1.0))))
        chosen = {rng.randrange(node)}
        attempts = 0
        while len(chosen) < fanout and attempts < 8 * fanout:
            attempts += 1
            if rng.random() < 0.5:
                chosen.add(rng.randrange(max(0, node - 200), node))
            else:
                chosen.add(rng.choice(pool))
        for target in sorted(chosen):
            edges.append((node, target))
            pool.append(target)
        pool.append(node)
    return GraphSpec(labels, edges)


def _near_descendants(spec: GraphSpec, node: int, depth: int) -> list[list[int]]:
    """Descendants of ``node`` grouped by hop distance 1..depth."""
    key = (node, depth)
    if key not in spec._rings:
        spec._rings[key] = _rings(spec, node, depth)
    return spec._rings[key]


def _rings(spec: GraphSpec, node: int, depth: int) -> list[list[int]]:
    children = spec.children()
    seen = {node}
    frontier = [node]
    rings = []
    for _ in range(depth):
        ring = []
        for u in frontier:
            for v in children[u]:
                if v not in seen:
                    seen.add(v)
                    ring.append(v)
        if not ring:
            break
        rings.append(ring)
        frontier = ring
    return rings


@dataclass(frozen=True)
class Query:
    """One request: DSL text, ``k``, and the shape it was drawn with."""

    text: str
    k: int
    size: int
    shape: str


def _render(labels: dict[int, str], children: dict[int, list[int]], node: int,
            root_text: str | None = None) -> str:
    text = root_text if root_text is not None else _escape(labels[node])
    kids = children.get(node, [])
    for child in kids[:-1]:
        text += "[" + _render(labels, children, child) + "]"
    if kids:
        text += "//" + _render(labels, children, kids[-1])
    return text


def _escape(label: str) -> str:
    return label if label.replace("_", "").isalnum() else "{" + label + "}"


def tree_query(
    rng: random.Random,
    spec: GraphSpec,
    size: int,
    shape: str,
    *,
    depth: int = 3,
    containment_root: bool = False,
) -> str | None:
    """A realizable tree query of ``size`` nodes with distinct labels.

    The query is an embedding read off the graph: a random root, then
    each new node a descendant (within ``depth`` hops) of an embedded
    node: for ``chain`` the deepest one, backing up a step whenever the
    walk is stuck; for ``bushy`` any one.
    Returns ``None`` when the walk gets stuck; callers draw again.
    """
    root = rng.randrange(spec.num_nodes)
    order = [root]
    labels = {root: spec.labels[root]}
    used = {spec.labels[root]}
    children: dict[int, list[int]] = {}
    stuck = 0
    while len(order) < size:
        if stuck > 4 * size:
            return None
        if shape == "chain":
            # The deepest node, backing up one step each time it is stuck.
            parent = order[max(0, len(order) - 1 - stuck)]
        else:
            parent = rng.choice(order)
        rings = _near_descendants(spec, parent, depth)
        if not rings:
            stuck += 1
            continue
        ring = rings[rng.randrange(len(rings))]
        child = ring[rng.randrange(len(ring))]
        if child in labels or spec.labels[child] in used:
            stuck += 1
            continue
        order.append(child)
        labels[child] = spec.labels[child]
        used.add(spec.labels[child])
        children.setdefault(parent, []).append(child)
    # A containment root names only the root label's last token (the area
    # of a ``venue+area`` label), which labels of many venues share.
    root_text = "~" + spec.labels[root].split("+")[-1] if containment_root else None
    return _render(labels, children, root, root_text)


def query_pool(rng, graph: GraphSpec, count: int, sizes, ks,
               containment: int = 0) -> list[Query]:
    """``count`` distinct queries, cycling through every (size, shape, k)
    cell so each stretch of the request stream has the same mix.  With
    ``containment`` = n, each cell also comes once with a containment
    root for every n - 1 times without, interleaved."""
    roots = (True,) + (False,) * (containment - 1) if containment else (False,)
    cells = [(size, shape, k, root) for k in ks for shape in ("chain", "bushy")
             for size in sizes for root in roots]
    seen: set[tuple[str, int]] = set()
    pool: list[Query] = []
    while len(pool) < count:
        size, shape, k, root = cells[len(pool) % len(cells)]
        text = tree_query(rng, graph, size, shape, containment_root=root)
        if text is None or (text, k) in seen:
            continue
        seen.add((text, k))
        pool.append(Query(text, k, size, shape))
    return pool


def digest(*parts) -> str:
    """A short stable hash of the generated inputs."""
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _plain(value):
    if isinstance(value, GraphSpec):
        return {"labels": value.labels, "edges": value.edges}
    if isinstance(value, Query):
        return [value.text, value.k, value.size, value.shape]
    raise TypeError(f"cannot digest {type(value).__name__}")
