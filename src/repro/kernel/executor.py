"""Bind + execute kernel programs over flat arrays.

:func:`bind_program` runs a :class:`~repro.kernel.program.KernelProgram`
against a closure store, bottom-up over the query's BFS positions.  For
each query edge it executes the PROBE op (plus the pushed-down DIRECT
filter) as one grouped read of the store's ``L`` pair tables in interned
id space, then the ACCUM op: rows of live child candidates, keyed by
``bs[child] + dist``, are dealt per parent in the interpreter's exact
``(key, repr)`` tie order (:mod:`repro.compact.tailmajor`).  An edge
into a leaf has one path: a single-label, unweighted one reads the
store's memoized view (``read_leaf_slots``), any other builds the same
view from ``read_pair_groups``.  A leaf's ``bs`` is its node weight, so
its slots depend on the pair table alone.  Only live parents get slot
rows, as CSR arrays (offsets + keys + child indexes), concatenated from
the view's runs; ROOTS sorts the live root candidates.  The result is a
:class:`BoundProgram` — pure arrays, no per-node objects — from which
:meth:`BoundProgram.run` starts fresh :class:`KernelRun` enumerations
(the PUSH op: the Lawler loop over array slices).

Equivalence contract (fuzz-pinned byte-for-byte in
``tests/test_differential_fuzz.py``): for every query the kernel
supports, a :class:`KernelRun` produces the *identical* match sequence —
same assignments, same scores, same order, including tie order — as
``TopkEnumerator`` over ``build_runtime_graph``, and the bind reads the
same closure blocks the interpreter's load reads.  The load notes:

* ``StaticSlot`` extraction order is a pure function of the entry set
  sorted by ``(key, repr(payload))``.  Each position's live candidates
  are indexed in ``repr((qnode, node))`` order — for a fixed ``qnode``
  the order of ``repr(node) + ")"``, the interner's ``repr_rank`` — so
  a child's index is its tie-break rank and slots sort on ``(key, child
  index)``; slots become pre-sorted array slices and ``ith(rank)``
  becomes O(1) indexing.
* Run-time-graph viability equals ``bs``-existence, and the
  interpreter's top-down prune never removes entries from surviving
  root-reachable slots, so the kernel skips the prune entirely.
* Dead children are *excluded* from slot rows (never carried with
  ``inf`` keys, which would corrupt Case-2 second-best peeks): the
  closure groups of dead heads are read (metered) but never decoded.
  Dead parents get no slot rows at all; dead branches surface only as
  missing parents one level up.
* All float arithmetic replays the interpreter's operation sequence:
  ``bs[child] + dist`` per row, per-child ``+=`` of group minimums in
  children order, incremental ``score + (next - prev)`` deltas.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from typing import Iterator

from repro.compact.tailmajor import leaf_slots, tail_major
from repro.core.matches import EnumerationStats, Match
from repro.exceptions import MatchingError
from repro.kernel.program import KernelProgram

_INF = float("inf")

#: Sentinel edge index addressing the root slot.
_ROOT_SLOT = -1


def bind_program(
    program: KernelProgram,
    store,
    *,
    matcher,
    node_weight=None,
) -> "BoundProgram":
    """Execute the program's scan/probe/accumulate ops against ``store``.

    ``matcher`` is the label matcher of the compiled query
    (``compiled.effective_matcher(config.label_matcher)``);
    ``node_weight`` the optional per-node weight callable.  ``store`` is
    any closure store with ``read_pair_groups``, ``read_leaf_slots`` and
    ``interner``.

    The bound result is store-snapshot-specific but reusable: every
    :meth:`BoundProgram.run` call starts an independent enumeration over
    the same frozen arrays, which is what makes warm repeated serving
    queries cheap.
    """
    started = time.perf_counter()
    alphabet = store.graph.labels()
    interner = store.interner
    id_nodes = interner.nodes()
    rank = interner.repr_rank()
    order = program.order
    n = len(order)

    def expand(pos: int):
        data_labels = matcher.data_labels_for(program.labels[pos], alphabet)
        return [None] if data_labels is None else data_labels

    def weight(node_id: int) -> float:
        return float(node_weight(id_nodes[node_id]))

    # Live candidates per position, indexed in repr((qnode, node)) order.
    nodes: list[list] = [None] * n  # type: ignore[list-item]
    bs: list[list[float]] = [None] * n  # type: ignore[list-item]
    index: list[dict[int, int]] = [None] * n  # type: ignore[list-item]

    def settle(pos: int, bs_of: dict[int, float]) -> list[int]:
        """Freeze ``pos``'s live candidates (id -> bs); their ids in order."""
        ids = sorted(bs_of, key=rank.__getitem__)
        nodes[pos] = list(map(id_nodes.__getitem__, ids))
        bs[pos] = list(map(bs_of.__getitem__, ids))
        index[pos] = dict(zip(ids, range(len(ids))))
        return ids

    def slots(e: int, child_pos: int):
        """PROBE (+ pushed-down DIRECT) and ACCUM for one edge: its (keys,
        childs, offsets, at) view, read per expanded label pair exactly as
        ``build_runtime_graph`` reads.  A leaf settles here, as every head
        the edge reaches."""
        parent_pos, _, direct = program.edge_specs[e]
        pairs = [(tail, head) for tail in expand(parent_pos) for head in expand(child_pos)]
        groups = itertools.chain.from_iterable(
            store.read_pair_groups(*pair, direct) for pair in pairs
        )
        if program.child_edges[child_pos]:
            return tail_major(groups, index[child_pos], bs[child_pos], rank)
        if node_weight is None and len(pairs) == 1 and None not in pairs[0]:
            view = store.read_leaf_slots(*pairs[0], direct)
        else:
            view = leaf_slots(groups, rank, None if node_weight is None else weight)
        nodes[child_pos] = list(map(id_nodes.__getitem__, view[0]))
        return view[1:]

    num_edges = len(program.edge_specs)
    slot_off: list[array] = [None] * num_edges  # type: ignore[list-item]
    slot_keys: list[array] = [None] * num_edges  # type: ignore[list-item]
    slot_child: list[array] = [None] * num_edges  # type: ignore[list-item]
    for pos in range(n - 1, -1, -1):
        kids = program.child_edges[pos]
        if not kids:
            if n == 1:  # single-node query: every label match is a root
                labels = matcher.data_labels_for(program.labels[0], alphabet)
                ids = (
                    range(len(id_nodes))
                    if labels is None
                    else itertools.chain.from_iterable(
                        interner.label_range(label) for label in labels
                    )
                )
                settle(0, {i: 0.0 if node_weight is None else weight(i) for i in ids})
            continue  # a leaf settles when its parent probes the edge
        views = [slots(e, child_pos) for e, child_pos in kids]
        # A parent lives when every child edge keeps a row for it and its
        # total (weight, then += each edge's minimum in children order) is
        # finite.
        totals: dict[int, float] = {}
        for parent in set(views[0][3]).intersection(*(view[3] for view in views[1:])):
            total = 0.0 if node_weight is None else weight(parent)
            for keys, _childs, offsets, at in views:
                total += keys[offsets[at[parent]]]
            if total < _INF:
                totals[parent] = total
        ids = settle(pos, totals)
        # Slot CSR over live parents only, in their index order: the view
        # itself when every tail lives (both are in rank order), else the
        # live tails' runs concatenated.
        for (e, _child_pos), (keys, childs, offsets, at) in zip(kids, views):
            if len(at) == len(ids):
                slot_off[e], slot_keys[e], slot_child[e] = offsets, keys, childs
                continue
            slot_off[e] = array("q", [0])
            slot_keys[e] = array("d")
            slot_child[e] = array("q")
            for parent in ids:
                j = at[parent]
                start, stop = offsets[j], offsets[j + 1]
                slot_keys[e] += keys[start:stop]
                slot_child[e] += childs[start:stop]
                slot_off[e].append(len(slot_keys[e]))

    # ROOTS: live root candidates sorted by (bs, repr) — a stable sort on
    # bs over indexes already in repr order.
    root_bs = bs[0]
    root_cand = array("q", sorted(range(len(root_bs)), key=root_bs.__getitem__))
    root_keys = array("d", (root_bs[cand] for cand in root_cand))

    return BoundProgram(
        program=program,
        nodes=nodes,
        slot_off=slot_off,
        slot_keys=slot_keys,
        slot_child=slot_child,
        root_keys=root_keys,
        root_cand=root_cand,
        bind_seconds=time.perf_counter() - started,
    )


class BoundProgram:
    """A program bound to one store snapshot: frozen flat arrays only."""

    __slots__ = (
        "program",
        "n",
        "nodes",
        "slot_off",
        "slot_keys",
        "slot_child",
        "root_keys",
        "root_cand",
        "bind_seconds",
    )

    def __init__(
        self,
        *,
        program: KernelProgram,
        nodes,
        slot_off,
        slot_keys,
        slot_child,
        root_keys,
        root_cand,
        bind_seconds: float,
    ) -> None:
        self.program = program
        self.n = program.num_positions
        self.nodes = nodes
        self.slot_off = slot_off
        self.slot_keys = slot_keys
        self.slot_child = slot_child
        self.root_keys = root_keys
        self.root_cand = root_cand
        self.bind_seconds = bind_seconds

    def top1_score(self) -> float | None:
        """Score of the best match, or ``None`` when no match exists."""
        return self.root_keys[0] if len(self.root_keys) else None

    @property
    def num_candidates(self) -> int:
        return sum(len(vs) for vs in self.nodes)

    @property
    def num_slot_entries(self) -> int:
        return sum(len(keys) for keys in self.slot_keys)

    def run(self) -> "KernelRun":
        """Start a fresh enumeration over the bound arrays (the PUSH op)."""
        return KernelRun(self)


class _Ref:
    """Compact candidate in array space: parent link + one replacement.

    ``edge``/``pcand`` address the slot the replacement was drawn from:
    ``edge == _ROOT_SLOT`` is the root slot, otherwise the CSR group of
    parent candidate ``pcand`` on edge ``edge``.
    """

    __slots__ = (
        "score",
        "parent",
        "div_pos",
        "cand",
        "rank",
        "edge",
        "pcand",
        "round_heap",
        "assign",
    )

    def __init__(self, score, parent, div_pos, cand, rank, edge, pcand):
        self.score = score
        self.parent = parent
        self.div_pos = div_pos
        self.cand = cand
        self.rank = rank
        self.edge = edge
        self.pcand = pcand
        self.round_heap = None
        self.assign = None


class KernelRun:
    """One enumeration over a :class:`BoundProgram` (interpreter-exact).

    Implements the enumerator protocol (``top_k`` / ``stream`` /
    ``results`` / ``stats``) so engines and ``ResultStream`` treat it
    like any interpreter enumerator.  The heap discipline mirrors
    ``TopkEnumerator`` exactly: a global queue with insertion-counter
    tie-breaks, per-round ``Q_l`` heaps with local counters, promote
    before divide.
    """

    def __init__(self, bound: BoundProgram) -> None:
        self._b = bound
        self.stats = EnumerationStats(init_seconds=bound.bind_seconds)
        self.stats.extra["tier"] = "compiled"
        self._queue: list = []
        self._counter = itertools.count()
        self._started = False
        self.results: list[Match] = []

    # ------------------------------------------------------------------
    def _slot_bounds(self, edge: int, pcand: int) -> tuple[array, array, int, int]:
        """(keys, childs, start, end) of the addressed slot slice."""
        b = self._b
        if edge == _ROOT_SLOT:
            return b.root_keys, b.root_cand, 0, len(b.root_keys)
        offsets = b.slot_off[edge]
        return b.slot_keys[edge], b.slot_child[edge], offsets[pcand], offsets[pcand + 1]

    def top1_score(self) -> float | None:
        return self._b.top1_score()

    # ------------------------------------------------------------------
    def _seed(self) -> None:
        self._started = True
        b = self._b
        if not len(b.root_keys):
            return
        score = b.root_keys[0]
        ref = _Ref(score, None, 0, b.root_cand[0], 1, _ROOT_SLOT, 0)
        heapq.heappush(self._queue, (score, next(self._counter), ref))

    def _promote_sibling(self, ref: _Ref) -> None:
        heap = ref.round_heap
        if not heap:
            return
        score, _seq, sibling = heapq.heappop(heap)
        sibling.round_heap = heap
        heapq.heappush(self._queue, (score, next(self._counter), sibling))

    def _materialize(self, ref: _Ref) -> list:
        if ref.assign is not None:
            return ref.assign
        b = self._b
        if ref.parent is None:
            assign = [-1] * b.n
        else:
            if ref.parent.assign is None:
                raise MatchingError("parent match must be materialized first")
            assign = list(ref.parent.assign)
        assign[ref.div_pos] = ref.cand
        stack = [ref.div_pos]
        child_edges = b.program.child_edges
        slot_off = b.slot_off
        slot_child = b.slot_child
        while stack:
            pos = stack.pop()
            cand = assign[pos]
            for e, child_pos in child_edges[pos]:
                start = slot_off[e][cand]
                if start == slot_off[e][cand + 1]:
                    raise MatchingError(
                        f"no viable child on edge {e} of candidate {cand} "
                        "during kernel materialization"
                    )
                assign[child_pos] = slot_child[e][start]
                stack.append(child_pos)
        ref.assign = assign
        return assign

    def _divide(self, ref: _Ref) -> None:
        b = self._b
        stats = self.stats
        assign = ref.assign
        candidates: list[_Ref] = []

        # Case 1: next rank at the popped match's own slot.
        stats.case1_requests += 1
        keys, childs, start, end = self._slot_bounds(ref.edge, ref.pcand)
        nxt = start + ref.rank  # index of the (rank+1)-th entry
        if nxt >= end:
            stats.empty_subspaces += 1
        else:
            new_score = ref.score + (keys[nxt] - keys[nxt - 1])
            candidates.append(
                _Ref(
                    new_score,
                    ref,
                    ref.div_pos,
                    childs[nxt],
                    ref.rank + 1,
                    ref.edge,
                    ref.pcand,
                )
            )

        # Case 2: second-best sibling at every later BFS position.
        parent_pos = b.program.parent_pos
        edge_in = b.program.edge_in
        slot_off = b.slot_off
        for pos in range(ref.div_pos + 1, b.n):
            edge = edge_in[pos]
            pcand = assign[parent_pos[pos]]
            stats.case2_requests += 1
            offsets = slot_off[edge]
            start = offsets[pcand]
            if offsets[pcand + 1] - start < 2:
                stats.empty_subspaces += 1
                continue
            keys2 = b.slot_keys[edge]
            new_score = ref.score + (keys2[start + 1] - keys2[start])
            candidates.append(
                _Ref(
                    new_score,
                    ref,
                    pos,
                    b.slot_child[edge][start + 1],
                    2,
                    edge,
                    pcand,
                )
            )

        stats.candidates_generated += len(candidates)
        if not candidates:
            return
        best_index = min(range(len(candidates)), key=lambda i: candidates[i].score)
        best = candidates.pop(best_index)
        if candidates:
            round_heap: list = []
            local = itertools.count()
            for cand in candidates:
                heapq.heappush(round_heap, (cand.score, next(local), cand))
            best.round_heap = round_heap
        heapq.heappush(self._queue, (best.score, next(self._counter), best))

    def _advance(self) -> Match | None:
        if not self._started:
            self._seed()
        if not self._queue:
            return None
        score, _seq, ref = heapq.heappop(self._queue)
        self._promote_sibling(ref)
        assign = self._materialize(ref)
        self.stats.rounds += 1
        self._divide(ref)
        b = self._b
        match = Match(
            assignment={
                b.program.order[pos]: b.nodes[pos][assign[pos]]
                for pos in range(b.n)
            },
            score=score,
        )
        self.results.append(match)
        return match

    def __iter__(self) -> Iterator[Match]:
        return self.stream()

    def stream(self) -> Iterator[Match]:
        """Yield matches in non-decreasing score order (replays cache)."""
        index = 0
        while True:
            while index < len(self.results):
                yield self.results[index]
                index += 1
            if self._advance() is None:
                return

    def top_k(self, k: int) -> list[Match]:
        """Return up to ``k`` best matches (fewer when G has fewer)."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        started = time.perf_counter()
        while len(self.results) < k:
            if self._advance() is None:
                break
        self.stats.enum_seconds += time.perf_counter() - started
        return list(self.results[:k])
