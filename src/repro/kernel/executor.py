"""Bind + execute kernel programs: eager minimums, slots sorted on demand.

:func:`bind_program` runs a :class:`~repro.kernel.program.KernelProgram`
against a closure store.  SCAN/FANOUT take each position's data labels
from the interner's memoized expansion (``NodeInterner.data_labels``).
The eager part walks BFS positions bottom-up: per query edge, PROBE
(with the pushed-down DIRECT filter) reads the edge's tail-major views,
one per head label, composed from every expanded pair table and
memoized per label-set pair and axis (``read_edge_views``,
:mod:`repro.compact.tailmajor`), and ACCUM takes each tail's minimum of
``bs[head] + dist`` in C-level ``map``/``min`` passes over a per-head
``bs`` vector (``inf`` for dead heads).  A parent
lives when every child edge gives it a finite total; ROOTS sorts the
live roots.  The lazy part is each live parent's slot, sorted on ``(key,
child index)`` the first time a :class:`KernelRun` (PUSH: the Lawler
loop) reads it, then shared by every run of the :class:`BoundProgram`.

Equivalence contract (fuzz-pinned byte-for-byte in
``tests/test_differential_fuzz.py``): a :class:`KernelRun` produces the
*identical* match sequence — assignments, scores and order, ties
included — as ``TopkEnumerator`` over ``build_runtime_graph``, and the
bind reads the same closure blocks that load reads.  The load notes:

* ``StaticSlot`` extraction order is the entry set sorted by ``(key,
  repr(payload))``.  Each position's live candidates are indexed in
  ``repr((qnode, node))`` order — for a fixed ``qnode`` the order of
  ``repr(node) + ")"``, the interner's ``repr_rank`` — so a child's
  index is its tie-break rank, slots sort on ``(key, child index)`` and
  ``ith(rank)`` is O(1) indexing.
* Viability equals ``bs``-existence, and the interpreter's top-down
  prune never removes entries from surviving slots, so the kernel skips
  the prune.
* Dead children never enter slots (an ``inf`` key would corrupt Case-2
  second-best peeks); they only take part in the minimums, as ``inf``.
  Dead parents get no slots; dead branches surface as missing parents.
* Float arithmetic replays the interpreter's: ``bs[child] + dist`` per
  row, ``+=`` of slot minimums in children order, incremental ``score +
  (next - prev)`` deltas.
"""

from __future__ import annotations

import heapq
import itertools
import time
from array import array
from bisect import bisect_left, bisect_right
from operator import add, getitem
from typing import Iterator

from repro.core.matches import EnumerationStats, Match
from repro.exceptions import MatchingError
from repro.kernel.program import KernelProgram

_INF = float("inf")

#: A dead child's slot row: ``bs`` inf, child index -1.
_DEAD = (_INF, -1)

#: Sentinel edge index addressing the root slot.
_ROOT_SLOT = -1


def bind_program(program: KernelProgram, store, *, matcher, node_weight=None) -> "BoundProgram":
    """Execute the program's scan/probe/accumulate ops against ``store``.

    ``matcher`` is the label matcher of the compiled query
    (``compiled.effective_matcher(config.label_matcher)``);
    ``node_weight`` the optional per-node weight callable.  ``store`` is
    any closure store with ``read_edge_views`` and ``interner``.

    The bound result is store-snapshot-specific but reusable: every
    :meth:`BoundProgram.run` call starts an independent enumeration over
    the same frozen candidates and slot sources, which is what makes
    warm repeated serving queries cheap.
    """
    started = time.perf_counter()
    interner = store.interner
    id_nodes = interner.nodes()
    rank = interner.repr_rank()
    n = program.num_positions
    # SCAN / FANOUT: each position's data labels (None: all), expanded
    # once per interner.
    labels = [interner.data_labels(matcher, label) for label in program.labels]

    def weight(node_id: int) -> float:
        return float(node_weight(id_nodes[node_id]))

    # Live candidates per position as ids in repr((qnode, node)) order,
    # with their bs scores (None: a leaf's, all 0.0).
    ids: list = [None] * n
    bs: list = [None] * n

    def accumulate(parent_pos: int, child_pos: int, direct: bool):
        """PROBE (+ pushed-down DIRECT) and the eager ACCUM of one edge:
        its slot sources ``[(tails, offsets, keys, childs, hbs, hidx)]``,
        one per head label, and each tail's minimum of ``bs[head] +
        dist``.  ``hbs`` maps a view's head to its ``bs``, ``inf`` when
        dead (``None``: all ``0.0``), ``hidx`` to its child index, ``-1``
        when dead (``None``: the view's own head order).  A leaf settles
        here, as every head the edge reaches."""
        # One view per head label; lone: one table, whose heads are
        # exactly the children.
        views, lone = store.read_edge_views(labels[parent_pos], labels[child_pos], direct)
        leaf = not program.child_edges[child_pos]
        if leaf:
            ids[child_pos] = (
                views[0][0]
                if lone
                else sorted(set().union(*(view[0] for view in views)), key=rank.__getitem__)
            )
            if node_weight is not None:
                bs[child_pos] = list(map(weight, ids[child_pos]))
        child_bs = bs[child_pos]
        index = None
        if not (leaf and lone):
            index = dict(zip(ids[child_pos], range(len(ids[child_pos]))))
            bs_of = None if child_bs is None else child_bs + [_INF]  # hidx -1: inf
        sources = []
        minimum: dict[int, float] = {}
        for heads, keys, childs, offsets, tails, lows in views:
            hidx = None if index is None else list(map(index.get, heads, itertools.repeat(-1)))
            hbs = child_bs if hidx is None or bs_of is None else list(map(bs_of.__getitem__, hidx))
            sources.append((tails, offsets, keys, childs, hbs, hidx))
            if hbs is None:  # the table's own keys
                mins = dict(zip(tails, lows))
            else:
                row_keys = list(map(add, map(hbs.__getitem__, childs), keys))
                runs = map(slice, offsets, offsets[1:])
                mins = dict(zip(tails, map(min, map(row_keys.__getitem__, runs))))
            if not minimum:
                minimum = mins
                continue
            for tail, key in mins.items():  # a tail's runs under several head labels
                if key < minimum.get(tail, _INF):
                    minimum[tail] = key
        return sources, minimum

    sources: list = [None] * len(program.edge_specs)
    for pos in range(n - 1, -1, -1):
        kids = program.child_edges[pos]
        if not kids:
            if n == 1:  # single-node query: every label match is a root
                ranges = [range(len(id_nodes))] if labels[0] is None else map(
                    interner.label_range, labels[0]
                )
                ids[0] = sorted(itertools.chain.from_iterable(ranges), key=rank.__getitem__)
                bs[0] = [0.0] * len(ids[0]) if node_weight is None else list(map(weight, ids[0]))
            continue  # a leaf settles when its parent probes the edge
        edges = [accumulate(pos, child_pos, program.edge_specs[e][2]) for e, child_pos in kids]
        # A parent lives when every child edge has a row for it and its
        # total (weight, then += each edge's minimum in children order) is
        # finite.
        minimums = [minimum for _, minimum in edges]
        parents = sorted(set(minimums[0]).intersection(*minimums[1:]), key=rank.__getitem__)
        totals = [0.0] * len(parents) if node_weight is None else list(map(weight, parents))
        for minimum in minimums:
            totals = list(map(add, totals, map(minimum.__getitem__, parents)))
        live = list(map(_INF.__gt__, totals))
        ids[pos] = list(itertools.compress(parents, live))
        bs[pos] = list(itertools.compress(totals, live))
        for (e, _child_pos), (views, _minimum) in zip(kids, edges):
            sources[e] = (ids[pos], views)

    # ROOTS: live root candidates sorted by (bs, repr) — a stable sort on
    # bs over indexes already in repr order.
    root_bs = bs[0]
    root_cand = array("q", sorted(range(len(root_bs)), key=root_bs.__getitem__))
    root_keys = array("d", (root_bs[cand] for cand in root_cand))

    return BoundProgram(
        program, ids, id_nodes, sources, root_keys, root_cand, time.perf_counter() - started
    )


class BoundProgram:
    """A program bound to one store snapshot: live candidates, the root
    slot and per-edge slot sources; slots are sorted on first touch."""

    __slots__ = (
        "program", "n", "ids", "id_nodes", "sources", "slots", "root_keys", "root_cand",
        "bind_seconds",
    )

    def __init__(self, program, ids, id_nodes, sources, root_keys, root_cand, bind_seconds):
        self.program = program
        self.n = program.num_positions
        self.ids = ids
        self.id_nodes = id_nodes
        self.sources = sources
        self.slots = [[None] * len(parents) for parents, _views in sources]
        self.root_keys = root_keys
        self.root_cand = root_cand
        self.bind_seconds = bind_seconds

    def slot(self, edge: int, pcand: int):
        """``(keys, childs)`` of parent candidate ``pcand`` on ``edge``, in
        ``(key, child index)`` order with dead children left out, sorted
        the first time any run reads it: its runs in several head labels'
        views merge here.  Racing first reads may both sort it; one
        list-item store publishes it, with no lock."""
        parents, views = self.sources[edge]
        tail = parents[pcand]
        rows: list = []
        for tails, offsets, keys, childs, hbs, hidx in views:
            j = bisect_left(tails, tail)
            if j == len(tails) or tails[j] != tail:
                continue
            start, stop = offsets[j], offsets[j + 1]
            run_keys, run = keys[start:stop], childs[start:stop]
            if hbs is not None:
                run_keys = map(add, map(hbs.__getitem__, run), run_keys)
            elif hidx is None:  # a lone unweighted leaf table: sorted already
                built = self.slots[edge][pcand] = run_keys, run
                return built
            rows += zip(run_keys, run if hidx is None else map(hidx.__getitem__, run))
        rows.sort()
        del rows[bisect_left(rows, _DEAD):bisect_right(rows, _DEAD)]
        built = self.slots[edge][pcand] = tuple(zip(*rows))
        return built

    def top1_score(self) -> float | None:
        """Score of the best match, or ``None`` when no match exists."""
        return self.root_keys[0] if len(self.root_keys) else None

    @property
    def nodes(self) -> list[list]:
        """Each position's live candidates as ``NodeId``s, in index order."""
        return [list(map(self.id_nodes.__getitem__, pos_ids)) for pos_ids in self.ids]

    @property
    def num_candidates(self) -> int:
        return sum(len(pos_ids) for pos_ids in self.ids)

    @property
    def num_slot_entries(self) -> int:
        """Rows the slots of all live parents hold, counted without
        sorting a slot (tracing reads it; a run never does)."""
        total = 0
        for parents, views in self.sources:
            for tails, offsets, _keys, childs, _hbs, hidx in views:
                for tail in parents:
                    j = bisect_left(tails, tail)
                    if j < len(tails) and tails[j] == tail:
                        run = childs[offsets[j]:offsets[j + 1]]
                        total += len(run) if hidx is None else sum(hidx[c] >= 0 for c in run)
        return total

    def run(self) -> "KernelRun":
        """Start a fresh enumeration over the bound slots (the PUSH op)."""
        return KernelRun(self)


class _Ref:
    """Compact candidate in index space: parent link + one replacement.

    ``edge``/``pcand`` address the slot the replacement was drawn from:
    ``edge == _ROOT_SLOT`` is the root slot, otherwise the slot of parent
    candidate ``pcand`` on edge ``edge``.
    """

    __slots__ = (
        "score", "parent", "div_pos", "cand", "rank", "edge", "pcand", "round_heap", "assign",
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
        slots = b.slots
        while stack:
            pos = stack.pop()
            cand = assign[pos]
            for e, child_pos in child_edges[pos]:  # a live parent's slot is never empty
                assign[child_pos] = (slots[e][cand] or b.slot(e, cand))[1][0]
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
        if ref.edge == _ROOT_SLOT:
            keys, childs = b.root_keys, b.root_cand
        else:
            keys, childs = b.slots[ref.edge][ref.pcand]  # sorted when ref was drawn
        nxt = ref.rank  # index of the (rank+1)-th entry
        if nxt >= len(keys):
            stats.empty_subspaces += 1
        else:
            new_score = ref.score + (keys[nxt] - keys[nxt - 1])
            candidates.append(
                _Ref(new_score, ref, ref.div_pos, childs[nxt], nxt + 1, ref.edge, ref.pcand)
            )

        # Case 2: second-best sibling at every later BFS position.
        parent_pos = b.program.parent_pos
        edge_in = b.program.edge_in
        slots = b.slots
        for pos in range(ref.div_pos + 1, b.n):
            edge = edge_in[pos]
            pcand = assign[parent_pos[pos]]
            stats.case2_requests += 1
            keys2, childs2 = slots[edge][pcand] or b.slot(edge, pcand)
            if len(keys2) < 2:
                stats.empty_subspaces += 1
                continue
            new_score = ref.score + (keys2[1] - keys2[0])
            candidates.append(_Ref(new_score, ref, pos, childs2[1], 2, edge, pcand))

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
            assignment=dict(
                zip(b.program.order, map(b.id_nodes.__getitem__, map(getitem, b.ids, assign)))
            ),
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
