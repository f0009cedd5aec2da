"""Block-organized closure store — the disk layout of Sections 3.1 & 4.1.

For every pair of labels ``alpha, beta`` the store keeps:

* ``L`` groups: the incoming closure edges to each ``beta``-labeled node
  ``v`` from ``alpha``-labeled nodes, as one contiguous, distance-sorted
  block run per node (the paper's ``L^alpha_v`` groups inside table
  ``L^alpha_beta``).  Each entry is ``(tail, distance, is_direct)``; the
  ``is_direct`` flag marks closure edges that are also data-graph edges and
  supports the ``/`` axis of Section 5.
* ``D^alpha_beta``: per target node ``v``, ``d^alpha_v`` — the minimum
  incoming distance from ``alpha`` nodes.  The paper stores only values
  greater than 1; we store all of them so the node universe of a label is
  recoverable from the ``D`` table alone (documented deviation, see
  DESIGN.md).
* ``E^alpha_beta``: per source node ``v`` labeled ``alpha``, its single
  minimum-distance outgoing closure edge to a ``beta`` node (the paper's
  ``E_v`` entries, regrouped by label pair).

Physically each ``L^alpha_beta`` table is *one* flat distance-sorted run
of parallel typed arrays (interned tail ids, distances, direct flags)
with per-node group offsets: opening ``L^alpha_v`` is an O(1) binary
search + slice bound, and entry tuples are decoded per block read, not
materialized at build time.  The ``D`` table is implicit — ``d^alpha_v``
is the first (minimum) distance of ``v``'s group run.  External callers
see ``NodeId`` tuples exactly as before: decoding happens at this API
boundary (DESIGN.md, "The interned-ID boundary contract").

All reads go through the metered block layer so algorithms can be compared
by blocks touched, and wildcard lookups (label ``None``) merge across the
corresponding label dimension.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from itertools import accumulate, compress, repeat
from operator import itemgetter, sub
from typing import Iterator, Sequence

from repro.closure.transitive import TransitiveClosure
from repro.compact import NodeInterner, array_copy, buffer_bytes
from repro.compact.tailmajor import compose, joined_slots, leaf_slots, pack, unpack
from repro.exceptions import ClosureError
from repro.graph.digraph import Label, LabeledDiGraph, NodeId
from repro.storage.blocks import (
    DEFAULT_BLOCK_SIZE,
    BlockTable,
    LazyBlockTable,
    TableDirectory,
)
from repro.storage.iostats import IOCounter

#: Entry of an ``L`` group: (tail node, shortest distance, is direct edge).
LEntry = tuple[NodeId, float, bool]
#: Entry of a ``D`` table: (target node, minimum incoming distance).
DEntry = tuple[NodeId, float]
#: Entry of an ``E`` table: (source node, target node, distance).
EEntry = tuple[NodeId, NodeId, float]

_first, _second, _third, _fourth = map(itemgetter, range(4))
_EMPTY_ROW = (array("i"), array("d"))


def _fmt(label: Label) -> str:
    return repr(label)


def decode_pair_groups(
    nodes: Sequence[NodeId],
    groups: Iterator[tuple[int, Sequence[int], Sequence[float]]],
) -> Iterator[tuple[NodeId, NodeId, float]]:
    """Decode a ``read_pair_groups`` stream into ``(tail, head, dist)``.

    ``nodes`` is the id-ordered node tuple of the store's interner.
    """
    for head_id, tails, dists in groups:
        head = nodes[head_id]
        for tail_id, dist in zip(tails, dists):
            yield nodes[tail_id], head, dist


def _or_wildcard(labels):
    """A query edge side's labels to read: ``(None,)`` for a wildcard."""
    return (None,) if labels is None else labels


def compose_edge_views(store, tail_labels, head_labels, direct_only: bool) -> tuple[list, bool]:
    """:meth:`ClosureStore.read_edge_views` without its memo, for stores
    that assemble views per call: ``store.read_leaf_slots`` of every
    label pair of the edge, composed."""
    views = [
        view
        for tail in _or_wildcard(tail_labels)
        for head in _or_wildcard(head_labels)
        for view in store.read_leaf_slots(tail, head, direct_only)
    ]
    return compose(views, store.interner.label_of)


class _PairTable:
    """Columnar ``L^alpha_beta`` + ``E^alpha_beta`` for one label pair.

    ``tails``/``dists``/``direct`` hold every entry of the table, grouped
    by head node (heads ascending by interned id) and distance-sorted
    within each group; ``offsets[j]:offsets[j+1]`` bounds the group of
    ``heads[j]``.  ``e_*`` hold the per-source minimum outgoing edge.
    """

    __slots__ = (
        "tails", "dists", "direct", "heads", "offsets",
        "e_tails", "e_heads", "e_dists", "_blocks", "_leaf", "_leaf_direct",
    )

    def __init__(
        self, tails, dists, direct, heads, offsets, e_tails, e_heads, e_dists
    ) -> None:
        """Adopt built columns: laid out by
        :meth:`ClosureStore._build_tail_label`, or opened by the mmap
        persistence fast path.

        The buffers may be ``array``/``bytearray`` objects or read-only
        memoryviews over an ``mmap`` section: every read path only
        indexes, slices, and bisects them, so mapped tables page in per
        block read without any decode-at-open cost.
        """
        self.tails, self.dists, self.direct = tails, dists, direct
        self.heads, self.offsets = heads, offsets
        self.e_tails, self.e_heads, self.e_dists = e_tails, e_heads, e_dists
        self._blocks = self._leaf = self._leaf_direct = None

    @property
    def num_entries(self) -> int:
        return len(self.tails)

    @property
    def num_groups(self) -> int:
        return len(self.heads)

    def num_blocks(self, block_size: int) -> int:
        """Blocks a full read touches: every group starts a fresh block."""
        if self._blocks is None or self._blocks[0] != block_size:
            offsets = self.offsets
            count = sum(
                (offsets[j + 1] - offsets[j] + block_size - 1) // block_size
                for j in range(len(self.heads))
            )
            self._blocks = (block_size, count)
        return self._blocks[1]

    def has_rows(self, direct_only: bool) -> bool:
        """Whether :meth:`groups` yields anything."""
        return any(self.direct) if direct_only else len(self.tails) > 0

    def groups(self, direct_only: bool) -> Iterator[tuple[int, Sequence[int], Sequence[float]]]:
        """``(head, tails, distances)`` per group (unmetered); ``direct_only``
        keeps direct-edge entries and skips the groups it empties."""
        heads, offsets = self.heads, self.offsets
        tails, dists, direct = self.tails, self.dists, self.direct
        for j in range(len(heads)):
            start, stop = offsets[j], offsets[j + 1]
            if not direct_only:
                yield heads[j], tails[start:stop], dists[start:stop]
                continue
            keep = direct[start:stop]
            run = list(compress(tails[start:stop], keep))
            if run:
                yield heads[j], run, list(compress(dists[start:stop], keep))

    def leaf_memo(self, rank, direct_only: bool) -> tuple:
        """The table's tail-major view (see
        :func:`repro.compact.tailmajor.leaf_slots`), :func:`pack`-ed
        (``array`` objects are GC-tracked) and memoized.  The table never
        changes, so the memo never goes stale; racing first calls may
        build it twice, and one attribute store publishes it."""
        name = "_leaf_direct" if direct_only else "_leaf"
        packed = getattr(self, name)
        if packed is None:
            packed = pack(leaf_slots(self.groups(direct_only), rank))
            setattr(self, name, packed)
        return packed

    def group_bounds(self, head_id: int) -> tuple[int, int] | None:
        """The ``[start, stop)`` run of ``head_id``'s group, or ``None``."""
        j = bisect_left(self.heads, head_id)
        if j < len(self.heads) and self.heads[j] == head_id:
            return self.offsets[j], self.offsets[j + 1]
        return None

    def bytes_resident(self) -> int:
        """Measured bytes of all typed buffers (mapped extent for mmap)."""
        return (
            buffer_bytes(self.tails)
            + buffer_bytes(self.dists)
            + buffer_bytes(self.direct)
            + buffer_bytes(self.heads)
            + buffer_bytes(self.offsets)
            + buffer_bytes(self.e_tails)
            + buffer_bytes(self.e_heads)
            + buffer_bytes(self.e_dists)
        )


_EMPTY_TABLE = _PairTable(
    array("i"), array("d"), bytearray(), array("i"), array("i", [0]),
    array("i"), array("i"), array("d"),
)


def _patch_table(
    table: _PairTable, groups: dict, rows, cgraph, head_range: range
) -> _PairTable | None:
    """``table`` with the head groups of ``groups`` rebuilt (``None`` when
    no entry is left).

    ``groups`` maps a head id to the recomputed tails whose entry into it
    moved.  Such a group keeps its base entries from every other tail,
    takes those tails' entries from their new closure ``rows`` and direct
    flags from ``cgraph``, and is sorted by ``(dist, tail)``; a group may
    appear or vanish.  The columns start as C-level copies of the base's
    (which may be memoryviews over an mmap section), and each rebuilt
    group is one slice assignment per column; groups go in descending
    head order, so the base offsets still bound every group not yet
    visited.  The offsets are summed again only when a group changed
    size, and the heads copied only when one appeared or vanished.
    The ``E`` entry of each moved tail is recomputed from its new row's
    ``head_range`` run and replaced, inserted or deleted in place.
    """
    tails, dists = array_copy("i", table.tails), array_copy("d", table.dists)
    direct = bytearray(table.direct)
    heads = base_heads = table.heads
    offsets = base_offsets = table.offsets
    sizes = None  # group sizes, once a group changed size
    moved_tails: set[int] = set()
    for head in sorted(groups, reverse=True):
        moved = groups[head]
        moved_tails.update(moved)
        j = bisect_left(base_heads, head)
        present = j < len(base_heads) and base_heads[j] == head
        lo = base_offsets[j]
        hi = base_offsets[j + 1] if present else lo
        entries = [
            entry
            for entry in zip(dists[lo:hi], tails[lo:hi], direct[lo:hi])
            if entry[1] not in moved
        ]
        for tail in moved:
            targets, row_dists = rows.row(tail) or _EMPTY_ROW
            k = bisect_left(targets, head)
            if k < len(targets) and targets[k] == head:
                entries.append((row_dists[k], tail, cgraph.has_edge(tail, head)))
        entries.sort()
        tails[lo:hi] = array("i", map(_second, entries))
        dists[lo:hi] = array("d", map(_first, entries))
        direct[lo:hi] = bytes(map(_third, entries))
        if present and len(entries) == hi - lo:
            continue
        if sizes is None:
            sizes = list(map(sub, base_offsets[1:], base_offsets[:-1]))
            heads = array_copy("i", base_heads)
        if not present:
            if entries:
                heads.insert(j, head)
                sizes.insert(j, len(entries))
        elif entries:
            sizes[j] = len(entries)
        else:
            del heads[j], sizes[j]
    if not tails:
        return None
    if sizes is not None:
        offsets = array("i", accumulate(sizes, initial=0))
    base_e_tails = table.e_tails
    e_tails = array_copy("i", base_e_tails)
    e_heads = array_copy("i", table.e_heads)
    e_dists = array_copy("d", table.e_dists)
    for tail in sorted(moved_tails, reverse=True):
        k = bisect_left(base_e_tails, tail)
        present = k < len(base_e_tails) and base_e_tails[k] == tail
        targets, row_dists = rows.row(tail) or _EMPTY_ROW
        lo = bisect_left(targets, head_range.start)
        hi = bisect_left(targets, head_range.stop, lo)
        if hi > lo:
            dist, head = min(zip(row_dists[lo:hi], targets[lo:hi]))
            if present:
                e_heads[k], e_dists[k] = head, dist
            else:
                e_tails.insert(k, tail)
                e_heads.insert(k, head)
                e_dists.insert(k, dist)
        elif present:
            del e_tails[k], e_heads[k], e_dists[k]
    return _PairTable(tails, dists, direct, heads, offsets, e_tails, e_heads, e_dists)


class ClosureStore:
    """Metered, block-organized view of a transitive closure.

    Built from ``closure`` alone, every pair table is laid out afresh,
    one pass per tail label.  A refresh passes the store of the closure
    it was refreshed from as ``base`` and the ``dirty_groups`` of
    :meth:`TransitiveClosure.refreshed`, and its Python-level work is
    O(touched groups): every table outside ``dirty_groups`` is adopted
    object for object (with its memoized views), and a dirty table
    starts from C-level copies of the base table's columns and rebuilds
    only the touched head groups and the ``E`` entries of the moved
    tails (see :func:`_patch_table`).  It also keeps the composed
    views of ``base`` that read no dirty pair.  ``dirty_groups=None``, a
    different interner object (the ids moved) or a different block size
    builds every table.  Tables are byte-identical to a fresh build
    either way.
    """

    def __init__(
        self,
        graph: LabeledDiGraph,
        closure: TransitiveClosure,
        block_size: int = DEFAULT_BLOCK_SIZE,
        counter: IOCounter | None = None,
        *,
        base: "ClosureStore | None" = None,
        dirty_groups: dict | None = None,
    ) -> None:
        self._attach(graph, closure, block_size, counter)
        if (
            base is None
            or dirty_groups is None
            or base._interner is not self._interner
            or base.directory.block_size != block_size
        ):
            self._pair_tables = self._build()
        else:
            self._pair_tables = self._patch(base, dirty_groups)
            self._carry_views(base, dirty_groups)

    def _attach(self, graph, closure, block_size, counter) -> None:
        """Every field but the tables; memos start empty."""
        self._graph = graph
        self._closure = closure
        self._interner = closure.interner
        self.directory = TableDirectory(counter=counter, block_size=block_size)
        self.counter = self.directory.counter
        # (tail_label, head_label) -> columnar pair table, in label id order.
        self._pair_tables: dict[tuple[Label, Label], _PairTable] = {}
        # head id -> set of tail labels with a non-empty group; built on
        # first use (:meth:`_tail_label_index`).
        self._tail_labels_of: dict[int, set[Label]] | None = None
        # (tail labels, head labels, direct_only) -> composed edge views.
        self._edge_views: dict = {}
        # (expanded tail labels, direct_only) -> head label -> joined view.
        self._joined: dict = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: LabeledDiGraph,
        closure: TransitiveClosure | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        counter: IOCounter | None = None,
    ) -> "ClosureStore":
        """Compute the closure (if not given) and lay it out in blocks."""
        if closure is None:
            closure = TransitiveClosure(graph)
        return cls(graph, closure, block_size=block_size, counter=counter)

    @classmethod
    def from_tables(
        cls,
        graph: LabeledDiGraph,
        closure: TransitiveClosure,
        pair_tables: dict[tuple[Label, Label], _PairTable],
        block_size: int = DEFAULT_BLOCK_SIZE,
        counter: IOCounter | None = None,
    ) -> "ClosureStore":
        """Adopt already-laid-out pair tables (the mmap persistence path).

        Skips the layout entirely: the tables' columns slice straight
        out of whatever buffers they were opened over (typically an
        ``mmap``), so opening a store costs O(tables) directory work, not
        O(pairs log pairs) layout work.
        """
        self = cls.__new__(cls)
        self._attach(graph, closure, block_size, counter)
        self._pair_tables = dict(pair_tables)
        return self

    def _build(self) -> dict:
        """Every pair table, in ``(tail label, head label)`` id order,
        built in one pass over the rows of each tail label."""
        tables = {}
        for alpha in self._interner.labels():
            tables.update(self._build_tail_label(alpha))
        return tables

    def _patch(self, base: "ClosureStore", dirty_groups: dict) -> dict:
        """``base``'s tables with each dirty one patched by
        :func:`_patch_table`; a table left without entries is dropped, and
        a table new to the store is inserted at its id-order place."""
        tables = dict(base._pair_tables)
        rows = self._closure.rows
        cgraph = self._closure.compact_graph
        label_range = self._interner.label_range
        appeared = []
        for pair, groups in dirty_groups.items():
            table = _patch_table(
                tables.get(pair, _EMPTY_TABLE), groups, rows, cgraph, label_range(pair[1])
            )
            if table is None:
                tables.pop(pair, None)
            elif pair in tables:
                tables[pair] = table
            else:
                appeared.append((pair, table))
        if appeared:
            position = {label: index for index, label in enumerate(self._interner.labels())}

            def order(item):
                return position[item[0][0]], position[item[0][1]]

            items = list(tables.items())
            for item in appeared:
                insort(items, item, key=order)
            tables = dict(items)
        return tables

    def _build_tail_label(self, alpha: Label) -> dict:
        """Fresh tables of ``alpha`` for every head label that some
        ``alpha`` row reaches, in head label id order.

        The rows' entries are sorted once by ``(head, dist, tail)``, which
        also orders them by head label, and so are their groups and their
        per ``(head label, tail)`` minimum outgoing edges; each table's
        columns are slices of these runs.  Every step is a C-level pass
        over the tail label's entries, and a table costs a few slices."""
        interner = self._interner
        rows = self._closure.rows
        cgraph = self._closure.compact_graph
        out_offsets, out_targets = cgraph.out_offsets, cgraph.out_targets
        run: list[tuple[int, float, int, int]] = []
        for source_id in interner.label_range(alpha):
            row = rows.row(source_id)
            if not row or not row[0]:
                continue
            targets, dists = row
            # Direct-edge flags: a CSR out-neighbor membership test per
            # target, mapped in C.
            out = set(out_targets[out_offsets[source_id] : out_offsets[source_id + 1]])
            run.extend(
                zip(
                    targets,
                    dists,
                    repeat(source_id, len(targets)),
                    map(out.__contains__, targets),
                )
            )
        if not run:
            return {}
        run.sort()
        head_column = list(map(_first, run))
        tails = array("i", map(_third, run))
        dists = array("d", map(_second, run))
        direct = bytearray(map(_fourth, run))
        group_heads = list(dict.fromkeys(head_column))
        group_starts = list(map(bisect_left, repeat(head_column), group_heads))
        group_starts.append(len(run))
        # E: walking entries in descending (dist, head) order, the last
        # store under a (head label, tail) key is that tail's minimum.
        descending = sorted(zip(dists, head_column, tails), reverse=True)
        label_index = interner.label_index()
        best = dict(
            zip(zip(map(label_index.__getitem__, map(_second, descending)),
                    map(_third, descending)),
                descending)
        )
        e_keys = sorted(best)
        e_label_positions = list(map(_first, e_keys))
        minima = list(map(best.__getitem__, e_keys))
        e_tails = array("i", map(_second, e_keys))
        e_dists = array("d", map(_first, minima))
        e_heads = array("i", map(_second, minima))
        tables = {}
        for position, (beta, id_range) in enumerate(interner.label_ranges()):
            g_lo = bisect_left(group_heads, id_range.start)
            g_hi = bisect_left(group_heads, id_range.stop, g_lo)
            if g_hi == g_lo:
                continue
            lo, hi = group_starts[g_lo], group_starts[g_hi]
            e_lo = bisect_left(e_label_positions, position)
            e_hi = bisect_left(e_label_positions, position + 1, e_lo)
            offsets = array("i", map(sub, group_starts[g_lo : g_hi + 1], repeat(lo)))
            tables[(alpha, beta)] = _PairTable(
                tails[lo:hi], dists[lo:hi], direct[lo:hi],
                array("i", group_heads[g_lo:g_hi]), offsets,
                e_tails[e_lo:e_hi], e_heads[e_lo:e_hi], e_dists[e_lo:e_hi],
            )
        return tables

    def _carry_views(self, base: "ClosureStore", dirty_groups: dict) -> None:
        """Keep ``base``'s composed edge views and joined views that read
        no dirty pair (a wildcard side reads every label): they are built
        from adopted tables only, so their views and the opens, entries
        and blocks they meter are this store's too.  The memos are copied
        before filtering, since readers of ``base`` may still add to them."""
        dirty: dict = {}
        for alpha, beta in dirty_groups:
            dirty.setdefault(alpha, set()).add(beta)

        def clean(tail_labels, head_labels) -> bool:
            for alpha in dirty if tail_labels is None else tail_labels:
                heads = dirty.get(alpha)
                if heads and (head_labels is None or not heads.isdisjoint(head_labels)):
                    return False
            return True

        self._edge_views = {
            key: memo
            for key, memo in base._edge_views.copy().items()
            if clean(key[0], key[1])
        }
        self._joined = {
            key: joined
            for key, joined in base._joined.copy().items()
            if clean(key[0], None)
        }

    # ------------------------------------------------------------------
    # Structural lookups (directory metadata, unmetered)
    # ------------------------------------------------------------------
    @property
    def graph(self) -> LabeledDiGraph:
        """The data graph this store was built from."""
        return self._graph

    @property
    def closure(self) -> TransitiveClosure:
        """The in-memory closure (used for unmetered distance probes)."""
        return self._closure

    @property
    def interner(self) -> NodeInterner:
        """The id space of :meth:`read_pair_groups`."""
        return self._interner

    def _pairs_matching(
        self, tail_label: Label | None, head_label: Label | None
    ) -> Iterator[tuple[Label, Label]]:
        if tail_label is not None and head_label is not None:
            if (tail_label, head_label) in self._pair_tables:
                yield (tail_label, head_label)
            return
        for pair in self._pair_tables:
            if tail_label is not None and pair[0] != tail_label:
                continue
            if head_label is not None and pair[1] != head_label:
                continue
            yield pair

    def group_targets(
        self, tail_label: Label | None, head_label: Label | None
    ) -> list[NodeId]:
        """Head nodes with a non-empty incoming group for the label pair.

        ``None`` on either side acts as a wildcard and merges the matching
        tables (Section 5 wildcard support).
        """
        resolve = self._interner.resolve
        if tail_label is not None and head_label is not None:
            table = self._pair_tables.get((tail_label, head_label))
            if table is None:
                return []
            return [resolve(head_id) for head_id in table.heads]
        seen: set[int] = set()
        for pair in self._pairs_matching(tail_label, head_label):
            seen.update(self._pair_tables[pair].heads)
        return sorted((resolve(head_id) for head_id in seen), key=repr)

    def tail_labels_of(self, head: NodeId) -> frozenset[Label]:
        """Tail labels with a non-empty incoming group into ``head``."""
        head_id = self._interner.get(head)
        if head_id is None:
            return frozenset()
        return frozenset(self._tail_label_index().get(head_id, ()))

    def _tail_label_index(self) -> dict[int, set[Label]]:
        """Head id -> tail labels with a group into it, built on first
        use (only :meth:`tail_labels_of` and wildcard
        :meth:`incoming_group` read it).  Racing first calls may build it
        twice; one attribute store publishes it."""
        index = self._tail_labels_of
        if index is None:
            index = {}
            for (alpha, _beta), table in self._pair_tables.items():
                for head_id in table.heads:
                    index.setdefault(head_id, set()).add(alpha)
            self._tail_labels_of = index
        return index

    # ------------------------------------------------------------------
    # Metered reads
    # ------------------------------------------------------------------
    def _group_fetch(self, table: _PairTable, base: int):
        """Decode closure entries for one group slice (per block read)."""
        resolve = self._interner.resolve
        tails, dists, direct = table.tails, table.dists, table.direct

        def fetch(start: int, stop: int) -> tuple[LEntry, ...]:
            return tuple(
                (resolve(tails[k]), dists[k], bool(direct[k]))
                for k in range(base + start, base + stop)
            )

        return fetch

    def incoming_group(self, head: NodeId, tail_label: Label | None) -> BlockTable:
        """Open the ``L^alpha_v`` group for node ``head`` (metered open).

        With a concrete tail label this is an O(1) slice bound into the
        flat pair table; entries decode per block read.  With
        ``tail_label=None`` (wildcard parent) the groups for every tail
        label are merged into one distance-sorted virtual table.
        """
        self.counter.record_open()
        head_id = self._interner.get(head)
        if tail_label is not None:
            bounds = None
            if head_id is not None:
                table = self._pair_tables.get(
                    (tail_label, self._interner.label_of(head_id))
                )
                if table is not None:
                    bounds = table.group_bounds(head_id)
            if bounds is None:
                return BlockTable(
                    f"L/{_fmt(tail_label)}/?/{head!r}", (), self.counter,
                    self.directory.block_size,
                )
            start, stop = bounds
            name = (
                f"L/{_fmt(tail_label)}/{_fmt(self._graph.label(head))}/{head!r}"
            )
            return LazyBlockTable(
                name,
                stop - start,
                self._group_fetch(table, start),
                self.counter,
                self.directory.block_size,
            )
        merged: list[LEntry] = []
        if head_id is not None:
            for alpha in self._tail_label_index().get(head_id, ()):
                table = self._pair_tables[
                    (alpha, self._interner.label_of(head_id))
                ]
                start, stop = table.group_bounds(head_id)
                merged.extend(self._group_fetch(table, start)(0, stop - start))
        merged.sort(key=lambda e: (e[1], repr(e[0])))
        return BlockTable(
            f"L/*/{head!r}", merged, self.counter, self.directory.block_size
        )

    def read_pair_groups(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> Iterator[tuple[int, Sequence[int], Sequence[float]]]:
        """Read every ``L`` group of a label pair in id space (fully metered).

        This is the run-time-graph identification read of Section 3.1:
        each matching ``L^alpha_beta`` table is opened once and all of its
        blocks are read.  Yields ``(head, tails, distances)`` per head
        group, as ids of :attr:`interner`, in table order; ``direct_only``
        keeps only closure edges that are also data-graph edges (``/``
        axis) and skips groups it leaves empty.  The compiled kernel tier
        binds from this; :meth:`read_pair_table` decodes it to ``NodeId``
        triples.
        """
        block_size = self.directory.block_size
        for pair in self._pairs_matching(tail_label, head_label):
            table = self._pair_tables[pair]
            self.counter.record_open()
            self.counter.record_read(
                table.num_entries, table.num_blocks(block_size)
            )
            yield from table.groups(direct_only)

    def read_leaf_slots(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> list:
        """Read each ``L^alpha_beta`` table of a label pair as its memoized
        tail-major view, one per table, metered exactly as
        :meth:`read_pair_groups`: one open and every block per table.  A
        view (:func:`repro.compact.tailmajor.leaf_slots`) is the slots of
        an edge into an unweighted leaf under any query node, since
        ``repr((qnode, node))`` orders nodes as ``repr(node) + ")"`` does;
        the kernel bind rekeys it for any other edge.  The memo holds at
        most one copy of each table per ``direct_only`` value."""
        rank = self._interner.repr_rank()
        block_size = self.directory.block_size
        views = []
        for pair in self._pairs_matching(tail_label, head_label):
            table = self._pair_tables[pair]
            self.counter.record_open()
            self.counter.record_read(table.num_entries, table.num_blocks(block_size))
            views.append(unpack(table.leaf_memo(rank, direct_only)))
        return views

    def read_edge_views(
        self,
        tail_labels: tuple[Label, ...] | None,
        head_labels: tuple[Label, ...] | None,
        direct_only: bool = False,
    ) -> tuple[list, bool]:
        """The tables of every ``(tail label, head label)`` pair of one
        query edge as :func:`repro.compact.tailmajor.compose`-d views:
        ``(views, lone)``, one view per head label.  Each side is the
        tuple of data labels a query label expands to, or ``None`` for a
        wildcard.  Metered as :meth:`read_leaf_slots` of every pair,
        memo hit or not.  The composed views are memoized per
        ``(tail_labels, head_labels, direct_only)`` (tables never change,
        so the memo never goes stale): a head label read from one table
        shares that table's :meth:`_PairTable.leaf_memo`, one read from
        several is one packed joined copy, built in one pass from their
        groups (:func:`repro.compact.tailmajor.joined_slots`), not a view
        per table.  A wildcard tail joins per edge; an expanded tail side
        joins once for every head label its tables reach
        (:meth:`_joined_views`), which its later edges share.  Racing
        first calls may compose twice; one dict store publishes it."""
        key = (tail_labels, head_labels, direct_only)
        memo = self._edge_views.get(key)
        if memo is None:
            memo = self._compose_edge(tail_labels, head_labels, direct_only)
            self._edge_views[key] = memo
        packed, lone, opens, entries, blocks = memo
        self.counter.record_open(opens)
        self.counter.record_read(entries, blocks)
        return list(map(unpack, packed)), lone

    def _compose_edge(self, tail_labels, head_labels, direct_only: bool) -> tuple:
        """:meth:`read_edge_views`'s memo entry: the packed views, ``lone``,
        and the opens, entries and blocks to meter."""
        tables = []
        by_head: dict = {}
        for tail in _or_wildcard(tail_labels):
            for head in _or_wildcard(head_labels):
                for pair in self._pairs_matching(tail, head):
                    table = self._pair_tables[pair]
                    tables.append(table)
                    if table.has_rows(direct_only):
                        by_head.setdefault(pair[1], []).append((pair[0], table))
        rank = self._interner.repr_rank()
        joined = {}
        if any(len(group) > 1 for group in by_head.values()):
            joined = (
                self._join(by_head, direct_only) if tail_labels is None
                else self._joined_views(tail_labels, direct_only)
            )
        packed = tuple(
            joined[head] if len(by_head[head]) > 1
            else by_head[head][0][1].leaf_memo(rank, direct_only)
            for head in sorted(by_head, key=self._label_start)
        )
        block_size = self.directory.block_size
        return (
            packed,
            sum(map(len, by_head.values())) == 1,
            len(tables),
            sum(table.num_entries for table in tables),
            sum(table.num_blocks(block_size) for table in tables),
        )

    def _joined_views(self, tail_labels: tuple[Label, ...], direct_only: bool) -> dict:
        """Head label -> packed joined view, for every head label that
        several of ``tail_labels``' tables reach, built at once the first
        time an edge with this tail side needs one, and memoized.  An
        expanded tail side (a containment label) comes back with other
        head labels: one build over all its tables then takes the place
        of a cold build per head label, so after a few queries binding a
        fanned-out edge costs what a warm bind costs.  Racing first calls
        may build twice; one dict store publishes it."""
        key = (tail_labels, direct_only)
        joined = self._joined.get(key)
        if joined is None:
            wanted = set(tail_labels)
            by_head: dict = {}
            for pair, table in self._pair_tables.items():
                if pair[0] in wanted and table.has_rows(direct_only):
                    by_head.setdefault(pair[1], []).append((pair[0], table))
            joined = self._join(by_head, direct_only)
            self._joined[key] = joined
        return joined

    def _join(self, by_head: dict, direct_only: bool) -> dict:
        """Head label -> packed :func:`joined_slots` view of its
        ``(tail label, table)`` list, for the head labels with several."""
        rank = self._interner.repr_rank()
        joined = {}
        for head, group in by_head.items():
            if len(group) > 1:
                group = sorted(group, key=lambda entry: self._label_start(entry[0]))
                views = joined_slots([table.groups(direct_only) for _tail, table in group], rank)
                joined[head] = pack(views)
        return joined

    def _label_start(self, label: Label) -> int:
        """The first interned id of ``label``: labels' id order."""
        return self._interner.label_range(label).start

    def read_pair_table(
        self,
        tail_label: Label | None,
        head_label: Label | None,
        direct_only: bool = False,
    ) -> Iterator[tuple[NodeId, NodeId, float]]:
        """:meth:`read_pair_groups` as ``(tail, head, distance)`` triples."""
        return decode_pair_groups(
            self._interner.nodes(),
            self.read_pair_groups(tail_label, head_label, direct_only),
        )

    def read_d_table(
        self, tail_label: Label | None, head_label: Label | None
    ) -> dict[NodeId, float]:
        """Read ``D^alpha_beta`` (metered): node -> min incoming distance.

        The ``D`` value of a node is the first (minimum) distance of its
        group run.  Wildcards merge tables by taking the minimum per node.
        """
        resolve = self._interner.resolve
        block_size = self.directory.block_size
        result: dict[NodeId, float] = {}
        for pair in self._pairs_matching(tail_label, head_label):
            table = self._pair_tables[pair]
            self.counter.record_open()
            for start in range(0, table.num_groups, block_size):
                chunk_end = min(start + block_size, table.num_groups)
                self.counter.record_read(chunk_end - start)
                for j in range(start, chunk_end):
                    node = resolve(table.heads[j])
                    dist = table.dists[table.offsets[j]]
                    best = result.get(node)
                    if best is None or dist < best:
                        result[node] = dist
        return result

    def read_e_table(
        self, tail_label: Label | None, head_label: Label | None
    ) -> list[EEntry]:
        """Read ``E^alpha_beta`` (metered): min outgoing edge per source.

        With a wildcard head label, each source keeps its overall minimum
        outgoing closure edge.
        """
        resolve = self._interner.resolve
        block_size = self.directory.block_size
        merged: dict[NodeId, tuple[float, NodeId]] = {}
        for pair in self._pairs_matching(tail_label, head_label):
            table = self._pair_tables[pair]
            self.counter.record_open()
            count = len(table.e_tails)
            for start in range(0, count, block_size):
                chunk_end = min(start + block_size, count)
                self.counter.record_read(chunk_end - start)
                for k in range(start, chunk_end):
                    tail = resolve(table.e_tails[k])
                    dist = table.e_dists[k]
                    best = merged.get(tail)
                    if best is None or dist < best[0]:
                        merged[tail] = (dist, resolve(table.e_heads[k]))
        return [
            (tail, head, dist)
            for tail, (dist, head) in sorted(merged.items(), key=lambda kv: repr(kv[0]))
        ]

    # ------------------------------------------------------------------
    # Convenience probes (unmetered; used by verifiers and tests)
    # ------------------------------------------------------------------
    def distance(self, tail: NodeId, head: NodeId) -> float | None:
        """Shortest distance from ``tail`` to ``head`` (or ``None``)."""
        return self._closure.distance(tail, head)

    def has_direct_edge(self, tail: NodeId, head: NodeId) -> bool:
        """True when ``tail -> head`` is an edge of the data graph."""
        return self._graph.has_edge(tail, head)

    # ------------------------------------------------------------------
    # Size statistics (Table 2)
    # ------------------------------------------------------------------
    def size_statistics(self) -> dict[str, int]:
        """Entry/block counts by table family, for the Table 2 report."""
        block_size = self.directory.block_size
        stats = {
            "l_entries": 0,
            "l_blocks": 0,
            "d_entries": 0,
            "e_entries": 0,
        }
        for table in self._pair_tables.values():
            stats["l_entries"] += table.num_entries
            stats["l_blocks"] += table.num_blocks(block_size)
            stats["d_entries"] += table.num_groups
            stats["e_entries"] += len(table.e_tails)
        stats["total_entries"] = (
            stats["l_entries"] + stats["d_entries"] + stats["e_entries"]
        )
        return stats

    def estimated_bytes(self, bytes_per_entry: int = 12) -> int:
        """Rough on-disk size (the paper's GB column) from entry counts."""
        if bytes_per_entry <= 0:
            raise ClosureError("bytes_per_entry must be positive")
        return self.size_statistics()["total_entries"] * bytes_per_entry

    def bytes_resident(self) -> int:
        """Measured in-memory bytes of the columnar table buffers."""
        return sum(
            table.bytes_resident() for table in self._pair_tables.values()
        )

    def stats(self) -> dict:
        """Uniform size/cost statistics (shared schema across backends)."""
        return {
            "pair_count": self._closure.num_pairs,
            "bytes_estimate": self.bytes_resident(),
            "build_seconds": self._closure.build_seconds,
        }
