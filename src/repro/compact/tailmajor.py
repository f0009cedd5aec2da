"""Tail-major slot rows: closure groups re-dealt per tail, in tie order.

The kernel bind reads each ``L`` pair table as the ``(head, tails,
distances)`` groups of one query edge re-dealt into per-tail runs sorted
on ``(0.0 + dist, head)``, where a head is its index in
:meth:`NodeInterner.repr_rank` order.  A *view* is the tuple ``(heads,
keys, childs, offsets, tails, lows)`` of arrays (or read-only views of
them): head ids in rank order, the rows' keys and head indexes
tail-major, the run of ``tails[j]`` at ``offsets[j]:offsets[j + 1]``
with tails in id order (so a tail is found by bisection), and
``lows[j]``, the least key of that run.  Rows are gathered per group
and dealt to tails by one stable sort on the key, without a tuple per
row.  :func:`pack` turns a view into one ``bytes`` object and a few
ints, which the garbage collector does not track.

An edge whose query labels expand to several data labels reads several
tables; :func:`compose` groups their views per head label and joins
each group into one view (:func:`join`), which is what the bind reads.
:func:`joined_slots` builds such a joined view straight from the
tables' groups, without a view per table.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, repeat
from operator import add
from typing import Callable, Iterable, Sequence


Groups = Iterable[tuple[int, Sequence[int], Sequence[float]]]


def leaf_slots(groups: Groups, rank: Sequence[int]):
    """The view of ``groups``: the slots of an edge into an unweighted
    leaf, whose children are all the heads it reaches."""
    return joined_slots((groups,), rank)


def joined_slots(tables: Iterable[Groups], rank: Sequence[int]):
    """One view of several tables' groups whose tails are disjoint, given
    in tail-id order: exactly :func:`join` of their :func:`leaf_slots`
    views, built in one pass (each table's heads in rank order, after
    the tables before it)."""
    heads: list[int] = []
    parents: list[int] = []
    keys: list[float] = []
    childs: list[int] = []
    for groups in tables:
        for head, tails, dists in sorted(groups, key=lambda group: rank[group[0]]):
            childs += [len(heads)] * len(tails)
            heads.append(head)
            parents += tails
            keys += [0.0 + dist for dist in dists]
    # Rows are in head order: a stable sort on the key deals each tail
    # its rows in (key, head) order.
    rows_of: dict[int, list[int]] = {}
    for row in sorted(range(len(keys)), key=keys.__getitem__):
        rows = rows_of.get(parents[row])
        if rows is None:
            rows_of[parents[row]] = [row]
        else:
            rows.append(row)
    tails = sorted(rows_of)
    picked: list[int] = []
    offsets = [0]
    for tail in tails:
        picked += rows_of[tail]
        offsets.append(len(picked))
    keys = [keys[row] for row in picked]
    return (
        array("q", heads),
        array("d", keys),
        array("q", [childs[row] for row in picked]),
        array("q", offsets),
        array("q", tails),
        array("d", map(keys.__getitem__, offsets[:-1])),
    )


def pack(view) -> tuple:
    """``view`` as its columns' bytes joined, then where each column
    after the first starts; :func:`unpack` turns it back into arrays."""
    chunks = [column.tobytes() for column in view]
    return (b"".join(chunks), *accumulate(map(len, chunks[:-1])))


def unpack(packed: tuple):
    """Read-only array views of a :func:`pack`-ed view, copying nothing."""
    columns, a, b, c, d, e = packed
    view = memoryview(columns)
    return (
        view[:a].cast("q"), view[a:b].cast("d"), view[b:c].cast("q"),
        view[c:d].cast("q"), view[d:e].cast("q"), view[e:].cast("d"),
    )


def join(views):
    """One view of a head label's tables under distinct tail labels, whose
    tails are disjoint: their columns concatenated in tail-id order (a
    label's ids are one range), each table's head indexes and run
    offsets shifted past the tables before it.  A lone view is returned
    as it is."""
    if len(views) == 1:
        return views[0]
    heads, keys, childs, offsets, tails, lows = map(array, "qdqqqd")
    offsets.append(0)
    for view in sorted(views, key=lambda view: view[4][0]):
        childs.extend(map(add, view[2], repeat(len(heads))))
        offsets[-1:] = array("q", map(add, view[3], repeat(len(keys))))
        for column, part in zip((heads, keys, tails, lows), (view[0], view[1], view[4], view[5])):
            column.frombytes(memoryview(part).cast("B"))
    return heads, keys, childs, offsets, tails, lows


def compose(views: Iterable, label_of: Callable[[int], object]) -> tuple[list, bool]:
    """The views one query edge reads, composed: ``(groups, lone)``.

    Empty views are dropped; the rest are grouped by the label of their
    first head and each group is :func:`join`-ed, so a tail's rows under
    one head label sit in one run; across head labels its runs merge when
    its slot is sorted.  Groups are ordered by first head id, which is
    head-label order, whatever order the tables were read in.  ``lone``
    is true when exactly one table had rows: its heads are then exactly
    the edge's children, in rank order."""
    views = [view for view in views if len(view[0])]
    by_label: dict = {}
    for view in views:
        by_label.setdefault(label_of(view[0][0]), []).append(view)
    groups = sorted(map(join, by_label.values()), key=lambda view: view[0][0])
    return groups, len(views) == 1
