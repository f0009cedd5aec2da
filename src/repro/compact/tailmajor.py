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
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Iterable, Sequence


def leaf_slots(groups: Iterable[tuple[int, Sequence[int], Sequence[float]]], rank: Sequence[int]):
    """The view of ``groups``: the slots of an edge into an unweighted
    leaf, whose children are all the heads it reaches."""
    groups = sorted(groups, key=lambda group: rank[group[0]])
    parents: list[int] = []
    keys: list[float] = []
    childs: list[int] = []
    for child, (_head, tails, dists) in enumerate(groups):
        parents += tails
        keys += [0.0 + dist for dist in dists]
        childs += [child] * len(tails)
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
        array("q", [group[0] for group in groups]),
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
