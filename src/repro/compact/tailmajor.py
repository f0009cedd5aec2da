"""Tail-major slot rows: closure groups re-dealt per tail, in tie order.

The kernel bind turns the ``(head, tails, distances)`` groups of one
query edge into per-tail runs sorted on ``(base[child] + dist, child)``,
where a child is a head's index in :meth:`NodeInterner.repr_rank` order.
Each run is the tail's slot in the interpreter's ``(key, repr)`` tie
order.  A *view* is the tuple ``(heads, keys, childs, offsets, at)``:
head ids in child order (``array('q')``), the rows' keys and child
indexes tail-major (``array('d')``, ``array('q')``), and the run of tail
``t`` at ``offsets[at[t]]:offsets[at[t] + 1]``, tails in rank order.
Rows are gathered per group and dealt to tails by one stable sort on
the key, without a tuple per row.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Callable, Iterable, Sequence


def tail_major(
    groups: Iterable[tuple[int, Sequence[int], Sequence[float]]],
    child_of: dict[int, int],
    bases: Sequence[float] | None,
    rank: Sequence[int],
) -> tuple[array, array, array, dict[int, int]]:
    """``(keys, childs, offsets, at)`` of the groups whose head is in
    ``child_of`` (head id -> child index); a row's key is ``bases[child] +
    dist`` (``0.0 + dist`` when ``bases`` is ``None``)."""
    ranked = sorted(
        ((child_of[head], tails, dists) for head, tails, dists in groups if head in child_of),
        key=itemgetter(0),
    )
    parents: list[int] = []
    keys: list[float] = []
    childs: list[int] = []
    for child, tails, dists in ranked:
        base = 0.0 if bases is None else bases[child]
        parents += tails
        keys += [base + dist for dist in dists]
        childs += [child] * len(tails)
    # Rows are in child order: a stable sort on the key deals each tail
    # its rows in (key, child) order.
    rows_of: dict[int, list[int]] = {}
    for row in sorted(range(len(keys)), key=keys.__getitem__):
        rows = rows_of.get(parents[row])
        if rows is None:
            rows_of[parents[row]] = [row]
        else:
            rows.append(row)
    tails = sorted(rows_of, key=rank.__getitem__)
    picked: list[int] = []
    offsets = [0]
    for tail in tails:
        picked += rows_of[tail]
        offsets.append(len(picked))
    return (
        array("d", [keys[row] for row in picked]),
        array("q", [childs[row] for row in picked]),
        array("q", offsets),
        dict(zip(tails, range(len(tails)))),
    )


def leaf_slots(groups, rank: Sequence[int], weight: Callable[[int], float] | None = None):
    """The view of an edge into a leaf, whose children are all the heads
    it reaches, each with its node weight (``weight(head)``) as ``bs``."""
    groups = list(groups)
    heads = array("q", sorted({group[0] for group in groups}, key=rank.__getitem__))
    bases = None if weight is None else [weight(head) for head in heads]
    return (heads,) + tail_major(groups, dict(zip(heads, range(len(heads)))), bases, rank)
