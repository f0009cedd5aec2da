"""Global top-k merging of per-shard partial results.

The scatter phase gives each routed shard's local top-k (or a lazy local
stream); the gather phase here folds them into one globally-correct,
*deterministic* answer:

* **Dedup** — a match whose root lies in one shard can also appear in
  another shard's closed member set (replicated via the forward
  closure); the merge keeps exactly one copy per assignment.
* **Tie-breaking** — within one score, matches are ordered by the
  canonical assignment key (``repr``-sorted ``(query node, data node)``
  pairs, each data node compared through :func:`node_key`, which orders
  node ids of different types too), so the merged sequence is a pure
  function of the match *set*,
  independent of shard count, arrival order, or which enumerator
  produced each partial.  Single-engine runs may break boundary-score
  ties differently (their order is enumeration-internal), which is why
  the differential suite compares the exact scores plus the exact
  assignment set below the boundary — the same contract the unsharded
  backends are held to among themselves.

:func:`merge_topk` is the eager k-heap path (``heapq.merge`` over
key-sorted partials); :class:`ShardedResultStream` is the lazy one,
draining per-shard :class:`~repro.engine.stream.ResultStream` objects
one score group at a time so a caller who stops early never pays for
deeper enumeration in any shard.
"""

from __future__ import annotations

import heapq
from decimal import Decimal
from numbers import Real
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.core.matches import Match


_first = itemgetter(0)
#: Number types that compare with ints (``Decimal`` is no ``Real``).
_NUMBERS = (Real, Decimal)


def node_key(node) -> tuple:
    """``node`` as a sort key that orders node ids of any mix of types.

    Numbers (any ``numbers.Real``, numpy scalars included, or
    ``Decimal``), strings and tuples (element by element) each form one
    kind and compare natively within it, so wherever two ids compare
    natively, their keys compare the same way; ids of different kinds
    order by kind (numbers, strings, tuples, then other types by
    qualified type name).  Two ids of one other type still compare
    natively.
    """
    if isinstance(node, str):
        return ("1", node)
    if isinstance(node, (int, float)):
        return ("0", node)
    if isinstance(node, tuple):
        return ("2", tuple(map(node_key, node)))
    if isinstance(node, _NUMBERS):
        return ("0", node)
    kind = type(node)
    return ("3" + kind.__module__ + "." + kind.__qualname__, node)


def assignment_key(match: Match) -> tuple:
    """Canonical identity of a match: its ``repr``-sorted assignment,
    each data node as its :func:`node_key`."""
    return tuple(
        (name, node_key(node))
        for name, node in sorted(match.assignment.items(), key=repr)
    )


def match_key(match: Match) -> tuple:
    """Total deterministic order: score first, then assignment identity."""
    return (match.score, assignment_key(match))


def _pair_order(query_nodes: tuple) -> tuple | None:
    """``query_nodes`` in the order :func:`assignment_key` sorts their
    pairs, or ``None`` when the data nodes could decide that order.

    ``repr((q, d))`` is ``"(" + repr(q) + ", " + repr(d) + ")"``, so two
    pairs compare as their query nodes' reprs do unless one of those
    reprs is equal to or a prefix of the other.  Sorted adjacent reprs
    are enough to rule out every such pair.
    """
    reprs = sorted(map(repr, query_nodes))
    if any(longer.startswith(shorter) for shorter, longer in zip(reprs, reprs[1:])):
        return None
    return tuple(sorted(query_nodes, key=repr))


def _keyed_run(partial: Sequence[Match], orders: dict) -> list[tuple]:
    """``(match_key(match), match)`` pairs sorted by key.

    The matches of one query share their query nodes, so the ``repr``
    sort of the pairs is done once per distinct node tuple (cached in
    ``orders``) and each key is built by indexing the assignment in that
    order; the key equals :func:`match_key`'s.
    """
    run = []
    for match in partial:
        assignment = match.assignment
        names = tuple(assignment)
        if names not in orders:
            orders[names] = _pair_order(names)
        order = orders[names]
        if order is None:
            key = match_key(match)
        else:
            key = (match.score, tuple([(name, node_key(assignment[name])) for name in order]))
        run.append((key, match))
    run.sort(key=_first)
    return run


def merge_topk(partials: Sequence[Sequence[Match]], k: int) -> list[Match]:
    """The global top-k of several per-shard top-k lists.

    Each partial must already be score-sorted (engine output is); the
    merge is a k-way heap over key-sorted runs with adjacent dedup, so
    the result is deterministic regardless of how many shards produced
    which subsets.  Every match's :func:`match_key` is computed once and
    carried through the sort, the heap and the dedup as ``(key, match)``.
    """
    if k <= 0:
        return []
    orders: dict = {}
    runs = [_keyed_run(partial, orders) for partial in partials if partial]
    merged: list[Match] = []
    previous_key = None
    for key, match in heapq.merge(*runs, key=_first):
        if key == previous_key:
            continue
        previous_key = key
        merged.append(match)
        if len(merged) == k:
            break
    return merged


class _PeekableStream:
    """One-element lookahead over a per-shard lazy result stream."""

    __slots__ = ("_stream", "_head")

    def __init__(self, stream) -> None:
        self._stream = stream
        self._head = stream.next()

    def peek(self) -> Match | None:
        return self._head

    def pop(self) -> Match:
        head = self._head
        self._head = self._stream.next()
        return head


class ShardedResultStream:
    """Lazy, deterministic merge of per-shard result streams.

    Mirrors the :class:`~repro.engine.stream.ResultStream` consumption
    API (``next()`` / iteration / ``take(n)``): matches surface in
    global best-first order, one *score group* at a time.  A group is
    complete only once every shard's stream has advanced past that
    score, so within-group ordering can be canonicalized (and
    cross-shard duplicates dropped) without ever looking deeper than the
    current score in any shard — the optimal-enumeration property
    survives sharding.
    """

    def __init__(self, streams: Iterable) -> None:
        self._streams = [_PeekableStream(stream) for stream in streams]
        self._buffer: list[Match] = []
        self._position = 0
        self._consumed = 0

    @property
    def consumed(self) -> int:
        """How many matches this stream has returned."""
        return self._consumed

    # ------------------------------------------------------------------
    def _fill_group(self) -> None:
        """Pull the next complete score group into the buffer."""
        live = [s for s in self._streams if s.peek() is not None]
        if not live:
            return
        best = min(stream.peek().score for stream in live)
        group: dict[tuple, Match] = {}
        for stream in live:
            while (head := stream.peek()) is not None and head.score == best:
                group.setdefault(assignment_key(head), stream.pop())
        self._buffer = [group[key] for key in sorted(group)]
        self._position = 0

    def next(self) -> Match | None:
        """The next best global match, or ``None`` when exhausted."""
        if self._position >= len(self._buffer):
            self._fill_group()
        if self._position >= len(self._buffer):
            return None
        match = self._buffer[self._position]
        self._position += 1
        self._consumed += 1
        return match

    def __next__(self) -> Match:
        match = self.next()
        if match is None:
            raise StopIteration
        return match

    def __iter__(self) -> Iterator[Match]:
        return self

    def take(self, n: int) -> list[Match]:
        """The next ``n`` matches (fewer when enumeration runs dry)."""
        out: list[Match] = []
        while len(out) < n:
            match = self.next()
            if match is None:
                break
            out.append(match)
        return out
