"""Array-backed transitive-closure rows.

One :class:`ClosureRows` holds, per closure source, the parallel
``(target_id, dist)`` arrays produced by the CSR searches — the compact
replacement for the historical dict-of-dicts distance rows.  Targets
are id-sorted, so point lookups are binary searches and per-label
target runs are contiguous slices.

Rows are immutable once built; sharing a row between two instances
(the incremental-refresh path) is safe and free.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping

from repro.compact.csr import CompactGraph

#: One row: (id-sorted target ids, aligned distances).
Row = tuple[array, array]


class ClosureRows:
    """Per-source parallel (target, dist) arrays, keyed by interned id."""

    __slots__ = ("_rows", "_num_pairs")

    def __init__(self, rows: dict[int, Row]) -> None:
        self._rows = rows
        self._num_pairs = sum(len(t) for t, _ in rows.values())

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, cgraph: CompactGraph, source_ids: Iterable[int] | None = None
    ) -> "ClosureRows":
        """Run one CSR search per source (all nodes when ``None``)."""
        ids = range(cgraph.num_nodes) if source_ids is None else sorted(source_ids)
        return cls(cgraph.shortest_rows(ids))

    @classmethod
    def from_flat(
        cls, sources, row_offsets, targets, dists
    ) -> "ClosureRows":
        """Adopt one flat ``(targets, dists)`` run per source (mmap path).

        ``row_offsets[k]:row_offsets[k+1]`` bounds the run of
        ``sources[k]`` inside the flat ``targets``/``dists`` buffers.
        Rows become zero-copy slices of the supplied buffers, so a
        memory-mapped closure pages in per row on first touch.
        """
        rows: dict[int, Row] = {}
        for k, source in enumerate(sources):
            lo, hi = row_offsets[k], row_offsets[k + 1]
            rows[source] = (targets[lo:hi], dists[lo:hi])
        return cls(rows)

    @classmethod
    def from_interned_mapping(
        cls, mapping: Mapping[int, Mapping[int, float]]
    ) -> "ClosureRows":
        """Encode already-interned ``{source: {target: dist}}`` rows."""
        rows: dict[int, Row] = {}
        for source in sorted(mapping):
            targets = array("i")
            dists = array("d")
            for target in sorted(mapping[source]):
                targets.append(target)
                dists.append(mapping[source][target])
            rows[source] = (targets, dists)
        return cls(rows)

    def replaced(self, updates: dict[int, Row]) -> "ClosureRows":
        """These rows with ``updates`` swapped in, every other row shared.
        Sources stay ascending: a source new to the rows re-sorts them."""
        rows = self._rows
        num_pairs = self._num_pairs
        for source, (targets, _dists) in updates.items():
            old = rows.get(source)
            num_pairs += len(targets) - (len(old[0]) if old is not None else 0)
        merged = {**rows, **updates}
        if len(merged) > len(rows):
            merged = dict(sorted(merged.items()))
        self = ClosureRows.__new__(ClosureRows)
        self._rows = merged
        self._num_pairs = num_pairs
        return self

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_pairs(self) -> int:
        """Total (source, target) pairs across all rows."""
        return self._num_pairs

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, source_id: int) -> bool:
        return source_id in self._rows

    def sources(self) -> Iterator[int]:
        """Iterate source ids (ascending — rows are built in id order)."""
        return iter(self._rows)

    def row(self, source_id: int) -> Row | None:
        """The ``(targets, dists)`` arrays of a source, or ``None``."""
        return self._rows.get(source_id)

    def get(self, source_id: int, target_id: int) -> float | None:
        """Point lookup ``dist(source, target)`` via binary search."""
        row = self._rows.get(source_id)
        if row is None:
            return None
        targets, dists = row
        k = bisect_left(targets, target_id)
        if k < len(targets) and targets[k] == target_id:
            return dists[k]
        return None

    def pairs(self) -> Iterator[tuple[int, int, float]]:
        """Iterate interned ``(source, target, dist)`` triples, id order."""
        for source, (targets, dists) in self._rows.items():
            for k in range(len(targets)):
                yield source, targets[k], dists[k]

    # ------------------------------------------------------------------
    def bytes_resident(self) -> int:
        """Measured bytes: array buffers + container overhead.

        Memory-mapped rows (memoryview slices over an ``mmap``) report
        their mapped length — the index-size statistic stays comparable
        across in-memory and mmap-backed closures, while actual residency
        is the OS page cache's business (the cold-start bench reports RSS
        separately).
        """
        total = sys.getsizeof(self._rows)
        for row in self._rows.values():
            targets, dists = row
            total += sys.getsizeof(row)
            # getsizeof(array) includes the allocated element buffer;
            # memoryviews report their mapped extent instead.
            total += buffer_bytes(targets) + buffer_bytes(dists)
        return total


def buffer_bytes(buf) -> int:
    """Size of a typed buffer: allocated bytes or mapped extent."""
    if isinstance(buf, memoryview):
        return buf.nbytes
    return sys.getsizeof(buf)
