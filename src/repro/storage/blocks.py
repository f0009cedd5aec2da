"""Block-organized tables simulating the paper's disk layout.

Sections 3.1 and 4.1 store closure tables on disk: each table is a list of
fixed-size tuples packed into blocks, and algorithms pay I/O per block
read.  :class:`BlockTable` reproduces that interface in memory: entries
are only reachable through :meth:`read_block` / :meth:`iter_blocks`, and
every access is metered through a shared :class:`~repro.storage.iostats.IOCounter`.

Entries of a table may be kept sorted (the paper stores each ``L^alpha_v``
group "in a non-decreasing order based on their shortest distances").
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.exceptions import StorageError
from repro.storage.iostats import IOCounter

DEFAULT_BLOCK_SIZE = 64


class BlockTable:
    """An immutable sequence of entries packed into fixed-size blocks."""

    def __init__(
        self,
        name: str,
        entries: Sequence[Any],
        counter: IOCounter,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size <= 0:
            raise StorageError(f"block size must be positive, got {block_size}")
        self.name = name
        self._entries: tuple[Any, ...] = tuple(entries)
        self._counter = counter
        self.block_size = block_size

    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Total number of entries stored."""
        return len(self._entries)

    @property
    def num_blocks(self) -> int:
        """Number of blocks occupied (at least 1 block when non-empty)."""
        if not self._entries:
            return 0
        return (len(self._entries) + self.block_size - 1) // self.block_size

    def read_block(self, index: int) -> tuple[Any, ...]:
        """Read block ``index`` (0-based), metering one block I/O."""
        if index < 0 or index >= max(self.num_blocks, 1):
            raise StorageError(
                f"block {index} out of range for table {self.name!r} "
                f"({self.num_blocks} blocks)"
            )
        start = index * self.block_size
        chunk = self._entries[start : start + self.block_size]
        self._counter.record_read(len(chunk))
        return chunk

    def iter_blocks(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over all blocks, metering each read."""
        for index in range(self.num_blocks):
            yield self.read_block(index)

    def read_all(self) -> tuple[Any, ...]:
        """Read the full table (every block is metered)."""
        out: list[Any] = []
        for block in self.iter_blocks():
            out.extend(block)
        return tuple(out)

    def peek_unmetered(self) -> tuple[Any, ...]:
        """Access entries without metering — for tests/statistics only."""
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockTable({self.name!r}, entries={self.num_entries}, "
            f"blocks={self.num_blocks})"
        )


class LazyBlockTable:
    """Block-table interface over entries decoded on demand.

    The columnar closure store keeps its entries as flat typed arrays;
    opening a group is an O(1) slice bound, not a list construction.
    This table materializes entry tuples only for the block actually
    read: ``fetch(start, stop)`` must return the decoded entries of the
    half-open range relative to the table (0-based).  Metering is
    identical to :class:`BlockTable`.
    """

    __slots__ = ("name", "block_size", "_counter", "_length", "_fetch")

    def __init__(
        self,
        name: str,
        length: int,
        fetch,
        counter: IOCounter,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size <= 0:
            raise StorageError(f"block size must be positive, got {block_size}")
        self.name = name
        self.block_size = block_size
        self._counter = counter
        self._length = length
        self._fetch = fetch

    @property
    def num_entries(self) -> int:
        """Total number of entries stored."""
        return self._length

    @property
    def num_blocks(self) -> int:
        """Number of blocks occupied (at least 1 block when non-empty)."""
        if not self._length:
            return 0
        return (self._length + self.block_size - 1) // self.block_size

    def read_block(self, index: int) -> tuple[Any, ...]:
        """Read block ``index`` (0-based), metering one block I/O."""
        if index < 0 or index >= max(self.num_blocks, 1):
            raise StorageError(
                f"block {index} out of range for table {self.name!r} "
                f"({self.num_blocks} blocks)"
            )
        start = index * self.block_size
        chunk = self._fetch(start, min(start + self.block_size, self._length))
        self._counter.record_read(len(chunk))
        return chunk

    def iter_blocks(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over all blocks, metering each read."""
        for index in range(self.num_blocks):
            yield self.read_block(index)

    def read_all(self) -> tuple[Any, ...]:
        """Read the full table (every block is metered)."""
        out: list[Any] = []
        for block in self.iter_blocks():
            out.extend(block)
        return tuple(out)

    def peek_unmetered(self) -> tuple[Any, ...]:
        """Access entries without metering — for tests/statistics only."""
        return self._fetch(0, self._length)

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazyBlockTable({self.name!r}, entries={self.num_entries}, "
            f"blocks={self.num_blocks})"
        )


class TableDirectory:
    """A named collection of :class:`BlockTable` sharing one I/O counter.

    Mimics a directory of table files: opening a table is metered once and
    missing tables yield an empty table (the paper's stores simply have no
    file for label pairs that never co-occur).
    """

    def __init__(self, counter: IOCounter | None = None,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        self.counter = counter if counter is not None else IOCounter()
        self.block_size = block_size
        self._tables: dict[str, BlockTable] = {}

    def create(self, name: str, entries: Sequence[Any]) -> BlockTable:
        """Create (or replace) the table ``name`` with ``entries``."""
        table = BlockTable(name, entries, self.counter, self.block_size)
        self._tables[name] = table
        return table

    def open(self, name: str) -> BlockTable:
        """Open table ``name`` (metered); empty table when absent."""
        self.counter.record_open()
        table = self._tables.get(name)
        if table is None:
            table = BlockTable(name, (), self.counter, self.block_size)
            # Do not cache phantom tables: creation may follow later.
        return table

    def exists(self, name: str) -> bool:
        """True when table ``name`` was created (not metered)."""
        return name in self._tables

    def names(self) -> list[str]:
        """All created table names (not metered)."""
        return sorted(self._tables)

    def total_entries(self) -> int:
        """Total entries across tables (storage-size statistic)."""
        return sum(t.num_entries for t in self._tables.values())

    def total_blocks(self) -> int:
        """Total blocks across tables (storage-size statistic)."""
        return sum(t.num_blocks for t in self._tables.values())
