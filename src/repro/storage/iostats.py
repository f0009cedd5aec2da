"""I/O accounting for the simulated block store.

The paper evaluates disk-resident closure tables and reports I/O time
separately from CPU time (Figures 6(c)-(f)).  We keep everything in RAM
but *meter* every block access through an :class:`IOCounter`; an
:class:`IOCostModel` converts block counts into simulated I/O seconds so
benchmarks can print the same CPU/I-O split the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IOCounter:
    """Mutable counters of simulated storage traffic."""

    blocks_read: int = 0
    entries_read: int = 0
    tables_opened: int = 0

    def record_read(self, num_entries: int, blocks: int = 1) -> None:
        """Account ``blocks`` block reads holding ``num_entries`` entries."""
        self.blocks_read += blocks
        self.entries_read += num_entries

    def record_open(self, tables: int = 1) -> None:
        """Account ``tables`` table opens (directory lookups)."""
        self.tables_opened += tables

    def reset(self) -> None:
        """Zero all counters."""
        self.blocks_read = 0
        self.entries_read = 0
        self.tables_opened = 0

    def snapshot(self) -> "IOCounter":
        """Return an immutable-ish copy of the current counters."""
        return IOCounter(
            blocks_read=self.blocks_read,
            entries_read=self.entries_read,
            tables_opened=self.tables_opened,
        )

    def delta_since(self, earlier: "IOCounter") -> "IOCounter":
        """Return the counter difference ``self - earlier``."""
        return IOCounter(
            blocks_read=self.blocks_read - earlier.blocks_read,
            entries_read=self.entries_read - earlier.entries_read,
            tables_opened=self.tables_opened - earlier.tables_opened,
        )


@dataclass(frozen=True)
class IOCostModel:
    """Turns block counts into simulated I/O seconds.

    Defaults approximate a cached/SSD-like store: a block transfer costs
    about twice a table/group seek.  (The paper's tables are laid out in
    contiguous sorted blocks, so sequential scans amortize seeks while the
    priority-based algorithms pay one seek per group they touch.)
    """

    seconds_per_block: float = 2e-4
    seconds_per_open: float = 1e-4

    def io_seconds(self, counter: IOCounter) -> float:
        """Simulated I/O time for the traffic in ``counter``."""
        return (
            counter.blocks_read * self.seconds_per_block
            + counter.tables_opened * self.seconds_per_open
        )
