"""The in-memory delta log: ordered pending records + optional WAL.

A :class:`DeltaLog` is the write side of the overlay: every
``MatchService.apply_updates`` batch lands here as one *version* (a
monotonically increasing batch counter).  When a WAL is attached,
records hit the segment file *before* they become visible in memory —
write-ahead in the literal sense — so any state a reader can observe
is recoverable.

Folding (materialization or compaction) drains the pending records but
only a compaction truncates the WAL: an in-memory fold does not change
what is on disk, so after a crash the segment still replays onto the
on-disk base and converges to the same graph.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.delta.records import DeltaRecord
from repro.delta.wal import WriteAheadLog
from repro.devtools.lockcheck import make_lock
from repro.exceptions import DeltaError


class DeltaLog:
    """Thread-safe ordered log of pending delta records.

    ``version`` counts batches ever appended (including recovered and
    already-folded ones); ``pending_records``/``pending_batches`` count
    only what has not been folded into an engine yet.
    """

    def __init__(self, wal: WriteAheadLog | None = None) -> None:
        self.wal = wal
        self._lock = make_lock("delta.log")
        self._batches: list[tuple[DeltaRecord, ...]] = []
        self._version = 0
        self._folded_records = 0
        self._folds = 0

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        return self._version

    @property
    def pending_batches(self) -> int:
        return len(self._batches)

    @property
    def pending_records(self) -> int:
        with self._lock:
            return sum(len(batch) for batch in self._batches)

    @property
    def folded_records(self) -> int:
        return self._folded_records

    def append(self, records: Iterable[DeltaRecord]) -> int:
        """Append one batch (WAL first, then memory); returns its version.

        A WAL append that fails (unencodable ids, closed segment) leaves
        the log untouched — nothing becomes visible that is not durable.
        """
        batch = tuple(records)
        if not batch:
            raise DeltaError("a delta batch must contain at least one record")
        if self.wal is not None:
            self.wal.append(batch)
        with self._lock:
            self._batches.append(batch)
            self._version += 1
            return self._version

    def adopt(self, records: Sequence[DeltaRecord]) -> int:
        """Append recovered records as one pending batch, memory only.

        Used at boot: the records were just read *from* the WAL, so
        writing them back would double them up.  No-op on an empty
        sequence; returns the resulting version.
        """
        batch = tuple(records)
        with self._lock:
            if batch:
                self._batches.append(batch)
                self._version += 1
            return self._version

    def records(self) -> tuple[DeltaRecord, ...]:
        """All pending records, oldest first."""
        with self._lock:
            return tuple(
                record for batch in self._batches for record in batch
            )

    def drain(self) -> tuple[DeltaRecord, ...]:
        """Atomically take every pending record (the fold step).

        The WAL is deliberately left alone — call
        ``wal.rewrite((), generation=...)`` only once the fold has been
        made durable (a new ``.ridx`` generation), or crash recovery
        would lose the drained records.
        """
        with self._lock:
            drained = tuple(
                record for batch in self._batches for record in batch
            )
            self._folded_records += len(drained)
            if drained:
                self._folds += 1
            self._batches.clear()
            return drained

    def stats(self) -> dict:
        with self._lock:
            pending = sum(len(batch) for batch in self._batches)
            batches = len(self._batches)
        return {
            "version": self._version,
            "pending_records": pending,
            "pending_batches": batches,
            "folded_records": self._folded_records,
            "folds": self._folds,
            "wal": None if self.wal is None else self.wal.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaLog(version={self._version}, "
            f"pending_batches={self.pending_batches}, "
            f"wal={self.wal is not None})"
        )
