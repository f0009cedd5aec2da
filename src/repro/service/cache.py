"""Thread-safe caches of the serving layer: plans and results.

Two caches with different lifecycles:

* the plan cache — a plain :class:`LRUCache` holding ``(compiled
  query, plan)`` tuples keyed by ``canonical DSL x k x algorithm x
  engine config``.  Plans depend only on label counts (never on edges),
  so edge-level updates keep every entry valid; node additions clear it.
* :class:`ResultCache` — LRU over finished top-k answers, keyed by
  ``(snapshot epoch, canonical DSL, k, algorithm)``.  Epochs make
  snapshot isolation free: an in-flight request on an old snapshot can
  only ever fill (and hit) old-epoch keys.  On an update the cache
  *migrates* entries whose query labels are provably untouched to the
  new epoch and drops the rest — the selective invalidation the
  incremental closure refresh enables.

Both keep hit/miss/eviction counters that :meth:`MatchService.statistics`
surfaces, and both are safe to use from many threads (one lock per cache;
every operation is O(1) or O(entries) for migrations).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from repro.devtools.lockcheck import make_lock


class CacheStats:
    """Monotonic counters of one cache (read without the cache lock)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class LRUCache:
    """A small thread-safe LRU map (the plan cache's engine room)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = make_lock("service.cache")
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> dict:
        """Size, capacity and counters: one ``statistics()`` cache entry."""
        return {"entries": len(self), "capacity": self.capacity, **self.stats.as_dict()}

    def get(self, key: Hashable):
        """The cached value, or ``None`` (counts a hit/miss)."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``; evicts the least recently used entry."""
        if value is None:
            raise ValueError("cache values must not be None")
        if not self.enabled:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped


class ResultEntry:
    """One cached answer: the frozen matches, the query's label footprint
    (``labels=None`` = not exact — wildcards, containment, cyclic — so
    the entry must be dropped on any graph update), and the algorithm
    that produced it (so cache hits report the same provenance as the
    original miss)."""

    __slots__ = ("matches", "labels", "algorithm")

    def __init__(
        self,
        matches: tuple,
        labels: frozenset | None,
        algorithm: str | None = None,
    ) -> None:
        self.matches = matches
        self.labels = labels
        self.algorithm = algorithm


class ResultCache(LRUCache):
    """Epoch-aware LRU over finished top-k answers.

    A thin layer over :class:`LRUCache`: keys are ``(epoch,
    request_key)`` tuples and values are :class:`ResultEntry` objects.
    Readers always ask with their snapshot's epoch, so answers computed
    against an old graph version can never serve a request on a newer
    one — even when an update races with in-flight requests that insert
    after the swap.
    """

    def lookup(self, epoch: int, key: Hashable) -> ResultEntry | None:
        """The cached :class:`ResultEntry` for ``key`` at ``epoch``."""
        return super().get((epoch, key))

    def store(
        self,
        epoch: int,
        key: Hashable,
        matches: tuple,
        labels: frozenset | None,
        algorithm: str | None = None,
    ) -> None:
        """Cache ``matches`` with the query's label footprint.

        ``labels`` drives selective invalidation on updates: pass the
        exact set of data labels the query can touch, or ``None`` when
        the footprint is not statically known.
        """
        super().put((epoch, key), ResultEntry(tuple(matches), labels, algorithm))

    def advance(
        self,
        old_epoch: int,
        new_epoch: int,
        affected_labels: frozenset | None,
    ) -> tuple[int, int]:
        """Migrate unaffected ``old_epoch`` entries to ``new_epoch``.

        An entry survives the update iff its label footprint is exact and
        disjoint from ``affected_labels``.  ``affected_labels=None``
        (rebuild path: no invalidation signal) drops everything.  Entries
        of epochs older than ``old_epoch`` are purged either way.
        Returns ``(migrated, dropped)``.
        """
        migrated = 0
        dropped = 0
        with self._lock:
            survivors: OrderedDict[tuple, ResultEntry] = OrderedDict()
            for (epoch, key), entry in self._entries.items():
                if (
                    epoch == old_epoch
                    and affected_labels is not None
                    and entry.labels is not None
                    and not (entry.labels & affected_labels)
                ):
                    survivors[(new_epoch, key)] = entry
                    migrated += 1
                else:
                    dropped += 1
            self._entries = survivors
            self.stats.invalidations += dropped
        return migrated, dropped
