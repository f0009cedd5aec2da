"""The request side both serving front-ends share (:class:`_ServiceFront`)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from repro.core.matches import Match
from repro.devtools.lockcheck import make_lock
from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)


class _ServiceFront:
    """Admission, deadlines, counters and lifecycle of a serving front-end.

    :class:`MatchService` and :class:`ShardedMatchService` take traffic
    the same way — bounded admission (fail-fast :meth:`submit`,
    back-pressured :meth:`batch`), queue deadlines, argument validation,
    counters and shutdown — and differ only in how a request is
    answered: against one in-process snapshot, or by a scatter over
    shard workers.  A subclass supplies ``_answer(query, k, algorithm,
    expires_at)`` plus its own update, compaction and statistics paths.
    """

    #: Prefix of the update/stats lock names (what the lock-order
    #: sanitizer reports) and of the request pool's thread names.
    _lock_prefix = "service"
    _thread_prefix = "matchservice"

    def __init__(
        self,
        max_workers: int,
        max_pending: int | None,
        default_deadline: float | None,
    ) -> None:
        if max_workers <= 0:
            raise ServiceError(f"max_workers must be positive, got {max_workers}")
        if max_pending is None:
            max_pending = 8 * max_workers
        if max_pending <= 0:
            raise ServiceError(f"max_pending must be positive, got {max_pending}")
        if default_deadline is not None and default_deadline <= 0:
            raise ServiceError(
                f"default_deadline must be positive, got {default_deadline}"
            )
        self.max_workers = max_workers
        self.max_pending = max_pending
        self.default_deadline = default_deadline
        # The pool starts its threads lazily, so a subclass constructor
        # that fails after this point leaks none.
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=self._thread_prefix
        )
        self._slots = threading.BoundedSemaphore(max_pending)
        self._update_lock = make_lock(f"{self._lock_prefix}.update")
        self._closed = False
        # Monotonic counters; guarded by a lock so the consistency
        # identities the stress tests assert (e.g. result-cache lookups
        # == cacheable requests) hold exactly under contention.
        self._stats_lock = make_lock(f"{self._lock_prefix}.stats")
        self._requests = 0
        self._deadline_misses = 0
        self._overload_rejections = 0
        self._updates_applied = 0
        self._compactions = 0

    def _count(self, counter: str) -> None:
        with self._stats_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _front_statistics(self) -> dict:
        """The counters every front-end reports; subclasses add their own."""
        return {
            "epoch": self.epoch,
            "requests": self._requests,
            "deadline_misses": self._deadline_misses,
            "overload_rejections": self._overload_rejections,
            "updates_applied": self._updates_applied,
            "max_workers": self.max_workers,
            "max_pending": self.max_pending,
            "delta": {"compactions": self._compactions},
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                f"this {type(self).__name__} has been closed"
            )

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _expiry(self, deadline: float | None) -> float | None:
        """Monotonic expiry of a ``deadline``-second budget (or the default)."""
        if deadline is None:
            deadline = self.default_deadline
        if deadline is None:
            return None
        if deadline <= 0:
            raise ServiceError(f"deadline must be positive, got {deadline}")
        return time.monotonic() + deadline

    def top_k(self, query, k: int, algorithm: str | None = None) -> list[Match]:
        """Synchronous top-k on the caller's thread (mirrors the engine API).

        Runs against the newest graph version and feeds/serves the
        caches like every other request.
        """
        self._check_open()
        return list(self._answer(query, k, algorithm, self._expiry(None)).matches)

    def _run_request(
        self, query, k: int, algorithm: str | None, expires_at: float | None
    ):
        if expires_at is not None and time.monotonic() > expires_at:
            self._count("_deadline_misses")
            raise DeadlineExceededError(
                "request deadline expired while queued "
                f"(deadline was {expires_at:.3f} on the monotonic clock)"
            )
        return self._answer(query, k, algorithm, expires_at)

    def _submit(
        self,
        query,
        k: int,
        algorithm: str | None,
        deadline: float | None,
        block: bool,
    ) -> Future:
        self._check_open()
        expires_at = self._expiry(deadline)
        if not self._slots.acquire(blocking=block):
            self._count("_overload_rejections")
            raise ServiceOverloadedError(
                f"request queue is full ({self.max_pending} in flight); "
                "back off and retry"
            )
        try:
            future = self._pool.submit(
                self._run_request, query, k, algorithm, expires_at
            )
        except RuntimeError as exc:  # pool shut down concurrently
            self._slots.release()
            raise ServiceClosedError(
                f"this {type(self).__name__} has been closed"
            ) from exc
        # Release the slot from a done callback, not inside the task
        # body: a cancelled still-queued future never runs its task, and
        # the callback is the one hook that fires exactly once for
        # completion, failure, and cancellation alike.
        future.add_done_callback(lambda _finished: self._slots.release())
        return future

    def submit(
        self,
        query,
        k: int,
        algorithm: str | None = None,
        deadline: float | None = None,
    ) -> Future:
        """Queue one request; the future resolves to the class's response.

        Fails fast with :class:`ServiceOverloadedError` when ``max_pending``
        requests are already in flight.  ``deadline`` (seconds) bounds
        queue wait: a request picked up past its deadline fails with
        :class:`DeadlineExceededError` instead of executing.
        """
        return self._submit(query, k, algorithm, deadline, block=False)

    def batch(
        self,
        queries,
        k: int,
        algorithm: str | None = None,
        deadline: float | None = None,
    ) -> list[list[Match]]:
        """Answer many queries through the worker pool, in input order.

        Applies back-pressure: when the queue is full, enqueueing blocks
        instead of raising.  The first failed request propagates (the
        rest still complete in the pool).
        """
        futures = [
            self._submit(query, k, algorithm, deadline, block=True)
            for query in queries
        ]
        return [list(future.result().matches) for future in futures]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True):
        """Stop accepting requests and shut the request pool down."""
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
