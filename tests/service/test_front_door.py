"""The request-side contract both serving front-ends share.

Every check runs against the flat :class:`MatchService` and a 2-shard
:class:`ShardedMatchService` (real spawned workers): admission control,
queue deadlines, argument validation, the closed state and batch order
are one implementation, so they must behave identically on both.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import MatchService, ShardedMatchService
from tests.service.test_service import _GatedQuery, two_cluster_graph

QUERIES = ["A//B", "C//D", "A//B[C]"]


def _build(kind: str, **kwargs):
    if kind == "MatchService":
        return MatchService(two_cluster_graph(), **kwargs)
    return ShardedMatchService(two_cluster_graph(), num_shards=2, **kwargs)


@pytest.fixture(params=["MatchService", "ShardedMatchService"])
def make(request):
    """Factory for a front-end of the parametrized kind; closes what it built."""
    built = []

    def factory(**kwargs):
        service = _build(request.param, **kwargs)
        built.append(service)
        return service

    yield factory
    for service in built:
        service.close()


def scores(matches):
    return [m.score for m in matches]


def test_overload_fails_fast(make):
    gate = threading.Event()
    service = make(max_workers=1, max_pending=2)
    first = service.submit(_GatedQuery(gate), 1)   # running
    second = service.submit(_GatedQuery(gate), 1)  # queued
    with pytest.raises(ServiceOverloadedError):
        service.submit("A//B", 1)
    assert service.statistics()["overload_rejections"] == 1
    gate.set()
    first.result(timeout=60)
    second.result(timeout=60)
    # Slots were released: submitting works again.
    assert service.submit("A//B", 1).result(timeout=60).matches


def test_deadline_exceeded_while_queued(make):
    gate = threading.Event()
    service = make(max_workers=1)
    blocker = service.submit(_GatedQuery(gate), 1)
    late = service.submit("A//B", 1, deadline=0.02)
    time.sleep(0.1)  # let the deadline lapse while queued
    gate.set()
    assert len(blocker.result(timeout=60).matches) == 1
    with pytest.raises(DeadlineExceededError):
        late.result(timeout=60)
    assert service.statistics()["deadline_misses"] == 1


def test_invalid_deadline_rejected(make):
    service = make()
    for deadline in (0, -1.0):
        with pytest.raises(ServiceError, match="deadline must be positive"):
            service.submit("A//B", 1, deadline=deadline)
    with pytest.raises(ServiceError, match="deadline must be positive"):
        service.batch(["A//B"], 1, deadline=0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"max_workers": 0}, "max_workers"),
        ({"max_pending": 0}, "max_pending"),
        ({"default_deadline": -1}, "default_deadline"),
    ],
)
def test_invalid_construction_rejected(make, kwargs, match):
    with pytest.raises(ServiceError, match=match):
        make(**kwargs)


def test_negative_k_rejected(make):
    service = make()
    with pytest.raises(ValueError, match="k must be non-negative"):
        service.top_k("A//B", -1)


def test_closed_service_refuses_requests(make):
    service = make()
    service.close()
    assert service.closed
    with pytest.raises(ServiceClosedError):
        service.top_k("A//B", 1)
    with pytest.raises(ServiceClosedError):
        service.submit("A//B", 1)
    with pytest.raises(ServiceClosedError):
        service.batch(QUERIES, 1)
    with pytest.raises(ServiceClosedError):
        service.apply_updates(edges_added=[("a0", "b0")])
    service.close()  # idempotent


def test_batch_preserves_order(make):
    service = make(max_workers=2)
    got = service.batch(QUERIES, 4)
    expected = [service.top_k(query, 4) for query in QUERIES]
    assert [scores(m) for m in got] == [scores(m) for m in expected]
    assert [len(m) for m in got] == [3, 2, 0]
