"""Span recorder for the traced run.

Spans are recorded only from the benchmark's own code: around the calls
the benchmark makes into each layer, and around public entry points of
the program that the benchmark wraps for the duration of the traced pass
(:meth:`Tracer.wrap`), at the attribute the calling module looks up.
Every wrap is undone by :meth:`Tracer.uninstall`; untraced runs never
patch anything.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


def spans(tracer):
    """``tracer.span``, or a no-op stand-in when the run is untraced."""
    if tracer is None:
        return lambda _name: nullcontext()
    return tracer.span


class Tracer:
    def __init__(self) -> None:
        #: ``(span_id, parent_id, request_id, name, start_ns, end_ns)``
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Block counters of engines created while tracing (by folds).
        self.io_counters: list = []
        self.request_id: int | None = None
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._next_id = 0
        self._gc_started = 0
        self.gc_collections = 0
        self.gc_pause_ns = 0

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        self._next_id += 1
        sid = self._next_id
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, self.request_id, name, start, end))

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- wrapping program entry points ----------------------------------
    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``on_result(result, args)`` runs after the call, outside the span,
        to read counts off the returned object.
        """
        own = isinstance(owner, type) and attr in owner.__dict__
        original = owner.__dict__[attr] if own else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(owner, attr, traced)
        # An inherited method is shadowed on the subclass; undo deletes it.
        inherited = isinstance(owner, type) and not own
        self._undo.append((owner, attr, None if inherited else original))

    def install_gc(self) -> None:
        gc.callbacks.append(self._on_gc)
        self._undo.append((None, None, None))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_started

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if owner is None:
                gc.callbacks.remove(self._on_gc)
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, total self ms)`` over every recorded span."""
        return summarize(self.spans)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, parent, rid, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "request": rid, "name": name,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


def covered_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, tuple[int, float]]:
    """Self time per span name: duration minus what its children cover."""
    children = defaultdict(list)
    for sid, parent, _rid, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for sid, _parent, _rid, name, start, end in spans:
        inside = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        own = (end - start) - covered_ns(inside)
        entry = out[name]
        entry[0] += 1
        entry[1] += own / 1e6
    return {name: (calls, ms) for name, (calls, ms) in out.items()}
