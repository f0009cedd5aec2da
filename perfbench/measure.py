"""Statistics, process probes and answer comparison for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

#: Nearest-rank p99 needs this many samples to leave ten beyond it.
MIN_SAMPLES_P99 = 1000

#: Environment switches that change which code path runs; a measurement
#: under any of them would not describe the default program.
FORBIDDEN_ENV = ("REPRO_LOCKCHECK", "REPRO_KERNEL", "REPRO_COMPACT_NUMPY")


@dataclass
class Outcome:
    """What one op returned: its kind, the answer, and an optional class tag."""

    kind: str
    answer: object = None
    tag: str | None = None


#: Seconds one calibration slice takes on the reference host.
REFERENCE_SLICE_S = 0.005


def calibration_slice(turn: int = 0) -> float:
    """Seconds a fixed slice of interpreter work takes, pinned to one CPU.

    The host's speed drifts by tens of percent within a minute, and not
    equally on every CPU.  A run times this slice between ops, outside the
    measured window, on each CPU it may use in turn (``turn`` picks it),
    and scales its times by ``REFERENCE_SLICE_S / slice time`` (see
    :func:`speed_factors`), so a slow minute on the host does not read as
    a slow program.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        return _slice()
    os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
    try:
        return _slice()
    finally:
        os.sched_setaffinity(0, cpus)


def _slice() -> float:
    import heapq
    import random

    started = time.perf_counter()
    rng = random.Random(7)
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0
    for i in range(3_000):
        key = rng.randrange(5000)
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 500:
            total += heapq.heappop(heap)[1]
    total += len(sorted(table.items(), key=lambda kv: (kv[1], kv[0])))
    return time.perf_counter() - started


def speed_factors(slices: list[float], window: int = 6) -> list[float]:
    """Per slice, ``REFERENCE_SLICE_S`` over the median of the slices within
    ``window`` on either side: the factor that scales times measured after
    that slice to the reference host."""
    return [
        REFERENCE_SLICE_S / statistics.median(slices[max(0, i - window):i + window + 1])
        for i in range(len(slices))
    ]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` percent at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count))


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_hwm_mb() -> float:
    """Summed high-water RSS of this process's live spawn workers, in MB."""
    total = 0.0
    for pid in _children(os.getpid()):
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            if b"spawn_main" not in cmdline:
                continue
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def environment() -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy": has_numpy,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def forbidden_env() -> list[str]:
    return [name for name in FORBIDDEN_ENV if name in os.environ]


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def exact_form(matches) -> tuple:
    """Scores, assignments and order: equal only for byte-identical answers."""
    return tuple(
        (m.score, tuple(sorted(m.assignment.items(), key=repr))) for m in matches
    )


def tie_aware_form(matches, k: int) -> tuple:
    """What any correct top-k answer must share with any other.

    The score sequence is fixed.  When exactly ``k`` matches came back,
    matches tied at the k-th score may legitimately differ between
    algorithms, so only assignments strictly below it are compared.
    """
    scores = tuple(m.score for m in matches)
    boundary = matches[-1].score if matches and len(matches) == k else None
    certain = frozenset(
        (m.score, tuple(sorted(m.assignment.items(), key=repr)))
        for m in matches
        if boundary is None or m.score < boundary
    )
    return scores, certain
