"""Optional numpy acceleration behind a feature flag.

The compact layer is pure standard library by default.  When the
environment variable ``REPRO_COMPACT_NUMPY`` is set to ``1``/``true``/
``yes``/``on`` *and* numpy is importable, one bulk operation takes a
vectorized path: collecting the reached ids out of a dense distance
buffer (``CompactGraph._collect``, behind every closure row and backward
search).  Numpy is never required: with the flag off or numpy missing,
the stdlib loop runs and produces bit-identical results.
"""

from __future__ import annotations

import os

_TRUTHY = frozenset({"1", "true", "yes", "on"})
_cache: list = []  # [module | None], resolved lazily


def numpy_enabled() -> bool:
    """True when the ``REPRO_COMPACT_NUMPY`` feature flag is on."""
    return os.environ.get("REPRO_COMPACT_NUMPY", "").strip().lower() in _TRUTHY


def numpy_or_none():
    """The numpy module when the flag is on and numpy imports, else None."""
    if not numpy_enabled():
        return None
    if not _cache:
        try:
            import numpy
        except ImportError:  # pragma: no cover - depends on environment
            numpy = None
        _cache.append(numpy)
    return _cache[0]
