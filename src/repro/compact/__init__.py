"""Compact interned-ID columnar core.

This package is the memory layer beneath the closure machinery: node
identities are interned to dense integers (:class:`NodeInterner`), the
data graph is laid out as CSR adjacency over stdlib ``array`` buffers
(:class:`CompactGraph`), and transitive-closure rows are parallel
``(target, dist)`` arrays (:class:`ClosureRows`) instead of nested
dicts.  The layers above (``repro.closure`` and everything on top of
it) translate between external ``NodeId`` objects and interned ints at
their API boundary only — see DESIGN.md, "The interned-ID boundary
contract".

Layering: ``repro.compact`` sits directly above ``repro.graph`` and
below ``repro.closure``.  It must never import from the closure,
storage, engine, or service layers (enforced by the CI ruff check and
``tests/compact/test_layering.py``).

Optional acceleration: setting ``REPRO_COMPACT_NUMPY=1`` lets the
builders use numpy for bulk index collection when numpy is installed;
the pure-stdlib paths remain the default and numpy is never required.
"""

from repro.compact.accel import numpy_enabled, numpy_or_none
from repro.compact.csr import CompactGraph, array_copy
from repro.compact.interner import NodeInterner
from repro.compact.rows import ClosureRows, buffer_bytes
from repro.compact.span import SpanView, forward_closure

__all__ = [
    "CompactGraph",
    "ClosureRows",
    "NodeInterner",
    "SpanView",
    "array_copy",
    "buffer_bytes",
    "forward_closure",
    "numpy_enabled",
    "numpy_or_none",
]
