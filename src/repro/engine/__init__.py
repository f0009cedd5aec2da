"""Pluggable-backend match engine: planning, streaming, persistence.

This package is the primary public API of the reproduction.  See
:class:`MatchEngine` for the tour; :mod:`repro.engine.backends` for the
five reachability backends; :mod:`repro.engine.planner` for the
``algorithm="auto"`` rules; :mod:`repro.engine.stream` for lazy result
consumption.
"""

from repro.engine.backends import (
    BackendRefresh,
    ConstrainedBackend,
    FullClosureBackend,
    HybridBackend,
    OnDemandBackend,
    PLLBackend,
    ReachabilityBackend,
    build_backend,
    restore_backend,
)
from repro.engine.config import (
    ALGORITHMS,
    BACKENDS,
    ENGINE_ALGORITHMS,
    EngineBuilder,
    EngineConfig,
)
from repro.engine.core import INDEX_FORMAT_VERSION, MatchEngine, PreparedQuery
from repro.engine.planner import (
    CYCLIC_ALGORITHMS,
    Planner,
    QueryPlan,
    choose_backend,
    config_fingerprint,
)
from repro.engine.stream import ResultStream

__all__ = [
    "MatchEngine",
    "PreparedQuery",
    "EngineConfig",
    "EngineBuilder",
    "QueryPlan",
    "Planner",
    "ResultStream",
    "ReachabilityBackend",
    "BackendRefresh",
    "config_fingerprint",
    "FullClosureBackend",
    "OnDemandBackend",
    "HybridBackend",
    "PLLBackend",
    "ConstrainedBackend",
    "build_backend",
    "restore_backend",
    "choose_backend",
    "BACKENDS",
    "ALGORITHMS",
    "ENGINE_ALGORITHMS",
    "CYCLIC_ALGORITHMS",
    "INDEX_FORMAT_VERSION",
]
