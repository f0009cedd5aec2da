"""Benchmark harness shared by the ``benchmarks/`` suite."""

from repro.bench.experiments import (
    ALGOS,
    PhaseResult,
    Workbench,
    average_runs,
    clear_workbench_cache,
    get_workbench,
    run_algorithm,
)
from repro.bench.figures import print_bars, render_bars
from repro.bench.harness import (
    DEFAULT_COST_MODEL,
    AlgoRun,
    fmt_seconds,
    measure,
    print_header,
    print_series,
    print_table,
    speedup_summary,
    time_call,
)

__all__ = [
    "ALGOS",
    "Workbench",
    "get_workbench",
    "clear_workbench_cache",
    "PhaseResult",
    "run_algorithm",
    "average_runs",
    "AlgoRun",
    "measure",
    "time_call",
    "print_header",
    "print_table",
    "print_series",
    "fmt_seconds",
    "speedup_summary",
    "DEFAULT_COST_MODEL",
    "render_bars",
    "print_bars",
]
