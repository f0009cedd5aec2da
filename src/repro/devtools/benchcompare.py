"""Compare two sets of perfbench runs against the bounds in ``BENCHMARK.json``.

    python -m repro.devtools.benchcompare PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl``: one line per seed, each line the
final JSON line of a ``perfbench/run.py`` run (``correct``, ``attempted``,
``failed`` and ``metrics``, a map of metric name to ``{"value", "unit"}``).
Workload and metric names, directions and bounds are read from
``BENCHMARK.json`` in the current directory (the repository root); nothing
is imported from ``perfbench``.

For every workload the tool prints each metric's median on both sides and
the relative change.  Exit codes follow the CLI's convention:

* **0** — no finding;
* **1** — an end-to-end median moved the wrong way by more than its bound,
  a run reported ``correct: false``, or the change side failed a larger
  share of its attempted operations than the parent side;
* **2** — the inputs cannot be compared: a side has fewer than
  ``MIN_SEEDS`` runs of a workload, the sides hold different workloads or
  metrics, or a workload or metric is not in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_SEEDS = 5


class CompareError(Exception):
    """The two sides cannot be compared (exit code 2)."""


def load_side(directory: Path, spec: dict) -> dict[str, list[dict]]:
    """Map each workload in ``directory`` to its parsed run lines."""
    workloads = {entry["name"] for entry in spec["workloads"]}
    known = {entry["name"] for entry in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {}
    files = sorted(Path(directory).glob("*.jsonl"))
    if not files:
        raise CompareError(f"{directory}: no <workload>.jsonl files")
    for path in files:
        if path.stem not in workloads:
            raise CompareError(f"{path}: unknown workload {path.stem!r}")
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        try:
            runs[path.stem] = [json.loads(line) for line in lines]
        except json.JSONDecodeError as exc:
            raise CompareError(f"{path}: not a JSON line: {exc}") from None
        if len(lines) < MIN_SEEDS:
            raise CompareError(
                f"{path}: {len(lines)} runs, at least {MIN_SEEDS} seeds needed"
            )
        for run in runs[path.stem]:
            if not _is_result_line(run):
                raise CompareError(f"{path}: not a perfbench result line: {run!r:.80}")
            unknown = sorted(set(run["metrics"]) - known)
            if unknown:
                raise CompareError(f"{path}: unknown metric {unknown[0]!r}")
    return runs


def _is_result_line(run) -> bool:
    return (
        isinstance(run, dict)
        and {"correct", "attempted", "failed", "metrics"} <= set(run)
        and isinstance(run["metrics"], dict)
        and all(isinstance(m, dict) and "value" in m for m in run["metrics"].values())
    )


def _median(runs: list[dict], name: str) -> float:
    return statistics.median(run["metrics"][name]["value"] for run in runs)


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(1, attempted)


def _relative(before: float, after: float) -> float:
    if before:
        return (after - before) / before
    return 0.0 if after == before else float("inf")


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> tuple[list[str], list[str]]:
    """Return the report lines and the findings of ``change`` vs ``parent``."""
    parent = load_side(parent_dir, spec)
    change = load_side(change_dir, spec)
    if set(parent) != set(change):
        raise CompareError(
            f"the sides hold different workloads: {sorted(parent)} vs {sorted(change)}"
        )
    bounds = {entry["name"]: entry for entry in spec["end_to_end"]}
    report: list[str] = []
    findings: list[str] = []
    for workload in sorted(parent):
        sides = (parent[workload], change[workload])
        names = {frozenset(run["metrics"]) for runs in sides for run in runs}
        if len(names) != 1:
            raise CompareError(f"{workload}: the runs report different metrics")
        report.append(f"{workload} ({len(sides[0])} vs {len(sides[1])} seeds)")
        for name in sorted(next(iter(names))):
            before, after = _median(sides[0], name), _median(sides[1], name)
            delta = _relative(before, after)
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = delta if bounds[name]["better"] == "lower" else -delta
                verdict = f"bound {bound:.2f}"
                if worse > bound:
                    verdict += " WORSE"
                    findings.append(
                        f"{workload}: {name} median {before:.4g} -> {after:.4g} "
                        f"({delta:+.1%}), past its {bound:.0%} bound"
                    )
            report.append(f"  {name:34s} {before:12.4g} {after:12.4g} {delta:+8.1%}  {verdict}")
        shares = _failed_share(sides[0]), _failed_share(sides[1])
        report.append(f"  {'failed share':34s} {shares[0]:12.4g} {shares[1]:12.4g}")
        if shares[1] > shares[0]:
            findings.append(
                f"{workload}: failed share rose from {shares[0]:.4g} to {shares[1]:.4g}"
            )
        for side, runs in zip(("parent", "change"), sides):
            wrong = sum(1 for run in runs if run["correct"] is not True)
            if wrong:
                findings.append(f"{workload}: {wrong} {side} run(s) report correct: false")
    return report, findings


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m repro.devtools.benchcompare PARENT_DIR CHANGE_DIR",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        report, findings = compare(Path(args[0]), Path(args[1]), spec)
    except (OSError, CompareError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'':36s} {'parent':>12s} {'change':>12s} {'change%':>8s}")
    print("\n".join(report))
    for finding in findings:
        print(f"FINDING {finding}")
    print(f"{len(findings)} finding(s)" if findings
          else "ok: every end-to-end median within its bound")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
